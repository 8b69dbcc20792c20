//! The reference-checked executor harness (`mod harness;`).
//!
//! There is one executor (`fro_exec::execute_with`). The suites that
//! include this module check it against `fro-algebra` over a plain
//! `Database`: the reference operators (`ops::{join, outerjoin,
//! full_outerjoin, semijoin, antijoin, goj, group_count}`) for
//! hand-built plans, `Query::eval` for lowered and optimized
//! implementing trees.
//!
//! [`check`] runs a plan once sequentially, and its result must be
//! set-equal to the reference. For the shapes whose work is known in
//! closed form — a filter chain over a scan, and a hash or index join
//! probing one — the counters must equal the values derived from the
//! reference ([`pinned`]). It then runs the plan at configurations of
//! threads {1, 2, 8} × morsel rows {1, 5, 1024} × hash-join partitions
//! {1, 2, 8, 64, auto}. At each, rows, row order, schema and
//! `ExecStats` must equal the sequential run's, and the per-partition
//! build/probe rows must sum to the same totals. The first
//! [`FULL_SWEEPS`] checks on a test's thread run all 45
//! configurations; every later check runs every [`STRIDE`]-th one,
//! offset by its call number, so any [`STRIDE`] consecutive checks
//! cover all 45 between them. [`check_explain`] pins every `(rows=N)`
//! line of `explain_analyze` to the size of its executed subtree.

#![allow(dead_code)]

use fro_algebra::{ops, Attr, CmpOp, Database, Pred, Relation, Value};
use fro_exec::{
    execute, execute_with, explain_analyze_with, ExecConfig, ExecStats, JoinKind, PhysPlan, Storage,
};
use fro_testkit::{random_database, DbSpec};
use std::cell::Cell;

pub const KINDS: [JoinKind; 5] = [
    JoinKind::Inner,
    JoinKind::LeftOuter,
    JoinKind::FullOuter,
    JoinKind::Semi,
    JoinKind::Anti,
];

pub const THREADS: [usize; 3] = [1, 2, 8];
/// Morsel sizes on both sides of the probe cardinality: 1 and 5 split
/// the small inputs into many morsels, 1024 leaves them one.
pub const MORSELS: [usize; 3] = [1, 5, 1024];
/// Hash-join partition counts; 0 is auto (picked per join from the
/// build cardinality).
pub const PARTITIONS: [usize; 5] = [1, 2, 8, 64, 0];

/// Checks per test thread that sweep every configuration.
pub const FULL_SWEEPS: usize = 8;
/// Later checks run the configurations whose index is congruent to
/// the check's call number modulo `STRIDE` (6 or 7 of the 45).
pub const STRIDE: usize = 7;

thread_local! {
    /// [`check`] calls made so far on this test's thread.
    static CHECKS: Cell<usize> = const { Cell::new(0) };
}

/// The configurations the next [`check`] on this thread sweeps.
fn next_sweep() -> impl Iterator<Item = (usize, usize, usize)> {
    let n = CHECKS.with(|c| c.replace(c.get() + 1));
    let all = THREADS.into_iter().flat_map(|t| {
        MORSELS
            .into_iter()
            .flat_map(move |m| PARTITIONS.into_iter().map(move |p| (t, m, p)))
    });
    all.enumerate()
        .filter(move |(i, _)| n < FULL_SWEEPS || i % STRIDE == n % STRIDE)
        .map(|(_, config)| config)
}

pub fn partition_totals(st: &ExecStats) -> (u64, u64) {
    (
        st.partition.build_rows().iter().sum(),
        st.partition.probe_rows().iter().sum(),
    )
}

/// Run `plan` sequentially and check it against `want` (and its
/// counters against [`pinned`]), then at the configurations of
/// [`next_sweep`] against the sequential run. Returns the sequential
/// result and stats.
pub fn check(
    plan: &PhysPlan,
    storage: &Storage,
    want: &Relation,
    label: &str,
) -> (Relation, ExecStats) {
    let mut seq_st = ExecStats::new();
    let seq =
        execute(plan, storage, &mut seq_st).unwrap_or_else(|e| panic!("{label}: {e}\n{plan}"));
    assert!(
        seq.set_eq(want),
        "{label}: executor disagrees with the reference ({} vs {} rows)\n{plan}",
        seq.len(),
        want.len()
    );
    assert!(
        seq.is_empty() || seq_st.rows_pipelined + seq_st.rows_materialized > 0,
        "{label}: rows produced but no flow counted"
    );
    let totals = partition_totals(&seq_st);
    assert!(
        totals.0 <= seq_st.hash_build_rows,
        "{label}: scattered more rows than the build read"
    );
    if let Some(p) = pinned(plan, storage) {
        let got = Pinned {
            tuples_retrieved: seq_st.tuples_retrieved,
            comparisons: p.comparisons.map(|_| seq_st.comparisons),
            hash_build_rows: seq_st.hash_build_rows,
            index_probes: seq_st.index_probes,
        };
        assert_eq!(got, p, "{label}: counters\n{plan}");
    }
    for (threads, morsel, partitions) in next_sweep() {
        let cfg = ExecConfig::with_threads(threads)
            .morsel_rows(morsel)
            .partitions(partitions);
        let at = format!("{label} at threads={threads} morsel={morsel} P={partitions}");
        let mut st = ExecStats::new();
        let out =
            execute_with(plan, storage, &mut st, &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(out.rows(), seq.rows(), "{at}: rows");
        assert_eq!(out.schema(), seq.schema(), "{at}: schema");
        assert_eq!(st, seq_st, "{at}: stats");
        assert_eq!(st.morsels_skipped, seq_st.morsels_skipped, "{at}: zones");
        assert_eq!(partition_totals(&st), totals, "{at}: partition totals");
        if partitions > 0 && seq_st.partition.used() > 0 {
            assert_eq!(st.partition.used(), partitions, "{at}: partitions used");
        }
    }
    (seq, seq_st)
}

/// The counters a plan must report, for the shapes whose work is known
/// in closed form.
#[derive(Debug, PartialEq, Eq)]
pub struct Pinned {
    pub tuples_retrieved: u64,
    /// `None` where the count depends on where a semi/anti probe stops.
    pub comparisons: Option<u64>,
    pub hash_build_rows: u64,
    pub index_probes: u64,
}

/// A `Filter*` chain over a `Scan`: the rows it passes, the table's
/// size, and its comparisons — one per row reaching each filter.
fn filter_chain(plan: &PhysPlan, db: &Database) -> Option<(Relation, u64, u64)> {
    match plan {
        PhysPlan::Scan { rel } => {
            let r = self::rel(db, rel).clone();
            let n = r.len() as u64;
            Some((r, n, 0))
        }
        PhysPlan::Filter { input, pred } => {
            let (rows, retrieved, comparisons) = filter_chain(input, db)?;
            let passed = ops::restrict(&rows, pred).expect("reference restrict");
            Some((passed, retrieved, comparisons + rows.len() as u64))
        }
        _ => None,
    }
}

/// Pairs of `l` and `r` rows whose keys are equal and non-null.
fn key_pairs(l: &Relation, r: &Relation, l_keys: &[Attr], r_keys: &[Attr]) -> u64 {
    let on = l_keys.iter().zip(r_keys).fold(Pred::always(), |p, (a, b)| {
        p.and(Pred::eq_attr(&a.to_string(), &b.to_string()))
    });
    ops::join(l, r, &on).expect("reference join").len() as u64
}

/// The counters `plan` must report, derived from the reference, when
/// it is a filter chain over a scan, a hash join probing one with a
/// bare-scan build, or an index join probing one. A scan retrieves
/// its table; a filter compares every row reaching it; a hash build
/// reads (and counts) every build row; an index join issues one probe
/// per outer row and retrieves each key match; a wide join compares
/// every equal-key pair.
pub fn pinned(plan: &PhysPlan, storage: &Storage) -> Option<Pinned> {
    let db = storage.to_database();
    if let Some((_, tuples_retrieved, comparisons)) = filter_chain(plan, &db) {
        return Some(Pinned {
            tuples_retrieved,
            comparisons: Some(comparisons),
            hash_build_rows: 0,
            index_probes: 0,
        });
    }
    let (kind, outer, inner, l_keys, r_keys, hashed) = match plan {
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            ..
        } => match build.as_ref() {
            PhysPlan::Scan { rel } => (kind, probe, rel, probe_keys, build_keys, true),
            _ => return None,
        },
        PhysPlan::IndexJoin {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            ..
        } => (kind, outer, inner, outer_keys, inner_keys, false),
        _ => return None,
    };
    let (l, retrieved, comparisons) = filter_chain(outer, &db)?;
    let r = self::rel(&db, inner);
    let pairs = key_pairs(&l, r, l_keys, r_keys);
    let wide = !matches!(kind, JoinKind::Semi | JoinKind::Anti);
    Some(Pinned {
        tuples_retrieved: retrieved + if hashed { r.len() as u64 } else { pairs },
        comparisons: wide.then_some(comparisons + pairs),
        hash_build_rows: if hashed { r.len() as u64 } else { 0 },
        index_probes: if hashed { 0 } else { l.len() as u64 },
    })
}

pub fn reference(kind: JoinKind, l: &Relation, r: &Relation, pred: &Pred) -> Relation {
    match kind {
        JoinKind::Inner => ops::join(l, r, pred),
        JoinKind::LeftOuter => ops::outerjoin(l, r, pred),
        JoinKind::FullOuter => ops::full_outerjoin(l, r, pred),
        JoinKind::Semi => ops::semijoin(l, r, pred),
        JoinKind::Anti => ops::antijoin(l, r, pred),
    }
    .expect("reference evaluator")
}

pub fn rel<'a>(db: &'a Database, name: &str) -> &'a Relation {
    db.get(name).expect("generated table")
}

pub fn key(name: &str) -> Vec<Attr> {
    vec![Attr::parse(&format!("{name}.k"))]
}

pub fn hash_join(kind: JoinKind, probe: PhysPlan, build: PhysPlan, l: &str, r: &str) -> PhysPlan {
    PhysPlan::HashJoin {
        kind,
        probe: Box::new(probe),
        build: Box::new(build),
        probe_keys: key(l),
        build_keys: key(r),
        residual: Pred::always(),
    }
}

/// A `kv` database over `names`; with `hot`, every row of the last
/// relation carries the same key, so its whole build lands in one
/// bucket of one partition.
pub fn kv_db(
    names: &[&str],
    rows: usize,
    domain: i64,
    nulls: u32,
    hot: bool,
    seed: u64,
) -> Database {
    let db = random_database(
        &DbSpec::kv(names, rows, domain, f64::from(nulls) / 100.0),
        seed,
    );
    if !hot {
        return db;
    }
    let mut out = Database::new();
    for (name, r) in db.iter() {
        let r = if Some(&name) == names.last() {
            let rows = r
                .rows()
                .iter()
                .map(|t| vec![Value::Int(domain / 2), t.get(1).clone()]);
            Relation::from_values(name, &["k", "v"], rows.collect())
        } else {
            r.clone()
        };
        out.insert_named(name, r);
    }
    out
}

pub fn non_null_keys(r: &Relation) -> u64 {
    r.rows().iter().filter(|t| !t.get(0).is_null()).count() as u64
}

/// `L.v <= R.v` when `on`, else no residual.
pub fn residual(on: bool) -> Pred {
    if on {
        Pred::cmp_attr("L.v", CmpOp::Le, "R.v")
    } else {
        Pred::always()
    }
}

/// A `kv` relation behind a projection: an operand the executor
/// materializes, so a join over it hashes rows, not columns.
pub fn materialized(n: &str) -> PhysPlan {
    PhysPlan::Project {
        input: Box::new(PhysPlan::scan(n)),
        attrs: vec![
            Attr::parse(&format!("{n}.k")),
            Attr::parse(&format!("{n}.v")),
        ],
    }
}

/// The physical joins that implement an equijoin `L.k = R.k`.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// A hash join over bare scans (the build hashes the key column).
    Hash,
    /// A hash join over materialized operands (the build hashes rows).
    HashRows,
    Merge,
    Nl,
    /// An index join probing `R`'s key index; rejects full outerjoins.
    Index,
}

/// `op` implementing `kind` over `L.k = R.k ∧ residual`.
pub fn equi_join(op: Op, kind: JoinKind, residual: &Pred) -> PhysPlan {
    let scan = |n: &str| Box::new(PhysPlan::scan(n));
    let hash = |probe: PhysPlan, build: PhysPlan| PhysPlan::HashJoin {
        kind,
        probe: Box::new(probe),
        build: Box::new(build),
        probe_keys: key("L"),
        build_keys: key("R"),
        residual: residual.clone(),
    };
    match op {
        Op::Hash => hash(PhysPlan::scan("L"), PhysPlan::scan("R")),
        Op::HashRows => hash(materialized("L"), materialized("R")),
        Op::Merge => PhysPlan::MergeJoin {
            kind,
            left: scan("L"),
            right: scan("R"),
            left_keys: key("L"),
            right_keys: key("R"),
            residual: residual.clone(),
        },
        Op::Nl => PhysPlan::NlJoin {
            kind,
            left: scan("L"),
            right: scan("R"),
            pred: Pred::eq_attr("L.k", "R.k").and(residual.clone()),
        },
        Op::Index => index_join(kind, PhysPlan::scan("L"), residual),
    }
}

/// An index join of `outer` with `R` on `L.k = R.k ∧ residual`.
pub fn index_join(kind: JoinKind, outer: PhysPlan, residual: &Pred) -> PhysPlan {
    PhysPlan::IndexJoin {
        kind,
        outer: Box::new(outer),
        inner: "R".into(),
        outer_keys: key("L"),
        inner_keys: key("R"),
        residual: residual.clone(),
    }
}

/// Check `op` against the reference on every kind it accepts, over the
/// `L`/`R` relations of `db`. Returns each kind's sequential stats.
pub fn check_equi_join(
    op: Op,
    db: &Database,
    storage: &Storage,
    residual: &Pred,
) -> Vec<(JoinKind, ExecStats)> {
    let pred = Pred::eq_attr("L.k", "R.k").and(residual.clone());
    let (l, r) = (rel(db, "L"), rel(db, "R"));
    KINDS
        .into_iter()
        .filter(|&kind| !matches!((op, kind), (Op::Index, JoinKind::FullOuter)))
        .map(|kind| {
            let plan = equi_join(op, kind, residual);
            let label = format!("{op:?} {kind}");
            (
                kind,
                check(&plan, storage, &reference(kind, l, r, &pred), &label).1,
            )
        })
        .collect()
}

/// `explain_analyze` lists every plan node in pre-order with the rows
/// its subtree produces when executed on its own, and the report is
/// identical at every thread count and morsel size.
pub fn check_explain(plan: &PhysPlan, storage: &Storage, label: &str) {
    let (_, report) = explain_analyze_with(plan, storage, &ExecConfig::new()).expect("explains");
    let mut nodes = Vec::new();
    preorder(plan, &mut nodes);
    let counts: Vec<u64> = report
        .lines()
        .take_while(|l| !l.starts_with("totals:"))
        .map(|l| {
            l.rsplit_once("(rows=")
                .and_then(|(_, n)| n.strip_suffix(')')?.parse().ok())
                .unwrap_or_else(|| panic!("{label}: no row count in `{l}`"))
        })
        .collect();
    assert_eq!(
        counts.len(),
        nodes.len(),
        "{label}: one line per node\n{report}"
    );
    for (node, &n) in nodes.iter().zip(&counts) {
        let rows = execute(node, storage, &mut ExecStats::new()).expect("subtree runs");
        assert_eq!(
            rows.len() as u64,
            n,
            "{label}: rows of\n{node}\nin\n{report}"
        );
    }
    for (threads, morsel) in [(2, 1), (8, 5), (8, 1024)] {
        let cfg = ExecConfig::with_threads(threads).morsel_rows(morsel);
        let (_, r) = explain_analyze_with(plan, storage, &cfg).expect("explains");
        assert_eq!(
            r, report,
            "{label}: report at threads={threads} morsel={morsel}"
        );
    }
}

/// Plan nodes in `explain_analyze` order: pre-order over
/// [`PhysPlan::children`].
pub fn preorder<'a>(plan: &'a PhysPlan, out: &mut Vec<&'a PhysPlan>) {
    out.push(plan);
    for child in plan.children() {
        preorder(child, out);
    }
}

/// Storage over `db` with a key index on every relation.
pub fn indexed(db: &Database) -> Storage {
    let mut storage = Storage::from_database(db);
    let names: Vec<String> = db.names().map(str::to_owned).collect();
    for name in names {
        storage.create_index(&name, &[Attr::new(&name, "k")]);
    }
    storage
}
