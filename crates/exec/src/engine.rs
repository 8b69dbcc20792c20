//! The executor's entry points ([`execute`], [`explain_analyze`]) and
//! the operator kernels its pipeline breakers run.
//!
//! Every plan runs on the pipelined executor (`pipeline.rs`): spines
//! of scan → filter → probe → project fuse into one pass, and the
//! kernels here execute the breakers — full-outer hash and
//! nested-loop joins and `GroupCount` — over materialized inputs.
//! There is one executor and it is sequential: a query runs on its
//! caller's thread, one plain pass over each input, so rows come out
//! in source order. A hash-join build side is materialized into an
//! immutable `JoinTable`: one map from each key's 64-bit hash to the
//! ids of the build rows carrying it, in ascending row order. Only key
//! *hashes* and row ids are stored (no key values are copied);
//! candidates are re-checked for exact key equality against the pinned
//! build rows. Probes compute each key hash once.
//!
//! Residual predicates are bound through the storage interner when
//! possible ([`fro_algebra::ops::BoundPred::bind_interned`]): attribute
//! resolution is then a dense `AttrId`-indexed array read instead of a
//! name lookup, with the name-based path kept as the fallback for
//! derived attributes.
//!
//! Counter semantics (Example 1's accounting):
//! * `Scan` retrieves every tuple of its table;
//! * `IndexJoin` issues one probe per outer row and *retrieves exactly
//!   the matching inner tuples*;
//! * `HashJoin` retrieves nothing by itself (its inputs do) but counts
//!   build rows and candidate comparisons.
//!
//! Results are plain [`Relation`]s; the executor suites (one harness,
//! `tests/harness`) check every plan shape against the reference
//! evaluator in `fro-algebra`.

use crate::index::{row_id, Postings};
use crate::plan::PhysPlan;
use crate::stats::ExecStats;
use crate::storage::Storage;
use fro_algebra::ops::{AttrCols, BoundPred, IPred};
use fro_algebra::{
    key_hash, AlgebraError, Attr, ColumnSet, FastSet, Interner, Pred, Relation, Schema, Tuple,
};
use std::fmt;
use std::sync::Arc;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A scan or index join referenced an unknown table. Carries the
    /// nearest interned name (by edit distance) when one is close.
    UnknownTable {
        /// The name that failed to resolve.
        name: String,
        /// The closest known table name, if any is plausibly close.
        suggestion: Option<String>,
    },
    /// An index join required an index that does not exist.
    MissingIndex {
        /// Table that lacks the index.
        table: String,
        /// The attributes that needed indexing.
        attrs: String,
    },
    /// Key lists of a hash/index join have different lengths.
    KeyArityMismatch,
    /// An attribute failed to resolve against an input schema.
    Algebra(AlgebraError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable { name, suggestion } => {
                write!(f, "unknown table `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            ExecError::MissingIndex { table, attrs } => {
                write!(f, "table `{table}` has no index on ({attrs})")
            }
            ExecError::KeyArityMismatch => write!(f, "probe/build key lists differ in length"),
            ExecError::Algebra(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        ExecError::Algebra(e)
    }
}

/// Bind a predicate for evaluation against `schema`, preferring the
/// interned path: when every attribute of `pred` is known to the
/// storage interner, binding is `AttrId`-indexed array reads (the
/// precomputed resolutions carried by [`IPred`]); otherwise — derived
/// attributes, or no interner in scope — fall back to name-based
/// [`BoundPred::bind`], which also owns the diagnosable error. Both
/// paths bind to identical column offsets.
pub(crate) fn bind_pred(
    pred: &Pred,
    schema: &Schema,
    interner: Option<&Interner>,
) -> Result<BoundPred, ExecError> {
    if let Some(it) = interner {
        if let Some(ip) = IPred::from_pred(pred, it) {
            let cols = AttrCols::for_schema(schema, it);
            if let Some(bound) = BoundPred::bind_interned(&ip, &cols) {
                return Ok(bound);
            }
        }
    }
    BoundPred::bind(pred, schema).map_err(ExecError::from)
}

pub(crate) fn resolve_cols(schema: &Schema, attrs: &[Attr]) -> Result<Vec<usize>, ExecError> {
    attrs
        .iter()
        .map(|a| {
            schema.index_of(a).ok_or_else(|| {
                ExecError::Algebra(AlgebraError::UnknownAttr {
                    attr: a.to_string(),
                    schema: schema.to_string(),
                })
            })
        })
        .collect()
}

/// An all-null unmatched row on each side of a full outerjoin pads to
/// the identical all-null wide row; dedup before materializing. Keeps
/// the first occurrence; dedups by reference (no tuple is cloned).
pub(crate) fn dedup_rows(rows: &mut Vec<Tuple>) {
    let mut keep = Vec::with_capacity(rows.len());
    {
        let mut seen: FastSet<&Tuple> =
            FastSet::with_capacity_and_hasher(rows.len(), Default::default());
        for t in rows.iter() {
            keep.push(seen.insert(t));
        }
    }
    let mut flags = keep.into_iter();
    rows.retain(|_| flags.next().expect("one flag per row"));
}

/// [`key_hash`] of the key columns of `row`, or `None` when any is
/// null. The values are hashed in place — no per-row `Vec<Value>` key
/// is ever materialized.
fn hash_key(row: &Tuple, cols: &[usize]) -> Option<u64> {
    key_hash(cols.iter().map(|&c| row.get(c)))
}

/// Column-wise key equality between a probe row and a build row.
fn keys_eq(a: &Tuple, a_cols: &[usize], b: &Tuple, b_cols: &[usize]) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ac, &bc)| a.get(ac) == b.get(bc))
}

/// The shared, immutable build side of a hash join: the pinned build
/// rows plus their ids by key *hash* ([`Postings`], the layout of a
/// stored index too), ascending within each hash. Build keys are
/// borrowed from the pinned rows — nothing is cloned — and every bucket
/// candidate is re-checked for exact key equality against the probe
/// row, so a 64-bit hash collision can never yield a wrong match (or a
/// wrong `comparisons` count: the counter ticks only on exact-key
/// candidates).
pub(crate) struct JoinTable<'a> {
    rows: &'a [Tuple],
    key_cols: &'a [usize],
    buckets: Postings,
}

impl<'a> JoinTable<'a> {
    /// Build the table.
    ///
    /// When the build side is a base table, `cols` carries its columnar
    /// mirror and key hashes are computed straight off the typed column
    /// vectors ([`ColumnSet::hash_key_at`]) — no wide-row indirection,
    /// dictionary codes resolved once per string key. The hashes are
    /// value-identical to [`hash_key`] over the rows, so buckets and
    /// every counter are unchanged.
    pub(crate) fn build(
        rows: &'a [Tuple],
        key_cols: &'a [usize],
        stats: &mut ExecStats,
        cols: Option<&ColumnSet>,
    ) -> JoinTable<'a> {
        let mut buckets = Postings::default();
        for (rid, row) in rows.iter().enumerate() {
            let h = match cols {
                Some(cs) => cs.hash_key_at(key_cols, rid),
                None => hash_key(row, key_cols),
            };
            if let Some(h) = h {
                buckets.push(h, row_id(rid));
            }
        }
        // Null-keyed rows still count: Example 1 charges the build for
        // every row it reads.
        stats.hash_build_rows += rows.len() as u64;
        JoinTable {
            rows,
            key_cols,
            buckets,
        }
    }

    /// The bucket of build-row ids a probe-key hash selects (empty when
    /// the key was null or nothing hashed there). Candidates still need
    /// the exact-key recheck — the pipelined prober does its own,
    /// fragment-mapped equivalent of [`keys_eq`].
    #[inline]
    pub(crate) fn bucket(&self, h: Option<u64>) -> &[u32] {
        self.buckets.get(h)
    }

    /// The pinned build row behind a bucket id, at the *build-side*
    /// lifetime — a pipelined fragment stack can hold it beyond the
    /// borrow of the table itself.
    #[inline]
    pub(crate) fn row(&self, rid: u32) -> &'a Tuple {
        &self.rows[rid as usize]
    }

    /// Exact-key candidates for `probe_row` given its precomputed key
    /// hash (`None` when any key value was null), in build-row order.
    fn candidates_hashed<'t>(
        &'t self,
        h: Option<u64>,
        probe_row: &'t Tuple,
        probe_cols: &'t [usize],
    ) -> impl Iterator<Item = (usize, &'t Tuple)> + 't {
        self.bucket(h)
            .iter()
            .map(|&rid| (rid as usize, &self.rows[rid as usize]))
            .filter(move |&(_, brow)| keys_eq(probe_row, probe_cols, brow, self.key_cols))
    }
}

/// One probe row of a full outerjoin, the one join kind that never
/// fuses into a pipeline (its unmatched build rows are known only once
/// every probe row has run): every candidate is compared, each one the
/// residual accepts is emitted concatenated and flagged in `matched`,
/// and a probe row that matched nothing is emitted padded.
fn full_outer_probe_row<'t>(
    prow: &Tuple,
    candidates: impl Iterator<Item = (usize, &'t Tuple)>,
    residual: &BoundPred,
    pad: &Tuple,
    matched: &mut [bool],
    out: &mut Vec<Tuple>,
    stats: &mut ExecStats,
) {
    let mut hit = false;
    for (rid, crow) in candidates {
        stats.comparisons += 1;
        // Evaluate the residual on the virtual concatenation; the wide
        // tuple is only allocated for rows actually emitted.
        if residual.eval_split(prow, crow).is_true() {
            hit = true;
            matched[rid] = true;
            out.push(prow.concat(crow));
        }
    }
    if !hit {
        out.push(prow.concat(pad));
    }
}

/// A full outerjoin's epilogue: append the `right` rows no probe row
/// matched, padded on the left, and drop duplicate rows.
fn full_outer_epilogue(left: &Relation, right: &Relation, matched: &[bool], rows: &mut Vec<Tuple>) {
    let left_pad = Tuple::nulls(left.schema().len());
    for (rrow, &m) in right.rows().iter().zip(matched) {
        if !m {
            rows.push(left_pad.concat(rrow));
        }
    }
    dedup_rows(rows);
}

/// Execute a plan against storage, accumulating counters into `stats`.
/// The plan runs on the pipelined executor, sequentially on the calling
/// thread: scan→filter→probe→project spines fuse into push-based
/// pipelines, and breakers run the kernels of this module.
///
/// # Errors
/// [`ExecError`] for unknown tables, missing indexes, or unresolved
/// attributes.
pub fn execute(
    plan: &PhysPlan,
    storage: &Storage,
    stats: &mut ExecStats,
) -> Result<Relation, ExecError> {
    let out = crate::pipeline::run_pipelined(plan, storage, stats)?;
    stats.rows_output = out.len() as u64;
    Ok(out)
}

/// The full-outer hash join breaker over materialized inputs: probe
/// every row against a [`JoinTable`], then emit the build rows nothing
/// matched.
pub(crate) fn hash_full_outerjoin(
    probe: &Relation,
    build: &Relation,
    probe_keys: &[Attr],
    build_keys: &[Attr],
    residual: &Pred,
    it: Option<&Interner>,
    stats: &mut ExecStats,
) -> Result<Relation, ExecError> {
    let probe_cols = resolve_cols(probe.schema(), probe_keys)?;
    let build_cols = resolve_cols(build.schema(), build_keys)?;
    let schema = Arc::new(probe.schema().concat(build.schema())?);
    let residual = bind_pred(residual, &schema, it)?;
    let table = JoinTable::build(build.rows(), &build_cols, stats, None);
    let pad = Tuple::nulls(build.schema().len());
    let mut matched = vec![false; build.len()];
    let mut rows = Vec::new();
    for prow in probe.rows() {
        let h = hash_key(prow, &probe_cols);
        let candidates = table.candidates_hashed(h, prow, &probe_cols);
        full_outer_probe_row(
            prow,
            candidates,
            &residual,
            &pad,
            &mut matched,
            &mut rows,
            stats,
        );
    }
    full_outer_epilogue(probe, build, &matched, &mut rows);
    Ok(Relation::from_distinct_rows(schema, rows))
}

/// The full-outer nested-loop breaker over materialized inputs: every
/// right row is a candidate for every left row, so `comparisons` ticks
/// once per pair.
pub(crate) fn nl_full_outerjoin(
    left: &Relation,
    right: &Relation,
    pred: &Pred,
    it: Option<&Interner>,
    stats: &mut ExecStats,
) -> Result<Relation, ExecError> {
    let schema = Arc::new(left.schema().concat(right.schema())?);
    let bound = bind_pred(pred, &schema, it)?;
    let pad = Tuple::nulls(right.schema().len());
    let mut matched = vec![false; right.len()];
    let mut rows = Vec::new();
    for lrow in left.rows() {
        let candidates = right.rows().iter().enumerate();
        full_outer_probe_row(
            lrow,
            candidates,
            &bound,
            &pad,
            &mut matched,
            &mut rows,
            stats,
        );
    }
    full_outer_epilogue(left, right, &matched, &mut rows);
    Ok(Relation::from_distinct_rows(schema, rows))
}

/// Execute a plan and render an `EXPLAIN ANALYZE`-style report: the
/// plan tree annotated with each operator's *actual* output rows (the
/// pipeline's per-node counts), the counter totals, and the pipeline
/// breakdown: which operators fused into each pipeline and where
/// breakers cut the plan.
///
/// # Errors
/// Same failure modes as [`execute`].
pub fn explain_analyze(
    plan: &PhysPlan,
    storage: &Storage,
) -> Result<(Relation, String), ExecError> {
    crate::pipeline::explain_pipelined(plan, storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinKind;
    use fro_algebra::{ops, Value};

    fn storage() -> Storage {
        let mut s = Storage::new();
        s.insert("R1", Relation::from_ints("R1", &["k1"], &[&[1]]));
        s.insert(
            "R2",
            Relation::from_ints("R2", &["k2"], &[&[1], &[2], &[3]]),
        );
        s.insert(
            "R3",
            Relation::from_ints("R3", &["k3"], &[&[2], &[3], &[4]]),
        );
        s.create_index("R1", &[Attr::parse("R1.k1")]);
        s.create_index("R2", &[Attr::parse("R2.k2")]);
        s.create_index("R3", &[Attr::parse("R3.k3")]);
        s
    }

    #[test]
    fn scan_counts_tuples() {
        let s = storage();
        let mut st = ExecStats::new();
        let out = execute(&PhysPlan::scan("R2"), &s, &mut st).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(st.tuples_retrieved, 3);
        assert_eq!(st.rows_output, 3);
    }

    #[test]
    fn unknown_table_errors() {
        let s = storage();
        let mut st = ExecStats::new();
        assert!(matches!(
            execute(&PhysPlan::scan("nope"), &s, &mut st),
            Err(ExecError::UnknownTable { .. })
        ));
    }

    #[test]
    fn hash_join_matches_reference_join() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![Attr::parse("R2.k2")],
            build_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::join(
            s.get("R2").unwrap().relation(),
            s.get("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        assert_eq!(st.hash_build_rows, 3);
    }

    #[test]
    fn hash_left_outer_pads() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![Attr::parse("R2.k2")],
            build_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get("R2").unwrap().relation(),
            s.get("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn hash_semi_and_anti() {
        let s = storage();
        for (kind, expect_len) in [(JoinKind::Semi, 2), (JoinKind::Anti, 1)] {
            let mut st = ExecStats::new();
            let plan = PhysPlan::HashJoin {
                kind,
                probe: Box::new(PhysPlan::scan("R2")),
                build: Box::new(PhysPlan::scan("R3")),
                probe_keys: vec![Attr::parse("R2.k2")],
                build_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            };
            let out = execute(&plan, &s, &mut st).unwrap();
            assert_eq!(out.len(), expect_len, "{kind}");
            assert_eq!(out.schema().len(), 1);
        }
    }

    #[test]
    fn index_join_counts_retrievals_not_scans() {
        let s = storage();
        let mut st = ExecStats::new();
        // R1 (1 row) index-joins into R2: 1 scan + 1 probe + 1 match.
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::scan("R1")),
            inner: "R2".into(),
            outer_keys: vec![Attr::parse("R1.k1")],
            inner_keys: vec![Attr::parse("R2.k2")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(st.tuples_retrieved, 2); // scan R1 (1) + retrieved match (1)
        assert_eq!(st.index_probes, 1);
    }

    /// Index, hash, semi and anti probes with every key filed under one
    /// hash — in the stored index and in the join table — return the
    /// rows and counters they return without the collision: only
    /// exact-key rows are retrieved, compared or emitted.
    #[test]
    fn planted_hash_collisions_cost_comparisons_not_rows() {
        let int_or_null = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        let storage = || {
            let mut s = Storage::new();
            let outer = [Some(1), Some(2), Some(4), None];
            let inner = [
                (Some(1), 10),
                (Some(2), 20),
                (Some(1), 11),
                (Some(3), 30),
                (None, 40),
                (Some(2), 21),
            ];
            s.insert(
                "O",
                Relation::from_values(
                    "O",
                    &["k"],
                    outer.iter().map(|&k| vec![int_or_null(k)]).collect(),
                ),
            );
            s.insert(
                "I",
                Relation::from_values(
                    "I",
                    &["k", "v"],
                    inner
                        .iter()
                        .map(|&(k, v)| vec![int_or_null(k), Value::Int(v)])
                        .collect(),
                ),
            );
            assert!(s.create_index("I", &[Attr::parse("I.k")]));
            s
        };
        let run = |s: &Storage, kind: JoinKind, index: bool| {
            // Key 1's first row fails the residual, so a semi or anti
            // probe settles on its second; key 2's second row comes
            // after the probe has settled.
            let residual = Pred::cmp_lit("I.v", fro_algebra::CmpOp::Ge, 11);
            let (outer_keys, inner_keys) = (vec![Attr::parse("O.k")], vec![Attr::parse("I.k")]);
            let plan = if index {
                PhysPlan::IndexJoin {
                    kind,
                    outer: Box::new(PhysPlan::scan("O")),
                    inner: "I".into(),
                    outer_keys,
                    inner_keys,
                    residual,
                }
            } else {
                PhysPlan::HashJoin {
                    kind,
                    probe: Box::new(PhysPlan::scan("O")),
                    build: Box::new(PhysPlan::scan("I")),
                    probe_keys: outer_keys,
                    build_keys: inner_keys,
                    residual,
                }
            };
            let mut st = ExecStats::new();
            let out = execute(&plan, s, &mut st).unwrap();
            (out.rows().to_vec(), st)
        };
        let plain = storage();
        let collided = crate::index::colliding(storage);
        // (kind, rows out, comparisons): the 4 exact-key rows of keys 1
        // and 2 are compared by inner joins; semi and anti probes stop
        // after rows 0 and 2 of key 1, and row 1 of key 2.
        let cases = [
            (JoinKind::Inner, 3, 4),
            (JoinKind::LeftOuter, 5, 4),
            (JoinKind::Semi, 2, 3),
            (JoinKind::Anti, 2, 3),
        ];
        for (kind, rows_out, comparisons) in cases {
            for index in [true, false] {
                let what = format!("{kind:?}, index {index}");
                let (rows, st) = run(&plain, kind, index);
                let (collided_rows, collided_st) =
                    crate::index::colliding(|| run(&collided, kind, index));
                assert_eq!(collided_rows, rows, "{what}");
                assert_eq!(collided_st, st, "{what}");
                assert_eq!(rows.len(), rows_out, "{what}");
                assert_eq!(st.comparisons, comparisons, "{what}");
                // Scans plus exact-key rows: an index join retrieves
                // all four rows of keys 1 and 2, semi and anti probes
                // included; a hash join scans the inner table instead.
                let retrieved = if index { 4 + 4 } else { 4 + 6 };
                assert_eq!(st.tuples_retrieved, retrieved, "{what}");
            }
        }
    }

    #[test]
    fn index_join_missing_index_errors() {
        let mut s = storage();
        s.insert("R4", Relation::from_ints("R4", &["k4"], &[&[1]]));
        let mut st = ExecStats::new();
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::scan("R1")),
            inner: "R4".into(),
            outer_keys: vec![Attr::parse("R1.k1")],
            inner_keys: vec![Attr::parse("R4.k4")],
            residual: Pred::always(),
        };
        assert!(matches!(
            execute(&plan, &s, &mut st),
            Err(ExecError::MissingIndex { .. })
        ));
    }

    #[test]
    fn index_left_outer_join() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(PhysPlan::scan("R2")),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get("R2").unwrap().relation(),
            s.get("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        // Scan R2 (3) + retrieved matches (2).
        assert_eq!(st.tuples_retrieved, 5);
    }

    #[test]
    fn nl_join_arbitrary_predicate() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::NlJoin {
            kind: JoinKind::Inner,
            left: Box::new(PhysPlan::scan("R2")),
            right: Box::new(PhysPlan::scan("R3")),
            pred: Pred::cmp_attr("R2.k2", fro_algebra::CmpOp::Gt, "R3.k3"),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        // R2 values {1,2,3} vs R3 {2,3,4}: pairs with k2 > k3: (3,2).
        assert_eq!(out.len(), 1);
        assert_eq!(st.comparisons, 9);
    }

    #[test]
    fn filter_and_project() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::Project {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("R2")),
                pred: Pred::cmp_lit("R2.k2", fro_algebra::CmpOp::Ge, 2),
            }),
            attrs: vec![Attr::parse("R2.k2")],
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn example1_cost_asymmetry_in_miniature() {
        // Same plans as Example 1 with |R1|=1, |R2|=|R3|=3.
        let s = storage();

        // Plan A: (R2 → R3) first (scan R2, index into R3), then index
        // into R1 — retrieves 2·|R2|-ish tuples.
        let oj = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(PhysPlan::scan("R2")),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let plan_a = PhysPlan::IndexJoin {
            kind: JoinKind::Semi, // R1 − (…) with R1 single row: emulate via probe into R1
            outer: Box::new(oj),
            inner: "R1".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R1.k1")],
            residual: Pred::always(),
        };
        let mut st_a = ExecStats::new();
        execute(&plan_a, &s, &mut st_a).unwrap();

        // Plan B: (R1 − R2) → R3 driven from the single-row R1.
        let jn = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::scan("R1")),
            inner: "R2".into(),
            outer_keys: vec![Attr::parse("R1.k1")],
            inner_keys: vec![Attr::parse("R2.k2")],
            residual: Pred::always(),
        };
        let plan_b = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(jn),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let mut st_b = ExecStats::new();
        execute(&plan_b, &s, &mut st_b).unwrap();

        assert!(
            st_b.tuples_retrieved < st_a.tuples_retrieved,
            "join-first should retrieve fewer tuples: {st_b} vs {st_a}"
        );
        // Exact miniature numbers: plan B = scan R1 (1) + R2 match (1)
        // + R3 lookup for k=1 (0 matches) = 2.
        assert_eq!(st_b.tuples_retrieved, 2);
    }

    #[test]
    fn key_arity_mismatch_rejected() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![],
            build_keys: vec![],
            residual: Pred::always(),
        };
        assert!(matches!(
            execute(&plan, &s, &mut st),
            Err(ExecError::KeyArityMismatch)
        ));
    }

    #[test]
    fn goj_plan_matches_reference() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::Goj {
            left: Box::new(PhysPlan::scan("R2")),
            right: Box::new(PhysPlan::scan("R3")),
            pred: Pred::eq_attr("R2.k2", "R3.k3"),
            subset: vec![Attr::parse("R2.k2")],
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = fro_algebra::ops::goj(
            s.get("R2").unwrap().relation(),
            s.get("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
            &[Attr::parse("R2.k2")],
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn full_outer_hash_join_matches_reference() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![Attr::parse("R2.k2")],
            build_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::full_outerjoin(
            s.get("R2").unwrap().relation(),
            s.get("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        // R2 {1,2,3} vs R3 {2,3,4}: matches (2,3) + R2-unmatched (1) +
        // R3-unmatched (4) = 4 rows.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn full_outer_nl_join_matches_reference() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::NlJoin {
            kind: JoinKind::FullOuter,
            left: Box::new(PhysPlan::scan("R2")),
            right: Box::new(PhysPlan::scan("R3")),
            pred: Pred::eq_attr("R2.k2", "R3.k3"),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::full_outerjoin(
            s.get("R2").unwrap().relation(),
            s.get("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn full_outer_index_join_rejected() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::FullOuter,
            outer: Box::new(PhysPlan::scan("R2")),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        assert!(execute(&plan, &s, &mut st).is_err());
    }

    #[test]
    fn explain_analyze_reports_actual_rows() {
        let s = storage();
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::IndexJoin {
                kind: JoinKind::LeftOuter,
                outer: Box::new(PhysPlan::scan("R2")),
                inner: "R3".into(),
                outer_keys: vec![Attr::parse("R2.k2")],
                inner_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            }),
            pred: Pred::cmp_lit("R2.k2", fro_algebra::CmpOp::Ge, 2),
        };
        let (rel, report) = explain_analyze(&plan, &s).unwrap();
        // Agreement with the plain executor.
        let mut st = ExecStats::new();
        let expect = execute(&plan, &s, &mut st).unwrap();
        assert!(rel.set_eq(&expect));
        assert!(report.contains("Filter"), "{report}");
        assert!(report.contains("Scan R2  (rows=3)"), "{report}");
        assert!(
            report.contains("IndexJoin(left-outer) R3  (rows=3)"),
            "{report}"
        );
        assert!(report.contains("(rows=2)"), "{report}"); // filter output
        assert!(report.contains("totals:"), "{report}");
    }

    #[test]
    fn explain_analyze_covers_merge_and_group_count() {
        let s = storage();
        let plan = PhysPlan::GroupCount {
            input: Box::new(PhysPlan::HashJoin {
                kind: JoinKind::LeftOuter,
                probe: Box::new(PhysPlan::scan("R2")),
                build: Box::new(PhysPlan::scan("R3")),
                probe_keys: vec![Attr::parse("R2.k2")],
                build_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            }),
            group_attrs: vec![Attr::parse("R2.k2")],
            counted: Some(Attr::parse("R3.k3")),
        };
        let (rel, report) = explain_analyze(&plan, &s).unwrap();
        let mut st = ExecStats::new();
        let expect = execute(&plan, &s, &mut st).unwrap();
        assert!(rel.set_eq(&expect));
        assert!(report.contains("GroupCount"), "{report}");
        assert!(report.contains("HashJoin(left-outer)"), "{report}");
        // Counts: k2 ∈ {1,2,3}, k3 ∈ {2,3,4} ⇒ (1,0), (2,1), (3,1).
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn full_outer_all_null_rows_do_not_duplicate() {
        // Regression: an all-null row on each side pads to the same
        // all-null wide row.
        let mut s = Storage::new();
        s.insert(
            "L",
            Relation::from_values("L", &["k"], vec![vec![Value::Null], vec![Value::Int(1)]]),
        );
        s.insert(
            "R",
            Relation::from_values("R", &["k"], vec![vec![Value::Null], vec![Value::Int(2)]]),
        );
        for plan in [
            PhysPlan::HashJoin {
                kind: JoinKind::FullOuter,
                probe: Box::new(PhysPlan::scan("L")),
                build: Box::new(PhysPlan::scan("R")),
                probe_keys: vec![Attr::parse("L.k")],
                build_keys: vec![Attr::parse("R.k")],
                residual: Pred::always(),
            },
            PhysPlan::NlJoin {
                kind: JoinKind::FullOuter,
                left: Box::new(PhysPlan::scan("L")),
                right: Box::new(PhysPlan::scan("R")),
                pred: Pred::eq_attr("L.k", "R.k"),
            },
        ] {
            let mut st = ExecStats::new();
            let out = execute(&plan, &s, &mut st).unwrap();
            let expect = ops::full_outerjoin(
                s.get("L").unwrap().relation(),
                s.get("R").unwrap().relation(),
                &Pred::eq_attr("L.k", "R.k"),
            )
            .unwrap();
            assert!(out.set_eq(&expect));
            // (null, null-pad) appears once, not twice.
            assert_eq!(out.len(), 3);
        }
    }

    #[test]
    fn null_keys_fall_out_of_hash_join_but_pad_in_outer() {
        let mut s = Storage::new();
        s.insert(
            "L",
            Relation::from_values("L", &["k"], vec![vec![Value::Null], vec![Value::Int(1)]]),
        );
        s.insert(
            "R",
            Relation::from_values("R", &["k"], vec![vec![Value::Null], vec![Value::Int(1)]]),
        );
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("L")),
            build: Box::new(PhysPlan::scan("R")),
            probe_keys: vec![Attr::parse("L.k")],
            build_keys: vec![Attr::parse("R.k")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get("L").unwrap().relation(),
            s.get("R").unwrap().relation(),
            &Pred::eq_attr("L.k", "R.k"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        assert_eq!(out.len(), 2); // (null,null-pad) and (1,1)
    }

    #[test]
    fn dedup_rows_keeps_first_occurrence_without_cloning() {
        let t = |v: i64| Tuple::new(vec![Value::Int(v)]);
        let mut rows = vec![t(1), t(2), t(1), t(3), t(2), t(1)];
        dedup_rows(&mut rows);
        assert_eq!(rows, vec![t(1), t(2), t(3)]);
        let mut empty: Vec<Tuple> = Vec::new();
        dedup_rows(&mut empty);
        assert!(empty.is_empty());
    }
}
