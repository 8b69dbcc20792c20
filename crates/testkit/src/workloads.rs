//! Concrete experiment setups from the paper.

use fro_algebra::{Attr, Pred, Query, Relation, Value};
use fro_core::Catalog;
use fro_exec::Storage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Example 1 setup: `R1` with one tuple, `R2` and `R3` with `n`
/// tuples each, keys indexed, every `R2` key matching an `R3` key and
/// exactly one `R2` key matching `R1`.
#[derive(Debug, Clone)]
pub struct Example1 {
    /// Indexed storage.
    pub storage: Storage,
    /// Exact statistics.
    pub catalog: Catalog,
    /// `R1 − (R2 → R3)` — the association that retrieves `2n + 1`.
    pub bad_query: Query,
    /// `(R1 − R2) → R3` — the association that retrieves `3`.
    pub good_query: Query,
}

/// Build Example 1 at scale `n`.
#[must_use]
pub fn example1(n: usize) -> Example1 {
    let mut storage = Storage::new();
    storage.insert("R1", Relation::from_ints("R1", &["k1"], &[&[0]]));
    let keys = |name: &str, attr: &str| {
        let rows: Vec<Vec<Value>> = (0..n as i64).map(|k| vec![Value::Int(k)]).collect();
        Relation::from_values(name, &[attr], rows)
    };
    storage.insert("R2", keys("R2", "k2"));
    storage.insert("R3", keys("R3", "k3"));
    storage.create_index("R1", &[Attr::parse("R1.k1")]);
    storage.create_index("R2", &[Attr::parse("R2.k2")]);
    storage.create_index("R3", &[Attr::parse("R3.k3")]);
    let catalog = Catalog::from_storage(&storage);

    let p12 = Pred::eq_attr("R1.k1", "R2.k2");
    let p23 = Pred::eq_attr("R2.k2", "R3.k3");
    let bad_query = Query::rel("R1").join(
        Query::rel("R2").outerjoin(Query::rel("R3"), p23.clone()),
        p12.clone(),
    );
    let good_query = Query::rel("R1")
        .join(Query::rel("R2"), p12)
        .outerjoin(Query::rel("R3"), p23);
    Example1 {
        storage,
        catalog,
        bad_query,
        good_query,
    }
}

/// The Example 1 *discussion* workload: the same freely-reorderable
/// expression `R1 − (R2 → R3)` where the join predicate is the
/// non-selective `R1.a > R2.b` and the outerjoin predicate is the
/// selective key equality `R2.c = R3.d` — here outerjoin-first wins.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Indexed storage.
    pub storage: Storage,
    /// Exact statistics.
    pub catalog: Catalog,
    /// `(R1 − R2) → R3` (join first).
    pub join_first: Query,
    /// `R1 − (R2 → R3)` (outerjoin first).
    pub oj_first: Query,
}

/// Build the crossover workload. `gt_selectivity` in `[0,1]` controls
/// the fraction of `(R1, R2)` pairs satisfying `R1.a > R2.b`.
#[must_use]
pub fn crossover(n1: usize, n2: usize, gt_selectivity: f64, seed: u64) -> Crossover {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = 1_000_000i64;
    // With `b` uniform on [0, domain), a tuple with `a = sel·domain`
    // satisfies `a > b` for exactly `sel` of the `R2` tuples. Give the
    // `R1` values a little jitter around that point so rows differ.
    let center = (gt_selectivity * domain as f64) as i64;
    let jitter = (domain / 200).max(1);
    let mut storage = Storage::new();
    let r1_rows: Vec<Vec<Value>> = (0..n1)
        .map(|_| {
            let a = (center + rng.gen_range(-jitter..=jitter)).clamp(0, domain);
            vec![Value::Int(a)]
        })
        .collect();
    storage.insert("R1", Relation::from_values("R1", &["a"], r1_rows));
    let r2_rows: Vec<Vec<Value>> = (0..n2)
        .map(|i| vec![Value::Int(rng.gen_range(0..domain)), Value::Int(i as i64)])
        .collect();
    storage.insert("R2", Relation::from_values("R2", &["b", "c"], r2_rows));
    // R3 keyed 1:1 with R2.c.
    let r3_rows: Vec<Vec<Value>> = (0..n2).map(|i| vec![Value::Int(i as i64)]).collect();
    storage.insert("R3", Relation::from_values("R3", &["d"], r3_rows));
    storage.create_index("R3", &[Attr::parse("R3.d")]);
    let catalog = Catalog::from_storage(&storage);

    let pj = Pred::cmp_attr("R1.a", fro_algebra::CmpOp::Gt, "R2.b");
    let po = Pred::eq_attr("R2.c", "R3.d");
    let join_first = Query::rel("R1")
        .join(Query::rel("R2"), pj.clone())
        .outerjoin(Query::rel("R3"), po.clone());
    let oj_first = Query::rel("R1").join(Query::rel("R2").outerjoin(Query::rel("R3"), po), pj);
    Crossover {
        storage,
        catalog,
        join_first,
        oj_first,
    }
}

/// A join chain `R0 − R1 − … − R{k-1}` with geometrically growing
/// cardinalities (so join order matters a lot) and indexed keys.
#[must_use]
pub fn chain(k: usize, base_rows: usize, seed: u64) -> (Storage, Catalog, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut storage = Storage::new();
    for i in 0..k {
        let rows = base_rows * (1 << i.min(10));
        let name = format!("R{i}");
        let mut data: Vec<Vec<Value>> = Vec::with_capacity(rows);
        for _ in 0..rows {
            data.push(vec![
                Value::Int(rng.gen_range(0..base_rows as i64 * 2)),
                Value::Int(rng.gen_range(0..1000)),
            ]);
        }
        storage.insert(&name, Relation::from_values(&name, &["k", "v"], data));
        storage.create_index(&name, &[Attr::new(&name, "k")]);
    }
    let catalog = Catalog::from_storage(&storage);
    // Left-deep syntactic chain.
    let mut q = Query::rel("R0");
    for i in 1..k {
        q = q.join(
            Query::rel(format!("R{i}")),
            Pred::eq_attr(&format!("R{}.k", i - 1), &format!("R{i}.k")),
        );
    }
    (storage, catalog, q)
}

/// A long join chain `C0 − C1 − … − C{k-1}` over tables of 2–24 rows
/// with keys drawn from `0..32`, indexed: join order matters, yet
/// every table stays small and the chain's fan-out stays below one.
/// Sized to run the plan search past its work budget, not to test
/// execution at scale.
#[must_use]
pub fn small_chain(k: usize, seed: u64) -> (Storage, Catalog, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut storage = Storage::new();
    for i in 0..k {
        let name = format!("C{i}");
        let rows = rng.gen_range(2..25usize);
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|j| vec![Value::Int(rng.gen_range(0..32)), Value::Int(j as i64)])
            .collect();
        storage.insert(&name, Relation::from_values(&name, &["k", "v"], data));
        storage.create_index(&name, &[Attr::new(&name, "k")]);
    }
    let catalog = Catalog::from_storage(&storage);
    let mut q = Query::rel("C0");
    for i in 1..k {
        q = q.join(
            Query::rel(format!("C{i}")),
            Pred::eq_attr(&format!("C{}.k", i - 1), &format!("C{i}.k")),
        );
    }
    (storage, catalog, q)
}

/// A deep left-outerjoin chain `L0 ⟕ L1 ⟕ … ⟕ L{k-1}`, each link on
/// `L{i-1}.k = L{i}.k` with keys drawn from a domain 1.5× the row
/// count, so roughly a third of every probe side falls out unmatched
/// and gets null-padded. Eight-plus relations make this the worst case
/// for operator-at-a-time execution — one widening intermediate per
/// join edge — and the best case for the pipelined executor, which
/// fuses the whole chain into a single pass (all build sides are base
/// tables). Keys are indexed on every relation.
#[must_use]
pub fn left_chain(k: usize, rows_per_rel: usize, seed: u64) -> (Storage, Catalog, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut storage = Storage::new();
    let domain = ((rows_per_rel as i64) * 3 / 2).max(1);
    for i in 0..k {
        let name = format!("L{i}");
        let data: Vec<Vec<Value>> = (0..rows_per_rel)
            .map(|_| {
                vec![
                    Value::Int(rng.gen_range(0..domain)),
                    Value::Int(rng.gen_range(0..1000)),
                ]
            })
            .collect();
        storage.insert(&name, Relation::from_values(&name, &["k", "v"], data));
        storage.create_index(&name, &[Attr::new(&name, "k")]);
    }
    let catalog = Catalog::from_storage(&storage);
    let mut q = Query::rel("L0");
    for i in 1..k {
        q = q.outerjoin(
            Query::rel(format!("L{i}")),
            Pred::eq_attr(&format!("L{}.k", i - 1), &format!("L{i}.k")),
        );
    }
    (storage, catalog, q)
}

/// Parameters for the star/snowflake reducer workloads ([`star`]).
///
/// The generated fact table `F` carries `good_rows` rows whose
/// dimension keys all fall in the shared match domain `0..match_keys`,
/// plus one *junk block* per dimension: `junk_rows` rows whose key for
/// that dimension is a duplicated **hot** key (matching `hot_dup`
/// dimension rows) while every other dimension column holds a globally
/// unique cold value matching nothing. A plain join plan multiplies
/// each junk row through its one matching dimension before the next
/// join kills it — `junk_rows × hot_dup` doomed intermediates per
/// dimension — while a semijoin-reduced plan deletes the junk from `F`
/// before any join runs. Setting `junk_rows = 0` yields the uniform
/// control where reduction cannot pay.
#[derive(Debug, Clone, Copy)]
pub struct StarParams {
    /// Number of dimension tables `D1..Dk`.
    pub dims: usize,
    /// Size `u` of the shared match domain `0..u`.
    pub match_keys: usize,
    /// Fact rows whose every dimension key is in the match domain.
    pub good_rows: usize,
    /// Hot keys per dimension (duplicated `hot_dup` times each).
    pub hot_keys: usize,
    /// Copies of each hot key in its dimension.
    pub hot_dup: usize,
    /// Junk fact rows per dimension (each hits one hot key).
    pub junk_rows: usize,
    /// Extra never-matched keys on the last dimension — makes a
    /// down-pass (dimension-side) reduction worthwhile too.
    pub wide_keys: usize,
    /// Chain an outrigger `Oi` off every dimension (`Di.o = Oi.k`),
    /// turning the star into a snowflake. Every dimension row's `o`
    /// lands in the outrigger's domain, so the `Di ⋈ Oi` arm filters
    /// nothing — junk fact rows survive their own dimension's whole
    /// arm and die only at the *other* dimensions, which is exactly
    /// the blowup a fact-side semijoin reduction deletes up front.
    pub snowflake: bool,
}

fn hot_base(dim: usize) -> i64 {
    10_000 + dim as i64 * 100_000
}

/// Build a star (or snowflake) workload from [`StarParams`]: fact `F`
/// with columns `d1..dk, v`, dimensions `Di(k, o)` with indexed keys,
/// and — when `snowflake` — outriggers `Oi(k, x)`. Fully deterministic
/// (no randomness), so the EXPLAIN corpus can lock the plans down.
#[must_use]
pub fn star(p: &StarParams) -> (Storage, Catalog, Query) {
    assert!(
        p.junk_rows == 0 || (p.hot_keys > 0 && p.hot_dup > 0),
        "junk rows need a hot block to land on"
    );
    let u = p.match_keys as i64;
    let k = p.dims;
    let mut storage = Storage::new();

    let mut cold = 1_000_000i64;
    let mut fact: Vec<Vec<Value>> = Vec::new();
    for r in 0..p.good_rows {
        let mut row: Vec<Value> = (0..k).map(|i| Value::Int(((r + i) as i64) % u)).collect();
        row.push(Value::Int(r as i64));
        fact.push(row);
    }
    for i in 0..k {
        for t in 0..p.junk_rows {
            let mut row: Vec<Value> = Vec::with_capacity(k + 1);
            for j in 0..k {
                if i == j {
                    row.push(Value::Int(hot_base(i) + (t % p.hot_keys) as i64));
                } else {
                    cold += 1;
                    row.push(Value::Int(cold));
                }
            }
            row.push(Value::Int(-1));
            fact.push(row);
        }
    }
    let fact_cols: Vec<String> = (1..=k)
        .map(|i| format!("d{i}"))
        .chain(["v".to_owned()])
        .collect();
    let fact_cols: Vec<&str> = fact_cols.iter().map(String::as_str).collect();
    storage.insert("F", Relation::from_values("F", &fact_cols, fact));

    for i in 0..k {
        let name = format!("D{}", i + 1);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for key in 0..u {
            rows.push(vec![Value::Int(key), Value::Int(key % u.max(1))]);
        }
        let mut stray = 0i64;
        for t in 0..p.hot_keys {
            for _ in 0..p.hot_dup {
                stray += 1;
                rows.push(vec![
                    Value::Int(hot_base(i) + t as i64),
                    Value::Int(stray % u.max(1)),
                ]);
            }
        }
        if i + 1 == k {
            for t in 0..p.wide_keys {
                stray += 1;
                rows.push(vec![
                    Value::Int(50_000_000 + t as i64),
                    Value::Int(stray % u.max(1)),
                ]);
            }
        }
        storage.insert(&name, Relation::from_values(&name, &["k", "o"], rows));
        storage.create_index(&name, &[Attr::new(&name, "k")]);
        if p.snowflake {
            let oname = format!("O{}", i + 1);
            let orows: Vec<Vec<Value>> = (0..u)
                .map(|key| vec![Value::Int(key), Value::Int(key * 7)])
                .collect();
            storage.insert(&oname, Relation::from_values(&oname, &["k", "x"], orows));
            storage.create_index(&oname, &[Attr::new(&oname, "k")]);
        }
    }
    let catalog = Catalog::from_storage(&storage);

    let mut q = Query::rel("F");
    for i in 1..=k {
        q = q.join(
            Query::rel(format!("D{i}")),
            Pred::eq_attr(&format!("F.d{i}"), &format!("D{i}.k")),
        );
        if p.snowflake {
            q = q.join(
                Query::rel(format!("O{i}")),
                Pred::eq_attr(&format!("D{i}.o"), &format!("O{i}.k")),
            );
        }
    }
    (storage, catalog, q)
}

/// A synthetic §5 entity world at scale: `n_depts` departments, each
/// with `emps_per_dept` employees, each employee with 0–3 children
/// (some none, exercising the UnNest padding), managers and audits
/// assigned to a subset of departments.
#[must_use]
pub fn synthetic_entity_world(
    n_depts: usize,
    emps_per_dept: usize,
    seed: u64,
) -> fro_lang::EntityDb {
    use fro_lang::{EntityDb, FieldType, FieldValue};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = EntityDb::new();
    db.declare(
        "EMPLOYEE",
        vec![
            ("Name", FieldType::Scalar),
            ("D#", FieldType::Scalar),
            ("Rank", FieldType::Scalar),
            ("ChildName", FieldType::SetValued),
        ],
    );
    db.declare(
        "DEPARTMENT",
        vec![
            ("D#", FieldType::Scalar),
            ("Location", FieldType::Scalar),
            ("Manager", FieldType::EntityRef("EMPLOYEE".into())),
            ("Audit", FieldType::EntityRef("REPORT".into())),
        ],
    );
    db.declare(
        "REPORT",
        vec![
            ("Title", FieldType::Scalar),
            ("Findings", FieldType::Scalar),
        ],
    );

    let locations = ["Queretaro", "Zurich", "Boston", "Kyoto"];
    let mut dept_first_emp = Vec::with_capacity(n_depts);
    for d in 0..n_depts {
        let mut first = None;
        for e in 0..emps_per_dept {
            let n_children = rng.gen_range(0..4usize);
            let children: Vec<Value> = (0..n_children)
                .map(|c| Value::str(format!("child{d}_{e}_{c}")))
                .collect();
            let id = db.insert(
                "EMPLOYEE",
                vec![
                    (
                        "Name",
                        FieldValue::Scalar(Value::str(format!("emp{d}_{e}"))),
                    ),
                    ("D#", FieldValue::Scalar(Value::Int(d as i64))),
                    ("Rank", FieldValue::Scalar(Value::Int(rng.gen_range(1..20)))),
                    ("ChildName", FieldValue::Set(children)),
                ],
            );
            if first.is_none() {
                first = Some(id);
            }
        }
        dept_first_emp.push(first);
    }
    for d in 0..n_depts {
        let audit = if rng.gen_bool(0.5) {
            let rid = db.insert(
                "REPORT",
                vec![
                    ("Title", FieldValue::Scalar(Value::str(format!("audit{d}")))),
                    ("Findings", FieldValue::Scalar(Value::str("ok"))),
                ],
            );
            FieldValue::Ref(Some(rid))
        } else {
            FieldValue::Ref(None)
        };
        let manager = match dept_first_emp[d] {
            Some(id) if rng.gen_bool(0.8) => FieldValue::Ref(Some(id)),
            _ => FieldValue::Ref(None),
        };
        db.insert(
            "DEPARTMENT",
            vec![
                ("D#", FieldValue::Scalar(Value::Int(d as i64))),
                (
                    "Location",
                    FieldValue::Scalar(Value::str(locations[d % locations.len()])),
                ),
                ("Manager", manager),
                ("Audit", audit),
            ],
        );
    }
    db
}

/// One named, fully deterministic optimizer workload: storage with
/// exact statistics plus a query — the unit of the EXPLAIN regression
/// corpus (`corpus/plans/`).
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Stable case name (used as the corpus file stem).
    pub name: &'static str,
    /// Indexed storage the catalog's statistics describe.
    pub storage: Storage,
    /// Exact statistics.
    pub catalog: Catalog,
    /// The query to optimize.
    pub query: Query,
}

/// Every deterministic workload this crate defines, under fixed seeds
/// and sizes — the corpus the EXPLAIN regression gate locks down. Names
/// are stable; add new cases rather than renaming old ones, so corpus
/// diffs always mean plan changes.
#[must_use]
pub fn corpus_suite() -> Vec<CorpusCase> {
    let mut cases = Vec::new();
    let ex = example1(64);
    cases.push(CorpusCase {
        name: "example1_bad",
        storage: ex.storage.clone(),
        catalog: ex.catalog.clone(),
        query: ex.bad_query,
    });
    cases.push(CorpusCase {
        name: "example1_good",
        storage: ex.storage,
        catalog: ex.catalog,
        query: ex.good_query,
    });
    let w = crossover(24, 32, 0.5, 7);
    cases.push(CorpusCase {
        name: "crossover_join_first",
        storage: w.storage.clone(),
        catalog: w.catalog.clone(),
        query: w.join_first,
    });
    cases.push(CorpusCase {
        name: "crossover_oj_first",
        storage: w.storage,
        catalog: w.catalog,
        query: w.oj_first,
    });
    for (name, k, base, seed) in [("chain3", 3usize, 8usize, 11u64), ("chain5", 5, 4, 13)] {
        let (storage, catalog, query) = chain(k, base, seed);
        cases.push(CorpusCase {
            name,
            storage,
            catalog,
            query,
        });
    }
    let (storage, catalog, query) = left_chain(8, 6, 17);
    cases.push(CorpusCase {
        name: "left_chain8",
        storage,
        catalog,
        query,
    });
    for (name, params) in [
        ("star5", star5_uniform()),
        ("star5_skew", star5_skew()),
        ("snowflake7", snowflake7_uniform()),
        ("snowflake7_skew", snowflake7_skew()),
        ("star24", star24_skew()),
    ] {
        let (storage, catalog, query) = star(&params);
        cases.push(CorpusCase {
            name,
            storage,
            catalog,
            query,
        });
    }
    let (storage, catalog, query) = small_chain(40, 23);
    cases.push(CorpusCase {
        name: "chain40",
        storage,
        catalog,
        query,
    });
    cases
}

/// Corpus-sized uniform star: `F` plus four dimensions, every key in
/// the shared match domain — the control where reduction cannot pay.
#[must_use]
pub fn star5_uniform() -> StarParams {
    StarParams {
        dims: 4,
        match_keys: 16,
        good_rows: 48,
        hot_keys: 0,
        hot_dup: 0,
        junk_rows: 0,
        wide_keys: 0,
        snowflake: false,
    }
}

/// Corpus-sized selectivity-skewed star: per-dimension junk blocks
/// landing on duplicated hot keys, so plain plans multiply doomed rows
/// and the reducer's containment fractions fall well below one.
#[must_use]
pub fn star5_skew() -> StarParams {
    StarParams {
        dims: 4,
        match_keys: 16,
        good_rows: 48,
        hot_keys: 8,
        hot_dup: 8,
        junk_rows: 64,
        wide_keys: 48,
        snowflake: false,
    }
}

/// A 24-relation skewed star (`F` plus 23 dimensions) with small
/// tables: its exhaustive DP needs far more splits than the plan
/// search's budget, so the corpus locks down the plan the rounds past
/// it choose.
#[must_use]
pub fn star24_skew() -> StarParams {
    StarParams {
        dims: 23,
        match_keys: 8,
        good_rows: 24,
        hot_keys: 2,
        hot_dup: 3,
        junk_rows: 2,
        wide_keys: 6,
        snowflake: false,
    }
}

/// Corpus-sized uniform snowflake: three dimensions, each with an
/// outrigger, all keys matched.
#[must_use]
pub fn snowflake7_uniform() -> StarParams {
    StarParams {
        dims: 3,
        match_keys: 12,
        good_rows: 36,
        hot_keys: 0,
        hot_dup: 0,
        junk_rows: 0,
        wide_keys: 0,
        snowflake: true,
    }
}

/// Corpus-sized skewed snowflake: hot dimension rows additionally die
/// at their outrigger, giving the reducer wrap sites at two depths.
#[must_use]
pub fn snowflake7_skew() -> StarParams {
    StarParams {
        dims: 3,
        match_keys: 12,
        good_rows: 36,
        hot_keys: 6,
        hot_dup: 8,
        junk_rows: 48,
        wide_keys: 32,
        snowflake: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_core::{optimize, Policy};
    use fro_exec::{execute, ExecStats};

    #[test]
    fn example1_shape_holds_in_miniature() {
        let ex = example1(100);
        // Both queries are equivalent.
        let db = ex.storage.to_database();
        let a = ex.bad_query.eval(&db).unwrap();
        let b = ex.good_query.eval(&db).unwrap();
        assert!(a.set_eq(&b));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn example1_optimizer_rescues_bad_association() {
        let ex = example1(200);
        let out = optimize(&ex.bad_query, &ex.catalog, Policy::Paper).unwrap();
        assert!(out.reordered);
        let mut st = ExecStats::new();
        execute(&out.plan, &ex.storage, &mut st).unwrap();
        assert_eq!(st.tuples_retrieved, 3, "paper's constant-cost claim");
    }

    #[test]
    fn crossover_queries_equivalent() {
        let w = crossover(20, 30, 0.5, 1);
        let db = w.storage.to_database();
        let a = w.join_first.eval(&db).unwrap();
        let b = w.oj_first.eval(&db).unwrap();
        assert!(a.set_eq(&b));
    }

    /// Reference evaluation of a §5 block: parse → translate → plan →
    /// eval.
    fn reference_run(src: &str, world: &fro_lang::EntityDb) -> fro_algebra::Relation {
        let t = fro_lang::translate(&fro_lang::parse(src).unwrap(), world).unwrap();
        fro_lang::plan_query(&t).unwrap().eval(&t.database).unwrap()
    }

    #[test]
    fn synthetic_world_runs_paper_queries() {
        let world = synthetic_entity_world(6, 4, 3);
        let out = reference_run(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
            &world,
        );
        assert!(!out.is_empty());
        let out = reference_run("Select All From DEPARTMENT-->Manager-->Audit", &world);
        assert_eq!(out.len(), 6); // every department preserved
    }

    #[test]
    fn left_chain_workload_matches_reference() {
        let (storage, catalog, q) = left_chain(8, 5, 19);
        assert_eq!(q.rels().len(), 8);
        let out = optimize(&q, &catalog, Policy::Paper).unwrap();
        let mut st = ExecStats::new();
        let got = execute(&out.plan, &storage, &mut st).unwrap();
        let expect = q.eval(&storage.to_database()).unwrap();
        assert!(got.set_eq(&expect));
    }

    #[test]
    fn star_workloads_match_reference_and_skew_drives_reduction() {
        use fro_core::{optimize_with_reduce, ReducePolicy};
        for params in [
            star5_uniform(),
            star5_skew(),
            snowflake7_uniform(),
            snowflake7_skew(),
        ] {
            let (storage, catalog, q) = star(&params);
            let out =
                optimize_with_reduce(&q, &catalog, Policy::Paper, ReducePolicy::Auto).unwrap();
            if params.junk_rows == 0 {
                assert!(
                    out.reduction.applied.is_empty(),
                    "uniform keys must decline: {}",
                    out.reduction
                );
            } else {
                assert!(
                    !out.reduction.applied.is_empty(),
                    "skewed keys must reduce: {}",
                    out.reduction
                );
            }
            let mut st = ExecStats::new();
            let got = execute(&out.plan, &storage, &mut st).unwrap();
            let expect = q.eval(&storage.to_database()).unwrap();
            assert!(got.set_eq(&expect), "reduced plan changed the result");
            if params.junk_rows > 0 {
                assert!(
                    st.rows_reduced > 0,
                    "reduction executed but removed nothing"
                );
            }
        }
    }

    #[test]
    fn chain_workload_builds() {
        let (storage, catalog, q) = chain(4, 8, 2);
        assert_eq!(q.rels().len(), 4);
        let out = optimize(&q, &catalog, Policy::Paper).unwrap();
        assert!(out.reordered);
        let mut st = ExecStats::new();
        let got = execute(&out.plan, &storage, &mut st).unwrap();
        let expect = q.eval(&storage.to_database()).unwrap();
        assert!(got.set_eq(&expect));
    }
}
