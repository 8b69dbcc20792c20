//! The columnar kernels over base tables, against the reference.
//!
//! Base tables are read through their columnar mirror: a hash join
//! whose build is a bare scan hashes the key column directly, and
//! leading filters over a scan hoist into vectorized masks whose
//! `comparisons` come from popcounts. Every plan goes through the
//! harness in `tests/harness`: set-equal to `fro-algebra`, with its
//! counters pinned where the work is known in closed form.
//!
//! Data sweeps empty relations, all-null keys, dictionary string
//! columns under SQL-null three-valued predicates, a clustered
//! multi-zone column with zone-refutable literals, and degenerate
//! layouts (empty, all-null key, single hot key).

mod harness;

use fro_algebra::{ops, Attr, CmpOp, Database, Pred, Relation, Value};
use fro_exec::{JoinKind, PhysPlan, Storage};
use harness::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A string key, a string payload and an int payload, all nullable:
/// the per-table dictionary (code equality and hashing) under SQL
/// nulls.
fn string_relation(name: &str, rows: usize, domain: u64, null_pct: u64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cell = |mk: fn(u64) -> Value| {
        if rng.gen_range(0..100u64) < null_pct {
            Value::Null
        } else {
            mk(rng.gen_range(0..domain))
        }
    };
    let rows = (0..rows)
        .map(|_| {
            vec![
                cell(|x| Value::Str(format!("k{x}"))),
                cell(|x| Value::Str(format!("city-{x}"))),
                cell(|x| Value::Int(x as i64)),
            ]
        })
        .collect();
    Relation::from_values(name, &["k", "s", "v"], rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hash joins over bare scans, all five kinds, with and without a
    /// residual, from empty inputs to all-null keys (`nulls = 100`).
    #[test]
    fn columnar_hash_join_all_kinds(
        rows in 0usize..16,
        domain in 1i64..6,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        check_equi_join(Op::Hash, &db, &storage, &residual(with_residual));
    }

    /// Two stacked filters on the probe source (both hoisted into
    /// vectorized masks, chained `comparisons` from the popcounts), a
    /// hash or index join, a filter above it that reads the null pads,
    /// and a deduplicating root projection.
    #[test]
    fn columnar_filter_prefix_join_project(
        rows in 0usize..16,
        domain in 1i64..4,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        lo in 0i64..3,
        hi in 1i64..5,
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = indexed(&db);
        let low = Pred::cmp_lit("L.v", CmpOp::Ge, lo);
        let high = Pred::cmp_lit("L.v", CmpOp::Lt, hi);
        let filtered = ops::restrict(&ops::restrict(rel(&db, "L"), &low).unwrap(), &high).unwrap();
        let source = PhysPlan::Filter {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("L")),
                pred: low,
            }),
            pred: high,
        };
        check(&source, &storage, &filtered, "filter prefix");
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
            let top = if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                Pred::is_null("R.v").or(Pred::cmp_lit("R.v", CmpOp::Gt, 1))
            } else {
                Pred::cmp_lit("L.k", CmpOp::Ge, 1)
            };
            let joined = reference(kind, &filtered, rel(&db, "R"), &Pred::eq_attr("L.k", "R.k"));
            let want = ops::project(
                &ops::restrict(&joined, &top).unwrap(),
                &[Attr::parse("L.v")],
                true,
            )
            .unwrap();
            for join in [
                hash_join(kind, source.clone(), PhysPlan::scan("R"), "L", "R"),
                index_join(kind, source.clone(), &Pred::always()),
            ] {
                let plan = PhysPlan::Project {
                    input: Box::new(PhysPlan::Filter {
                        input: Box::new(join),
                        pred: top.clone(),
                    }),
                    attrs: vec![Attr::parse("L.v")],
                };
                check(&plan, &storage, &want, &format!("filter prefix {kind}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dictionary-encoded string columns: string-keyed joins of all five
    /// kinds, and string comparisons of every operator — including
    /// against a literal absent from the dictionary — plus IS NULL off
    /// the validity bitmap, under random null densities.
    #[test]
    fn columnar_string_dictionary_semantics(
        rows in 0usize..24,
        domain in 1u64..6,
        null_pct in 0u64..=100,
        seed in 0u64..10_000,
    ) {
        let mut db = Database::new();
        db.insert_named("L", string_relation("L", rows, domain, null_pct, seed));
        db.insert_named("R", string_relation("R", rows, domain, null_pct, seed ^ 0xabcd));
        let storage = Storage::from_database(&db);
        let (l, r) = (rel(&db, "L"), rel(&db, "R"));
        for kind in KINDS {
            let plan = hash_join(kind, PhysPlan::scan("L"), PhysPlan::scan("R"), "L", "R");
            let want = reference(kind, l, r, &Pred::eq_attr("L.k", "R.k"));
            check(&plan, &storage, &want, &format!("string {kind}"));
        }
        for pred in [
            Pred::cmp_lit("L.k", CmpOp::Eq, "k1"),
            Pred::cmp_lit("L.k", CmpOp::Ne, "k1"),
            Pred::cmp_lit("L.k", CmpOp::Lt, "k2"),
            Pred::cmp_lit("L.k", CmpOp::Ge, "city-0"),
            Pred::is_null("L.s"),
            Pred::is_null("L.s").not(),
            Pred::cmp_lit("L.s", CmpOp::Gt, "city-1").or(Pred::is_null("L.k")),
        ] {
            let plan = PhysPlan::Filter { input: Box::new(PhysPlan::scan("L")), pred: pred.clone() };
            check(&plan, &storage, &ops::restrict(l, &pred).unwrap(), &format!("string [{pred}]"));
        }
    }

    /// An equality literal outside the column's domain is answered from
    /// zone min/max alone: no rows, every row still counted as compared,
    /// and a nonzero `morsels_skipped` whenever the table has rows.
    #[test]
    fn columnar_zone_skipping_is_counted(
        rows in 0usize..64,
        domain in 1i64..6,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
    ) {
        let db = kv_db(&["L"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        let pred = Pred::cmp_lit("L.v", CmpOp::Eq, domain + 10);
        let plan = PhysPlan::Filter { input: Box::new(PhysPlan::scan("L")), pred: pred.clone() };
        let want = ops::restrict(rel(&db, "L"), &pred).unwrap();
        let (_, st) = check(&plan, &storage, &want, "zone skip");
        prop_assert_eq!(st.rows_output, 0);
        prop_assert!(rows == 0 || st.morsels_skipped > 0, "{} rows skipped no zone", rows);
    }
}

/// Zone-refutable filters over a clustered `id` spanning two zones
/// (`ZONE_ROWS` = 1024): literals inside, on and past the zone
/// boundary, alone and conjoined with a nullable column, and feeding a
/// join. Zones the metadata refutes are skipped, never wrongly.
#[test]
fn columnar_zone_skipping_on_clustered_ids() {
    let n = 1_300i64;
    let rows = (0..n)
        .map(|i| {
            let v = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(i % 7)
            };
            vec![Value::Int(i), v]
        })
        .collect();
    let mut db = Database::new();
    db.insert_named("Z", Relation::from_values("Z", &["id", "v"], rows));
    db.insert_named("R", Relation::from_ints("R", &["k"], &[&[3], &[5], &[6]]));
    let storage = Storage::from_database(&db);
    let z = rel(&db, "Z");
    for lit in [700, 1023, 1024, 1200, 5_000] {
        for op in [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq] {
            let by_id = Pred::cmp_lit("Z.id", op, lit);
            let pred = if op == CmpOp::Ge {
                by_id.and(Pred::cmp_lit("Z.v", CmpOp::Lt, 3))
            } else {
                by_id
            };
            let plan = PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("Z")),
                pred: pred.clone(),
            };
            let want = ops::restrict(z, &pred).unwrap();
            let (_, st) = check(&plan, &storage, &want, &format!("[{pred}]"));
            if op == CmpOp::Eq {
                assert!(st.morsels_skipped >= 1, "[{pred}] skipped no zone");
            }
        }
    }
    let pred = Pred::cmp_lit("Z.id", CmpOp::Ge, 1200);
    let plan = PhysPlan::HashJoin {
        kind: JoinKind::LeftOuter,
        probe: Box::new(PhysPlan::Filter {
            input: Box::new(PhysPlan::scan("Z")),
            pred: pred.clone(),
        }),
        build: Box::new(PhysPlan::scan("R")),
        probe_keys: vec![Attr::parse("Z.v")],
        build_keys: vec![Attr::parse("R.k")],
        residual: Pred::always(),
    };
    let want = ops::outerjoin(
        &ops::restrict(z, &pred).unwrap(),
        rel(&db, "R"),
        &Pred::eq_attr("Z.v", "R.k"),
    )
    .unwrap();
    check(&plan, &storage, &want, "zone-filtered join");
}

/// Degenerate layouts the random sweep may miss — an empty table, an
/// all-null key column and a single hot key shared by every row —
/// joined in every pairing and both directions, all five kinds, and
/// filtered, including by literals the zone metadata refutes.
#[test]
fn columnar_degenerate_layouts() {
    let kv = |name: &str, rows: Vec<Vec<Value>>| Relation::from_values(name, &["k", "v"], rows);
    let layouts = [
        ("E", Vec::new()),
        (
            "N",
            (0..8).map(|i| vec![Value::Null, Value::Int(i)]).collect(),
        ),
        (
            "H",
            (0..12)
                .map(|i| vec![Value::Int(7), Value::Int(i)])
                .collect(),
        ),
        (
            "P",
            (0..10)
                .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
                .collect(),
        ),
    ];
    let mut db = Database::new();
    for (name, rows) in &layouts {
        // A renamed copy lets every pair join, a table with its own
        // data included, without the schemas overlapping.
        db.insert_named(format!("{name}2"), kv(&format!("{name}2"), rows.clone()));
        db.insert_named(*name, kv(name, rows.clone()));
    }
    let storage = Storage::from_database(&db);
    for &(probe, _) in &layouts {
        for &(build, _) in &layouts {
            let build = format!("{build}2");
            let pred = Pred::eq_attr(&format!("{probe}.k"), &format!("{build}.k"));
            for kind in KINDS {
                let plan = hash_join(
                    kind,
                    PhysPlan::scan(probe),
                    PhysPlan::scan(build.as_str()),
                    probe,
                    &build,
                );
                let want = reference(kind, rel(&db, probe), rel(&db, &build), &pred);
                check(&plan, &storage, &want, &format!("{probe}⋈{build} {kind}"));
            }
        }
    }
    for (table, rows) in &layouts {
        let k = format!("{table}.k");
        // No zone of any table holds the key 99: a non-empty table
        // answers that literal from zone metadata alone.
        for (pred, refuted) in [
            (Pred::cmp_lit(&k, CmpOp::Eq, 7), false),
            (Pred::cmp_lit(&k, CmpOp::Eq, 99), !rows.is_empty()),
            (Pred::is_null(&k), false),
        ] {
            let plan = PhysPlan::Filter {
                input: Box::new(PhysPlan::scan(*table)),
                pred: pred.clone(),
            };
            let want = ops::restrict(rel(&db, table), &pred).unwrap();
            let (_, st) = check(&plan, &storage, &want, &format!("{table} [{pred}]"));
            assert!(
                !refuted || st.morsels_skipped > 0,
                "{table} [{pred}] skipped no zone"
            );
        }
    }
}
