//! §4 restriction placement: `place_restriction(plan, p)` ≡
//! `Filter(plan, p)` ≡ the reference `Query::restrict` on top.
//!
//! Random nice graphs (the Theorem 1 generators) take a strong and a
//! non-strong (`IS NULL`) single-relation restriction on every node —
//! join core, preserved, null-supplied, outerjoin-chain interior — and
//! a random implementing tree is lowered with every physical join the
//! DP can emit (hash, index, nested-loop, plus the DP's own
//! choice wrapped in every sound `SemiReduce`). The executor runs the
//! placed and the filter-on-top plan; both must give the reference
//! evaluator's rows. A restriction pushed below a null-supplied side
//! would keep padded rows the reference drops (or drop ones it keeps),
//! so the equivalence also pins every stop condition; the hand-built
//! cases pin *where* the filter stops.

use fro_algebra::{Attr, CmpOp, Database, Pred, Query, Relation};
use fro_core::optimizer::{lower, place_restriction};
use fro_core::{optimize_with_reduce, Catalog, Policy, ReducePolicy};
use fro_exec::{execute, ExecStats, JoinKind, PhysPlan, Storage};
use fro_testkit::{db_for_graph, random_implementing_tree, random_nice_graph, GraphSpec};
use proptest::prelude::*;

fn run(plan: &PhysPlan, storage: &Storage) -> Relation {
    execute(plan, storage, &mut ExecStats::new()).unwrap_or_else(|e| panic!("{e}\n{plan}"))
}

/// Both placements of `pred` over `plan` against the reference rows.
fn assert_placement_equivalent(
    plan: &PhysPlan,
    pred: &Pred,
    storage: &Storage,
    want: &Relation,
    label: &str,
) -> PhysPlan {
    let placed = place_restriction(plan.clone(), pred);
    let on_top = PhysPlan::Filter {
        input: Box::new(plan.clone()),
        pred: pred.clone(),
    };
    let low = run(&placed, storage);
    let top = run(&on_top, storage);
    assert!(
        low.set_eq(&top) && low.len() == top.len(),
        "{label} [{pred}]: placed differs from filter-on-top\n{placed}"
    );
    assert!(
        low.set_eq(want),
        "{label} [{pred}]: placed differs from the reference\n{placed}"
    );
    placed
}

/// Whether `pred` sits in a `Filter` directly on `Scan rel`.
fn filter_on_scan(plan: &PhysPlan, rel: &str, pred: &Pred) -> bool {
    let mut found = false;
    walk(plan, &mut |node| {
        if let PhysPlan::Filter { input, pred: p } = node {
            found |= p == pred && matches!(&**input, PhysPlan::Scan { rel: r } if r == rel);
        }
    });
    found
}

fn walk<'a>(plan: &'a PhysPlan, f: &mut impl FnMut(&'a PhysPlan)) {
    f(plan);
    for child in plan.children() {
        walk(child, f);
    }
}

/// The same tree with every hash join run as a nested-loop join over
/// the spelled-out key equalities.
fn with_joins(plan: PhysPlan) -> PhysPlan {
    match plan {
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } => {
            let pred = probe_keys
                .iter()
                .zip(&build_keys)
                .map(|(a, b)| Pred::eq_attr(&a.to_string(), &b.to_string()))
                .fold(residual, Pred::and);
            PhysPlan::NlJoin {
                kind,
                left: Box::new(with_joins(*probe)),
                right: Box::new(with_joins(*build)),
                pred,
            }
        }
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn placed_restriction_equals_filter_on_top_equals_reference(
        core in 1usize..5,
        oj in 0usize..4,
        chords in 0usize..2,
        gseed in 0u64..1_000,
        tseed in 0u64..1_000,
        dseed in 0u64..1_000,
        rows in 1usize..7,
        domain in 1i64..5,
        nulls in 0u32..40,
        lit in 0i64..5,
    ) {
        let spec = GraphSpec { core, oj_nodes: oj, extra_core_edges: chords, strong: true };
        let g = random_nice_graph(&spec, gseed);
        let db = db_for_graph(&g, rows, domain, f64::from(nulls) / 100.0, dseed);
        let tree = random_implementing_tree(&g, tseed).expect("connected");

        let plain = Storage::from_database(&db);
        let mut indexed = Storage::from_database(&db);
        for name in g.node_names() {
            prop_assert!(indexed.create_index(name, &[Attr::new(name, "k")]));
        }
        let (plain_cat, indexed_cat) =
            (Catalog::from_storage(&plain), Catalog::from_storage(&indexed));

        let hash = lower(&tree, &plain_cat).expect("lowers");
        let dp = optimize_with_reduce(&tree, &indexed_cat, Policy::Paper, ReducePolicy::Always)
            .expect("optimizes");
        let plans = [
            ("nl", with_joins(hash.clone()), &plain),
            ("hash", hash, &plain),
            ("index", lower(&tree, &indexed_cat).expect("lowers"), &indexed),
            ("dp+reduce", dp.plan, &indexed),
        ];

        for (i, name) in g.node_names().iter().enumerate() {
            let preds = [
                Pred::cmp_lit(&format!("{name}.v"), CmpOp::Le, lit),
                Pred::is_null(&format!("{name}.k")),
            ];
            for pred in &preds {
                let want = tree.clone().restrict(pred.clone()).eval(&db).expect("evaluates");
                for (label, plan, storage) in &plans {
                    let placed = assert_placement_equivalent(plan, pred, storage, &want, label);
                    let at_scan = filter_on_scan(&placed, name, pred);
                    if i >= core {
                        // Null-supplied in every implementing tree.
                        prop_assert!(!at_scan, "{label}: pushed under an outerjoin\n{placed}");
                    } else {
                        // Join core: nothing stops the walk but an
                        // index join that reads the table in place.
                        let mut scanned = false;
                        walk(plan, &mut |n| {
                            scanned |= matches!(n, PhysPlan::Scan { rel } if rel == name);
                        });
                        if *label != "dp+reduce" {
                            prop_assert_eq!(at_scan, scanned, "{}\n{}", label, placed);
                        }
                    }
                }
            }
        }
    }
}

fn kv(name: &str, rows: &[&[i64]]) -> Relation {
    Relation::from_ints(name, &["k", "v"], rows)
}

fn small_world() -> (Database, Storage) {
    let mut db = Database::new();
    db.insert(kv("A", &[&[1, 10], &[2, 20], &[3, 30]]));
    db.insert(kv("B", &[&[1, 5], &[2, 6], &[4, 7]]));
    let mut storage = Storage::from_database(&db);
    assert!(storage.create_index("B", &[Attr::parse("B.k")]));
    (db, storage)
}

fn hash_join(kind: JoinKind) -> PhysPlan {
    PhysPlan::HashJoin {
        kind,
        probe: Box::new(PhysPlan::scan("A")),
        build: Box::new(PhysPlan::scan("B")),
        probe_keys: vec![Attr::parse("A.k")],
        build_keys: vec![Attr::parse("B.k")],
        residual: Pred::always(),
    }
}

fn a_join_b(kind: JoinKind) -> Query {
    let on = Pred::eq_attr("A.k", "B.k");
    match kind {
        JoinKind::Inner => Query::rel("A").join(Query::rel("B"), on),
        JoinKind::LeftOuter => Query::rel("A").outerjoin(Query::rel("B"), on),
        JoinKind::FullOuter => Query::FullOuterJoin {
            left: Box::new(Query::rel("A")),
            right: Box::new(Query::rel("B")),
            pred: on,
        },
        other => panic!("no case for {other}"),
    }
}

/// Strong and non-strong restrictions on each side of `A kind B`.
fn side_preds() -> [(&'static str, Pred); 4] {
    [
        ("A", Pred::cmp_lit("A.v", CmpOp::Ge, 20)),
        ("A", Pred::is_null("A.k")),
        ("B", Pred::cmp_lit("B.v", CmpOp::Le, 6)),
        ("B", Pred::is_null("B.v")),
    ]
}

#[test]
fn the_filter_stays_above_a_left_outer_build_side_and_a_full_outerjoin() {
    let (db, storage) = small_world();
    for (kind, a_descends, b_descends) in [
        (JoinKind::Inner, true, true),
        (JoinKind::LeftOuter, true, false),
        (JoinKind::FullOuter, false, false),
    ] {
        let plan = hash_join(kind);
        for (rel, pred) in side_preds() {
            let want = a_join_b(kind).restrict(pred.clone()).eval(&db).unwrap();
            let placed =
                assert_placement_equivalent(&plan, &pred, &storage, &want, &kind.to_string());
            let descends = if rel == "A" { a_descends } else { b_descends };
            assert_eq!(filter_on_scan(&placed, rel, &pred), descends, "{placed}");
            if !descends {
                assert!(
                    matches!(&placed, PhysPlan::Filter { input, .. } if **input == plan),
                    "the filter sits right above the join\n{placed}"
                );
            }
        }
    }
}

#[test]
fn the_filter_stays_above_an_index_join_inner() {
    let (db, storage) = small_world();
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        let plan = PhysPlan::IndexJoin {
            kind,
            outer: Box::new(PhysPlan::scan("A")),
            inner: "B".to_owned(),
            outer_keys: vec![Attr::parse("A.k")],
            inner_keys: vec![Attr::parse("B.k")],
            residual: Pred::always(),
        };
        for (rel, pred) in side_preds() {
            let want = a_join_b(kind).restrict(pred.clone()).eval(&db).unwrap();
            let placed =
                assert_placement_equivalent(&plan, &pred, &storage, &want, &kind.to_string());
            if rel == "A" {
                assert!(filter_on_scan(&placed, "A", &pred), "{placed}");
            } else {
                // Inner or null-supplied, the stored table is probed in
                // place: there is no scan to filter.
                assert!(
                    matches!(&placed, PhysPlan::Filter { input, .. } if **input == plan),
                    "{placed}"
                );
            }
        }
    }
}

#[test]
fn the_walk_passes_filters_and_reducer_inputs_and_stops_at_a_projection() {
    let (db, storage) = small_world();
    let pred = Pred::cmp_lit("A.v", CmpOp::Ge, 20);
    let other = Pred::cmp_lit("B.v", CmpOp::Le, 6);
    // Filter(SemiReduce(A ⋉ B) ⋈ B): down through all three to Scan A.
    let reduced = PhysPlan::Filter {
        input: Box::new(PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::SemiReduce {
                input: Box::new(PhysPlan::scan("A")),
                source: Box::new(PhysPlan::scan("B")),
                input_keys: vec![Attr::parse("A.k")],
                source_keys: vec![Attr::parse("B.k")],
                pass: fro_exec::ReducePass::Up,
            }),
            build: Box::new(PhysPlan::scan("B")),
            probe_keys: vec![Attr::parse("A.k")],
            build_keys: vec![Attr::parse("B.k")],
            residual: Pred::always(),
        }),
        pred: other.clone(),
    };
    let want = a_join_b(JoinKind::Inner)
        .restrict(other)
        .restrict(pred.clone())
        .eval(&db)
        .unwrap();
    let placed = assert_placement_equivalent(&reduced, &pred, &storage, &want, "reduced");
    assert!(filter_on_scan(&placed, "A", &pred), "{placed}");
    // The reducer's source reads B whole, as before.
    assert!(!filter_on_scan(&placed, "B", &pred));

    // A projection is a different scheme: the walk does not look inside.
    let projected = PhysPlan::Project {
        input: Box::new(hash_join(JoinKind::Inner)),
        attrs: vec![Attr::parse("A.v"), Attr::parse("B.v")],
    };
    let placed = place_restriction(projected.clone(), &pred);
    assert!(matches!(&placed, PhysPlan::Filter { input, .. } if **input == projected));
    // So is a predicate over two relations, or none.
    for wide in [Pred::eq_attr("A.v", "B.v"), Pred::always()] {
        let plan = hash_join(JoinKind::Inner);
        let placed = place_restriction(plan.clone(), &wide);
        assert!(matches!(&placed, PhysPlan::Filter { input, .. } if **input == plan));
    }
}
