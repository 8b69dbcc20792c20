//! Implementing trees, the generalized outerjoin and Example 1, against
//! the reference.
//!
//! Random implementing trees, lowered syntactically or reordered by the
//! DP (with the reducer deciding and forced), must be set-equal to
//! `Query::eval`. A `Goj` plan, hand-built and lowered from a query, must be set-equal
//! to `ops::goj` / `Query::eval`; on the Example 1 family the reordered
//! plan must never retrieve more tuples than the syntactic one. Every
//! plan then runs bit-identically at every configuration of threads ×
//! morsel rows × partitions through the harness in `tests/harness`.

mod harness;

use fro_algebra::{ops, Attr, Pred, Query};
use fro_core::{optimize, optimize_with_reduce, optimizer::lower, Catalog, Policy, ReducePolicy};
use fro_exec::PhysPlan;
use fro_testkit::{
    db_for_graph, random_connected_graph, random_implementing_tree, random_nice_graph, GraphSpec,
};
use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Syntactic lowering of implementing trees of arbitrary connected
    /// graphs — often not nice, so outerjoins stay where they are.
    #[test]
    fn lowered_plans_match_reference(
        n in 2usize..6,
        ojp in 0u32..100,
        gseed in 0u64..10_000,
        tseed in 0u64..10_000,
        dseed in 0u64..10_000,
        rows in 0usize..10,
        nulls in 0u32..30,
    ) {
        let g = random_connected_graph(n, f64::from(ojp) / 100.0, gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let db = db_for_graph(&g, rows, 4, f64::from(nulls) / 100.0, dseed);
        let storage = indexed(&db);
        let plan = lower(&q, &Catalog::from_storage(&storage)).expect("lowerable");
        check(&plan, &storage, &q.eval(&db).expect("reference"), &q.shape());
    }

    /// Implementing trees of nice graphs through the DP, with the
    /// reducer deciding (`Auto`) and forced (`Always`).
    #[test]
    fn optimized_plans_match_reference(
        core in 0usize..3,
        oj in 0usize..3,
        gseed in 0u64..10_000,
        tseed in 0u64..10_000,
        dseed in 0u64..10_000,
        rows in 0usize..10,
    ) {
        let spec = GraphSpec { core: 1 + core, oj_nodes: oj, extra_core_edges: 0, strong: true };
        let g = random_nice_graph(&spec, gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let db = db_for_graph(&g, rows, 4, 0.15, dseed);
        let storage = indexed(&db);
        let catalog = Catalog::from_storage(&storage);
        let want = q.eval(&db).expect("reference");
        for reduce in [ReducePolicy::Auto, ReducePolicy::Always] {
            let opt = optimize_with_reduce(&q, &catalog, Policy::Paper, reduce).expect("optimizes");
            prop_assert!(opt.reordered, "nice graphs must take the DP path");
            check(&opt.plan, &storage, &want, &format!("{} {reduce:?}", q.shape()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Goj` over `R0.k = R1.k` preserving `R0.k`.
    #[test]
    fn goj_plan_matches_reference(
        rows in 0usize..10,
        dseed in 0u64..10_000,
    ) {
        let g = random_connected_graph(2, 0.0, 1);
        let db = db_for_graph(&g, rows, 4, 0.2, dseed);
        let storage = indexed(&db);
        let catalog = Catalog::from_storage(&storage);
        let (eq, subset) = (Pred::eq_attr("R0.k", "R1.k"), vec![Attr::parse("R0.k")]);
        let q = Query::rel("R0").goj(Query::rel("R1"), eq.clone(), subset.clone());
        let want = q.eval(&db).expect("reference");
        check(&lower(&q, &catalog).expect("lowerable"), &storage, &want, "lowered goj");
        let plan = PhysPlan::Goj {
            left: Box::new(PhysPlan::scan("R0")),
            right: Box::new(PhysPlan::scan("R1")),
            pred: eq.clone(),
            subset: subset.clone(),
        };
        let direct = ops::goj(rel(&db, "R0"), rel(&db, "R1"), &eq, &subset).expect("reference");
        check(&plan, &storage, &direct, "goj");
    }
}

/// Example 1: the reordered plan never costs more than the syntactic
/// one under the executor's own counters — `3` against `2n + 1` tuples
/// retrieved — and both, and the good association, match the
/// reference at every configuration.
#[test]
fn dp_never_loses_to_syntactic_on_example1_family() {
    for n in [10usize, 100, 1000] {
        let ex = fro_testkit::workloads::example1(n);
        let db = ex.storage.to_database();
        let want = ex.bad_query.eval(&db).expect("reference");
        let syn = lower(&ex.bad_query, &ex.catalog).unwrap();
        let (_, syn_stats) = check(&syn, &ex.storage, &want, "syntactic");
        let opt = optimize(&ex.bad_query, &ex.catalog, Policy::Paper).unwrap();
        let (_, opt_stats) = check(&opt.plan, &ex.storage, &want, "reordered");
        assert!(
            opt_stats.tuples_retrieved <= syn_stats.tuples_retrieved,
            "n={n}: reordered {} > syntactic {}",
            opt_stats.tuples_retrieved,
            syn_stats.tuples_retrieved
        );
        assert_eq!(opt_stats.tuples_retrieved, 3, "n={n}");
        assert_eq!(syn_stats.tuples_retrieved as usize, 2 * n + 1, "n={n}");
        let good = lower(&ex.good_query, &ex.catalog).unwrap();
        check(
            &good,
            &ex.storage,
            &ex.good_query.eval(&db).unwrap(),
            "good",
        );
    }
}
