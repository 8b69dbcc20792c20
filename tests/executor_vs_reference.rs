//! The executor against the reference evaluator: the semijoin reducer
//! and EXPLAIN ANALYZE's per-node row counts.
//!
//! Every executor suite goes through the one harness in `tests/harness`:
//! a plan runs sequentially and must be set-equal to `fro-algebra`'s
//! answer (`ops::*` for hand-built plans, `Query::eval` for lowered and
//! optimized trees), its counters must match the values derived from
//! the reference where those are known in closed form, and it then
//! runs bit-identically across threads × morsel rows × partitions
//! (every configuration on a test's first checks, a rotating share of
//! them after). The suites are named after
//! what they exercise: `pipelined_property` (every join operator and
//! kind, spines, derived attributes, deep left-outer chains),
//! `columnar_property` (column-hashed builds, hoisted filters, string
//! dictionaries, zones, degenerate layouts), `parallel_engine_property`
//! (multi-operator probes, Example 1), `partition_invariance_property`
//! (partition totals, hot keys, auto), `group_partition_property`
//! (`GroupCount`) and `engine_vs_reference` (lowered and optimized
//! implementing trees, `Goj`, Example 1 costs).
//!
//! Here: `SemiReduce` over scans and materialized sources, and, on
//! random lowered and DP-optimized plans, every `(rows=N)` line of
//! `explain_analyze` equal to the size of its executed subtree.

mod harness;

use fro_algebra::{ops, CmpOp, Pred};
use fro_core::{optimize_with_reduce, optimizer::lower, Catalog, Policy, ReducePolicy};
use fro_exec::{JoinKind, PhysPlan, ReducePass, Storage};
use fro_testkit::{
    db_for_graph, random_connected_graph, random_implementing_tree, random_nice_graph, GraphSpec,
};
use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `SemiReduce` over a scan (an upward pass) and over a left-outer
    /// join reduced by a filtered, materialized source (downward).
    #[test]
    fn semi_reducers_match_reference(
        rows in 0usize..40,
        domain in 1i64..12,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
    ) {
        let db = kv_db(&["L", "R", "S"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        let (l, r, s) = (rel(&db, "L"), rel(&db, "R"), rel(&db, "S"));
        let eq = Pred::eq_attr("L.k", "R.k");
        let scan = |n: &str| Box::new(PhysPlan::scan(n));

        let reduce = PhysPlan::SemiReduce {
            input: scan("L"),
            source: scan("R"),
            input_keys: key("L"),
            source_keys: key("R"),
            pass: ReducePass::Up,
        };
        let (_, st) = check(&reduce, &storage, &ops::semijoin(l, r, &eq).unwrap(), "reduce");
        prop_assert_eq!(st.reducer_passes, 1);
        prop_assert_eq!(st.rows_reduced, l.len() as u64 - st.rows_output);

        let source_pred = Pred::cmp_lit("S.v", CmpOp::Ge, 1);
        let reduce = PhysPlan::SemiReduce {
            input: Box::new(hash_join(JoinKind::LeftOuter, PhysPlan::scan("L"), PhysPlan::scan("R"), "L", "R")),
            source: Box::new(PhysPlan::Filter { input: scan("S"), pred: source_pred.clone() }),
            input_keys: key("L"),
            source_keys: key("S"),
            pass: ReducePass::Down,
        };
        let want = ops::semijoin(
            &ops::outerjoin(l, r, &eq).unwrap(),
            &ops::restrict(s, &source_pred).unwrap(),
            &Pred::eq_attr("L.k", "S.k"),
        )
        .unwrap();
        check(&reduce, &storage, &want, "reduce by a materialized source");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// EXPLAIN ANALYZE's per-node `(rows=N)` lines on random lowered
    /// and optimized plans: each equals its subtree's result size, and
    /// the report does not depend on the thread count.
    #[test]
    fn explain_analyze_counts_every_node(
        n in 2usize..6,
        ojp in 0u32..100,
        gseed in 0u64..10_000,
        tseed in 0u64..10_000,
        dseed in 0u64..10_000,
        rows in 0usize..10,
    ) {
        let g = random_connected_graph(n, f64::from(ojp) / 100.0, gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let storage = indexed(&db_for_graph(&g, rows, 4, 0.2, dseed));
        let catalog = Catalog::from_storage(&storage);
        check_explain(&lower(&q, &catalog).expect("lowerable"), &storage, "lowered");

        let spec = GraphSpec { core: 1 + n % 3, oj_nodes: n % 3, extra_core_edges: 0, strong: true };
        let g = random_nice_graph(&spec, gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let storage = indexed(&db_for_graph(&g, rows, 4, 0.2, dseed));
        let catalog = Catalog::from_storage(&storage);
        for reduce in [ReducePolicy::Auto, ReducePolicy::Always] {
            let opt = optimize_with_reduce(&q, &catalog, Policy::Paper, reduce).expect("optimizes");
            check_explain(&opt.plan, &storage, &format!("optimized {reduce:?}"));
        }
    }

}
