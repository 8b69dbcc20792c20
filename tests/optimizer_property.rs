//! Optimizer-wide properties: every planning path (syntactic lowering,
//! the exhaustive DP, the DP's IDP-1 rounds past its work budget) must
//! produce the same *result*, and the exhaustive DP must never be
//! beaten on its own estimated cost.

use fro_algebra::Attr;
use fro_core::optimizer::dp::dp_optimize_within;
use fro_core::optimizer::{dp_optimize, lower};
use fro_core::{optimize, Catalog, Policy};
use fro_exec::{execute, ExecStats, Storage};
use fro_testkit::{db_for_graph, random_implementing_tree, random_nice_graph, GraphSpec};
use proptest::prelude::*;

fn indexed_storage(db: &fro_algebra::Database) -> Storage {
    let mut storage = Storage::from_database(db);
    let names: Vec<String> = db.names().map(str::to_owned).collect();
    for name in names {
        storage.create_index(&name, &[Attr::new(&name, "k")]);
    }
    storage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_planning_paths_agree(
        core in 1usize..4,
        oj in 0usize..3,
        gseed in 0u64..10_000,
        tseed in 0u64..10_000,
        dseed in 0u64..10_000,
        rows in 1usize..10,
    ) {
        let spec = GraphSpec { core, oj_nodes: oj, extra_core_edges: 0, strong: true };
        let g = random_nice_graph(&spec, gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let db = db_for_graph(&g, rows, 4, 0.15, dseed);
        let storage = indexed_storage(&db);
        let catalog = Catalog::from_storage(&storage);
        let reference = q.eval(&db).expect("reference");

        // Syntactic.
        let syn = lower(&q, &catalog).expect("lowers");
        let mut st = ExecStats::new();
        let a = execute(&syn, &storage, &mut st).expect("runs");
        prop_assert!(a.set_eq(&reference), "syntactic diverged");

        // Exhaustive DP.
        let dp = dp_optimize(&g, &catalog).expect("dp");
        let mut st = ExecStats::new();
        let b = execute(&dp.plan, &storage, &mut st).expect("runs");
        prop_assert!(b.set_eq(&reference), "dp diverged:\n{}", dp.plan);

        // IDP-1 rounds, forced by budgets far below the full DP's
        // work: 0 collapses one pair per round, 8 allows triples.
        for budget in [0, 8] {
            let idp = dp_optimize_within(&g, &catalog, budget).expect("idp");
            let mut st = ExecStats::new();
            let c = execute(&idp.plan, &storage, &mut st).expect("runs");
            prop_assert!(c.set_eq(&reference), "idp ({budget}) diverged:\n{}", idp.plan);

            // The exhaustive DP is optimal within its own cost model:
            // the rounds can never have *lower* estimated cost.
            prop_assert!(
                dp.cost <= idp.cost + 1e-6,
                "idp ({budget}: {}) beat the exhaustive DP ({})",
                idp.cost,
                dp.cost
            );
        }
    }

    /// `optimize` is deterministic and stable: same inputs, same plan.
    #[test]
    fn optimize_deterministic(
        core in 1usize..4,
        oj in 0usize..3,
        gseed in 0u64..10_000,
        tseed in 0u64..10_000,
    ) {
        let spec = GraphSpec { core, oj_nodes: oj, extra_core_edges: 0, strong: true };
        let g = random_nice_graph(&spec, gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let mut catalog = Catalog::new();
        for name in g.node_names() {
            catalog.add_table(
                name,
                std::sync::Arc::new(fro_algebra::Schema::of_relation(name, &["k", "v"])),
                100,
            );
        }
        let p1 = optimize(&q, &catalog, Policy::Paper).expect("optimizes");
        let p2 = optimize(&q, &catalog, Policy::Paper).expect("optimizes");
        prop_assert_eq!(p1.plan, p2.plan);
        prop_assert_eq!(p1.est_cost, p2.est_cost);
    }
}

/// The DP's estimated cost is monotone in the right direction on
/// Example 1: driving from the tiny relation must be the chosen plan
/// at every scale.
#[test]
fn dp_choice_stable_across_scales() {
    for n in [10usize, 1_000, 100_000] {
        let ex = fro_testkit::workloads::example1(n);
        let g = fro_graph::graph_of(&ex.bad_query).unwrap();
        let dp = dp_optimize(&g, &ex.catalog).unwrap();
        let text = dp.plan.explain();
        assert!(text.contains("Scan R1"), "n={n}:\n{text}");
        assert!(!text.contains("Scan R2"), "n={n}:\n{text}");
    }
}

/// Syntactic join chains of 8, 10 and 12 relations are freely
/// reorderable, so `optimize` plans them by enumeration.
#[test]
fn long_join_chains_take_the_dp_path() {
    for k in [8usize, 10, 12] {
        let (_, catalog, q) = fro_testkit::workloads::chain(k, 10, 7);
        let out = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
        assert!(out.reordered, "chain{k}");
        assert!(out.pairs_examined > 0, "chain{k}");
    }
}
