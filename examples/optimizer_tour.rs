//! A tour of the cost-based optimizer (§6.1): chain workloads with
//! skewed cardinalities, plan-space sizes, and the benefit of free
//! reordering measured in executed work.
//!
//! Run with `cargo run --release --example optimizer_tour`.

use fro::prelude::*;
use fro_testkit::workloads::chain;
use fro_trees::count_implementing_trees;

fn main() {
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>8}",
        "chain", "trees", "syntactic", "reordered", "ratio"
    );
    for k in 3..=7 {
        let (storage, catalog, q) = chain(k, 32, 7);
        let graph = graph_of(&q).unwrap();
        let n_trees = count_implementing_trees(&graph, false);

        // Syntactic: execute the user's left-deep association.
        let syn_plan = fro::core::optimizer::lower(&q, &catalog).unwrap();
        let mut syn_stats = ExecStats::new();
        let syn_out = execute(&syn_plan, &storage, &mut syn_stats).unwrap();

        // Reordered: full DP over the query graph.
        let optimized = optimize(&q, &catalog, Policy::Paper).unwrap();
        assert!(optimized.reordered);
        let mut dp_stats = ExecStats::new();
        let dp_out = execute(&optimized.plan, &storage, &mut dp_stats).unwrap();
        assert!(syn_out.set_eq(&dp_out), "plans must agree");

        let ratio = syn_stats.work() as f64 / dp_stats.work().max(1) as f64;
        println!(
            "{:<6} {:>14} {:>14} {:>14} {:>7.1}×",
            k,
            n_trees,
            syn_stats.work(),
            dp_stats.work(),
            ratio
        );
    }

    // Show one chosen plan in full, with EXPLAIN ANALYZE row counts.
    let (storage, catalog, q) = chain(5, 32, 7);
    let optimized = optimize(&q, &catalog, Policy::Paper).unwrap();
    println!("\nchosen plan for the 5-chain (EXPLAIN ANALYZE):");
    let (_, report) = fro::exec::explain_analyze(&optimized.plan, &storage).unwrap();
    println!("{report}");
    println!(
        "estimated cost {:.0}, estimated rows {:.0}",
        optimized.est_cost, optimized.est_rows
    );

    // The plan search is bounded by work, not by relation count: a
    // 20-relation chain with 1:1 keys needs more splits than the
    // budget allows, so the DP plans it in IDP-1 rounds.
    let k = 20;
    let mut storage = Storage::new();
    for i in 0..k {
        let name = format!("R{i}");
        let rows: Vec<Vec<Value>> = (0..50).map(|j| vec![Value::Int(j)]).collect();
        storage.insert(&name, Relation::from_values(&name, &["k"], rows));
        storage.create_index(&name, &[fro::algebra::Attr::new(&name, "k")]);
    }
    let catalog = Catalog::from_storage(&storage);
    let mut q = Query::rel("R0");
    for i in 1..k {
        q = q.join(
            Query::rel(format!("R{i}")),
            Pred::eq_attr(&format!("R{}.k", i - 1), &format!("R{i}.k")),
        );
    }
    let optimized = optimize(&q, &catalog, Policy::Paper).unwrap();
    assert!(optimized.reordered, "the rounds still reorder");
    assert!(optimized.pairs_examined <= fro::core::optimizer::SPLIT_BUDGET);
    let mut stats = ExecStats::new();
    let out = execute(&optimized.plan, &storage, &mut stats).unwrap();
    println!(
        "{k}-relation chain reordered in IDP-1 rounds ({} csg-cmp pairs): {} output rows, {} work units",
        optimized.pairs_examined,
        out.len(),
        stats.work()
    );
}
