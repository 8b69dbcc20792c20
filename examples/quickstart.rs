//! Quickstart: query graphs, implementing trees, Theorem 1, and the
//! `Session` front door with its catalog-owned plan cache.
//!
//! Run with `cargo run --example quickstart`.

use fro::prelude::*;
use fro_trees::canonical_tree;

fn main() {
    // ------------------------------------------------------------------
    // 1. A join/outerjoin query (Example 1 of the paper), deliberately
    //    written in the expensive association: R1 − (R2 → R3).
    // ------------------------------------------------------------------
    let q = Query::rel("R1").join(
        Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
        Pred::eq_attr("R1.k1", "R2.k2"),
    );
    println!("query      : {}", q.shape());

    // ------------------------------------------------------------------
    // 2. Its query graph abstracts the association away.
    // ------------------------------------------------------------------
    let graph = graph_of(&q).expect("graph is defined");
    println!("query graph:\n{graph}");

    // ------------------------------------------------------------------
    // 3. Theorem 1: nice graph + strong predicates ⇒ freely reorderable.
    // ------------------------------------------------------------------
    let analysis = fro::core::analyze(&q, Policy::Paper);
    println!("analysis   : {analysis}");
    assert!(analysis.is_freely_reorderable());

    // ------------------------------------------------------------------
    // 4. Every implementing tree of the graph evaluates identically.
    // ------------------------------------------------------------------
    let trees = enumerate_trees(&graph, EnumLimit::default()).unwrap();
    println!("implementing trees ({}):", trees.len());
    for t in &trees {
        println!("  {}", t.shape());
    }

    let mut db = Database::new();
    db.insert(Relation::from_ints("R1", &["k1"], &[&[0]]));
    db.insert(Relation::from_ints("R2", &["k2"], &[&[0], &[1], &[2]]));
    db.insert(Relation::from_ints("R3", &["k3"], &[&[1], &[2], &[9]]));
    let results: Vec<Relation> = trees.iter().map(|t| t.eval(&db).unwrap()).collect();
    for r in &results[1..] {
        assert!(r.set_eq(&results[0]), "Theorem 1 violated?!");
    }
    println!("\nall {} trees agree; result:", trees.len());
    println!("{}", results[0]);

    // ------------------------------------------------------------------
    // 5. The Session front door: a handle over the catalog (with its
    //    plan cache) and the storage, shared by every connection.
    // ------------------------------------------------------------------
    let session = Session::new();
    for (name, rel) in db.iter() {
        session.insert_table(name, rel.clone());
    }
    for (t, a) in [("R1", "R1.k1"), ("R2", "R2.k2"), ("R3", "R3.k3")] {
        session.create_index(t, &[fro::algebra::Attr::parse(a)]);
    }

    let prepared = session.prepare(&q).expect("optimizes");
    println!(
        "chosen plan (reordered = {}):",
        prepared.optimized().reordered
    );
    println!("{}", prepared.explain());
    let (out, stats) = prepared.run_with_stats().expect("executes");
    assert!(out.set_eq(&results[0]));
    println!("execution counters: {stats}");
    drop(prepared);

    // ------------------------------------------------------------------
    // 6. Prepare the same query again: the catalog epoch is unchanged,
    //    so the whole plan comes out of the cache — zero enumeration.
    // ------------------------------------------------------------------
    let warm = session.prepare(&q).expect("optimizes");
    assert_eq!(warm.optimized().pairs_examined, 0);
    assert!(warm.optimized().cache.hits >= 1);
    println!(
        "warm prepare: pairs_examined = {}, session cache: {}",
        warm.optimized().pairs_examined,
        session.cache_stats()
    );
    drop(warm);

    // A statistics change bumps the epoch and invalidates stale plans.
    session.set_distinct(&fro::algebra::Attr::parse("R2.k2"), 1_000_000);
    let replanned = session.prepare(&q).expect("optimizes");
    assert!(replanned.optimized().pairs_examined > 0);
    println!(
        "after stats change: re-planned with {} pairs examined",
        replanned.optimized().pairs_examined
    );

    // A fun aside: canonical forms identify mirror-image join trees.
    let mirrored = Query::rel("R2").join(Query::rel("R1"), Pred::eq_attr("R1.k1", "R2.k2"));
    let original = Query::rel("R1").join(Query::rel("R2"), Pred::eq_attr("R1.k1", "R2.k2"));
    assert_eq!(canonical_tree(&mirrored), canonical_tree(&original));
    println!("\nok.");
}
