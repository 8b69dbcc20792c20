//! Plan-cache correctness: the cache must be *invisible* except in
//! speed. For random nice graphs and random implementing trees:
//!
//! * a warm-cache prepare returns a bit-identical plan (to the
//!   `explain()` string) and bit-identical results and `ExecStats`
//!   as the cold prepare that populated it, with zero enumeration;
//! * an alpha-equivalent query — a *different association* of the same
//!   graph — collides on the graph signature and is answered from the
//!   cache with the same result;
//! * a statistics change bumps the catalog epoch, so the next prepare
//!   re-plans (stale entries counted and evicted) — the cache never
//!   serves a plan costed under dead statistics;
//! * every result, cold or warm, matches the reference evaluator;
//! * neither a plan nor a standing view's identity depends on how the
//!   query was phrased, even when the cache is cold or the catalog
//!   moved in between.

use fro::prelude::*;
use fro_algebra::Attr;
use fro_testkit::{
    corpus_suite, db_for_graph, random_implementing_tree, random_nice_graph, GraphSpec,
};
use proptest::prelude::*;

fn spec(core: usize, oj: usize, extra: usize) -> GraphSpec {
    GraphSpec {
        core,
        oj_nodes: oj,
        extra_core_edges: extra,
        strong: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_cache_is_bit_identical_and_skips_enumeration(
        core in 2usize..5,
        oj in 0usize..3,
        extra in 0usize..2,
        rows in 4usize..16,
        seed in 0u64..40,
    ) {
        let g = random_nice_graph(&spec(core, oj, extra), seed);
        let db = db_for_graph(&g, rows, 8, 0.1, seed);
        let Some(tree) = random_implementing_tree(&g, seed) else {
            return;
        };
        let want = tree.eval(&db).expect("reference evaluates");
        let session = Session::from_storage(Storage::from_database(&db));

        // Cold: populates the cache.
        let cold = session.prepare(&tree).expect("optimizes");
        let (cold_out, cold_stats) = cold.run_with_stats().expect("executes");
        prop_assert!(cold_out.set_eq(&want), "cold result matches reference");

        // Warm: same query — full-set hit, zero enumeration, and the
        // plan, result and engine counters are bit-identical.
        let warm = session.prepare(&tree).expect("optimizes");
        prop_assert_eq!(warm.optimized().pairs_examined, 0, "warm must not enumerate");
        prop_assert!(warm.optimized().cache.hits >= 1);
        prop_assert_eq!(warm.plan().explain(), cold.plan().explain());
        let (warm_out, warm_stats) = warm.run_with_stats().expect("executes");
        prop_assert_eq!(&warm_out, &cold_out, "warm result bit-identical");
        prop_assert_eq!(warm_stats, cold_stats, "warm engine work identical");

        // Alpha-equivalence: a *different association* of the same
        // graph shares the signature, so it too is answered from the
        // cache — with the same (reference-checked) result.
        if let Some(alt) = random_implementing_tree(&g, seed.wrapping_add(1)) {
            let p = session.prepare(&alt).expect("optimizes");
            prop_assert_eq!(
                p.optimized().pairs_examined, 0,
                "alpha-equivalent association shares the cached plan"
            );
            prop_assert!(p.run().expect("executes").set_eq(&want));
        }
    }

    #[test]
    fn epoch_bump_replans_and_never_serves_stale(
        core in 2usize..5,
        rows in 4usize..16,
        seed in 0u64..40,
    ) {
        let g = random_nice_graph(&spec(core, 1, 1), seed);
        let db = db_for_graph(&g, rows, 8, 0.0, seed);
        let Some(tree) = random_implementing_tree(&g, seed) else {
            return;
        };
        let want = tree.eval(&db).expect("reference evaluates");
        let session = Session::from_storage(Storage::from_database(&db));

        let _ = session.prepare(&tree).expect("optimizes");
        let epoch_before = session.catalog().epoch();

        // Any statistics mutation bumps the epoch …
        session.set_distinct(&Attr::parse("R0.k"), 1_000_000);
        prop_assert!(session.catalog().epoch() > epoch_before);

        // … so the next prepare must re-plan (stale entries evicted,
        // never served) and still produce a correct result.
        let replanned = session.prepare(&tree).expect("optimizes");
        prop_assert!(replanned.optimized().pairs_examined > 0, "stale plans not served");
        prop_assert!(replanned.optimized().cache.stale >= 1, "stale entries counted");
        prop_assert!(replanned.run().expect("executes").set_eq(&want));

        // The re-plan re-primed the cache under the new epoch.
        let warm = session.prepare(&tree).expect("optimizes");
        prop_assert_eq!(warm.optimized().pairs_examined, 0);
        prop_assert!(warm.run().expect("executes").set_eq(&want));
    }
}

/// Deterministic end-to-end check on the paper's Example 1: cold and
/// warm sessions agree with the reference evaluator, and the cache
/// counters surface through `Prepared::explain`.
#[test]
fn example1_cold_warm_and_explain_counters() {
    let q = Query::rel("R1").join(
        Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
        Pred::eq_attr("R1.k1", "R2.k2"),
    );
    let mut db = Database::new();
    db.insert(Relation::from_ints("R1", &["k1"], &[&[0]]));
    db.insert(Relation::from_ints("R2", &["k2"], &[&[0], &[1], &[2]]));
    db.insert(Relation::from_ints("R3", &["k3"], &[&[1], &[2], &[9]]));
    let want = q.eval(&db).unwrap();

    let session = Session::from_storage(Storage::from_database(&db));
    let cold = session.prepare(&q).unwrap();
    assert!(cold.run().unwrap().set_eq(&want));
    assert!(cold.explain().contains("plan_cache: hits=0"));

    let warm = session.prepare(&q).unwrap();
    assert_eq!(warm.optimized().pairs_examined, 0);
    assert!(warm.explain().contains("plan_cache: hits=1"));
    assert!(warm.run().unwrap().set_eq(&want));
}

/// `R ⋈ S → T` phrased four ways — each equality written either way
/// round × the From-List in either order — is one graph: one
/// signature, one plan-cache entry (every phrasing after the first is
/// answered with zero enumeration) and one standing view.
#[test]
fn flipped_equalities_share_one_signature_plan_and_view() {
    let mut db = Database::new();
    db.insert(Relation::from_ints("R", &["k"], &[&[1], &[2], &[3]]));
    db.insert(Relation::from_ints("S", &["k"], &[&[2], &[3], &[4]]));
    db.insert(Relation::from_ints("T", &["k"], &[&[3], &[5]]));
    let phrasing = |flip: bool, s_first: bool| {
        let eq = |a: &str, b: &str| {
            if flip {
                Pred::eq_attr(b, a)
            } else {
                Pred::eq_attr(a, b)
            }
        };
        let (x, y) = if s_first { ("S", "R") } else { ("R", "S") };
        Query::rel(x)
            .join(Query::rel(y), eq("R.k", "S.k"))
            .outerjoin(Query::rel("T"), eq("S.k", "T.k"))
    };
    let queries: Vec<Query> = [(false, false), (true, false), (false, true), (true, true)]
        .into_iter()
        .map(|(flip, s_first)| phrasing(flip, s_first))
        .collect();
    let want = queries[0].eval(&db).unwrap();
    let signature = |q: &Query| {
        fro::core::optimizer::graph_signature(&graph_of(q).expect("a query graph").canonical())
    };
    let session = Session::from_storage(Storage::from_database(&db));
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            signature(q),
            signature(&queries[0]),
            "phrasing {i}: signature"
        );
        let prepared = session.prepare(q).unwrap();
        if i > 0 {
            assert_eq!(
                prepared.optimized().pairs_examined,
                0,
                "phrasing {i}: warm prepare enumerated"
            );
        }
        assert!(
            prepared.run().unwrap().set_eq(&want),
            "phrasing {i}: result"
        );
        let registered = session.register_standing(q).unwrap();
        assert_eq!(registered.shared, i > 0, "phrasing {i}: shared view");
    }
}

/// Theorem 1 makes the graph the whole query, so a plan and a view's
/// identity may depend on the graph and the statistics, never on the
/// phrasing. Each of 20 implementing trees of a corpus graph, optimized
/// on a fresh catalog (no cache to paper over a difference), gets the
/// written query's plan; and after an unrelated table changes the
/// catalog, registering any of them still finds the written query's
/// view.
#[test]
fn phrasings_share_one_plan_and_one_view_across_catalog_changes() {
    let cases = ["star5", "snowflake7", "crossover_join_first"];
    for case in corpus_suite()
        .into_iter()
        .filter(|c| cases.contains(&c.name))
    {
        let name = case.name;
        let g = graph_of(&case.query).expect("a query graph");
        let trees: Vec<Query> = (0..20)
            .map(|seed| random_implementing_tree(&g, seed).expect("connected"))
            .collect();
        let plan = |q: &Query| {
            optimize(q, &case.catalog.clone(), Policy::Paper)
                .expect("optimizes")
                .plan
        };
        let written = plan(&case.query);
        for (i, tree) in trees.iter().enumerate() {
            assert_eq!(plan(tree), written, "{name} phrasing {i}: plan");
        }

        let session = Session::from_storage(case.storage.clone());
        let first = session.register_standing(&case.query).unwrap();
        session.insert_table(
            "UNRELATED",
            Relation::from_ints("UNRELATED", &["k"], &[&[1]]),
        );
        for (i, tree) in trees.iter().enumerate() {
            let again = session.register_standing(tree).unwrap();
            assert!(
                again.shared && again.id == first.id,
                "{name} phrasing {i}: registered {again:?}, not the view {first:?}"
            );
        }
    }
}

/// A ten-relation join chain, optimized straight against its catalog:
/// a cleared cache enumerates, a primed one answers the same plan with
/// no enumeration, and a statistics change makes the next call re-plan
/// (counting the stale entry) and the one after hit again.
#[test]
fn chain10_cold_warm_and_epoch_bump() {
    let (_, mut catalog, q) = fro_testkit::workloads::chain(10, 10, 7);
    catalog.clear_plan_cache();
    let cold = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    assert!(cold.reordered && cold.pairs_examined > 0);
    let warm = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    assert_eq!(warm.pairs_examined, 0, "warm runs must not enumerate");
    assert_eq!(warm.plan.explain(), cold.plan.explain());

    catalog.set_distinct(&Attr::parse("R0.k"), 7);
    let replanned = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    assert!(replanned.pairs_examined > 0, "epoch bump must re-plan");
    assert!(replanned.cache.stale >= 1, "stale entries must be counted");
    let rehit = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    assert_eq!(rehit.pairs_examined, 0, "re-primed after the bump");
}
