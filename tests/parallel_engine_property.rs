//! The morsel-driven parallel executor, against the reference.
//!
//! Plans whose probes run through more than one operator — a hash join
//! over a join, an index join over a join, nested loops on a non-equi
//! predicate, and both associations of the paper's Example 1 — must be
//! set-equal to `fro-algebra`, then row-for-row identical to the
//! sequential run at every thread count, morsel size and partition
//! count (same rows, order, schema and `ExecStats`). Every plan goes
//! through the harness in `tests/harness`.

mod harness;

use fro_algebra::{ops, CmpOp, Pred};
use fro_core::optimizer::lower;
use fro_exec::{JoinKind, PhysPlan, Storage};
use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A hash join of every kind whose probe is a left-outer hash join:
    /// the upper probe reads the lower one's null pads, including a hot
    /// build key and all-null keys.
    #[test]
    fn parallel_hash_join_all_kinds(
        rows in 0usize..16,
        domain in 1i64..6,
        nulls in 0u32..=100,
        hot in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let db = kv_db(&["L", "R", "S"], rows, domain, nulls, hot, seed);
        let storage = Storage::from_database(&db);
        let lower_join = ops::outerjoin(rel(&db, "L"), rel(&db, "R"), &Pred::eq_attr("L.k", "R.k")).unwrap();
        for kind in KINDS {
            let probe = hash_join(JoinKind::LeftOuter, PhysPlan::scan("L"), PhysPlan::scan("R"), "L", "R");
            let plan = hash_join(kind, probe, PhysPlan::scan("S"), "L", "S");
            let want = reference(kind, &lower_join, rel(&db, "S"), &Pred::eq_attr("L.k", "S.k"));
            check(&plan, &storage, &want, &format!("hash over hash {kind}"));
        }
    }

    /// Nested-loop joins on a non-equi predicate (every pair is a
    /// candidate), all five kinds, with and without a residual.
    #[test]
    fn parallel_nl_join_all_kinds(
        rows in 0usize..10,
        domain in 1i64..5,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        let pred = Pred::cmp_attr("L.k", CmpOp::Ge, "R.k").and(residual(with_residual));
        for kind in KINDS {
            let plan = PhysPlan::NlJoin {
                kind,
                left: Box::new(PhysPlan::scan("L")),
                right: Box::new(PhysPlan::scan("R")),
                pred: pred.clone(),
            };
            let want = reference(kind, rel(&db, "L"), rel(&db, "R"), &pred);
            check(&plan, &storage, &want, &format!("non-equi nl {kind}"));
        }
    }

    /// Index joins of the four kinds they accept, probing `R`'s index
    /// from an inner hash join of `L` and `S`, with and without a
    /// residual.
    #[test]
    fn parallel_index_join_matches_sequential(
        rows in 0usize..16,
        domain in 1i64..5,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let db = kv_db(&["L", "R", "S"], rows, domain, nulls, false, seed);
        let storage = indexed(&db);
        let residual = residual(with_residual);
        let outer = ops::join(rel(&db, "L"), rel(&db, "S"), &Pred::eq_attr("L.k", "S.k")).unwrap();
        let pred = Pred::eq_attr("L.k", "R.k").and(residual.clone());
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
            let probe = hash_join(JoinKind::Inner, PhysPlan::scan("L"), PhysPlan::scan("S"), "L", "S");
            let plan = index_join(kind, probe, &residual);
            let want = reference(kind, &outer, rel(&db, "R"), &pred);
            check(&plan, &storage, &want, &format!("index over hash {kind}"));
        }
    }

    /// Both Example 1 associations, lowered to physical plans, match the
    /// reference at every configuration.
    #[test]
    fn example1_workload_is_thread_invariant(n in 1usize..40) {
        let w = fro_testkit::workloads::example1(n);
        let db = w.storage.to_database();
        for query in [&w.bad_query, &w.good_query] {
            let plan = lower(query, &w.catalog).expect("lowerable");
            check(&plan, &w.storage, &query.eval(&db).expect("reference"), &query.shape());
        }
    }
}
