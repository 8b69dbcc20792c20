//! The push-based pipelined executor, operator by operator, against the
//! reference.
//!
//! Every join operator, all the kinds it accepts, over random inputs
//! that sweep empty relations, all-null keys (`nulls = 100`) and
//! duplicate keys; a fused filter/join/project spine over a
//! materialized operand; a filter over a derived attribute fed by a
//! pipeline breaker; and eight-deep left-outerjoin chains, lowered
//! (EXPLAIN ANALYZE counts every node), optimized, and as hash joins over
//! scans, which fuse and materialize nothing. Every plan goes through the
//! harness in `tests/harness`: set-equal to `fro-algebra`, with its
//! counters pinned where the work is known in closed form.

mod harness;

use fro_algebra::{ops, Attr, CmpOp, Pred};
use fro_core::{optimize, optimizer::lower, Policy};
use fro_exec::{execute, ExecStats, JoinKind, PhysPlan, Storage};
use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hash joins over materialized operands (the build hashes rows),
    /// all five kinds, with and without a residual.
    #[test]
    fn pipelined_hash_join_all_kinds(
        rows in 0usize..16,
        domain in 1i64..6,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        check_equi_join(Op::HashRows, &db, &storage, &residual(with_residual));
    }

    /// A fused spine: a filter over a materialized probe source (the
    /// row kernel, not a hoisted mask), a hash join of every kind and a
    /// deduplicating root projection over the null pads.
    #[test]
    fn pipelined_filter_join_project_spine(
        rows in 0usize..16,
        domain in 1i64..4,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        lo in 0i64..3,
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        let pred = Pred::cmp_lit("L.v", CmpOp::Ge, lo);
        let filtered = ops::restrict(rel(&db, "L"), &pred).unwrap();
        for kind in KINDS {
            let probe = PhysPlan::Filter { input: Box::new(materialized("L")), pred: pred.clone() };
            let plan = PhysPlan::Project {
                input: Box::new(hash_join(kind, probe, PhysPlan::scan("R"), "L", "R")),
                attrs: vec![Attr::parse("L.v")],
            };
            let joined = reference(kind, &filtered, rel(&db, "R"), &Pred::eq_attr("L.k", "R.k"));
            let want = ops::project(&joined, &[Attr::parse("L.v")], true).unwrap();
            check(&plan, &storage, &want, &format!("spine {kind}"));
        }
    }

    /// Nested-loop joins on the equijoin (plus residual), all five kinds.
    #[test]
    fn pipelined_nl_join_all_kinds(
        rows in 0usize..10,
        domain in 1i64..5,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        check_equi_join(Op::Nl, &db, &storage, &residual(with_residual));
    }

    /// Index joins, the four kinds they accept; a full-outer index join
    /// is rejected.
    #[test]
    fn pipelined_index_join_matches_materializing(
        rows in 0usize..16,
        domain in 1i64..5,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = indexed(&db);
        let residual = residual(with_residual);
        check_equi_join(Op::Index, &db, &storage, &residual);
        let full = equi_join(Op::Index, JoinKind::FullOuter, &residual);
        prop_assert!(execute(&full, &storage, &mut ExecStats::new()).is_err());
    }

    /// A filter over the derived `agg.count`, which exists only in the
    /// `GroupCount` output scheme: over a grouped scan, and over a
    /// left-outer join grouped with a counted column.
    #[test]
    fn pipelined_filter_over_derived_attr(
        rows in 0usize..16,
        domain in 1i64..4,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        threshold in 1i64..4,
    ) {
        let db = kv_db(&["L", "R"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        let derived = Pred::cmp_lit("agg.count", CmpOp::Ge, threshold);
        let group = [Attr::parse("L.k")];
        let outer = ops::outerjoin(rel(&db, "L"), rel(&db, "R"), &Pred::eq_attr("L.k", "R.k")).unwrap();
        let counted = Attr::parse("R.v");
        for (input, want) in [
            (PhysPlan::scan("L"), ops::group_count(rel(&db, "L"), &group, None).unwrap()),
            (
                hash_join(JoinKind::LeftOuter, PhysPlan::scan("L"), PhysPlan::scan("R"), "L", "R"),
                ops::group_count(&outer, &group, Some(&counted)).unwrap(),
            ),
        ] {
            let counted = matches!(input, PhysPlan::HashJoin { .. }).then(|| counted.clone());
            let plan = PhysPlan::Filter {
                input: Box::new(PhysPlan::GroupCount {
                    input: Box::new(input),
                    group_attrs: group.to_vec(),
                    counted,
                }),
                pred: derived.clone(),
            };
            let want = ops::restrict(&want, &derived).unwrap();
            check(&plan, &storage, &want, "filter over agg.count");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Eight-deep left-outerjoin chains, lowered and optimized, and as
    /// left-deep hash joins over scans under a narrow projection, which
    /// fuse into one pipeline and materialize no row.
    #[test]
    fn pipelined_deep_left_chain(rows in 1usize..7, seed in 0u64..10_000) {
        let (storage, catalog, q) = fro_testkit::workloads::left_chain(8, rows, seed);
        let want = q.eval(&storage.to_database()).expect("reference");
        let lowered = lower(&q, &catalog).expect("lowerable");
        check(&lowered, &storage, &want, "left_chain8 lowered");
        check_explain(&lowered, &storage, "left_chain8 lowered");
        let optimized = optimize(&q, &catalog, Policy::Paper).expect("optimizes").plan;
        check(&optimized, &storage, &want, "left_chain8 optimized");

        let hashed = (1..8).fold(PhysPlan::scan("L0"), |plan, i| {
            let (l, r) = (format!("L{}", i - 1), format!("L{i}"));
            hash_join(JoinKind::LeftOuter, plan, PhysPlan::scan(&r), &l, &r)
        });
        let attrs = vec![Attr::parse("L0.k"), Attr::parse("L3.v"), Attr::parse("L7.v")];
        let want = ops::project(&want, &attrs, true).unwrap();
        let plan = PhysPlan::Project { input: Box::new(hashed), attrs };
        let (_, st) = check(&plan, &storage, &want, "left_chain8 hash joins");
        prop_assert_eq!(st.rows_materialized, 0);
    }
}
