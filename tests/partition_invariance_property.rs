//! The radix-partitioned hash join, against the reference.
//!
//! The partition count moves work between per-partition tables but
//! never changes what a join computes. For random inputs — empty
//! relations, all-null key columns and a single hot build key (every
//! build row in one bucket of one partition) — every join kind must be
//! set-equal to `fro-algebra`, then bit-identical in rows, order, schema
//! and `ExecStats` at partitions {1, 2, 8, 64, auto} × threads ×
//! morsel rows. The per-partition build/probe totals are the
//! non-null-keyed rows at every partition count. Every plan goes
//! through the harness in `tests/harness`.

mod harness;

use fro_algebra::{Database, Relation, Value};
use fro_exec::{execute_with, ExecConfig, ExecStats, Storage};
use harness::*;
use proptest::prelude::*;

/// Check bare-scan and materialized hash joins of every kind, and pin
/// the bare-scan build's partition totals to the non-null keys.
fn check_hash_joins(db: &Database, with_residual: bool) {
    let storage = Storage::from_database(db);
    let residual = residual(with_residual);
    let want = (non_null_keys(rel(db, "R")), non_null_keys(rel(db, "L")));
    for (kind, st) in check_equi_join(Op::Hash, db, &storage, &residual) {
        assert_eq!(partition_totals(&st), want, "{kind}: partition totals");
    }
    check_equi_join(Op::HashRows, db, &storage, &residual);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random key/value relations, from no nulls to all keys null.
    #[test]
    fn hash_join_is_partition_invariant(
        rows in 0usize..16,
        domain in 1i64..6,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        check_hash_joins(&kv_db(&["L", "R"], rows, domain, nulls, false, seed), with_residual);
    }

    /// Every build row carries the same hot key, so the whole build
    /// lands in one bucket of one partition and the others stay empty.
    #[test]
    fn single_hot_key_build_is_partition_invariant(
        build_rows in 1usize..24,
        probe_rows in 0usize..16,
        hot in 0i64..5,
        seed in 0u64..10_000,
        with_residual in any::<bool>(),
    ) {
        let mut db = kv_db(&["L"], probe_rows, 5, 20, false, seed);
        let build = (0..build_rows).map(|i| vec![Value::Int(hot), Value::Int(i as i64 % 5)]);
        db.insert_named("R", Relation::from_values("R", &["k", "v"], build.collect()));
        check_hash_joins(&db, with_residual);
    }
}

/// Auto partitioning (`partitions = 0`) resolves per join from the build
/// cardinality. It sits in every configuration sweep beside the explicit
/// counts, so it can change layout, never answers; on a small build it
/// resolves to one partition.
#[test]
fn auto_partitioning_matches_explicit() {
    let db = kv_db(&["L", "R"], 12, 4, 10, false, 7);
    check_hash_joins(&db, false);
    let storage = Storage::from_database(&db);
    for kind in KINDS {
        let plan = equi_join(Op::Hash, kind, &residual(false));
        let cfg = ExecConfig::with_threads(2).morsel_rows(3).partitions(0);
        let mut st = ExecStats::new();
        execute_with(&plan, &storage, &mut st, &cfg).expect("auto");
        assert_eq!(st.partition.used(), 1, "{kind}: auto on 12 build rows");
    }
}
