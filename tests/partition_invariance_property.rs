//! The hash join over bare-scan and materialized operands, against the
//! reference.
//!
//! For random inputs — empty relations, all-null key columns and a
//! single hot build key (every build row in one bucket) — every join
//! kind must be set-equal to `fro-algebra`, with its counters pinned
//! where the work is known in closed form. Every plan goes through the
//! harness in `tests/harness`.

mod harness;

use fro_algebra::{Database, Relation, Value};
use fro_exec::Storage;
use harness::*;
use proptest::prelude::*;

/// Check bare-scan and materialized hash joins of every kind.
fn check_hash_joins(db: &Database, with_residual: bool) {
    let storage = Storage::from_database(db);
    let residual = residual(with_residual);
    check_equi_join(Op::Hash, db, &storage, &residual);
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
    /// lands in one bucket.
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
