//! The hash join across thread counts and morsel sizes, against the
//! reference.
//!
//! Worker threads move probe morsels between cores but never change
//! what a join computes. For random inputs — empty relations, all-null
//! key columns and a single hot build key (every build row in one
//! bucket) — every join kind must be set-equal to `fro-algebra`, then
//! bit-identical in rows, order, schema and `ExecStats` at threads ×
//! morsel rows, and at the machine's parallelism (`threads = 0`).
//! Every plan goes through the harness in `tests/harness`.

mod harness;

use fro_algebra::{Database, Relation, Value};
use fro_exec::{ExecConfig, Storage};
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

/// The machine's parallelism (`threads = 0`), at the default morsel
/// size and at morsels small enough to split the probe, matches every
/// explicit configuration of the sweep.
#[test]
fn auto_partitioning_matches_explicit() {
    let db = kv_db(&["L", "R"], 12, 4, 10, false, 7);
    let storage = Storage::from_database(&db);
    let (l, r) = (rel(&db, "L"), rel(&db, "R"));
    let pred = fro_algebra::Pred::eq_attr("L.k", "R.k");
    for kind in KINDS {
        let plan = equi_join(Op::Hash, kind, &residual(false));
        let label = format!("{kind}");
        let (seq, seq_st) = check(&plan, &storage, &reference(kind, l, r, &pred), &label);
        for cfg in [
            ExecConfig::with_threads(0),
            ExecConfig::with_threads(0).morsel_rows(3),
        ] {
            check_config(&plan, &storage, &cfg, &seq, &seq_st, &label);
        }
    }
}
