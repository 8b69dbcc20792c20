//! `GroupCount` against the reference.
//!
//! For random null-bearing inputs, the executor must reproduce
//! `ops::group_count` row for row — same groups, same counts, same
//! first-seen emission order — with and without a counted column.
//! Every plan goes through the harness in `tests/harness`.

mod harness;

use fro_algebra::{ops, Attr};
use fro_exec::{PhysPlan, Storage};
use harness::*;
use proptest::prelude::*;

/// Check `GroupCount(R)` and that the run equals the reference row
/// for row.
fn check_group_count(
    rows: usize,
    domain: i64,
    nulls: u32,
    seed: u64,
    group: &[Attr],
    counted: Option<Attr>,
) {
    let db = kv_db(&["R"], rows, domain, nulls, false, seed);
    let storage = Storage::from_database(&db);
    let plan = PhysPlan::GroupCount {
        input: Box::new(PhysPlan::scan("R")),
        group_attrs: group.to_vec(),
        counted: counted.clone(),
    };
    let want = ops::group_count(rel(&db, "R"), group, counted.as_ref()).expect("reference");
    let (got, _) = check(&plan, &storage, &want, "group count");
    assert_eq!(got, want, "diverged from ops::group_count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One grouping column, with and without a counted column.
    #[test]
    fn partitioned_group_count_is_bit_identical(
        rows in 0usize..300,
        domain in 1i64..24,
        nulls in 0u32..4,
        counted in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let counted = counted.then(|| Attr::parse("R.v"));
        check_group_count(rows, domain, nulls * 15, seed, &[Attr::parse("R.k")], counted);
    }

    /// Both columns as the group key with a counted column: many
    /// distinct groups, each first seen at a different scan row.
    #[test]
    fn wide_keys_under_max_partitioning(
        rows in 1usize..120,
        seed in 0u64..10_000,
    ) {
        let group = [Attr::parse("R.k"), Attr::parse("R.v")];
        check_group_count(rows, 4, 30, seed, &group, Some(Attr::parse("R.k")));
    }
}
