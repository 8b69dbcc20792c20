//! Properties of semijoin reduction (`PhysPlan::SemiReduce`).
//!
//! A reduction wrap may only remove rows that could never contribute
//! to its generating join's output, so a reduced plan must be
//! **bit-identical** to the plain plan it was derived from: same rows,
//! same row order, same schema, same `rows_output`. On top of that the
//! reduced plan goes through the executor harness in `tests/harness`
//! (set-equal to the plain plan), and its `reducer_passes` must equal
//! the wraps the reducer reports applied.
//!
//! Random inputs sweep empty relations, all-null key columns
//! (`nulls = 100`), and single-hot-key domains (`domain = 1`); plans
//! sweep all five join kinds. Deterministic tests pin the soundness
//! matrix: a left-outerjoin's probe side is never up-reduced, a full
//! outerjoin is never reduced at all, and subtrees beneath a full
//! outerjoin still receive their local reductions. A skewed star and
//! snowflake pin the cost model's choice: `Auto` wraps each once and
//! cuts its intermediate rows by an exact count, while the uniform
//! control declines.

mod harness;

use fro_algebra::{Pred, Relation};
use fro_core::{optimize_with_reduce, reduce_plan, Catalog, Policy, ReducePolicy};
use fro_exec::{execute, ExecStats, JoinKind, PhysPlan, ReducePass, Storage};
use fro_testkit::workloads::{star, StarParams};
use harness::*;
use proptest::prelude::*;

/// Force-reduce `plan`, then assert (1) the reduced plan's output is
/// bit-identical to the plain plan's — rows, order, schema — and (2)
/// it executes one reduction pass per applied wrap.
fn assert_reduction_sound(plan: &PhysPlan, storage: &Storage, catalog: &Catalog, label: &str) {
    let (reduced, report) = reduce_plan(plan, catalog, ReducePolicy::Always, None);
    let plain = execute(plan, storage, &mut ExecStats::new()).expect("plain run");
    let (red, red_st) = check(&reduced, storage, &plain, label);
    assert_eq!(
        red.rows(),
        plain.rows(),
        "{label}: reduction changed rows or order ({report})"
    );
    assert_eq!(red.schema(), plain.schema(), "{label}: schema changed");
    assert_eq!(
        red_st.reducer_passes,
        report.applied.len() as u64,
        "{label}: applied wraps and executed passes disagree"
    );
}

fn join2(kind: JoinKind) -> PhysPlan {
    hash_join(kind, PhysPlan::scan("L"), PhysPlan::scan("R"), "L", "R")
}

/// A two-dimension star on a single fact column: `(F ⋈ D1) kind D2`,
/// both joins keyed on `F.k`, so up-wraps must descend through the
/// inner join's probe side to land on `Scan F`.
fn star2(kind: JoinKind) -> PhysPlan {
    let fact = PhysPlan::scan("F");
    let inner = hash_join(JoinKind::Inner, fact, PhysPlan::scan("D1"), "F", "D1");
    hash_join(kind, inner, PhysPlan::scan("D2"), "F", "D2")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single joins of every kind: forced reduction never changes the
    /// result, from empty inputs through all-null keys to single-key
    /// domains.
    #[test]
    fn reduction_is_identity_on_single_joins(
        rows in 0usize..16,
        domain in 1i64..6,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
    ) {
        let storage = Storage::from_database(&kv_db(&["L", "R"], rows, domain, nulls, false, seed));
        let catalog = Catalog::from_storage(&storage);
        for kind in KINDS {
            assert_reduction_sound(&join2(kind), &storage, &catalog, &format!("join {kind}"));
        }
    }

    /// Two-join stars: wraps must descend through the inner join and
    /// still preserve the output exactly, for every outer join kind.
    #[test]
    fn reduction_is_identity_on_stars(
        rows in 0usize..12,
        domain in 1i64..5,
        nulls in 0u32..=100,
        seed in 0u64..10_000,
    ) {
        let db = kv_db(&["F", "D1", "D2"], rows, domain, nulls, false, seed);
        let storage = Storage::from_database(&db);
        let catalog = Catalog::from_storage(&storage);
        for kind in KINDS {
            assert_reduction_sound(&star2(kind), &storage, &catalog, &format!("star {kind}"));
        }
    }

    /// Index joins: the reducer synthesizes a scan of the inner
    /// relation as the reduction source.
    #[test]
    fn reduction_is_identity_on_index_joins(
        rows in 1usize..12,
        domain in 1i64..5,
        nulls in 0u32..60,
        seed in 0u64..10_000,
    ) {
        let mut storage = Storage::from_database(&kv_db(&["L", "R"], rows, domain, nulls, false, seed));
        storage.create_index("R", &key("R"));
        let catalog = Catalog::from_storage(&storage);
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
            let plan = index_join(kind, PhysPlan::scan("L"), &Pred::always());
            assert_reduction_sound(&plan, &storage, &catalog, &format!("index {kind}"));
        }
    }
}

fn tiny_world(rels: &[&str]) -> (Storage, Catalog) {
    let storage = Storage::from_database(&kv_db(rels, 8, 3, 20, false, 42));
    let catalog = Catalog::from_storage(&storage);
    (storage, catalog)
}

/// A left outerjoin preserves unmatched probe rows, so reducing its
/// probe side by the build key would delete preserved rows — only
/// down-pass (build-side) wraps are sound.
#[test]
fn left_outer_probe_side_is_never_up_reduced() {
    let (storage, catalog) = tiny_world(&["L", "R"]);
    let (_, report) = reduce_plan(
        &join2(JoinKind::LeftOuter),
        &catalog,
        ReducePolicy::Always,
        None,
    );
    assert!(!report.applied.is_empty(), "down-pass wrap expected");
    for w in &report.applied {
        assert!(
            matches!(w.pass, ReducePass::Down),
            "unsound up-pass wrap on a left outerjoin: {w}"
        );
    }
    assert_reduction_sound(
        &join2(JoinKind::LeftOuter),
        &storage,
        &catalog,
        "left outer",
    );
}

/// Full outerjoins preserve both sides — no wrap is sound, and the
/// plan must come back untouched even under `Always`.
#[test]
fn full_outer_join_is_refused_entirely() {
    let (_, catalog) = tiny_world(&["L", "R"]);
    let plan = join2(JoinKind::FullOuter);
    let (reduced, report) = reduce_plan(&plan, &catalog, ReducePolicy::Always, None);
    assert!(report.applied.is_empty(), "{}", report);
    assert_eq!(reduced, plan, "full outerjoin plan must be untouched");
}

/// A full outerjoin blocks wraps from crossing it, but joins *beneath*
/// it still get their local reductions — a wrap preserves its
/// generating join's output exactly, so the outerjoin above sees
/// identical input.
#[test]
fn subtrees_below_full_outer_still_reduce_locally() {
    let (storage, catalog) = tiny_world(&["F", "D1", "D2"]);
    let plan = star2(JoinKind::FullOuter);
    let (reduced, report) = reduce_plan(&plan, &catalog, ReducePolicy::Always, None);
    assert!(
        !report.applied.is_empty(),
        "inner join below the full outerjoin should still reduce"
    );
    for w in &report.applied {
        let shown = w.to_string();
        assert!(
            !shown.contains("D2"),
            "wrap crossed the full outerjoin: {shown}"
        );
    }
    assert_ne!(reduced, plan);
    assert_reduction_sound(&plan, &storage, &catalog, "below full outer");
}

/// `Never` is the identity on every plan.
#[test]
fn never_policy_is_identity() {
    let (_, catalog) = tiny_world(&["L", "R"]);
    for kind in KINDS {
        let plan = join2(kind);
        let (reduced, report) = reduce_plan(&plan, &catalog, ReducePolicy::Never, None);
        assert_eq!(reduced, plan);
        assert!(report.applied.is_empty());
    }
}

/// A star whose per-dimension junk blocks land on duplicated hot keys
/// and die at every other dimension, with 30 000 never-matched keys on
/// the last dimension: rows per key fall to 1.17, so no distinct count
/// sees the skew.
fn skewed_star() -> StarParams {
    StarParams {
        dims: 4,
        match_keys: 100,
        good_rows: 100,
        hot_keys: 50,
        hot_dup: 100,
        junk_rows: 2_000,
        wide_keys: 30_000,
        snowflake: false,
    }
}

fn skewed_snowflake() -> StarParams {
    StarParams {
        dims: 3,
        match_keys: 100,
        good_rows: 100,
        hot_keys: 50,
        hot_dup: 60,
        junk_rows: 3_000,
        wide_keys: 20_000,
        snowflake: true,
    }
}

/// Rows out of `plan`, and its intermediate rows (every tuple an
/// operator emitted or pipelined) and rows reduced.
fn run_counted(plan: &PhysPlan, storage: &Storage) -> (Relation, u64, u64) {
    let mut st = ExecStats::new();
    let out = execute(plan, storage, &mut st).expect("plan runs");
    (
        out,
        st.rows_materialized + st.rows_pipelined,
        st.rows_reduced,
    )
}

/// `Auto` chooses exactly one wrap on the skewed star and snowflake;
/// the reduced output is bit-identical to `Never`'s, and the
/// intermediate rows fall by the counts the plans repeat exactly. A
/// cost-model change that flips the choice fails here.
#[test]
fn auto_wraps_the_skewed_star_and_snowflake_and_cuts_intermediates() {
    for (name, params, plain_rows, reduced_rows) in [
        ("star", skewed_star(), 208_500, 15_700),
        ("snowflake", skewed_snowflake(), 189_700, 15_900),
    ] {
        let (storage, catalog, query) = star(&params);
        let plan = |p| optimize_with_reduce(&query, &catalog, Policy::Paper, p).expect("optimizes");
        let (plain, reduced) = (plan(ReducePolicy::Never), plan(ReducePolicy::Auto));
        assert_eq!(
            reduced.reduction.applied.len(),
            1,
            "{name}: {}",
            reduced.reduction
        );
        let (plain_out, plain_inter, plain_cut) = run_counted(&plain.plan, &storage);
        let (reduced_out, reduced_inter, reduced_cut) = run_counted(&reduced.plan, &storage);
        assert_eq!(reduced_out.rows(), plain_out.rows(), "{name}: rows");
        assert_eq!(reduced_out.schema(), plain_out.schema(), "{name}: schema");
        assert_eq!(
            (plain_inter, reduced_inter),
            (plain_rows, reduced_rows),
            "{name}: intermediates"
        );
        assert_eq!((plain_cut, reduced_cut), (0, 6_000), "{name}: rows reduced");
    }
}

/// The same star without hot keys, junk or wide keys gives the reducer
/// nothing to delete, and `Auto` declines.
#[test]
fn auto_declines_the_uniform_star() {
    let uniform = StarParams {
        hot_keys: 0,
        hot_dup: 0,
        junk_rows: 0,
        wide_keys: 0,
        ..skewed_star()
    };
    let (_, catalog, query) = star(&uniform);
    let control = optimize_with_reduce(&query, &catalog, Policy::Paper, ReducePolicy::Auto)
        .expect("optimizes");
    assert!(
        control.reduction.applied.is_empty(),
        "{}",
        control.reduction
    );
}
