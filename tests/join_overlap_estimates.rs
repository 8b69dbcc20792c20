//! Equi-join selectivity from measured key overlap, pinned by counts.
//!
//! `left_chain` draws every relation's keys independently from a domain
//! 1.5× its row count, so about half of any two relations' keys match.
//! Under the containment assumption (`1 / max(d_a, d_b)`) each edge of
//! the chain over-estimates its output by ≈ 1.4×, the error compounds
//! along the chain, and the DP materializes hash-joined intermediates.
//! With the overlap the key sketches measure, the estimate stays near
//! the truth and the DP keeps the pipelined chain of index joins. For
//! a star's foreign keys — contained in their dimension's keys — the
//! measured overlap must agree with containment, so reductions and
//! join orders keyed on them do not move for the wrong reason.
//!
//! The reference evaluator joins by nested loops, far too slow for the
//! full-size chain, so results are checked against it on smaller
//! instances of the same shapes, which must plan the same way.

use fro::algebra::{Attr, Relation, Tuple, Value};
use fro::core::Catalog;
use fro::exec::{JoinKind, PhysPlan, Storage};
use fro::Session;
use fro_testkit::workloads::{left_chain, star, StarParams};

/// The snowflake `embed_exec` benchmarks.
const SNOWFLAKE: StarParams = StarParams {
    dims: 3,
    match_keys: 400,
    good_rows: 24_000,
    hot_keys: 60,
    hot_dup: 20,
    junk_rows: 6_000,
    wide_keys: 200,
    snowflake: true,
};

/// The same snowflake a hundredth the size.
const SMALL_SNOWFLAKE: StarParams = StarParams {
    match_keys: 40,
    good_rows: 240,
    hot_keys: 6,
    hot_dup: 4,
    junk_rows: 60,
    wide_keys: 20,
    ..SNOWFLAKE
};

/// Load every table of `storage` into a fresh session, with its indexes.
fn session_over(storage: &Storage) -> Session {
    let session = Session::new();
    for (name, table) in storage.iter() {
        let rel = table.relation();
        session.insert_table(name, rel.clone());
        for ix in table.indexes() {
            let attrs: Vec<Attr> = ix
                .key_cols()
                .iter()
                .map(|&c| rel.schema().attrs()[c].clone())
                .collect();
            assert!(session.create_index(name, &attrs));
        }
    }
    session
}

fn reference(storage: &Storage, q: &fro::algebra::Query) -> Relation {
    q.eval(&storage.to_database())
        .expect("reference evaluation")
}

/// Whether `plan` is a left-deep chain of left-outer index joins over
/// one scanned base relation.
fn is_index_join_chain(plan: &PhysPlan) -> bool {
    match plan {
        PhysPlan::Scan { .. } => true,
        PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer,
            ..
        } => is_index_join_chain(outer),
        _ => false,
    }
}

#[test]
fn left_chain8_plans_as_a_pipelined_index_join_chain() {
    for seed in [1u64, 2, 3, 7] {
        for rows in [8_000, 200] {
            let (storage, _, q) = left_chain(8, rows, seed);
            let session = session_over(&storage);
            let prepared = session.prepare(&q).expect("prepare");
            let plan = prepared.plan();
            assert!(
                is_index_join_chain(plan),
                "seed {seed}, {rows} rows: expected an index-join chain, got\n{}",
                plan.explain()
            );
            let (out, stats) = prepared.run_with_stats().expect("run");
            assert_eq!(stats.rows_materialized, 0, "seed {seed}, {rows} rows");
            let est = prepared.optimized().est_rows;
            let actual = stats.rows_output as f64;
            assert!(
                est <= 2.0 * actual && actual <= 2.0 * est,
                "seed {seed}, {rows} rows: estimated {est:.0} rows, produced {actual}"
            );
            if rows < 1_000 {
                assert!(out.set_eq(&reference(&storage, &q)), "seed {seed}");
            }
        }
    }
}

#[test]
fn snowflake_foreign_keys_keep_their_containment_estimate() {
    for params in [SNOWFLAKE, SMALL_SNOWFLAKE] {
        let (storage, _, q) = star(&params);
        let session = session_over(&storage);
        let catalog = session.catalog();
        for d in 1..=params.dims {
            let fk = Attr::new("F", format!("d{d}"));
            let key = Attr::new(format!("D{d}"), "k");
            let containment = 1.0
                / catalog
                    .distinct_of(&fk)
                    .max(catalog.distinct_of(&key))
                    .max(1) as f64;
            let measured = catalog.eq_selectivity(&fk, &key);
            let ratio = measured / containment;
            assert!(
                (1.0 / 1.5..=1.5).contains(&ratio),
                "{fk} = {key}: measured {measured:e}, containment {containment:e}"
            );
        }
        if params.good_rows < 1_000 {
            let prepared = session.prepare(&q).expect("prepare");
            let (out, _) = prepared.run_with_stats().expect("run");
            assert!(out.set_eq(&reference(&storage, &q)));
        }
    }
}

/// The key values `R.k = S.k` is estimated to match, read back off its
/// selectivity (`m = sel·d_R·d_S`).
fn matching_keys(catalog: &Catalog) -> f64 {
    let (r, s) = (Attr::parse("R.k"), Attr::parse("S.k"));
    let (dr, ds) = (catalog.distinct_of(&r), catalog.distinct_of(&s));
    catalog.eq_selectivity(&r, &s) * dr as f64 * ds as f64
}

/// A table that keeps deleting its oldest keys and appending new ones
/// never rebuilds its columnar mirror, so its key sketch is maintained
/// by the delete and append paths alone. The superset a delete leaves
/// behind must stay bounded: the estimate tracks a freshly built
/// catalog's while `R`'s 2 000-key window slides off `S`'s keys.
#[test]
fn key_overlap_tracks_a_sliding_window_of_deletes_and_appends() {
    const WINDOW: i64 = 2_000;
    const STEP: i64 = 100;
    let row = |k: i64| Tuple::new(vec![Value::Int(k), Value::Int(k % 7)]);
    let session = Session::new();
    let rows = |keys: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        keys.map(|k| vec![Value::Int(k), Value::Int(k % 7)])
            .collect()
    };
    session.insert_table(
        "R",
        Relation::from_values("R", &["k", "v"], rows(0..WINDOW)),
    );
    session.insert_table("S", Relation::from_values("S", &["k", "v"], rows(0..3_000)));
    for lo in (0..2 * WINDOW).step_by(STEP as usize) {
        let doomed: Vec<Tuple> = (lo..lo + STEP).map(row).collect();
        assert!(session.delete_rows("R", &doomed));
        let fresh: Vec<Tuple> = (lo + WINDOW..lo + WINDOW + STEP).map(row).collect();
        assert!(session.append_rows("R", fresh));

        let mut rebuilt = Storage::new();
        for (name, table) in session.storage().iter() {
            rebuilt.insert(name, table.relation().clone());
        }
        let want = matching_keys(&Catalog::from_storage(&rebuilt));
        let got = matching_keys(&session.catalog());
        // Deleted keys linger in the sketch until they outnumber a
        // quarter of the window; sampling adds a little on top.
        assert!(
            (got - want).abs() <= 0.35 * WINDOW as f64,
            "window {}..{}: {got:.0} matching keys, a fresh catalog says {want:.0}",
            lo + STEP,
            lo + STEP + WINDOW
        );
    }
    // The window now lies past every key of S.
    let got = matching_keys(&session.catalog());
    assert!(
        got < 0.05 * WINDOW as f64,
        "{got:.0} matching keys on disjoint keys"
    );
}
