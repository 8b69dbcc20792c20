//! Standing-query maintenance benchmark: incremental delta
//! propagation vs full re-execution on a star-join view, writing
//! `BENCH_standing.json` at the repository root.
//!
//! The workload is a skewed snowflake from
//! `fro_testkit::workloads::star` at bench scale — a fact table of
//! thousands of rows, most of them junk blocks that multiply through
//! their own dimension's hot keys before dying at the next dimension,
//! so a full execution drags large doomed intermediates while the view
//! itself stays small. Both sides plan under the product's `Auto`
//! reduction: the baseline re-executes the chosen plan, semijoin
//! reduction included, and the registered view maintains the same plan
//! with its `SemiReduce` wraps dropped (a delta plan never needs them),
//! so both serve the same rows.
//!
//! The comparison is end to end and symmetric. Two databases hold the
//! same data; each of `APPENDS` single-row fact appends lands on both.
//! The incremental side is charged for its append (the O(|delta|)
//! storage path: row store, columnar mirror, indexes, and distinct
//! counts all extended in place) plus delta propagation through the
//! registered view's retained hash build sides plus the poll that
//! serves the maintained rows. The baseline side is charged for the
//! identical append on its own database plus re-executing the same
//! physical plan from scratch plus canonicalizing the result — exactly
//! what a refresh-on-poll view would pay to serve the same snapshot.
//! One warm-up append (untimed, applied to both sides) pays the
//! one-time build of each table's append-acceleration state so the
//! loop measures steady-state maintenance.
//!
//! Asserted, not just reported: every maintained poll is bit-identical
//! to the cold re-execution; the whole append loop never forces a
//! refresh (`views_refreshed` stays at the registration's 1); the
//! rows ingested by the delta pipeline are O(appends), nowhere near
//! O(base); and the summed incremental wall clock beats the summed
//! baseline wall clock by ≥ 10×.

use fro::prelude::*;
use fro_algebra::{Tuple, Value};
use fro_exec::execute_with;
use fro_testkit::workloads::{star, StarParams};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

const APPENDS: usize = 32;

fn bench_params() -> StarParams {
    StarParams {
        dims: 3,
        match_keys: 200,
        good_rows: 2_000,
        hot_keys: 50,
        hot_dup: 20,
        junk_rows: 7_000,
        wide_keys: 0,
        snowflake: true,
    }
}

/// Sort a result into the canonical order standing views serve.
fn canonical(rel: &fro_algebra::Relation) -> fro_algebra::Relation {
    let rows: BTreeSet<Tuple> = rel.rows().iter().cloned().collect();
    fro_algebra::Relation::from_distinct_rows(rel.schema().clone(), rows.into_iter().collect())
}

/// A fresh fact row keyed off `i`, never colliding with generated data.
fn fact_row(i: usize, match_keys: usize) -> Tuple {
    let key = (i % match_keys) as i64;
    let mk = match_keys as i64;
    Tuple::new(vec![
        Value::Int(key),
        Value::Int((key + 1) % mk),
        Value::Int((key + 2) % mk),
        Value::Int(1_000_000 + i as i64),
    ])
}

fn main() {
    let params = bench_params();
    let (storage, _catalog, query) = star(&params);

    // Two identical databases: the incremental side maintains a
    // registered view, the baseline side re-executes per append. No
    // indexes, so the optimizer picks hash joins and the view keeps
    // their build sides alive between deltas.
    let view_db = SharedDb::new();
    let plain_db = SharedDb::new();
    let view_sess = view_db.session();
    let plain_sess = plain_db.session();
    let mut fact_rows = 0usize;
    for (name, table) in storage.iter() {
        if name == "F" {
            fact_rows = table.len();
        }
        view_sess.insert_table(name, table.relation().clone());
        plain_sess.insert_table(name, table.relation().clone());
    }

    // Untimed warm-up append on both sides: pays the one-time O(base)
    // build of the fact table's append-acceleration state, so the loop
    // below measures steady-state O(delta) maintenance.
    let warmup = fact_row(APPENDS, params.match_keys);
    assert!(view_sess.append_rows("F", vec![warmup.clone()]));
    assert!(plain_sess.append_rows("F", vec![warmup]));
    fact_rows += 1;

    let reg = view_sess.register_standing(&query).unwrap();
    assert!(!reg.shared, "fresh database, fresh view");
    let (initial, _) = view_sess.poll_standing(reg.id).unwrap();
    println!(
        "registered star view over {} fact rows ({} view rows)",
        fact_rows,
        initial.len()
    );

    // The baseline re-runs this exact physical plan — optimization is
    // deliberately excluded from both sides of the comparison.
    let plan = plain_sess.prepare(&query).unwrap().optimized().plan.clone();
    let cfg = ExecConfig::default();

    let before = view_sess.maintenance_stats();
    let mut secs_incremental = 0.0f64;
    let mut secs_reexec = 0.0f64;
    for i in 0..APPENDS {
        let row = fact_row(i, params.match_keys);

        // Incremental: append + delta propagation + serve the view.
        let t = Instant::now();
        assert!(view_sess.append_rows("F", vec![row.clone()]));
        let (view, _) = view_sess.poll_standing(reg.id).unwrap();
        secs_incremental += t.elapsed().as_secs_f64();

        // Baseline: the same append on its own database, then a cold
        // re-execution canonicalized into the same served snapshot.
        let t = Instant::now();
        assert!(plain_sess.append_rows("F", vec![row]));
        let state = plain_db.snapshot();
        let mut st = ExecStats::new();
        let cold = execute_with(&plan, state.storage(), &mut st, &cfg).expect("plan runs");
        let cold = canonical(&cold);
        secs_reexec += t.elapsed().as_secs_f64();

        assert_eq!(view, cold, "maintained view diverged at append {i}");
    }
    let after = view_sess.maintenance_stats();

    let refreshes = after.views_refreshed - before.views_refreshed;
    assert_eq!(refreshes, 0, "an append forced a full refresh");
    let ingested = after.delta_rows_in - before.delta_rows_in;
    assert!(
        ingested < (fact_rows as u64) / 10,
        "delta pipeline ingested {ingested} rows over {APPENDS} appends — \
         that is O(base), not O(delta)"
    );

    let speedup = secs_reexec / secs_incremental;
    println!(
        "{APPENDS} appends: incremental={secs_incremental:.4}s \
         reexec={secs_reexec:.4}s speedup={speedup:.1}x \
         (delta_rows_in={ingested}, refreshes={refreshes})"
    );
    assert!(
        speedup >= 10.0,
        "maintenance speedup {speedup:.1}x below the 10x bar"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"standing_maintenance\",");
    let _ = writeln!(json, "  \"fact_rows\": {fact_rows},");
    let _ = writeln!(json, "  \"dims\": {},", params.dims);
    let _ = writeln!(json, "  \"appends\": {APPENDS},");
    let _ = writeln!(json, "  \"view_rows\": {},", initial.len());
    let _ = writeln!(json, "  \"secs_incremental\": {secs_incremental:.6},");
    let _ = writeln!(json, "  \"secs_reexec\": {secs_reexec:.6},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"delta_rows_in\": {ingested},");
    let _ = writeln!(json, "  \"views_refreshed\": {refreshes}");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_standing.json");
    std::fs::write(path, &json).expect("write BENCH_standing.json");
    println!("wrote {path}");
}
