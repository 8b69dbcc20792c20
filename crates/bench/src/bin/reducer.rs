//! Semijoin-reducer benchmark: plain vs reduced plans on skewed star
//! and snowflake workloads, writing `BENCH_reducer.json` at the
//! repository root.
//!
//! The workloads come from `fro_testkit::workloads::star` at bench
//! scale: a fact table whose per-dimension junk blocks each land on a
//! duplicated *hot* dimension key and die at every other dimension, so
//! a plain plan drags `junk_rows × hot_dup` doomed tuples through the
//! join pipeline per dimension while the reduced plan deletes the junk
//! from the fact table before the first join. Both plans come out of
//! the same optimizer entry point — `ReducePolicy::Never` for the
//! plain baseline, `ReducePolicy::Auto` for the reduced plan, which
//! must actually choose a reduction schedule on these statistics (the
//! bench asserts it, and asserts the uniform control declines).
//!
//! Reported per workload, at one worker thread: wall clock (best of
//! `REPS`), intermediate rows
//! (`rows_materialized + rows_pipelined` — every tuple an operator
//! emitted or flowed), rows removed by the reducer, and the
//! optimizer's own cost estimates for both plans. Output rows are
//! asserted bit-identical between plain and reduced — row for row, in
//! order — before anything is timed; the intermediate-row cut is
//! asserted ≥ 10× on the skewed workloads.

use fro_core::{optimize_with_reduce, Optimized, Policy, ReducePolicy};
use fro_exec::{execute_with, ExecConfig, ExecStats, PhysPlan, Storage};
use fro_testkit::workloads::{star, StarParams};
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 3;

fn bench_star() -> StarParams {
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

fn bench_snowflake() -> StarParams {
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

struct ModeRun {
    secs: f64,
    intermediate_rows: u64,
    rows_reduced: u64,
}

/// Best-of-`REPS` wall clock plus one run's stats under `cfg`.
fn run_plan(
    plan: &PhysPlan,
    storage: &Storage,
    cfg: &ExecConfig,
) -> (Vec<fro_algebra::Tuple>, ModeRun) {
    let mut st = ExecStats::new();
    let out = execute_with(plan, storage, &mut st, cfg).expect("plan runs");
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut scratch = ExecStats::new();
        let t = Instant::now();
        let rel = execute_with(plan, storage, &mut scratch, cfg).expect("plan runs");
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(rel.len());
        best = best.min(secs);
    }
    (
        out.rows().to_vec(),
        ModeRun {
            secs: best,
            intermediate_rows: st.rows_materialized + st.rows_pipelined,
            rows_reduced: st.rows_reduced,
        },
    )
}

struct WorkloadResult {
    name: &'static str,
    fact_rows: usize,
    output_rows: usize,
    wraps: usize,
    plain_cost: f64,
    reduced_cost: f64,
    plain: ModeRun,
    reduced: ModeRun,
}

fn bench_workload(name: &'static str, params: &StarParams) -> WorkloadResult {
    let (storage, catalog, query) = star(params);
    let fact_rows = storage
        .rel_id("F")
        .and_then(|id| storage.get_by_id(id))
        .expect("fact table")
        .len();

    let plain: Optimized =
        optimize_with_reduce(&query, &catalog, Policy::Paper, ReducePolicy::Never)
            .expect("plain optimize");
    let reduced: Optimized =
        optimize_with_reduce(&query, &catalog, Policy::Paper, ReducePolicy::Auto)
            .expect("reduced optimize");
    assert!(
        !reduced.reduction.applied.is_empty(),
        "{name}: Auto must choose a reduction schedule on skewed statistics\n{}",
        reduced.reduction
    );
    println!("{name}: {}", reduced.reduction);

    let cfg = ExecConfig::with_threads(1);
    let (rows_p, plain_run) = run_plan(&plain.plan, &storage, &cfg);
    let (rows_r, reduced_run) = run_plan(&reduced.plan, &storage, &cfg);
    assert_eq!(
        rows_r, rows_p,
        "{name}: reduced output is not bit-identical to plain"
    );
    let cut = plain_run.intermediate_rows as f64 / reduced_run.intermediate_rows.max(1) as f64;
    println!(
        "{name} (threads=1): plain={:.4}s reduced={:.4}s speedup={:.2}x  \
         intermediates {} -> {} (cut {:.1}x, {} rows reduced)",
        plain_run.secs,
        reduced_run.secs,
        plain_run.secs / reduced_run.secs,
        plain_run.intermediate_rows,
        reduced_run.intermediate_rows,
        cut,
        reduced_run.rows_reduced,
    );
    assert!(
        cut >= 10.0,
        "{name}: intermediate-row cut {cut:.1}x below the 10x bar"
    );
    assert!(
        plain_run.secs >= 2.0 * reduced_run.secs,
        "{name}: wall-clock speedup {:.2}x below the 2x bar",
        plain_run.secs / reduced_run.secs
    );

    WorkloadResult {
        name,
        fact_rows,
        output_rows: rows_p.len(),
        wraps: reduced.reduction.applied.len(),
        plain_cost: plain.est_cost,
        reduced_cost: reduced.est_cost,
        plain: plain_run,
        reduced: reduced_run,
    }
}

fn main() {
    // The uniform control: same schema, no junk — Auto must decline.
    let uniform = StarParams {
        hot_keys: 0,
        hot_dup: 0,
        junk_rows: 0,
        wide_keys: 0,
        ..bench_star()
    };
    let (_, catalog, query) = star(&uniform);
    let control = optimize_with_reduce(&query, &catalog, Policy::Paper, ReducePolicy::Auto)
        .expect("control optimize");
    assert!(
        control.reduction.applied.is_empty(),
        "uniform control must decline reduction: {}",
        control.reduction
    );
    println!("uniform control: {}", control.reduction);

    let results = [
        bench_workload("star_skew", &bench_star()),
        bench_workload("snowflake_skew", &bench_snowflake()),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"semijoin_reducer\",");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let mode = |m: &ModeRun| {
            format!(
                "{{\"secs\": {:.6}, \"intermediate_rows\": {}, \"rows_reduced\": {}}}",
                m.secs, m.intermediate_rows, m.rows_reduced
            )
        };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workload\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"fact_rows\": {},", r.fact_rows);
        let _ = writeln!(json, "      \"output_rows\": {},", r.output_rows);
        let _ = writeln!(json, "      \"wraps\": {},", r.wraps);
        let _ = writeln!(json, "      \"est_cost_plain\": {:.1},", r.plain_cost);
        let _ = writeln!(json, "      \"est_cost_reduced\": {:.1},", r.reduced_cost);
        let _ = writeln!(json, "      \"plain_pipelined\": {},", mode(&r.plain));
        let _ = writeln!(json, "      \"reduced_pipelined\": {},", mode(&r.reduced));
        let _ = writeln!(
            json,
            "      \"speedup_pipelined\": {:.3},",
            r.plain.secs / r.reduced.secs
        );
        let _ = writeln!(
            json,
            "      \"intermediate_cut_pipelined\": {:.3}",
            r.plain.intermediate_rows as f64 / r.reduced.intermediate_rows.max(1) as f64
        );
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reducer.json");
    std::fs::write(path, &json).expect("write BENCH_reducer.json");
    println!("wrote {path}");
}
