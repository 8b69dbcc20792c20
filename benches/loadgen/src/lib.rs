//! `loadgen`: the repository's one benchmark — a single-process,
//! seed-driven, closed-loop load generator (one caller) that drives
//! `fro` only through its public front doors. See `README.md` for the
//! workloads, the metrics, the estimators and the frozen surface.
//!
//! Two binaries share this library: `loadgen` (system allocator, no
//! spans) measures the end-to-end metrics; `loadgen-trace` (counting
//! allocator, spans, fixed cycle count) measures the per-layer ones.

pub mod alloc;
mod digest;
mod harness;
mod metrics;
mod workloads;

use digest::{golden_line, Golden};
use harness::{cpu_ns, pin_to_one_cpu, proc_status_mib, quantile, quartile_spread, us, Harness};
use metrics::{Extras, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Spec, Workload, SPECS, VARIANTS};

/// Complete set-ups per end-to-end run: this many before the measured
/// phase and one after it. The host's speed moves in phases of several
/// seconds; set-ups run back to back would all sample the same phase.
const SETUPS_BEFORE: usize = 2;
/// `--seconds` when not given, and `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
/// A measured phase runs whole cycles until `--seconds` have elapsed
/// and at least this many cycles are done.
const MIN_CYCLES: usize = 40;
/// Where the timing metrics read the cycles of a run: the 5th
/// percentile, which lies among the cycles the host left alone as long
/// as it left one in twenty alone, and has five cycles below it from a
/// hundred cycles up (the slowest workload does 100-190 per run).
const QUIET: f64 = 0.05;
/// Cycles of a traced run (and of the untraced run it is compared to).
const TRACE_CYCLES: usize = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    cycles: Option<usize>,
    runs: u64,
    out: PathBuf,
    mode: Mode,
}

enum Mode {
    Run,
    SelfCheck,
    RegenGolden,
    BenchmarkJson,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        cycles: None,
        runs: 1,
        out: PathBuf::from("benches/loadgen/out"),
        mode: Mode::Run,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--cycles" => {
                args.cycles = Some(value()?.parse().map_err(|e| format!("--cycles: {e}"))?)
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--selfcheck" => args.mode = Mode::SelfCheck,
            "--regen-golden" => args.mode = Mode::RegenGolden,
            "--benchmark-json" => args.mode = Mode::BenchmarkJson,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Entry point of both binaries; `traced` says which one this is.
pub fn main_with(traced: bool) -> ExitCode {
    // Children (the other binary, per-workload runs) inherit the mask.
    let outcome = pin_to_one_cpu().and_then(|()| parse_args());
    let outcome = outcome.and_then(|args| match (&args.mode, &args.workload) {
        (Mode::RegenGolden, _) => regen_golden(),
        (Mode::BenchmarkJson, _) => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        (Mode::SelfCheck, _) => selfcheck(&args),
        (Mode::Run, None) => run_all(&args),
        (Mode::Run, Some(name)) => {
            let spec = workloads::spec(name).ok_or(format!("unknown workload {name}"))?;
            if args.trace != traced {
                return Err(format!(
                    "--trace {} is the other binary's job (run.sh picks it)",
                    u8::from(args.trace)
                ));
            }
            if traced {
                run_traced(spec, &args)
            } else {
                run_end_to_end(spec, &args)
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(2)
        }
    }
}

/// Set up from scratch and run the fixed warm-up, so lazy state built
/// on first use is paid — and counted — here. Returns the seconds the
/// whole set-up took.
fn set_up(
    spec: &Spec,
    seed: u64,
    golden: &Golden,
    h: &mut Harness,
) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let mut w = (spec.setup)(seed, golden, h)?;
    let mut warm = Harness::new(false);
    for _ in 0..spec.warmup_cycles {
        w.cycle(&mut warm, false);
    }
    h.attempted += warm.attempted;
    h.failed += warm.failed;
    Ok((w, start.elapsed().as_secs_f64()))
}

/// The last line of a single-workload run: the driver's JSON object.
fn result_json(h: &Harness, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        h.failed == 0,
        h.attempted,
        h.failed
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    out.push_str(&metrics.join(", "));
    out.push_str("}}");
    out
}

fn print_metrics(workload: &str, metrics: &[(&str, f64, &str)]) {
    for (name, value, unit) in metrics {
        println!("{workload}/{name} {value} {unit}");
    }
}

/// The untraced run: the end-to-end metrics. With `--cycles` it is the
/// traced run's baseline instead: one set-up, that many cycles.
fn run_end_to_end(spec: &Spec, args: &Args) -> Result<bool, String> {
    let golden = Golden::embedded()?;
    let mut h = Harness::new(false);
    let mut setups = Vec::new();
    let mut workload = None;
    let before = if args.cycles.is_some() {
        1
    } else {
        SETUPS_BEFORE
    };
    for _ in 0..before {
        // Tear the previous set-up down before the next one starts.
        drop(workload.take());
        let (w, seconds) = set_up(spec, args.seed, &golden, &mut h)?;
        setups.push(seconds);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let rss_setup = proc_status_mib("VmRSS");

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    for cycle in 1.. {
        let last = match args.cycles {
            Some(n) => cycle >= n,
            None => start.elapsed() >= budget && cycle >= MIN_CYCLES,
        };
        w.cycle(&mut h, cycle == 1 || last);
        if last {
            break;
        }
    }
    let rss_peak = proc_status_mib("VmHWM");
    drop(w);
    if args.cycles.is_none() {
        let (w, seconds) = set_up(spec, args.seed, &golden, &mut h)?;
        setups.push(seconds);
        drop(w);
    }

    // Whole-cycle statistics, so work that lands in only some of a
    // cycle's ops still counts. This host's memory latency rises by half
    // for seconds to minutes at a time and noise only ever adds time, so
    // a run is read on its fast side: the 5th percentile of the cycles
    // (of their times, and of their median op latencies) and the fastest
    // of the set-ups. README, "Why these estimators".
    let cycles = h.cycles_us(spec.ops_per_cycle);
    let op_us: Vec<f64> = h.ops.iter().map(|&(_, ns)| us(ns)).collect();
    let cycle_p5_us = quantile(&cycles, QUIET);
    let metrics = [
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        (
            "ops_per_s",
            spec.ops_per_cycle as f64 * 1e6 / cycle_p5_us,
            "1/s",
        ),
        (
            "op_p50_us",
            quantile(&h.cycle_medians_us(spec.ops_per_cycle), QUIET),
            "us",
        ),
        ("rss_setup_mb", rss_setup, "MiB"),
        ("rss_peak_mb", rss_peak, "MiB"),
    ];
    print_metrics(spec.name, &metrics);

    // Diagnostics: on this host they do not repeat within a quarter, or
    // (the floor) cannot see work that skips most cycles.
    let name = spec.name;
    for (i, seconds) in setups.iter().enumerate() {
        println!("{name}/run.setup{}_s {seconds} s", i + 1);
    }
    println!("{name}/run.cycles {} count", cycles.len());
    println!("{name}/run.timed_ops {} count", op_us.len());
    println!("{name}/run.cycle_p5_us {cycle_p5_us} us");
    println!("{name}/run.cycle_lq_us {} us", quantile(&cycles, 0.25));
    println!("{name}/run.cycle_p50_us {} us", quantile(&cycles, 0.5));
    println!(
        "{name}/run.cycle_floor_us {} us",
        h.slot_floor_us(spec.ops_per_cycle).iter().sum::<f64>()
    );
    println!("{name}/run.op_p50_all_us {} us", quantile(&op_us, 0.5));
    println!("{name}/run.op_p99_us {} us", quantile(&op_us, 0.99));
    println!(
        "{name}/run.ops_per_s_total {} 1/s",
        op_us.len() as f64 * 1e6 / cycles.iter().sum::<f64>()
    );
    let mut kinds: Vec<&str> = h.ops.iter().map(|&(k, _)| k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let of_kind: Vec<f64> = h
            .ops
            .iter()
            .filter(|o| o.0 == kind)
            .map(|o| us(o.1))
            .collect();
        println!("{name}/run.op.{kind}.p50_us {} us", quantile(&of_kind, 0.5));
    }
    println!("{}", result_json(&h, &metrics));
    Ok(true)
}

/// The traced run: one set-up, [`TRACE_CYCLES`] cycles, each followed
/// by the workload's shadow pass; spans go to the trace file, the
/// per-layer metrics to stdout.
fn run_traced(spec: &Spec, args: &Args) -> Result<bool, String> {
    let golden = Golden::embedded()?;
    let mut h = Harness::new(true);
    let before = alloc::snapshot();
    let (mut w, _) = set_up(spec, args.seed, &golden, &mut h)?;
    let setup_live_bytes = alloc::snapshot().live().saturating_sub(before.live());

    // `Storage::insert` on a private copy: what loading costs per row.
    let state = w.db().snapshot();
    let mut private = fro::exec::Storage::new();
    let mut rows_loaded = 0;
    for (name, table) in state.storage().iter() {
        let rel = table.relation().clone();
        rows_loaded += rel.len() as u64;
        h.add("storage.insert_rows", rel.len() as u64);
        let _ = h.span(None, "storage.insert", || {
            private.insert(name, rel);
        });
    }
    drop((private, state));

    let cycles = args.cycles.unwrap_or(TRACE_CYCLES);
    for c in 0..cycles {
        let cpu = cpu_ns();
        w.cycle(&mut h, c == 0 || c + 1 == cycles);
        h.add("proc.cpu_ns", cpu_ns() - cpu);
        w.shadow(&mut h);
        h.roots.clear();
    }
    drop(w);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, h.spans_json()).map_err(|e| format!("{}: {e}", path.display()))?;

    let baseline = child(
        false,
        spec.name,
        args.seed,
        args,
        &["--cycles", &cycles.to_string()],
    )?;
    let untraced_cycle_us = parse_lines(&baseline)
        .find(|(name, _)| name == &format!("{}/run.cycle_lq_us", spec.name))
        .map(|(_, v)| v)
        .ok_or("the untraced baseline printed no run.cycle_lq_us")?;
    let metrics = metrics::per_layer(
        &h,
        &Extras {
            setup_live_bytes,
            rows_loaded,
            untraced_cycle_us,
            ops_per_cycle: spec.ops_per_cycle,
        },
    );
    print_metrics(spec.name, &metrics);
    for (name, pct) in metrics::shares(&h) {
        println!("{}/share.{name} {pct} %", spec.name);
    }
    println!("{}/trace_file {} -", spec.name, path.display());
    println!("{}", result_json(&h, &metrics));
    Ok(true)
}

/// Run one workload in a child process of the sibling binary — RSS
/// high-water marks and allocator state must not leak between
/// workloads — and return what it printed.
fn child(
    traced: bool,
    workload: &str,
    seed: u64,
    args: &Args,
    extra: &[&str],
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = exe.with_file_name(if traced { "loadgen-trace" } else { "loadgen" });
    let out = Command::new(&exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{} {workload}: {}", exe.display(), out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// The `workload/name value unit` lines of a run's output.
fn parse_lines(text: &str) -> impl Iterator<Item = (String, f64)> + '_ {
    text.lines().filter_map(|l| {
        let mut f = l.split_whitespace();
        let name = f.next()?;
        let value = f.next()?.parse().ok()?;
        name.contains('/').then(|| (name.to_owned(), value))
    })
}

/// No `--workload`: all five, end to end and traced, every metric;
/// `Ok(false)` when an op failed.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for spec in &SPECS {
        for traced in [false, true] {
            let text = child(traced, spec.name, args.seed, args, &[])?;
            let (lines, json) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
            println!("{lines}");
            correct &= json.contains("\"correct\": true");
        }
    }
    Ok(correct)
}

/// A/A: the full end-to-end set twice, the second time in reverse
/// workload order, with `--runs` runs per workload in each set (seeds
/// `--seed`, `--seed` + 1, …, the same in both sets — the driver's
/// procedure at `--runs 10`). Prints, per workload × metric, both sets'
/// medians, their relative difference, each set's quartile spread (from
/// four runs up) and the bound; fails when any difference or spread
/// exceeds the bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
    for reverse in [false, true] {
        let mut order: Vec<&Spec> = SPECS.iter().collect();
        if reverse {
            order.reverse();
        }
        let mut set: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in 0..args.runs {
            for spec in &order {
                let text = child(false, spec.name, args.seed + run, args, &[])?;
                if !text.contains("\"correct\": true") {
                    return Err(format!("{}: ops failed", spec.name));
                }
                eprint!("set {} run {run} {}:", sets.len() + 1, spec.name);
                for (key, value) in parse_lines(&text) {
                    if let Some((_, metric)) = key.split_once('/') {
                        if END_TO_END.iter().any(|m| m.0 == metric) {
                            eprint!(" {value:.6}");
                        }
                    }
                    set.entry(key).or_default().push(value);
                }
                eprintln!();
            }
        }
        sets.push(set);
    }
    let mut within = true;
    println!(
        "{:<32} {:>12} {:>12} {:>7} {:>8} {:>8} {:>6}",
        "workload/metric", "A", "B", "diff", "spread A", "spread B", "bound"
    );
    for spec in &SPECS {
        for (metric, _, _, bound) in END_TO_END {
            let key = format!("{}/{metric}", spec.name);
            let (a, b) = match (sets[0].get(&key), sets[1].get(&key)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{key}: not reported")),
            };
            let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
            let diff = (ma - mb).abs() / ma.min(mb);
            let spreads = [quartile_spread(a), quartile_spread(b)];
            let ok = diff <= bound && spreads.iter().flatten().all(|s| *s <= bound);
            within &= ok;
            let spread =
                |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{key:<32} {ma:>12.3} {mb:>12.3} {:>6.2}% {:>8} {:>8} {:>5.0}%{}",
                diff * 100.0,
                spread(spreads[0]),
                spread(spreads[1]),
                bound * 100.0,
                if ok { "" } else { "  EXCEEDS" }
            );
        }
    }
    Ok(within)
}

/// Recompute every golden digest with the `fro-algebra` reference
/// evaluator (nested-loop: minutes) and rewrite `golden.txt`.
fn regen_golden() -> Result<bool, String> {
    let mut text = String::from(
        "# Golden digests: workload, data variant, shape, rows, order-insensitive hash.\n\
         # Generated by `loadgen --regen-golden` from the fro-algebra reference evaluator.\n",
    );
    for spec in &SPECS {
        for variant in 0..VARIANTS {
            let t = Instant::now();
            for (shape, d) in (spec.reference)(variant) {
                text.push_str(&golden_line(spec.name, variant, &shape, d));
            }
            eprintln!("{} variant {variant}: {:.1?}", spec.name, t.elapsed());
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(true)
}

/// `BENCHMARK.json`, from the same tables the runs report from.
fn benchmark_json() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            let why: Vec<&str> = s.why.split_whitespace().collect();
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                s.name,
                why.join(" ")
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benches/loadgen/run.sh\"],\n  \"paths\": [\"benches/loadgen\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        RUN_SECONDS as u64,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
