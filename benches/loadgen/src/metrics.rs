//! The metric tables (the names later issues refer to) and how the
//! per-layer values are derived from a traced run's spans and counts.

use crate::harness::{quantile, us, Harness, Span};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit, better, bound)`. `bound` is the
/// share of the parent's median by which the metric may get worse; one
/// value serves all five workloads, so the noisiest workload sets it
/// (README, "Observed spread"). RSS keeps the issue's 5 %: its quartile
/// spread over ten seeds stays under 3.4 %. The timings cannot keep the
/// issue's 10 %, and are at the most a bound may be: this host's memory
/// latency rises by half for minutes at a time, a run that lies wholly
/// inside such a spell reads 12-35 % slow whatever statistic is taken of
/// it, and ten runs with two or three of those spread by 5-11 %.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("rss_setup_mb", "MiB", "lower", 0.05),
    ("rss_peak_mb", "MiB", "lower", 0.05),
];

/// Per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("lang.parse_us", "us", "lower"),
    ("lang.translate_us", "us", "lower"),
    ("lang.translate_rows", "count", "lower"),
    ("session.query_us", "us", "lower"),
    ("session.sync_us", "us", "lower"),
    ("session.prepare_warm_us", "us", "lower"),
    ("session.prepare_cold_us", "us", "lower"),
    ("graph.analyze_us", "us", "lower"),
    ("core.plancache.hit_rate", "ratio", "higher"),
    ("core.plancache.stale_per_cycle", "count", "lower"),
    ("core.dp.pairs_per_cold_op", "count", "lower"),
    ("core.reduce_us", "us", "lower"),
    ("exec.run_us", "us", "lower"),
    ("exec.tuples_retrieved_per_op", "count", "lower"),
    ("exec.rows_materialized_per_op", "count", "lower"),
    ("exec.hash_build_rows_per_op", "count", "lower"),
    ("exec.rows_reduced_per_op", "count", "higher"),
    ("exec.rows_output_per_op", "count", "lower"),
    ("storage.bytes_per_row", "B", "lower"),
    ("storage.insert_us_per_krow", "us", "lower"),
    ("storage.append_us", "us", "lower"),
    ("shared.append_pinned_us", "us", "lower"),
    ("shared.append_unpinned_us", "us", "lower"),
    ("shared.delete_us", "us", "lower"),
    ("shared.pinned_alloc_bytes_per_append", "B", "lower"),
    ("standing.register_us", "us", "lower"),
    ("standing.poll_us", "us", "lower"),
    ("standing.delta_rows_in_per_append", "count", "lower"),
    ("standing.views_refreshed", "count", "lower"),
    ("wire.encode_plan_us", "us", "lower"),
    ("wire.decode_plan_us", "us", "lower"),
    ("wire.encode_rows_us_per_krow", "us", "lower"),
    ("wire.decode_rows_us_per_krow", "us", "lower"),
    ("wire.bytes_per_row", "B", "lower"),
    ("wire.frames_per_op", "count", "lower"),
    ("server.ping_us", "us", "lower"),
    ("server.self_us", "us", "lower"),
    ("server.bytes_out_per_op", "B", "lower"),
    ("proc.alloc_bytes_per_op", "B", "lower"),
    ("proc.allocs_per_op", "count", "lower"),
    ("proc.cpu_us_per_op", "us", "lower"),
    ("run.op_p99_us", "us", "lower"),
    ("run.ops_per_s_total", "1/s", "higher"),
    ("run.trace_overhead_pct", "%", "lower"),
];

/// What a traced run measures outside its spans.
pub struct Extras {
    /// Heap bytes live after set-up minus before it.
    pub setup_live_bytes: u64,
    /// Rows stored in the database after set-up.
    pub rows_loaded: u64,
    /// Lower-quartile cycle time (`run.cycle_lq_us`) of the untraced
    /// binary on the same workload, seed and cycle count.
    pub untraced_cycle_us: f64,
    pub ops_per_cycle: usize,
}

/// Time a span spent outside its direct children. Shadow children are
/// replays, so they can outlast their parent: clamp at zero.
fn self_ns(spans: &[Span], child_ns: &[u64], id: usize) -> u64 {
    spans[id].ns().saturating_sub(child_ns[id])
}

fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut sums = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            sums[p as usize] += s.ns();
        }
    }
    sums
}

/// Every per-layer metric of one traced run, in [`PER_LAYER`] order. A
/// layer the workload never enters reports 0.
pub fn per_layer(h: &Harness, x: &Extras) -> Vec<(&'static str, f64, &'static str)> {
    let durations = |name: &str, keep: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        h.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(|s| us(s.ns()))
            .collect()
    };
    let med = |name: &str| quantile(&durations(name, &|_| true), 0.5);
    let sum_us = |name: &str| durations(name, &|_| true).iter().sum::<f64>();
    let count = |name: &str| h.counts.get(name).copied().unwrap_or_default();
    let avg = |name: &str| {
        let c = count(name);
        if c.n == 0 {
            0.0
        } else {
            c.sum as f64 / c.n as f64
        }
    };
    let total = |name: &str| count(name).sum as f64;
    let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let kids = child_ns(&h.spans);
    let med_self = |name: &str| {
        let selves: Vec<f64> = (0..h.spans.len())
            .filter(|&i| h.spans[i].name == name)
            .map(|i| us(self_ns(&h.spans, &kids, i)))
            .collect();
        quantile(&selves, 0.5)
    };
    let ops = h.ops.len() as f64;
    let cycles = h.cycles_us(x.ops_per_cycle);
    let op_us: Vec<f64> = h.ops.iter().map(|&(_, ns)| us(ns)).collect();
    let cycle_us = quantile(&cycles, 0.25);

    let value = |name: &str| -> f64 {
        match name {
            "lang.parse_us" => med("lang.parse"),
            "lang.translate_us" => med("lang.translate"),
            "lang.translate_rows" => avg("lang.translate_rows"),
            "session.query_us" => med("session.query"),
            "session.sync_us" => med_self("session.query"),
            "session.prepare_warm_us" => {
                quantile(&durations("session.prepare", &|s| s.op != "cold"), 0.5)
            }
            "session.prepare_cold_us" => {
                quantile(&durations("session.prepare", &|s| s.op == "cold"), 0.5)
            }
            "graph.analyze_us" => med("graph.analyze"),
            "core.plancache.hit_rate" => per(
                total("core.plancache.hits"),
                total("core.plancache.hits") + total("core.plancache.misses"),
            ),
            "core.plancache.stale_per_cycle" => {
                per(total("core.plancache.stale"), cycles.len() as f64)
            }
            "core.dp.pairs_per_cold_op" => avg("core.dp.pairs"),
            "core.reduce_us" => med("core.reduce"),
            "exec.run_us" => med("exec.run"),
            "exec.tuples_retrieved_per_op" => avg("exec.tuples_retrieved"),
            "exec.rows_materialized_per_op" => avg("exec.rows_materialized"),
            "exec.hash_build_rows_per_op" => avg("exec.hash_build_rows"),
            "exec.rows_reduced_per_op" => avg("exec.rows_reduced"),
            "exec.rows_output_per_op" => avg("exec.rows_output"),
            "storage.bytes_per_row" => per(x.setup_live_bytes as f64, x.rows_loaded as f64),
            "storage.insert_us_per_krow" => {
                per(sum_us("storage.insert") * 1e3, total("storage.insert_rows"))
            }
            "storage.append_us" => med("storage.append"),
            "shared.append_pinned_us" => med("shared.append_pinned"),
            "shared.append_unpinned_us" => med("shared.append_unpinned"),
            "shared.delete_us" => med("shared.delete"),
            "shared.pinned_alloc_bytes_per_append" => avg("shared.pinned_alloc_bytes"),
            "standing.register_us" => med("standing.register"),
            "standing.poll_us" => med("standing.poll"),
            "standing.delta_rows_in_per_append" => avg("standing.delta_rows_in"),
            "standing.views_refreshed" => total("standing.views_refreshed"),
            "wire.encode_plan_us" => med("wire.encode_plan"),
            "wire.decode_plan_us" => med("wire.decode_plan"),
            "wire.encode_rows_us_per_krow" => {
                per(sum_us("wire.encode_rows") * 1e3, total("wire.rows"))
            }
            "wire.decode_rows_us_per_krow" => {
                per(sum_us("wire.decode_rows") * 1e3, total("wire.rows"))
            }
            "wire.bytes_per_row" => per(total("server.bytes_out"), total("wire.rows")),
            "wire.frames_per_op" => avg("wire.frames"),
            "server.ping_us" => med("server.ping"),
            "server.self_us" => med_self("server.roundtrip"),
            "server.bytes_out_per_op" => avg("server.bytes_out"),
            "proc.alloc_bytes_per_op" => avg("proc.alloc_bytes"),
            "proc.allocs_per_op" => avg("proc.allocs"),
            "proc.cpu_us_per_op" => per(total("proc.cpu_ns") / 1e3, ops),
            "run.op_p99_us" => quantile(&op_us, 0.99),
            "run.ops_per_s_total" => per(ops * 1e6, cycles.iter().sum()),
            "run.trace_overhead_pct" => per(
                (cycle_us - x.untraced_cycle_us) * 100.0,
                x.untraced_cycle_us,
            ),
            other => unreachable!("no rule for per-layer metric {other}"),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect()
}

/// Share of the traced op time each span name accounts for, by self
/// time — what "which layers do the work" is read from.
pub fn shares(h: &Harness) -> Vec<(&'static str, f64)> {
    let kids = child_ns(&h.spans);
    // Spans with no root above them (set-up, pings) are not op time.
    let under_op = |mut i: usize| {
        while let Some(p) = h.spans[i].parent {
            i = p as usize;
        }
        h.spans[i].op != "-"
    };
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    for (i, s) in h.spans.iter().enumerate() {
        if !under_op(i) {
            continue;
        }
        if s.parent.is_none() {
            root_ns += s.ns();
        }
        *by_name.entry(s.name).or_default() += self_ns(&h.spans, &kids, i);
    }
    by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 * 100.0 / root_ns.max(1) as f64))
        .collect()
}
