//! Thread- and partition-scaling benchmark for the executor's
//! radix-partitioned, morsel-driven hash join, plus a deep
//! left-outerjoin chain.
//!
//! Runs a left-outer hash join of a 200k-row probe table against a
//! 20k-row build table through `execute_with` — the fused pipeline
//! every product plan runs: the build hashes the key column straight
//! off the columnar mirror, the probe streams the scan — and sweeps
//! worker threads (1/2/4/8) × radix partitions (1/4/16/64), writing
//! `BENCH_engine.json` at the repository root with the best wall-clock
//! of every cell. Output rows and counters are asserted bit-identical
//! across the whole sweep — the partitioned engine's core contract. The machine's
//! `available_parallelism` is recorded alongside: on a single-core
//! container the wall-clock curve is flat by construction, and the
//! field lets a reader tell that apart from an engine that fails to
//! scale.
//!
//! The deep-chain section joins eight 20k-row relations
//! `C0 ⟕ C1 ⟕ … ⟕ C7` at one thread. The executor fuses the whole
//! chain (all build sides are base tables) into a single pass with
//! `rows_materialized = 0`, which is asserted.
//!
//! A third section microbenchmarks the columnar kernels at one thread:
//! `ColumnSet::eval_pred` vs a per-tuple `BoundPred::eval` loop, and
//! `ColumnSet::hash_key_at` vs the row-at-a-time key hash the executor
//! uses for intermediates, both over the 200k-row probe relation,
//! plus the zone-skip count for an out-of-domain equality literal.
//! Kernel outputs are asserted identical to the row path before
//! timing.

use fro_algebra::ops::BoundPred;
use fro_algebra::{Attr, CmpOp, ColumnSet, Pred, Relation, Tuple, Value};
use fro_exec::{execute_with, ExecConfig, ExecStats, JoinKind, PhysPlan, Storage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Instant;

const PROBE_ROWS: usize = 200_000;
const BUILD_ROWS: usize = 20_000;
const KEY_DOMAIN: i64 = 50_000;
const REPS: usize = 3;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const PARTITION_COUNTS: [usize; 4] = [1, 4, 16, 64];

const CHAIN_RELS: usize = 8;
const CHAIN_ROWS: usize = 20_000;
const CHAIN_PAYLOAD_COLS: usize = 15;

/// `P.id < FILTER_ID_LIT` — 1% selectivity on the clustered id column,
/// where the zone metadata refutes all but the first two 1024-row
/// zones and the columnar kernel answers mostly from min/max. This is
/// the headline filter metric: scan-dominated, zone-prunable, the
/// regime the columnar layout is built for.
const FILTER_ID_LIT: i64 = 2_000;
/// `P.k < FILTER_LIT` — ~1% selectivity on the *uniformly random* key
/// column, where every zone straddles the literal and nothing prunes.
/// Reported separately as the `_mixed` metrics: it isolates the raw
/// vectorized-loop advantage with zone skipping contributing nothing.
const FILTER_LIT: i64 = 500;
const KERNEL_REPS: usize = 5;

/// Deep left-outerjoin chain: eight relations of `CHAIN_ROWS` rows,
/// each with *distinct* keys drawn from a domain 1.5× the row count —
/// so every link matches at most once (no fanout; the output stays at
/// `CHAIN_ROWS` rows while the tuples widen), and roughly a third of
/// each probe side null-pads. Tuples carry `CHAIN_PAYLOAD_COLS`
/// payload columns beside the key, so an executor that materialized a
/// widening intermediate per join edge would pay for it here.
fn chain_storage(seed: u64) -> Storage {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain: Vec<i64> = (0..(CHAIN_ROWS as i64) * 3 / 2).collect();
    let mut schema: Vec<String> = vec!["k".into()];
    schema.extend((0..CHAIN_PAYLOAD_COLS).map(|c| format!("v{c}")));
    let schema_refs: Vec<&str> = schema.iter().map(String::as_str).collect();
    let mut storage = Storage::new();
    for i in 0..CHAIN_RELS {
        let name = format!("C{i}");
        let mut keys = domain.clone();
        // Fisher–Yates (the vendored rand has no `seq` module).
        for j in (1..keys.len()).rev() {
            keys.swap(j, rng.gen_range(0..=j));
        }
        let data: Vec<Vec<Value>> = keys[..CHAIN_ROWS]
            .iter()
            .map(|&k| {
                let mut row = Vec::with_capacity(1 + CHAIN_PAYLOAD_COLS);
                row.push(Value::Int(k));
                row.extend((0..CHAIN_PAYLOAD_COLS).map(|_| Value::Int(rng.gen_range(0..1000))));
                row
            })
            .collect();
        storage.insert(&name, Relation::from_values(&name, &schema_refs, data));
    }
    storage
}

/// Left-deep hash-join plan over the chain with a narrow root
/// projection: the probe spine descends through every join to
/// `Scan C0`, every build side is a bare scan, and the projection
/// fuses as the pipeline sink — the shape the pipeline compiler fuses
/// completely, never allocating a wide tuple at all.
fn chain_plan() -> PhysPlan {
    let mut plan = PhysPlan::scan("C0");
    for i in 1..CHAIN_RELS {
        plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(plan),
            build: Box::new(PhysPlan::scan(format!("C{i}"))),
            probe_keys: vec![Attr::new(format!("C{}", i - 1), "k")],
            build_keys: vec![Attr::new(format!("C{i}"), "k")],
            residual: Pred::always(),
        };
    }
    PhysPlan::Project {
        input: Box::new(plan),
        attrs: vec![
            Attr::new("C0", "k"),
            Attr::new("C3", "v0"),
            Attr::new(format!("C{}", CHAIN_RELS - 1), "v0"),
        ],
    }
}

/// Best-of-`REPS` wall-clock for the chain plan under `cfg`, plus the
/// rows and stats of one run.
fn run_chain(storage: &Storage, plan: &PhysPlan, cfg: &ExecConfig) -> (Relation, ExecStats, f64) {
    let mut st = ExecStats::new();
    let out = execute_with(plan, storage, &mut st, cfg).expect("chain runs");
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut scratch = ExecStats::new();
        let t = Instant::now();
        let rel = execute_with(plan, storage, &mut scratch, cfg).expect("chain runs");
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(rel.len());
        best = best.min(secs);
    }
    (out, st, best)
}

fn table(name: &str, rows: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..KEY_DOMAIN)),
            ]
        })
        .collect();
    Relation::from_values(name, &["id", "k"], rows)
}

struct Cell {
    threads: usize,
    partitions: usize,
    best_secs: f64,
    rows_per_sec: f64,
}

fn main() {
    let probe = table("P", PROBE_ROWS, 42);
    let build = table("B", BUILD_ROWS, 43);
    let mut join_store = Storage::new();
    join_store.insert("P", probe.clone());
    join_store.insert("B", build.clone());
    let join = PhysPlan::HashJoin {
        kind: JoinKind::LeftOuter,
        probe: Box::new(PhysPlan::scan("P")),
        build: Box::new(PhysPlan::scan("B")),
        probe_keys: vec![Attr::parse("P.k")],
        build_keys: vec![Attr::parse("B.k")],
        residual: Pred::always(),
    };
    let run = |cfg: &ExecConfig| -> (Relation, ExecStats) {
        let mut st = ExecStats::new();
        let out = execute_with(&join, &join_store, &mut st, cfg).expect("join runs");
        (out, st)
    };

    let mut baseline_rows: Option<Vec<Tuple>> = None;
    let mut baseline_stats: Option<ExecStats> = None;
    let mut cells: Vec<Cell> = Vec::new();
    for partitions in PARTITION_COUNTS {
        for threads in THREAD_COUNTS {
            let cfg = ExecConfig::with_threads(threads).partitions(partitions);
            // Warm-up run doubles as the bit-identity check against the
            // sequential unpartitioned baseline: same rows, same order,
            // same scalar counters at every (threads, partitions).
            let (out, st) = run(&cfg);
            assert_eq!(
                st.rows_materialized, 0,
                "the join must fuse into one pipeline"
            );
            match &baseline_rows {
                None => {
                    baseline_rows = Some(out.rows().to_vec());
                    baseline_stats = Some(st);
                }
                Some(rows) => {
                    assert_eq!(
                        out.rows(),
                        &rows[..],
                        "output diverged at {threads} threads, {partitions} partitions"
                    );
                    assert_eq!(
                        Some(st),
                        baseline_stats,
                        "counters diverged at {threads} threads, {partitions} partitions"
                    );
                }
            }
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let t = Instant::now();
                let (out, _) = run(&cfg);
                let secs = t.elapsed().as_secs_f64();
                std::hint::black_box(out.len());
                best = best.min(secs);
            }
            let rows_per_sec = PROBE_ROWS as f64 / best;
            println!(
                "threads={threads:>2} partitions={partitions:>2}  best={best:.4}s  \
                 probe rows/sec={rows_per_sec:.0}"
            );
            cells.push(Cell {
                threads,
                partitions,
                best_secs: best,
                rows_per_sec,
            });
        }
    }

    // --- Deep left-outerjoin chain at one thread: one fused pass.
    let chain_store = chain_storage(97);
    let plan = chain_plan();
    let (pipe_rows, pipe_stats, pipe_secs) = run_chain(&chain_store, &plan, &ExecConfig::new());
    assert_eq!(
        pipe_stats.rows_materialized, 0,
        "fully-fused chain must materialize nothing"
    );
    println!(
        "chain ({CHAIN_RELS} rels x {CHAIN_ROWS} rows, threads=1): {pipe_secs:.4}s \
         ({} rows pipelined across {} pipelines)",
        pipe_stats.rows_pipelined, pipe_stats.pipelines
    );

    // --- Vectorized-kernel microbench at one thread: the columnar
    // predicate and join-key-hash kernels against their row-at-a-time
    // equivalents over the same 200k-row relation. The row-major
    // baselines replicate what the executor does on intermediates,
    // which have no `ColumnSet` —
    // `BoundPred::eval` per tuple for the filter, a `DefaultHasher`
    // over `Tuple::get` per key column for the build — and the
    // columnar results are asserted identical (same passing rows, same
    // u64 hashes) before anything is timed.
    let cols = ColumnSet::build(&probe);
    let clustered = Pred::cmp_lit("P.id", CmpOp::Lt, FILTER_ID_LIT);
    let bound = BoundPred::bind(&clustered, probe.schema()).expect("filter binds");
    let mixed = Pred::cmp_lit("P.k", CmpOp::Lt, FILTER_LIT);
    let bound_mixed = BoundPred::bind(&mixed, probe.schema()).expect("filter binds");
    let key_cols = [1usize]; // P.k

    for b in [&bound, &bound_mixed] {
        let mut passing_row: Vec<usize> = Vec::new();
        for (i, row) in probe.rows().iter().enumerate() {
            if b.eval(row).is_true() {
                passing_row.push(i);
            }
        }
        let mut skipped = 0u64;
        let mask = cols.eval_pred(b, &mut skipped).into_trues();
        let mut passing_col: Vec<usize> = Vec::with_capacity(passing_row.len());
        mask.for_each_one_in(0, probe.len(), |i| passing_col.push(i));
        assert_eq!(
            passing_col, passing_row,
            "columnar filter selected different rows"
        );
    }
    let best_of = |mut f: Box<dyn FnMut() -> u64>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..KERNEL_REPS {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let row_filter = |b: &BoundPred| -> u64 {
        let mut n = 0u64;
        for row in probe.rows() {
            if b.eval(row).is_true() {
                n += 1;
            }
        }
        n
    };
    let filter_row_secs = best_of(Box::new(|| row_filter(&bound)));
    let filter_col_secs = best_of(Box::new(|| {
        let mut sk = 0u64;
        cols.eval_pred(&bound, &mut sk).true_count() as u64
    }));
    let filter_row_secs_mixed = best_of(Box::new(|| row_filter(&bound_mixed)));
    let filter_col_secs_mixed = best_of(Box::new(|| {
        let mut sk = 0u64;
        cols.eval_pred(&bound_mixed, &mut sk).true_count() as u64
    }));
    // The build-hash kernel is measured on a *wide* (16-column)
    // relation — the shape the chain section joins and the shape where
    // hashing straight from the key column pays: the row-at-a-time
    // baseline drags each scattered heap tuple through cache to hash
    // one key, the columnar kernel streams a dense i64 slice. On the
    // narrow 2-column probe table both paths are SipHash-bound and
    // indistinguishable.
    let wide = {
        let mut rng = StdRng::seed_from_u64(44);
        let mut schema: Vec<String> = vec!["id".into(), "k".into()];
        schema.extend((0..14).map(|c| format!("v{c}")));
        let schema_refs: Vec<&str> = schema.iter().map(String::as_str).collect();
        let rows: Vec<Vec<Value>> = (0..PROBE_ROWS)
            .map(|i| {
                let mut row = Vec::with_capacity(schema_refs.len());
                row.push(Value::Int(i as i64));
                row.push(Value::Int(rng.gen_range(0..KEY_DOMAIN)));
                row.extend((0..14).map(|_| Value::Int(rng.gen_range(0..1000))));
                row
            })
            .collect();
        Relation::from_values("W", &schema_refs, rows)
    };
    let wide_cols = ColumnSet::build(&wide);
    for rid in 0..wide.len() {
        let row_hash = {
            let mut h = DefaultHasher::new();
            let mut out = Some(());
            for &c in &key_cols {
                let v = wide.rows()[rid].get(c);
                if v.is_null() {
                    out = None;
                    break;
                }
                v.hash(&mut h);
            }
            out.map(|()| h.finish())
        };
        assert_eq!(
            wide_cols.hash_key_at(&key_cols, rid),
            row_hash,
            "columnar key hash diverged at row {rid}"
        );
    }
    let build_row_secs = best_of(Box::new(|| {
        let mut acc = 0u64;
        'rows: for row in wide.rows() {
            let mut h = DefaultHasher::new();
            for &c in &key_cols {
                let v = row.get(c);
                if v.is_null() {
                    continue 'rows;
                }
                v.hash(&mut h);
            }
            acc ^= h.finish();
        }
        acc
    }));
    let build_col_secs = best_of(Box::new(|| {
        let mut acc = 0u64;
        for rid in 0..wide.len() {
            if let Some(h) = wide_cols.hash_key_at(&key_cols, rid) {
                acc ^= h;
            }
        }
        acc
    }));

    // Zone skipping: an equality literal outside the key domain is
    // refuted by every zone's min/max, so the kernel answers from
    // metadata alone and counts each zone as skipped.
    let absent = Pred::cmp_lit("P.k", CmpOp::Eq, -7i64);
    let absent_bound = BoundPred::bind(&absent, probe.schema()).expect("absent binds");
    let mut zones_skipped = 0u64;
    let absent_mask = cols.eval_pred(&absent_bound, &mut zones_skipped);
    assert_eq!(
        absent_mask.true_count(),
        0,
        "out-of-domain literal matched rows"
    );
    assert!(
        zones_skipped > 0,
        "no zones skipped for out-of-domain literal"
    );

    let filter_rps = PROBE_ROWS as f64 / filter_col_secs;
    let filter_rps_row = PROBE_ROWS as f64 / filter_row_secs;
    let filter_speedup = filter_row_secs / filter_col_secs;
    let filter_rps_mixed = PROBE_ROWS as f64 / filter_col_secs_mixed;
    let filter_rps_row_mixed = PROBE_ROWS as f64 / filter_row_secs_mixed;
    let filter_speedup_mixed = filter_row_secs_mixed / filter_col_secs_mixed;
    let build_rps = PROBE_ROWS as f64 / build_col_secs;
    let build_rps_row = PROBE_ROWS as f64 / build_row_secs;
    let build_speedup = build_row_secs / build_col_secs;
    println!(
        "kernels ({PROBE_ROWS} rows, threads=1): \
         clustered filter {filter_rps:.0} rows/sec vs {filter_rps_row:.0} row-major \
         ({filter_speedup:.1}x), mixed-zone filter {filter_rps_mixed:.0} vs \
         {filter_rps_row_mixed:.0} ({filter_speedup_mixed:.1}x), build-hash {build_rps:.0} \
         vs {build_rps_row:.0} ({build_speedup:.1}x), \
         {zones_skipped} zones skipped on out-of-domain probe"
    );

    let output_rows = baseline_rows.map_or(0, |r| r.len());
    let rps_at = |t: usize, p: usize| {
        cells
            .iter()
            .find(|c| c.threads == t && c.partitions == p)
            .map_or(0.0, |c| c.rows_per_sec)
    };
    let base = rps_at(1, 1);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"hash_join_partition_scaling\",");
    let _ = writeln!(
        json,
        "  \"join\": \"left-outer hash join, fused pipeline, radix-partitioned column-hashed build\","
    );
    let _ = writeln!(json, "  \"probe_rows\": {PROBE_ROWS},");
    let _ = writeln!(json, "  \"build_rows\": {BUILD_ROWS},");
    let _ = writeln!(json, "  \"output_rows\": {output_rows},");
    let _ = writeln!(
        json,
        "  \"morsel_rows\": {},",
        ExecConfig::default().morsel_rows
    );
    let _ = writeln!(
        json,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"partitions\": {}, \"best_secs\": {:.6}, \
             \"probe_rows_per_sec\": {:.0}}}{comma}",
            c.threads, c.partitions, c.best_secs, c.rows_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedup_2_threads\": {:.3},", rps_at(2, 1) / base);
    let _ = writeln!(json, "  \"speedup_4_threads\": {:.3},", rps_at(4, 1) / base);
    let _ = writeln!(
        json,
        "  \"speedup_16_partitions\": {:.3},",
        rps_at(1, 16) / base
    );
    let _ = writeln!(json, "  \"chain_rels\": {CHAIN_RELS},");
    let _ = writeln!(json, "  \"chain_rows_per_rel\": {CHAIN_ROWS},");
    let _ = writeln!(json, "  \"chain_output_rows\": {},", pipe_rows.len());
    let _ = writeln!(json, "  \"chain_pipelined_secs\": {pipe_secs:.6},");
    let _ = writeln!(
        json,
        "  \"chain_rows_materialized_pipelined\": {},",
        pipe_stats.rows_materialized
    );
    let _ = writeln!(
        json,
        "  \"chain_rows_pipelined\": {},",
        pipe_stats.rows_pipelined
    );
    let _ = writeln!(json, "  \"chain_pipelines\": {},", pipe_stats.pipelines);
    let _ = writeln!(json, "  \"kernel_rows\": {PROBE_ROWS},");
    let _ = writeln!(json, "  \"filter_rows_per_sec\": {filter_rps:.0},");
    let _ = writeln!(
        json,
        "  \"filter_rows_per_sec_rowmajor\": {filter_rps_row:.0},"
    );
    let _ = writeln!(json, "  \"filter_speedup\": {filter_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"filter_rows_per_sec_mixed\": {filter_rps_mixed:.0},"
    );
    let _ = writeln!(
        json,
        "  \"filter_rows_per_sec_mixed_rowmajor\": {filter_rps_row_mixed:.0},"
    );
    let _ = writeln!(
        json,
        "  \"filter_speedup_mixed\": {filter_speedup_mixed:.3},"
    );
    let _ = writeln!(json, "  \"build_rows_per_sec\": {build_rps:.0},");
    let _ = writeln!(
        json,
        "  \"build_rows_per_sec_rowmajor\": {build_rps_row:.0},"
    );
    let _ = writeln!(json, "  \"build_speedup\": {build_speedup:.3},");
    let _ = writeln!(json, "  \"zones_skipped\": {zones_skipped}");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
