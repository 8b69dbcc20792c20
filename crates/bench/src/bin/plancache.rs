//! Cold-vs-warm plan-cache benchmark.
//!
//! Repeats `optimize()` on a 10-relation join chain three ways and
//! writes `BENCH_plancache.json` at the repository root:
//!
//! * **cold** — the catalog's plan cache is cleared before every rep,
//!   so each run pays the full csg–cmp enumeration;
//! * **warm** — the cache is primed once, then every rep is answered
//!   from the cache: `pairs_examined` must be exactly zero;
//! * **epoch bump** — a statistics change between reps invalidates
//!   the cached plans, so the next optimize re-plans (a stale miss)
//!   and the one after that hits again.

use fro_core::optimizer::optimize;
use fro_core::reorder::Policy;
use fro_testkit::workloads::chain;
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 25;
const N_RELS: usize = 10;

fn time_best(reps: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut pairs = 0;
    for _ in 0..reps {
        let t = Instant::now();
        pairs = f();
        let secs = t.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
    }
    (best, pairs)
}

fn main() {
    let (_storage, mut catalog, q) = chain(N_RELS, 10, 7);

    // Cold: every rep pays the whole enumeration.
    let (cold_best, cold_pairs) = time_best(REPS, || {
        catalog.clear_plan_cache();
        let out = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
        assert!(out.reordered);
        out.pairs_examined
    });
    assert!(cold_pairs > 0, "cold runs must enumerate");

    // Warm: prime once, then every rep is a full-set cache hit.
    catalog.clear_plan_cache();
    let primed = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    let (warm_best, warm_pairs) = time_best(REPS, || {
        let out = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
        assert_eq!(
            out.plan.explain(),
            primed.plan.explain(),
            "warm plan identical"
        );
        out.pairs_examined
    });
    assert_eq!(warm_pairs, 0, "warm runs must not enumerate");

    // Epoch bump: a stats change forces a stale miss and a re-plan.
    let stats_before = catalog.cache_stats();
    catalog.set_distinct(&fro_algebra::Attr::parse("R0.k"), 7);
    let t = Instant::now();
    let replanned = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    let bump_secs = t.elapsed().as_secs_f64();
    assert!(replanned.pairs_examined > 0, "epoch bump must re-plan");
    assert!(replanned.cache.stale >= 1, "stale entries must be counted");
    let rehit = optimize(&q, &catalog, Policy::Paper).expect("chain optimizes");
    assert_eq!(rehit.pairs_examined, 0, "re-primed after the bump");

    let stats = catalog.cache_stats();
    let speedup = if warm_best > 0.0 {
        cold_best / warm_best
    } else {
        f64::INFINITY
    };
    println!(
        "plancache/chain{N_RELS}: cold={cold_best:.6}s ({cold_pairs} pairs) \
         warm={warm_best:.6}s ({warm_pairs} pairs) speedup={speedup:.1}x"
    );
    println!("plancache/epoch-bump: replan={bump_secs:.6}s, cache {stats}");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"plan_cache\",");
    let _ = writeln!(
        json,
        "  \"keying\": \"(canonical graph signature, RelSet) with catalog-epoch invalidation\","
    );
    let _ = writeln!(json, "  \"n_rels\": {N_RELS},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"cold_best_secs\": {cold_best:.6},");
    let _ = writeln!(json, "  \"cold_pairs_examined\": {cold_pairs},");
    let _ = writeln!(json, "  \"warm_best_secs\": {warm_best:.6},");
    let _ = writeln!(json, "  \"warm_pairs_examined\": {warm_pairs},");
    let _ = writeln!(json, "  \"warm_speedup\": {speedup:.1},");
    let _ = writeln!(json, "  \"epoch_bump_replan_secs\": {bump_secs:.6},");
    let _ = writeln!(
        json,
        "  \"cache_stats\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"stale\": {}}},",
        stats.hits, stats.misses, stats.evictions, stats.stale
    );
    let _ = writeln!(
        json,
        "  \"stale_after_epoch_bump\": {}",
        stats.stale - stats_before.stale
    );
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plancache.json");
    std::fs::write(path, &json).expect("write BENCH_plancache.json");
    println!("wrote {path}");
}
