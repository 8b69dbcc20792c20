//! Concurrency benchmark for the wire-protocol server: N client
//! threads × M queries over one shared database, cycling
//! alpha-equivalent phrasings of the paper's §5 Queretaro query
//! (From-List permutations — Theorem 1 gives them one graph signature,
//! so they all share one cached plan).
//!
//! Asserts, per the architecture's contract:
//! * every remote result is **bit-identical** to single-session local
//!   execution of the same phrasing;
//! * the shared plan cache serves a warm hit rate above 90% across all
//!   connections.
//!
//! Writes `BENCH_server.json` (p50/p99 latency, throughput, cache hit
//! rate) at the repository root.

use fro::{Client, Server, ServerOptions, SharedDb};
use fro_algebra::Relation;
use fro_lang::model::paper_world;
use std::fmt::Write as _;
use std::time::Instant;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 40;

/// Alpha-equivalent phrasings: permuting the From-List (and the
/// conjunct order) leaves the query graph — and with it the plan-cache
/// signature — unchanged.
const PHRASINGS: [&str; 3] = [
    "Select All From EMPLOYEE*ChildName, DEPARTMENT \
     Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
    "Select All From DEPARTMENT, EMPLOYEE*ChildName \
     Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
    "Select All From EMPLOYEE*ChildName, DEPARTMENT \
     Where DEPARTMENT.Location = 'Queretaro' and EMPLOYEE.D# = DEPARTMENT.D#",
];

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted_ms.len() - 1);
    sorted_ms[idx]
}

fn main() {
    let db = SharedDb::new();
    let opts = ServerOptions {
        edb: Some(paper_world()),
    };
    let server = Server::start("127.0.0.1:0", db.clone(), opts).expect("bind loopback");
    let addr = server.addr();

    // Single-session expectations per phrasing (and cache warmup: the
    // three phrasings collapse onto one signature, so after this the
    // full-set plan is warm for every connection).
    let local = db.session().with_entity_db(paper_world());
    let expected: Vec<Relation> = PHRASINGS
        .iter()
        .map(|src| local.query(src).expect("plans").run().expect("runs"))
        .collect();
    assert_eq!(expected[0].len(), 3, "Queretaro query returns 3 rows");

    let wall = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut latencies_ms = Vec::with_capacity(QUERIES_PER_CLIENT);
                for i in 0..QUERIES_PER_CLIENT {
                    let v = (c + i) % PHRASINGS.len();
                    let t = Instant::now();
                    let (out, _stats) = client.query(PHRASINGS[v]).expect("query runs");
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(
                        out, expected[v],
                        "client {c} query {i}: remote result must be bit-identical \
                         to single-session execution"
                    );
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall_secs = wall.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let total = latencies.len();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let qps = total as f64 / wall_secs;

    let stats = db.snapshot().catalog().cache_stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    assert!(
        hit_rate > 0.9,
        "warm hit rate {hit_rate:.3} must exceed 0.9 (stats: {stats})"
    );

    println!(
        "server_bench: {CLIENTS} clients x {QUERIES_PER_CLIENT} queries \
         p50={p50:.3}ms p99={p99:.3}ms qps={qps:.0} hit_rate={hit_rate:.3}"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"server\",");
    let _ = writeln!(
        json,
        "  \"protocol\": \"fro-wire proto v1 over loopback TCP, text requests\","
    );
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"queries_per_client\": {QUERIES_PER_CLIENT},");
    let _ = writeln!(json, "  \"total_queries\": {total},");
    let _ = writeln!(json, "  \"p50_ms\": {p50:.3},");
    let _ = writeln!(json, "  \"p99_ms\": {p99:.3},");
    let _ = writeln!(json, "  \"qps\": {qps:.0},");
    let _ = writeln!(json, "  \"cache_hits\": {},", stats.hits);
    let _ = writeln!(json, "  \"cache_misses\": {},", stats.misses);
    let _ = writeln!(json, "  \"cache_hit_rate\": {hit_rate:.3}");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, &json).expect("write BENCH_server.json");
    println!("wrote {path}");

    drop(server);
}
