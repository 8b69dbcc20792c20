//! The five workloads and what they share: the seed split, seeded row
//! order, and loading generator output through the `Session` front door.

use crate::digest::{digest, Digest, Golden};
use crate::harness::{threads, Harness};
use fro::algebra::{Attr, Database, Query, Relation, Tuple};
use fro::exec::Storage;
use fro::{Client, Prepared, Server, ServerOptions, Session, SharedDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub mod embed_exec;
pub mod embed_plan;
pub mod ingest_pinned;
pub mod wire_bulk;
pub mod wire_text_point;

/// Data *values* come from one of this many variants (`--seed` modulo
/// this); everything else — row order, phrasings, op order, appended
/// rows — comes from the full seed. The reference evaluator is
/// nested-loop and needs minutes on the larger tables, so its digests
/// are checked in per variant rather than recomputed per run.
pub const VARIANTS: u64 = 4;

/// A fully set-up workload: data loaded, views registered, clients
/// connected, warm-up not yet run.
pub trait Workload {
    /// The database under test (for the traced run's storage metrics).
    fn db(&self) -> &Arc<SharedDb>;
    /// Run one cycle: the same ops every time, each timed through
    /// [`Harness::op`] and checked. `edge` marks the first and last
    /// measured cycle, where the costlier checks also run.
    fn cycle(&mut self, h: &mut Harness, edge: bool);
    /// Traced runs only: replay the cycle just run as calls into each
    /// layer's public functions, as child spans of `h.roots`.
    fn shadow(&mut self, h: &mut Harness);
}

/// Builds a workload from `--seed`; the harness records set-up spans.
pub type SetUp = fn(u64, &Golden, &mut Harness) -> Result<Box<dyn Workload>, String>;

/// `(shape, its prepared plan, its expected result)`.
pub type Plans = Vec<(&'static str, Prepared, Digest)>;

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub ops_per_cycle: usize,
    /// Fixed warm-up work, about one second at seed speed.
    pub warmup_cycles: usize,
    pub setup: SetUp,
    /// Reference digests of one data variant, by shape.
    pub reference: fn(u64) -> Vec<(String, Digest)>,
}

pub const SPECS: [Spec; 5] = [
    wire_text_point::SPEC,
    embed_plan::SPEC,
    embed_exec::SPEC,
    wire_bulk::SPEC,
    ingest_pinned::SPEC,
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A served database and the one client connected to it.
pub struct Link {
    client: Option<Client>,
    _server: Server,
}

impl Link {
    pub fn open(db: &Arc<SharedDb>, opts: ServerOptions) -> Result<Link, String> {
        let server =
            Server::start("127.0.0.1:0", Arc::clone(db), opts).map_err(|e| e.to_string())?;
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(Link {
            client: Some(client),
            _server: server,
        })
    }

    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connected until dropped")
    }
}

impl Drop for Link {
    /// Hang up, wait for the connection thread to see EOF and exit, and
    /// only then stop the server (its drop joins the accept thread).
    /// The allocator hands an exited thread's arena to the next thread
    /// that starts, most recent first, so a fixed exit order is what
    /// makes the next set-up's memory layout — and RSS — repeat.
    fn drop(&mut self) {
        let before = threads();
        self.client = None;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while threads() >= before && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// Seed of one data variant, handed to the `fro_testkit` generators.
pub fn data_seed(seed: u64) -> u64 {
    0xF20 + seed % VARIANTS
}

/// An independent stream of the full seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The reference evaluator's digest of each shape over `db`.
pub fn reference_digests(
    db: &Database,
    shapes: impl IntoIterator<Item = (&'static str, Query)>,
) -> Vec<(String, Digest)> {
    shapes
        .into_iter()
        .map(|(shape, q)| {
            let out = q.eval(db).expect("reference evaluates");
            (shape.to_owned(), digest(&out))
        })
        .collect()
}

/// Prepare each shape once and look its expected result up, and lay
/// out a cycle that runs each plan `weight` times, in seeded order.
///
/// The weights are unequal on purpose. Shapes differ in latency, so a
/// cycle's op latencies are multi-modal; with equal weights half the ops
/// sit below a gap between two shapes and the cycle's median (what
/// `op_p50_us` is read from) lands *in* the gap, where a 1 % shift of
/// either shape moves it by the gap's width. One shape gets enough
/// weight that the median falls inside its mode, with the larger margin
/// above (noise only ever moves ops upward).
pub fn prepared_cycle(
    spec: &Spec,
    session: &Session,
    shapes: Vec<(&'static str, usize, Query)>,
    golden: &Golden,
    seed: u64,
) -> Result<(Plans, Vec<usize>), String> {
    let mut plans = Vec::new();
    let mut ops = Vec::new();
    for (shape, weight, q) in shapes {
        let prepared = session.prepare(&q).map_err(|e| format!("{shape}: {e}"))?;
        ops.extend(std::iter::repeat_n(plans.len(), weight));
        plans.push((
            shape,
            prepared,
            golden.get(spec.name, seed % VARIANTS, shape)?,
        ));
    }
    assert_eq!(ops.len(), spec.ops_per_cycle, "{}: weights", spec.name);
    shuffle(&mut ops, &mut rng(seed, 2));
    Ok((plans, ops))
}

/// Load every table of a generator's storage into `session` — rows in
/// seeded order, the generator's indexes re-created.
pub fn load(session: &Session, src: &Storage, rng: &mut StdRng) {
    for (name, table) in src.iter() {
        let rel = table.relation();
        let mut rows: Vec<Tuple> = rel.rows().to_vec();
        shuffle(&mut rows, rng);
        session.insert_table(
            name,
            Relation::from_distinct_rows(rel.schema().clone(), rows),
        );
        for index in table.indexes() {
            let attrs: Vec<Attr> = index
                .key_cols()
                .iter()
                .map(|&c| rel.schema().attrs()[c].clone())
                .collect();
            session.create_index(name, &attrs);
        }
    }
}

/// Traced runs only: the engine's work counts of one op.
pub fn exec_counts(h: &mut Harness, stats: &fro::exec::ExecStats) {
    h.add("exec.tuples_retrieved", stats.tuples_retrieved);
    h.add("exec.rows_materialized", stats.rows_materialized);
    h.add("exec.hash_build_rows", stats.hash_build_rows);
    h.add("exec.rows_reduced", stats.rows_reduced);
    h.add("exec.rows_output", stats.rows_output);
}

/// Traced runs only: plan-cache traffic of the root ops between two
/// readings of the shared cache's cumulative counters.
pub fn cache_counts(h: &mut Harness, before: &fro::core::optimizer::CacheStats, db: &SharedDb) {
    let after = db.snapshot().catalog().cache_stats();
    h.add("core.plancache.hits", after.hits - before.hits);
    h.add("core.plancache.misses", after.misses - before.misses);
    h.add("core.plancache.stale", after.stale - before.stale);
}

/// Traced runs only: encode a result into the response frames the
/// server streams for it (`Schema`, `Rows` × ⌈n/1024⌉, `Done`) and
/// decode them back the way `Client` does, as child spans of `parent`.
pub fn shadow_result_frames(
    h: &mut Harness,
    parent: u32,
    rel: &Relation,
    stats: &fro::exec::ExecStats,
) {
    use fro::wire::{decode_response, encode_response, Response, ROWS_PER_BATCH};
    let (frames, _) = h.span(Some(parent), "wire.encode_rows", || {
        let cols = rel
            .schema()
            .attrs()
            .iter()
            .map(|a| (a.rel().to_string(), a.name().to_string()))
            .collect();
        let mut frames = vec![encode_response(&Response::Schema(cols))];
        for chunk in rel.rows().chunks(ROWS_PER_BATCH) {
            let batch = chunk.iter().map(|t| t.values().to_vec()).collect();
            frames.push(encode_response(&Response::Rows(batch)));
        }
        frames.push(encode_response(&Response::Done(Box::new(*stats))));
        frames
    });
    let frames: Vec<Vec<u8>> = frames.into_iter().flatten().collect();
    let (rows, _) = h.span(Some(parent), "wire.decode_rows", || {
        let mut rows: Vec<Tuple> = Vec::new();
        for f in &frames {
            if let Ok(Response::Rows(batch)) = decode_response(f) {
                rows.extend(batch.into_iter().map(Tuple::new));
            }
        }
        rows
    });
    // Each frame travels behind a u32 length prefix.
    let bytes: usize = frames.iter().map(|f| f.len() + 4).sum();
    h.add("wire.rows", rows.len() as u64);
    h.add("wire.frames", frames.len() as u64);
    h.add("server.bytes_out", bytes as u64);
}
