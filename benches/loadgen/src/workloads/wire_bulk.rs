//! `wire_bulk`: the wire layer used the other way round — one `Client`
//! streaming 12–14 k-row results of cheap pre-optimized plans.

use super::{
    data_seed, exec_counts, load, prepared_cycle, reference_digests, rng, shadow_result_frames,
    Link, Plans, Spec, Workload,
};
use crate::digest::{digest, Digest, Golden};
use crate::harness::Harness;
use fro::algebra::{Attr, Pred, Query, Relation, Value};
use fro::exec::Storage;
use fro::wire::{decode_plan, encode_plan};
use fro::{DbState, ServerOptions, Session, SharedDb};
use rand::Rng;
use std::sync::Arc;

const NAME: &str = "wire_bulk";

pub const SPEC: Spec = Spec {
    name: NAME,
    why: "throughput-bound streaming of 12-14k rows x 5 columns (two strings): row copies, per-frame flush, \
          encode/decode are 75 % of an op, exec 25 %; a flush or batching change that helps point queries shows",
    ops_per_cycle: 8,
    warmup_cycles: 10,
    setup,
    reference,
};

const WIDE_ROWS: usize = 14_000;
const PAIR_ROWS: usize = 12_000;

/// `W(id, grp, name, tag, qty)` for the scan; `P(id, name, tag)` and
/// `Q(pid, qty)` joined 1:1 for the join. Both results are five columns
/// wide with two string columns.
fn inputs(data_seed: u64) -> (Storage, Vec<(&'static str, usize, Query)>) {
    let mut rng = rng(data_seed, 0xB01C);
    let mut name =
        |prefix: &str| Value::str(format!("{prefix}-{:07}", rng.gen_range(0..5_000_000u32)));
    let mut storage = Storage::new();
    let wide: Vec<Vec<Value>> = (0..WIDE_ROWS as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(id % 50),
                name("item"),
                Value::str(format!("tag-{}", id % 200)),
                Value::Int(id * 3 % 1_000),
            ]
        })
        .collect();
    storage.insert(
        "W",
        Relation::from_values("W", &["id", "grp", "name", "tag", "qty"], wide),
    );
    let parts: Vec<Vec<Value>> = (0..PAIR_ROWS as i64)
        .map(|id| {
            vec![
                Value::Int(id),
                name("part"),
                Value::str(format!("bin-{}", id % 300)),
            ]
        })
        .collect();
    storage.insert(
        "P",
        Relation::from_values("P", &["id", "name", "tag"], parts),
    );
    let stock: Vec<Vec<Value>> = (0..PAIR_ROWS as i64)
        .map(|id| vec![Value::Int(id), Value::Int(id * 7 % 500)])
        .collect();
    storage.insert("Q", Relation::from_values("Q", &["pid", "qty"], stock));
    storage.create_index("Q", &[Attr::new("Q", "pid")]);
    let join = Query::rel("P").join(Query::rel("Q"), Pred::eq_attr("P.id", "Q.pid"));
    // 3 + 5, not 4 + 4: see `prepared_cycle`.
    (
        storage,
        vec![("scan", 3, Query::rel("W")), ("join", 5, join)],
    )
}

fn reference(variant: u64) -> Vec<(String, Digest)> {
    let (storage, shapes) = inputs(data_seed(variant));
    reference_digests(
        &storage.to_database(),
        shapes.into_iter().map(|(shape, _, q)| (shape, q)),
    )
}

struct State {
    db: Arc<SharedDb>,
    link: Link,
    /// Pins the generation whose interner the plans are encoded
    /// against; nothing mutates this database.
    state: Arc<DbState>,
    plans: Plans,
    ops: Vec<usize>,
}

fn setup(seed: u64, golden: &Golden, _h: &mut Harness) -> Result<Box<dyn Workload>, String> {
    let (storage, shapes) = inputs(data_seed(seed));
    let session = Session::new();
    load(&session, &storage, &mut rng(seed, 1));
    let db = Arc::clone(session.shared());
    let link = Link::open(&db, ServerOptions::default())?;
    let (plans, ops) = prepared_cycle(&SPEC, &session, shapes, golden, seed)?;
    Ok(Box::new(State {
        state: db.snapshot(),
        db,
        link,
        plans,
        ops,
    }))
}

impl Workload for State {
    fn db(&self) -> &Arc<SharedDb> {
        &self.db
    }

    fn cycle(&mut self, h: &mut Harness, _edge: bool) {
        let interner = self.state.storage().interner();
        for &i in &self.ops {
            let (shape, prepared, expected) = &self.plans[i];
            let out = h.op("server.roundtrip", shape, || {
                self.link.client().query_plan(prepared.plan(), interner)
            });
            h.check(matches!(&out, Ok((rel, _)) if digest(rel) == *expected));
        }
        if h.traced {
            let _ = h.span(None, "server.ping", || self.link.client().ping());
        }
    }

    fn shadow(&mut self, h: &mut Harness) {
        let interner = self.state.storage().interner();
        for (k, &i) in self.ops.iter().enumerate() {
            let root = h.roots[k];
            let prepared = &self.plans[i].1;
            let (blob, _) = h.span(Some(root), "wire.encode_plan", || {
                encode_plan(prepared.plan(), interner)
            });
            let blob = blob.expect("the root op encoded this plan");
            let _ = h.span(Some(root), "wire.decode_plan", || {
                decode_plan(&blob, interner)
            });
            let (ran, _) = h.span(Some(root), "exec.run", || prepared.run_with_stats());
            let (rel, stats) = ran.expect("ran before");
            exec_counts(h, &stats);
            shadow_result_frames(h, root, &rel, &stats);
        }
    }
}
