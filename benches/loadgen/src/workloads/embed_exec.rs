//! `embed_exec`: plans prepared once in set-up, then only
//! `Prepared::run_with_stats` — the executor and the column/storage
//! kernels do all the work.

use super::{
    data_seed, embed_plan::star_core, exec_counts, load, prepared_cycle, reference_digests, rng,
    Plans, Spec, Workload,
};
use crate::digest::{digest, Digest, Golden};
use crate::harness::Harness;
use fro::algebra::{CmpOp, Database, Pred, Query};
use fro::exec::Storage;
use fro::{Session, SharedDb};
use fro_testkit::workloads::{crossover, left_chain, star, StarParams};
use std::sync::Arc;

const NAME: &str = "embed_exec";

pub const SPEC: Spec = Spec {
    name: NAME,
    why: "exec and the column/storage kernels do all the work (skewed snowflake joins with reducer, \
          8-deep outerjoin chain, non-equi join + outerjoin, in-domain filter); planner, lang, wire none",
    ops_per_cycle: 8,
    warmup_cycles: 10,
    setup,
    reference,
};

/// snowflake7-skew sized so the reduced plan runs in 10–30 ms.
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

/// The generators' output and the four query shapes over it, each
/// with its weight in the cycle: `left_chain8`, the third-slowest, runs
/// four times so a cycle's median op sits inside its latency mode (see
/// [`prepared_cycle`]).
fn inputs(data_seed: u64) -> (Vec<Storage>, Vec<(&'static str, usize, Query)>) {
    let (snow, _, snow_q) = star(&SNOWFLAKE);
    let (left8, _, left_q) = left_chain(8, 8_000, data_seed);
    let cross = crossover(40, 10_000, 0.05, data_seed);
    // `F.v` numbers the good fact rows 0..24 000: the literal sits in
    // the middle of the domain, so zone metadata cannot answer it.
    let filter_q = star_core().restrict(Pred::cmp_lit("F.v", CmpOp::Lt, 12_000i64));
    (
        vec![snow, left8, cross.storage],
        vec![
            ("snowflake", 1, snow_q),
            ("left_chain8", 4, left_q),
            ("crossover", 2, cross.oj_first),
            ("filter", 1, filter_q),
        ],
    )
}

fn reference(variant: u64) -> Vec<(String, Digest)> {
    let (storages, shapes) = inputs(data_seed(variant));
    let mut db = Database::new();
    for storage in &storages {
        for (name, table) in storage.iter() {
            db.insert_named(name.to_owned(), table.relation().clone());
        }
    }
    reference_digests(&db, shapes.into_iter().map(|(shape, _, q)| (shape, q)))
}

struct State {
    session: Session,
    plans: Plans,
    /// Index into `plans` of each op of the cycle, in seeded order.
    ops: Vec<usize>,
}

fn setup(seed: u64, golden: &Golden, _h: &mut Harness) -> Result<Box<dyn Workload>, String> {
    let (storages, shapes) = inputs(data_seed(seed));
    let session = Session::new();
    let mut order = rng(seed, 1);
    for storage in &storages {
        load(&session, storage, &mut order);
    }
    let (plans, ops) = prepared_cycle(&SPEC, &session, shapes, golden, seed)?;
    Ok(Box::new(State {
        session,
        plans,
        ops,
    }))
}

impl Workload for State {
    fn db(&self) -> &Arc<SharedDb> {
        self.session.shared()
    }

    fn cycle(&mut self, h: &mut Harness, _edge: bool) {
        for &i in &self.ops {
            let (shape, prepared, expected) = &self.plans[i];
            let out = h.op("exec.run", shape, || prepared.run_with_stats());
            h.check(matches!(&out, Ok((rel, _)) if digest(rel) == *expected));
            if let (true, Ok((_, stats))) = (h.traced, &out) {
                exec_counts(h, stats);
            }
        }
    }

    fn shadow(&mut self, _h: &mut Harness) {
        // The op is already a single call into one layer.
    }
}
