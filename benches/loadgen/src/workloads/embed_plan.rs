//! `embed_plan`: in-process `Session::prepare` only — graph analysis,
//! signature, plan cache, DP and the reducer post-pass; no execution,
//! no wire.

use super::{cache_counts, data_seed, load, rng, shuffle, Spec, Workload};
use crate::digest::{Digest, Golden};
use crate::harness::Harness;
use fro::algebra::{Attr, Pred, Query};
use fro::core::{analyze, optimizer::reduce_plan, ReducePolicy};
use fro::exec::PhysPlan;
use fro::graph::graph_of;
use fro::{Session, SharedDb};
use fro_testkit::random_implementing_tree;
use fro_testkit::workloads::{chain, left_chain, star, StarParams};
use rand::Rng;
use std::sync::Arc;

pub const SPEC: Spec = Spec {
    name: "embed_plan",
    why: "isolates graph analysis/signature, plan cache, DP and reducer over a >=1e5-row catalog; \
          60 warm + 4 cold prepares per cycle so a warm-path gain that costs replanning shows",
    ops_per_cycle: SEGMENTS * SEGMENT_OPS,
    warmup_cycles: 185,
    setup,
    reference,
};

/// snowflake7-skew grown to 105 000 fact rows, so set-up is real.
pub const SNOWFLAKE: StarParams = StarParams {
    dims: 3,
    match_keys: 400,
    good_rows: 60_000,
    hot_keys: 60,
    hot_dup: 20,
    junk_rows: 15_000,
    wide_keys: 200,
    snowflake: true,
};

const SEGMENTS: usize = 4;
/// One cold prepare, then warm ones. A `set_distinct` bumps the catalog
/// epoch and so stales *every* cached plan; giving each bump a segment
/// of ops on one graph keeps the cycle at exactly 4 cold + 60 warm.
const SEGMENT_OPS: usize = 16;

/// One query graph of the cycle: its phrasings (implementing trees,
/// equivalent by Theorem 1), the statistic a cold op re-declares, and
/// the plan every prepare must come back with.
struct Graph {
    name: &'static str,
    trees: Vec<Query>,
    bump: (Attr, u64),
    plan: PhysPlan,
}

struct State {
    session: Session,
    /// The cycle's segments, in seeded order.
    graphs: Vec<Graph>,
}

/// `F ⋈ D1 ⋈ D2 ⋈ D3`: the snowflake's star core, a fourth graph over
/// the same tables.
pub fn star_core() -> Query {
    (1..=3).fold(Query::rel("F"), |q, i| {
        q.join(
            Query::rel(format!("D{i}")),
            Pred::eq_attr(&format!("F.d{i}"), &format!("D{i}.k")),
        )
    })
}

fn setup(seed: u64, _golden: &Golden, _h: &mut Harness) -> Result<Box<dyn Workload>, String> {
    let ds = data_seed(seed);
    let (snow, _, snow_q) = star(&SNOWFLAKE);
    let (chain10, _, chain_q) = chain(10, 40, ds);
    let (left8, _, left_q) = left_chain(8, 4000, ds);
    let session = Session::new();
    let mut order = rng(seed, 1);
    for storage in [&snow, &chain10, &left8] {
        load(&session, storage, &mut order);
    }

    let mut graphs = Vec::new();
    let shapes = [
        ("snowflake7", snow_q, "D1.o"),
        ("chain10", chain_q, "R3.v"),
        ("left_chain8", left_q, "L3.v"),
        ("star4", star_core(), "D2.o"),
    ];
    for (g, (name, query, bump)) in shapes.into_iter().enumerate() {
        let graph = graph_of(&query).map_err(|e| format!("{name}: {e}"))?;
        let mut trees = rng(seed, 2 + g as u64);
        let trees: Vec<Query> = (0..SEGMENT_OPS)
            .map(|_| {
                random_implementing_tree(&graph, trees.gen_range(0..u64::MAX))
                    .ok_or_else(|| format!("{name}: disconnected"))
            })
            .collect::<Result<_, _>>()?;
        let attr = Attr::parse(bump);
        let distinct = session.catalog().distinct_of(&attr);
        let plan = session
            .prepare(&trees[0])
            .map_err(|e| format!("{name}: {e}"))?
            .plan()
            .clone();
        graphs.push(Graph {
            name,
            trees,
            bump: (attr, distinct),
            plan,
        });
    }
    shuffle(&mut graphs, &mut rng(seed, 9));
    Ok(Box::new(State { session, graphs }))
}

fn reference(_variant: u64) -> Vec<(String, Digest)> {
    // Nothing executes here; prepares are checked against each other.
    Vec::new()
}

impl Workload for State {
    fn db(&self) -> &Arc<SharedDb> {
        self.session.shared()
    }

    fn cycle(&mut self, h: &mut Harness, _edge: bool) {
        let before = self.session.cache_stats();
        for g in &self.graphs {
            // Cold: re-declare a statistic (same value, new epoch), then
            // plan from scratch.
            let cold = h.op("session.prepare", "cold", || {
                self.session.set_distinct(&g.bump.0, g.bump.1);
                self.session.prepare(&g.trees[0])
            });
            let pairs = cold.as_ref().map_or(0, |p| p.optimized().pairs_examined);
            h.check(pairs > 0 && cold.is_ok_and(|p| *p.plan() == g.plan));
            if h.traced {
                h.add("core.dp.pairs", pairs);
            }
            for tree in &g.trees[1..] {
                let warm = h.op("session.prepare", "warm", || self.session.prepare(tree));
                h.check(
                    warm.is_ok_and(|p| p.optimized().pairs_examined == 0 && *p.plan() == g.plan),
                );
            }
        }
        if h.traced {
            cache_counts(h, &before, self.db());
        }
    }

    fn shadow(&mut self, h: &mut Harness) {
        let (policy, reduce) = (self.session.policy(), self.session.reduce_policy());
        let mut roots = h.roots.clone().into_iter();
        for g in &self.graphs {
            for (i, tree) in g.trees.iter().enumerate() {
                let root = roots.next().expect("one root per op");
                if i == 0 {
                    self.session.set_distinct(&g.bump.0, g.bump.1);
                }
                let state = self.db().snapshot();
                let (plain, o) = h.span(Some(root), "core.optimize", || {
                    fro::core::optimize_with_reduce(
                        tree,
                        state.catalog(),
                        policy,
                        ReducePolicy::Never,
                    )
                });
                let plain = plain.unwrap_or_else(|e| panic!("{}: {e}", g.name));
                let _ = h.span(Some(o), "graph.analyze", || {
                    (graph_of(tree).is_ok(), analyze(tree, policy))
                });
                let _ = h.span(Some(root), "core.reduce", || {
                    reduce_plan(
                        &plain.plan,
                        state.catalog(),
                        reduce,
                        plain.analysis.graph.as_ref(),
                    )
                });
            }
        }
    }
}
