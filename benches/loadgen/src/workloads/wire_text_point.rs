//! `wire_text_point`: one `Client` over loopback sending §5 text
//! queries with tiny results — the flagship client path.

use super::{
    cache_counts, data_seed, exec_counts, rng, shadow_result_frames, shuffle, Link, Spec, Workload,
    VARIANTS,
};
use crate::digest::{digest, Digest, Golden};
use crate::harness::Harness;
use fro::core::{analyze, optimizer::reduce_plan, ReducePolicy};
use fro::graph::graph_of;
use fro::lang::{parse, plan_query, translate, EntityDb};
use fro::trees::some_implementing_tree;
use fro::{ServerOptions, Session, SharedDb};
use fro_testkit::workloads::synthetic_entity_world;
use std::sync::Arc;

const NAME: &str = "wire_text_point";
const DEPTS: usize = 60;
const EMPS_PER_DEPT: usize = 12;

pub const SPEC: Spec = Spec {
    name: NAME,
    why: "flagship client path: text query over loopback, tiny result; lang translate, table sync, warm \
          plan cache, reducer post-pass and frame latency are 80 % of an op, exec 20 %, bulk encode almost none",
    ops_per_cycle: 15,
    warmup_cycles: 90,
    setup,
    reference,
};

/// Four shapes (`*` UnNest, `-->` Link, join + restriction), each in
/// three alpha-equivalent phrasings: From-List and conjunct order,
/// operand order of the join condition, path-operator order, keyword
/// case. Theorem 1 gives the phrasings of a shape one graph, so they
/// must share one cached plan and one result.
///
/// The cycle sends every phrasing once, `link_join`'s twice: shapes
/// differ in latency, and with equal weights a cycle's median op falls in
/// the gap between the second and third; doubling the third-slowest
/// puts it inside that shape's mode (see `prepared_cycle`).
const SHAPES: [(&str, [&str; 3]); 4] = [
    (
        "unnest_join",
        [
            "Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.D# = 7",
            "Select All From DEPARTMENT, EMPLOYEE*ChildName \
             Where DEPARTMENT.D# = 7 and EMPLOYEE.D# = DEPARTMENT.D#",
            "SELECT ALL FROM EMPLOYEE*ChildName, DEPARTMENT \
             WHERE DEPARTMENT.D# = EMPLOYEE.D# AND DEPARTMENT.D# = 7",
        ],
    ),
    (
        "link_chain",
        [
            "Select All From DEPARTMENT-->Manager-->Audit \
             Where DEPARTMENT.Location = 'Zurich' and DEPARTMENT.D# < 40",
            "Select All From DEPARTMENT-->Audit-->Manager \
             Where DEPARTMENT.D# < 40 and DEPARTMENT.Location = 'Zurich'",
            "SELECT ALL FROM DEPARTMENT-->Manager-->Audit \
             WHERE DEPARTMENT.D# < 40 AND DEPARTMENT.Location = 'Zurich'",
        ],
    ),
    (
        "unnest_filter",
        [
            "Select All From EMPLOYEE*ChildName Where EMPLOYEE.Rank = 3 and EMPLOYEE.D# < 30",
            "Select All From EMPLOYEE*ChildName Where EMPLOYEE.D# < 30 and EMPLOYEE.Rank = 3",
            "SELECT ALL FROM EMPLOYEE*ChildName WHERE EMPLOYEE.Rank = 3 AND EMPLOYEE.D# < 30",
        ],
    ),
    (
        "link_join",
        [
            "Select All From DEPARTMENT-->Manager, EMPLOYEE \
             Where EMPLOYEE.D# = DEPARTMENT.D# and EMPLOYEE.Rank > 17",
            "Select All From EMPLOYEE, DEPARTMENT-->Manager \
             Where EMPLOYEE.Rank > 17 and EMPLOYEE.D# = DEPARTMENT.D#",
            "SELECT ALL FROM DEPARTMENT-->Manager, EMPLOYEE \
             WHERE DEPARTMENT.D# = EMPLOYEE.D# AND EMPLOYEE.Rank > 17",
        ],
    ),
];

fn world(data_seed: u64) -> EntityDb {
    synthetic_entity_world(DEPTS, EMPS_PER_DEPT, data_seed)
}

fn reference(variant: u64) -> Vec<(String, Digest)> {
    let world = world(data_seed(variant));
    SHAPES
        .iter()
        .map(|(shape, phrasings)| {
            let digests: Vec<Digest> = phrasings
                .iter()
                .map(|src| {
                    let t = translate(&parse(src).expect("parses"), &world).expect("translates");
                    let out = plan_query(&t).expect("plans").eval(&t.database);
                    digest(&out.expect("reference evaluates"))
                })
                .collect();
            assert!(
                digests.iter().all(|d| *d == digests[0]),
                "{shape}: phrasings are not alpha-equivalent"
            );
            ((*shape).to_owned(), digests[0])
        })
        .collect()
}

struct State {
    db: Arc<SharedDb>,
    link: Link,
    /// `(shape, phrasing)` of each op of the cycle, in seeded order.
    ops: Vec<(usize, usize)>,
    expected: Vec<Digest>,
    /// In-process twin of the server's connection session, for the
    /// traced run's shadow pass.
    local: Session,
    world: EntityDb,
}

fn setup(seed: u64, golden: &Golden, _h: &mut Harness) -> Result<Box<dyn Workload>, String> {
    let world = world(data_seed(seed));
    let db = SharedDb::new();
    let opts = ServerOptions {
        edb: Some(world.clone()),
        ..ServerOptions::default()
    };
    let link = Link::open(&db, opts)?;
    let mut ops: Vec<(usize, usize)> = (0..SHAPES.len())
        .flat_map(|s| (0..3).map(move |p| (s, p)))
        .collect();
    let doubled = SHAPES.iter().position(|(shape, _)| *shape == "link_join");
    ops.extend((0..3).map(|p| (doubled.expect("a shape of that name"), p)));
    shuffle(&mut ops, &mut rng(seed, 1));
    let expected = SHAPES
        .iter()
        .map(|(shape, _)| golden.get(NAME, seed % VARIANTS, shape))
        .collect::<Result<_, _>>()?;
    let local = Session::connect(&db).with_entity_db(world.clone());
    Ok(Box::new(State {
        db,
        link,
        ops,
        expected,
        local,
        world,
    }))
}

impl Workload for State {
    fn db(&self) -> &Arc<SharedDb> {
        &self.db
    }

    fn cycle(&mut self, h: &mut Harness, _edge: bool) {
        let before = self.db.snapshot().catalog().cache_stats();
        for &(s, p) in &self.ops {
            let (shape, phrasings) = SHAPES[s];
            let out = h.op("server.roundtrip", shape, || {
                self.link.client().query(phrasings[p])
            });
            h.check(matches!(&out, Ok((rel, _)) if digest(rel) == self.expected[s]));
        }
        if h.traced {
            cache_counts(h, &before, &self.db);
            let (_, _) = h.span(None, "server.ping", || self.link.client().ping());
        }
    }

    fn shadow(&mut self, h: &mut Harness) {
        let (policy, reduce) = (self.local.policy(), self.local.reduce_policy());
        for (i, &(s, p)) in self.ops.iter().enumerate() {
            let root = h.roots[i];
            let src = SHAPES[s].1[p];
            let (prepared, q) = h.span(Some(root), "session.query", || self.local.query(src));
            let prepared = prepared.expect("the root op ran this query");
            // What `Session::query` did inside, call by call.
            let (block, _) = h.span(Some(q), "lang.parse", || parse(src));
            let block = block.expect("parsed before");
            let (t, _) = h.span(Some(q), "lang.translate", || translate(&block, &self.world));
            let t = t.expect("translated before");
            h.add(
                "lang.translate_rows",
                t.database.iter().map(|(_, r)| r.len() as u64).sum(),
            );
            let tree = some_implementing_tree(&t.graph).expect("connected");
            let (_, prepare) = h.span(Some(q), "session.prepare", || self.local.prepare(&tree));
            // ... and what `Session::prepare` did inside.
            let state = self.db.snapshot();
            let (plain, optimize) = h.span(Some(prepare), "core.optimize", || {
                fro::core::optimize_with_reduce(&tree, state.catalog(), policy, ReducePolicy::Never)
            });
            let plain = plain.expect("optimized before");
            let _ = h.span(Some(optimize), "graph.analyze", || {
                (graph_of(&tree).is_ok(), analyze(&tree, policy))
            });
            let _ = h.span(Some(prepare), "core.reduce", || {
                reduce_plan(
                    &plain.plan,
                    state.catalog(),
                    reduce,
                    plain.analysis.graph.as_ref(),
                )
            });
            let (ran, _) = h.span(Some(root), "exec.run", || prepared.run_with_stats());
            let (rel, stats) = ran.expect("ran before");
            exec_counts(h, &stats);
            shadow_result_frames(h, root, &rel, &stats);
        }
    }
}
