//! `ingest_pinned`: writes beside reads — appends while a snapshot is
//! held, standing-view fan-out, polls, and a delete that restores the
//! table, so every cycle starts from the same state.

use super::{load, reference_digests, rng, Spec, Workload, VARIANTS};
use crate::alloc;
use crate::digest::{digest, Digest, Golden};
use crate::harness::Harness;
use fro::algebra::{Pred, Query, Relation, Tuple, Value};
use fro::exec::Storage;
use fro::{Session, SharedDb, StandingId};
use fro_testkit::workloads::{star, StarParams};
use rand::Rng;
use std::sync::Arc;

const NAME: &str = "ingest_pinned";

pub const SPEC: Spec = Spec {
    name: NAME,
    why: "8-row appends while a snapshot is held (copy-on-write clone), fan-out to two standing views, \
          polls, a restoring delete: shared, storage, standing, exec::delta; pinned appends are O(database) today",
    ops_per_cycle: 12,
    warmup_cycles: 34,
    setup,
    reference,
};

/// snowflake7-skew at 5 000 fact rows.
const SNOWFLAKE: StarParams = StarParams {
    dims: 3,
    match_keys: 200,
    good_rows: 2_000,
    hot_keys: 50,
    hot_dup: 20,
    junk_rows: 1_000,
    wide_keys: 100,
    snowflake: true,
};

const APPENDS: usize = 8;
const ROWS_PER_APPEND: usize = 8;
/// `star` puts the last dimension's never-matched keys here.
const WIDE_KEY_BASE: i64 = 50_000_000;

/// The two standing views: the inner snowflake, and `D3 ⟕ F` — `D3`
/// carries keys no fact row matches, so an append that hits one takes
/// its match count 0→1 (the null-padded row is retracted) and the
/// cycle's delete takes it back 1→0 (re-emitted).
fn views() -> (Storage, [(&'static str, Query); 2]) {
    let (storage, _, snowflake) = star(&SNOWFLAKE);
    let preserved = Query::rel("D3").outerjoin(Query::rel("F"), Pred::eq_attr("F.d3", "D3.k"));
    (
        storage,
        [("view_star", snowflake), ("view_outer", preserved)],
    )
}

fn reference(_variant: u64) -> Vec<(String, Digest)> {
    // `star` is seedless: every variant shares one base state.
    let (storage, views) = views();
    reference_digests(&storage.to_database(), views)
}

/// The cycle's 64 fact rows, in append batches: half land in the match
/// domain, half on `D3`'s never-matched keys; `v` is unique and outside
/// the generated range, so no row is absorbed as a duplicate.
fn batches(seed: u64) -> Vec<Vec<Tuple>> {
    let mut rng = rng(seed, 3);
    let keys = SNOWFLAKE.match_keys as i64;
    (0..APPENDS)
        .map(|a| {
            (0..ROWS_PER_APPEND)
                .map(|r| {
                    let d3 = if r % 2 == 0 {
                        rng.gen_range(0..keys)
                    } else {
                        WIDE_KEY_BASE + rng.gen_range(0..SNOWFLAKE.wide_keys as i64)
                    };
                    Tuple::new(vec![
                        Value::Int(rng.gen_range(0..keys)),
                        Value::Int(rng.gen_range(0..keys)),
                        Value::Int(d3),
                        Value::Int(1_000_000 + (a * ROWS_PER_APPEND + r) as i64),
                    ])
                })
                .collect()
        })
        .collect()
}

/// A database with both views registered.
struct Side {
    session: Session,
    views: Vec<(StandingId, Query, Digest)>,
}

fn side(seed: u64, golden: &Golden, h: &mut Harness) -> Result<Side, String> {
    let (storage, queries) = views();
    let session = Session::new();
    load(&session, &storage, &mut rng(seed, 1));
    let mut views = Vec::new();
    for (shape, q) in queries {
        let (reg, _) = h.span(None, "standing.register", || session.register_standing(&q));
        let reg = reg.map_err(|e| format!("{shape}: {e}"))?;
        views.push((reg.id, q, golden.get(NAME, seed % VARIANTS, shape)?));
    }
    Ok(Side { session, views })
}

struct State {
    main: Side,
    batches: Vec<Vec<Tuple>>,
    all_rows: Vec<Tuple>,
    /// Traced runs only: a twin database appended to with no snapshot
    /// held, and a bare `Storage` copy with the base fact table, for
    /// the shadow pass.
    shadow: Option<(Side, Storage, Relation)>,
}

fn setup(seed: u64, golden: &Golden, h: &mut Harness) -> Result<Box<dyn Workload>, String> {
    let main = side(seed, golden, h)?;
    let batches = batches(seed);
    let all_rows = batches.iter().flatten().cloned().collect();
    let shadow = if h.traced {
        let twin = side(seed, golden, &mut Harness::new(false))?;
        let state = main.session.shared().snapshot();
        let storage = state.storage().clone();
        let fact = storage
            .iter()
            .find(|(name, _)| *name == "F")
            .map(|(_, t)| t.relation().clone())
            .ok_or("no fact table")?;
        Some((twin, storage, fact))
    } else {
        None
    };
    Ok(Box::new(State {
        main,
        batches,
        all_rows,
        shadow,
    }))
}

impl State {
    /// Poll one view as an op and check it: against the golden digest
    /// when the table is in its base state, else (edge cycles only)
    /// against re-executing the view's query on the current data.
    fn poll(&self, h: &mut Harness, view: usize, at_base: bool, edge: bool) {
        let (id, query, golden) = &self.main.views[view];
        let out = h.op("standing.poll", "poll", || {
            self.main.session.poll_standing(*id)
        });
        let expected = if at_base {
            Some(*golden)
        } else if edge {
            let cold = self.main.session.prepare(query).and_then(|p| p.run());
            cold.ok().map(|rel| digest(&rel))
        } else {
            None
        };
        h.check(match (&out, expected) {
            (Ok((rel, _)), Some(e)) => digest(rel) == e,
            (Ok(_), None) => true,
            (Err(_), _) => false,
        });
    }
}

impl Workload for State {
    fn db(&self) -> &Arc<SharedDb> {
        self.main.session.shared()
    }

    fn cycle(&mut self, h: &mut Harness, edge: bool) {
        let db = Arc::clone(self.db());
        let refreshed_before = h
            .traced
            .then(|| self.main.session.maintenance_stats().views_refreshed);
        for (a, batch) in self.batches.iter().enumerate() {
            let rows = batch.clone();
            let before = h
                .traced
                .then(|| (self.main.session.maintenance_stats(), alloc::snapshot()));
            // What any in-flight query does: hold a snapshot across the
            // write, release it after.
            let ok = h.op("shared.append_pinned", "append", || {
                let pin = db.snapshot();
                let ok = db.append_rows("F", rows);
                drop(pin);
                ok
            });
            h.check(ok);
            if let Some((m0, a0)) = before {
                let (m1, a1) = (self.main.session.maintenance_stats(), alloc::snapshot());
                h.add("shared.pinned_alloc_bytes", a1.bytes - a0.bytes);
                h.add(
                    "standing.delta_rows_in",
                    m1.delta_rows_in - m0.delta_rows_in,
                );
            }
            match a {
                2 => self.poll(h, 0, false, edge),
                5 => self.poll(h, 1, false, edge),
                _ => {}
            }
        }
        let ok = h.op("shared.delete", "delete", || {
            db.delete_rows("F", &self.all_rows)
        });
        h.check(ok);
        self.poll(h, 1, true, edge);
        if edge {
            // The other view's base state, outside the cycle's ops.
            let (id, _, golden) = &self.main.views[0];
            let polled = self.main.session.poll_standing(*id);
            h.check(polled.is_ok_and(|(rel, _)| digest(&rel) == *golden));
        }
        if let Some(before) = refreshed_before {
            let after = self.main.session.maintenance_stats().views_refreshed;
            h.add("standing.views_refreshed", after - before);
        }
    }

    fn shadow(&mut self, h: &mut Harness) {
        let Some((twin, storage, fact)) = &mut self.shadow else {
            return;
        };
        let twin_db = Arc::clone(twin.session.shared());
        let appends: Vec<u32> = h
            .roots
            .iter()
            .copied()
            .filter(|&r| h.spans[r as usize].name == "shared.append_pinned")
            .collect();
        for (batch, root) in self.batches.iter().zip(appends) {
            let (rows, copy) = (batch.clone(), batch.clone());
            let (_, unpinned) = h.span(Some(root), "shared.append_unpinned", || {
                twin_db.append_rows("F", rows)
            });
            let _ = h.span(Some(unpinned), "storage.append", || {
                storage.append_rows("F", copy)
            });
        }
        let delete = *h
            .roots
            .iter()
            .find(|&&r| h.spans[r as usize].name == "shared.delete")
            .expect("the cycle deletes once");
        twin_db.delete_rows("F", &self.all_rows);
        // `delete_rows` rebuilds the table from the surviving rows.
        let base = fact.clone();
        let rows = base.len() as u64;
        let _ = h.span(Some(delete), "storage.insert", || {
            storage.insert("F", base);
        });
        h.add("storage.insert_rows", rows);
    }
}
