//! Property suite for standing queries with incremental delta
//! maintenance:
//!
//! * random append/delete interleavings over every join kind (inner,
//!   left outer, full outer, semi, anti) keep the maintained view
//!   bit-identical — rows, order AND schema — to a cold re-execution
//!   of the same query;
//! * outerjoin bookkeeping retracts the null-padded row the instant
//!   the last matching partner dies, and re-emits it when a match
//!   returns;
//! * empty and all-null inputs are safe: null keys never join, so an
//!   all-null append flows through the delta pipeline without
//!   fabricating matches;
//! * alpha-equivalent registrations (different associations of one
//!   query graph) share a single materialized view;
//! * maintenance counters attribute exactly: with all mutations driven
//!   through session handles, the per-handle sums equal the shared
//!   totals, and the work per append is O(delta), not O(base);
//! * readers pinned across 1, 2 or 5 later appends/deletes to the same
//!   table (one forever) re-read bit-identically, while every view —
//!   after each step and at the end, under one writer and several —
//!   equals the one a reader-free single-threaded replay maintains;
//! * poll results share the view's rows, so results held across 1, 2
//!   or 5 later appends/deletes (one forever) must go on reading what
//!   they read when polled — on every join kind, across a 0→1→0
//!   match-count round trip on the preserved side, and under several
//!   writers — while each fresh poll equals the cold re-execution.

mod common;

use common::{read_tables, Pinned};
use fro::prelude::*;
use fro_algebra::{Pred, Query, Relation, Tuple, Value};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Barrier};
use std::thread;

/// Deterministic xorshift-multiply generator so the interleavings are
/// reproducible without any external crate.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Sort a result into the canonical order standing views serve:
/// distinct rows in ascending tuple order under the same schema.
fn canonical(rel: &Relation) -> Relation {
    let rows: BTreeSet<Tuple> = rel.rows().iter().cloned().collect();
    Relation::from_distinct_rows(rel.schema().clone(), rows.into_iter().collect())
}

/// A poll result kept by its caller, next to a row-by-row copy of what
/// it read when it was polled (the result itself shares the view's
/// rows; the copy shares nothing).
struct HeldPoll {
    result: Relation,
    read: Vec<Tuple>,
}

impl HeldPoll {
    fn hold(result: Relation) -> HeldPoll {
        let read = result.rows().to_vec();
        HeldPoll { result, read }
    }

    fn assert_unchanged(&self, ctx: &str) {
        assert_eq!(self.result.rows(), self.read, "{ctx}: held poll result");
    }
}

fn int_row(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
}

fn null_key_row(payload: i64) -> Tuple {
    Tuple::new(vec![Value::Null, Value::Int(payload)])
}

/// Two-column tables (join key, payload) so null padding is visible.
/// Returns a shadow copy of each table's rows — the test's own model
/// of storage, kept in sync through every append/delete.
fn seed_tables(session: &Session, rng: &mut Lcg, rows_each: usize) -> [Vec<Tuple>; 2] {
    let mut shadows: [Vec<Tuple>; 2] = [Vec::new(), Vec::new()];
    for (slot, name) in ["L", "R"].into_iter().enumerate() {
        let rows: Vec<Vec<i64>> = (0..rows_each)
            .map(|i| vec![rng.below(8) as i64, (i as i64) << 1])
            .collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let key = format!("k{name}");
        let pay = format!("p{name}");
        session.insert_table(name, Relation::from_ints(name, &[&key, &pay], &refs));
        shadows[slot] = rows.iter().map(|r| int_row(r)).collect();
    }
    shadows
}

fn joined(kind: usize) -> Query {
    let p = Pred::eq_attr("L.kL", "R.kR");
    let (l, r) = (Query::rel("L"), Query::rel("R"));
    match kind {
        0 => l.join(r, p),
        1 => l.outerjoin(r, p),
        2 => l.full_outerjoin(r, p),
        3 => l.semijoin(r, p),
        _ => l.antijoin(r, p),
    }
}

const KINDS: [&str; 5] = ["inner", "leftouter", "fullouter", "semi", "anti"];

#[test]
fn random_interleavings_stay_bit_identical_to_reexecution() {
    for (kind, kind_name) in KINDS.iter().enumerate() {
        let db = SharedDb::new();
        let session = db.session();
        let mut rng = Lcg::new(0xF0 + kind as u64);
        let mut shadows = seed_tables(&session, &mut rng, 12);

        let q = joined(kind);
        let reg = session.register_standing(&q).unwrap();
        assert!(!reg.shared, "{kind_name}: first registration");

        let mut next_pay = 1_000;
        for step in 0..40 {
            let slot = (rng.below(2)) as usize;
            let table = ["L", "R"][slot];
            if rng.below(3) < 2 {
                // Append a small batch, sometimes duplicating an
                // existing row (a no-op under set semantics).
                let mut batch = Vec::new();
                for _ in 0..=rng.below(3) {
                    batch.push(int_row(&[rng.below(10) as i64, next_pay]));
                    next_pay += 1;
                }
                if rng.below(4) == 0 {
                    if let Some(t) = shadows[slot].first() {
                        batch.push(t.clone());
                    }
                }
                for t in &batch {
                    if !shadows[slot].contains(t) {
                        shadows[slot].push(t.clone());
                    }
                }
                assert!(session.append_rows(table, batch));
            } else if !shadows[slot].is_empty() {
                // Delete a random existing row (maybe the last
                // match of some partner — exercises retraction).
                let at = rng.below(shadows[slot].len() as u64) as usize;
                let victim = shadows[slot].remove(at);
                assert!(session.delete_rows(table, &[victim]));
            }

            let (view, _) = session.poll_standing(reg.id).unwrap();
            let cold = session.prepare(&q).unwrap().run().unwrap();
            assert_eq!(
                view,
                canonical(&cold),
                "{kind_name}: view diverged at step {step}"
            );
        }
    }
}

#[test]
fn outerjoin_null_rows_retract_when_the_last_match_dies() {
    for kind in [1, 2] {
        // left outer, full outer
        let db = SharedDb::new();
        let session = db.session();
        session.insert_table(
            "L",
            Relation::from_ints("L", &["kL", "pL"], &[&[1, 10], &[2, 20]]),
        );
        session.insert_table("R", Relation::from_ints("R", &["kR", "pR"], &[&[1, 91]]));
        let q = joined(kind);
        let reg = session.register_standing(&q).unwrap();

        let padded = |view: &Relation| {
            view.rows()
                .iter()
                .filter(|t| t.values()[2..].iter().all(|v| *v == Value::Null))
                .count()
        };

        // Every result polled below stays held to the end.
        let mut held: Vec<HeldPoll> = Vec::new();
        let mut poll = || {
            let (view, _) = session.poll_standing(reg.id).unwrap();
            let cold = session.prepare(&q).unwrap().run().unwrap();
            assert_eq!(view, canonical(&cold), "kind {kind}: poll vs cold");
            held.push(HeldPoll::hold(view.clone()));
            view
        };

        let view = poll();
        // L.k=2 has no partner: exactly one null-padded row.
        assert_eq!(padded(&view), 1, "kind {kind}: baseline padding");

        // Kill L.k=1's only partner: its padded row must APPEAR…
        assert!(session.delete_rows("R", &[int_row(&[1, 91])]));
        let view = poll();
        assert_eq!(
            padded(&view),
            2,
            "kind {kind}: padding after last match died"
        );

        // …and a returning match must retract it again.
        assert!(session.append_rows("R", vec![int_row(&[1, 91])]));
        let view = poll();
        assert_eq!(
            padded(&view),
            1,
            "kind {kind}: padding after match returned"
        );

        // The other way round on the preserved row that never had a
        // partner: L.k=2's match count goes 0→1 (padded row retracted)
        // and back 1→0 (re-emitted).
        assert!(session.append_rows("R", vec![int_row(&[2, 92])]));
        let matched = poll();
        assert_eq!(padded(&matched), 0, "kind {kind}: first match arrived");
        assert!(session.delete_rows("R", &[int_row(&[2, 92])]));
        let back = poll();
        assert_eq!(padded(&back), 1, "kind {kind}: padded row re-emitted");
        assert_eq!(back, view, "kind {kind}: round trip");

        // Five results held across all of it: each reads what it read.
        for (i, h) in held.iter().enumerate() {
            h.assert_unchanged(&format!("kind {kind}: poll {i}"));
        }

        // Each poll was served incrementally, never by re-running the
        // plan: only the registration itself counted as a refresh.
        assert_eq!(
            session.maintenance_stats().views_refreshed,
            1,
            "kind {kind}"
        );
    }
}

#[test]
fn empty_and_all_null_inputs_never_fabricate_matches() {
    for (kind, kind_name) in KINDS.iter().enumerate() {
        let db = SharedDb::new();
        let session = db.session();
        // Empty left, all-null-key right.
        session.insert_table("L", Relation::from_ints("L", &["kL", "pL"], &[]));
        session.insert_table(
            "R",
            Relation::from_values("R", &["kR", "pR"], vec![null_key_row(7).values().to_vec()]),
        );
        let q = joined(kind);
        let reg = session.register_standing(&q).unwrap();

        // Null keys never join; appends of null-key rows on either
        // side flow through the delta path without inventing matches.
        assert!(session.append_rows("L", vec![null_key_row(1), null_key_row(2)]));
        assert!(session.append_rows("R", vec![null_key_row(8)]));
        let (view, _) = session.poll_standing(reg.id).unwrap();
        let cold = session.prepare(&q).unwrap().run().unwrap();
        assert_eq!(view, canonical(&cold), "kind {kind_name}");

        // Deleting back to empty also matches re-execution.
        assert!(session.delete_rows("L", &[null_key_row(1), null_key_row(2)]));
        let (view, _) = session.poll_standing(reg.id).unwrap();
        let cold = session.prepare(&q).unwrap().run().unwrap();
        assert_eq!(view, canonical(&cold), "kind {kind_name} after delete");
    }
}

#[test]
fn alpha_equivalent_registrations_share_one_view_across_sessions() {
    let db = SharedDb::new();
    let a = db.session();
    a.insert_table("R1", Relation::from_ints("R1", &["k1"], &[&[0], &[1]]));
    a.insert_table("R2", Relation::from_ints("R2", &["k2"], &[&[0], &[2]]));
    a.insert_table("R3", Relation::from_ints("R3", &["k3"], &[&[0], &[3]]));
    let p12 = Pred::eq_attr("R1.k1", "R2.k2");
    let p23 = Pred::eq_attr("R2.k2", "R3.k3");
    let left_assoc = Query::rel("R1")
        .join(Query::rel("R2"), p12.clone())
        .join(Query::rel("R3"), p23.clone());
    let right_assoc = Query::rel("R1").join(Query::rel("R2").join(Query::rel("R3"), p23), p12);

    let first = a.register_standing(&left_assoc).unwrap();
    let b = db.session();
    let second = b.register_standing(&right_assoc).unwrap();

    // Theorem 1: one query graph, one signature, ONE materialization.
    assert_eq!(first.id, second.id);
    assert!(!first.shared);
    assert!(second.shared);
    let info = db.standing_info(first.id).unwrap();
    assert_eq!(info.subscribers, 2);
    assert_eq!(db.standing_counters().registered, 1);
    assert_eq!(db.standing_counters().shared_hits, 1);

    // Both subscribers observe maintenance driven from either handle.
    assert!(b.append_rows("R3", vec![int_row(&[2])]));
    let (va, _) = a.poll_standing(first.id).unwrap();
    let (vb, _) = b.poll_standing(second.id).unwrap();
    assert_eq!(va, vb);
    let cold = a.prepare(&left_assoc).unwrap().run().unwrap();
    assert_eq!(va, canonical(&cold));
}

#[test]
fn concurrent_appends_from_many_handles_converge_and_counters_sum() {
    for threads in [1usize, 2, 8] {
        let db = SharedDb::new();
        let setup = db.session();
        let mut rng = Lcg::new(threads as u64);
        seed_tables(&setup, &mut rng, 8);
        let q = joined(1); // left outer: padding makes divergence loud
        let reg = setup.register_standing(&q).unwrap();

        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let session = db.session();
                    let mut rng = Lcg::new((t as u64) << 7 | 3);
                    barrier.wait();
                    for i in 0..12 {
                        let table = if rng.below(2) == 0 { "L" } else { "R" };
                        // Unique payload per (thread, step): every row
                        // is novel, so each lands in exactly one delta.
                        let pay = 10_000 + (t * 1_000 + i) as i64;
                        assert!(
                            session.append_rows(table, vec![int_row(&[rng.below(9) as i64, pay])])
                        );
                        if i % 4 == 3 {
                            let (view, _) = session.poll_standing(reg.id).unwrap();
                            assert!(view.schema().attrs().len() == 4);
                        }
                    }
                    session.local_maintenance_stats()
                })
            })
            .collect();
        let locals: Vec<ExecStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Quiesced: the view equals a cold re-execution of the final
        // state, whatever the interleaving was.
        let (view, _) = setup.poll_standing(reg.id).unwrap();
        let cold = setup.prepare(&q).unwrap().run().unwrap();
        assert_eq!(view, canonical(&cold), "{threads} threads");

        // Per-handle maintenance counters sum to the shared totals.
        let mut sum = setup.local_maintenance_stats();
        for l in &locals {
            sum.merge(l);
        }
        let total = setup.maintenance_stats();
        assert_eq!(sum.delta_rows_in, total.delta_rows_in, "{threads} threads");
        assert_eq!(
            sum.delta_rows_out, total.delta_rows_out,
            "{threads} threads"
        );
        assert_eq!(
            sum.views_refreshed, total.views_refreshed,
            "{threads} threads"
        );
    }
}

#[test]
fn maintenance_work_is_proportional_to_the_delta_not_the_base() {
    let db = SharedDb::new();
    let session = db.session();
    const BASE: i64 = 4_000;
    let l_rows: Vec<Vec<i64>> = (0..BASE).map(|i| vec![i % 97, i]).collect();
    let r_rows: Vec<Vec<i64>> = (0..BASE).map(|i| vec![i % 97, i + BASE]).collect();
    let l_refs: Vec<&[i64]> = l_rows.iter().map(Vec::as_slice).collect();
    let r_refs: Vec<&[i64]> = r_rows.iter().map(Vec::as_slice).collect();
    session.insert_table("L", Relation::from_ints("L", &["kL", "pL"], &l_refs));
    session.insert_table("R", Relation::from_ints("R", &["kR", "pR"], &r_refs));

    let q = joined(0);
    let reg = session.register_standing(&q).unwrap();
    let before = session.maintenance_stats();

    // One appended row: the delta the pipeline ingests must be O(1)
    // per node — nowhere near the 4000-row base.
    assert!(session.append_rows("L", vec![int_row(&[5, 900_000])]));
    let (_, _) = session.poll_standing(reg.id).unwrap();
    let after = session.maintenance_stats();
    let ingested = after.delta_rows_in - before.delta_rows_in;
    assert!(ingested >= 1, "the delta actually flowed");
    assert!(
        ingested < BASE as u64 / 10,
        "delta_rows_in {ingested} looks O(base), not O(delta)"
    );
    assert_eq!(
        after.views_refreshed, before.views_refreshed,
        "the append was absorbed incrementally, not by re-running"
    );
}

/// A seeded append (two or three rows, one of them maybe stored
/// already) or delete (a row an earlier append stored) on `L` or `R`.
fn random_mutation(session: &Session, rng: &mut Lcg, appended: &mut [Vec<Tuple>; 2], pay: i64) {
    let slot = rng.below(2) as usize;
    let table = ["L", "R"][slot];
    if rng.below(4) == 0 && !appended[slot].is_empty() {
        let at = rng.below(appended[slot].len() as u64) as usize;
        let victim = appended[slot].remove(at);
        assert!(session.delete_rows(table, &[victim]));
        return;
    }
    let mut batch = vec![
        int_row(&[rng.below(10) as i64, pay]),
        int_row(&[rng.below(10) as i64, pay + 1]),
    ];
    appended[slot].extend(batch.iter().cloned());
    if let Some(t) = appended[slot].first() {
        batch.push(t.clone());
    }
    assert!(session.append_rows(table, batch));
}

#[test]
fn views_under_pinned_readers_equal_a_reader_free_replay() {
    for (kind, kind_name) in KINDS.iter().enumerate() {
        let q = joined(kind);
        // Two databases run one script; only the first has readers.
        let side = || {
            let session = SharedDb::new().session();
            let mut rng = Lcg::new(0xA7 + kind as u64);
            seed_tables(&session, &mut rng, 16);
            let id = session.register_standing(&q).unwrap().id;
            (session, id, rng, [Vec::new(), Vec::new()])
        };
        let (pinned, view, mut rng, mut appended) = side();
        let (replay, replay_view, mut replay_rng, mut replayed) = side();

        let forever = Pinned::pin(&pinned, &q);
        let mut held: VecDeque<(usize, Pinned)> = VecDeque::new();
        // Poll results are kept the same way: one forever, the others
        // across the next 1, 2 or 5 mutations.
        let first_poll = HeldPoll::hold(pinned.poll_standing(view).unwrap().0);
        let mut held_polls: VecDeque<(usize, HeldPoll)> = VecDeque::new();
        for step in 0..45 {
            held.push_back((step + [1, 2, 5][step % 3], Pinned::pin(&pinned, &q)));
            let pay = 1_000 + 2 * step as i64;
            random_mutation(&pinned, &mut rng, &mut appended, pay);
            random_mutation(&replay, &mut replay_rng, &mut replayed, pay);

            forever.assert_unchanged(&format!("{kind_name}: forever pin, step {step}"));
            for (until, pin) in &held {
                pin.assert_unchanged(&format!("{kind_name}: pin due at {until}, step {step}"));
            }
            held.retain(|(until, _)| *until > step + 1);

            let (got, _) = pinned.poll_standing(view).unwrap();
            let (want, _) = replay.poll_standing(replay_view).unwrap();
            assert_eq!(got, want, "{kind_name}: view vs replay at step {step}");
            let cold = pinned.prepare(&q).unwrap().run().unwrap();
            assert_eq!(
                got,
                canonical(&cold),
                "{kind_name}: view vs cold at step {step}"
            );

            first_poll.assert_unchanged(&format!("{kind_name}: first poll, step {step}"));
            for (until, poll) in &held_polls {
                poll.assert_unchanged(&format!("{kind_name}: poll due at {until}, step {step}"));
            }
            held_polls.retain(|(until, _)| *until > step + 1);
            held_polls.push_back((step + 1 + [1, 2, 5][step % 3], HeldPoll::hold(got)));
        }
        // The replay's results were dropped at once, so it merged every
        // change in place; here some poll always found an earlier
        // result still on the rendering and copied first.
        let (here, there) = (
            pinned.shared().standing_counters(),
            replay.shared().standing_counters(),
        );
        assert_eq!(there.polls_copied, 0, "{kind_name}: {there:?}");
        assert!(here.polls_copied > 0, "{kind_name}: {here:?}");
        assert_eq!(
            here.polls_copied + here.polls_merged,
            there.polls_merged,
            "{kind_name}: {here:?} vs {there:?}"
        );
        assert_eq!(
            read_tables(&pinned.shared().snapshot()),
            read_tables(&replay.shared().snapshot()),
            "{kind_name}: final tables"
        );
        // No mutation forced a view to re-execute on either side.
        assert_eq!(pinned.maintenance_stats().views_refreshed, 1, "{kind_name}");
        let paths = pinned.shared().append_paths();
        assert_eq!(paths.in_place, 0, "{kind_name}: {paths:?}");
        assert!(paths.recycled > 0, "{kind_name}: {paths:?}");
    }
}

#[test]
fn views_converge_under_several_writers_with_pinned_readers() {
    for writers in [2usize, 4] {
        let q = joined(1); // left outer: padding makes divergence loud
        let rows_of = |t: usize| -> Vec<Tuple> {
            (0..12)
                .map(|i| int_row(&[((t + i) % 9) as i64, (10_000 + t * 1_000 + i) as i64]))
                .collect()
        };
        let db = SharedDb::new();
        let setup = db.session();
        seed_tables(&setup, &mut Lcg::new(writers as u64), 16);
        let view = setup.register_standing(&q).unwrap().id;
        let forever = Pinned::pin(&setup, &q);
        let first_poll = HeldPoll::hold(setup.poll_standing(view).unwrap().0);

        let barrier = Arc::new(Barrier::new(writers));
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let (db, barrier, q) = (Arc::clone(&db), Arc::clone(&barrier), q.clone());
                let rows = rows_of(t);
                thread::spawn(move || {
                    let session = db.session();
                    let mut held: VecDeque<(usize, Pinned)> = VecDeque::new();
                    let mut held_polls: VecDeque<(usize, HeldPoll)> = VecDeque::new();
                    barrier.wait();
                    for (i, row) in rows.iter().enumerate() {
                        let keep = i + [1, 2, 5][(t + i) % 3];
                        held.push_back((keep, Pinned::pin(&session, &q)));
                        // Other writers move the view on between this
                        // poll and the checks below; the result may not.
                        let (polled, _) = session.poll_standing(view).unwrap();
                        assert!(
                            polled.rows().windows(2).all(|w| w[0] < w[1]),
                            "writer {t}, step {i}: canonical order"
                        );
                        held_polls.push_back((keep, HeldPoll::hold(polled)));
                        // All writers append to the same table; every
                        // fourth write retracts the writer's last row.
                        assert!(session.append_rows("R", vec![row.clone()]));
                        if i % 4 == 3 {
                            assert!(session.delete_rows("R", &[rows[i - 1].clone()]));
                        }
                        for (until, pin) in &held {
                            pin.assert_unchanged(&format!(
                                "writer {t}: pin due at {until}, step {i}"
                            ));
                        }
                        for (until, poll) in &held_polls {
                            poll.assert_unchanged(&format!(
                                "writer {t}: poll due at {until}, step {i}"
                            ));
                        }
                        held.retain(|(until, _)| *until > i + 1);
                        held_polls.retain(|(until, _)| *until > i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        forever.assert_unchanged("forever pin after all writers");
        first_poll.assert_unchanged("first poll after all writers");

        // Single-threaded, reader-free replay of the same writes.
        let replay = SharedDb::new().session();
        seed_tables(&replay, &mut Lcg::new(writers as u64), 16);
        let replay_view = replay.register_standing(&q).unwrap().id;
        for t in 0..writers {
            let rows = rows_of(t);
            for (i, row) in rows.iter().enumerate() {
                assert!(replay.append_rows("R", vec![row.clone()]));
                if i % 4 == 3 {
                    assert!(replay.delete_rows("R", &[rows[i - 1].clone()]));
                }
            }
        }
        let (got, _) = setup.poll_standing(view).unwrap();
        let (want, _) = replay.poll_standing(replay_view).unwrap();
        assert_eq!(got, want, "{writers} writers: view vs replay");
        let cold = setup.prepare(&q).unwrap().run().unwrap();
        assert_eq!(got, canonical(&cold), "{writers} writers: view vs cold");
    }
}
