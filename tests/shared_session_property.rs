//! Concurrency invariants of the shared-catalog session architecture:
//! T threads interleaving queries and mutations against one
//! [`SharedDb`] must behave exactly like some single-threaded
//! execution —
//!
//! * concurrent warm queries return results bit-identical to a
//!   single-session run (and alpha-equivalent associations share the
//!   cached plan across threads);
//! * barriered mutate→query rounds reproduce a single-threaded replay
//!   bit for bit;
//! * an unsynchronized mutator flipping two joined tables *atomically*
//!   can never produce a torn read: every concurrent result equals one
//!   of the per-generation expected results, never a mix;
//! * epoch bumps invalidate across threads — after a statistics
//!   change, no thread's next prepare is served the stale plan;
//! * per-session cache counters merge sanely: the sum over handles
//!   equals the shared cumulative stats — also for plans made on a
//!   generation that a mutation has since replaced;
//! * pinned readers are undisturbed: a snapshot or `Prepared` held
//!   across 1, 2 or 5 later appends/deletes to the same table (one
//!   held forever) re-reads bit-identically what it read when it
//!   pinned, while the final state equals a single-threaded replay —
//!   under one writer and under several.

mod common;

use common::{read_tables, Pinned};
use fro::prelude::*;
use fro_algebra::{Pred, Query, Relation, Tuple, Value};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 8;

/// Three joined tables; `variant` 0/1/2 picks an association of the
/// same query graph, so all variants are alpha-equivalent (Theorem 1:
/// one signature, one cache entry).
fn chain_query(variant: usize) -> Query {
    let p12 = Pred::eq_attr("R1.k1", "R2.k2");
    let p23 = Pred::eq_attr("R2.k2", "R3.k3");
    match variant % 3 {
        0 => Query::rel("R1")
            .join(Query::rel("R2"), p12)
            .join(Query::rel("R3"), p23),
        1 => Query::rel("R1").join(Query::rel("R2").join(Query::rel("R3"), p23), p12),
        _ => Query::rel("R2")
            .join(Query::rel("R1"), p12)
            .join(Query::rel("R3"), p23),
    }
}

fn chain_tables(db: &Arc<SharedDb>, scale: i64) {
    let table = |name: &str, col: &str, lo: i64, hi: i64| {
        let rows: Vec<Vec<i64>> = (lo..hi).map(|v| vec![v]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        Relation::from_ints(name, &[col], &refs)
    };
    db.insert_table("R1", table("R1", "k1", 0, 4 + scale));
    db.insert_table("R2", table("R2", "k2", 2, 8 + scale));
    db.insert_table("R3", table("R3", "k3", 5, 11 + scale));
}

#[test]
fn concurrent_warm_queries_are_bit_identical_to_single_session() {
    let db = SharedDb::new();
    chain_tables(&db, 0);

    // Single-session expectations, one per association.
    let reference = db.session();
    let expected: Vec<Relation> = (0..3)
        .map(|v| reference.prepare(&chain_query(v)).unwrap().run().unwrap())
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let session = db.session();
                barrier.wait();
                for i in 0..24 {
                    let v = (t + i) % 3;
                    let out = session.prepare(&chain_query(v)).unwrap().run().unwrap();
                    assert_eq!(out, expected[v], "thread {t} iteration {i}");
                }
                session.local_cache_stats()
            })
        })
        .collect();
    let locals: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every association shares ONE signature, so across 8×24 warm
    // lookups virtually everything hits; only the races on the very
    // first optimization of each subset can miss.
    let hits: u64 = locals.iter().map(|l| l.hits).sum();
    let misses: u64 = locals.iter().map(|l| l.misses).sum();
    assert!(
        hits as f64 / (hits + misses) as f64 > 0.9,
        "warm hit rate too low: {hits} hits / {misses} misses"
    );
}

#[test]
fn counters_merge_sanely_across_handles() {
    let db = SharedDb::new();
    chain_tables(&db, 0);
    let sessions: Vec<_> = (0..4).map(|_| db.session()).collect();
    for (i, s) in sessions.iter().enumerate() {
        for v in 0..3 {
            let _ = s.prepare(&chain_query((v + i) % 3)).unwrap();
        }
    }
    // With a quiescent catalog (no mutations since the handles
    // connected), the shared cumulative counters are exactly the sum
    // of the per-handle counters.
    let total = sessions[0].cache_stats();
    let sum = sessions.iter().fold(CacheStats::default(), |mut acc, s| {
        acc.merge(&s.local_cache_stats());
        acc
    });
    assert_eq!(total.hits, sum.hits);
    assert_eq!(total.misses, sum.misses);
    assert_eq!(total.stale, sum.stale);
}

#[test]
fn barriered_mutation_rounds_match_single_threaded_replay() {
    const ROUNDS: usize = 6;

    // Replay the same script single-threaded to get the expectations.
    let replay_db = SharedDb::new();
    chain_tables(&replay_db, 0);
    let replay = replay_db.session();
    let expected: Vec<Relation> = (0..ROUNDS)
        .map(|r| {
            chain_tables(&replay_db, r as i64 + 1);
            replay.prepare(&chain_query(0)).unwrap().run().unwrap()
        })
        .collect();

    let db = SharedDb::new();
    chain_tables(&db, 0);
    // Two barrier points per round: after the mutation (thread 0) and
    // after every thread's read, so round r reads see exactly the
    // r-th mutation.
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let expected = expected.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let session = db.session();
                for (r, want) in expected.iter().enumerate() {
                    if t == 0 {
                        chain_tables(&db, r as i64 + 1);
                    }
                    barrier.wait();
                    let out = session.prepare(&chain_query(0)).unwrap().run().unwrap();
                    assert_eq!(&out, want, "thread {t} round {r}");
                    barrier.wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn atomic_two_table_flips_are_never_observed_torn() {
    const GENERATIONS: i64 = 8;

    // Expected result per generation, each computed on its own fresh
    // database (same stats ⇒ same plan ⇒ bit-identical rows).
    let expected: Vec<Relation> = (0..=GENERATIONS)
        .map(|g| {
            let db = SharedDb::new();
            chain_tables(&db, g);
            db.session()
                .prepare(&chain_query(0))
                .unwrap()
                .run()
                .unwrap()
        })
        .collect();

    let db = SharedDb::new();
    chain_tables(&db, 0);
    let start = Arc::new(Barrier::new(THREADS + 1));
    let readers: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let expected = expected.clone();
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let session = db.session();
                start.wait();
                for i in 0..40 {
                    let out = session.prepare(&chain_query(0)).unwrap().run().unwrap();
                    // No torn reads: the result is some generation's,
                    // with all three tables from the SAME generation.
                    assert!(
                        expected.contains(&out),
                        "thread {t} iteration {i}: result matches no generation \
                         ({} rows)",
                        out.len()
                    );
                }
            })
        })
        .collect();
    // The mutator replaces all three joined tables in ONE atomic
    // generation bump, racing the readers without any barrier.
    start.wait();
    for g in 1..=GENERATIONS {
        chain_tables(&db, g);
        std::thread::yield_now();
    }
    for h in readers {
        h.join().unwrap();
    }
}

#[test]
fn epoch_bumps_invalidate_across_threads() {
    let db = SharedDb::new();
    chain_tables(&db, 0);
    let warmup = db.session();
    let _ = warmup.prepare(&chain_query(0)).unwrap();
    let warm = warmup.prepare(&chain_query(0)).unwrap();
    assert_eq!(warm.optimized().pairs_examined, 0, "cache warm before");

    // A statistics mutation from one handle…
    db.set_distinct(&fro_algebra::Attr::parse("R2.k2"), 1_000_000);

    // …must force EVERY thread's next prepare to re-plan: nobody is
    // served the plan costed under the dead statistics.
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let session = db.session();
                let p = session.prepare(&chain_query(0)).unwrap();
                let local = session.local_cache_stats();
                (p.optimized().cache.hits, local.stale + local.misses)
            })
        })
        .collect();
    let mut replans = 0;
    for h in handles {
        let (hits, missed) = h.join().unwrap();
        // Either this thread re-planned itself (miss/stale) or it hit
        // a plan some sibling already re-planned at the NEW epoch —
        // both fine; a hit on the old epoch is impossible because the
        // lookup is epoch-checked.
        if missed > 0 {
            replans += 1;
        } else {
            assert!(hits >= 1);
        }
    }
    assert!(replans >= 1, "at least the first thread re-plans");
}

#[test]
fn counters_sum_exactly_across_a_mutation() {
    let db = SharedDb::new();
    chain_tables(&db, 0);
    let (a, b) = (db.session(), db.session());
    let _ = a.prepare(&chain_query(0)).unwrap();
    // `old` pins the generation the mutation below replaces; planning
    // through it afterwards must still land in the one shared cache.
    let old = a.catalog();
    assert!(db.append_rows("R3", vec![Tuple::new(vec![Value::Int(77)])]));
    let on_old = optimize(&chain_query(1), &old, Policy::Paper).unwrap();
    assert!(on_old.cache.hits + on_old.cache.misses > 0);
    let _ = b.prepare(&chain_query(2)).unwrap();

    let total = b.cache_stats();
    let mut sum = on_old.cache;
    sum.merge(&a.local_cache_stats());
    sum.merge(&b.local_cache_stats());
    assert_eq!(total.hits, sum.hits);
    assert_eq!(total.misses, sum.misses);
    assert_eq!(total.stale, sum.stale);
}

fn ints(values: impl IntoIterator<Item = i64>) -> Vec<Tuple> {
    values
        .into_iter()
        .map(|v| Tuple::new(vec![Value::Int(v)]))
        .collect()
}

/// Step `i` of the single-writer script: mostly appends to `R2` (some
/// rows duplicating stored ones), now and then a delete of rows an
/// earlier step appended, or an append to another table.
fn scripted_step(db: &SharedDb, i: i64) {
    match i % 7 {
        3 => assert!(db.delete_rows("R2", &ints([100 + (i - 2) * 4, 100 + (i - 3) * 4 + 1]))),
        5 => assert!(db.append_rows("R3", ints([200 + i]))),
        _ => assert!(db.append_rows("R2", ints([100 + i * 4, 100 + i * 4 + 1, 3, 100 + i * 4]))),
    }
}

/// The chain tables with a hash index on `R2.k2` — the table the
/// pinned-reader schedules write — so every read below goes through an
/// `IndexJoin` into it, and every write (in place, recycled or copied,
/// append or delete) has to hand on a working index.
fn indexed_chain_tables() -> Arc<SharedDb> {
    let db = SharedDb::new();
    chain_tables(&db, 6);
    assert!(db.create_index("R2", &[fro_algebra::Attr::parse("R2.k2")]));
    let plan = db.session().prepare(&chain_query(0)).unwrap();
    assert!(
        plan.plan().explain().contains("IndexJoin(inner) R2"),
        "{}",
        plan.plan().explain()
    );
    db
}

fn assert_same_state(a: &SharedDb, b: &SharedDb, ctx: &str) {
    let (a, b) = (a.snapshot(), b.snapshot());
    assert_eq!(read_tables(&a), read_tables(&b), "{ctx}: rows");
    for name in ["R1", "R2", "R3"] {
        let (ta, tb) = (
            a.catalog().table(name).unwrap(),
            b.catalog().table(name).unwrap(),
        );
        assert_eq!(ta.rows, tb.rows, "{ctx}: {name} row count");
        for attr in ta.schema.attrs() {
            assert_eq!(ta.distinct_of(attr), tb.distinct_of(attr), "{ctx}: {attr}");
        }
    }
}

#[test]
fn pinned_readers_reread_identically_while_one_writer_moves_on() {
    const STEPS: i64 = 60;
    // The same script with no reader in sight.
    let replay = indexed_chain_tables();
    for i in 0..STEPS {
        scripted_step(&replay, i);
    }

    let db = indexed_chain_tables();
    let session = db.session();
    let forever = Pinned::pin(&session, &chain_query(0));
    let mut held: VecDeque<(i64, Pinned)> = VecDeque::new();
    for i in 0..STEPS {
        // Held across the next 1, 2 or 5 writes.
        held.push_back((
            i + [1, 2, 5][i as usize % 3],
            Pinned::pin(&session, &chain_query(0)),
        ));
        scripted_step(&db, i);
        forever.assert_unchanged(&format!("forever pin after step {i}"));
        for (until, pin) in &held {
            pin.assert_unchanged(&format!("pin due at {until} after step {i}"));
        }
        held.retain(|(until, _)| *until > i + 1);
    }
    let assert_same_reads = |ctx: &str| {
        assert_same_state(&db, &replay, ctx);
        let fresh = session.prepare(&chain_query(0)).unwrap().run().unwrap();
        let replayed = replay.session().prepare(&chain_query(0)).unwrap();
        assert_eq!(fresh, replayed.run().unwrap(), "{ctx}");
    };
    assert_same_reads("pinned run vs replay");
    // Every write ran beside a reader; some found the copy the
    // previous one retired free again, some found a pin still on it —
    // appends and deletes alike.
    let paths = db.append_paths();
    assert_eq!(paths.in_place + paths.deleted_in_place, 0, "{paths:?}");
    assert!(paths.recycled > 0 && paths.copied > 0, "{paths:?}");
    assert!(
        paths.deleted_recycled > 0 && paths.deleted_copied > 0,
        "{paths:?}"
    );
    // With the short-lived readers gone the script goes on in place
    // (the forever pin holds the first generation's tables, not these).
    drop(held);
    for i in STEPS..STEPS + 7 {
        scripted_step(&db, i);
        scripted_step(&replay, i);
    }
    forever.assert_unchanged("forever pin after the unpinned steps");
    assert_same_reads("unpinned steps vs replay");
    let paths = db.append_paths();
    assert!(
        paths.in_place > 0 && paths.deleted_in_place > 0,
        "{paths:?}"
    );
}

#[test]
fn pinned_readers_reread_identically_under_several_writers() {
    const WRITERS: usize = 4;
    const APPENDS: usize = 15;
    let db = indexed_chain_tables();
    let forever = Pinned::pin(&db.session(), &chain_query(0));
    let barrier = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let session = db.session();
                let mut held: VecDeque<(usize, Pinned)> = VecDeque::new();
                barrier.wait();
                for i in 0..APPENDS {
                    held.push_back((
                        i + [1, 2, 5][(t + i) % 3],
                        Pinned::pin(&session, &chain_query(0)),
                    ));
                    // Unique per (writer, step); every third write also
                    // retracts this writer's previous row.
                    let v = (1_000 * (t + 1) + i) as i64;
                    assert!(session.append_rows("R2", ints([v])));
                    if i % 3 == 2 {
                        assert!(session.delete_rows("R2", &ints([v - 1])));
                    }
                    for (until, pin) in &held {
                        pin.assert_unchanged(&format!("writer {t} pin due at {until}, step {i}"));
                    }
                    held.retain(|(until, _)| *until > i + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    forever.assert_unchanged("forever pin after all writers");

    // Single-threaded replay of the same writes, writer by writer: the
    // stored order differs, the stored set and the statistics do not.
    let replay = indexed_chain_tables();
    for t in 0..WRITERS {
        for i in 0..APPENDS {
            let v = (1_000 * (t + 1) + i) as i64;
            assert!(replay.append_rows("R2", ints([v])));
            if i % 3 == 2 {
                assert!(replay.delete_rows("R2", &ints([v - 1])));
            }
        }
    }
    let as_set = |db: &SharedDb| -> BTreeSet<Tuple> {
        let state = db.snapshot();
        let id = state.storage().rel_id("R2").unwrap();
        let table = state.storage().get_by_id(id).unwrap();
        table.relation().rows().iter().cloned().collect()
    };
    assert_eq!(as_set(&db), as_set(&replay));
    let (a, b) = (db.snapshot(), replay.snapshot());
    let (ta, tb) = (
        a.catalog().table("R2").unwrap(),
        b.catalog().table("R2").unwrap(),
    );
    assert_eq!(ta.rows, tb.rows);
    assert_eq!(ta.rows as usize, as_set(&db).len());
    assert_eq!(
        ta.distinct_of(&fro_algebra::Attr::parse("R2.k2")),
        tb.distinct_of(&fro_algebra::Attr::parse("R2.k2"))
    );
    let out = |db: &Arc<SharedDb>| {
        db.session()
            .prepare(&chain_query(0))
            .unwrap()
            .run()
            .unwrap()
    };
    assert!(out(&db).set_eq(&out(&replay)));
    let paths = db.append_paths();
    assert_eq!(
        paths.in_place + paths.recycled + paths.copied,
        (WRITERS * APPENDS) as u64,
        "{paths:?}"
    );
    assert_eq!(
        paths.deleted_in_place + paths.deleted_recycled + paths.deleted_copied,
        (WRITERS * APPENDS / 3) as u64,
        "{paths:?}"
    );
}
