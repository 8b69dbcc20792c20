//! The §5 text front door (`Session::query`, `register_standing_src`,
//! the server's `Text` frame) against the reference evaluator:
//!
//! * random blocks — `AS` aliases (two of one type included), `*`/`-->`
//!   chains, literal and same-alias conditions on every base — give the
//!   reference rows from two sessions and a server connection sharing
//!   one database, whatever the optimizer did with the restrictions and
//!   the identifier indexes;
//! * "the ground relations are built once" is pinned by identity, not
//!   by timing: stored tables read the model's own rows, the epoch
//!   stands still, the plan cache stays warm;
//! * standing views registered by text stay equal to cold re-execution
//!   under deletes and appends on every ground table, without a refresh.

use fro::lang::model::paper_world;
use fro::lang::{parse, plan_query, translate, EntityDb, FieldValue};
use fro::prelude::*;
use fro::{Client, DbState, Server, ServerOptions, SharedDb};
use fro_algebra::{Relation, Tuple, Value};
use fro_testkit::workloads::synthetic_entity_world;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What the reference evaluator makes of `src` over `world`; `None`
/// when the block does not translate (a disconnected From-List, say).
fn reference(src: &str, world: &EntityDb) -> Option<Relation> {
    let t = translate(&parse(src).expect("generated source parses"), world).ok()?;
    let q = plan_query(&t).expect("plans");
    Some(q.eval(&t.database).expect("reference evaluates"))
}

fn run(session: &Session, src: &str) -> Relation {
    let prepared = session.query(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    prepared.run().expect("runs")
}

fn serve(db: &Arc<SharedDb>, world: &EntityDb) -> Server {
    let opts = ServerOptions {
        edb: Some(world.clone()),
    };
    Server::start("127.0.0.1:0", Arc::clone(db), opts).expect("bind loopback")
}

fn stored<'a>(state: &'a DbState, name: &str) -> &'a fro::exec::Table {
    let id = state.storage().rel_id(name).expect("table loaded");
    state.storage().get_by_id(id).expect("dense id")
}

/// One random block over the EMPLOYEE/DEPARTMENT/REPORT schema both
/// worlds share. Always connected; may still fail translation on a
/// duplicate derived alias, which the caller skips.
fn random_block(rng: &mut StdRng) -> String {
    let mut from: Vec<String> = Vec::new();
    let mut conds: Vec<String> = Vec::new();
    // (alias, is_employee) of every base so far.
    let mut bases: Vec<(String, bool)> = Vec::new();
    let n_items = rng.gen_range(1..4usize);
    for i in 0..n_items {
        let employee = rng.gen_bool(0.6);
        let ty = if employee { "EMPLOYEE" } else { "DEPARTMENT" };
        let taken = bases.iter().any(|(a, _)| a == ty);
        let alias = if taken || rng.gen_bool(0.5) {
            format!("{}{i}", if employee { "E" } else { "D" })
        } else {
            ty.to_owned()
        };
        let mut item = if alias == ty {
            ty.to_owned()
        } else {
            format!("{ty} AS {alias}")
        };
        if employee {
            if rng.gen_bool(0.5) {
                item.push_str("*ChildName");
            }
        } else {
            let mut steps = ["-->Manager", "-->Audit", "-->Manager*ChildName"];
            let n_steps = rng.gen_range(0..3usize);
            let first = rng.gen_range(0..steps.len());
            steps.swap(0, first);
            for step in steps.iter().take(n_steps) {
                // `-->Manager` twice would collide on the derived alias.
                if !(item.contains("Manager") && step.contains("Manager")) {
                    item.push_str(step);
                }
            }
        }
        from.push(item);
        // Join the new base to an earlier one so the block is connected.
        if let Some((other, _)) = bases.get(rng.gen_range(0..bases.len().max(1))) {
            let op = if rng.gen_bool(0.85) { "=" } else { "<" };
            conds.push(format!("{alias}.D# {op} {other}.D#"));
        }
        bases.push((alias, employee));
    }
    for (alias, employee) in &bases {
        let literal = if *employee {
            [
                format!("{alias}.Rank > {}", rng.gen_range(0..20)),
                format!("{alias}.D# <= {}", rng.gen_range(0..5)),
                format!("{alias}.Name = 'emp{}_0'", rng.gen_range(0..4)),
            ]
        } else {
            [
                format!("{alias}.D# = {}", rng.gen_range(0..5)),
                format!("{alias}.D# <> {}", rng.gen_range(0..5)),
                format!(
                    "{alias}.Location = '{}'",
                    ["Queretaro", "Zurich", "Boston"][rng.gen_range(0..3usize)]
                ),
            ]
        };
        if rng.gen_bool(0.7) {
            conds.push(literal[rng.gen_range(0..literal.len())].clone());
        }
        if rng.gen_bool(0.3) {
            let same = if *employee {
                format!("{alias}.D# < {alias}.Rank")
            } else {
                format!("{alias}.D# = {alias}.D#")
            };
            conds.push(same);
        }
    }
    let mut src = format!("Select All From {}", from.join(", "));
    if !conds.is_empty() {
        // Where-List order is free (conjunction).
        let at = rng.gen_range(0..conds.len());
        conds.rotate_left(at);
        src.push_str(" Where ");
        src.push_str(&conds.join(" and "));
    }
    src
}

#[test]
fn random_blocks_match_the_reference_from_sessions_and_the_wire() {
    let worlds = [
        ("paper", paper_world()),
        ("synthetic-a", synthetic_entity_world(5, 3, 11)),
        ("synthetic-b", synthetic_entity_world(3, 4, 29)),
    ];
    let mut checked = 0;
    let mut restricted_at_a_scan = 0;
    let mut probed_an_identifier = 0;
    for (w, (label, world)) in worlds.iter().enumerate() {
        let db = SharedDb::new();
        let a = db.session().with_entity_db(world.clone());
        let b = db.session().with_entity_db(world.clone());
        let server = serve(&db, world);
        let mut client = Client::connect(server.addr()).expect("connects");
        let mut rng = StdRng::seed_from_u64(1990 + w as u64);
        for _ in 0..70 {
            let src = random_block(&mut rng);
            let Some(want) = reference(&src, world) else {
                assert!(a.query(&src).is_err(), "{label}: {src}");
                continue;
            };
            let prepared = a.query(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let text = prepared.plan().explain();
            restricted_at_a_scan += usize::from(text.contains("Filter"));
            probed_an_identifier += usize::from(text.contains("IndexJoin(left-outer)"));
            let got = [
                prepared.run().expect("runs"),
                run(&b, &src),
                client.query(&src).expect("round trip").0,
            ];
            for (who, out) in ["session a", "session b", "client"].iter().zip(&got) {
                assert!(
                    out.set_eq(&want) && out.len() == want.len(),
                    "{label}, {who}: {src}\n{text}\ngot {} rows, want {}",
                    out.len(),
                    want.len()
                );
            }
            checked += 1;
        }
    }
    // Not vacuous: most blocks translate, carry a restriction, and
    // follow at least one identifier through its index.
    assert!(checked > 150, "{checked} blocks checked");
    assert!(restricted_at_a_scan > 100 && probed_an_identifier > 50);
}

/// The loadgen shapes (`wire_text_point`), each with a literal to vary
/// and two alpha-equivalent phrasings.
const SHAPES: [[&str; 2]; 4] = [
    [
        "Select All From EMPLOYEE*ChildName, DEPARTMENT \
         Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.D# = {}",
        "SELECT ALL FROM DEPARTMENT, EMPLOYEE*ChildName \
         WHERE DEPARTMENT.D# = {} AND EMPLOYEE.D# = DEPARTMENT.D#",
    ],
    [
        "Select All From DEPARTMENT-->Manager-->Audit \
         Where DEPARTMENT.Location = 'Zurich' and DEPARTMENT.D# < {}",
        "Select All From DEPARTMENT-->Audit-->Manager \
         Where DEPARTMENT.D# < {} and DEPARTMENT.Location = 'Zurich'",
    ],
    [
        "Select All From EMPLOYEE*ChildName Where EMPLOYEE.Rank = 3 and EMPLOYEE.D# < {}",
        "SELECT ALL FROM EMPLOYEE*ChildName WHERE EMPLOYEE.D# < {} AND EMPLOYEE.Rank = 3",
    ],
    [
        "Select All From DEPARTMENT-->Manager, EMPLOYEE \
         Where EMPLOYEE.D# = DEPARTMENT.D# and EMPLOYEE.Rank > {}",
        "Select All From EMPLOYEE, DEPARTMENT-->Manager \
         Where EMPLOYEE.Rank > {} and EMPLOYEE.D# = DEPARTMENT.D#",
    ],
];

fn shape(s: usize, phrasing: usize, literal: usize) -> String {
    SHAPES[s][phrasing].replace("{}", &literal.to_string())
}

#[test]
fn ground_relations_are_built_once_and_shared_by_identity() {
    let world = synthetic_entity_world(8, 4, 5);
    let db = SharedDb::new();
    let sessions = [
        db.session().with_entity_db(world.clone()),
        db.session().with_entity_db(world.clone()),
    ];
    let server = serve(&db, &world);
    let mut clients = [
        Client::connect(server.addr()).expect("connects"),
        Client::connect(server.addr()).expect("connects"),
    ];

    // The first query names every ground table the shapes use, so it
    // loads them all.
    let all = "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit \
               Where EMPLOYEE.D# = DEPARTMENT.D#";
    run(&sessions[0], all);
    let epoch = sessions[0].catalog().epoch();
    // Each shape is planned once, cold ...
    for s in 0..SHAPES.len() {
        run(&sessions[0], &shape(s, 0, 7));
    }
    let cold = sessions[0].cache_stats();

    // 100 more — other literals, other phrasings, other callers.
    for i in 0..100 {
        let src = shape(i % SHAPES.len(), (i / 4) % 2, i % 9);
        let want = reference(&src, &world).expect("translates");
        let got = match i % 4 {
            0 | 1 => run(&sessions[i % 4], &src),
            who => clients[who - 2].query(&src).unwrap().0,
        };
        assert!(got.set_eq(&want) && got.len() == want.len(), "{src}");
    }
    assert_eq!(
        sessions[1].catalog().epoch(),
        epoch,
        "nothing was re-synced"
    );
    let after = sessions[1].cache_stats();
    assert_eq!(after.stale, 0);
    // ... and never again, whoever asks and whatever the literal.
    let (hits, misses) = (after.hits - cold.hits, after.misses - cold.misses);
    assert!(
        hits >= 100 && hits * 10 >= (hits + misses) * 9,
        "{hits} hits, {misses} misses"
    );

    // Every stored ground table reads the model's own rows: nothing
    // was copied in, and a link to EMPLOYEE is EMPLOYEE.
    let state = db.snapshot();
    let rows_of = |rel: &Relation| rel.rows().as_ptr();
    let employee = world.base_relation("EMPLOYEE", "EMPLOYEE").unwrap();
    let shared = [
        ("EMPLOYEE", &employee),
        ("DEPARTMENT_Manager", &employee),
        (
            "DEPARTMENT",
            &world.base_relation("DEPARTMENT", "DEPARTMENT").unwrap(),
        ),
        (
            "DEPARTMENT_Audit",
            &world.base_relation("REPORT", "DEPARTMENT_Audit").unwrap(),
        ),
        (
            "EMPLOYEE_ChildName",
            &world
                .unnest_relation("EMPLOYEE", "ChildName", "EMPLOYEE_ChildName")
                .unwrap(),
        ),
    ];
    assert_eq!(state.storage().n_tables(), shared.len());
    for (name, model) in shared {
        let table = stored(&state, name);
        assert!(
            std::ptr::eq(rows_of(table.relation()), rows_of(model)),
            "{name} holds a copy"
        );
        // ... with its object identifier indexed.
        assert_eq!(table.indexes().len(), 1, "{name}");
        assert_eq!(table.indexes()[0].key_cols(), &[0], "{name}");
    }
    drop(state);

    // A table someone wrote diverges from the model (its rows are
    // copied first: the model keeps reading its own), and the next
    // text query puts the model's back, as it always did.
    let intruder = Tuple::new(vec![
        Value::Int(999),
        Value::str("nobody"),
        Value::Int(1),
        Value::Int(3),
    ]);
    assert!(sessions[0].append_rows("EMPLOYEE", vec![intruder]));
    assert_eq!(employee.len(), 8 * 4);
    assert_eq!(stored(&db.snapshot(), "EMPLOYEE").len(), employee.len() + 1);
    let src = shape(2, 0, 8);
    let got = run(&sessions[1], &src);
    assert!(got.set_eq(&reference(&src, &world).unwrap()));
    let state = db.snapshot();
    assert!(std::ptr::eq(
        rows_of(stored(&state, "EMPLOYEE").relation()),
        rows_of(&employee)
    ));
    assert_eq!(stored(&state, "EMPLOYEE").indexes().len(), 1);
    assert!(state.catalog().epoch() > epoch, "the re-sync is a reload");
}

#[test]
fn sessions_with_different_models_each_get_their_own_answer() {
    let small = paper_world();
    let mut grown = small.clone();
    grown.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Dee"))),
            ("D#", FieldValue::Scalar(Value::Int(3))),
            ("Rank", FieldValue::Scalar(Value::Int(15))),
            ("ChildName", FieldValue::Set(vec![Value::str("Kai")])),
        ],
    );
    let db = SharedDb::new();
    let on_small = db.session().with_entity_db(small.clone());
    let on_grown = db.session().with_entity_db(grown.clone());
    let src = "Select All From EMPLOYEE*ChildName, DEPARTMENT \
               Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'";
    let (want_small, want_grown) = (
        reference(src, &small).unwrap(),
        reference(src, &grown).unwrap(),
    );
    assert_eq!((want_small.len(), want_grown.len()), (3, 4));
    for _ in 0..3 {
        assert!(run(&on_small, src).set_eq(&want_small));
        assert!(run(&on_grown, src).set_eq(&want_grown));
    }
    // A statement prepared under one model keeps reading it while the
    // other model's session reloads the tables.
    let pinned = on_small.query(src).unwrap();
    assert!(run(&on_grown, src).set_eq(&want_grown));
    assert!(pinned.run().unwrap().set_eq(&want_small));
}

#[test]
fn standing_views_registered_by_text_follow_every_ground_table() {
    let world = synthetic_entity_world(8, 4, 5);
    let mut plans = String::new();
    for s in 0..SHAPES.len() {
        let src = shape(s, 0, 6);
        let db = SharedDb::new();
        let session = db.session().with_entity_db(world.clone());
        plans.push_str(&session.query(&src).unwrap().plan().explain());
        let id = session.register_standing_src(&src).expect("registers").id;

        let t = translate(&parse(&src).unwrap(), &world).unwrap();
        let q = plan_query(&t).unwrap();
        let assert_fresh = |ctx: &str| {
            let (view, stats) = session.poll_standing(id).expect("polls");
            let cold = q
                .eval(&db.snapshot().storage().to_database())
                .expect("reference evaluates");
            assert!(
                view.set_eq(&cold) && view.len() == cold.len(),
                "{src}\n{ctx}: view has {} rows, cold re-execution {}",
                view.len(),
                cold.len()
            );
            assert_eq!(stats.views_refreshed, 0, "{src}\n{ctx}");
        };
        assert_fresh("registered");

        for (name, rel) in t.database.iter() {
            // A spread of rows — first, last, every third — then the
            // whole table, out and back in.
            let spread: Vec<Tuple> = rel
                .rows()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == 0 || i + 1 == rel.len())
                .map(|(_, t)| t.clone())
                .collect();
            for rows in [spread, rel.rows().to_vec()] {
                assert!(session.delete_rows(name, &rows), "{name}");
                assert_fresh(&format!("deleted {} rows of {name}", rows.len()));
                assert!(session.append_rows(name, rows), "{name}");
                assert_fresh(&format!("re-appended into {name}"));
            }
        }
        // The one materialization is the registration's.
        assert_eq!(session.maintenance_stats().views_refreshed, 1, "{src}");
    }
    // The plans maintained above are the ones this PR introduced: a
    // restriction under a join and an identifier index probe.
    assert!(plans.contains("IndexJoin(left-outer)"), "{plans}");
    assert!(plans.contains("    Filter ["), "{plans}");
}

/// Eight wire clients run forty queries each, concurrently, rotating
/// over phrasings of the paper's Queretaro query that permute the
/// From-List and the conjuncts. Every remote result equals the local
/// one, and the phrasings share one graph signature, so the shared plan
/// cache answers more than nine lookups in ten.
#[test]
fn concurrent_clients_share_one_plan_across_phrasings() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 40;
    const PHRASINGS: [&str; 3] = [
        "Select All From EMPLOYEE*ChildName, DEPARTMENT \
         Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
        "Select All From DEPARTMENT, EMPLOYEE*ChildName \
         Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
        "Select All From EMPLOYEE*ChildName, DEPARTMENT \
         Where DEPARTMENT.Location = 'Queretaro' and EMPLOYEE.D# = DEPARTMENT.D#",
    ];
    let world = paper_world();
    let db = SharedDb::new();
    let server = serve(&db, &world);
    let addr = server.addr();
    let local = db.session().with_entity_db(world);
    let expected: Arc<Vec<Relation>> =
        Arc::new(PHRASINGS.iter().map(|src| run(&local, src)).collect());
    assert_eq!(expected[0].len(), 3, "Queretaro query returns 3 rows");

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for i in 0..QUERIES_PER_CLIENT {
                    let v = (c + i) % PHRASINGS.len();
                    let (out, _) = client.query(PHRASINGS[v]).expect("query runs");
                    assert_eq!(out, expected[v], "client {c} query {i}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let stats = db.snapshot().catalog().cache_stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    assert!(hit_rate > 0.9, "hit rate {hit_rate:.3} ({stats})");
}

/// `Select All From DEPARTMENT AS D0, …, D{n-1}`, every alias joined to
/// `D0` on `D#`: a star of `n` copies of one ground table.
fn department_star(n: usize) -> String {
    let from: Vec<String> = (0..n).map(|i| format!("DEPARTMENT AS D{i}")).collect();
    let conds: Vec<String> = (1..n).map(|i| format!("D0.D# = D{i}.D#")).collect();
    format!(
        "Select All From {} Where {}",
        from.join(", "),
        conds.join(" and ")
    )
}

/// An 18-item star sent as text is planned within the plan search's
/// work budget rather than by enumerating its 2^17 connected subsets,
/// and answers what the reference does: one row per department, as
/// the two-item star.
#[test]
fn an_eighteen_item_star_plans_within_the_split_budget() {
    let world = synthetic_entity_world(8, 4, 5);
    let db = SharedDb::new();
    let session = db.session().with_entity_db(world.clone());
    let two = run(&session, &department_star(2));
    let src = department_star(18);
    let prepared = session.query(&src).expect("plans");
    let pairs = prepared.optimized().pairs_examined;
    assert!(
        pairs > 0 && pairs <= fro::core::optimizer::SPLIT_BUDGET,
        "{pairs} pairs"
    );
    let got = prepared.run().expect("runs");
    assert_eq!(got.len(), two.len());
    assert_eq!(got.len(), 8, "one row per department");
    let want = reference(&src, &world).expect("translates");
    assert!(got.set_eq(&want) && got.len() == want.len());
}
