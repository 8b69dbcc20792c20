//! The `fro` server front door as a binary: serve the paper's entity
//! world (and any tables clients load through sessions) over the
//! `fro-wire` query/result protocol.
//!
//! ```text
//! serve [--addr HOST:PORT] [--smoke]
//! ```
//!
//! * `--addr` — bind address (default `127.0.0.1:4224`; use `:0` for
//!   an ephemeral port, printed on stdout).
//! * `--smoke` — self-test mode for CI: bind an ephemeral loopback
//!   port, round-trip a ping and one §5 text query through a real TCP
//!   client, verify the result against in-process execution, shut
//!   down, and exit 0 (any failure panics with a nonzero exit).

use fro::{Client, Server, ServerOptions, SharedDb};
use fro_lang::model::paper_world;

const SMOKE_QUERY: &str = "Select All From EMPLOYEE*ChildName, DEPARTMENT \
     Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:4224");
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().expect("--addr needs HOST:PORT").clone(),
            "--smoke" => smoke = true,
            other => panic!("unknown argument {other:?} (expected --addr HOST:PORT | --smoke)"),
        }
    }
    if smoke {
        addr = String::from("127.0.0.1:0");
    }

    let db = SharedDb::new();
    let opts = ServerOptions {
        edb: Some(paper_world()),
    };
    let mut server = Server::start(&addr, db.clone(), opts).expect("bind server address");
    println!("serving on {}", server.addr());

    if smoke {
        let mut client = Client::connect(server.addr()).expect("loopback connect");
        client.ping().expect("ping round-trips");
        let (remote, stats) = client.query(SMOKE_QUERY).expect("smoke query runs");
        let local = db
            .session()
            .with_entity_db(paper_world())
            .query(SMOKE_QUERY)
            .expect("local plan")
            .run()
            .expect("local run");
        assert_eq!(remote, local, "remote result must be bit-identical");
        assert_eq!(remote.len(), 3, "Queretaro query returns 3 rows");
        assert!(stats.rows_output >= 3);
        server.shutdown();
        println!("smoke ok: {} rows, counters {stats}", remote.len());
        return;
    }

    // Serve until killed; connections are handled on their own threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
