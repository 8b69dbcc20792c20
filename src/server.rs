//! A wire-protocol front door: serve one [`SharedDb`] to many TCP
//! clients.
//!
//! [`Server::start`] binds a listener and spawns one handler thread
//! per connection; each handler holds its own cheap [`Session`] over
//! the shared database, so every client benefits from — and
//! contributes to — the same cross-query plan cache, while the
//! copy-on-write catalog keeps concurrent readers consistent.
//!
//! The conversation is the `fro-wire` [`proto`](fro_wire::proto)
//! grammar: length-prefixed frames, a versioned
//! [`Request`](fro_wire::Request) (§5 source text, an encoded plan
//! blob, a standing-query registration or poll, or a ping), and a
//! response stream of result scheme, row batches and final work
//! counters — or one typed error frame carrying the stable
//! [`FroError::code`] string. [`Client`] is the matching blocking
//! connector that reassembles the stream into a
//! [`Relation`] + [`ExecStats`].
//!
//! Standing queries registered over the wire live in the shared
//! database, not the connection: two clients registering
//! alpha-equivalent text receive the same [`StandingId`] and both
//! observe the one incrementally-maintained view.

use crate::error::FroError;
use crate::session::Session;
use crate::shared::SharedDb;
use crate::standing::{Registered, StandingId};
use fro_algebra::{Attr, Relation, Schema, Tuple};
use fro_exec::{execute, ExecStats, PhysPlan};
use fro_lang::EntityDb;
use fro_wire::{
    decode_plan, decode_request, decode_response, encode_plan, encode_request, encode_response,
    encode_rows, read_frame, write_frame, Interner, Request, Response, WireError, ROWS_PER_BATCH,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-connection session configuration for a [`Server`]: every
/// accepted connection gets a fresh [`Session`] with this (optional)
/// entity model.
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Entity model enabling §5 text queries ([`Request::Text`]);
    /// without one, text queries answer with `SESSION_NO_ENTITY_MODEL`.
    pub edb: Option<EntityDb>,
}

/// A running multi-threaded query server over one [`SharedDb`].
///
/// Dropping the server shuts it down (stops accepting; connections
/// already being served finish their current request and close on the
/// next read).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections, each served by its own thread and
    /// [`Session`] over `db`.
    ///
    /// # Errors
    /// [`io::Error`] when the address cannot be bound.
    pub fn start(
        addr: impl ToSocketAddrs,
        db: Arc<SharedDb>,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            loop {
                let (stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => continue,
                };
                if stop_accept.load(Ordering::SeqCst) {
                    break; // the shutdown self-connection lands here
                }
                // Frames are small and latency-bound; don't let Nagle
                // batch them against the client's delayed ACKs.
                let _ = stream.set_nodelay(true);
                let session = connection_session(&db, &opts);
                let stop_conn = Arc::clone(&stop_accept);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &session, &stop_conn);
                });
            }
        });
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and wait for the accept loop to
    /// exit. Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            // Unblock the accept loop; it notices the flag and exits.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn connection_session(db: &Arc<SharedDb>, opts: &ServerOptions) -> Session {
    let session = Session::connect(db);
    match &opts.edb {
        Some(edb) => session.with_entity_db(edb.clone()),
        None => session,
    }
}

/// Serve one connection until EOF, a fatal I/O error, a protocol
/// desync, or server shutdown. Query failures are *not* fatal: they
/// answer with a typed [`Response::Error`] frame and the connection
/// stays usable.
fn serve_connection(
    stream: TcpStream,
    session: &Session,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(payload) = read_frame(&mut reader)? {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut hang_up = false;
        match decode_request(&payload) {
            Ok(Request::Ping) => send(&mut writer, &Response::Pong)?,
            Ok(Request::Text(src)) => match run_text(session, &src) {
                Ok((rel, stats)) => stream_result(&mut writer, &rel, stats)?,
                Err(e) => send_error(&mut writer, &e)?,
            },
            Ok(Request::Plan(blob)) => match run_plan(session, &blob) {
                Ok((rel, stats)) => stream_result(&mut writer, &rel, stats)?,
                Err(e) => send_error(&mut writer, &e)?,
            },
            Ok(Request::Register(src)) => match session.register_standing_src(&src) {
                Ok(r) => send(
                    &mut writer,
                    &Response::Registered {
                        id: r.id.as_u64(),
                        shared: r.shared,
                    },
                )?,
                Err(e) => send_error(&mut writer, &e)?,
            },
            Ok(Request::Poll(id)) => match session.poll_standing(StandingId::from_u64(id)) {
                Ok((rel, stats)) => stream_view(&mut writer, &rel, stats)?,
                Err(e) => send_error(&mut writer, &e)?,
            },
            Err(e) => {
                // An undecodable request means the framing is no
                // longer trustworthy: report and hang up.
                send_error(&mut writer, &FroError::Wire(e))?;
                hang_up = true;
            }
        }
        // One flush per response, however many frames it took.
        writer.flush()?;
        if hang_up {
            break;
        }
    }
    Ok(())
}

fn run_text(session: &Session, src: &str) -> Result<(Relation, ExecStats), FroError> {
    session.query(src)?.run_with_stats()
}

fn run_plan(session: &Session, blob: &[u8]) -> Result<(Relation, ExecStats), FroError> {
    let state = session.shared().snapshot();
    let plan = decode_plan(blob, state.storage().interner())?;
    let mut stats = ExecStats::new();
    let out = execute(&plan, state.storage(), &mut stats)?;
    Ok((out, stats))
}

fn send(writer: &mut BufWriter<TcpStream>, resp: &Response) -> io::Result<()> {
    let payload = encode_response(resp).map_err(invalid_input)?;
    write_frame(writer, &payload)
}

fn invalid_input(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

fn send_error(writer: &mut BufWriter<TcpStream>, e: &FroError) -> io::Result<()> {
    send(
        writer,
        &Response::Error {
            code: e.code().to_string(),
            message: e.to_string(),
        },
    )
}

/// Stream one result: `Schema`, zero or more `Rows` batches of at most
/// [`ROWS_PER_BATCH`], then `Done` with the engine counters.
fn stream_result(
    writer: &mut BufWriter<TcpStream>,
    rel: &Relation,
    stats: ExecStats,
) -> io::Result<()> {
    stream_batches(writer, rel, stats, false)
}

/// Like [`stream_result`] but the batches are `ViewRows` frames, so the
/// client can tell a standing-view snapshot from an ad-hoc result.
fn stream_view(
    writer: &mut BufWriter<TcpStream>,
    rel: &Relation,
    stats: ExecStats,
) -> io::Result<()> {
    stream_batches(writer, rel, stats, true)
}

/// The one result stream behind [`stream_result`] and [`stream_view`]:
/// each chunk of at most [`ROWS_PER_BATCH`] of the relation's rows is
/// encoded by [`encode_rows`] straight from the borrowed tuples and
/// written as one frame, so no row is copied on its way out.
fn stream_batches(
    writer: &mut BufWriter<TcpStream>,
    rel: &Relation,
    stats: ExecStats,
    as_view: bool,
) -> io::Result<()> {
    let cols: Vec<(String, String)> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| (a.rel().to_string(), a.name().to_string()))
        .collect();
    send(writer, &Response::Schema(cols))?;
    for chunk in rel.rows().chunks(ROWS_PER_BATCH) {
        let payload = encode_rows(chunk, as_view).map_err(invalid_input)?;
        write_frame(writer, &payload)?;
    }
    send(writer, &Response::Done(Box::new(stats)))
}

fn io_err(e: &io::Error) -> FroError {
    FroError::Wire(WireError::Io(e.to_string()))
}

/// A blocking client for a [`Server`]: one TCP connection speaking the
/// `fro-wire` query/result protocol.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// [`FroError::Wire`] (as `WIRE_IO`) when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, FroError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err(&e))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| io_err(&e))?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Round-trip a ping.
    ///
    /// # Errors
    /// [`FroError::Wire`] on transport or protocol failures.
    pub fn ping(&mut self) -> Result<(), FroError> {
        self.request(&Request::Ping)?;
        match self.receive()? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a §5 UnNest/Link text query on the server, returning the
    /// full result and the engine's work counters.
    ///
    /// # Errors
    /// [`FroError::Remote`] with the server's stable code when the
    /// query fails remotely; [`FroError::Wire`] on transport trouble.
    pub fn query(&mut self, src: &str) -> Result<(Relation, ExecStats), FroError> {
        self.request(&Request::Text(src.to_string()))?;
        self.collect_result()
    }

    /// Run an already-optimized physical plan on the server. The plan
    /// is encoded against `it`, which must agree with the server's
    /// interner (same tables loaded in the same order) — the id-only
    /// wire format resolves names at the server.
    ///
    /// # Errors
    /// [`FroError::Wire`] when the plan is not serializable;
    /// [`FroError::Remote`] when the server rejects or fails it.
    pub fn query_plan(
        &mut self,
        plan: &PhysPlan,
        it: &Interner,
    ) -> Result<(Relation, ExecStats), FroError> {
        let blob = encode_plan(plan, it)?;
        self.request(&Request::Plan(blob))?;
        self.collect_result()
    }

    /// Register a §5 text query as a standing query on the server's
    /// shared database. The returned [`Registered`] carries the view id
    /// (stable across clients: alpha-equivalent registrations from any
    /// connection get the same id) and whether an existing view was
    /// shared rather than built fresh.
    ///
    /// # Errors
    /// [`FroError::Remote`] with the server's stable code when the
    /// query fails remotely; [`FroError::Wire`] on transport trouble.
    pub fn register(&mut self, src: &str) -> Result<Registered, FroError> {
        self.request(&Request::Register(src.to_string()))?;
        match self.receive()? {
            Response::Registered { id, shared } => Ok(Registered {
                id: StandingId::from_u64(id),
                shared,
            }),
            Response::Error { code, message } => Err(FroError::Remote { code, message }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the current contents of a standing view, refreshing it
    /// first if base tables changed underneath. Rows arrive as
    /// `ViewRows` batches in the view's canonical (sorted) order.
    ///
    /// # Errors
    /// [`FroError::Remote`] as `STANDING_UNKNOWN` when the id was never
    /// issued by this server's database; [`FroError::Wire`] on
    /// transport trouble.
    pub fn poll(&mut self, id: StandingId) -> Result<(Relation, ExecStats), FroError> {
        self.request(&Request::Poll(id.as_u64()))?;
        self.collect_result()
    }

    fn request(&mut self, req: &Request) -> Result<(), FroError> {
        write_frame(&mut self.writer, &encode_request(req)).map_err(|e| io_err(&e))?;
        self.writer.flush().map_err(|e| io_err(&e))
    }

    fn receive(&mut self) -> Result<Response, FroError> {
        let payload = read_frame(&mut self.reader)
            .map_err(|e| io_err(&e))?
            .ok_or_else(|| FroError::Wire(WireError::Io("server closed connection".into())))?;
        Ok(decode_response(&payload)?)
    }

    /// Drain one result stream (`Schema`, `Rows`/`ViewRows`…, `Done`)
    /// into a relation, surfacing a server `Error` frame as
    /// [`FroError::Remote`].
    fn collect_result(&mut self) -> Result<(Relation, ExecStats), FroError> {
        let cols = match self.receive()? {
            Response::Schema(cols) => cols,
            Response::Error { code, message } => return Err(FroError::Remote { code, message }),
            other => return Err(unexpected(&other)),
        };
        let attrs: Vec<Attr> = cols.iter().map(|(r, n)| Attr::new(r, n)).collect();
        let schema = Schema::new(attrs).map_err(|e| FroError::Exec(e.into()))?;
        let mut rows: Vec<Tuple> = Vec::new();
        loop {
            match self.receive()? {
                Response::Rows(batch) | Response::ViewRows(batch) => {
                    rows.extend(batch.into_iter().map(Tuple::new));
                }
                Response::Done(stats) => {
                    let rel = Relation::new(Arc::new(schema), rows)
                        .map_err(|e| FroError::Exec(e.into()))?;
                    return Ok((rel, *stats));
                }
                Response::Error { code, message } => {
                    return Err(FroError::Remote { code, message })
                }
                other => return Err(unexpected(&other)),
            }
        }
    }
}

fn unexpected(resp: &Response) -> FroError {
    FroError::Wire(WireError::Io(format!(
        "unexpected response frame: {resp:?}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_lang::model::paper_world;

    fn served_world() -> (Server, Arc<SharedDb>) {
        let db = SharedDb::new();
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&db),
            ServerOptions {
                edb: Some(paper_world()),
            },
        )
        .expect("bind loopback");
        (server, db)
    }

    const SRC: &str = "Select All From EMPLOYEE*ChildName, DEPARTMENT \
                       Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'";

    #[test]
    fn loopback_round_trip_matches_local_execution() {
        let (server, db) = served_world();
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();
        let (remote, stats) = client.query(SRC).unwrap();
        // The same query through a local session over the same shared
        // state is bit-identical.
        let local = db
            .session()
            .with_entity_db(paper_world())
            .query(SRC)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(remote, local);
        assert_eq!(remote.len(), 3);
        assert!(stats.rows_output >= remote.len() as u64);
    }

    #[test]
    fn remote_errors_carry_stable_codes_and_keep_the_connection() {
        let (server, _db) = served_world();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client.query("From nothing").unwrap_err();
        match err {
            FroError::Remote { ref code, .. } => assert_eq!(code, "LANG_PARSE"),
            other => panic!("expected remote error, got {other:?}"),
        }
        assert_eq!(err.code(), "SERVER_REMOTE");
        // The connection survives a query error.
        let (out, _) = client.query(SRC).unwrap();
        assert_eq!(out.len(), 3);
    }

    /// A block with more From-items than a query graph holds is a
    /// typed error on its connection, which goes on answering.
    #[test]
    fn a_block_too_large_for_a_query_graph_is_a_typed_error() {
        let (server, _db) = served_world();
        let mut client = Client::connect(server.addr()).unwrap();
        let n = fro_graph::QueryGraph::MAX_NODES + 1;
        let from: Vec<String> = (0..n).map(|i| format!("DEPARTMENT AS D{i}")).collect();
        let conds: Vec<String> = (1..n).map(|i| format!("D0.D# = D{i}.D#")).collect();
        let src = format!(
            "Select All From {} Where {}",
            from.join(", "),
            conds.join(" and ")
        );
        match client.query(&src).unwrap_err() {
            FroError::Remote { ref code, .. } => assert_eq!(code, "LANG_TOO_MANY_RELATIONS"),
            other => panic!("expected remote error, got {other:?}"),
        }
        client.ping().unwrap();
        let (out, _) = client.query(SRC).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn a_retired_plan_tag_is_a_typed_error_and_keeps_the_connection() {
        let (server, _db) = served_world();
        let mut client = Client::connect(server.addr()).unwrap();
        // Plan tag 5 (the retired merge join) over two scans: the frame
        // decodes, the plan blob inside it does not.
        let mut blob = vec![fro_wire::PLAN_FORMAT_VERSION];
        blob.extend([5, 0, 0, 0, 0, 1, 1, 0, 1, 2, 5, 2]);
        client.request(&Request::Plan(blob)).unwrap();
        match client.collect_result().unwrap_err() {
            FroError::Remote { ref code, .. } => assert_eq!(code, "WIRE_FORMAT"),
            other => panic!("expected remote error, got {other:?}"),
        }
        client.ping().unwrap();
        let (out, _) = client.query(SRC).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn plan_requests_execute_against_shared_tables() {
        use fro_algebra::{Pred, Query};
        use fro_core::optimizer::optimize;
        use fro_core::Policy;

        let db = SharedDb::new();
        let session = db.session();
        session.insert_table("R1", Relation::from_ints("R1", &["k1"], &[&[0]]));
        session.insert_table("R2", Relation::from_ints("R2", &["k2"], &[&[0], &[1]]));
        let server = Server::start("127.0.0.1:0", Arc::clone(&db), ServerOptions::default())
            .expect("bind loopback");
        let q = Query::rel("R1").join(Query::rel("R2"), Pred::eq_attr("R1.k1", "R2.k2"));
        let state = db.snapshot();
        let optimized = optimize(&q, state.catalog(), Policy::Paper).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let (remote, _) = client
            .query_plan(&optimized.plan, state.storage().interner())
            .unwrap();
        let local = session.prepare(&q).unwrap().run().unwrap();
        assert_eq!(remote, local);
        drop(server);
    }

    #[test]
    fn standing_registration_is_shared_across_clients() {
        use std::collections::BTreeSet;

        let (server, db) = served_world();
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        let first = a.register(SRC).unwrap();
        assert!(!first.shared, "first registration built the view");
        let second = b.register(SRC).unwrap();
        assert!(second.shared, "alpha-equivalent registration shares it");
        assert_eq!(first.id, second.id);

        // Either client polls the one view; its canonical snapshot is
        // the same row set a fresh local execution produces.
        let (view, _) = b.poll(first.id).unwrap();
        let local = db
            .session()
            .with_entity_db(paper_world())
            .query(SRC)
            .unwrap()
            .run()
            .unwrap();
        let view_set: BTreeSet<_> = view.rows().iter().cloned().collect();
        let local_set: BTreeSet<_> = local.rows().iter().cloned().collect();
        assert_eq!(view_set, local_set);
        assert_eq!(view.schema(), local.schema());

        // Polling an id nobody issued answers with the stable code and
        // leaves the connection usable.
        let err = a.poll(crate::StandingId::from_u64(999)).unwrap_err();
        match err {
            FroError::Remote { ref code, .. } => assert_eq!(code, "STANDING_UNKNOWN"),
            other => panic!("expected remote error, got {other:?}"),
        }
        a.ping().unwrap();
    }

    /// Send `req` and return the lengths of the row batches of its
    /// reply, checking each batch's tag against `as_view`.
    fn batch_lengths(client: &mut Client, req: &Request, as_view: bool) -> Vec<usize> {
        client.request(req).unwrap();
        assert!(matches!(client.receive().unwrap(), Response::Schema(_)));
        let mut lengths = Vec::new();
        loop {
            match client.receive().unwrap() {
                Response::Rows(batch) if !as_view => lengths.push(batch.len()),
                Response::ViewRows(batch) if as_view => lengths.push(batch.len()),
                Response::Done(_) => return lengths,
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn results_of_several_batches_reassemble_exactly() {
        use fro_algebra::{Pred, Query, Value};
        use fro_core::optimizer::optimize;
        use fro_core::Policy;
        use fro_lang::{FieldType, FieldValue};

        // Every third row finds a partner; the others come back padded
        // with nulls, beside a string and an integer column.
        let n = 2 * ROWS_PER_BATCH + 1;
        let rows = (0..n as i64)
            .map(|k| vec![Value::Int(k), Value::str(format!("name{k}"))])
            .collect();
        let tags = (0..n as i64)
            .step_by(3)
            .map(|k| vec![Value::Int(k), Value::str(format!("tag{k}"))])
            .collect();
        let mut world = EntityDb::new();
        world.declare(
            "EMPLOYEE",
            vec![
                ("Name", FieldType::Scalar),
                ("Rank", FieldType::Scalar),
                ("ChildName", FieldType::SetValued),
            ],
        );
        for k in 0..n as i64 {
            let children = if k % 3 == 0 {
                vec![Value::str(format!("child{k}"))]
            } else {
                vec![]
            };
            world.insert(
                "EMPLOYEE",
                vec![
                    ("Name", FieldValue::Scalar(Value::str(format!("emp{k}")))),
                    ("Rank", FieldValue::Scalar(Value::Int(k % 20))),
                    ("ChildName", FieldValue::Set(children)),
                ],
            );
        }
        let db = SharedDb::new();
        let session = db.session().with_entity_db(world.clone());
        session.insert_table("R", Relation::from_values("R", &["k", "name"], rows));
        session.insert_table("S", Relation::from_values("S", &["k", "tag"], tags));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&db),
            ServerOptions { edb: Some(world) },
        )
        .expect("bind loopback");
        let mut client = Client::connect(server.addr()).unwrap();
        let three_batches = vec![ROWS_PER_BATCH, ROWS_PER_BATCH, 1];

        // An ad-hoc plan: three `Rows` frames, equal to local execution.
        let q = Query::rel("R").outerjoin(Query::rel("S"), Pred::eq_attr("R.k", "S.k"));
        let state = db.snapshot();
        let plan = optimize(&q, state.catalog(), Policy::Paper).unwrap().plan;
        let it = state.storage().interner();
        let (remote, _) = client.query_plan(&plan, it).unwrap();
        let local = execute(&plan, state.storage(), &mut ExecStats::new()).unwrap();
        assert_eq!(remote, local);
        assert_eq!(remote.len(), n);
        assert!(remote.iter().any(|t| t.values().contains(&Value::Null)));
        let blob = encode_plan(&plan, it).unwrap();
        assert_eq!(
            batch_lengths(&mut client, &Request::Plan(blob), false),
            three_batches
        );

        // A standing view: three `ViewRows` frames, equal to a local
        // poll and, as a set, to a fresh local execution.
        let src = "Select All From EMPLOYEE*ChildName";
        let id = client.register(src).unwrap().id;
        let (view, _) = client.poll(id).unwrap();
        let (local_view, _) = session.poll_standing(id).unwrap();
        assert_eq!(view, local_view);
        assert_eq!(view.len(), n);
        assert!(view.iter().any(|t| t.values().contains(&Value::Null)));
        let fresh = session.query(src).unwrap().run().unwrap();
        assert_eq!(view.row_set(), fresh.row_set());
        assert_eq!(
            batch_lengths(&mut client, &Request::Poll(id.as_u64()), true),
            three_batches
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_accept() {
        let (mut server, _db) = served_world();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        // After shutdown nobody serves this address anymore: either
        // the connect fails outright or the next request dies.
        let refused = match Client::connect(addr) {
            Err(_) => true,
            Ok(mut c) => c.ping().is_err(),
        };
        assert!(refused, "server still answering after shutdown");
    }
}
