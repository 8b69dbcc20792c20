//! The versioned query/result protocol: what a client and the server
//! front door say to each other over a byte stream.
//!
//! The protocol reuses the codec vocabulary of the plan format
//! (minimal varints, length-prefixed strings, the `value` production)
//! and inherits its discipline: decoding is **total** — every
//! malformed payload maps to a typed [`WireError`], never a panic —
//! and allocations are bounded by the input length before they
//! happen.
//!
//! ## Framing
//!
//! Each message travels as one frame: a 4-byte little-endian payload
//! length (capped at [`MAX_FRAME_BYTES`]) followed by the payload.
//! [`write_frame`] / [`read_frame`] are the only I/O this module does;
//! the payload codecs are pure functions over byte slices.
//!
//! ## Grammar (version 2)
//!
//! ```text
//! request  := u8(version = 2)
//!             ( 0 str                    Text   — §5 UnNest/Link source
//!             | 1 bytes                  Plan   — an encoded plan blob
//!             | 2                        Ping
//!             | 3 str                    Register — standing §5 source
//!             | 4 varint )               Poll     — standing view id
//! response := u8(version = 2)
//!             ( 0 varint(ncols) ncols×(str str)          Schema
//!             | 1 varint(ncols) varint(nrows)
//!                 nrows×ncols×value                      Rows
//!             | 2 varint(8) 8×varint                     Done
//!             | 3 str str                                Error
//!             | 4                                        Pong
//!             | 5 varint (0|1)                           Registered
//!             | 6 varint(ncols) varint(nrows)
//!                 nrows×ncols×value )                    ViewRows
//! ```
//!
//! A query's reply is a *stream* of frames: one `Schema`, zero or more
//! `Rows` batches, then `Done` carrying the engine's logical work
//! counters — or a single `Error` frame instead. `Schema` columns are
//! `(relation, attribute)` name pairs rather than interned ids: result
//! schemes routinely contain derived attributes (unnested fields,
//! `agg.count`) that exist in no shared interner, so results travel
//! by name while plans travel by id.
//!
//! Version 2 adds the standing-query conversation: `Register` plans
//! and materializes a §5 block as a maintained view and answers with
//! one `Registered` frame (the view id and whether an existing
//! alpha-equivalent view absorbed the registration); `Poll` streams
//! the view's maintained rows as `Schema`, `ViewRows` batches (same
//! layout as `Rows`, the distinct tag marking rows served from
//! maintained state rather than a fresh execution), then `Done` with
//! the counters of the maintenance work that poll performed — all zero
//! on the steady-state fast path. Version-1 payloads are refused with
//! [`WireError::UnsupportedVersion`].
//!
//! The `Done` counters are, in order: `tuples_retrieved`,
//! `index_probes`, `comparisons`, `hash_build_rows`, `rows_output`,
//! `rows_materialized`, `rows_pipelined`, `pipelines` — the
//! bit-identical logical counters of
//! [`ExecStats`](fro_exec::ExecStats); per-partition and zone-skip
//! diagnostics stay server-side.

use crate::codec::{Reader, Writer};
use crate::error::WireError;
use crate::plan::{dec_value, enc_value};
use fro_algebra::Value;
use fro_exec::ExecStats;
use std::io::{self, Read, Write};

/// The protocol version this build writes, and the only one it reads.
pub const PROTO_VERSION: u8 = 2;

/// Hard cap on a single frame's payload. A hostile length prefix
/// larger than this is rejected before any allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Producer guideline: servers chunk result rows into batches of this
/// many rows per `Rows` frame. Decoders accept any batch size whose
/// bytes actually fit the frame.
pub const ROWS_PER_BATCH: usize = 1024;

/// Cap on the column count a `Schema`/`Rows` payload may declare.
const MAX_COLS: u64 = 65_536;

/// Number of counters in a `Done` payload.
const STATS_FIELDS: usize = 8;

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A §5 UnNest/Link query block as source text; the server
    /// parses, optimizes (through the shared plan cache) and executes.
    Text(String),
    /// An already-encoded plan blob ([`crate::encode_plan`], against
    /// the server catalog's interner); the server decodes and executes
    /// it as-is.
    Plan(Vec<u8>),
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping,
    /// Register a §5 query block as a standing view; the server plans
    /// it once (or joins an existing alpha-equivalent view) and
    /// answers [`Response::Registered`].
    Register(String),
    /// Poll a standing view by id; the server streams `Schema`,
    /// [`Response::ViewRows`] batches, then `Done`.
    Poll(u64),
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The result scheme: `(relation, attribute)` name pairs, one per
    /// column, in column order. First frame of every successful query
    /// reply.
    Schema(Vec<(String, String)>),
    /// One batch of result rows, each row carrying exactly the
    /// scheme's column count. Zero or more of these follow `Schema`.
    Rows(Vec<Vec<Value>>),
    /// End of a successful reply: the engine's logical work counters
    /// (diagnostic fields are zero on the decoded side). Boxed: the
    /// counter block dwarfs every other variant.
    Done(Box<ExecStats>),
    /// The query failed; `code` is the server's stable error code
    /// (e.g. `LANG_PARSE`, `OPT_UNSUPPORTED`), `message` the human
    /// rendering.
    Error {
        /// Stable machine-readable failure code.
        code: String,
        /// Human-readable failure description.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Register`]: the standing view's id and
    /// whether an existing alpha-equivalent view absorbed the
    /// registration (`shared = true` ⇒ no new materialization ran).
    Registered {
        /// The view id to [`Request::Poll`].
        id: u64,
        /// `true` when an existing view answered the registration.
        shared: bool,
    },
    /// One batch of a standing view's maintained rows (same layout as
    /// [`Response::Rows`]; the distinct tag marks rows served from
    /// maintained state rather than a fresh execution).
    ViewRows(Vec<Vec<Value>>),
}

// ---------------------------------------------------------------- framing

/// Write one length-prefixed frame. The writer is not flushed: a
/// reply is several frames, and whoever writes the last one of a
/// message flushes once, so a buffered point result leaves in one
/// `send(2)`.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when the payload exceeds
/// [`MAX_FRAME_BYTES`]; otherwise any underlying write error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_BYTES", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME_BYTES fits u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame. Returns `Ok(None)` on a clean end-of-stream (EOF
/// before the first length byte); a truncated frame is an error.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] when the length prefix exceeds
/// [`MAX_FRAME_BYTES`] (rejected before allocating), otherwise any
/// underlying read error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------- requests

/// Encode a request payload (framing is [`write_frame`]'s job).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(PROTO_VERSION);
    match req {
        Request::Text(src) => {
            w.put_u8(0);
            w.put_str(src);
        }
        Request::Plan(blob) => {
            w.put_u8(1);
            w.put_bytes(blob);
        }
        Request::Ping => w.put_u8(2),
        Request::Register(src) => {
            w.put_u8(3);
            w.put_str(src);
        }
        Request::Poll(id) => {
            w.put_u8(4);
            w.put_u64(*id);
        }
    }
    w.into_bytes()
}

fn check_version(r: &mut Reader<'_>, what: &'static str) -> Result<(), WireError> {
    let version = r.take_u8()?;
    if version != PROTO_VERSION {
        return Err(WireError::UnsupportedVersion {
            what,
            found: version,
            supported: PROTO_VERSION,
        });
    }
    Ok(())
}

/// Decode a request payload. Total over hostile bytes.
///
/// # Errors
/// Any [`WireError`] decode variant.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(bytes);
    check_version(&mut r, "request")?;
    let at = r.pos();
    let req = match r.take_u8()? {
        0 => Request::Text(r.take_str()?.to_owned()),
        1 => Request::Plan(r.take_bytes()?.to_vec()),
        2 => Request::Ping,
        3 => Request::Register(r.take_str()?.to_owned()),
        4 => Request::Poll(r.take_u64()?),
        t => {
            return Err(WireError::UnknownTag {
                what: "request",
                tag: u64::from(t),
                at,
            })
        }
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------- responses

fn stats_counters(s: &ExecStats) -> [u64; STATS_FIELDS] {
    [
        s.tuples_retrieved,
        s.index_probes,
        s.comparisons,
        s.hash_build_rows,
        s.rows_output,
        s.rows_materialized,
        s.rows_pipelined,
        s.pipelines,
    ]
}

/// Encode a response payload.
///
/// # Errors
/// [`WireError::InvalidNode`] when a `Rows` batch has ragged rows or
/// more than [`MAX_FRAME_BYTES`]-compatible columns — the encoder
/// refuses to emit bytes its own decoder would reject.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    w.put_u8(PROTO_VERSION);
    match resp {
        Response::Schema(cols) => {
            w.put_u8(0);
            w.put_u64(cols.len() as u64);
            for (rel, name) in cols {
                w.put_str(rel);
                w.put_str(name);
            }
        }
        Response::Rows(rows) => {
            w.put_u8(1);
            enc_row_batch(&mut w, rows)?;
        }
        Response::Done(stats) => {
            w.put_u8(2);
            w.put_u64(STATS_FIELDS as u64);
            for c in stats_counters(stats) {
                w.put_u64(c);
            }
        }
        Response::Error { code, message } => {
            w.put_u8(3);
            w.put_str(code);
            w.put_str(message);
        }
        Response::Pong => w.put_u8(4),
        Response::Registered { id, shared } => {
            w.put_u8(5);
            w.put_u64(*id);
            w.put_u8(u8::from(*shared));
        }
        Response::ViewRows(rows) => {
            w.put_u8(6);
            enc_row_batch(&mut w, rows)?;
        }
    }
    Ok(w.into_bytes())
}

/// The shared `varint(ncols) varint(nrows) nrows×ncols×value` body of
/// `Rows` and `ViewRows`.
fn enc_row_batch(w: &mut Writer, rows: &[Vec<Value>]) -> Result<(), WireError> {
    let ncols = rows.first().map_or(0, Vec::len);
    if rows.iter().any(|row| row.len() != ncols) {
        return Err(WireError::InvalidNode {
            node: "Rows",
            reason: "ragged row arity in a batch",
        });
    }
    if ncols as u64 > MAX_COLS {
        return Err(WireError::InvalidNode {
            node: "Rows",
            reason: "column count exceeds the protocol cap",
        });
    }
    w.put_u64(ncols as u64);
    w.put_u64(rows.len() as u64);
    for row in rows {
        for v in row {
            enc_value(w, v);
        }
    }
    Ok(())
}

fn dec_schema(r: &mut Reader<'_>) -> Result<Response, WireError> {
    // Each column costs at least two one-byte (empty-string) lengths.
    let ncols = r.take_count(2)?;
    if ncols as u64 > MAX_COLS {
        return Err(WireError::InvalidNode {
            node: "Schema",
            reason: "column count exceeds the protocol cap",
        });
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let rel = r.take_str()?.to_owned();
        let name = r.take_str()?.to_owned();
        cols.push((rel, name));
    }
    Ok(Response::Schema(cols))
}

fn dec_row_batch(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>, WireError> {
    let at = r.pos();
    let ncols = r.take_u64()?;
    if ncols > MAX_COLS {
        return Err(WireError::InvalidNode {
            node: "Rows",
            reason: "column count exceeds the protocol cap",
        });
    }
    let ncols = usize::try_from(ncols).map_err(|_| WireError::UnknownTag {
        what: "ncols",
        tag: ncols,
        at,
    })?;
    // Every value costs at least one byte, so a row costs ≥ ncols
    // bytes; `take_count` bounds the row count by the bytes actually
    // present before this Vec is sized.
    let nrows = r.take_count(ncols.max(1))?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(dec_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

fn dec_done(r: &mut Reader<'_>) -> Result<Response, WireError> {
    let n = r.take_count(1)?;
    if n != STATS_FIELDS {
        return Err(WireError::InvalidNode {
            node: "Done",
            reason: "wrong counter count",
        });
    }
    let mut c = [0u64; STATS_FIELDS];
    for slot in &mut c {
        *slot = r.take_u64()?;
    }
    let mut stats = ExecStats::new();
    stats.tuples_retrieved = c[0];
    stats.index_probes = c[1];
    stats.comparisons = c[2];
    stats.hash_build_rows = c[3];
    stats.rows_output = c[4];
    stats.rows_materialized = c[5];
    stats.rows_pipelined = c[6];
    stats.pipelines = c[7];
    Ok(Response::Done(Box::new(stats)))
}

/// Decode a response payload. Total over hostile bytes.
///
/// # Errors
/// Any [`WireError`] decode variant.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(bytes);
    check_version(&mut r, "response")?;
    let at = r.pos();
    let resp = match r.take_u8()? {
        0 => dec_schema(&mut r)?,
        1 => Response::Rows(dec_row_batch(&mut r)?),
        2 => dec_done(&mut r)?,
        3 => Response::Error {
            code: r.take_str()?.to_owned(),
            message: r.take_str()?.to_owned(),
        },
        4 => Response::Pong,
        5 => {
            let id = r.take_u64()?;
            let shared = match r.take_u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(WireError::InvalidNode {
                        node: "Registered",
                        reason: "shared flag must be 0 or 1",
                    })
                }
            };
            Response::Registered { id, shared }
        }
        6 => Response::ViewRows(dec_row_batch(&mut r)?),
        t => {
            return Err(WireError::UnknownTag {
                what: "response",
                tag: u64::from(t),
                at,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &Request) {
        let bytes = encode_request(req);
        assert_eq!(&decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: &Response) {
        let bytes = encode_response(resp).unwrap();
        assert_eq!(&decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(&Request::Text(
            "Select All From DEPARTMENT-->Manager".into(),
        ));
        roundtrip_req(&Request::Plan(vec![1, 0, 0]));
        roundtrip_req(&Request::Ping);
        roundtrip_req(&Request::Register(
            "Select All From EMPLOYEE*ChildName".into(),
        ));
        roundtrip_req(&Request::Poll(0));
        roundtrip_req(&Request::Poll(u64::MAX));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(&Response::Schema(vec![
            ("R".into(), "k".into()),
            ("EMPLOYEE_ChildName".into(), "ChildName".into()),
        ]));
        roundtrip_resp(&Response::Schema(vec![]));
        roundtrip_resp(&Response::Rows(vec![
            vec![Value::Int(1), Value::str("Luz"), Value::Null],
            vec![Value::Int(-7), Value::Bool(true), Value::Int(i64::MIN)],
        ]));
        roundtrip_resp(&Response::Rows(vec![]));
        let mut stats = ExecStats::new();
        stats.tuples_retrieved = 42;
        stats.rows_output = 7;
        stats.pipelines = 3;
        roundtrip_resp(&Response::Done(Box::new(stats)));
        roundtrip_resp(&Response::Error {
            code: "LANG_PARSE".into(),
            message: "expected Select".into(),
        });
        roundtrip_resp(&Response::Pong);
        roundtrip_resp(&Response::Registered {
            id: 7,
            shared: true,
        });
        roundtrip_resp(&Response::Registered {
            id: u64::MAX,
            shared: false,
        });
        roundtrip_resp(&Response::ViewRows(vec![vec![Value::Int(3), Value::Null]]));
        roundtrip_resp(&Response::ViewRows(vec![]));
    }

    #[test]
    fn version_1_payloads_are_rejected() {
        // One wire version: a v1 peer's Ping and Pong get the typed
        // version error instead of an answer.
        let refused = |what| WireError::UnsupportedVersion {
            what,
            found: 1,
            supported: PROTO_VERSION,
        };
        assert_eq!(decode_request(&[1, 2]).unwrap_err(), refused("request"));
        assert_eq!(decode_response(&[1, 4]).unwrap_err(), refused("response"));
    }

    #[test]
    fn registered_shared_flag_is_strict() {
        let mut w = Writer::new();
        w.put_u8(PROTO_VERSION);
        w.put_u8(5);
        w.put_u64(1);
        w.put_u8(2); // neither 0 nor 1
        assert!(matches!(
            decode_response(&w.into_bytes()),
            Err(WireError::InvalidNode {
                node: "Registered",
                ..
            })
        ));
    }

    #[test]
    fn frames_roundtrip_and_cap_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // A hostile length prefix is rejected before allocation.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let mut r = io::Cursor::new(huge.to_vec());
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A truncated frame is an error, not a silent end.
        let mut partial = 10u32.to_le_bytes().to_vec();
        partial.extend_from_slice(b"abc");
        let mut r = io::Cursor::new(partial);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn ragged_batches_refuse_to_encode() {
        let ragged = Response::Rows(vec![vec![Value::Int(1)], vec![]]);
        assert!(matches!(
            encode_response(&ragged),
            Err(WireError::InvalidNode { node: "Rows", .. })
        ));
    }

    #[test]
    fn hostile_payloads_yield_typed_errors() {
        // Unknown version, unknown tags, truncation, trailing bytes.
        assert!(matches!(
            decode_request(&[9, 0]),
            Err(WireError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            decode_request(&[PROTO_VERSION, 9]),
            Err(WireError::UnknownTag { .. })
        ));
        assert!(matches!(
            decode_response(&[PROTO_VERSION, 9]),
            Err(WireError::UnknownTag { .. })
        ));
        assert!(matches!(
            decode_request(&[PROTO_VERSION]),
            Err(WireError::UnexpectedEof { .. })
        ));
        let mut ok = encode_request(&Request::Ping);
        ok.push(0);
        assert!(matches!(
            decode_request(&ok),
            Err(WireError::TrailingBytes { .. })
        ));
        // A Rows batch claiming more rows than its bytes could hold is
        // rejected before the row Vec is sized.
        let mut w = Writer::new();
        w.put_u8(PROTO_VERSION);
        w.put_u8(1);
        w.put_u64(3); // ncols
        w.put_u64(u64::MAX); // nrows
        assert!(matches!(
            decode_response(&w.into_bytes()),
            Err(WireError::UnexpectedEof { .. })
        ));
        // Done with the wrong counter count.
        let mut w = Writer::new();
        w.put_u8(PROTO_VERSION);
        w.put_u8(2);
        w.put_u64(3);
        for _ in 0..3 {
            w.put_u64(0);
        }
        assert!(matches!(
            decode_response(&w.into_bytes()),
            Err(WireError::InvalidNode { node: "Done", .. })
        ));
    }

    #[test]
    fn every_single_byte_corruption_is_total() {
        let mut stats = ExecStats::new();
        stats.rows_output = 11;
        let payloads = vec![
            encode_request(&Request::Text("Select All From R*F".into())),
            encode_request(&Request::Plan(vec![1, 0, 0])),
            encode_response(&Response::Schema(vec![("R".into(), "k".into())])).unwrap(),
            encode_response(&Response::Rows(vec![vec![
                Value::Int(5),
                Value::str("x"),
                Value::Null,
            ]]))
            .unwrap(),
            encode_response(&Response::Done(Box::new(stats))).unwrap(),
            encode_request(&Request::Register("Select All From R*F".into())),
            encode_request(&Request::Poll(42)),
            encode_response(&Response::Registered {
                id: 9,
                shared: true,
            })
            .unwrap(),
            encode_response(&Response::ViewRows(vec![vec![Value::Int(1), Value::Null]])).unwrap(),
        ];
        for bytes in payloads {
            for i in 0..bytes.len() {
                for delta in [1u8, 0x80] {
                    let mut mutated = bytes.clone();
                    mutated[i] = mutated[i].wrapping_add(delta);
                    // Ok or typed error — never a panic.
                    let _ = decode_request(&mutated);
                    let _ = decode_response(&mutated);
                }
            }
        }
    }
}
