//! # fro-wire — the id-only binary wire format for physical plans
//!
//! Theorem 1 makes the query graph an unambiguous query
//! representation, and the plan cache already keys on its stable
//! signature. This crate gives the cached artifacts themselves a
//! stable byte form: a **versioned, length-prefixed, varint-based**
//! binary encoding for [`PhysPlan`] trees.
//!
//! ## Ids only, no names
//!
//! A plan on the wire refers to relations and attributes exclusively
//! by their dense interned ids ([`fro_algebra::RelId`] /
//! [`fro_algebra::AttrId`]); the [`Interner`] is the codec's symbol
//! table at both ends. Encoding a plan whose attributes the interner
//! has never seen fails with a typed error (such plans exist — derived
//! attributes like `agg.count` — and are simply not serializable), and
//! decoding against a *different* interner either fails or produces a
//! plan over that interner's names, never a misattributed mix.
//!
//! ## Strict decoding
//!
//! The decoder is total over hostile bytes: every read is
//! bounds-checked, varints must be minimal, tags must be known,
//! recursion depth is capped, and join key lists must agree in
//! (nonzero) arity. Every failure is a typed [`WireError`] —
//! decoding never panics and never fabricates a structurally invalid
//! [`PhysPlan`].
//!
//! ## Format grammar (plans version 1)
//!
//! ```text
//! varint   := LEB128 unsigned 64-bit, minimal encoding, ≤ 10 bytes
//! zigzag   := varint of (n << 1) ^ (n >> 63)
//! bytes    := varint(len) len×u8
//! str      := bytes, valid UTF-8
//! relid    := varint < n_rels        attrid := varint < n_attrs
//! value    := 0 | 1 zigzag | 2 str | 3 (0|1)
//! truth    := 0 | 1 | 2                      (False, Unknown, True)
//! cmpop    := 0..5                           (Eq Ne Lt Le Gt Ge)
//! scalar   := 0 attrid | 1 value
//! pred     := 0 cmpop scalar scalar | 1 scalar | 2 pred pred
//!           | 3 pred pred | 4 pred | 5 truth
//! kind     := 0..4                  (Inner LeftOuter FullOuter Semi Anti)
//! attrs    := varint(n) n×attrid
//! plan     := 0 relid                              Scan
//!           | 1 plan pred                          Filter
//!           | 2 plan attrs                         Project
//!           | 3 kind plan plan attrs attrs pred    HashJoin
//!           | 4 kind plan relid attrs attrs pred   IndexJoin
//!           | 6 kind plan plan pred                NlJoin
//!           | 7 plan attrs (0 | 1 attrid)          GroupCount
//!           | 8 plan plan pred attrs               Goj
//! blob     := u8(version = 1) plan                 (fully consumed)
//! ```
//!
//! Plan tag 5 is reserved: it was a sort-merge join, which the
//! optimizer never chose, and the decoder rejects it as
//! [`WireError::UnknownTag`].
//!
//! Tag values deliberately mirror the [`fro_algebra::SigHash`]
//! discriminants, so the wire format and the signature hash describe
//! predicates with the same vocabulary.
//!
//! ## The query/result protocol
//!
//! The [`proto`] module layers a client/server conversation on the
//! same codec: length-prefixed frames carrying a versioned
//! [`Request`](proto::Request) (§5 source text, an encoded plan blob,
//! or a ping) and a stream of [`Response`](proto::Response) frames
//! (result scheme, row batches, final work counters — or a typed
//! error). See its module docs for the grammar.
//!
//! ## Versioning and compatibility
//!
//! The version byte (per plan blob and per protocol message) is bumped
//! on any change to the grammar above. Each build writes and reads
//! exactly one version of each: plans version 1 and protocol messages
//! version 2 (which added the standing-query `Register`/`Poll`
//! requests and `Registered`/`ViewRows` responses). Any other version
//! returns [`WireError::UnsupportedVersion`], and a caller holding an
//! undecodable plan re-plans from source, which is always correct.
//! Unknown tags within the version are rejected, never skipped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod plan;
pub mod proto;

pub use codec::{Reader, Writer};
pub use error::WireError;
pub use plan::{decode_plan, encode_plan, PLAN_FORMAT_VERSION};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, MAX_FRAME_BYTES, PROTO_VERSION, ROWS_PER_BATCH,
};

// Re-exported so downstream callers name the plan type the codec
// serializes without an extra explicit dependency edge.
pub use fro_algebra::Interner;
pub use fro_exec::PhysPlan;
