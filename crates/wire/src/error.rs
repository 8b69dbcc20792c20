//! The typed failure vocabulary of the wire codec.

use std::fmt;

/// Any way an encode, decode, or framed-stream operation can fail.
///
/// Decoding is **total**: every malformed input maps to one of these
/// variants — never a panic, never a structurally invalid plan. The
/// variants carry enough position/context information to debug a
/// corrupt artifact from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a read completed.
    UnexpectedEof {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// Decoding finished with input left over.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow {
        /// Byte offset of the varint's first byte.
        at: usize,
    },
    /// A varint used more bytes than its value needs (non-minimal
    /// encodings are rejected so every value has exactly one byte
    /// form — the roundtrip-identity invariant).
    NonCanonicalVarint {
        /// Byte offset of the varint's first byte.
        at: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string's first content byte.
        at: usize,
    },
    /// A tag byte (or varint tag) outside the grammar.
    UnknownTag {
        /// Which grammar production was being read.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
        /// Byte offset of the tag.
        at: usize,
    },
    /// The artifact's format version is not the one this build speaks:
    /// each artifact reads and writes exactly one version. A plan blob
    /// of any other version degrades to re-planning from source.
    UnsupportedVersion {
        /// Which artifact carried the version byte.
        what: &'static str,
        /// The version found in the input.
        found: u8,
        /// The one version this build reads and writes.
        supported: u8,
    },
    /// A relation id with no entry in the decoding interner.
    BadRelId {
        /// The id read from the wire.
        id: u64,
        /// Number of relations the interner knows.
        n_rels: usize,
    },
    /// An attribute id with no entry in the decoding interner.
    BadAttrId {
        /// The id read from the wire.
        id: u64,
        /// Number of attribute ids the interner has assigned.
        n_attrs: usize,
    },
    /// A node violated a structural rule (key arity, empty key list,
    /// an unsupported kind/operator combination, …).
    InvalidNode {
        /// The plan node at fault.
        node: &'static str,
        /// The violated rule.
        reason: &'static str,
    },
    /// Encoding referenced a relation the interner has not seen.
    UnknownRelation {
        /// The unresolvable table name.
        name: String,
    },
    /// Encoding referenced an attribute the interner has not seen
    /// (derived attributes such as `agg.count` are not serializable).
    UnknownAttr {
        /// The unresolvable attribute, rendered `rel.name`.
        attr: String,
    },
    /// Nesting exceeded the decoder's recursion cap.
    TooDeep {
        /// The depth limit that was hit.
        limit: usize,
    },
    /// An I/O failure on the stream a frame was read from or written
    /// to (a socket, for the protocol).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { at } => write!(f, "unexpected end of input at byte {at}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after decode")
            }
            WireError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            WireError::NonCanonicalVarint { at } => {
                write!(f, "non-minimal varint encoding at byte {at}")
            }
            WireError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
            WireError::UnknownTag { what, tag, at } => {
                write!(f, "unknown {what} tag {tag} at byte {at}")
            }
            WireError::UnsupportedVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "unsupported {what} format version {found} (this build reads {supported})"
            ),
            WireError::BadRelId { id, n_rels } => {
                write!(f, "relation id {id} out of range (interner has {n_rels})")
            }
            WireError::BadAttrId { id, n_attrs } => {
                write!(f, "attribute id {id} out of range (interner has {n_attrs})")
            }
            WireError::InvalidNode { node, reason } => write!(f, "invalid {node} node: {reason}"),
            WireError::UnknownRelation { name } => {
                write!(f, "relation `{name}` is not interned; cannot encode")
            }
            WireError::UnknownAttr { attr } => {
                write!(f, "attribute `{attr}` is not interned; cannot encode")
            }
            WireError::TooDeep { limit } => {
                write!(f, "nesting deeper than the {limit}-level decoder cap")
            }
            WireError::Io(msg) => write!(f, "i/o: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}
