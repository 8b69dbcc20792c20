//! Stable structural hashing for plan-cache signatures.
//!
//! The cross-query plan cache keys subplans on a *graph signature*: a
//! hash of a query graph's interned structure (relation names, edge
//! kinds, outerjoin directions, predicate shapes) that is identical
//! for alpha-equivalent queries — the same graph written in any
//! association, with its relations listed in any order. Theorem 1 is
//! what makes this sound: for a freely-reorderable query the graph
//! *is* the query, so the signature identifies the full plan space,
//! not one syntactic tree.
//!
//! `std::hash::Hash` is unsuitable for durable keys: `DefaultHasher`
//! is seeded per process and its algorithm is explicitly unspecified.
//! [`StableHasher`] is FNV-1a over explicit byte encodings, so a
//! signature means the same thing across runs (and could be persisted
//! next to serialized plans later). Every domain type that
//! participates in a signature implements [`SigHash`], writing a
//! discriminant tag before its payload so that e.g. `IsNull(x)` and
//! `Not(x)` can never collide structurally.

use crate::intern::{AttrId, RelId, RelSet};
use crate::predicate::{CmpOp, Pred, Scalar};
use crate::schema::Attr;
use crate::truth::Truth;
use crate::value::{Value, ValueRef};

/// FNV-1a, 64-bit: deterministic across processes and platforms.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A hasher in its initial state.
    #[must_use]
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Fold one byte into the state.
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Fold raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Fold a `u32` (little-endian) into the state.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a length-prefixed string into the state (the prefix keeps
    /// `"ab" + "c"` distinct from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

/// Structural hashing into a [`StableHasher`] — the signature
/// counterpart of `std::hash::Hash`, with a specified encoding.
pub trait SigHash {
    /// Fold this value's structure into the hasher.
    fn sig_hash(&self, h: &mut StableHasher);
}

/// Hash a value standalone and return the digest.
#[must_use]
pub fn sig_hash_of<T: SigHash + ?Sized>(v: &T) -> u64 {
    let mut h = StableHasher::new();
    v.sig_hash(&mut h);
    h.finish()
}

impl SigHash for RelId {
    fn sig_hash(&self, h: &mut StableHasher) {
        h.write_u32(u32::try_from(self.index()).expect("RelId fits in u32"));
    }
}

impl SigHash for AttrId {
    fn sig_hash(&self, h: &mut StableHasher) {
        h.write_u32(u32::try_from(self.index()).expect("AttrId fits in u32"));
    }
}

impl SigHash for RelSet {
    fn sig_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.bits());
    }
}

impl SigHash for Attr {
    fn sig_hash(&self, h: &mut StableHasher) {
        h.write_str(self.rel());
        h.write_str(self.name());
    }
}

impl SigHash for Value {
    fn sig_hash(&self, h: &mut StableHasher) {
        ValueRef::from(self).sig_hash(h);
    }
}

impl SigHash for ValueRef<'_> {
    fn sig_hash(&self, h: &mut StableHasher) {
        match *self {
            ValueRef::Null => h.write_u8(0),
            ValueRef::Int(i) => {
                h.write_u8(1);
                h.write_u64(i as u64);
            }
            ValueRef::Str(s) => {
                h.write_u8(2);
                h.write_str(s);
            }
            ValueRef::Bool(b) => {
                h.write_u8(3);
                h.write_u8(u8::from(b));
            }
        }
    }
}

impl SigHash for CmpOp {
    fn sig_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }
}

impl SigHash for Truth {
    fn sig_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            Truth::False => 0,
            Truth::Unknown => 1,
            Truth::True => 2,
        });
    }
}

impl SigHash for Scalar {
    fn sig_hash(&self, h: &mut StableHasher) {
        match self {
            Scalar::Attr(a) => {
                h.write_u8(0);
                a.sig_hash(h);
            }
            Scalar::Lit(v) => {
                h.write_u8(1);
                v.sig_hash(h);
            }
        }
    }
}

impl SigHash for Pred {
    fn sig_hash(&self, h: &mut StableHasher) {
        match self {
            Pred::Cmp { op, lhs, rhs } => {
                h.write_u8(0);
                op.sig_hash(h);
                lhs.sig_hash(h);
                rhs.sig_hash(h);
            }
            Pred::IsNull(s) => {
                h.write_u8(1);
                s.sig_hash(h);
            }
            Pred::And(a, b) => {
                h.write_u8(2);
                a.sig_hash(h);
                b.sig_hash(h);
            }
            Pred::Or(a, b) => {
                h.write_u8(3);
                a.sig_hash(h);
                b.sig_hash(h);
            }
            Pred::Not(p) => {
                h.write_u8(4);
                p.sig_hash(h);
            }
            Pred::Const(t) => {
                h.write_u8(5);
                t.sig_hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let p = Pred::eq_attr("A.k", "B.k").and(Pred::cmp_lit("A.v", CmpOp::Gt, 7));
        assert_eq!(sig_hash_of(&p), sig_hash_of(&p.clone()));
    }

    #[test]
    fn structure_disambiguated_by_tags() {
        // IsNull(x) vs Not(IsNull(x)) vs Const must all differ.
        let x = Pred::IsNull(Scalar::attr("A.k"));
        let not_x = x.clone().not();
        assert_ne!(sig_hash_of(&x), sig_hash_of(&not_x));
        assert_ne!(sig_hash_of(&x), sig_hash_of(&Pred::always()));
        // And vs Or over the same children.
        let a = Pred::eq_attr("A.k", "B.k");
        let b = Pred::eq_attr("A.v", "B.v");
        let and = a.clone().and(b.clone());
        let or = a.or(b);
        assert_ne!(sig_hash_of(&and), sig_hash_of(&or));
    }

    #[test]
    fn literal_values_are_part_of_the_shape() {
        // Cached plans embed their literals, so `v = 1` and `v = 2`
        // must not collide.
        let p1 = Pred::cmp_lit("A.v", CmpOp::Eq, 1);
        let p2 = Pred::cmp_lit("A.v", CmpOp::Eq, 2);
        assert_ne!(sig_hash_of(&p1), sig_hash_of(&p2));
    }

    #[test]
    fn string_prefix_keeps_boundaries() {
        let mut h1 = StableHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = StableHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
