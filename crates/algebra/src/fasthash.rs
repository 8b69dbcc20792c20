//! The in-memory hasher behind every per-row hash table.
//!
//! View maintenance, storage and the executor hash whole tuples, key
//! values and row hashes millions of times per second. std's default,
//! SipHash with a per-process random key, is built to resist keys
//! chosen to collide, at several times the cost of a multiply per
//! word. No table hashed here holds keys an outside client picked: the
//! wire carries query text and plans, never rows, so every hashed key
//! comes from tables the embedding program loaded.
//!
//! [`FastHasher`] is an unkeyed, word-at-a-time multiplicative hasher
//! in the style of rustc's FxHash. Its values are no stable format:
//! it must never key anything that persists or decides a plan; that is
//! [`crate::sig`]'s job.
//!
//! [`key_hash`] is the one definition of an equi-join key's hash: the
//! row-major engine, the pipelined prober and the columnar mirror all
//! call it, so a build row lands in the same bucket whichever path
//! hashed it.

use crate::value::{Value, ValueRef};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier of rustc-hash 2. FxHash's older constant leaves
/// `i << 20` keys in about a third of the low-12-bit buckets even after
/// the fold; this one passes the spread test below.
const SEED: u64 = 0xf1_35_7a_ea_2e_62_a9_c5;

/// An unkeyed multiplicative hasher: each word is rotated into the
/// state and multiplied by `SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state with its high half folded into the low bits. A
    /// multiply carries only upwards, so keys that differ only in high
    /// bits (`i << 20`) would otherwise share their low bits, which is
    /// where hashbrown takes the bucket from.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// The hash of an equi-join key: its values, in key order, through one
/// [`FastHasher`]. `None` when any value is null, since a null key
/// never matches.
pub fn key_hash<V: Borrow<Value>>(key: impl IntoIterator<Item = V>) -> Option<u64> {
    let mut h = FastHasher::default();
    for v in key {
        let v = v.borrow();
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// [`key_hash`] of a key whose values are read in place: the same hash
/// as over the owned values, since a [`ValueRef`] hashes as its value.
pub(crate) fn key_hash_refs<'a>(key: impl IntoIterator<Item = ValueRef<'a>>) -> Option<u64> {
    let mut h = FastHasher::default();
    for v in key {
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// How many of 4096 hashes differ in their low 12 bits; uniform
    /// hashes give about 2 590.
    fn low_12_bit_spread(hashes: impl Iterator<Item = u64>) -> usize {
        hashes.map(|h| h & 0xfff).collect::<HashSet<_>>().len()
    }

    #[test]
    fn strided_and_short_string_keys_spread_over_the_low_bits() {
        let b = BuildHasherDefault::<FastHasher>::default();
        for shift in [0, 10, 20] {
            let ints = low_12_bit_spread((0..4096i64).map(|i| b.hash_one(i << shift)));
            assert!(ints > 2_000, "i64 << {shift}: {ints} of 4096 buckets");
            let values =
                low_12_bit_spread((0..4096i64).map(|i| b.hash_one(Value::Int(i << shift))));
            assert!(values > 2_000, "Value::Int << {shift}: {values}");
            let keys = low_12_bit_spread((0..4096i64).map(|i| {
                let k = key_hash([Value::Int(i << shift)]).expect("non-null key");
                b.hash_one(k)
            }));
            assert!(keys > 2_000, "bucketed key hash << {shift}: {keys}");
        }
        let strs = low_12_bit_spread((0..4096).map(|i| b.hash_one(Value::str(format!("k{i}")))));
        assert!(strs > 2_000, "short strings: {strs}");
    }

    #[test]
    fn key_hash_is_none_on_a_null_and_depends_on_order() {
        assert_eq!(key_hash([Value::Int(1), Value::Null]), None);
        let ab = key_hash([Value::Int(1), Value::str("b")]);
        assert_eq!(ab, key_hash([&Value::Int(1), &Value::str("b")]));
        assert_ne!(ab, key_hash([Value::str("b"), Value::Int(1)]));
    }
}
