//! Columnar mirrors of relations with vectorized predicate and key
//! kernels.
//!
//! A [`ColumnSet`] decomposes a row-major [`Relation`] into one typed
//! vector per attribute — `i64`s, dict-encoded strings (`u32` codes
//! into a per-table string dictionary), bools, or a generic `Value`
//! fallback for heterogeneous columns — each with a validity [`Bitmap`]
//! for nulls, a null count, an exact distinct count, a bottom-k
//! [`KeySketch`] of the distinct values (the optimizer's join-overlap
//! statistic), and per-zone min/max metadata ([`ZONE_ROWS`] rows per
//! zone).
//!
//! On top of the layout sit two kernels the execution engines call:
//!
//! * [`ColumnSet::eval_pred`] evaluates a [`BoundPred`] over the whole
//!   column set as tight per-column loops, producing a [`SelMask`] —
//!   a pair of bitmaps carrying the rows where the predicate is
//!   definitely `True` and definitely `False` (rows in neither are
//!   `Unknown`). The result is bit-for-bit the same selection as
//!   calling [`BoundPred::eval`] on every row. Zones whose min/max
//!   metadata already decides a comparison are skipped without
//!   touching the data.
//! * [`ColumnSet::hash_key_at`] hashes a key-column combination for
//!   one row exactly as the row-major engine hashes assembled tuple
//!   keys with [`key_hash`](crate::key_hash), without materializing a
//!   row — string keys hash their dictionary entry in place, so no
//!   `String` is cloned or assembled on the build path.
//!
//! The layout is a *mirror*: the row-major `Relation` remains the
//! source of truth for output assembly (engines still emit `Tuple`s),
//! which keeps results, order, and work counters bit-identical to the
//! row-at-a-time paths while the scan/filter/build inner loops run
//! over flat vectors.

use crate::fasthash::{key_hash_refs, FastMap, FastSet};
use crate::ops::{BoundPred, BoundScalar};
use crate::predicate::CmpOp;
use crate::relation::{remove_at, survivors_behind, Relation};
use crate::truth::Truth;
use crate::value::{Value, ValueRef};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Rows per metadata zone: each column keeps min/max and a null count
/// for every [`ZONE_ROWS`]-row chunk, the granularity at which the
/// predicate kernel can skip data entirely.
pub const ZONE_ROWS: usize = 1024;

/// A fixed-length bit vector over `u64` words. Bits past `len` in the
/// last word are kept zero by every operation, so popcounts never see
/// ghost bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zeros bitmap of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-ones bitmap of `len` bits (tail bits zero).
    #[must_use]
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extend the bitmap with `add` zero bits (tail bits of the old
    /// last word are already zero, so existing reads are unaffected).
    pub fn grow(&mut self, add: usize) {
        self.len += add;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Drop the bits at positions `ids` (ascending, distinct, in
    /// range), closing the gaps: the bits behind each move down.
    /// Touches nothing before `ids[0]`.
    pub fn remove_bits(&mut self, ids: &[usize]) {
        let mut kept = ids.first().copied().unwrap_or(self.len);
        for i in survivors_behind(ids, self.len) {
            let bit = 1u64 << (kept % 64);
            if self.get(i) {
                self.words[kept / 64] |= bit;
            } else {
                self.words[kept / 64] &= !bit;
            }
            kept += 1;
        }
        self.len = kept;
        self.words.truncate(kept.div_ceil(64));
        self.mask_tail();
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Population count over the whole bitmap.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Population count over bit range `lo..hi`.
    #[must_use]
    pub fn count_ones_range(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo >= hi {
            return 0;
        }
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        let mut n = 0usize;
        for w in wl..=wh {
            n += (self.words[w] & Bitmap::range_mask(w, lo, hi)).count_ones() as usize;
        }
        n
    }

    /// The mask selecting the bits of word `w` that fall in `lo..hi`.
    fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
        let mut mask = !0u64;
        if w == lo / 64 {
            mask &= !0u64 << (lo % 64);
        }
        if w == (hi - 1) / 64 {
            let top = hi - w * 64;
            if top < 64 {
                mask &= (1u64 << top) - 1;
            }
        }
        mask
    }

    /// Call `f(i)` for every set bit `i` in `lo..hi`, in ascending
    /// order.
    pub fn for_each_one_in(&self, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo >= hi {
            return;
        }
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        for w in wl..=wh {
            let mut bits = self.words[w] & Bitmap::range_mask(w, lo, hi);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }

    /// `self &= other` (equal lengths).
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other` (equal lengths).
    pub fn or_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Flip every bit in place (tail bits stay zero).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// The bitwise complement.
    #[must_use]
    pub fn negated(&self) -> Bitmap {
        let mut out = self.clone();
        out.negate();
        out
    }

    /// `self[lo..hi] |= src[lo..hi]` — used to bulk-copy validity bits
    /// into a selection for metadata-decided zones.
    pub fn union_range(&mut self, src: &Bitmap, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= self.len && self.len == src.len);
        if lo >= hi {
            return;
        }
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        for w in wl..=wh {
            self.words[w] |= src.words[w] & Bitmap::range_mask(w, lo, hi);
        }
    }

    /// `self[lo..hi] |= (a & b)[lo..hi]` — the two-sided validity copy
    /// for metadata-decided column-vs-column zones.
    pub fn union_range_and(&mut self, a: &Bitmap, b: &Bitmap, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= self.len && self.len == a.len && self.len == b.len);
        if lo >= hi {
            return;
        }
        let (wl, wh) = (lo / 64, (hi - 1) / 64);
        for w in wl..=wh {
            self.words[w] |= a.words[w] & b.words[w] & Bitmap::range_mask(w, lo, hi);
        }
    }
}

/// Per-zone column metadata: min/max over the zone's non-null values
/// (total [`Value`] order) plus the zone's null count. `min_max` is
/// `None` when the zone holds only nulls.
#[derive(Debug, Clone)]
pub struct Zone {
    min_max: Option<(Value, Value)>,
    nulls: usize,
}

impl Zone {
    /// Min and max over the zone's non-null values, if any.
    #[must_use]
    pub fn min_max(&self) -> Option<(&Value, &Value)> {
        self.min_max.as_ref().map(|(a, b)| (a, b))
    }

    /// Nulls in this zone.
    #[must_use]
    pub fn nulls(&self) -> usize {
        self.nulls
    }
}

/// The per-table string dictionary: distinct strings in
/// first-appearance order, so a string column stores `u32` codes.
/// Equality on codes is equality on strings; order comparisons go
/// through the sealed rank permutation (`rank[code]` = position of the
/// code's string in sorted order), so `rank` comparisons agree with
/// `String` order.
///
/// Each string is kept once, in one buffer: `text` holds them end to
/// end in code order and `ends[code]` is where the code's string ends.
/// The code lookup stores no string either. It files a code under its
/// string's hash, as the row-id postings of an index do, and every hit
/// is rechecked against the stored string; a string whose hash an
/// earlier one holds goes to the short `collided` list.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dictionary {
    text: String,
    ends: Vec<u32>,
    codes: FastMap<u64, u32>,
    /// `(hash, code)` of the strings whose hash `codes` files another
    /// string under.
    collided: Vec<(u64, u32)>,
    rank: Vec<u32>,
}

#[cfg(test)]
thread_local! {
    /// The bits of a string hash the dictionary files under; see
    /// [`colliding`].
    static DICT_HASH_BITS: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Run `f` with every dictionary string filed under one hash — on this
/// thread — so that every lookup past the first string goes through
/// the collision list.
#[cfg(test)]
fn colliding<R>(f: impl FnOnce() -> R) -> R {
    DICT_HASH_BITS.with(|bits| bits.set(0));
    let out = f();
    DICT_HASH_BITS.with(|bits| bits.set(u64::MAX));
    out
}

/// The hash the dictionary files `s` under.
fn str_slot(s: &str) -> u64 {
    use std::hash::BuildHasher;
    let h = std::hash::BuildHasherDefault::<crate::fasthash::FastHasher>::default().hash_one(s);
    #[cfg(test)]
    let h = h & DICT_HASH_BITS.with(std::cell::Cell::get);
    h
}

impl Dictionary {
    fn intern(&mut self, s: &str) -> u32 {
        let h = str_slot(s);
        if let Some(c) = self.find(h, s) {
            return c;
        }
        let c = u32::try_from(self.ends.len()).expect("dictionary codes fit in u32");
        self.text.push_str(s);
        self.ends
            .push(u32::try_from(self.text.len()).expect("dictionary text fits u32 offsets"));
        match self.codes.entry(h) {
            Entry::Vacant(e) => {
                e.insert(c);
            }
            Entry::Occupied(_) => self.collided.push((h, c)),
        }
        c
    }

    /// The code of `s`, filed under hash `h`.
    fn find(&self, h: u64, s: &str) -> Option<u32> {
        let &first = self.codes.get(&h)?;
        if self.str(first) == s {
            return Some(first);
        }
        self.collided
            .iter()
            .find(|&&(ch, c)| ch == h && self.str(c) == s)
            .map(|&(_, c)| c)
    }

    /// Freeze the dictionary: compute the rank permutation used for
    /// order comparisons on codes, and give back the buffers' slack.
    fn seal(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        let mut order: Vec<u32> = (0..self.ends.len() as u32).collect();
        order.sort_by(|&a, &b| self.str(a).cmp(self.str(b)));
        self.rank = vec![0; order.len()];
        for (pos, &code) in order.iter().enumerate() {
            self.rank[code as usize] = u32::try_from(pos).expect("rank fits in u32");
        }
    }

    /// Number of distinct strings.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The interned string of `code`.
    pub(crate) fn str(&self, code: u32) -> &str {
        let code = code as usize;
        let start = code
            .checked_sub(1)
            .map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[code] as usize]
    }

    /// The code of `s`, if interned.
    pub(crate) fn code_of(&self, s: &str) -> Option<u32> {
        self.find(str_slot(s), s)
    }

    /// The sort rank of `code` among all interned strings.
    pub(crate) fn rank(&self, code: u32) -> u32 {
        self.rank[code as usize]
    }
}

/// Hashes a [`KeySketch`] keeps per column (≈ 2 KB).
pub const SKETCH_K: usize = 256;

/// A column re-sketches on delete once the distinct values deleted
/// since its last exact sketch exceed `1/SKETCH_SLACK` of the distinct
/// values left (see [`KeySketch`]).
pub const SKETCH_SLACK: u64 = 4;

/// A bottom-k sketch of one column's distinct non-null values: the
/// [`SKETCH_K`] smallest of their [`KeySketch::hash_value`] hashes,
/// sorted ascending and free of duplicates. It is a function of the
/// value *set* alone — row order, duplicates and the order values were
/// offered in do not change it — and it holds every hash while the
/// column has fewer than [`SKETCH_K`] values, so two small columns are
/// compared exactly.
///
/// Maintenance: [`ColumnSet::build`] offers each distinct value once,
/// never holding more than [`SKETCH_K`] hashes; an append offers the
/// appended values (O(log k) each, plus an O(k) shift for the rare one
/// that enters). A delete leaves the sketch alone, so afterwards it
/// sketches a *superset* of the stored values — the stored ones plus
/// those deleted. The superset is bounded: once deletes have dropped a
/// column's distinct count by more than a [`SKETCH_SLACK`]th of what
/// remains since its sketch last matched the stored values, the delete
/// re-sketches that column from its surviving rows. A table that keeps
/// deleting old keys and appending new ones therefore never sketches
/// more than `1 + 1/SKETCH_SLACK` times its stored key set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeySketch {
    hashes: Vec<u64>,
}

impl KeySketch {
    /// The hash a value enters a sketch under: its [`SigHash`] byte
    /// stream (FNV-1a) through the 64-bit murmur3 finalizer, which
    /// spreads FNV's weak low bits over the whole word. It is fixed
    /// across processes and toolchains, so plans costed from sketches
    /// repeat exactly.
    ///
    /// [`SigHash`]: crate::SigHash
    #[must_use]
    pub fn hash_value(v: &Value) -> u64 {
        KeySketch::hash_ref(ValueRef::from(v))
    }

    /// [`KeySketch::hash_value`] of a value read in place.
    fn hash_ref(v: ValueRef<'_>) -> u64 {
        let mut h = crate::sig::sig_hash_of(&v);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// Where `h` would enter, or `None` when it is kept already or lies
    /// above a full sketch.
    fn slot(&self, h: u64) -> Option<usize> {
        if self.hashes.len() == SKETCH_K && h >= self.hashes[SKETCH_K - 1] {
            return None;
        }
        self.hashes.binary_search(&h).err()
    }

    /// Offer one hash: the sketch stays the bottom-k of everything
    /// offered so far.
    fn insert(&mut self, h: u64) {
        if let Some(at) = self.slot(h) {
            if self.hashes.len() == SKETCH_K {
                self.hashes.pop();
            }
            self.hashes.insert(at, h);
        }
    }

    /// Estimated Jaccard similarity `|A ∩ B| / |A ∪ B|` of the two
    /// sketched value sets. The k smallest hashes of the two sketches
    /// together are the k smallest of `A ∪ B`, and one of them belongs
    /// to both sets exactly when both sketches hold it, so the shared
    /// share among them estimates the ratio (0 when both are empty).
    #[must_use]
    pub fn jaccard(&self, other: &KeySketch) -> f64 {
        let (a, b) = (&self.hashes, &other.hashes);
        let (mut i, mut j, mut union, mut both) = (0, 0, 0usize, 0usize);
        while union < SKETCH_K {
            match (a.get(i), b.get(j)) {
                (None, None) => break,
                (Some(x), Some(y)) if x == y => {
                    both += 1;
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x < y => i += 1,
                (Some(_), None) => i += 1,
                _ => j += 1,
            }
            union += 1;
        }
        if union == 0 {
            0.0
        } else {
            both as f64 / union as f64
        }
    }

    /// Estimated number of values two sets share, given their Jaccard
    /// similarity `j` (see [`KeySketch::jaccard`]) and distinct counts:
    /// `m = j·(d_a + d_b) / (1 + j)` (from `|A ∩ B| = j·|A ∪ B|` and
    /// `|A ∪ B| = d_a + d_b − |A ∩ B|`), clamped to `[1, min(d_a, d_b)]`.
    /// For a foreign key contained in its referenced key this is
    /// `min(d_a, d_b)`, the containment estimate; for independent keys
    /// it is their measured overlap.
    #[must_use]
    pub fn matching(j: f64, d_a: f64, d_b: f64) -> f64 {
        let small = d_a.min(d_b).max(1.0);
        (j * (d_a + d_b) / (1.0 + j)).clamp(1.0, small)
    }
}

/// The typed payload vector of one column. Invalid (null) slots hold
/// arbitrary placeholders and are never interpreted — the validity
/// bitmap guards every read.
#[derive(Debug, Clone)]
enum ColData {
    /// All non-null values are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null values are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null values are `Value::Str`, stored as dictionary codes.
    Str(Vec<u32>),
    /// Heterogeneous column: values stored directly (`Value::Null` at
    /// null slots).
    Mixed(Vec<Value>),
}

/// One attribute of a [`ColumnSet`]: the typed vector plus validity,
/// null count, exact distinct count, key sketch, and zone metadata.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColData,
    validity: Bitmap,
    null_count: usize,
    distinct: u64,
    /// Shared with the optimizer catalog that reads it; an append
    /// copies it only when a new hash enters.
    sketch: Arc<KeySketch>,
    /// Distinct values deletes removed since `sketch` last matched the
    /// stored values.
    sketch_stale: u64,
    zones: Vec<Zone>,
}

impl Column {
    /// Nulls in this column.
    #[must_use]
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Exact distinct count, counting null (when present) as one value
    /// — the convention the optimizer catalog uses.
    #[must_use]
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// The bottom-k sketch of the distinct non-null values (see
    /// [`KeySketch`] for how appends and deletes maintain it).
    #[must_use]
    pub fn sketch(&self) -> &Arc<KeySketch> {
        &self.sketch
    }

    /// The zone metadata ([`ZONE_ROWS`] rows per zone).
    #[must_use]
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Column-wide min/max over non-null values (folds the zones).
    #[must_use]
    pub fn min_max(&self) -> Option<(&Value, &Value)> {
        let mut acc: Option<(&Value, &Value)> = None;
        for z in &self.zones {
            if let Some((lo, hi)) = z.min_max() {
                acc = Some(match acc {
                    None => (lo, hi),
                    Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                });
            }
        }
        acc
    }

    /// Whether `row` holds a non-null value.
    #[must_use]
    pub fn is_valid(&self, row: usize) -> bool {
        self.validity.get(row)
    }

    /// The validity bitmap (bit set = non-null).
    #[must_use]
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Min and max of `key` over the non-null rows in `lo..hi`.
    fn min_max_by<K: Ord + Copy>(
        &self,
        lo: usize,
        hi: usize,
        key: impl Fn(usize) -> K,
    ) -> Option<(K, K)> {
        let mut acc: Option<(K, K)> = None;
        self.validity.for_each_one_in(lo, hi, |i| {
            let k = key(i);
            acc = Some(acc.map_or((k, k), |(min, max)| (min.min(k), max.max(k))));
        });
        acc
    }

    /// Recompute the zone metadata from zone `from_zone` to the end of
    /// a column now `rows` long, reading the typed vector; strings
    /// compare by their rank in the sealed `dict`, which is their
    /// order as values.
    fn rezone(&mut self, dict: &Dictionary, from_zone: usize, rows: usize) {
        self.zones.truncate(from_zone);
        let mut lo = from_zone * ZONE_ROWS;
        while lo < rows {
            let hi = (lo + ZONE_ROWS).min(rows);
            let min_max = match &self.data {
                ColData::Int(xs) => self
                    .min_max_by(lo, hi, |i| xs[i])
                    .map(|(a, b)| (Value::Int(a), Value::Int(b))),
                ColData::Bool(xs) => self
                    .min_max_by(lo, hi, |i| xs[i])
                    .map(|(a, b)| (Value::Bool(a), Value::Bool(b))),
                ColData::Str(xs) => self
                    .min_max_by(lo, hi, |i| (dict.rank(xs[i]), xs[i]))
                    .map(|((_, a), (_, b))| (Value::from(dict.str(a)), Value::from(dict.str(b)))),
                ColData::Mixed(xs) => self
                    .min_max_by(lo, hi, |i| &xs[i])
                    .map(|(a, b)| (a.clone(), b.clone())),
            };
            let nulls = (hi - lo) - self.validity.count_ones_range(lo, hi);
            self.zones.push(Zone { min_max, nulls });
            lo = hi;
        }
    }

    /// The sketch of the stored values, read off the typed vector —
    /// O(rows), one hash per non-null row.
    fn resketch(&self, dict: &Dictionary) -> KeySketch {
        let mut sketch = KeySketch::default();
        let rows = self.validity.len();
        let mut offer = |v: ValueRef<'_>| sketch.insert(KeySketch::hash_ref(v));
        match &self.data {
            ColData::Int(xs) => self
                .validity
                .for_each_one_in(0, rows, |i| offer(ValueRef::Int(xs[i]))),
            ColData::Bool(xs) => self
                .validity
                .for_each_one_in(0, rows, |i| offer(ValueRef::Bool(xs[i]))),
            ColData::Str(xs) => self
                .validity
                .for_each_one_in(0, rows, |i| offer(ValueRef::Str(dict.str(xs[i])))),
            ColData::Mixed(xs) => self
                .validity
                .for_each_one_in(0, rows, |i| offer(ValueRef::from(&xs[i]))),
        }
        sketch
    }

    /// Drop the rows at `ids` (ascending, distinct) from this column's
    /// vector and validity, leaving `rows` rows, and recompute the
    /// zones the removal reached: the one holding `ids[0]` and, since
    /// every later row moved down, all behind it.
    fn delete(&mut self, ids: &[usize], rows: usize, dict: &Dictionary) {
        let Some(&first) = ids.first() else {
            return;
        };
        self.null_count -= ids.iter().filter(|&&i| !self.validity.get(i)).count();
        match &mut self.data {
            ColData::Int(xs) => remove_at(xs, ids),
            ColData::Bool(xs) => remove_at(xs, ids),
            ColData::Str(xs) => remove_at(xs, ids),
            ColData::Mixed(xs) => remove_at(xs, ids),
        }
        self.validity.remove_bits(ids);
        self.rezone(dict, first / ZONE_ROWS, rows);
    }

    /// Push the values of `rows` at column `c` onto this column's
    /// vectors, starting at row id `old_rows`. Values were already
    /// validated against the layout by [`ColumnSet::append_rows`]. The
    /// trailing partial zone extends in place — min/max only widen
    /// under appends — and fresh zones open at `ZONE_ROWS` boundaries.
    fn append(
        &mut self,
        rows: &[crate::tuple::Tuple],
        c: usize,
        old_rows: usize,
        dict: &Dictionary,
    ) {
        self.validity.grow(rows.len());
        for (i, t) in rows.iter().enumerate() {
            let slot = old_rows + i;
            let v = t.get(c);
            if v.is_null() {
                self.null_count += 1;
            } else {
                self.validity.set(slot);
                let h = KeySketch::hash_value(v);
                if self.sketch.slot(h).is_some() {
                    Arc::make_mut(&mut self.sketch).insert(h);
                }
            }
            match &mut self.data {
                ColData::Int(xs) => xs.push(if let Value::Int(x) = v { *x } else { 0 }),
                ColData::Bool(xs) => xs.push(if let Value::Bool(b) = v { *b } else { false }),
                ColData::Str(xs) => xs.push(match v {
                    Value::Str(s) => dict.code_of(s).expect("validated against dictionary"),
                    _ => 0,
                }),
                ColData::Mixed(xs) => xs.push(v.clone()),
            }
            if slot.is_multiple_of(ZONE_ROWS) {
                self.zones.push(Zone {
                    min_max: None,
                    nulls: 0,
                });
            }
            let z = self.zones.last_mut().expect("zone opened above");
            if v.is_null() {
                z.nulls += 1;
            } else {
                z.min_max = Some(match z.min_max.take() {
                    None => (v.clone(), v.clone()),
                    Some((lo, hi)) => (
                        if *v < lo { v.clone() } else { lo },
                        if *v > hi { v.clone() } else { hi },
                    ),
                });
            }
        }
    }
}

/// A vectorized three-valued selection: bit `i` of `trues` is set
/// where the predicate is definitely `True` on row `i`, bit `i` of
/// `falses` where it is definitely `False`; rows in neither bitmap
/// evaluated to `Unknown`. The two bitmaps are disjoint.
#[derive(Debug, Clone)]
pub struct SelMask {
    t: Bitmap,
    f: Bitmap,
}

impl SelMask {
    fn constant(truth: Truth, len: usize) -> SelMask {
        match truth {
            Truth::True => SelMask {
                t: Bitmap::ones(len),
                f: Bitmap::zeros(len),
            },
            Truth::False => SelMask {
                t: Bitmap::zeros(len),
                f: Bitmap::ones(len),
            },
            Truth::Unknown => SelMask {
                t: Bitmap::zeros(len),
                f: Bitmap::zeros(len),
            },
        }
    }

    /// Rows where the predicate is definitely `True` — the filter
    /// selection under SQL `WHERE` semantics.
    #[must_use]
    pub fn trues(&self) -> &Bitmap {
        &self.t
    }

    /// Rows where the predicate is definitely `False`.
    #[must_use]
    pub fn falses(&self) -> &Bitmap {
        &self.f
    }

    /// Number of selected (`True`) rows.
    #[must_use]
    pub fn true_count(&self) -> usize {
        self.t.count_ones()
    }

    /// Consume the mask, keeping only the definitely-`True` bitmap —
    /// what a `WHERE` filter drives its output from.
    #[must_use]
    pub fn into_trues(self) -> Bitmap {
        self.t
    }
}

/// The columnar mirror of one relation: a typed [`Column`] per
/// attribute plus the shared per-table string dictionary.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    rows: usize,
    dict: Dictionary,
    cols: Vec<Column>,
}

impl ColumnSet {
    /// Decompose `rel` into typed columns. Each column picks the
    /// narrowest layout its non-null values admit (`Int`/`Bool`/dict
    /// `Str`, falling back to direct `Value` storage for heterogeneous
    /// columns); all string columns share one per-table dictionary.
    #[must_use]
    pub fn build(rel: &Relation) -> ColumnSet {
        let n = rel.len();
        let width = rel.schema().len();
        let mut dict = Dictionary::default();
        let mut cols: Vec<Column> = (0..width)
            .map(|c| ColumnSet::build_column(rel, c, &mut dict))
            .collect();
        // Zones last: string min/max reads the ranks sealing assigns.
        dict.seal();
        for col in &mut cols {
            col.rezone(&dict, 0, n);
        }
        ColumnSet {
            rows: n,
            dict,
            cols,
        }
    }

    /// Column `c` of `rel`, all but its zones — [`ColumnSet::build`]
    /// fills those in once the dictionary is sealed.
    fn build_column(rel: &Relation, c: usize, dict: &mut Dictionary) -> Column {
        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            Unknown,
            Int,
            Str,
            Bool,
            Mixed,
        }
        let n = rel.len();
        let mut kind = Kind::Unknown;
        for t in rel.rows() {
            let vk = match t.get(c) {
                Value::Null => continue,
                Value::Int(_) => Kind::Int,
                Value::Str(_) => Kind::Str,
                Value::Bool(_) => Kind::Bool,
            };
            if kind == Kind::Unknown {
                kind = vk;
            } else if kind != vk {
                kind = Kind::Mixed;
                break;
            }
        }

        let mut validity = Bitmap::zeros(n);
        let mut null_count = 0usize;
        let data = match kind {
            Kind::Unknown | Kind::Int => {
                let mut xs = vec![0i64; n];
                for (i, t) in rel.rows().iter().enumerate() {
                    match t.get(c) {
                        Value::Int(v) => {
                            xs[i] = *v;
                            validity.set(i);
                        }
                        _ => null_count += 1,
                    }
                }
                ColData::Int(xs)
            }
            Kind::Bool => {
                let mut xs = vec![false; n];
                for (i, t) in rel.rows().iter().enumerate() {
                    match t.get(c) {
                        Value::Bool(v) => {
                            xs[i] = *v;
                            validity.set(i);
                        }
                        _ => null_count += 1,
                    }
                }
                ColData::Bool(xs)
            }
            Kind::Str => {
                let mut xs = vec![0u32; n];
                for (i, t) in rel.rows().iter().enumerate() {
                    match t.get(c) {
                        Value::Str(s) => {
                            xs[i] = dict.intern(s);
                            validity.set(i);
                        }
                        _ => null_count += 1,
                    }
                }
                ColData::Str(xs)
            }
            Kind::Mixed => {
                let mut xs = Vec::with_capacity(n);
                for (i, t) in rel.rows().iter().enumerate() {
                    let v = t.get(c);
                    if v.is_null() {
                        null_count += 1;
                    } else {
                        validity.set(i);
                    }
                    xs.push(v.clone());
                }
                ColData::Mixed(xs)
            }
        };

        // Exact distinct count with the catalog's convention: null, if
        // present, counts as one value. The sketch streams over the same
        // set, one hash per distinct non-null value.
        let values: FastSet<&Value> = rel.rows().iter().map(|t| t.get(c)).collect();
        let distinct = values.len() as u64;
        let mut sketch = KeySketch {
            hashes: Vec::with_capacity(values.len().min(SKETCH_K)),
        };
        for v in values.into_iter().filter(|v| !v.is_null()) {
            sketch.insert(KeySketch::hash_value(v));
        }

        Column {
            data,
            validity,
            null_count,
            distinct,
            sketch: Arc::new(sketch),
            sketch_stale: 0,
            zones: Vec::new(),
        }
    }

    /// Remove the rows at positions `ids` (ascending, distinct, in
    /// range) in place — the layout-maintenance path behind base-table
    /// deletes, the mirror image of [`ColumnSet::append_rows`]. Every
    /// column compacts its typed vector and validity bitmap, adjusts
    /// its null count and recomputes its zones from the first one
    /// touched; `distinct` supplies the new exact distinct counts. A key
    /// sketch is left as it is — a superset of the stored values — until
    /// the distinct values deleted since it was exact pass its
    /// [`SKETCH_SLACK`] bound; then that column is re-sketched from its
    /// surviving rows (see [`KeySketch`]).
    /// Costs the rows from `ids[0]` on. Unlike an append, a delete
    /// always fits the layout: a column keeps its type even if the
    /// values that widened it are gone, and the sealed dictionary keeps
    /// the strings no row uses any more (their codes stay valid, their
    /// ranks stay consistent with string order), so readers see what a
    /// rebuild over the survivors would show them.
    pub fn delete_rows(&mut self, ids: &[usize], distinct: &[u64]) {
        debug_assert_eq!(distinct.len(), self.cols.len());
        self.rows -= ids.len();
        for (col, &d) in self.cols.iter_mut().zip(distinct) {
            col.delete(ids, self.rows, &self.dict);
            col.sketch_stale += col.distinct.saturating_sub(d);
            col.distinct = d;
            if col.sketch_stale * SKETCH_SLACK > d {
                col.sketch = Arc::new(col.resketch(&self.dict));
                col.sketch_stale = 0;
            }
        }
    }

    /// Append pre-deduplicated rows in place, extending every column's
    /// typed vector, validity bitmap, null count, and zone metadata —
    /// the O(|delta|) layout-maintenance path behind base-table
    /// appends; every appended non-null value is offered to its
    /// column's key sketch. `distinct` supplies each column's new exact distinct
    /// count (the caller tracks the value sets; this structure only
    /// stores the result, under the same null-counts-as-one convention
    /// as [`ColumnSet::build`]).
    ///
    /// Returns `false` without modifying anything when some value
    /// cannot join its column's existing layout — a new type in a
    /// typed column, or a string absent from the sealed dictionary —
    /// in which case the caller rebuilds with [`ColumnSet::build`].
    pub fn append_rows(&mut self, rows: &[crate::tuple::Tuple], distinct: &[u64]) -> bool {
        debug_assert_eq!(distinct.len(), self.cols.len());
        // Validation pass first: nothing mutates unless every value of
        // every row fits its column's layout.
        for (c, col) in self.cols.iter().enumerate() {
            for t in rows {
                let fits = match (t.get(c), &col.data) {
                    (Value::Null, _) => true,
                    (Value::Int(_), ColData::Int(_)) => true,
                    (Value::Bool(_), ColData::Bool(_)) => true,
                    (Value::Str(s), ColData::Str(_)) => self.dict.code_of(s).is_some(),
                    (_, ColData::Mixed(_)) => true,
                    _ => false,
                };
                if !fits {
                    return false;
                }
            }
        }
        let old_rows = self.rows;
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.append(rows, c, old_rows, &self.dict);
            col.distinct = distinct[c];
        }
        self.rows += rows.len();
        true
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The column at offset `c`.
    #[must_use]
    pub fn column(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// The cell at `(row, col)`, reassembled as an owned [`Value`]
    /// (oracle/testing convenience — engines read columns directly).
    #[must_use]
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.value_ref(&self.cols[col], row).to_value()
    }

    /// The cell of `col` at `row`, read in place (`Null` where the
    /// validity bit is clear).
    fn value_ref<'a>(&'a self, col: &'a Column, row: usize) -> ValueRef<'a> {
        if !col.validity.get(row) {
            return ValueRef::Null;
        }
        match &col.data {
            ColData::Int(xs) => ValueRef::Int(xs[row]),
            ColData::Bool(xs) => ValueRef::Bool(xs[row]),
            ColData::Str(xs) => ValueRef::Str(self.dict.str(xs[row])),
            ColData::Mixed(xs) => ValueRef::from(&xs[row]),
        }
    }

    /// Vectorized [`BoundPred`] evaluation (`pred` bound against this
    /// relation's own scheme): produces the same per-row [`Truth`] as
    /// [`BoundPred::eval`] on every row, as a [`SelMask`]. Comparison
    /// leaves consult zone min/max metadata first; zones the metadata
    /// already proves can contain no `True` row are resolved without
    /// touching the data, and each such zone bumps `skipped`.
    #[must_use]
    pub fn eval_pred(&self, pred: &BoundPred, skipped: &mut u64) -> SelMask {
        let n = self.rows;
        match pred {
            BoundPred::Const(truth) => SelMask::constant(*truth, n),
            BoundPred::IsNull(s) => match s {
                BoundScalar::Lit(v) => SelMask::constant(Truth::from_bool(v.is_null()), n),
                BoundScalar::Col(i) => {
                    let validity = &self.cols[*i].validity;
                    SelMask {
                        t: validity.negated(),
                        f: validity.clone(),
                    }
                }
            },
            BoundPred::Not(p) => {
                let m = self.eval_pred(p, skipped);
                SelMask { t: m.f, f: m.t }
            }
            BoundPred::And(a, b) => {
                let mut ma = self.eval_pred(a, skipped);
                let mb = self.eval_pred(b, skipped);
                ma.t.and_assign(&mb.t);
                ma.f.or_assign(&mb.f);
                ma
            }
            BoundPred::Or(a, b) => {
                let mut ma = self.eval_pred(a, skipped);
                let mb = self.eval_pred(b, skipped);
                ma.t.or_assign(&mb.t);
                ma.f.and_assign(&mb.f);
                ma
            }
            BoundPred::Cmp(op, l, r) => match (l, r) {
                (BoundScalar::Lit(a), BoundScalar::Lit(b)) => {
                    let truth = match a.cmp3(b) {
                        None => Truth::Unknown,
                        Some(ord) => Truth::from_bool(op.test(ord)),
                    };
                    SelMask::constant(truth, n)
                }
                (BoundScalar::Col(i), BoundScalar::Lit(v)) => self.cmp_col_lit(*op, *i, v, skipped),
                (BoundScalar::Lit(v), BoundScalar::Col(i)) => {
                    self.cmp_col_lit(op.flipped(), *i, v, skipped)
                }
                (BoundScalar::Col(i), BoundScalar::Col(j)) => {
                    self.cmp_col_col(*op, *i, *j, skipped)
                }
            },
        }
    }

    /// Over the orderings attainable in `[ord_lo, ord_hi]`
    /// (`Less < Equal < Greater`): does `op` hold for any / for all?
    fn interval_test(op: CmpOp, ord_lo: Ordering, ord_hi: Ordering) -> (bool, bool) {
        let mut any = false;
        let mut all = true;
        for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
            if ord >= ord_lo && ord <= ord_hi {
                if op.test(ord) {
                    any = true;
                } else {
                    all = false;
                }
            }
        }
        (any, all)
    }

    fn cmp_col_lit(&self, op: CmpOp, ci: usize, lit: &Value, skipped: &mut u64) -> SelMask {
        let n = self.rows;
        let col = &self.cols[ci];
        let mut t = Bitmap::zeros(n);
        let mut f = Bitmap::zeros(n);
        if lit.is_null() {
            // Every comparison is Unknown; no zone needs its data.
            *skipped += col.zones.len() as u64;
            return SelMask { t, f };
        }
        // Per-code truth table for dict-encoded string columns, built
        // lazily on the first zone that actually needs the data.
        let mut code_table: Option<Vec<bool>> = None;
        for (zi, zone) in col.zones.iter().enumerate() {
            let lo = zi * ZONE_ROWS;
            let hi = (lo + ZONE_ROWS).min(n);
            let Some((zmin, zmax)) = zone.min_max() else {
                *skipped += 1; // all-null zone: all Unknown
                continue;
            };
            let (any, all) = ColumnSet::interval_test(op, zmin.cmp(lit), zmax.cmp(lit));
            if !any {
                // No row in the zone can satisfy op: every non-null row
                // is definitely False, without reading the data.
                f.union_range(&col.validity, lo, hi);
                *skipped += 1;
            } else if all {
                // Every non-null row satisfies op — still metadata-only.
                t.union_range(&col.validity, lo, hi);
            } else {
                self.cmp_lit_zone(op, col, lit, lo, hi, &mut t, &mut f, &mut code_table);
            }
        }
        SelMask { t, f }
    }

    /// The ambiguous-zone tight loop of [`ColumnSet::cmp_col_lit`]. An
    /// ambiguous zone implies the literal's type tag lies within the
    /// zone's min/max type range, so a typed column sees a like-typed
    /// literal here; the `else` arms are unreachable but kept total.
    #[allow(clippy::too_many_arguments)]
    fn cmp_lit_zone(
        &self,
        op: CmpOp,
        col: &Column,
        lit: &Value,
        lo: usize,
        hi: usize,
        t: &mut Bitmap,
        f: &mut Bitmap,
        code_table: &mut Option<Vec<bool>>,
    ) {
        match (&col.data, lit) {
            (ColData::Int(xs), Value::Int(lv)) => {
                for (i, x) in xs.iter().enumerate().take(hi).skip(lo) {
                    if col.validity.get(i) {
                        if op.test(x.cmp(lv)) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            (ColData::Bool(xs), Value::Bool(lv)) => {
                for (i, x) in xs.iter().enumerate().take(hi).skip(lo) {
                    if col.validity.get(i) {
                        if op.test(x.cmp(lv)) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            (ColData::Str(xs), Value::Str(ls)) => {
                let table = code_table.get_or_insert_with(|| {
                    (0..self.dict.len() as u32)
                        .map(|c| op.test(self.dict.str(c).cmp(ls)))
                        .collect()
                });
                for (i, code) in xs.iter().enumerate().take(hi).skip(lo) {
                    if col.validity.get(i) {
                        if table[*code as usize] {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            (ColData::Mixed(xs), _) => {
                for (i, x) in xs.iter().enumerate().take(hi).skip(lo) {
                    if let Some(ord) = x.cmp3(lit) {
                        if op.test(ord) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            // Cross-type fallback: the comparison reduces to the type
            // tags, the same for every non-null row.
            _ => {
                let sample = match &col.data {
                    ColData::Int(_) => Value::Int(0),
                    ColData::Bool(_) => Value::Bool(false),
                    ColData::Str(_) => Value::Str(String::new()),
                    ColData::Mixed(_) => unreachable!("handled above"),
                };
                if op.test(sample.cmp(lit)) {
                    t.union_range(&col.validity, lo, hi);
                } else {
                    f.union_range(&col.validity, lo, hi);
                }
            }
        }
    }

    fn cmp_col_col(&self, op: CmpOp, ci: usize, cj: usize, skipped: &mut u64) -> SelMask {
        let n = self.rows;
        let a = &self.cols[ci];
        let b = &self.cols[cj];
        let mut t = Bitmap::zeros(n);
        let mut f = Bitmap::zeros(n);
        let n_zones = a.zones.len();
        for zi in 0..n_zones {
            let lo = zi * ZONE_ROWS;
            let hi = (lo + ZONE_ROWS).min(n);
            let (Some((amin, amax)), Some((bmin, bmax))) =
                (a.zones[zi].min_max(), b.zones[zi].min_max())
            else {
                *skipped += 1; // one side all-null: all Unknown
                continue;
            };
            // a.cmp(b) over the zone lies within [amin.cmp(bmax),
            // amax.cmp(bmin)] — a conservative ordering interval.
            let (any, all) = ColumnSet::interval_test(op, amin.cmp(bmax), amax.cmp(bmin));
            if !any {
                f.union_range_and(&a.validity, &b.validity, lo, hi);
                *skipped += 1;
            } else if all {
                t.union_range_and(&a.validity, &b.validity, lo, hi);
            } else {
                self.cmp_col_zone(op, a, b, lo, hi, &mut t, &mut f);
            }
        }
        SelMask { t, f }
    }

    #[allow(clippy::too_many_arguments)]
    fn cmp_col_zone(
        &self,
        op: CmpOp,
        a: &Column,
        b: &Column,
        lo: usize,
        hi: usize,
        t: &mut Bitmap,
        f: &mut Bitmap,
    ) {
        match (&a.data, &b.data) {
            (ColData::Int(xs), ColData::Int(ys)) => {
                for i in lo..hi {
                    if a.validity.get(i) && b.validity.get(i) {
                        if op.test(xs[i].cmp(&ys[i])) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            (ColData::Bool(xs), ColData::Bool(ys)) => {
                for i in lo..hi {
                    if a.validity.get(i) && b.validity.get(i) {
                        if op.test(xs[i].cmp(&ys[i])) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            (ColData::Str(xs), ColData::Str(ys)) => {
                // Shared dictionary: rank order is string order.
                for i in lo..hi {
                    if a.validity.get(i) && b.validity.get(i) {
                        let ord = self.dict.rank(xs[i]).cmp(&self.dict.rank(ys[i]));
                        if op.test(ord) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
            _ => {
                for i in lo..hi {
                    let (va, vb) = (self.value_ref(a, i), self.value_ref(b, i));
                    if !va.is_null() && !vb.is_null() {
                        if op.test(va.cmp(&vb)) {
                            t.set(i);
                        } else {
                            f.set(i);
                        }
                    }
                }
            }
        }
    }

    /// Hash the key columns of one row exactly as the row-major engine
    /// hashes an assembled tuple key: each key [`Value`], in column
    /// order, through [`key_hash`](crate::key_hash). Returns `None` when any key value
    /// is null (null keys never match). String keys hash their
    /// interned dictionary entry in place — no row assembly, no
    /// `String` clone.
    #[must_use]
    pub fn hash_key_at(&self, key_cols: &[usize], row: usize) -> Option<u64> {
        key_hash_refs(key_cols.iter().map(|&c| self.value_ref(&self.cols[c], row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::key_hash;
    use crate::tuple::Tuple;

    /// Deterministic xorshift generator (no external deps, no clock).
    struct Rng(u64);
    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    fn mixed_relation(rows: usize, seed: u64) -> Relation {
        let mut rng = Rng(seed | 1);
        let mut data = Vec::with_capacity(rows);
        for _ in 0..rows {
            let int_v = match rng.below(10) {
                0 => Value::Null,
                d => Value::Int(rng.below(40) as i64 - 20 + i64::from(d == 1)),
            };
            let str_v = match rng.below(8) {
                0 => Value::Null,
                _ => Value::str(format!("s{}", rng.below(6))),
            };
            let bool_v = match rng.below(6) {
                0 => Value::Null,
                _ => Value::Bool(rng.below(2) == 1),
            };
            let any_v = match rng.below(4) {
                0 => Value::Null,
                1 => Value::Int(rng.below(5) as i64),
                2 => Value::str(format!("m{}", rng.below(3))),
                _ => Value::Bool(rng.below(2) == 0),
            };
            data.push(vec![int_v, str_v, bool_v, any_v]);
        }
        Relation::from_values("R", &["a", "b", "c", "d"], data)
    }

    fn pred_suite() -> Vec<BoundPred> {
        use BoundPred as P;
        use BoundScalar as S;
        let lit = |v: Value| S::Lit(v);
        vec![
            P::Cmp(CmpOp::Ge, S::Col(0), lit(Value::Int(0))),
            P::Cmp(CmpOp::Eq, S::Col(0), lit(Value::Int(3))),
            P::Cmp(CmpOp::Lt, lit(Value::Int(-5)), S::Col(0)),
            P::Cmp(CmpOp::Eq, S::Col(1), lit(Value::str("s2"))),
            P::Cmp(CmpOp::Gt, S::Col(1), lit(Value::str("s3"))),
            P::Cmp(CmpOp::Eq, S::Col(1), lit(Value::str("absent"))),
            P::Cmp(CmpOp::Eq, S::Col(2), lit(Value::Bool(true))),
            P::Cmp(CmpOp::Ne, S::Col(3), lit(Value::Int(2))),
            P::Cmp(CmpOp::Le, S::Col(3), lit(Value::str("m1"))),
            P::Cmp(CmpOp::Eq, S::Col(0), lit(Value::Null)),
            P::Cmp(CmpOp::Gt, S::Col(0), lit(Value::str("zz"))),
            P::Cmp(CmpOp::Lt, S::Col(1), lit(Value::Bool(false))),
            P::Cmp(CmpOp::Eq, S::Col(0), S::Col(3)),
            P::Cmp(CmpOp::Le, S::Col(0), S::Col(0)),
            P::Cmp(CmpOp::Gt, S::Col(1), S::Col(3)),
            P::IsNull(S::Col(0)),
            P::IsNull(S::Lit(Value::Null)),
            P::Const(Truth::Unknown),
            P::Not(Box::new(P::Cmp(CmpOp::Ge, S::Col(0), lit(Value::Int(0))))),
            P::And(
                Box::new(P::Cmp(CmpOp::Ge, S::Col(0), lit(Value::Int(-10)))),
                Box::new(P::Cmp(CmpOp::Eq, S::Col(2), lit(Value::Bool(false)))),
            ),
            P::Or(
                Box::new(P::IsNull(S::Col(1))),
                Box::new(P::Cmp(CmpOp::Lt, S::Col(0), S::Col(3))),
            ),
            P::Not(Box::new(P::Or(
                Box::new(P::Cmp(CmpOp::Eq, S::Col(1), lit(Value::str("s0")))),
                Box::new(P::IsNull(S::Col(3))),
            ))),
        ]
    }

    fn assert_mask_matches(rel: &Relation, cs: &ColumnSet, p: &BoundPred) {
        let mut skipped = 0u64;
        let m = cs.eval_pred(p, &mut skipped);
        for (i, t) in rel.rows().iter().enumerate() {
            let truth = p.eval(t);
            assert_eq!(m.trues().get(i), truth == Truth::True, "{p:?} row {i}");
            assert_eq!(m.falses().get(i), truth == Truth::False, "{p:?} row {i}");
        }
    }

    #[test]
    fn append_rows_matches_full_rebuild() {
        let full = mixed_relation(2200, 99);
        let split = full.len() * 2 / 3; // crosses ZONE_ROWS boundaries
        let prefix =
            Relation::from_distinct_rows(full.schema().clone(), full.rows()[..split].to_vec());
        let mut cs = ColumnSet::build(&prefix);
        let suffix: Vec<Tuple> = full.rows()[split..].to_vec();
        let distinct = distinct_counts(&full);
        assert!(
            cs.append_rows(&suffix, &distinct),
            "suffix values all fit the prefix layout"
        );
        assert_reads_like_a_rebuild(&cs, &full);
    }

    /// Everything a reader can ask of `cs` answers as a mirror built
    /// from scratch over `rel` would: cells, validity, null and
    /// distinct counts, every zone, the predicate kernel (zones
    /// included) and key hashes.
    fn assert_reads_like_a_rebuild(cs: &ColumnSet, rel: &Relation) {
        let rebuilt = ColumnSet::build(rel);
        assert_eq!(cs.rows(), rebuilt.rows());
        for c in 0..cs.width() {
            let (a, b) = (cs.column(c), rebuilt.column(c));
            assert_eq!(a.null_count(), b.null_count(), "col {c}");
            assert_eq!(a.distinct(), b.distinct(), "col {c}");
            assert_eq!(a.validity(), b.validity(), "col {c}");
            assert_eq!(a.zones().len(), b.zones().len(), "col {c}");
            for (z, (za, zb)) in a.zones().iter().zip(b.zones()).enumerate() {
                assert_eq!(za.min_max(), zb.min_max(), "col {c} zone {z}");
                assert_eq!(za.nulls(), zb.nulls(), "col {c} zone {z}");
            }
            for r in 0..cs.rows() {
                assert_eq!(cs.value_at(r, c), rebuilt.value_at(r, c), "cell {r},{c}");
                assert_eq!(cs.hash_key_at(&[c], r), rebuilt.hash_key_at(&[c], r));
            }
        }
        for p in pred_suite() {
            assert_mask_matches(rel, cs, &p);
        }
    }

    fn distinct_counts(rel: &Relation) -> Vec<u64> {
        (0..rel.schema().len())
            .map(|c| {
                rel.rows()
                    .iter()
                    .map(|t| t.get(c))
                    .collect::<FastSet<_>>()
                    .len() as u64
            })
            .collect()
    }

    #[test]
    fn delete_rows_matches_full_rebuild() {
        // Each round removes rows in place and compares with a mirror
        // built over the survivors.
        let mut rel = mixed_relation(4000, 5);
        let mut cs = ColumnSet::build(&rel);
        assert!(cs.column(0).zones().len() >= 3);
        type Pick = fn(usize) -> Vec<usize>;
        let rounds: [Pick; 5] = [
            |n| vec![n - 1],                             // the last row
            |n| (0..n).filter(|i| i % 7 == 3).collect(), // some of every zone
            |_| (1024..1400).collect(),                  // deep in one zone
            |_| vec![0, 1, 2, 700],                      // the front
            |n| (100..n - 50).collect(),                 // down to one short zone
        ];
        for (round, pick) in rounds.iter().enumerate() {
            let ids = pick(rel.len());
            rel.remove_rows_at(&ids);
            cs.delete_rows(&ids, &distinct_counts(&rel));
            assert_reads_like_a_rebuild(&cs, &rel);
            assert!(!rel.is_empty(), "round {round} leaves rows to compare");
            // Under k values, a sketch holds every hash: the kept one
            // covers the survivors' (a bounded superset, see KeySketch).
            let rebuilt = ColumnSet::build(&rel);
            for c in 0..cs.width() {
                let kept = &cs.column(c).sketch().hashes;
                for h in &rebuilt.column(c).sketch().hashes {
                    assert!(kept.binary_search(h).is_ok(), "round {round} col {c}");
                }
            }
        }
        assert_eq!(cs.column(0).zones().len(), 1);
        // Appends land on the compacted layout like on a fresh one.
        let more = mixed_relation(4000, 5).rows()[..1500].to_vec();
        let more: Vec<Tuple> = more
            .into_iter()
            .filter(|t| !rel.rows().contains(t))
            .collect();
        rel.extend_distinct(more.clone());
        assert!(cs.append_rows(&more, &distinct_counts(&rel)));
        assert_reads_like_a_rebuild(&cs, &rel);
        // Emptied: no rows, no zones.
        let all: Vec<usize> = (0..rel.len()).collect();
        rel.remove_rows_at(&all);
        cs.delete_rows(&all, &distinct_counts(&rel));
        assert_reads_like_a_rebuild(&cs, &rel);
        assert!(cs.column(0).zones().is_empty());
        for c in 0..cs.width() {
            assert!(cs.column(c).sketch().hashes.is_empty(), "col {c}");
        }
    }

    #[test]
    fn resketch_reads_every_layout_like_a_build() {
        let rel = mixed_relation(3000, 9);
        let cs = ColumnSet::build(&rel);
        for c in 0..cs.width() {
            let col = cs.column(c);
            assert!(!col.sketch().hashes.is_empty(), "col {c}");
            assert_eq!(col.resketch(&cs.dict), **col.sketch(), "col {c}");
        }
    }

    #[test]
    fn append_rows_refuses_layout_breaks_without_mutating() {
        let rel = Relation::from_ints("R", &["k", "v"], &[&[1, 10], &[2, 20]]);
        let mut cs = ColumnSet::build(&rel);
        // A new type in a typed column is refused whole.
        let bad = Tuple::new(vec![Value::Bool(true), Value::Int(1)]);
        assert!(!cs.append_rows(&[bad], &[3, 3]));
        assert_eq!(cs.rows(), 2);
        assert_eq!(cs.column(0).distinct(), 2);
        // A string the sealed dictionary has never seen is refused;
        // nulls always fit.
        let strs = Relation::from_values("S", &["s"], vec![vec![Value::str("a")]]);
        let mut cs = ColumnSet::build(&strs);
        assert!(!cs.append_rows(&[Tuple::new(vec![Value::str("b")])], &[2]));
        assert_eq!(cs.rows(), 1);
        assert!(cs.append_rows(&[Tuple::new(vec![Value::Null])], &[2]));
        assert_eq!(cs.rows(), 2);
        assert_eq!(cs.column(0).null_count(), 1);
        assert_eq!(cs.value_at(1, 0), Value::Null);
    }

    /// The sketch a freshly built one-column mirror of `values` keeps.
    fn sketch_of(values: impl IntoIterator<Item = Value>) -> KeySketch {
        let rows = values.into_iter().map(|v| vec![v]).collect();
        let rel = Relation::from_values("R", &["k"], rows);
        KeySketch::clone(ColumnSet::build(&rel).column(0).sketch())
    }

    #[test]
    fn sketch_measures_overlap_on_int_and_str_keys() {
        let int = |r: std::ops::Range<i64>| sketch_of(r.map(Value::Int));
        let string = |r: std::ops::Range<i64>| sketch_of(r.map(|i| Value::str(format!("key{i}"))));
        // (a, b, true |A ∩ B|, relative tolerance on the estimate).
        let cases = [
            (0..5_000, 10_000..15_000, 1.0, 0.0), // disjoint: m clamps to 1
            (0..5_000, 0..5_000, 5_000.0, 0.0),   // identical
            (0..4_000, 2_000..6_000, 2_000.0, 0.25), // half overlapping
            (0..460, 0..12_460, 460.0, 0.5),      // foreign key into its key
            (0..100, 50..150, 50.0, 0.0),         // under k values: exact
        ];
        for (a, b, want, tol) in cases {
            let (da, db) = ((a.end - a.start) as f64, (b.end - b.start) as f64);
            for (sa, sb) in [
                (int(a.clone()), int(b.clone())),
                (string(a.clone()), string(b.clone())),
            ] {
                let m = KeySketch::matching(sa.jaccard(&sb), da, db);
                assert!(
                    (m - want).abs() <= tol * want + 1e-9,
                    "{a:?} vs {b:?}: m = {m}, want {want}"
                );
                assert_eq!(m, KeySketch::matching(sb.jaccard(&sa), db, da), "symmetric");
            }
        }
        assert_eq!(int(0..5_000).jaccard(&int(0..5_000)), 1.0);
        assert!((int(0..100).jaccard(&int(50..150)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(int(0..10).jaccard(&KeySketch::default()), 0.0);
        assert_eq!(KeySketch::default().jaccard(&KeySketch::default()), 0.0);
    }

    #[test]
    fn sketch_ignores_row_order_and_nulls_and_hashes_stably() {
        let values: Vec<Value> = (0..3_000).map(|i| Value::Int(i * 7)).collect();
        let mut shuffled = values.clone();
        let mut rng = Rng(17);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        shuffled.push(Value::Null);
        let sketch = sketch_of(values);
        assert_eq!(sketch, sketch_of(shuffled));
        assert_eq!(sketch.hashes.len(), SKETCH_K);
        assert!(sketch.hashes.windows(2).all(|w| w[0] < w[1]));
        // The hash is part of the plan-determining statistics: it must
        // read the same in every process and on every toolchain.
        assert_eq!(KeySketch::hash_value(&Value::Int(0)), 0xbfcb_1a2f_dd1f_ff6f);
        assert_eq!(
            KeySketch::hash_value(&Value::Int(42)),
            0x0640_467e_21fb_54bb
        );
        assert_eq!(
            KeySketch::hash_value(&Value::str("a")),
            0xa9c6_a2b4_f029_92b7
        );
        assert_eq!(
            KeySketch::hash_value(&Value::Bool(true)),
            0x0309_2730_2f8f_bc35
        );
    }

    #[test]
    fn sketch_appends_match_a_rebuild() {
        let mut rng = Rng(41);
        let row = |rng: &mut Rng| Tuple::new(vec![Value::Int(rng.below(20_000) as i64)]);
        let mut rel = Relation::from_distinct_rows(
            Arc::new(crate::schema::Schema::of_relation("R", &["k"])),
            Vec::new(),
        );
        let mut cs = ColumnSet::build(&rel);
        for batch in 0..40 {
            let size = [1, 7, 300][batch % 3];
            let mut novel: Vec<Tuple> = Vec::new();
            for _ in 0..size {
                let t = row(&mut rng);
                if !rel.rows().contains(&t) && !novel.contains(&t) {
                    novel.push(t);
                }
            }
            rel.extend_distinct(novel.clone());
            assert!(cs.append_rows(&novel, &distinct_counts(&rel)));
            let rebuilt = ColumnSet::build(&rel);
            assert_eq!(
                cs.column(0).sketch(),
                rebuilt.column(0).sketch(),
                "batch {batch}"
            );
        }
        assert_eq!(cs.column(0).sketch().hashes.len(), SKETCH_K);
    }

    #[test]
    fn sketch_after_deletes_is_a_bounded_superset() {
        let rel = Relation::from_values(
            "R",
            &["k"],
            (0..2_000).map(|i| vec![Value::Int(i)]).collect(),
        );
        let mut cs = ColumnSet::build(&rel);
        let before = KeySketch::clone(cs.column(0).sketch());
        let mut survivors = rel.clone();
        let mut delete_below = |cs: &mut ColumnSet, bound: i64| {
            let ids: Vec<usize> = (0..survivors.len())
                .filter(|&i| matches!(survivors.rows()[i].get(0), Value::Int(v) if *v < bound))
                .collect();
            survivors.remove_rows_at(&ids);
            cs.delete_rows(&ids, &distinct_counts(&survivors));
            survivors.clone()
        };
        // 300 of 2 000 keys gone: within the slack (300·4 ≤ 1 700), so
        // the sketch is still that of stored ∪ deleted values, and every
        // survivor hash in the range it covers is in it.
        let stored = delete_below(&mut cs, 300);
        let kept = KeySketch::clone(cs.column(0).sketch());
        assert_eq!(kept, before);
        let tight = sketch_of(stored.rows().iter().map(|t| t.get(0).clone()));
        assert_ne!(tight, before);
        let cover = *kept.hashes.last().expect("non-empty");
        for h in tight.hashes.iter().filter(|&&h| h <= cover) {
            assert!(kept.hashes.binary_search(h).is_ok());
        }
        // 500 gone (500·4 > 1 500): the delete re-sketches the
        // survivors, exactly as a rebuild would.
        let stored = delete_below(&mut cs, 500);
        assert_eq!(
            cs.column(0).sketch(),
            ColumnSet::build(&stored).column(0).sketch()
        );
        // The count restarts: 200 more (200·4 ≤ 1 300) leave it be.
        let resketched = KeySketch::clone(cs.column(0).sketch());
        let stored = delete_below(&mut cs, 700);
        assert_eq!(**cs.column(0).sketch(), resketched);
        assert_ne!(
            cs.column(0).sketch(),
            ColumnSet::build(&stored).column(0).sketch()
        );
    }

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129) && !b.get(1));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.count_ones_range(0, 65), 2);
        assert_eq!(b.count_ones_range(1, 64), 0);
        assert_eq!(b.count_ones_range(64, 130), 2);
        let mut seen = Vec::new();
        b.for_each_one_in(1, 130, |i| seen.push(i));
        assert_eq!(seen, vec![64, 129]);
        let inv = b.negated();
        assert_eq!(inv.count_ones(), 130 - 3);
        assert_eq!(Bitmap::ones(130).count_ones(), 130);
        let mut dst = Bitmap::zeros(130);
        dst.union_range(&b, 0, 65);
        assert_eq!(dst.count_ones(), 2);
        let mut both = Bitmap::zeros(130);
        both.union_range_and(&b, &Bitmap::ones(130), 60, 130);
        assert_eq!(both.count_ones(), 2);
    }

    #[test]
    fn typed_columns_and_metadata() {
        let rel = Relation::from_values(
            "R",
            &["i", "s", "n"],
            vec![
                vec![Value::Int(5), Value::str("b"), Value::Null],
                vec![Value::Int(-2), Value::Null, Value::Null],
                vec![Value::Int(5), Value::str("a"), Value::Null],
            ],
        );
        let cs = ColumnSet::build(&rel);
        assert_eq!(cs.rows(), 3);
        assert_eq!(cs.width(), 3);
        let i = cs.column(0);
        assert_eq!(i.null_count(), 0);
        assert_eq!(i.distinct(), 2);
        assert_eq!(
            i.min_max(),
            Some((&Value::Int(-2), &Value::Int(5))),
            "column min/max folds zones"
        );
        let s = cs.column(1);
        assert_eq!(s.null_count(), 1);
        assert_eq!(s.distinct(), 3, "null counts as one distinct value");
        let n = cs.column(2);
        assert_eq!(n.null_count(), 3);
        assert_eq!(n.distinct(), 1);
        assert_eq!(n.min_max(), None);
        // Cells reassemble exactly.
        for (r, t) in rel.rows().iter().enumerate() {
            for c in 0..3 {
                assert_eq!(&cs.value_at(r, c), t.get(c));
            }
        }
        // Dictionary: shared codes, rank order = string order.
        let d = &cs.dict;
        assert_eq!(d.len(), 2);
        let (cb, ca) = (d.code_of("b").unwrap(), d.code_of("a").unwrap());
        assert!(d.rank(ca) < d.rank(cb));
        assert_eq!(d.code_of("zzz"), None);
        assert_eq!(d.str(ca), "a");
    }

    #[test]
    fn eval_matches_row_oracle_on_random_data() {
        for seed in [3, 99, 4096] {
            let rel = mixed_relation(700, seed);
            let cs = ColumnSet::build(&rel);
            for p in &pred_suite() {
                assert_mask_matches(&rel, &cs, p);
            }
        }
    }

    #[test]
    fn eval_matches_row_oracle_across_many_zones() {
        // > 2 zones, sorted keys: exercises both metadata-decided and
        // ambiguous zones.
        let rows: Vec<Vec<Value>> = (0..3000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 97 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 7)
                    },
                ]
            })
            .collect();
        let rel = Relation::from_values("R", &["k", "m"], rows);
        let cs = ColumnSet::build(&rel);
        let preds = [
            BoundPred::Cmp(
                CmpOp::Lt,
                BoundScalar::Col(0),
                BoundScalar::Lit(Value::Int(1500)),
            ),
            BoundPred::Cmp(
                CmpOp::Eq,
                BoundScalar::Col(0),
                BoundScalar::Lit(Value::Int(2048)),
            ),
            BoundPred::Cmp(CmpOp::Ge, BoundScalar::Col(0), BoundScalar::Col(1)),
            BoundPred::Not(Box::new(BoundPred::Cmp(
                CmpOp::Gt,
                BoundScalar::Col(0),
                BoundScalar::Lit(Value::Int(2999)),
            ))),
        ];
        for p in &preds {
            assert_mask_matches(&rel, &cs, p);
        }
        // Sorted keys: an out-of-range equality resolves every zone
        // from metadata alone.
        let mut skipped = 0u64;
        let never = BoundPred::Cmp(
            CmpOp::Eq,
            BoundScalar::Col(0),
            BoundScalar::Lit(Value::Int(1 << 40)),
        );
        let m = cs.eval_pred(&never, &mut skipped);
        assert_eq!(m.true_count(), 0);
        assert_eq!(skipped, cs.column(0).zones().len() as u64);
        // A selective range predicate skips the zones outside it.
        skipped = 0;
        let range = BoundPred::Cmp(
            CmpOp::Lt,
            BoundScalar::Col(0),
            BoundScalar::Lit(Value::Int(100)),
        );
        let m = cs.eval_pred(&range, &mut skipped);
        assert_eq!(m.true_count(), 100);
        assert!(skipped >= 1, "upper zones prune via min/max");
    }

    #[test]
    fn eval_on_empty_and_all_null_relations() {
        let empty = Relation::from_values("R", &["a"], vec![]);
        let cs = ColumnSet::build(&empty);
        let p = BoundPred::Cmp(
            CmpOp::Eq,
            BoundScalar::Col(0),
            BoundScalar::Lit(Value::Int(1)),
        );
        let mut sk = 0;
        assert_eq!(cs.eval_pred(&p, &mut sk).true_count(), 0);

        let nulls = Relation::from_values("R", &["a"], vec![vec![Value::Null], vec![Value::Null]]);
        let cs = ColumnSet::build(&nulls);
        assert_mask_matches(&nulls, &cs, &p);
        assert_mask_matches(&nulls, &cs, &BoundPred::IsNull(BoundScalar::Col(0)));
    }

    #[test]
    fn hash_matches_row_major_tuple_hash() {
        let rel = mixed_relation(300, 7);
        let cs = ColumnSet::build(&rel);
        let hash_row = |t: &Tuple, cols: &[usize]| key_hash(cols.iter().map(|&c| t.get(c)));
        for cols in [vec![0], vec![1], vec![3], vec![0, 1], vec![2, 3, 0]] {
            for (i, t) in rel.rows().iter().enumerate() {
                assert_eq!(
                    cs.hash_key_at(&cols, i),
                    hash_row(t, &cols),
                    "key {cols:?} row {i}"
                );
            }
        }
        // Two string columns sharing the dictionary, strings of every
        // length around the hasher's 8-byte words, built whole and grown
        // by appends (whose strings the sealed dictionary already has).
        let rel = string_pairs(600, 11);
        let split = rel.len() / 2;
        let mut grown = ColumnSet::build(&Relation::from_distinct_rows(
            rel.schema().clone(),
            rel.rows()[..split].to_vec(),
        ));
        let suffix: Vec<Tuple> = rel.rows()[split..]
            .iter()
            .filter(|t| {
                (0..2)
                    .all(|c| !matches!(t.get(c), Value::Str(s) if grown.dict.code_of(s).is_none()))
            })
            .cloned()
            .collect();
        let prefix_and_suffix = Relation::from_distinct_rows(
            rel.schema().clone(),
            rel.rows()[..split].iter().chain(&suffix).cloned().collect(),
        );
        assert!(suffix.len() > 100, "{} rows appended", suffix.len());
        assert!(grown.append_rows(&suffix, &distinct_counts(&prefix_and_suffix)));
        for (rel, cs) in [(&rel, ColumnSet::build(&rel)), (&prefix_and_suffix, grown)] {
            for cols in [vec![0], vec![1], vec![0, 1], vec![1, 2, 0]] {
                for (i, t) in rel.rows().iter().enumerate() {
                    assert_eq!(
                        cs.hash_key_at(&cols, i),
                        hash_row(t, &cols),
                        "string key {cols:?} row {i}"
                    );
                }
            }
        }
    }

    /// Rows of two nullable string columns, `a` drawn from `x0…` to
    /// `x` plus 15 characters and `b` from a few cities, plus an int.
    fn string_pairs(rows: usize, seed: u64) -> Relation {
        let mut rng = Rng(seed | 1);
        let data = (0..rows)
            .map(|i| {
                let a = match rng.below(9) {
                    0 => Value::Null,
                    _ => {
                        let len = rng.below(17) as usize;
                        Value::str(format!(
                            "x{}",
                            "é0123456789abcdef".chars().take(len).collect::<String>()
                        ))
                    }
                };
                let b = match rng.below(7) {
                    0 => Value::Null,
                    _ => Value::str(format!("city-{}", rng.below(12))),
                };
                vec![a, b, Value::Int(i as i64)]
            })
            .collect();
        Relation::from_values("P", &["a", "b", "n"], data)
    }

    /// The string relation of the engine's string-dictionary property
    /// suite: string key `k`, string `s` and int `v` over `domain`
    /// values, each null with probability `null_pct` %.
    fn string_relation(rows: usize, domain: u64, null_pct: u64, seed: u64) -> Relation {
        let mut rng = Rng(seed | 1);
        let mut cell = |mk: fn(u64) -> Value| {
            if rng.below(100) < null_pct {
                Value::Null
            } else {
                mk(rng.below(domain))
            }
        };
        let rows = (0..rows)
            .map(|_| {
                vec![
                    cell(|x| Value::Str(format!("k{x}"))),
                    cell(|x| Value::Str(format!("city-{x}"))),
                    cell(|x| Value::Int(x as i64)),
                ]
            })
            .collect();
        Relation::from_values("L", &["k", "s", "v"], rows)
    }

    /// The matching row pairs of a string-keyed equi-join `l.k = r.k`
    /// as a hash join finds them: `r`'s rows bucketed by
    /// [`ColumnSet::hash_key_at`], each candidate rechecked by value.
    fn string_join(l: &ColumnSet, r: &ColumnSet) -> Vec<(usize, usize)> {
        let mut buckets: FastMap<u64, Vec<usize>> = FastMap::default();
        for j in 0..r.rows() {
            if let Some(h) = r.hash_key_at(&[0], j) {
                buckets.entry(h).or_default().push(j);
            }
        }
        let mut pairs = Vec::new();
        for i in 0..l.rows() {
            let Some(h) = l.hash_key_at(&[0], i) else {
                continue;
            };
            for &j in buckets.get(&h).map_or(&[][..], Vec::as_slice) {
                if l.value_at(i, 0) == r.value_at(j, 0) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    #[test]
    fn dictionary_answers_alike_when_every_string_collides() {
        // `intern` and `code_of` directly: first-appearance codes, one
        // per distinct string, found again through the collision list.
        let words = ["b", "", "a", "b", "longer than a word", "a", "ü", ""];
        let intern_all = || {
            let mut d = Dictionary::default();
            let codes: Vec<u32> = words.iter().map(|w| d.intern(w)).collect();
            d.seal();
            (d, codes)
        };
        let (plain, codes) = intern_all();
        let (collided, collided_codes) = colliding(intern_all);
        assert_eq!(codes, [0, 1, 2, 0, 3, 2, 4, 1]);
        assert_eq!(collided_codes, codes);
        assert!(plain.collided.is_empty());
        assert_eq!(collided.codes.len(), 1);
        assert_eq!(collided.collided.len(), 4);
        for w in words.iter().chain(&["c", "b ", "ü\0"]) {
            let want = plain.code_of(w);
            assert_eq!(colliding(|| collided.code_of(w)), want, "{w:?}");
            assert_eq!(want.map(|c| plain.str(c)), want.is_some().then_some(*w));
        }
        assert_eq!(
            (0..5).map(|c| collided.rank(c)).collect::<Vec<_>>(),
            (0..5).map(|c| plain.rank(c)).collect::<Vec<_>>()
        );

        // The string-keyed joins, filters and reads of the engine's
        // string-dictionary suite, on mirrors built and grown with
        // every string under one hash, against mirrors built without.
        use BoundPred as P;
        use BoundScalar as S;
        let lit = |s: &str| S::Lit(Value::str(s));
        let preds = [
            P::Cmp(CmpOp::Eq, S::Col(0), lit("k1")),
            P::Cmp(CmpOp::Ne, S::Col(0), lit("k1")),
            P::Cmp(CmpOp::Lt, S::Col(0), lit("k2")),
            P::Cmp(CmpOp::Ge, S::Col(0), lit("city-0")),
            P::IsNull(S::Col(1)),
            P::Not(Box::new(P::IsNull(S::Col(1)))),
            P::Or(
                Box::new(P::Cmp(CmpOp::Gt, S::Col(1), lit("city-1"))),
                Box::new(P::IsNull(S::Col(0))),
            ),
        ];
        // What a reader sees of `cs`, a mirror of `rel`, equals what it
        // sees of `plain`, one built without the hook.
        let reads_alike = |cs: &ColumnSet, plain: &ColumnSet, rel: &Relation| {
            for p in &preds {
                assert_mask_matches(rel, cs, p);
            }
            for c in 0..3 {
                let (zones, plain_zones) = (cs.column(c).zones(), plain.column(c).zones());
                assert_eq!(zones.len(), plain_zones.len());
                for (z, pz) in zones.iter().zip(plain_zones) {
                    assert_eq!(z.min_max(), pz.min_max(), "col {c}");
                }
                assert_eq!(cs.column(c).sketch(), plain.column(c).sketch(), "col {c}");
                for row in 0..rel.len() {
                    assert_eq!(cs.value_at(row, c), plain.value_at(row, c));
                    assert_eq!(cs.hash_key_at(&[c], row), plain.hash_key_at(&[c], row));
                }
            }
        };
        for seed in 0..60 {
            let rows = (seed * 7 % 24) as usize;
            let (domain, null_pct) = (1 + seed % 5, seed * 13 % 101);
            let l = string_relation(rows, domain, null_pct, seed);
            let r = string_relation(rows, domain, null_pct, seed ^ 0xabcd);
            let (lp, rp) = (ColumnSet::build(&l), ColumnSet::build(&r));
            let (lc, rc) = colliding(|| (ColumnSet::build(&l), ColumnSet::build(&r)));
            let joined = string_join(&lp, &rp);
            assert_eq!(colliding(|| string_join(&lc, &rc)), joined, "seed {seed}");
            colliding(|| {
                reads_alike(&lc, &lp, &l);
                reads_alike(&rc, &rp, &r);
            });
            // Grown by appends: the tail's strings are found through
            // the collision list.
            let (head, tail) = l.rows().split_at(l.len() / 2);
            let mut grown = Relation::from_distinct_rows(l.schema().clone(), head.to_vec());
            let mut cs = colliding(|| ColumnSet::build(&grown));
            let fits: Vec<Tuple> = tail
                .iter()
                .filter(|t| {
                    (0..2).all(|c| match t.get(c) {
                        Value::Str(s) => colliding(|| cs.dict.code_of(s)).is_some(),
                        _ => true,
                    })
                })
                .cloned()
                .collect();
            grown.extend_distinct(fits.clone());
            colliding(|| {
                assert!(cs.append_rows(&fits, &distinct_counts(&grown)));
            });
            let plain = ColumnSet::build(&grown);
            colliding(|| reads_alike(&cs, &plain, &grown));
        }
    }
}
