//! Hash indexes over base tables, and the row-id postings they share
//! with the executor's per-query join tables.
//!
//! Example 1 assumes "these keys have indexes"; a hash index maps a key
//! to the row ids holding it, so an index join retrieves exactly the
//! matching tuples instead of scanning. The index stores no key: it
//! files each row id under the key's [`key_hash`], and whoever reads a
//! posting rechecks every candidate against the row it names, so a
//! 64-bit collision costs a comparison, never a wrong row. Null key
//! values are not indexed — an equality predicate can never evaluate
//! to `True` on a null, so null-keyed rows are unreachable through the
//! index by construction (this matters for outerjoins over nullable
//! columns).

use fro_algebra::{key_hash, ColumnSet, FastMap, Tuple, Value};
use std::collections::hash_map::Entry;

/// What row id `id` becomes once the rows at `gone` (ascending, `id`
/// not among them) are removed and the rows behind each close the gap.
pub(crate) fn renumbered(id: usize, gone: &[usize]) -> usize {
    match gone.first() {
        Some(&first) if id > first => id - gone.partition_point(|&g| g < id),
        _ => id,
    }
}

/// A map value with this bit set names a list in [`Postings`]' side
/// table; without it, the value is the one row id filed.
const LIST: u32 = 1 << 31;

/// Row ids by key hash: the one layout behind a stored [`HashIndex`]
/// and a join's build side (`JoinTable`). Each key hash takes one
/// 16-byte map slot. A key usually has one row, whose id is the slot's
/// value; a shared key's value is instead [`LIST`] plus the index of
/// its id list in `lists`. A list that falls back to one id frees its
/// place in `lists` for the next shared key. Ids are added in ascending
/// row order and stay ascending under removal, so candidates come out
/// in row order and so does everything a probe emits.
#[derive(Debug, Clone, Default)]
pub(crate) struct Postings {
    slots: FastMap<u64, u32>,
    /// The id lists of shared keys (two ids or more, ascending); an
    /// index in `free` names an empty one.
    lists: Vec<Vec<u32>>,
    free: Vec<u32>,
}

#[cfg(test)]
thread_local! {
    /// The bits of a key hash a posting map files under; see
    /// [`colliding`].
    static HASH_BITS: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Run `f` with every key hash filed under one posting — on this
/// thread — so that probes see different keys sharing a hash.
#[cfg(test)]
pub(crate) fn colliding<R>(f: impl FnOnce() -> R) -> R {
    HASH_BITS.with(|bits| bits.set(0));
    let out = f();
    HASH_BITS.with(|bits| bits.set(u64::MAX));
    out
}

/// The map key hash `h` files under.
#[inline]
fn slot(h: u64) -> u64 {
    #[cfg(test)]
    let h = h & HASH_BITS.with(std::cell::Cell::get);
    h
}

impl Postings {
    /// File row `id`, which is past every row already filed under `h`.
    pub(crate) fn push(&mut self, h: u64, id: u32) {
        debug_assert!(id < LIST, "row ids stay below the list bit");
        match self.slots.entry(slot(h)) {
            Entry::Vacant(e) => {
                e.insert(id);
            }
            Entry::Occupied(mut e) => {
                let v = *e.get();
                if v & LIST != 0 {
                    self.lists[(v & !LIST) as usize].push(id);
                    return;
                }
                // A list index stays below the list bit as a row id does:
                // there are fewer lists than rows.
                let at = self.free.pop().unwrap_or_else(|| {
                    self.lists.push(Vec::new());
                    row_id(self.lists.len() - 1)
                });
                self.lists[at as usize] = vec![v, id];
                e.insert(LIST | at);
            }
        }
    }

    /// The ids filed under `h`, ascending (empty when none are, or
    /// for `None`, a null key's hash).
    #[inline]
    pub(crate) fn get(&self, h: Option<u64>) -> &[u32] {
        match h.and_then(|h| self.slots.get(&slot(h))) {
            None => &[],
            Some(v) if v & LIST != 0 => &self.lists[(v & !LIST) as usize],
            Some(id) => std::slice::from_ref(id),
        }
    }

    /// Take row `id` out of the posting of `h`; a hash with no row left
    /// is dropped, and a list down to one id goes back inline.
    fn remove(&mut self, h: u64, id: u32) {
        let Entry::Occupied(mut e) = self.slots.entry(slot(h)) else {
            return;
        };
        let v = *e.get();
        if v & LIST == 0 {
            if v == id {
                e.remove();
            }
            return;
        }
        let ids = &mut self.lists[(v & !LIST) as usize];
        if let Ok(at) = ids.binary_search(&id) {
            ids.remove(at);
        }
        if let [only] = ids[..] {
            *ids = Vec::new();
            self.free.push(v & !LIST);
            e.insert(only);
        }
    }

    /// Renumber every id as [`renumbered`] does once the rows at `gone`
    /// are removed. Order within each posting is kept.
    fn renumber(&mut self, gone: &[usize]) {
        let renumber = |id: &mut u32| {
            #[allow(clippy::cast_possible_truncation)]
            let moved = renumbered(*id as usize, gone) as u32;
            *id = moved;
        };
        for v in self.slots.values_mut() {
            if *v & LIST == 0 {
                renumber(v);
            }
        }
        for ids in &mut self.lists {
            ids.iter_mut().for_each(renumber);
        }
    }

    /// Number of distinct hashes filed.
    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Fail loudly where a row id would not fit a posting: ids stay below
/// 2³¹, the bit above them marks a list.
pub(crate) fn row_id(id: usize) -> u32 {
    u32::try_from(id)
        .ok()
        .filter(|&id| id < LIST)
        .expect("table exceeds 2^31 row ids")
}

/// A hash index on one or more columns of a base table: the ids of the
/// table's rows by key hash. The rows stay in the table; a reader
/// checks each candidate's key against the row it names.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    postings: Postings,
}

impl HashIndex {
    /// Build an index over the given column positions of a table, from
    /// its columnar mirror ([`ColumnSet::hash_key_at`]).
    #[must_use]
    pub(crate) fn build(columns: &ColumnSet, key_cols: Vec<usize>) -> HashIndex {
        let mut idx = HashIndex {
            key_cols,
            postings: Postings::default(),
        };
        idx.insert_rows(columns, 0);
        idx
    }

    /// Index the rows of `columns` from position `from` onward — the
    /// O(|delta|) maintenance path behind base-table appends. Row ids
    /// already indexed stay untouched, so `from` must be the length
    /// the table had when the index last saw it.
    pub(crate) fn insert_rows(&mut self, columns: &ColumnSet, from: usize) {
        let end = row_id(columns.rows());
        for id in row_id(from)..end {
            if let Some(h) = columns.hash_key_at(&self.key_cols, id as usize) {
                self.postings.push(h, id);
            }
        }
    }

    /// Forget the rows that stood at `ids` (ascending; `removed[i]` is
    /// the row that was at `ids[i]`) and renumber every posting behind
    /// them — the maintenance path behind base-table deletes. Postings
    /// stay in ascending row order and a hash whose last row went is
    /// dropped, so lookups read as from an index built over the
    /// survivors. Costs the postings, not the rows: O(|table|) id
    /// adjustments, no key rebuilt.
    pub(crate) fn remove_rows(&mut self, ids: &[usize], removed: &[Tuple]) {
        for (&id, row) in ids.iter().zip(removed) {
            if let Some(h) = key_hash(self.key_cols.iter().map(|&c| row.get(c))) {
                self.postings.remove(h, row_id(id));
            }
        }
        self.postings.renumber(ids);
    }

    /// The indexed column positions.
    #[must_use]
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// The candidate row ids for a key hash (`None`, a null key: none),
    /// ascending. Candidates still need their key checked against the
    /// row: different keys can share a hash.
    #[inline]
    pub(crate) fn candidates(&self, h: Option<u64>) -> &[u32] {
        self.postings.get(h)
    }

    /// The ids of the rows of `rows` — the table this index is on —
    /// whose key equals `key`, ascending (empty for unknown or null
    /// keys).
    #[must_use]
    pub fn lookup(&self, rows: &[Tuple], key: &[Value]) -> Vec<usize> {
        self.candidates(key_hash(key))
            .iter()
            .map(|&id| id as usize)
            .filter(|&id| {
                let row = &rows[id];
                self.key_cols.iter().zip(key).all(|(&c, v)| row.get(c) == v)
            })
            .collect()
    }

    /// Number of distinct key hashes: the distinct non-null keys,
    /// barring 64-bit collisions.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Relation;
    use std::collections::BTreeMap;

    fn rel() -> Relation {
        Relation::from_values(
            "R",
            &["k", "v"],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Null, Value::Int(99)],
            ],
        )
    }

    fn build(rel: &Relation, key_cols: Vec<usize>) -> HashIndex {
        HashIndex::build(&ColumnSet::build(rel), key_cols)
    }

    #[test]
    fn lookup_returns_matching_rows() {
        let rel = rel();
        let idx = build(&rel, vec![0]);
        assert_eq!(idx.lookup(rel.rows(), &[Value::Int(1)]), [0, 2]);
        assert_eq!(idx.lookup(rel.rows(), &[Value::Int(2)]), [1]);
        assert!(idx.lookup(rel.rows(), &[Value::Int(7)]).is_empty());
    }

    #[test]
    fn null_keys_not_indexed_and_not_matched() {
        let rel = rel();
        let idx = build(&rel, vec![0]);
        assert!(idx.lookup(rel.rows(), &[Value::Null]).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn remove_rows_reads_like_an_index_over_the_survivors() {
        let mut rel = rel();
        let mut idx = build(&rel, vec![0]);
        // Rows 0 (key 1), 1 (the only key 2) and 3 (null key) go.
        let ids = [0, 1, 3];
        let removed = rel.remove_rows_at(&ids);
        idx.remove_rows(&ids, &removed);
        assert_eq!(
            idx.lookup(rel.rows(), &[Value::Int(1)]),
            [0],
            "row 2 is row 0 now"
        );
        assert!(idx.lookup(rel.rows(), &[Value::Int(2)]).is_empty());
        assert_eq!(idx.distinct_keys(), 1, "a key with no rows left is dropped");
        assert_eq!(renumbered(5, &[0, 1, 3]), 2);
        assert_eq!(renumbered(2, &[0, 1, 3]), 0);
        assert_eq!(renumbered(0, &[1]), 0);
        assert_eq!(renumbered(7, &[]), 7);
    }

    #[test]
    fn composite_keys() {
        let rel = rel();
        let idx = build(&rel, vec![0, 1]);
        assert_eq!(
            idx.lookup(rel.rows(), &[Value::Int(1), Value::Int(11)]),
            [2]
        );
        assert!(idx
            .lookup(rel.rows(), &[Value::Int(1), Value::Int(12)])
            .is_empty());
        assert_eq!(idx.key_cols(), &[0, 1]);
    }

    #[test]
    fn postings_stay_ascending_and_shrink_back_inline() {
        let mut p = Postings::default();
        for id in [0, 3, 7] {
            p.push(5, id);
        }
        p.push(9, 4);
        assert_eq!(p.get(Some(5)), [0, 3, 7]);
        p.remove(5, 3);
        p.renumber(&[3]);
        assert_eq!(p.get(Some(5)), [0, 6]);
        assert_eq!(p.get(Some(9)), [3]);
        p.remove(5, 0);
        assert_eq!(p.slots[&5], 6, "back inline");
        assert_eq!(p.free, [0], "its list slot is free again");
        p.remove(9, 3);
        assert!(p.get(Some(9)).is_empty());
        assert_eq!(p.len(), 1);
    }

    /// Random `push`/`remove`/`renumber` runs against a
    /// `BTreeMap<u64, Vec<u32>>` model keyed the way the postings file
    /// (so under [`colliding`] every key shares one entry): every `get`
    /// agrees after every step, keys move inline → list → inline, and
    /// freed lists are reused rather than appended.
    fn postings_follow_the_model(seed: u64) -> (usize, usize) {
        let mut state = seed | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let hashes: Vec<u64> = (0..6u64)
            .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 1)
            .collect();
        let mut p = Postings::default();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let (mut next_id, mut spills, mut shrinks, mut most_lists) = (0u32, 0, 0, 0);
        for _ in 0..600 {
            match next(3) {
                0 => {
                    let h = hashes[next(6) as usize];
                    p.push(h, next_id);
                    let ids = model.entry(slot(h)).or_default();
                    ids.push(next_id);
                    spills += usize::from(ids.len() == 2);
                    next_id += 1 + next(3) as u32;
                }
                1 => {
                    // A filed id (or, now and then, one that is not).
                    let h = hashes[next(6) as usize];
                    let ids = model.entry(slot(h)).or_default();
                    let id = match ids.len() {
                        0 => next_id,
                        n => ids[next(n as u64) as usize],
                    };
                    p.remove(h, id);
                    ids.retain(|&x| x != id);
                    shrinks += usize::from(ids.len() == 1);
                }
                _ => {
                    // Rows go from the table: each leaves its posting,
                    // then every id behind them moves down.
                    let mut gone: Vec<(u64, u32)> = Vec::new();
                    for &h in &hashes {
                        if let Some(&id) = model.get(&slot(h)).and_then(|ids| ids.first()) {
                            if next(2) == 0 && !gone.iter().any(|&(_, g)| g == id) {
                                gone.push((h, id));
                            }
                        }
                    }
                    gone.sort_by_key(|&(_, id)| id);
                    for &(h, id) in &gone {
                        p.remove(h, id);
                        let ids = model.get_mut(&slot(h)).expect("filed above");
                        ids.retain(|&x| x != id);
                        shrinks += usize::from(ids.len() == 1);
                    }
                    let gone: Vec<usize> = gone.iter().map(|&(_, id)| id as usize).collect();
                    p.renumber(&gone);
                    for ids in model.values_mut() {
                        for id in ids.iter_mut() {
                            *id = renumbered(*id as usize, &gone) as u32;
                        }
                    }
                }
            }
            model.retain(|_, ids| !ids.is_empty());
            for &h in &hashes {
                let want = model.get(&slot(h)).map_or(&[][..], Vec::as_slice);
                assert_eq!(p.get(Some(h)), want, "seed {seed} hash {h:#x}");
            }
            assert!(p.get(None).is_empty());
            assert_eq!(p.len(), model.len());
            let shared = model.values().filter(|ids| ids.len() > 1).count();
            assert_eq!(p.lists.len() - p.free.len(), shared, "seed {seed}");
            assert!(p.free.iter().all(|&at| p.lists[at as usize].is_empty()));
            most_lists = most_lists.max(shared);
            assert!(p.lists.len() <= most_lists, "a freed list was not reused");
        }
        (spills, shrinks)
    }

    #[test]
    fn postings_match_a_model_under_random_edits() {
        let (mut spills, mut shrinks) = ((0, 0), (0, 0));
        for seed in 1..=40 {
            let (s, r) = postings_follow_the_model(seed);
            let (cs, cr) = colliding(|| postings_follow_the_model(seed));
            (spills.0, spills.1, shrinks.0, shrinks.1) =
                (spills.0 + s, spills.1 + cs, shrinks.0 + r, shrinks.1 + cr);
        }
        assert!(
            spills.0 > 40 && spills.1 > 40 && shrinks.0 > 40 && shrinks.1 > 40,
            "lists opened {spills:?}, closed {shrinks:?} (plain, colliding)"
        );
    }

    #[test]
    fn a_planted_collision_returns_only_exact_key_rows() {
        let rel = rel();
        colliding(|| {
            let idx = build(&rel, vec![0]);
            assert_eq!(idx.distinct_keys(), 1, "both keys share one hash");
            assert_eq!(idx.candidates(key_hash([Value::Int(2)])), [0, 1, 2]);
            assert_eq!(idx.lookup(rel.rows(), &[Value::Int(1)]), [0, 2]);
            assert_eq!(idx.lookup(rel.rows(), &[Value::Int(2)]), [1]);
            assert!(idx.lookup(rel.rows(), &[Value::Int(7)]).is_empty());
        });
    }
}
