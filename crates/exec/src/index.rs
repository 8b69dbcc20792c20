//! Hash indexes over base tables.
//!
//! Example 1 assumes "these keys have indexes"; a hash index maps a key
//! tuple to the row ids holding it, so an index join retrieves exactly
//! the matching tuples instead of scanning. Null key values are not
//! indexed — an equality predicate can never evaluate to `True` on a
//! null, so null-keyed rows are unreachable through the index by
//! construction (this matters for outerjoins over nullable columns).

use fro_algebra::{FastMap, Relation, Tuple, Value};
use std::collections::hash_map::Entry;

/// What row id `id` becomes once the rows at `gone` (ascending, `id`
/// not among them) are removed and the rows behind each close the gap.
pub(crate) fn renumbered(id: usize, gone: &[usize]) -> usize {
    match gone.first() {
        Some(&first) if id > first => id - gone.partition_point(|&g| g < id),
        _ => id,
    }
}

/// A hash index on one or more columns of a base table.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    map: FastMap<Vec<Value>, Vec<usize>>,
}

impl HashIndex {
    /// Build an index over the given column positions of `rel`.
    #[must_use]
    pub fn build(rel: &Relation, key_cols: Vec<usize>) -> HashIndex {
        let mut idx = HashIndex {
            key_cols,
            map: FastMap::default(),
        };
        idx.insert_rows(rel, 0);
        idx
    }

    /// Index the rows of `rel` from position `from` onward — the
    /// O(|delta|) maintenance path behind base-table appends. Row ids
    /// already indexed stay untouched, so `from` must be the length
    /// the relation had when the index last saw it.
    pub fn insert_rows(&mut self, rel: &Relation, from: usize) {
        for (off, row) in rel.rows()[from..].iter().enumerate() {
            if let Some(key) = self.key_of(row) {
                self.map.entry(key).or_default().push(from + off);
            }
        }
    }

    /// Forget the rows that stood at `ids` (ascending; `removed[i]` is
    /// the row that was at `ids[i]`) and renumber every posting behind
    /// them — the maintenance path behind base-table deletes. Postings
    /// stay in ascending row order and a key whose last row went is
    /// dropped, so lookups read as from an index built over the
    /// survivors. Costs the postings, not the rows: O(|table|) id
    /// adjustments, no key rebuilt.
    pub fn remove_rows(&mut self, ids: &[usize], removed: &[Tuple]) {
        for (id, row) in ids.iter().zip(removed) {
            let Some(key) = self.key_of(row) else {
                continue;
            };
            if let Entry::Occupied(mut posting) = self.map.entry(key) {
                if let Ok(at) = posting.get().binary_search(id) {
                    posting.get_mut().remove(at);
                }
                if posting.get().is_empty() {
                    posting.remove();
                }
            }
        }
        for id in self.map.values_mut().flatten() {
            *id = renumbered(*id, ids);
        }
    }

    /// The index key of `row`; `None` when a key column is null (null
    /// keys never match equality, so they are not indexed).
    fn key_of(&self, row: &Tuple) -> Option<Vec<Value>> {
        // Sized exactly: the map keeps one of these per distinct key.
        let mut key = Vec::with_capacity(self.key_cols.len());
        for &c in &self.key_cols {
            let v = row.get(c);
            if v.is_null() {
                return None;
            }
            key.push(v.clone());
        }
        Some(key)
    }

    /// The indexed column positions.
    #[must_use]
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids matching a key (empty for unknown or null keys).
    #[must_use]
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        if key.iter().any(Value::is_null) {
            return &[];
        }
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn lookup_returns_matching_rows() {
        let idx = HashIndex::build(&rel(), vec![0]);
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::Int(2)]), &[1]);
        assert!(idx.lookup(&[Value::Int(7)]).is_empty());
    }

    #[test]
    fn null_keys_not_indexed_and_not_matched() {
        let idx = HashIndex::build(&rel(), vec![0]);
        assert!(idx.lookup(&[Value::Null]).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn remove_rows_reads_like_an_index_over_the_survivors() {
        let mut rel = rel();
        let mut idx = HashIndex::build(&rel, vec![0]);
        // Rows 0 (key 1), 1 (the only key 2) and 3 (null key) go.
        let ids = [0, 1, 3];
        let removed = rel.remove_rows_at(&ids);
        idx.remove_rows(&ids, &removed);
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[0], "row 2 is row 0 now");
        assert!(idx.lookup(&[Value::Int(2)]).is_empty());
        assert_eq!(idx.distinct_keys(), 1, "a key with no rows left is dropped");
        assert_eq!(renumbered(5, &[0, 1, 3]), 2);
        assert_eq!(renumbered(2, &[0, 1, 3]), 0);
        assert_eq!(renumbered(0, &[1]), 0);
        assert_eq!(renumbered(7, &[]), 7);
    }

    #[test]
    fn composite_keys() {
        let idx = HashIndex::build(&rel(), vec![0, 1]);
        assert_eq!(idx.lookup(&[Value::Int(1), Value::Int(11)]), &[2]);
        assert!(idx.lookup(&[Value::Int(1), Value::Int(12)]).is_empty());
        assert_eq!(idx.key_cols(), &[0, 1]);
    }
}
