//! Relations: finite sets of tuples on a scheme (§1.2), with the
//! paper's padding/union conventions (§2.1) and set-level equivalence.

use crate::error::AlgebraError;
use crate::schema::{Schema, SchemaRef};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A relation: a scheme plus a finite set of tuples.
///
/// Rows are stored in insertion order for cheap, deterministic
/// iteration; *set* semantics are enforced where the paper's
/// definitions require them — [`Relation::insert`] deduplicates, and
/// [`Relation::set_eq`] compares canonicalized sorted sets after
/// padding both sides to the union scheme.
///
/// The rows sit behind an [`Arc`], so [`Clone`] is a pointer bump: a
/// scan result, an exported [`crate::Database`] and a polled view all
/// share the stored rows. Every mutator goes through
/// [`Arc::make_mut`], which writes in place while this relation is the
/// rows' only holder and copies them once, first, while a clone still
/// reads them — a clone never sees a later write.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: SchemaRef,
    rows: Arc<Vec<Tuple>>,
}

/// Same scheme, same rows in the same order. Two relations reading one
/// allocation — a clone, a [`Relation::renamed`] copy, a stored table
/// nobody wrote since it was loaded — are equal without a row being
/// compared; spelled out here so that does not hang on how the standard
/// library compares `Arc`s.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema
            && (Arc::ptr_eq(&self.rows, &other.rows) || self.rows == other.rows)
    }
}

impl Eq for Relation {}

impl Relation {
    /// An empty relation on the given scheme.
    #[must_use]
    pub fn empty(schema: SchemaRef) -> Relation {
        Relation::from_distinct_rows(schema, Vec::new())
    }

    /// Build a relation from a scheme and rows, deduplicating (hash
    /// set, not per-row scans — safe for millions of rows).
    ///
    /// # Errors
    /// Returns [`AlgebraError::BadArity`] if any row has the wrong
    /// number of values.
    pub fn new(schema: SchemaRef, rows: Vec<Tuple>) -> Result<Relation, AlgebraError> {
        let mut seen: std::collections::HashSet<Tuple> =
            std::collections::HashSet::with_capacity(rows.len());
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if r.arity() != schema.len() {
                return Err(AlgebraError::BadArity {
                    expected: schema.len(),
                    got: r.arity(),
                });
            }
            if seen.insert(r.clone()) {
                kept.push(r);
            }
        }
        Ok(Relation::from_distinct_rows(schema, kept))
    }

    /// Convenience: a ground relation of integers.
    ///
    /// ```
    /// use fro_algebra::Relation;
    /// let r = Relation::from_ints("R", &["a", "b"], &[&[1, 2], &[3, 4]]);
    /// assert_eq!(r.len(), 2);
    /// ```
    #[must_use]
    pub fn from_ints(rel: &str, attrs: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Arc::new(Schema::of_relation(rel, attrs));
        let rows = rows
            .iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect();
        Relation::new(schema, rows).expect("from_ints rows match schema arity")
    }

    /// Convenience: a ground relation from general values.
    #[must_use]
    pub fn from_values(rel: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        let schema = Arc::new(Schema::of_relation(rel, attrs));
        let rows = rows.into_iter().map(Tuple::new).collect();
        Relation::new(schema, rows).expect("from_values rows match schema arity")
    }

    /// The scheme of this relation.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tuples, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Append rows the caller guarantees are distinct from each other
    /// and from every stored row — a pre-deduplicated base-table
    /// delta. Skips duplicate detection entirely (O(|delta|));
    /// distinctness and arity are checked in debug builds only, like
    /// [`Relation::from_distinct_rows`].
    pub fn extend_distinct(&mut self, rows: Vec<Tuple>) {
        debug_assert!(
            rows.iter().all(|t| t.arity() == self.schema.len()),
            "extend_distinct rows must match schema arity"
        );
        debug_assert!(
            {
                let mut seen: std::collections::HashSet<&Tuple> = self.rows.iter().collect();
                rows.iter().all(|t| seen.insert(t))
            },
            "extend_distinct rows must be distinct"
        );
        Arc::make_mut(&mut self.rows).extend(rows);
    }

    /// Insert a tuple (set semantics: duplicates are dropped).
    ///
    /// # Errors
    /// Returns [`AlgebraError::BadArity`] on arity mismatch.
    pub fn try_insert(&mut self, t: Tuple) -> Result<bool, AlgebraError> {
        if t.arity() != self.schema.len() {
            return Err(AlgebraError::BadArity {
                expected: self.schema.len(),
                got: t.arity(),
            });
        }
        if self.rows.contains(&t) {
            return Ok(false);
        }
        Arc::make_mut(&mut self.rows).push(t);
        Ok(true)
    }

    /// Insert a tuple, panicking on arity mismatch (builder use).
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.try_insert(t).expect("tuple arity matches schema")
    }

    /// Whether a clone of this relation still reads the same rows — in
    /// which case the next mutation copies them first.
    #[must_use]
    pub fn rows_are_shared(&self) -> bool {
        Arc::strong_count(&self.rows) > 1
    }

    /// Take out the rows at positions `ids` (ascending, distinct, in
    /// range), closing the gaps where they stood: the survivors keep
    /// their stored order. Returns the removed rows in stored order.
    /// Costs the rows from `ids[0]` on, not the relation.
    pub fn remove_rows_at(&mut self, ids: &[usize]) -> Vec<Tuple> {
        let rows = Arc::make_mut(&mut self.rows);
        // An empty tuple owns no heap memory, so taking a row out
        // allocates nothing.
        let removed = ids
            .iter()
            .map(|&i| std::mem::replace(&mut rows[i], Tuple::nulls(0)))
            .collect();
        remove_at(rows, ids);
        removed
    }

    /// For a relation whose rows are kept in [`Tuple`] order: remove
    /// `deletes` and add `inserts` where that order puts them, in
    /// place. Both lists are in `Tuple` order; every delete is a stored
    /// row and no insert is (checked in debug builds only, like
    /// [`Relation::extend_distinct`]). Each row is located by binary
    /// search and only the rows behind the first change move, so
    /// nothing is allocated per row and most rows are never compared.
    pub fn merge_sorted(&mut self, inserts: Vec<Tuple>, deletes: &[Tuple]) {
        debug_assert!(
            inserts.iter().all(|t| t.arity() == self.schema.len()),
            "merge_sorted rows must match schema arity"
        );
        debug_assert!(
            inserts.windows(2).all(|w| w[0] < w[1]) && deletes.windows(2).all(|w| w[0] < w[1]),
            "merge_sorted takes strictly ascending lists"
        );
        let rows = Arc::make_mut(&mut self.rows);
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows in Tuple order");
        if !deletes.is_empty() {
            let mut from = 0;
            let ids: Vec<usize> = deletes
                .iter()
                .map(|d| {
                    from += rows[from..].partition_point(|t| t < d);
                    debug_assert!(rows.get(from) == Some(d), "deleted row is stored");
                    from
                })
                .collect();
            remove_at(rows, &ids);
        }
        // Open a gap of `inserts.len()` at the end and walk it towards
        // the front: each insert, largest first, sends the rows above
        // it across the gap and takes the gap's last slot.
        let mut above = rows.len();
        let mut gap = inserts.len();
        rows.resize_with(above + gap, || Tuple::nulls(0));
        for t in inserts.into_iter().rev() {
            let at = rows[..above].partition_point(|r| *r < t);
            debug_assert!(rows[..above].get(at) != Some(&t), "inserted row is novel");
            for i in (at..above).rev() {
                rows.swap(i, i + gap);
            }
            gap -= 1;
            rows[at + gap] = t;
            above = at;
        }
    }

    /// Build a relation from rows the caller guarantees are distinct
    /// (e.g. the output of a join over set-semantics inputs). Skips the
    /// per-row O(n) duplicate scan of [`Relation::insert`]; uniqueness
    /// and arity are checked in debug builds only.
    #[must_use]
    pub fn from_distinct_rows(schema: SchemaRef, rows: Vec<Tuple>) -> Relation {
        debug_assert!(
            rows.iter().all(|t| t.arity() == schema.len()),
            "row arity must match schema"
        );
        debug_assert_eq!(
            rows.iter().collect::<std::collections::HashSet<_>>().len(),
            rows.len(),
            "rows passed to from_distinct_rows must be distinct"
        );
        Relation {
            schema,
            rows: Arc::new(rows),
        }
    }

    /// The canonical form: attributes sorted, rows sorted and
    /// deduplicated. Two relations denote the same set of tuples iff
    /// their canonical forms are identical.
    #[must_use]
    pub fn canonical(&self) -> Relation {
        let (canon_schema, perm) = self.schema.canonical_order();
        let mut rows: Vec<Tuple> = self.rows.iter().map(|t| t.project(&perm)).collect();
        rows.sort();
        rows.dedup();
        Relation {
            schema: Arc::new(canon_schema),
            rows: Arc::new(rows),
        }
    }

    /// Set equivalence under the paper's §2.1 comparison convention:
    /// pad both relations to the union of their schemes, then compare
    /// as sets.
    #[must_use]
    pub fn set_eq(&self, other: &Relation) -> bool {
        let union = self.schema.union(&other.schema);
        let a = self.pad_to(&union).canonical();
        let b = other.pad_to(&union).canonical();
        a.schema == b.schema && a.rows == b.rows
    }

    /// Pad every tuple to the larger scheme `to` (paper §1.2/§2.1).
    #[must_use]
    pub fn pad_to(&self, to: &Schema) -> Relation {
        if to == self.schema.as_ref() {
            return self.clone();
        }
        let to_ref = Arc::new(to.clone());
        let rows = self.rows.iter().map(|t| t.pad(&self.schema, to)).collect();
        Relation {
            schema: to_ref,
            rows: Arc::new(rows),
        }
    }

    /// The set of rows as a `BTreeSet` (canonical layout), for diffing.
    #[must_use]
    pub fn row_set(&self) -> BTreeSet<Tuple> {
        Arc::unwrap_or_clone(self.canonical().rows)
            .into_iter()
            .collect()
    }

    /// Rename the ground-relation qualifier of every attribute
    /// (supports the paper's "several copies of the same relation with
    /// renamed attributes").
    #[must_use]
    pub fn renamed(&self, new_rel: &str) -> Relation {
        let attrs = self
            .schema
            .attrs()
            .iter()
            .map(|a| crate::schema::Attr::new(new_rel, a.name()))
            .collect();
        let schema = Arc::new(Schema::new(attrs).expect("renaming preserves distinctness"));
        Relation {
            schema,
            rows: self.rows.clone(),
        }
    }
}

/// The positions from `ids[0]` up to `len` that are not in `ids`
/// (ascending, distinct), in order — what moves down when the
/// positions in `ids` are removed from a sequence of `len`.
pub(crate) fn survivors_behind(ids: &[usize], len: usize) -> impl Iterator<Item = usize> + '_ {
    let mut doomed = ids.iter().copied().peekable();
    let first = ids.first().copied().unwrap_or(len);
    (first..len).filter(move |i| doomed.next_if_eq(i).is_none())
}

/// Drop the elements of `xs` at positions `ids` (ascending, distinct,
/// in range), keeping the order of the rest; touches nothing before
/// `ids[0]`.
pub(crate) fn remove_at<T>(xs: &mut Vec<T>, ids: &[usize]) {
    let mut kept = ids.first().copied().unwrap_or(xs.len());
    for i in survivors_behind(ids, xs.len()) {
        xs.swap(kept, i);
        kept += 1;
    }
    xs.truncate(kept);
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in self.rows.iter() {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attr;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::from_ints("R", &["a"], &[&[1]]);
        assert!(!r.insert(Tuple::new(vec![Value::Int(1)])));
        assert!(r.insert(Tuple::new(vec![Value::Int(2)])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::from_ints("R", &["a"], &[]);
        let e = r.try_insert(Tuple::new(vec![Value::Int(1), Value::Int(2)]));
        assert!(matches!(
            e,
            Err(AlgebraError::BadArity {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn set_eq_ignores_row_and_column_order() {
        let a = Relation::from_ints("R", &["a", "b"], &[&[1, 2], &[3, 4]]);
        let schema = Arc::new(Schema::new(vec![Attr::parse("R.b"), Attr::parse("R.a")]).unwrap());
        let b = Relation::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(4), Value::Int(3)]),
                Tuple::new(vec![Value::Int(2), Value::Int(1)]),
            ],
        )
        .unwrap();
        assert!(a.set_eq(&b));
        assert!(b.set_eq(&a));
    }

    #[test]
    fn set_eq_pads_to_union_scheme() {
        // {(1)} over (R.a) equals {(1, null)} over (R.a, S.b) — the
        // paper's union/comparison convention.
        let a = Relation::from_ints("R", &["a"], &[&[1]]);
        let schema = Arc::new(Schema::new(vec![Attr::parse("R.a"), Attr::parse("S.b")]).unwrap());
        let b = Relation::new(schema, vec![Tuple::new(vec![Value::Int(1), Value::Null])]).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn set_eq_distinguishes_different_sets() {
        let a = Relation::from_ints("R", &["a"], &[&[1]]);
        let b = Relation::from_ints("R", &["a"], &[&[2]]);
        let c = Relation::from_ints("R", &["a"], &[&[1], &[2]]);
        assert!(!a.set_eq(&b));
        assert!(!a.set_eq(&c));
    }

    #[test]
    fn extend_distinct_appends_in_stored_order() {
        let mut r = Relation::from_ints("R", &["a"], &[&[1], &[2]]);
        r.extend_distinct(vec![
            Tuple::new(vec![Value::Int(3)]),
            Tuple::new(vec![Value::Int(4)]),
        ]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.rows()[2], Tuple::new(vec![Value::Int(3)]));
        assert_eq!(r.rows()[3], Tuple::new(vec![Value::Int(4)]));
    }

    fn int_rows(values: &[i64]) -> Vec<Tuple> {
        values
            .iter()
            .map(|&v| Tuple::new(vec![Value::Int(v)]))
            .collect()
    }

    #[test]
    fn clones_share_rows_until_one_side_writes() {
        let mut r = Relation::from_ints("R", &["a"], &[&[1], &[2]]);
        assert!(!r.rows_are_shared());
        let held = r.clone();
        assert!(r.rows_are_shared());
        assert!(std::ptr::eq(r.rows().as_ptr(), held.rows().as_ptr()));
        // The write copies first: the clone keeps reading what it read.
        r.extend_distinct(int_rows(&[3]));
        assert_eq!(held.rows(), int_rows(&[1, 2]));
        assert_eq!(r.rows(), int_rows(&[1, 2, 3]));
        assert!(!r.rows_are_shared() && !held.rows_are_shared());
        // Unshared again, the next write happens where the rows stand.
        let at = r.rows().as_ptr();
        assert_eq!(r.remove_rows_at(&[1]), int_rows(&[2]));
        assert!(std::ptr::eq(r.rows().as_ptr(), at));
    }

    #[test]
    fn remove_rows_at_keeps_survivors_in_stored_order() {
        let mut r = Relation::from_ints("R", &["a"], &[&[5], &[3], &[9], &[1], &[7]]);
        assert_eq!(r.remove_rows_at(&[]), Vec::new());
        assert_eq!(r.remove_rows_at(&[1, 3]), int_rows(&[3, 1]));
        assert_eq!(r.rows(), int_rows(&[5, 9, 7]));
        assert_eq!(r.remove_rows_at(&[0, 1, 2]), int_rows(&[5, 9, 7]));
        assert!(r.is_empty());
    }

    #[test]
    fn merge_sorted_matches_an_ordered_set() {
        // A deterministic walk over inserts and deletes of every size
        // and position, including both ends and an emptied relation.
        let mut model: BTreeSet<i64> = (0..40).map(|v| v * 3).collect();
        let mut r = Relation::from_ints("R", &["a"], &[]);
        r.merge_sorted(int_rows(&model.iter().copied().collect::<Vec<_>>()), &[]);
        let mut x = 7u64;
        for round in 0..60 {
            let mut next = |n: u64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % n
            };
            let deletes: BTreeSet<i64> = model
                .iter()
                .copied()
                .filter(|_| next(4) == 0 || round % 20 == 19)
                .collect();
            let inserts: BTreeSet<i64> = (0..next(12))
                .map(|_| next(140) as i64 - 10)
                .filter(|v| !model.contains(v))
                .collect();
            for v in &deletes {
                model.remove(v);
            }
            model.extend(&inserts);
            r.merge_sorted(
                int_rows(&inserts.into_iter().collect::<Vec<_>>()),
                &int_rows(&deletes.into_iter().collect::<Vec<_>>()),
            );
            let want: Vec<i64> = model.iter().copied().collect();
            assert_eq!(r.rows(), int_rows(&want), "round {round}");
        }
    }

    #[test]
    fn canonical_sorts_and_dedups() {
        let r = Relation::from_ints("R", &["a"], &[&[3], &[1], &[2]]);
        let c = r.canonical();
        let vals: Vec<i64> = c
            .rows()
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(v) => *v,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn renamed_changes_qualifier_only() {
        let r = Relation::from_ints("R", &["a"], &[&[1]]);
        let s = r.renamed("R2");
        assert!(s.schema().contains(&Attr::parse("R2.a")));
        assert_eq!(s.len(), 1);
        assert!(!r.set_eq(&s)); // different schemes → different sets
    }

    #[test]
    fn pad_to_same_scheme_is_clone() {
        let r = Relation::from_ints("R", &["a"], &[&[1]]);
        let p = r.pad_to(r.schema());
        assert_eq!(p, r);
    }

    #[test]
    fn display_prints_header_and_rows() {
        let r = Relation::from_ints("R", &["a"], &[&[1]]);
        let s = r.to_string();
        assert!(s.contains("R.a"));
        assert!(s.contains("(1)"));
    }
}
