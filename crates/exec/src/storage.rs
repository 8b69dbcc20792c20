//! In-memory storage: tables plus their hash indexes, held as one
//! `RelId`-dense vector of [`Arc`]-shared tables.
//!
//! An id lookup is one bounds-checked array read — no hashing, no
//! string compare. Each slot is an `Arc<Table>`, so cloning a
//! [`Storage`] copies pointers, never rows: a copy-on-write owner
//! (`fro::SharedDb`) derives its next generation from the current one
//! for O(#tables) and only the table a mutation touches is ever copied
//! ([`Arc::make_mut`]) — or swapped for a recycled copy
//! ([`Storage::swap_table`]).
//!
//! Names are interned exactly once, at [`Storage::insert`]; every later
//! lookup is an array index. Names legitimately enter at registration
//! time ([`Storage::insert`], [`Storage::create_index`]), but the
//! name-keyed *read* API (`get`, `lookup`, `get_mut`) is a hidden
//! compatibility shim available only under the `testing-oracles`
//! feature — the public read surface is id-keyed.
//!
//! Storage carries its own epoch counter, bumped by every data or
//! index mutation, so a session can notice that its derived catalog
//! (and therefore the catalog's plan cache) is out of date.

use crate::engine::ExecError;
use crate::index::{renumbered, HashIndex};
use fro_algebra::{Attr, ColumnSet, Database, FastMap, Interner, RelId, Relation, Tuple, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// A stored base table: the relation, its columnar mirror, and any
/// indexes built on it.
///
/// The [`ColumnSet`] is built at registration and kept alongside the
/// row-major relation (a hybrid layout): engines read the typed column
/// vectors for predicate scans, hash builds, and statistics, while
/// output assembly still clones `Tuple`s from the row store — which is
/// what keeps columnar execution bit-identical to the row-major paths.
/// Row writes maintain all of it where it stands instead of rebuilding:
/// [`Table::append_rows`] extends the row store, the mirror and every
/// index for O(|delta|); [`Table::delete_rows`] takes rows out of all
/// three, the survivors keeping their stored order, for one pass over
/// the row ids (no row is copied, hashed or re-interned). Either way a
/// reader sees what [`Table::new`] over the resulting rows would show,
/// and replaying the same writes, in order, on a copy of the table as
/// it was lands on the same rows in the same order — which is what lets
/// a lagging copy be caught up instead of re-cloned.
///
/// [`Clone`] shares the row store with the original (a pointer bump,
/// see [`Relation`]) and copies the rest; the first write to either
/// side then copies the rows it is about to change.
#[derive(Debug, Clone)]
pub struct Table {
    rel: Relation,
    columns: ColumnSet,
    indexes: Vec<HashIndex>,
    /// What row writes need beyond the table itself. `None` until the
    /// table sees its first append or delete; dropped whenever the
    /// table is replaced wholesale.
    append_state: Option<AppendState>,
}

/// Write-acceleration state of one table: a row-hash → row-id index
/// (novelty checks under set semantics, and where a row to delete
/// stands) plus one counted value set per column (exact distinct
/// counts under appends *and* deletes). Built O(base) by the first
/// write; appends then maintain it O(|delta|), deletes with one
/// renumbering pass over the row index.
#[derive(Debug, Clone)]
struct AppendState {
    rows: RowIndex,
    value_sets: Vec<ValueSet>,
}

impl AppendState {
    /// Index `rel`, whose per-column distinct counts `columns` already
    /// knows — so every set is allocated once, at its final size.
    fn over(rel: &Relation, columns: &ColumnSet) -> AppendState {
        let mut rows = RowIndex::with_capacity(rel.len());
        let mut value_sets: Vec<ValueSet> = (0..rel.schema().len())
            .map(|c| ValueSet::with_capacity(columns.column(c).distinct()))
            .collect();
        for (id, t) in rel.rows().iter().enumerate() {
            for (c, set) in value_sets.iter_mut().enumerate() {
                set.insert(t.get(c));
            }
            rows.insert_if_novel(t, id, |i| &rel.rows()[i]);
        }
        AppendState { rows, value_sets }
    }
}

/// The distinct values of one column (null counts as one), each with
/// the number of rows holding it — the multiplicity is what keeps the
/// distinct count exact when rows leave: a value stops counting when
/// its last row does. A column that has only ever held integers and
/// nulls — keys, mostly — keeps bare `i64`s, half a [`Value`] entry
/// each; the first other value widens the set for good.
#[derive(Debug, Clone)]
enum ValueSet {
    Ints {
        ints: FastMap<i64, usize>,
        nulls: usize,
    },
    Any(FastMap<Value, usize>),
}

impl ValueSet {
    fn with_capacity(distinct: u64) -> ValueSet {
        ValueSet::Ints {
            ints: FastMap::with_capacity_and_hasher(
                usize::try_from(distinct).unwrap_or(0),
                Default::default(),
            ),
            nulls: 0,
        }
    }

    /// Count one more row holding `v`.
    fn insert(&mut self, v: &Value) {
        match (&mut *self, v) {
            (ValueSet::Ints { ints, .. }, Value::Int(i)) => *ints.entry(*i).or_default() += 1,
            (ValueSet::Ints { nulls, .. }, Value::Null) => *nulls += 1,
            (ValueSet::Any(set), v) => match set.get_mut(v) {
                Some(n) => *n += 1,
                None => {
                    set.insert(v.clone(), 1);
                }
            },
            (ValueSet::Ints { ints, nulls }, v) => {
                let mut set =
                    FastMap::with_capacity_and_hasher(ints.capacity(), Default::default());
                set.extend(ints.drain().map(|(i, n)| (Value::Int(i), n)));
                if *nulls > 0 {
                    set.insert(Value::Null, *nulls);
                }
                set.insert(v.clone(), 1);
                *self = ValueSet::Any(set);
            }
        }
    }

    /// Count one row fewer holding `v`, which a stored row does hold.
    fn remove(&mut self, v: &Value) {
        fn release<K: std::hash::Hash + Eq>(counts: &mut FastMap<K, usize>, k: &K) {
            if let Some(n) = counts.get_mut(k) {
                *n -= 1;
                if *n == 0 {
                    counts.remove(k);
                }
            }
        }
        match (self, v) {
            (ValueSet::Ints { ints, .. }, Value::Int(i)) => release(ints, i),
            (ValueSet::Ints { nulls, .. }, Value::Null) => *nulls -= 1,
            (ValueSet::Ints { .. }, _) => unreachable!("a stored non-integer widened the set"),
            (ValueSet::Any(set), v) => release(set, v),
        }
    }

    fn len(&self) -> u64 {
        match self {
            ValueSet::Ints { ints, nulls } => ints.len() as u64 + u64::from(*nulls > 0),
            ValueSet::Any(set) => set.len() as u64,
        }
    }
}

/// Which stored rows exist, without a second copy of them: row hash →
/// row id, every candidate rechecked against the row it names. The
/// rows themselves stay where the executors scan them.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    /// The first row id stored under each hash. Hashes come from the
    /// map's own [`fro_algebra::FastHasher`].
    first: FastMap<u64, usize>,
    /// `(hash, row id)` of rows whose hash was already taken by a
    /// *different* row — 64-bit collisions, so almost always empty.
    collided: Vec<(u64, usize)>,
}

impl RowIndex {
    fn with_capacity(rows: usize) -> RowIndex {
        RowIndex {
            first: FastMap::with_capacity_and_hasher(rows, Default::default()),
            collided: Vec::new(),
        }
    }

    fn hash(&self, t: &Tuple) -> u64 {
        use std::hash::BuildHasher;
        self.first.hasher().hash_one(t)
    }

    /// Record `t` as row `id` unless an equal row is already indexed;
    /// `row_at` resolves an indexed id to its row. Returns whether `t`
    /// was novel.
    fn insert_if_novel<'a>(
        &mut self,
        t: &Tuple,
        id: usize,
        row_at: impl Fn(usize) -> &'a Tuple,
    ) -> bool {
        self.insert_hashed(self.hash(t), t, id, row_at)
    }

    /// [`RowIndex::insert_if_novel`] with the hash already computed.
    fn insert_hashed<'a>(
        &mut self,
        h: u64,
        t: &Tuple,
        id: usize,
        row_at: impl Fn(usize) -> &'a Tuple,
    ) -> bool {
        if self.find_hashed(h, t, row_at).is_some() {
            return false;
        }
        match self.first.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.collided.push((h, id)),
        }
        true
    }

    /// The id of the indexed row equal to `t`, if there is one.
    fn find<'a>(&self, t: &Tuple, row_at: impl Fn(usize) -> &'a Tuple) -> Option<usize> {
        self.find_hashed(self.hash(t), t, row_at)
    }

    /// [`RowIndex::find`] with the hash already computed.
    fn find_hashed<'a>(
        &self,
        h: u64,
        t: &Tuple,
        row_at: impl Fn(usize) -> &'a Tuple,
    ) -> Option<usize> {
        let &first = self.first.get(&h)?;
        if row_at(first) == t {
            return Some(first);
        }
        self.collided
            .iter()
            .find(|&&(ch, cid)| ch == h && row_at(cid) == t)
            .map(|&(_, cid)| cid)
    }

    /// Forget the rows that stood at `ids` (ascending; `removed[i]` is
    /// the row that was at `ids[i]`) and renumber the rows behind them.
    fn remove(&mut self, ids: &[usize], removed: &[Tuple]) {
        for (&id, t) in ids.iter().zip(removed) {
            self.forget_hashed(self.hash(t), id);
        }
        let collided = self.collided.iter_mut().map(|(_, id)| id);
        for id in self.first.values_mut().chain(collided) {
            *id = renumbered(*id, ids);
        }
    }

    /// Forget row `id`, indexed under hash `h`. If it was the first
    /// row under its hash, a row that collided with it takes its
    /// place: lookups start from `first`.
    fn forget_hashed(&mut self, h: u64, id: usize) {
        if self.first.get(&h) != Some(&id) {
            self.collided.retain(|&entry| entry != (h, id));
        } else if let Some(at) = self.collided.iter().position(|&(ch, _)| ch == h) {
            let (_, heir) = self.collided.remove(at);
            self.first.insert(h, heir);
        } else {
            self.first.remove(&h);
        }
    }
}

impl Table {
    /// Wrap a relation with no indexes, building its columnar mirror.
    #[must_use]
    pub fn new(rel: Relation) -> Table {
        let columns = ColumnSet::build(&rel);
        Table {
            rel,
            columns,
            indexes: Vec::new(),
            append_state: None,
        }
    }

    /// Append `rows` under set semantics, returning the novel suffix
    /// actually stored (possibly empty if every row was already
    /// present) or `None` on an arity mismatch. Maintains the row
    /// store, the columnar mirror (typed vectors, validity, zones,
    /// exact distinct counts), and every index in place — O(|delta|)
    /// once the append state is warm. The columnar mirror falls back
    /// to a full rebuild only when a value cannot join its column's
    /// existing layout (new type, or a string the sealed dictionary
    /// has never seen).
    ///
    /// Appending the returned suffixes, in order, to a copy of the
    /// table as it was stores the same rows in the same order — which
    /// is what lets a lagging copy be caught up instead of re-cloned.
    pub fn append_rows(&mut self, rows: Vec<Tuple>) -> Option<Vec<Tuple>> {
        let arity = self.rel.schema().len();
        if rows.iter().any(|t| t.arity() != arity) {
            return None;
        }
        if rows.is_empty() {
            return Some(rows);
        }
        let state = self
            .append_state
            .get_or_insert_with(|| AppendState::over(&self.rel, &self.columns));
        let old_len = self.rel.len();
        let stored = self.rel.rows();
        let mut novel: Vec<Tuple> = Vec::new();
        for t in rows {
            // Ids at or past `old_len` name rows accepted earlier in
            // this batch, not yet moved into the relation.
            let row_at = |i: usize| stored.get(i).unwrap_or_else(|| &novel[i - old_len]);
            if state
                .rows
                .insert_if_novel(&t, old_len + novel.len(), row_at)
            {
                for (c, set) in state.value_sets.iter_mut().enumerate() {
                    set.insert(t.get(c));
                }
                novel.push(t);
            }
        }
        if novel.is_empty() {
            return Some(novel);
        }
        let distinct: Vec<u64> = state.value_sets.iter().map(ValueSet::len).collect();
        self.rel.extend_distinct(novel.clone());
        if !self.columns.append_rows(&novel, &distinct) {
            self.columns = ColumnSet::build(&self.rel);
        }
        for ix in &mut self.indexes {
            ix.insert_rows(&self.columns, old_len);
        }
        Some(novel)
    }

    /// Remove the stored rows equal to one of `rows` (the rest of
    /// `rows` is ignored), returning them in stored order. The
    /// survivors stay where they stand, in stored order, and everything
    /// beside them is maintained in place: the rows are found through
    /// the row index (no scan), which is then renumbered; the columnar
    /// mirror compacts its vectors and recomputes the zones from the
    /// first one touched; every index drops and renumbers its
    /// postings; the distinct counts stay exact. One pass over the row
    /// ids, no row copied — and no layout can break, so unlike an
    /// append there is no rebuild to fall back to.
    pub fn delete_rows(&mut self, rows: &[Tuple]) -> Vec<Tuple> {
        if rows.is_empty() {
            return Vec::new();
        }
        let state = self
            .append_state
            .get_or_insert_with(|| AppendState::over(&self.rel, &self.columns));
        let stored = self.rel.rows();
        let mut ids: Vec<usize> = rows
            .iter()
            .filter_map(|t| state.rows.find(t, |i| &stored[i]))
            .collect();
        if ids.is_empty() {
            return Vec::new();
        }
        ids.sort_unstable();
        ids.dedup();
        let removed = self.rel.remove_rows_at(&ids);
        state.rows.remove(&ids, &removed);
        for t in &removed {
            for (c, set) in state.value_sets.iter_mut().enumerate() {
                set.remove(t.get(c));
            }
        }
        let distinct: Vec<u64> = state.value_sets.iter().map(ValueSet::len).collect();
        self.columns.delete_rows(&ids, &distinct);
        for ix in &mut self.indexes {
            ix.remove_rows(&ids, &removed);
        }
        removed
    }

    /// The underlying relation.
    #[must_use]
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The columnar mirror: typed per-attribute vectors with validity
    /// bitmaps, zone min/max metadata, and the per-table string
    /// dictionary.
    #[must_use]
    pub fn columns(&self) -> &ColumnSet {
        &self.columns
    }

    /// Build an index on the given attributes, or rebuild in place the
    /// one already on them: a table holds at most one index per column
    /// set.
    ///
    /// Returns `false` (building nothing) if any attribute is missing.
    pub fn create_index(&mut self, attrs: &[Attr]) -> bool {
        let mut cols = Vec::with_capacity(attrs.len());
        for a in attrs {
            match self.rel.schema().index_of(a) {
                Some(c) => cols.push(c),
                None => return false,
            }
        }
        cols.sort_unstable();
        let at = self.indexes.iter().position(|ix| ix.key_cols() == cols);
        let built = HashIndex::build(&self.columns, cols);
        match at {
            Some(at) => self.indexes[at] = built,
            None => self.indexes.push(built),
        }
        true
    }

    /// All indexes on this table.
    #[must_use]
    pub fn indexes(&self) -> &[HashIndex] {
        &self.indexes
    }

    /// An index whose key columns exactly match `cols` (sorted).
    #[must_use]
    pub fn index_on(&self, cols: &[usize]) -> Option<&HashIndex> {
        let mut want = cols.to_vec();
        want.sort_unstable();
        self.indexes.iter().find(|ix| ix.key_cols() == want)
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }
}

/// A set of tables, stored densely by [`RelId`], with an interner
/// owning the name mapping. Cloning shares every table (and the
/// interner) by pointer; a mutation copies only what it touches.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    interner: Arc<Interner>,
    /// `tables[i]` is the table with `RelId` `i` (ids are dense).
    tables: Vec<Arc<Table>>,
    epoch: u64,
}

impl Storage {
    /// Empty storage.
    #[must_use]
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Load every relation of a [`Database`] as an unindexed table.
    #[must_use]
    pub fn from_database(db: &Database) -> Storage {
        let mut s = Storage::new();
        for (name, rel) in db.iter() {
            s.insert(name, rel.clone());
        }
        s
    }

    /// Export as a [`Database`] (for cross-checking against the
    /// reference evaluator).
    #[must_use]
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for (name, t) in self.iter() {
            db.insert_named(name.to_owned(), t.relation().clone());
        }
        db
    }

    /// Register a table: interns the name (once) and places the table
    /// in the dense slot its [`RelId`] names. Re-inserting a name
    /// replaces the table under the same id; clones of this storage
    /// made earlier keep the table they had.
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) -> &mut Table {
        let name = name.into();
        let id = Arc::make_mut(&mut self.interner).register_relation(&name, rel.schema());
        let i = id.index();
        let table = Arc::new(Table::new(rel));
        if i == self.tables.len() {
            self.tables.push(table);
        } else {
            self.tables[i] = table;
        }
        self.epoch += 1;
        Arc::get_mut(&mut self.tables[i]).expect("a table just created has no other holder")
    }

    /// Append `rows` to `name`'s table in place, returning the novel
    /// rows actually stored (set semantics absorb duplicates, so the
    /// result can be empty) or `None` when the table is unknown or a
    /// row's arity doesn't fit its scheme. Unlike [`Storage::insert`],
    /// nothing is rebuilt: the columnar mirror, indexes, and exact
    /// per-column distinct counts are all maintained O(|delta|) — after
    /// one copy of the table if a clone of this storage still shares
    /// it. Bumps the epoch only when something was stored.
    pub fn append_rows(&mut self, name: &str, rows: Vec<Tuple>) -> Option<Vec<Tuple>> {
        let novel = self.table_mut(name)?.append_rows(rows)?;
        if !novel.is_empty() {
            self.epoch += 1;
        }
        Some(novel)
    }

    /// Remove from `name`'s table, in place, the rows equal to one of
    /// `rows`, returning them in stored order (`None` when the table is
    /// unknown; rows the table does not hold are ignored). The mirror
    /// image of [`Storage::append_rows`]: nothing is rebuilt
    /// ([`Table::delete_rows`]), the table is copied first only if a
    /// clone of this storage still shares it, and the epoch moves only
    /// when something was removed.
    pub fn delete_rows(&mut self, name: &str, rows: &[Tuple]) -> Option<Vec<Tuple>> {
        let removed = self.table_mut(name)?.delete_rows(rows);
        if !removed.is_empty() {
            self.epoch += 1;
        }
        Some(removed)
    }

    /// The shared handle of a table — what a clone of this storage
    /// holds for the same id until one of the two replaces or mutates
    /// it.
    #[must_use]
    pub fn table_arc(&self, id: RelId) -> Option<&Arc<Table>> {
        self.tables.get(id.index())
    }

    /// Put `table` in `id`'s slot, returning the handle it displaces
    /// (`None`, dropping `table`, when the id is unknown). The caller
    /// vouches that `table` holds the scheme registered for `id` — this
    /// is the door a copy-on-write owner publishes a caught-up copy
    /// through. Bumps the epoch.
    pub fn swap_table(&mut self, id: RelId, table: Arc<Table>) -> Option<Arc<Table>> {
        let slot = self.tables.get_mut(id.index())?;
        self.epoch += 1;
        Some(std::mem::replace(slot, table))
    }

    /// Mutable access to a table by name, copying it first when a
    /// clone of this storage still shares it.
    fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let i = self.interner.rel_id(name)?.index();
        self.tables.get_mut(i).map(Arc::make_mut)
    }

    /// The data epoch: incremented by every table insert or index
    /// build. A session compares it against the epoch its derived
    /// catalog was built from to know when to refresh statistics.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The interner owning this storage's name ↔ id mapping.
    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Resolve a table name to its dense id.
    #[must_use]
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.interner.rel_id(name)
    }

    /// Look up a table by dense id — the hot path: one bounds-checked
    /// array read, no hashing, no string compare.
    #[must_use]
    pub fn get_by_id(&self, id: RelId) -> Option<&Table> {
        self.table_arc(id).map(|t| &**t)
    }

    /// Number of registered tables (dense ids `0..n_tables()`).
    #[must_use]
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Name-keyed table read, always available inside the crate (the
    /// engine resolves plan-embedded names through this).
    pub(crate) fn get_named(&self, name: &str) -> Option<&Table> {
        self.rel_id(name).and_then(|id| self.get_by_id(id))
    }

    /// Name-keyed lookup with a diagnosable error: the unknown name
    /// plus the nearest catalog name (by edit distance), when one is
    /// plausibly close.
    pub(crate) fn lookup_named(&self, name: &str) -> Result<&Table, ExecError> {
        self.get_named(name).ok_or_else(|| ExecError::UnknownTable {
            name: name.to_owned(),
            suggestion: self.interner.suggest(name).map(str::to_owned),
        })
    }

    /// Name-keyed testing oracle for table reads. Hidden from the
    /// public surface; the id-keyed path is [`Storage::get_by_id`].
    #[cfg(any(test, feature = "testing-oracles"))]
    #[doc(hidden)]
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.get_named(name)
    }

    /// Name-keyed testing oracle for diagnosable lookups. Hidden from
    /// the public surface; the id-keyed path is [`Storage::get_by_id`].
    ///
    /// # Errors
    /// [`ExecError::UnknownTable`] when the name is not interned.
    #[cfg(any(test, feature = "testing-oracles"))]
    #[doc(hidden)]
    pub fn lookup(&self, name: &str) -> Result<&Table, ExecError> {
        self.lookup_named(name)
    }

    /// Name-keyed testing oracle for mutable table access. Hidden from
    /// the public surface; mutation goes through [`Storage::insert`]
    /// and [`Storage::create_index`]. Does **not** bump the epoch —
    /// oracle use only.
    #[cfg(any(test, feature = "testing-oracles"))]
    #[doc(hidden)]
    #[must_use]
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.table_mut(name)
    }

    /// Create an index on `rel_name(attrs…)`; `false` if missing.
    pub fn create_index(&mut self, rel_name: &str, attrs: &[Attr]) -> bool {
        let Some(t) = self.table_mut(rel_name) else {
            return false;
        };
        let built = t.create_index(attrs);
        if built {
            self.epoch += 1;
        }
        built
    }

    /// Iterate `(name, table)` pairs in name order (deterministic
    /// regardless of insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        let mut ids: Vec<RelId> = (0..self.tables.len()).map(RelId::from_index).collect();
        ids.sort_by_key(|&id| self.interner.rel_name(id));
        ids.into_iter().map(|id| {
            let t = self.get_by_id(id).expect("dense id within n_tables");
            (self.interner.rel_name(id), t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::RowDelta;
    use fro_algebra::ops::{BoundPred, BoundScalar};
    use fro_algebra::{CmpOp, ZONE_ROWS};

    #[test]
    fn roundtrip_database() {
        let mut db = Database::new();
        db.insert(Relation::from_ints("R", &["a"], &[&[1], &[2]]));
        let s = Storage::from_database(&db);
        assert_eq!(s.get("R").unwrap().len(), 2);
        let back = s.to_database();
        assert!(back.get("R").unwrap().set_eq(db.get("R").unwrap()));
    }

    #[test]
    fn index_creation_and_lookup() {
        let mut s = Storage::new();
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "v"], &[&[1, 5], &[2, 6]]),
        );
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        assert!(!s.create_index("R", &[Attr::parse("R.zzz")]));
        assert!(!s.create_index("Q", &[Attr::parse("Q.k")]));
        let t = s.get("R").unwrap();
        assert!(t.index_on(&[0]).is_some());
        assert!(t.index_on(&[1]).is_none());
    }

    #[test]
    fn a_second_create_index_rebuilds_the_first_in_place() {
        let mut s = Storage::new();
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "v"], &[&[1, 5], &[2, 6], &[1, 7]]),
        );
        let k = [Attr::parse("R.k")];
        assert!(s.create_index("R", &k));
        assert!(s.create_index("R", &k));
        let ints = |vs: &[i64]| Tuple::new(vs.iter().map(|&v| Value::Int(v)).collect());
        let novel = s.append_rows("R", vec![ints(&[2, 8]), ints(&[3, 9])]);
        assert_eq!(novel.map(|n| n.len()), Some(2));
        let t = s.get("R").unwrap();
        assert_eq!(t.indexes().len(), 1, "one index per column set");
        let mut fresh = Table::new(t.relation().clone());
        assert!(fresh.create_index(&k));
        let (ix, fx) = (&t.indexes()[0], &fresh.indexes()[0]);
        let rows = t.relation().rows();
        assert_eq!(ix.distinct_keys(), fx.distinct_keys());
        for key in 0..5 {
            let key = [Value::Int(key)];
            assert_eq!(ix.lookup(rows, &key), fx.lookup(rows, &key), "{key:?}");
        }
        assert_eq!(ix.lookup(rows, &[Value::Int(2)]), [1, 3]);
    }

    #[test]
    fn table_empty_check() {
        let t = Table::new(Relation::from_ints("R", &["a"], &[]));
        assert!(t.is_empty());
    }

    #[test]
    fn ids_stay_dense_and_replacement_stays_in_place() {
        let mut s = Storage::new();
        let n = 53;
        for i in 0..n {
            s.insert(
                format!("T{i:03}"),
                Relation::from_ints(&format!("T{i:03}"), &["a"], &[&[i as i64]]),
            );
        }
        assert_eq!(s.n_tables(), n);
        // Every id resolves to the table registered under it.
        for i in 0..n {
            let id = s.rel_id(&format!("T{i:03}")).unwrap();
            assert_eq!(id.index(), i);
            let row = &s.get_by_id(id).unwrap().relation().rows()[0];
            assert_eq!(row.get(0), &Value::Int(i as i64));
        }
        // Name-ordered iteration still covers everything exactly once.
        assert_eq!(s.iter().count(), n);
        // Replacement stays in place: same id, new contents, no growth.
        let id = s.rel_id("T001").unwrap();
        s.insert(
            "T001",
            Relation::from_ints("T001", &["a"], &[&[7], &[8], &[9]]),
        );
        assert_eq!(s.n_tables(), n);
        assert_eq!(s.rel_id("T001"), Some(id));
        assert_eq!(s.get("T001").unwrap().len(), 3);
        let late = "T052";
        assert!(s.create_index(late, &[Attr::parse("T052.a")]));
        assert!(s.get(late).unwrap().index_on(&[0]).is_some());
    }

    #[test]
    fn clones_share_tables_until_one_side_writes() {
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1], &[2]]));
        s.insert("S", Relation::from_ints("S", &["k"], &[&[7]]));
        let (r, other) = (s.rel_id("R").unwrap(), s.rel_id("S").unwrap());
        let frozen = s.clone();
        assert!(Arc::ptr_eq(
            s.table_arc(r).unwrap(),
            frozen.table_arc(r).unwrap()
        ));
        // The write copies R for the writer; the clone keeps what it had
        // and S is still one table.
        let novel = s
            .append_rows("R", vec![Tuple::new(vec![Value::Int(3)])])
            .unwrap();
        assert_eq!(novel.len(), 1);
        assert_eq!(s.get("R").unwrap().len(), 3);
        assert_eq!(frozen.get("R").unwrap().len(), 2);
        assert!(!Arc::ptr_eq(
            s.table_arc(r).unwrap(),
            frozen.table_arc(r).unwrap()
        ));
        assert!(Arc::ptr_eq(
            s.table_arc(other).unwrap(),
            frozen.table_arc(other).unwrap()
        ));
        // A name registered after the clone is unknown to it.
        s.insert("T", Relation::from_ints("T", &["k"], &[&[1]]));
        assert!(frozen.rel_id("T").is_none());
    }

    #[test]
    fn swap_table_publishes_a_caught_up_copy() {
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        let id = s.rel_id("R").unwrap();
        // A lagging copy replays the novel suffix and lands on the same
        // rows in the same order.
        let mut lagging = Table::clone(s.table_arc(id).unwrap());
        let novel = s
            .append_rows(
                "R",
                vec![
                    Tuple::new(vec![Value::Int(1)]),
                    Tuple::new(vec![Value::Int(5)]),
                ],
            )
            .unwrap();
        assert_eq!(lagging.append_rows(novel.clone()), Some(novel));
        assert_eq!(lagging.relation(), s.get("R").unwrap().relation());
        let e = s.epoch();
        let displaced = s.swap_table(id, Arc::new(lagging)).unwrap();
        assert_eq!(displaced.len(), 2);
        assert!(s.epoch() > e);
        assert!(s.swap_table(RelId::from_index(9), displaced).is_none());
    }

    #[test]
    fn row_index_rechecks_rows_on_hash_collisions() {
        let rows: Vec<Tuple> = (0..4).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let mut ix = RowIndex::default();
        // Four different rows forced under one hash: each is novel
        // once, and known afterwards.
        for (id, t) in rows.iter().enumerate() {
            assert!(ix.insert_hashed(42, t, id, |i| &rows[i]));
        }
        for t in &rows {
            assert!(!ix.insert_hashed(42, t, 9, |i| &rows[i]));
        }
        assert_eq!(ix.first.len(), 1);
        assert_eq!(ix.collided.len(), 3);
        // Forgetting the row the hash led to promotes one it collided
        // with, so the others are still found; forgetting a collided
        // row leaves the rest alone.
        ix.forget_hashed(42, 0);
        ix.forget_hashed(42, 2);
        let found = |ix: &RowIndex, id: usize| ix.find_hashed(42, &rows[id], |i| &rows[i]);
        assert_eq!(
            [0, 1, 2, 3].map(|id| found(&ix, id)),
            [None, Some(1), None, Some(3)]
        );
        ix.forget_hashed(42, 1);
        ix.forget_hashed(42, 3);
        assert!(ix.first.is_empty() && ix.collided.is_empty());
    }

    #[test]
    fn value_set_counts_like_a_bag_of_values_across_widening() {
        let values = [
            Value::Int(1),
            Value::Null,
            Value::Int(1),
            Value::Int(2),
            Value::str("x"),
            Value::Int(2),
            Value::Null,
            Value::Bool(true),
        ];
        // Once over integers and nulls only, once across the widening.
        for upto in [4, values.len()] {
            let mut set = ValueSet::with_capacity(2);
            let mut reference: FastMap<Value, usize> = FastMap::default();
            for v in &values[..upto] {
                set.insert(v);
                *reference.entry(v.clone()).or_default() += 1;
                assert_eq!(set.len(), reference.len() as u64, "after {v:?}");
            }
            assert_eq!(matches!(set, ValueSet::Any(_)), upto > 4);
            // A value stops counting when its last holder leaves.
            for v in &values[..upto] {
                set.remove(v);
                let n = reference.get_mut(v).unwrap();
                *n -= 1;
                if *n == 0 {
                    reference.remove(v);
                }
                assert_eq!(set.len(), reference.len() as u64, "without {v:?}");
            }
            assert_eq!(set.len(), 0);
        }
    }

    #[test]
    fn append_absorbs_duplicates_inside_one_batch() {
        let mut t = Table::new(Relation::from_ints("R", &["k"], &[&[1]]));
        let row = |k| Tuple::new(vec![Value::Int(k)]);
        let novel = t
            .append_rows(vec![row(2), row(1), row(2), row(3), row(3)])
            .unwrap();
        assert_eq!(novel, vec![row(2), row(3)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn append_rows_maintains_table_like_a_rebuild() {
        let mut s = Storage::new();
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "v"], &[&[1, 10], &[2, 20]]),
        );
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let e0 = s.epoch();
        // One duplicate (absorbed by set semantics) and two novel rows.
        let novel = s
            .append_rows(
                "R",
                vec![
                    Tuple::new(vec![Value::Int(1), Value::Int(10)]),
                    Tuple::new(vec![Value::Int(3), Value::Int(30)]),
                    Tuple::new(vec![Value::Int(3), Value::Int(31)]),
                ],
            )
            .unwrap();
        assert_eq!(novel.len(), 2);
        assert!(s.epoch() > e0);
        let t = s.get("R").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.columns().rows(), 4);
        // The maintained mirror agrees with a from-scratch rebuild.
        let rebuilt = Table::new(t.relation().clone());
        for c in 0..t.columns().width() {
            let (a, b) = (t.columns().column(c), rebuilt.columns().column(c));
            assert_eq!(a.distinct(), b.distinct(), "col {c}");
            assert_eq!(a.null_count(), b.null_count(), "col {c}");
            assert_eq!(a.min_max(), b.min_max(), "col {c}");
        }
        // The index sees the appended rows.
        let rows = t.relation().rows();
        assert_eq!(
            t.index_on(&[0]).unwrap().lookup(rows, &[Value::Int(3)]),
            [2, 3]
        );
        // An all-duplicate append changes nothing, not even the epoch.
        let e1 = s.epoch();
        let none = s
            .append_rows("R", vec![Tuple::new(vec![Value::Int(3), Value::Int(30)])])
            .unwrap();
        assert!(none.is_empty());
        assert_eq!(s.epoch(), e1);
        assert_eq!(s.get("R").unwrap().len(), 4);
    }

    #[test]
    fn append_rows_rejects_unknown_table_and_bad_arity() {
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        assert!(s.append_rows("missing", vec![]).is_none());
        let e = s.epoch();
        assert!(s
            .append_rows("R", vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])])
            .is_none());
        assert_eq!(s.epoch(), e);
        assert_eq!(s.get("R").unwrap().len(), 1);
    }

    #[test]
    fn append_rows_layout_fallback_keeps_mirror_consistent() {
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        // A string can't extend a typed int column in place; the
        // mirror is rebuilt instead and reads stay consistent.
        let novel = s
            .append_rows("R", vec![Tuple::new(vec![Value::str("x")])])
            .unwrap();
        assert_eq!(novel.len(), 1);
        let t = s.get("R").unwrap();
        assert_eq!(t.columns().value_at(1, 0), Value::str("x"));
        assert_eq!(t.columns().column(0).distinct(), 2);
    }

    #[test]
    fn epoch_bumps_on_data_and_index_mutation() {
        let mut s = Storage::new();
        let e0 = s.epoch();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        let e1 = s.epoch();
        assert!(e1 > e0);
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let e2 = s.epoch();
        assert!(e2 > e1);
        // Failed index builds leave the epoch alone.
        assert!(!s.create_index("R", &[Attr::parse("R.zzz")]));
        assert!(!s.create_index("Q", &[Attr::parse("Q.k")]));
        assert_eq!(s.epoch(), e2);
    }

    /// Deterministic generator for the write schedules below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    const COLS: [&str; 6] = ["i", "s", "n", "b", "m", "w"];

    /// One row over an int, a string, an all-null, a bool and a mixed
    /// column plus `w`, which holds the row's serial number — so rows
    /// are distinct — as an integer or, once `wide`, sometimes as a
    /// string. `wide` rows also bring strings the first rows did not
    /// have: both break the typed layout an append extends in place.
    fn gen_row(rng: &mut Lcg, serial: i64, wide: bool) -> Tuple {
        let nullable = |rng: &mut Lcg, one_in: u64, v: Value| match rng.below(one_in) {
            0 => Value::Null,
            _ => v,
        };
        let i = Value::Int(rng.below(12) as i64);
        let s = Value::str(format!("s{}", rng.below(if wide { 9 } else { 6 })));
        let b = Value::Bool(rng.below(2) == 1);
        let m = match rng.below(3) {
            0 => Value::Int(rng.below(5) as i64),
            1 => Value::str(format!("m{}", rng.below(3))),
            _ => Value::Bool(rng.below(2) == 0),
        };
        let w = if wide && rng.below(10) == 0 {
            Value::str(format!("w{serial}"))
        } else {
            Value::Int(serial)
        };
        Tuple::new(vec![
            nullable(rng, 8, i),
            nullable(rng, 6, s),
            Value::Null,
            nullable(rng, 5, b),
            nullable(rng, 4, m),
            w,
        ])
    }

    /// Column-vs-literal on every layout (in range, out of range,
    /// absent string, null, cross-type), column-vs-column, null tests
    /// and connectives — the shapes of `column.rs`'s own suite.
    fn pred_suite() -> Vec<BoundPred> {
        use BoundPred as P;
        use BoundScalar::{Col, Lit};
        use CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
        let cmp = |op, l, r| P::Cmp(op, l, r);
        vec![
            cmp(Ge, Col(0), Lit(Value::Int(3))),
            cmp(Eq, Col(0), Lit(Value::Int(5))),
            cmp(Lt, Lit(Value::Int(2)), Col(0)),
            cmp(Eq, Col(1), Lit(Value::str("s2"))),
            cmp(Gt, Col(1), Lit(Value::str("s4"))),
            cmp(Eq, Col(1), Lit(Value::str("absent"))),
            cmp(Eq, Col(2), Lit(Value::Int(1))),
            P::IsNull(Col(2)),
            cmp(Eq, Col(3), Lit(Value::Bool(true))),
            cmp(Ne, Col(4), Lit(Value::Int(2))),
            cmp(Le, Col(4), Lit(Value::str("m1"))),
            cmp(Eq, Col(0), Lit(Value::Null)),
            cmp(Gt, Col(0), Lit(Value::str("zz"))),
            cmp(Lt, Col(1), Lit(Value::Bool(false))),
            cmp(Ge, Col(5), Lit(Value::Int(1024))),
            cmp(Lt, Col(5), Lit(Value::str("w"))),
            cmp(Eq, Col(0), Col(4)),
            cmp(Le, Col(0), Col(5)),
            cmp(Gt, Col(1), Col(4)),
            P::Not(Box::new(P::Or(
                Box::new(P::IsNull(Col(1))),
                Box::new(cmp(Lt, Col(0), Col(4))),
            ))),
            P::And(
                Box::new(cmp(Ge, Col(5), Lit(Value::Int(1100)))),
                Box::new(cmp(Eq, Col(3), Lit(Value::Bool(false)))),
            ),
        ]
    }

    /// Everything a reader can ask of `table` answers as
    /// `Table::new(rows)` plus the same `create_index` calls would:
    /// rows and stored order, the mirror (cells, validity, null and
    /// distinct counts, every zone, predicate masks and zone skips, key
    /// hashes), every index lookup, and which rows of `probe` a
    /// re-append finds novel.
    fn assert_reads_like_a_rebuild(
        table: &Table,
        rows: &[Tuple],
        indexes: &[Vec<Attr>],
        probe: &[Tuple],
        what: &str,
    ) {
        assert_eq!(table.relation().rows(), rows, "{what}: rows");
        let schema = table.relation().schema().clone();
        let mut rebuilt = Table::new(Relation::from_distinct_rows(schema, rows.to_vec()));
        for attrs in indexes {
            assert!(rebuilt.create_index(attrs));
        }
        let (a, b) = (table.columns(), rebuilt.columns());
        assert_eq!(a.rows(), b.rows(), "{what}");
        for c in 0..a.width() {
            let (ca, cb) = (a.column(c), b.column(c));
            assert_eq!(ca.null_count(), cb.null_count(), "{what}: col {c}");
            assert_eq!(ca.distinct(), cb.distinct(), "{what}: col {c}");
            assert_eq!(ca.validity(), cb.validity(), "{what}: col {c}");
            assert_eq!(ca.zones().len(), cb.zones().len(), "{what}: col {c}");
            for (z, (za, zb)) in ca.zones().iter().zip(cb.zones()).enumerate() {
                assert_eq!(za.min_max(), zb.min_max(), "{what}: col {c} zone {z}");
                assert_eq!(za.nulls(), zb.nulls(), "{what}: col {c} zone {z}");
            }
            for r in 0..a.rows() {
                assert_eq!(a.value_at(r, c), b.value_at(r, c), "{what}: cell {r},{c}");
                let keys = [c, (c + 1) % a.width()];
                assert_eq!(a.hash_key_at(&keys, r), b.hash_key_at(&keys, r));
            }
        }
        for p in pred_suite() {
            let (mut sa, mut sb) = (0, 0);
            let (ma, mb) = (a.eval_pred(&p, &mut sa), b.eval_pred(&p, &mut sb));
            assert_eq!(ma.trues(), mb.trues(), "{what}: {p:?}");
            assert_eq!(ma.falses(), mb.falses(), "{what}: {p:?}");
            assert_eq!(sa, sb, "{what}: zones skipped by {p:?}");
        }
        assert_eq!(table.indexes().len(), indexes.len(), "{what}");
        for (ia, ib) in table.indexes().iter().zip(rebuilt.indexes()) {
            assert_eq!(ia.key_cols(), ib.key_cols(), "{what}");
            assert_eq!(ia.distinct_keys(), ib.distinct_keys(), "{what}");
            for t in rows.iter().chain(probe) {
                let key: Vec<Value> = ia.key_cols().iter().map(|&c| t.get(c).clone()).collect();
                assert_eq!(
                    ia.lookup(table.relation().rows(), &key),
                    ib.lookup(rebuilt.relation().rows(), &key),
                    "{what}: key {key:?}"
                );
            }
        }
        let novel = table.clone().append_rows(probe.to_vec());
        assert_eq!(
            novel,
            rebuilt.append_rows(probe.to_vec()),
            "{what}: novelty"
        );
    }

    #[test]
    fn in_place_writes_read_like_a_rebuild_and_replay_onto_a_lagging_copy() {
        let attr = |c: usize| Attr::new("T", COLS[c]);
        let index_sets: [Vec<Vec<Attr>>; 3] = [
            vec![],
            vec![vec![attr(0)]],
            vec![vec![attr(0)], vec![attr(1), attr(3)]],
        ];
        for (case, indexes) in index_sets.iter().enumerate() {
            let mut rng = Lcg(0xD1CE + case as u64);
            let mut serial = 0i64;
            let mut fresh = |rng: &mut Lcg, wide: bool| {
                serial += 1;
                gen_row(rng, serial, wide)
            };
            // Just under one zone, so the first appends cross into a
            // second; two cases start with an append, one with a delete.
            let mut model: Vec<Tuple> = (0..1010).map(|_| fresh(&mut rng, false)).collect();
            let schema = Relation::from_values("T", &COLS, vec![]).schema().clone();
            let mut table = Table::new(Relation::from_distinct_rows(schema, model.clone()));
            for attrs in indexes {
                assert!(table.create_index(attrs));
            }
            let mut lagging = table.clone();
            let mut lag: Vec<RowDelta> = Vec::new();
            let mut gone: Vec<Tuple> = Vec::new();
            for step in 0..36 {
                let what = format!("case {case} step {step}");
                let wide = step >= 12;
                let pick = if step == 0 {
                    5 * case as u64
                } else {
                    rng.below(10)
                };
                if pick < 5 {
                    // New rows, rows already stored, a row twice.
                    let mut batch: Vec<Tuple> =
                        (0..=rng.below(40)).map(|_| fresh(&mut rng, wide)).collect();
                    batch.push(model[rng.below(model.len() as u64) as usize].clone());
                    batch.push(batch[0].clone());
                    batch.extend(gone.pop());
                    let mut novel = Vec::new();
                    for t in batch.iter() {
                        if !model.contains(t) && !novel.contains(t) {
                            novel.push(t.clone());
                        }
                    }
                    assert_eq!(table.append_rows(batch), Some(novel.clone()), "{what}");
                    model.extend(novel.iter().cloned());
                    lag.push(RowDelta::from_inserts(novel));
                } else {
                    let doomed_ids: Vec<usize> = match pick {
                        // Scattered rows.
                        5..=7 => (0..=rng.below(30))
                            .map(|_| rng.below(model.len() as u64) as usize)
                            .collect(),
                        // Everything past the first zone: a zone (or
                        // two) empties.
                        8 => (ZONE_ROWS.min(model.len() - 1)..model.len()).collect(),
                        // A run across the zone boundary.
                        _ => (1000..1050.min(model.len())).collect(),
                    };
                    // Stored rows (some named twice) and one that is
                    // not stored.
                    let mut doomed: Vec<Tuple> =
                        doomed_ids.iter().map(|&i| model[i].clone()).collect();
                    doomed.push(fresh(&mut rng, wide));
                    let (removed, kept): (Vec<Tuple>, Vec<Tuple>) =
                        model.iter().cloned().partition(|t| doomed.contains(t));
                    assert_eq!(table.delete_rows(&doomed), removed, "{what}");
                    model = kept;
                    gone.extend(removed.iter().take(3).cloned());
                    lag.push(RowDelta::from_deletes(removed));
                }
                let mut probe: Vec<Tuple> = gone.iter().rev().take(2).cloned().collect();
                probe.push(model[model.len() / 2].clone());
                probe.push(fresh(&mut rng, wide));
                assert_reads_like_a_rebuild(&table, &model, indexes, &probe, &what);
                // Every dozen steps the copy left behind replays what
                // it missed — appends and deletes mixed — and must
                // land on the same table.
                if step % 12 == 11 {
                    for delta in lag.drain(..) {
                        assert_eq!(lagging.delete_rows(&delta.deletes), delta.deletes, "{what}");
                        assert_eq!(
                            lagging.append_rows(delta.inserts.clone()),
                            Some(delta.inserts),
                            "{what}"
                        );
                    }
                    assert_reads_like_a_rebuild(&lagging, &model, indexes, &probe, &what);
                }
            }
            assert!(
                matches!(
                    table.append_state.as_ref().unwrap().value_sets[5],
                    ValueSet::Any(_)
                ),
                "case {case}: the serial column widened"
            );
        }
    }
}
