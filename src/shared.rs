//! Shared database state for concurrent sessions.
//!
//! A [`SharedDb`] owns the catalog (statistics, epoch, plan cache) and
//! the storage behind one copy-on-write cell: readers grab an
//! [`Arc`]-shared [`DbState`] snapshot and work against it lock-free,
//! while writers derive the next generation and swap it in under a
//! short write lock ([`SharedDb::mutate`]). An in-flight reader
//! therefore never observes a torn catalog — it either sees the whole
//! pre-mutation generation or the whole post-mutation one, and the
//! catalog epoch inside each generation keeps the plan cache honest
//! exactly as it does single-threaded: a statistics change bumps the
//! epoch, so a plan costed under old statistics is never served
//! against new ones.
//!
//! ## What a new generation costs
//!
//! Generations share everything a mutation does not touch: every table
//! sits behind its own [`Arc`], and all generations of one `SharedDb`
//! plan through one plan cache, so deriving a generation is a vector of
//! pointer bumps plus the O(#tables) statistics. Only the table being
//! written needs a copy no reader holds, and row writes — the appends
//! and deletes that run beside readers all day — do not make one each
//! time: the copy the previous write retired is kept with the log of
//! row deltas it lags by, and once its readers are gone the next write
//! takes it back, replays the log and its own delta in place, and
//! publishes it (left-right style). A table is cloned only when it has
//! no retired copy yet, or a reader still holds it — so a long-lived
//! reader costs one table copy, not one per write. Appends and deletes
//! go through the same three arms ([`SharedDb::append_paths`] counts
//! them) and neither rebuilds anything: a delete takes the rows out of
//! the table where they stand ([`fro_exec::Table::delete_rows`]).
//!
//! Cheap per-connection [`Session`] handles ([`SharedDb::session`])
//! carry only an optional entity model and their own counters, and all
//! share this state — and with it the cross-query plan cache, so one
//! connection's warm plan is every connection's warm plan (Theorem 1
//! makes the canonical graph's signature a sound cross-session key;
//! alpha-equivalent queries from different clients collapse onto one
//! cache entry).
//!
//! [`Session`]: crate::Session

use crate::standing::{self, Registry};
use fro_algebra::{Attr, RelId, Relation, Tuple};
use fro_core::Catalog;
use fro_exec::{ExecStats, RowDelta, Storage, Table};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockWriteGuard};

/// One immutable generation of the database: catalog + storage,
/// derived together so ids, statistics and stored rows always agree.
///
/// [`Clone`] yields an independent database (its own plan cache; the
/// tables are shared until either side writes one).
#[derive(Debug, Clone, Default)]
pub struct DbState {
    catalog: Catalog,
    storage: Storage,
}

impl DbState {
    /// The catalog of this generation (statistics, epoch, plan cache).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The storage of this generation.
    #[must_use]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The generation that will replace this one: every table and the
    /// plan cache shared, statistics copied.
    fn next_generation(&self) -> DbState {
        DbState {
            catalog: self.catalog.next_generation(),
            storage: self.storage.clone(),
        }
    }
}

/// How the row writes of one [`SharedDb`] reached storage: appends in
/// the first three counters, deletes in the last three (only writes
/// that stored or removed at least one row are counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendPaths {
    /// No reader held the table: extended where it stood.
    pub in_place: u64,
    /// A reader held the table and the copy retired by an earlier
    /// write was free again: caught up and published, no table copy.
    pub recycled: u64,
    /// A reader held the table and no retired copy was free: the table
    /// was cloned first.
    pub copied: u64,
    /// Deletes with no reader on the table: rows removed where they
    /// stood.
    pub deleted_in_place: u64,
    /// Deletes beside a reader that took the retired copy back.
    pub deleted_recycled: u64,
    /// Deletes beside a reader that had to clone the table first.
    pub deleted_copied: u64,
}

/// The three ways a row write reaches storage ([`AppendPaths`]).
#[derive(Debug, Clone, Copy)]
enum Arm {
    InPlace,
    Recycled,
    Copied,
}

impl AppendPaths {
    /// Count one write that went through `arm`; `done` is what it
    /// changed.
    fn count(&mut self, done: &RowDelta, arm: Arm) {
        let counter = match (done.inserts.is_empty(), arm) {
            (false, Arm::InPlace) => &mut self.in_place,
            (false, Arm::Recycled) => &mut self.recycled,
            (false, Arm::Copied) => &mut self.copied,
            (true, Arm::InPlace) => &mut self.deleted_in_place,
            (true, Arm::Recycled) => &mut self.deleted_recycled,
            (true, Arm::Copied) => &mut self.deleted_copied,
        };
        *counter += 1;
    }
}

/// Apply `delta` to `table` — its deletes leave, then its inserts
/// arrive — and return what that changed: the rows actually removed
/// and the novel rows actually stored, each in stored order (`None`:
/// an insert off the table's scheme). Replaying the returned deltas, in
/// order, on a copy of the table as it was reproduces the table.
fn apply(table: &mut Table, delta: RowDelta) -> Option<RowDelta> {
    let deletes = table.delete_rows(&delta.deletes);
    let inserts = table.append_rows(delta.inserts)?;
    Some(RowDelta { inserts, deletes })
}

/// A table copy a row write retired, kept to be written again.
#[derive(Debug)]
struct Spare {
    /// The table as of some earlier generation. Readers of that
    /// generation may still hold it; it is written only once they are
    /// gone ([`Arc::get_mut`]).
    table: Arc<Table>,
    /// What was written since, in order: replaying the log brings
    /// `table` level with the current generation's.
    lag: Vec<RowDelta>,
}

impl Spare {
    /// The copy brought level with the table it lags, or `None` while a
    /// reader still holds it.
    fn caught_up(mut self) -> Option<Arc<Table>> {
        let table = Arc::get_mut(&mut self.table)?;
        for delta in self.lag {
            apply(table, delta).expect("lag rows were stored under this table's scheme");
        }
        Some(self.table)
    }

    fn lag_rows(&self) -> usize {
        self.lag.iter().map(RowDelta::len).sum()
    }
}

/// What the state lock guards: the published generation and the
/// writer-side leftovers of earlier ones.
#[derive(Debug, Default)]
struct Generations {
    current: Arc<DbState>,
    /// At most one retired copy per table, dropped by any write to the
    /// table other than a row append or delete.
    spares: HashMap<RelId, Spare>,
    paths: AppendPaths,
}

impl Generations {
    /// The state to mutate: the current generation itself when no
    /// reader holds it, else its successor — installed right away,
    /// which readers cannot see before the write lock is released.
    fn writable(&mut self) -> &mut DbState {
        if Arc::get_mut(&mut self.current).is_none() {
            self.current = Arc::new(self.current.next_generation());
        }
        Arc::get_mut(&mut self.current).expect("unshared: checked or created just above")
    }

    /// Keep `spare` for `id` while catching it up is no more work than
    /// the clone it saves (lag rows ≤ its rows); drop it otherwise.
    fn keep_spare(&mut self, id: RelId, spare: Spare) {
        if spare.lag_rows() <= spare.table.len() {
            self.spares.insert(id, spare);
        }
    }

    /// Apply `delta` to `name`'s table — store its inserts, remove its
    /// deletes — refresh the table's statistics and bump its row epoch;
    /// returns what changed: the novel rows stored and the rows
    /// actually removed (`None`: unknown table or an insert off its
    /// scheme). Costs O(|delta|) for an append and one pass over the
    /// table's row ids for a delete, plus, when readers hold the
    /// current generation, O(#tables) — except for the one table clone
    /// described in the module docs.
    fn write(&mut self, name: &str, delta: RowDelta) -> Option<RowDelta> {
        let id = self.current.storage.rel_id(name)?;
        let held = self.current.storage.table_arc(id)?;
        let arity = held.relation().schema().len();
        if delta.inserts.iter().any(|t| t.arity() != arity) {
            return None;
        }
        // Under the write lock, a count of one means the current
        // generation is the table's only holder; if no reader holds
        // that either, nobody can be reading the table.
        let table_unshared = Arc::strong_count(held) == 1;
        let (done, retired) = if table_unshared && Arc::get_mut(&mut self.current).is_some() {
            let storage = &mut self.writable().storage;
            let deletes = storage.delete_rows(name, &delta.deletes)?;
            let inserts = storage.append_rows(name, delta.inserts)?;
            let done = RowDelta { inserts, deletes };
            if done.is_empty() {
                return Some(done);
            }
            self.paths.count(&done, Arm::InPlace);
            (done, None)
        } else {
            let recycled = self.spares.remove(&id).and_then(Spare::caught_up);
            let arm = match recycled {
                Some(_) => Arm::Recycled,
                None => Arm::Copied,
            };
            let mut copy = match recycled {
                Some(copy) => copy,
                None => Arc::new(Table::clone(self.current.storage.table_arc(id)?)),
            };
            let table = Arc::get_mut(&mut copy).expect("a caught-up or fresh copy has no holder");
            let done = apply(table, delta)?;
            if done.is_empty() {
                // Nothing to publish; the copy is level with the
                // current table and ready for the next write.
                let level = Spare {
                    table: copy,
                    lag: Vec::new(),
                };
                self.keep_spare(id, level);
                return Some(done);
            }
            self.paths.count(&done, arm);
            (done, self.writable().storage.swap_table(id, copy))
        };
        let state = self.writable();
        let table = state.storage.get_by_id(id)?;
        state.catalog.read_table_stats_quiet(name, table);
        state.catalog.bump_row_epoch(name);
        let spare = match retired {
            Some(table) => Some(Spare {
                table,
                lag: vec![done.clone()],
            }),
            None => self.spares.remove(&id).map(|mut spare| {
                spare.lag.push(done.clone());
                spare
            }),
        };
        if let Some(spare) = spare {
            self.keep_spare(id, spare);
        }
        Some(done)
    }
}

/// The shared, concurrently-usable database: a copy-on-write
/// [`DbState`] cell. See the module docs for the consistency story.
#[derive(Debug, Default)]
pub struct SharedDb {
    state: RwLock<Generations>,
    /// Standing-query views and their maintenance machinery. Lock
    /// order: `standing` strictly before `state` — mutation front
    /// doors hold the registry lock around the whole
    /// mutate-then-fan-out sequence so base deltas reach every view in
    /// publication order.
    standing: Mutex<Registry>,
}

impl SharedDb {
    /// An empty shared database.
    #[must_use]
    pub fn new() -> Arc<SharedDb> {
        Arc::new(SharedDb::default())
    }

    /// A shared database over existing storage; the catalog is derived
    /// with exact statistics ([`Catalog::from_storage`]).
    #[must_use]
    pub fn from_storage(storage: Storage) -> Arc<SharedDb> {
        let current = Arc::new(DbState {
            catalog: Catalog::from_storage(&storage),
            storage,
        });
        Arc::new(SharedDb {
            state: RwLock::new(Generations {
                current,
                ..Generations::default()
            }),
            standing: Mutex::default(),
        })
    }

    /// A consistent snapshot of the current generation. Cheap (one
    /// `Arc` clone under a read lock) and stable: later mutations
    /// produce new generations, they never alter this one.
    #[must_use]
    pub fn snapshot(&self) -> Arc<DbState> {
        let guard = self.state.read().expect("shared db lock never poisoned");
        Arc::clone(&guard.current)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Generations> {
        self.state.write().expect("shared db lock never poisoned")
    }

    /// Run a mutation against catalog and storage atomically,
    /// publishing the result as the next generation. Readers holding
    /// earlier snapshots are unaffected; new snapshots see every
    /// effect of `f` or none of it.
    ///
    /// The closure runs under the write lock — keep it short and never
    /// call back into this [`SharedDb`] from inside it.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Catalog, &mut Storage) -> R) -> R {
        let mut guard = self.write();
        // `f` may replace any table, which would leave that table's
        // retired copy lagging behind rows that no longer exist.
        guard.spares.clear();
        let state = guard.writable();
        f(&mut state.catalog, &mut state.storage)
    }

    /// A new session handle over this shared state (attach an entity
    /// model with [`Session::with_entity_db`]).
    ///
    /// [`Session::with_entity_db`]: crate::Session::with_entity_db
    ///
    /// [`Session`]: crate::Session
    #[must_use]
    pub fn session(self: &Arc<Self>) -> crate::Session {
        crate::Session::connect(self)
    }

    /// How this database's row appends and deletes reached storage so
    /// far.
    #[must_use]
    pub fn append_paths(&self) -> AppendPaths {
        self.state
            .read()
            .expect("shared db lock never poisoned")
            .paths
    }

    /// Load (or replace) a table: stores the relation and registers
    /// exact statistics — row count and per-column distinct counts —
    /// in the catalog, bumping the epoch.
    pub fn insert_table(&self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        let mut guard = self.write();
        if let Some(id) = guard.current.storage.rel_id(&name) {
            guard.spares.remove(&id);
        }
        let state = guard.writable();
        insert_with_stats(&mut state.catalog, &mut state.storage, &name, rel);
    }

    /// Append rows to an existing table, republishing it with
    /// refreshed statistics. Rows that duplicate existing ones are
    /// absorbed by set semantics. Returns `false` (doing nothing) when
    /// the table is unknown or a row doesn't fit the scheme.
    ///
    /// Unlike a table replacement, an append bumps only the relation's
    /// **row epoch**, not the catalog epoch: plans over *other*
    /// relations stay cached, plans over this one re-cost, and every
    /// standing view on it folds the novel rows in incrementally
    /// (O(|delta|), no re-execution).
    pub fn append_rows(&self, name: &str, rows: Vec<Tuple>) -> bool {
        self.append_rows_traced(name, rows).0
    }

    /// [`SharedDb::append_rows`] plus the maintenance work it
    /// triggered, so session handles can attribute their share.
    pub(crate) fn append_rows_traced(&self, name: &str, rows: Vec<Tuple>) -> (bool, ExecStats) {
        let mut reg = self.standing_lock();
        // O(|delta|) storage path: the table's row store, columnar
        // mirror, indexes, and exact distinct counts are extended in
        // place — no rebuild, no re-dedup of the base. When every row
        // was a duplicate nothing changed, and the generation (and
        // every epoch) stays as it is.
        let done = self.write().write(name, RowDelta::from_inserts(rows));
        self.fan_out(&mut reg, name, done)
    }

    /// Hand what a row write changed to the standing views on `name`
    /// (`None`: the write was refused and there is nothing to hand on).
    fn fan_out(&self, reg: &mut Registry, name: &str, done: Option<RowDelta>) -> (bool, ExecStats) {
        match done {
            None => (false, ExecStats::new()),
            Some(done) => {
                let stats = standing::apply_base_delta(reg, &self.snapshot(), name, &done);
                (true, stats)
            }
        }
    }

    /// Delete rows from an existing table (rows not present are
    /// ignored), republishing it with refreshed statistics. Returns
    /// `false` (doing nothing) when the table is unknown. Like
    /// [`SharedDb::append_rows`], bumps only the relation's row epoch;
    /// standing views retract the removed rows incrementally — an
    /// outerjoin view re-emits the null-padded row when a preserved
    /// row's last match dies.
    pub fn delete_rows(&self, name: &str, rows: &[Tuple]) -> bool {
        self.delete_rows_traced(name, rows).0
    }

    /// [`SharedDb::delete_rows`] plus the maintenance work it
    /// triggered.
    pub(crate) fn delete_rows_traced(&self, name: &str, rows: &[Tuple]) -> (bool, ExecStats) {
        let mut reg = self.standing_lock();
        let done = self
            .write()
            .write(name, RowDelta::from_deletes(rows.to_vec()));
        self.fan_out(&mut reg, name, done)
    }

    /// The standing-query registry, for the maintenance code in
    /// [`crate::standing`]. Lock order: this lock strictly before any
    /// `state` access.
    pub(crate) fn standing_lock(&self) -> MutexGuard<'_, Registry> {
        self.standing
            .lock()
            .expect("standing registry lock never poisoned")
    }

    /// Build a hash index on `rel(attrs…)` in storage and declare it
    /// to the catalog. Returns `false` (doing nothing) when the table
    /// or an attribute is unknown.
    pub fn create_index(&self, rel: &str, attrs: &[Attr]) -> bool {
        let mut guard = self.write();
        let Some(id) = guard.current.storage.rel_id(rel) else {
            return false;
        };
        // A retired copy would lack the index.
        guard.spares.remove(&id);
        let state = guard.writable();
        let built = state.storage.create_index(rel, attrs);
        if built {
            state.catalog.add_index(rel, attrs);
        }
        built
    }

    /// Override a column's distinct count (what-if statistics). Bumps
    /// the catalog epoch, so cached plans costed under the old
    /// statistics are invalidated automatically.
    pub fn set_distinct(&self, attr: &Attr, distinct: u64) {
        self.write().writable().catalog.set_distinct(attr, distinct);
    }
}

/// Store `rel` as table `name` and register its exact statistics —
/// row count, true per-column distinct counts (null counts as one
/// distinct value) and key sketches, read off the columnar mirror the
/// table was just built with. Bumps the catalog epoch.
pub(crate) fn insert_with_stats(
    catalog: &mut Catalog,
    storage: &mut Storage,
    name: &str,
    rel: Relation,
) {
    let table = storage.insert(name, rel);
    catalog.add_table(name, table.relation().schema().clone(), table.len() as u64);
    catalog.read_table_stats_quiet(name, table);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Value;

    #[test]
    fn snapshots_are_stable_across_mutations() {
        let db = SharedDb::new();
        db.insert_table("R", Relation::from_ints("R", &["a"], &[&[1], &[2]]));
        let before = db.snapshot();
        let epoch_before = before.catalog().epoch();
        db.insert_table("S", Relation::from_ints("S", &["b"], &[&[7]]));
        // The old snapshot still sees exactly one table at its epoch.
        assert!(before.catalog().table("S").is_none());
        assert_eq!(before.catalog().epoch(), epoch_before);
        // A fresh snapshot sees the whole mutation.
        let after = db.snapshot();
        assert!(after.catalog().table("S").is_some());
        assert!(after.catalog().epoch() > epoch_before);
    }

    #[test]
    fn append_rows_refreshes_stats_and_dedups() {
        let db = SharedDb::new();
        db.insert_table("R", Relation::from_ints("R", &["a"], &[&[1], &[2]]));
        db.insert_table("S", Relation::from_ints("S", &["b"], &[&[3]]));
        let (ra, sb) = (Attr::parse("R.a"), Attr::parse("S.b"));
        // Disjoint keys: the measured overlap clamps to one value.
        assert_eq!(db.snapshot().catalog().eq_selectivity(&ra, &sb), 0.5);
        assert!(db.append_rows(
            "R",
            vec![
                Tuple::new(vec![Value::Int(2)]),
                Tuple::new(vec![Value::Int(3)]),
            ],
        ));
        let s = db.snapshot();
        assert_eq!(s.catalog().table("R").unwrap().rows, 3);
        // The appended 3 reached the catalog's copy of R.a's sketch.
        assert_eq!(s.catalog().eq_selectivity(&ra, &sb), 1.0 / 3.0);
        let id = s.storage().rel_id("R").unwrap();
        assert_eq!(s.storage().get_by_id(id).unwrap().relation().len(), 3);
        assert!(!db.append_rows("missing", vec![]));
    }

    #[test]
    fn mutations_are_atomic_to_new_snapshots() {
        let db = SharedDb::new();
        db.insert_table("A", Relation::from_ints("A", &["x"], &[&[1]]));
        db.insert_table("B", Relation::from_ints("B", &["y"], &[&[1]]));
        // Swap both tables' contents in one mutation; any snapshot
        // sees either both old or both new, never a mix.
        db.mutate(|catalog, storage| {
            let a = Relation::from_ints("A", &["x"], &[&[2], &[3]]);
            let b = Relation::from_ints("B", &["y"], &[&[2], &[3]]);
            insert_with_stats(catalog, storage, "A", a);
            insert_with_stats(catalog, storage, "B", b);
        });
        let s = db.snapshot();
        assert_eq!(s.catalog().table("A").unwrap().rows, 2);
        assert_eq!(s.catalog().table("B").unwrap().rows, 2);
    }

    /// A table big enough that a retired copy of it is worth keeping
    /// (lag rows ≤ its rows).
    fn wide(name: &str, col: &str, rows: i64) -> Relation {
        let rows: Vec<Vec<i64>> = (0..rows).map(|v| vec![v]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        Relation::from_ints(name, &[col], &refs)
    }

    fn ints(values: &[i64]) -> Vec<Tuple> {
        values
            .iter()
            .map(|v| Tuple::new(vec![Value::Int(*v)]))
            .collect()
    }

    fn rows_of(state: &DbState, name: &str) -> Vec<Tuple> {
        let id = state.storage().rel_id(name).unwrap();
        let table = state.storage().get_by_id(id).unwrap();
        table.relation().rows().to_vec()
    }

    #[test]
    fn pinned_appends_share_other_tables_and_recycle_the_retired_copy() {
        let db = SharedDb::new();
        for (name, col) in [("A", "x"), ("F", "y"), ("Z", "z")] {
            db.insert_table(name, wide(name, col, 20));
        }
        let pin = db.snapshot();
        assert!(db.append_rows("F", ints(&[100, 101])));
        let next = db.snapshot();
        // Only F was copied: every other table is the same allocation
        // in both generations.
        for name in ["A", "Z"] {
            let id = pin.storage().rel_id(name).unwrap();
            assert!(std::ptr::eq(
                pin.storage().get_by_id(id).unwrap(),
                next.storage().get_by_id(id).unwrap()
            ));
        }
        assert_eq!(rows_of(&pin, "F").len(), 20);
        assert_eq!(rows_of(&next, "F").len(), 22);
        assert_eq!(
            db.append_paths(),
            AppendPaths {
                copied: 1,
                ..AppendPaths::default()
            }
        );
        // The reader moves on; the next pinned append takes the retired
        // copy back instead of cloning.
        drop(pin);
        assert!(db.append_rows("F", ints(&[102, 100])));
        assert_eq!(
            db.append_paths(),
            AppendPaths {
                recycled: 1,
                copied: 1,
                ..AppendPaths::default()
            }
        );
        assert_eq!(
            rows_of(&next, "F").len(),
            22,
            "the pinned reader is undisturbed"
        );
        drop(next);
        let s = db.snapshot();
        let mut expected = wide("F", "y", 20).rows().to_vec();
        expected.extend(ints(&[100, 101, 102]));
        assert_eq!(
            rows_of(&s, "F"),
            expected,
            "stored order as if appended in place"
        );
        assert_eq!(s.catalog().table("F").unwrap().rows, 23);
        assert_eq!(s.catalog().distinct_of(&Attr::parse("F.y")), 23);
    }

    #[test]
    fn a_reader_that_never_leaves_costs_one_table_copy() {
        let db = SharedDb::new();
        db.insert_table("F", wide("F", "y", 20));
        let forever = db.snapshot();
        for v in 0..6 {
            assert!(db.append_rows("F", ints(&[100 + v])));
        }
        // The first append copied F away from the reader; with nobody
        // on the later generations, the rest extended that copy.
        assert_eq!(
            db.append_paths(),
            AppendPaths {
                in_place: 5,
                copied: 1,
                ..AppendPaths::default()
            }
        );
        assert_eq!(rows_of(&forever, "F").len(), 20);
        assert_eq!(rows_of(&db.snapshot(), "F").len(), 26);
    }

    #[test]
    fn unpinned_appends_lengthen_the_lag_a_later_recycle_replays() {
        let db = SharedDb::new();
        db.insert_table("F", wide("F", "y", 20));
        let pin = db.snapshot();
        assert!(db.append_rows("F", ints(&[100])));
        drop(pin);
        // In place: the retired copy now lags by two batches.
        assert!(db.append_rows("F", ints(&[101, 102])));
        let pin = db.snapshot();
        assert!(db.append_rows("F", ints(&[103])));
        assert_eq!(
            db.append_paths(),
            AppendPaths {
                in_place: 1,
                recycled: 1,
                copied: 1,
                ..AppendPaths::default()
            }
        );
        drop(pin);
        let mut expected = wide("F", "y", 20).rows().to_vec();
        expected.extend(ints(&[100, 101, 102, 103]));
        assert_eq!(rows_of(&db.snapshot(), "F"), expected);
    }

    #[test]
    fn other_writes_to_the_table_drop_its_retired_copy() {
        type Write = fn(&SharedDb);
        let writes: [(&str, Write); 3] = [
            ("replace", |db| db.insert_table("F", wide("F", "y", 30))),
            ("index", |db| {
                assert!(db.create_index("F", &[Attr::parse("F.y")]))
            }),
            ("mutate", |db| {
                db.mutate(|_, storage| {
                    storage.insert("G", wide("G", "g", 1));
                });
            }),
        ];
        for (what, write) in writes {
            let db = SharedDb::new();
            db.insert_table("F", wide("F", "y", 20));
            let pin = db.snapshot();
            assert!(db.append_rows("F", ints(&[100])));
            drop(pin);
            write(&db);
            let pin = db.snapshot();
            let before = rows_of(&pin, "F");
            assert!(db.append_rows("F", ints(&[101])));
            assert_eq!(db.append_paths().recycled, 0, "{what}");
            assert_eq!(db.append_paths().copied, 2, "{what}");
            // The append landed on what the write left, not on a copy
            // from before it.
            let mut expected = before;
            expected.extend(ints(&[101]));
            assert_eq!(rows_of(&db.snapshot(), "F"), expected, "{what}");
            let indexed = |state: &DbState| {
                let id = state.storage().rel_id("F").unwrap();
                state.storage().get_by_id(id).unwrap().indexes().len()
            };
            assert_eq!(indexed(&db.snapshot()), indexed(&pin), "{what}");
        }
    }

    #[test]
    fn deletes_take_the_same_three_arms_and_keep_the_retired_copy() {
        let db = SharedDb::new();
        db.insert_table("F", wide("F", "y", 20));
        assert!(db.create_index("F", &[Attr::parse("F.y")]));
        // Beside a reader, no retired copy yet: the table is cloned.
        let pin = db.snapshot();
        assert!(db.delete_rows("F", &ints(&[3, 4, 77])));
        assert_eq!(rows_of(&pin, "F").len(), 20, "the reader is undisturbed");
        drop(pin);
        // Beside a reader, the retired copy free again: it replays the
        // delete it missed, then takes this one.
        let pin = db.snapshot();
        assert!(db.delete_rows("F", &ints(&[0])));
        assert_eq!(rows_of(&pin, "F").len(), 18);
        drop(pin);
        // No reader: where the table stands. The retired copy now lags
        // by a delete and an append.
        assert!(db.delete_rows("F", &ints(&[19])));
        assert!(db.append_rows("F", ints(&[100, 3])));
        // The next pinned append still recycles it.
        let pin = db.snapshot();
        assert!(db.append_rows("F", ints(&[101])));
        drop(pin);
        assert_eq!(
            db.append_paths(),
            AppendPaths {
                in_place: 1,
                recycled: 1,
                copied: 0,
                deleted_in_place: 1,
                deleted_recycled: 1,
                deleted_copied: 1,
            }
        );
        let s = db.snapshot();
        let mut expected: Vec<Tuple> =
            ints(&(1..19).filter(|v| ![3, 4].contains(v)).collect::<Vec<_>>());
        expected.extend(ints(&[100, 3, 101]));
        assert_eq!(
            rows_of(&s, "F"),
            expected,
            "stored order as if written in place"
        );
        assert_eq!(s.catalog().table("F").unwrap().rows, 19);
        assert_eq!(s.catalog().distinct_of(&Attr::parse("F.y")), 19);
        // The index came through every arm, renumbered.
        let id = s.storage().rel_id("F").unwrap();
        let table = s.storage().get_by_id(id).unwrap();
        let (index, rows) = (&table.indexes()[0], table.relation().rows());
        assert_eq!(index.lookup(rows, &[Value::Int(101)]), [18]);
        assert_eq!(index.lookup(rows, &[Value::Int(5)]), [2]);
        assert!(index.lookup(rows, &[Value::Int(4)]).is_empty());
        // Deleting rows the table does not hold publishes nothing.
        let before = db.snapshot();
        assert!(db.delete_rows("F", &ints(&[4, 555])));
        assert!(!db.delete_rows("missing", &[]));
        drop(s);
        assert!(Arc::ptr_eq(&before, &db.snapshot()));
        assert_eq!(db.append_paths().deleted_copied, 1);
    }

    #[test]
    fn a_batch_larger_than_the_table_is_not_worth_a_retired_copy() {
        let db = SharedDb::new();
        db.insert_table("F", wide("F", "y", 2));
        for round in 0..2 {
            let pin = db.snapshot();
            let batch: Vec<i64> = (0..8).map(|v| 100 + round * 8 + v).collect();
            assert!(db.append_rows("F", ints(&batch)));
            drop(pin);
        }
        // Catching a 2-row copy up by 8 rows is no cheaper than
        // cloning, so the first append kept none; the second (8 rows
        // behind 10) did.
        assert_eq!(db.append_paths().copied, 2);
        let pin = db.snapshot();
        assert!(db.append_rows("F", ints(&[900])));
        assert_eq!(db.append_paths().recycled, 1);
        drop(pin);
        assert_eq!(rows_of(&db.snapshot(), "F").len(), 19);
    }

    #[test]
    fn a_pinned_append_of_known_rows_keeps_the_generation() {
        let db = SharedDb::new();
        db.insert_table("F", wide("F", "y", 20));
        let pin = db.snapshot();
        assert!(db.append_rows("F", ints(&[3, 4])));
        assert!(Arc::ptr_eq(&pin, &db.snapshot()), "nothing was published");
        assert_eq!(db.append_paths(), AppendPaths::default());
        // A row off the scheme is refused before anything is copied.
        assert!(!db.append_rows("F", vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])]));
        assert!(Arc::ptr_eq(&pin, &db.snapshot()));
        // The copy made to find that out is the next append's.
        assert!(db.append_rows("F", ints(&[100])));
        assert_eq!(db.append_paths().recycled, 1);
        assert_eq!(db.append_paths().copied, 0);
    }
}
