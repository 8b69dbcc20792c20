//! The optimizer's catalog: per-table cardinalities, per-attribute
//! distinct counts, available indexes, and selectivity estimation.
//!
//! The catalog owns an [`Interner`]: table names are interned exactly
//! once when a table is registered, and [`TableInfo`] records live in
//! a `Vec` dense by [`RelId`]. Statistics are stored by *column
//! offset*, so an id-keyed lookup (`Catalog::distinct_of_id`,
//! `Catalog::has_index_cols`) is pure array arithmetic. The name-keyed
//! API survives as a thin shim over the interner for construction-time
//! and display-time callers.

use super::plancache::{CacheStats, PlanCache};
use fro_algebra::{Attr, AttrId, CmpOp, Interner, KeySketch, Pred, RelId, Scalar, Schema};
use fro_exec::{Storage, Table};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How an equality selectivity counts the key values two joined columns
/// share ([`Catalog::eq_selectivity_as`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyOverlap {
    /// The overlap the two columns' key sketches measure (containment
    /// where a sketch is missing) — every plan choice but the reducer's.
    Measured,
    /// Containment, `m = min(d_a, d_b)`: the most keys two columns with
    /// these distinct counts can share, so the largest join output a
    /// uniform-key estimate allows. The semijoin reducer costs under it
    /// (see `reduce.rs`).
    Contained,
}

/// Statistics and physical metadata for one base table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// The table's scheme.
    pub schema: Arc<Schema>,
    /// Row count.
    pub rows: u64,
    /// Distinct-value counts per column (missing ⇒ assume `rows`).
    distinct: Vec<Option<u64>>,
    /// Key sketches per column, shared with the stored columns they
    /// were read from (missing ⇒ equality selectivity assumes
    /// containment).
    sketches: Vec<Option<Arc<KeySketch>>>,
    /// Column-offset sets with a hash index (each sorted).
    indexes: BTreeSet<Vec<u32>>,
}

impl TableInfo {
    fn new(schema: Arc<Schema>, rows: u64) -> TableInfo {
        let distinct = vec![None; schema.len()];
        let sketches = vec![None; schema.len()];
        TableInfo {
            schema,
            rows,
            distinct,
            sketches,
            indexes: BTreeSet::new(),
        }
    }

    /// Take row count, distinct counts and key sketches from the
    /// stored table — O(columns): all of it is metadata the columnar
    /// mirror already maintains.
    fn read_stats(&mut self, table: &Table) {
        self.rows = table.len() as u64;
        let columns = table.columns();
        for c in 0..self.schema.len().min(columns.width()) {
            let col = columns.column(c);
            self.distinct[c] = Some(col.distinct());
            self.sketches[c] = Some(Arc::clone(col.sketch()));
        }
    }

    /// Distinct count of an attribute (defaults to the row count,
    /// i.e. key-like).
    #[must_use]
    pub fn distinct_of(&self, a: &Attr) -> u64 {
        self.schema
            .index_of(a)
            .map_or_else(|| self.rows.max(1), |c| self.distinct_col(c))
    }

    /// Distinct count of a column offset (defaults to the row count).
    #[must_use]
    pub(crate) fn distinct_col(&self, col: usize) -> u64 {
        self.distinct
            .get(col)
            .copied()
            .flatten()
            .unwrap_or(self.rows.max(1))
    }

    /// Whether the attributes (in any order) carry an index.
    #[must_use]
    pub(crate) fn has_index(&self, attrs: &[Attr]) -> bool {
        let mut cols = Vec::with_capacity(attrs.len());
        for a in attrs {
            match self.schema.index_of(a) {
                Some(c) => cols.push(u32::try_from(c).expect("column offset fits in u32")),
                None => return false,
            }
        }
        cols.sort_unstable();
        self.indexes.contains(&cols)
    }

    /// Whether the column offsets (pre-sorted) carry an index.
    #[must_use]
    pub(crate) fn has_index_cols(&self, cols: &[u32]) -> bool {
        self.indexes.contains(cols)
    }
}

/// The optimizer catalog: an interner plus [`TableInfo`] records dense
/// by [`RelId`], an epoch counter that versions the statistics, and the
/// catalog-owned cross-query `PlanCache`.
///
/// Every statistics mutation ([`Catalog::add_table`],
/// [`Catalog::set_distinct`], [`Catalog::add_index`]) bumps the epoch;
/// cached plans remember the epoch they were costed under and are
/// evicted lazily when it no longer matches — a stats change silently
/// invalidates every plan without walking the cache.
///
/// [`Clone`] copies the plan cache, so the two catalogs may diverge
/// freely (epochs are only comparable along one lineage);
/// [`Catalog::next_generation`] is the clone that keeps sharing it.
#[derive(Debug, Default)]
pub struct Catalog {
    interner: Arc<Interner>,
    tables: Vec<TableInfo>,
    epoch: u64,
    /// Per-relation row-content versions, dense by [`RelId`]. Row
    /// appends/deletes bump only the touched relation's entry (see
    /// [`Catalog::bump_row_epoch`]), so plans and standing views over
    /// *other* relations stay valid — the catalog epoch is reserved
    /// for structural/statistics changes of global scope.
    row_epochs: Vec<u64>,
    plan_cache: Arc<PlanCache>,
}

impl Clone for Catalog {
    fn clone(&self) -> Catalog {
        Catalog {
            plan_cache: Arc::new(PlanCache::clone(&self.plan_cache)),
            ..self.next_generation()
        }
    }
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Exact statistics from in-memory storage (row counts, true
    /// distinct counts, key sketches, registered indexes).
    #[must_use]
    pub fn from_storage(storage: &Storage) -> Catalog {
        let mut cat = Catalog::new();
        for (name, table) in storage.iter() {
            let schema = table.relation().schema().clone();
            let id = cat.register(name, schema, table.len() as u64);
            let info = &mut cat.tables[id.index()];
            info.read_stats(table);
            for ix in table.indexes() {
                let cols: Vec<u32> = ix
                    .key_cols()
                    .iter()
                    .map(|&c| u32::try_from(c).expect("column offset fits in u32"))
                    .collect();
                // `key_cols` are already sorted by construction.
                info.indexes.insert(cols);
            }
        }
        cat
    }

    /// A copy that **shares** this catalog's plan cache — for a
    /// copy-on-write owner deriving the next generation of one lineage
    /// (`fro::SharedDb`): the copy replaces this catalog for new
    /// readers, while plans cached and counters bumped through either
    /// land in the one cache. Statistics are copied (O(#tables)); names
    /// are shared until one side registers a table.
    ///
    /// Never mutate both sides independently: an epoch identifies the
    /// statistics a cached plan was costed under only along a single
    /// line of descent. For catalogs that diverge, use [`Clone`].
    #[must_use]
    pub fn next_generation(&self) -> Catalog {
        Catalog {
            interner: Arc::clone(&self.interner),
            tables: self.tables.clone(),
            epoch: self.epoch,
            row_epochs: self.row_epochs.clone(),
            plan_cache: Arc::clone(&self.plan_cache),
        }
    }

    /// Register a table by hand (for synthetic what-if experiments).
    /// Re-registering a name replaces its statistics and indexes.
    pub fn add_table(&mut self, name: impl Into<String>, schema: Arc<Schema>, rows: u64) {
        let name = name.into();
        self.register(&name, schema, rows);
    }

    fn register(&mut self, name: &str, schema: Arc<Schema>, rows: u64) -> RelId {
        let id = Arc::make_mut(&mut self.interner).register_relation(name, &schema);
        let info = TableInfo::new(schema, rows);
        if id.index() == self.tables.len() {
            self.tables.push(info);
            self.row_epochs.push(0);
        } else {
            self.tables[id.index()] = info;
        }
        self.epoch += 1;
        id
    }

    /// Refresh a registered table's row count, distinct counts and key
    /// sketches from its stored form *quietly* (no epoch bump; pair
    /// with [`Catalog::bump_row_epoch`]). O(columns): the sketches are
    /// shared, not copied. Returns `false` when the table is unknown.
    pub fn read_table_stats_quiet(&mut self, name: &str, table: &Table) -> bool {
        match self.table_mut(name) {
            Some(t) => {
                t.read_stats(table);
                true
            }
            None => false,
        }
    }

    /// Bump one relation's row-content version: its rows changed but
    /// the catalog's structure did not. Plans are invalidated at
    /// per-relation granularity through `Catalog::epoch_for_rels`.
    pub fn bump_row_epoch(&mut self, name: &str) {
        if let Some(id) = self.interner.rel_id(name) {
            if let Some(e) = self.row_epochs.get_mut(id.index()) {
                *e += 1;
            }
        }
    }

    /// The row-content version of one relation (0 when unknown).
    #[must_use]
    pub fn row_epoch(&self, id: RelId) -> u64 {
        self.row_epochs.get(id.index()).copied().unwrap_or(0)
    }

    /// The *effective* epoch for a plan reading exactly `rels`: the
    /// catalog epoch plus the row-content versions of those relations.
    /// Monotone per relation set, so a cached plan keyed under it is
    /// invalidated by any structural change (epoch) or by a row change
    /// to a relation it actually reads — and by nothing else.
    #[must_use]
    pub(crate) fn epoch_for_rels(&self, rels: impl IntoIterator<Item = RelId>) -> u64 {
        let mut e = self.epoch;
        for id in rels {
            e += self.row_epoch(id);
        }
        e
    }

    /// [`Catalog::epoch_for_rels`] over the relations of a query graph
    /// — the epoch the optimizer keys this graph's cached plans under.
    #[must_use]
    pub(crate) fn epoch_for_graph(&self, g: &fro_graph::QueryGraph) -> u64 {
        self.epoch_for_rels((0..g.n_nodes()).filter_map(|i| self.rel_id(g.node_name(i))))
    }

    /// Set a distinct count (ignored when the table or attribute is
    /// unknown).
    pub fn set_distinct(&mut self, attr: &Attr, distinct: u64) {
        let mut changed = false;
        if let Some(t) = self.table_mut(attr.rel()) {
            if let Some(c) = t.schema.index_of(attr) {
                t.distinct[c] = Some(distinct);
                changed = true;
            }
        }
        if changed {
            self.epoch += 1;
        }
    }

    /// Declare an index (ignored when the table is unknown or any
    /// attribute is missing from its scheme).
    pub fn add_index(&mut self, rel: &str, attrs: &[Attr]) {
        let Some(t) = self.table_mut(rel) else {
            return;
        };
        let mut cols = Vec::with_capacity(attrs.len());
        for a in attrs {
            match t.schema.index_of(a) {
                Some(c) => cols.push(u32::try_from(c).expect("column offset fits in u32")),
                None => return,
            }
        }
        cols.sort_unstable();
        t.indexes.insert(cols);
        self.epoch += 1;
    }

    /// The statistics epoch: incremented by every mutation. Plans
    /// cached under an older epoch are stale.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The catalog-owned cross-query plan cache.
    #[must_use]
    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Cumulative plan-cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Drop every cached plan (statistics and epoch are untouched).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// The interner owning this catalog's name ↔ id mapping.
    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Resolve a table name to its dense id.
    #[must_use]
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.interner.rel_id(name)
    }

    /// Resolve an attribute to its dense id.
    #[must_use]
    pub fn attr_id(&self, attr: &Attr) -> Option<AttrId> {
        self.interner.attr_id(attr)
    }

    /// Look up a table by name (shim over the interner).
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.rel_id(name).and_then(|id| self.table_by_id(id))
    }

    fn table_mut(&mut self, name: &str) -> Option<&mut TableInfo> {
        let id = self.interner.rel_id(name)?;
        self.tables.get_mut(id.index())
    }

    /// Look up a table by dense id — one bounds-checked array read.
    #[must_use]
    pub(crate) fn table_by_id(&self, id: RelId) -> Option<&TableInfo> {
        self.tables.get(id.index())
    }

    /// All attributes of the given ground relations, in catalog order.
    #[must_use]
    pub(crate) fn attrs_of_rels<'a>(
        &self,
        rels: impl IntoIterator<Item = &'a String>,
    ) -> Vec<Attr> {
        let mut out = Vec::new();
        for r in rels {
            if let Some(t) = self.table(r) {
                out.extend(t.schema.attrs().iter().cloned());
            }
        }
        out
    }

    /// Distinct count for an attribute (row count of its table when
    /// unknown; 1000 when even the table is unknown).
    #[must_use]
    pub fn distinct_of(&self, a: &Attr) -> u64 {
        self.table(a.rel()).map_or(1000, |t| t.distinct_of(a))
    }

    /// Distinct count for an interned attribute: two array reads via
    /// its precomputed `(relation, column)` resolution.
    #[must_use]
    pub(crate) fn distinct_of_id(&self, id: AttrId) -> u64 {
        let rel = self.interner.attr_rel(id);
        let col = self.interner.attr_col(id) as usize;
        self.table_by_id(rel).map_or(1000, |t| t.distinct_col(col))
    }

    /// The key sketch of an interned attribute's column, when the
    /// catalog was given one (tables read from storage; not hand-built
    /// ones).
    fn sketch_of_id(&self, id: AttrId) -> Option<&Arc<KeySketch>> {
        let t = self.table_by_id(self.interner.attr_rel(id))?;
        t.sketches
            .get(self.interner.attr_col(id) as usize)?
            .as_ref()
    }

    /// Selectivity of the equi-join conjunct `a = b`: `m / (d_a·d_b)`,
    /// where `m` is the number of key values the two columns share.
    /// With both key sketches, `m` is the overlap they measure
    /// ([`KeySketch::matching`]), so independently drawn keys are not
    /// assumed to nest; without them `m = min(d_a, d_b)` — the
    /// containment assumption, i.e. `1 / max(d_a, d_b)`. Every
    /// equality-selectivity estimate (join enumeration, plan costing,
    /// [`Catalog::selectivity`]) goes through here.
    #[must_use]
    pub fn eq_selectivity(&self, a: &Attr, b: &Attr) -> f64 {
        self.eq_selectivity_as(a, b, KeyOverlap::Measured)
    }

    /// [`Catalog::eq_selectivity`], or — under
    /// [`KeyOverlap::Contained`] — its containment bound, ignoring the
    /// sketches.
    pub(crate) fn eq_selectivity_as(&self, a: &Attr, b: &Attr, overlap: KeyOverlap) -> f64 {
        let ids = self.attr_id(a).zip(self.attr_id(b));
        let (da, db) = match ids {
            Some((ia, ib)) => (self.distinct_of_id(ia), self.distinct_of_id(ib)),
            None => (self.distinct_of(a), self.distinct_of(b)),
        };
        let (da, db) = (da.max(1) as f64, db.max(1) as f64);
        let sketches = match (overlap, ids) {
            (KeyOverlap::Measured, Some((ia, ib))) => {
                self.sketch_of_id(ia).zip(self.sketch_of_id(ib))
            }
            _ => None,
        };
        let m = sketches.map_or(da.min(db), |(sa, sb)| {
            KeySketch::matching(sa.jaccard(sb), da, db)
        });
        m / (da * db)
    }

    /// Row count of a table (1000 when unknown).
    #[must_use]
    pub fn rows_of(&self, rel: &str) -> u64 {
        self.table(rel).map_or(1000, |t| t.rows)
    }

    /// Whether a table carries an index on exactly the given column
    /// offsets (pre-sorted).
    #[must_use]
    pub(crate) fn has_index_cols(&self, id: RelId, cols: &[u32]) -> bool {
        self.table_by_id(id).is_some_and(|t| t.has_index_cols(cols))
    }

    /// Independence-assumption selectivity of a predicate: equality
    /// between attributes `a = b` contributes
    /// [`Catalog::eq_selectivity`],
    /// other attribute comparisons 1/3, literal equality `1 / d(a)`,
    /// literal inequalities 1/3, `IS NULL` 1/10; conjuncts multiply,
    /// disjuncts add (capped), negation complements.
    #[must_use]
    pub fn selectivity(&self, pred: &Pred) -> f64 {
        match pred {
            Pred::Cmp { op, lhs, rhs } => match (lhs, rhs) {
                (Scalar::Attr(a), Scalar::Attr(b)) => match op {
                    CmpOp::Eq => self.eq_selectivity(a, b),
                    CmpOp::Ne => 1.0,
                    _ => 1.0 / 3.0,
                },
                (Scalar::Attr(a), Scalar::Lit(_)) | (Scalar::Lit(_), Scalar::Attr(a)) => match op {
                    CmpOp::Eq => 1.0 / (self.distinct_of(a).max(1) as f64),
                    CmpOp::Ne => 0.9,
                    _ => 1.0 / 3.0,
                },
                (Scalar::Lit(_), Scalar::Lit(_)) => 1.0,
            },
            Pred::IsNull(_) => 0.1,
            Pred::And(a, b) => self.selectivity(a) * self.selectivity(b),
            Pred::Or(a, b) => (self.selectivity(a) + self.selectivity(b)).min(1.0),
            Pred::Not(p) => (1.0 - self.selectivity(p)).max(0.0),
            Pred::Const(t) => {
                if t.is_true() {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Relation;

    fn storage() -> Storage {
        let mut s = Storage::new();
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "v"], &[&[1, 10], &[2, 10], &[3, 20]]),
        );
        s.create_index("R", &[Attr::parse("R.k")]);
        s
    }

    /// Refresh one table's row count without bumping the epoch.
    fn set_rows_quiet(cat: &mut Catalog, name: &str, rows: u64) -> bool {
        match cat.table_mut(name) {
            Some(t) => {
                t.rows = rows;
                true
            }
            None => false,
        }
    }

    #[test]
    fn from_storage_captures_stats() {
        let cat = Catalog::from_storage(&storage());
        let t = cat.table("R").unwrap();
        assert_eq!(t.rows, 3);
        assert_eq!(t.distinct_of(&Attr::parse("R.k")), 3);
        assert_eq!(t.distinct_of(&Attr::parse("R.v")), 2);
        assert!(t.has_index(&[Attr::parse("R.k")]));
        assert!(!t.has_index(&[Attr::parse("R.v")]));
    }

    #[test]
    fn id_keyed_lookups_agree_with_names() {
        let cat = Catalog::from_storage(&storage());
        let rid = cat.rel_id("R").unwrap();
        for a in ["R.k", "R.v"] {
            let attr = Attr::parse(a);
            let aid = cat.attr_id(&attr).unwrap();
            assert_eq!(cat.distinct_of_id(aid), cat.distinct_of(&attr));
            assert_eq!(cat.interner().attr_rel(aid), rid);
        }
        assert!(cat.has_index_cols(rid, &[0]));
        assert!(!cat.has_index_cols(rid, &[1]));
        assert_eq!(cat.rel_id("missing"), None);
    }

    #[test]
    fn selectivity_equality_uses_measured_overlap() {
        let cat = Catalog::from_storage(&storage());
        // R.k ∈ {1,2,3} and R.v ∈ {10,20} share no value: the sketches
        // measure that, so the matching-key count clamps to 1 and the
        // estimate is 1/(3·2), not containment's 1/max(3, 2).
        let p = Pred::eq_attr("R.k", "R.v");
        let s = cat.selectivity(&p);
        assert!((s - 1.0 / 6.0).abs() < 1e-9);
        assert_eq!(
            s,
            cat.eq_selectivity(&Attr::parse("R.k"), &Attr::parse("R.v"))
        );
        // A column against itself overlaps fully: 1/d.
        let k = Attr::parse("R.k");
        assert!((cat.eq_selectivity(&k, &k) - 1.0 / 3.0).abs() < 1e-9);
        // A hand-built catalog has no sketches and assumes containment.
        let mut hand = Catalog::new();
        hand.add_table("R", Arc::new(Schema::of_relation("R", &["k", "v"])), 3);
        hand.set_distinct(&Attr::parse("R.k"), 3);
        hand.set_distinct(&Attr::parse("R.v"), 2);
        assert!((hand.selectivity(&p) - 1.0 / 3.0).abs() < 1e-9);
        let lit = Pred::cmp_lit("R.v", CmpOp::Eq, 10);
        assert!((cat.selectivity(&lit) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn selectivity_boolean_combinators() {
        let cat = Catalog::from_storage(&storage());
        let p = Pred::cmp_lit("R.k", CmpOp::Eq, 1);
        let and = p.clone().and(p.clone());
        assert!(cat.selectivity(&and) < cat.selectivity(&p));
        let or = p.clone().or(p.clone());
        assert!(cat.selectivity(&or) > cat.selectivity(&p));
        let not = p.clone().not();
        assert!((cat.selectivity(&not) + cat.selectivity(&p) - 1.0).abs() < 1e-9);
        assert!((cat.selectivity(&Pred::always()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_tables_get_defaults() {
        let cat = Catalog::new();
        assert_eq!(cat.rows_of("missing"), 1000);
        assert_eq!(cat.distinct_of(&Attr::parse("missing.a")), 1000);
    }

    #[test]
    fn manual_catalog_construction() {
        let mut cat = Catalog::new();
        let schema = Arc::new(Schema::of_relation("T", &["id"]));
        cat.add_table("T", schema, 1_000_000);
        cat.set_distinct(&Attr::parse("T.id"), 1_000_000);
        cat.add_index("T", &[Attr::parse("T.id")]);
        assert_eq!(cat.rows_of("T"), 1_000_000);
        assert!(cat.table("T").unwrap().has_index(&[Attr::parse("T.id")]));
        let attrs = cat.attrs_of_rels(&["T".to_owned()]);
        assert_eq!(attrs.len(), 1);
    }

    #[test]
    fn epoch_bumps_on_every_stats_mutation() {
        let mut cat = Catalog::new();
        let e0 = cat.epoch();
        cat.add_table("T", Arc::new(Schema::of_relation("T", &["id"])), 10);
        let e1 = cat.epoch();
        assert!(e1 > e0);
        cat.set_distinct(&Attr::parse("T.id"), 10);
        let e2 = cat.epoch();
        assert!(e2 > e1);
        cat.add_index("T", &[Attr::parse("T.id")]);
        let e3 = cat.epoch();
        assert!(e3 > e2);
        // No-op mutations (unknown table/attr) leave the epoch alone.
        cat.set_distinct(&Attr::parse("missing.x"), 1);
        cat.add_index("missing", &[Attr::parse("missing.x")]);
        cat.set_distinct(&Attr::parse("T.nope"), 1);
        cat.add_index("T", &[Attr::parse("T.nope")]);
        assert_eq!(cat.epoch(), e3);
    }

    #[test]
    fn row_epochs_are_per_relation_and_quiet() {
        let mut cat = Catalog::new();
        cat.add_table("R", Arc::new(Schema::of_relation("R", &["k"])), 10);
        cat.add_table("S", Arc::new(Schema::of_relation("S", &["k"])), 10);
        let e = cat.epoch();
        let r = cat.rel_id("R").unwrap();
        let s = cat.rel_id("S").unwrap();
        // Quiet stats refresh + row-epoch bump: catalog epoch untouched.
        assert!(set_rows_quiet(&mut cat, "R", 12));
        cat.bump_row_epoch("R");
        assert_eq!(cat.epoch(), e, "row changes never bump the epoch");
        assert_eq!(cat.rows_of("R"), 12);
        assert_eq!(cat.row_epoch(r), 1);
        assert_eq!(cat.row_epoch(s), 0);
        // Effective epochs move only for sets containing R.
        assert_eq!(cat.epoch_for_rels([s]), e);
        assert_eq!(cat.epoch_for_rels([r]), e + 1);
        assert_eq!(cat.epoch_for_rels([r, s]), e + 1);
        // Unknown names are no-ops.
        assert!(!set_rows_quiet(&mut cat, "missing", 1));
        cat.bump_row_epoch("missing");
        assert_eq!(cat.epoch(), e);
    }

    #[test]
    fn next_generation_shares_the_plan_cache_and_clone_does_not() {
        let cat = Catalog::from_storage(&storage());
        let q = fro_algebra::Query::rel("R");
        let plan = |c: &Catalog| crate::optimize(&q, c, crate::Policy::Paper).unwrap();

        let mut next = cat.next_generation();
        let lookups = |s: CacheStats| s.hits + s.misses;
        let before = lookups(cat.cache_stats());
        let _ = plan(&next);
        assert!(
            lookups(cat.cache_stats()) > before,
            "one cache, two handles"
        );
        assert_eq!(cat.cache_stats(), next.cache_stats());
        // Statistics and names are the successor's own.
        next.add_table("S", Arc::new(Schema::of_relation("S", &["k"])), 5);
        assert!(cat.table("S").is_none() && cat.rel_id("S").is_none());
        assert!(next.epoch() > cat.epoch());

        // A clone may diverge: same epoch number, different statistics,
        // so it must not see (or feed) the original's cache.
        let mut fork = cat.clone();
        set_rows_quiet(&mut fork, "R", 1_000_000);
        let shared_before = cat.cache_stats();
        let _ = plan(&fork);
        assert_eq!(cat.cache_stats(), shared_before);
        assert!(lookups(fork.cache_stats()) > lookups(shared_before));
    }

    #[test]
    fn reregistration_replaces_stats_under_same_id() {
        let mut cat = Catalog::new();
        cat.add_table("T", Arc::new(Schema::of_relation("T", &["id"])), 10);
        cat.add_index("T", &[Attr::parse("T.id")]);
        let id = cat.rel_id("T").unwrap();
        cat.add_table("T", Arc::new(Schema::of_relation("T", &["id"])), 20);
        assert_eq!(cat.rel_id("T"), Some(id));
        assert_eq!(cat.rows_of("T"), 20);
        // Indexes do not survive re-registration.
        assert!(!cat.table("T").unwrap().has_index(&[Attr::parse("T.id")]));
    }
}
