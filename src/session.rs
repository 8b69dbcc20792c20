//! The unified front door: a [`Session`] is a cheap per-connection
//! handle over an [`Arc`]-shared [`SharedDb`] (catalog + storage +
//! cross-query plan cache), carrying only an optional entity model and
//! its own counters. Handles clone freely, move across threads, and
//! all observe the same data: one connection's warm plan is every
//! connection's warm plan.
//!
//! Two entry points produce a [`Prepared`] statement:
//!
//! * [`Session::query`] — §5 UnNest/Link source text, for sessions
//!   built over an [`EntityDb`];
//! * [`Session::prepare`] — an algebra [`Query`] over tables loaded
//!   with [`Session::insert_table`] / [`Session::from_storage`].
//!
//! Both canonicalize the query graph once, as the query enters, and
//! optimize it against a consistent [`DbState`] snapshot: the plan is a
//! function of the graph and the statistics alone, the cost-based
//! optimizer consults the shared plan cache (repeating a query — or an
//! alpha-equivalent one — skips enumeration entirely),
//! and any statistics change bumps the catalog epoch so stale plans
//! are never served. [`Prepared`] owns its snapshot, so it keeps
//! running correctly even while other connections mutate the database.
//! [`Prepared::explain`] surfaces the cache counters;
//! [`Prepared::run`] executes against the snapshot's storage
//! ([`fro_exec::execute`]).

use crate::error::FroError;
use crate::shared::{insert_with_stats, DbState, SharedDb};
use crate::standing::{Registered, StandingCounters, StandingId};
use fro_algebra::{Attr, Query, Relation, Tuple};
use fro_core::optimizer::{
    optimize_graph, optimize_with_reduce, place_restriction, CacheStats, Optimized,
};
use fro_core::{Analysis, Catalog, Policy, ReducePolicy};
use fro_exec::{execute, ExecStats, PhysPlan, Storage};
use fro_lang::{parse, translate, EntityDb};
use std::cell::Cell;
use std::sync::Arc;

/// The strongness policy algebra queries are analyzed under: the one
/// admitting the most queries. Every policy makes Theorem 1 hold; the
/// policy decides only whether the DP runs, never what it returns.
const POLICY: Policy = Policy::MinimalChain;

/// The semijoin-reduction policy: reduce where the cost model says it
/// pays. Reduction only removes rows that could never reach the output.
const REDUCE_POLICY: ReducePolicy = ReducePolicy::Auto;

/// A query session: a per-connection handle over shared database
/// state, plus this connection's entity model and counters.
#[derive(Debug, Clone, Default)]
pub struct Session {
    db: Arc<SharedDb>,
    edb: Option<EntityDb>,
    local: Cell<CacheStats>,
    local_maint: Cell<ExecStats>,
}

impl Session {
    /// A session over its own fresh database. For
    /// multiple sessions over one database, build a [`SharedDb`] and
    /// call [`SharedDb::session`] (or [`Session::connect`]) per
    /// connection.
    #[must_use]
    pub fn new() -> Session {
        Session::default()
    }

    /// A session over existing storage; the catalog is derived with
    /// exact statistics ([`Catalog::from_storage`]).
    #[must_use]
    pub fn from_storage(storage: Storage) -> Session {
        Session {
            db: SharedDb::from_storage(storage),
            ..Session::default()
        }
    }

    /// A session over an entity model, enabling [`Session::query`].
    #[must_use]
    pub fn from_entity_db(edb: EntityDb) -> Session {
        Session {
            edb: Some(edb),
            ..Session::default()
        }
    }

    /// A new handle over an existing shared database. Handles are
    /// cheap (an `Arc` clone) and carry their own counters.
    #[must_use]
    pub fn connect(db: &Arc<SharedDb>) -> Session {
        Session {
            db: Arc::clone(db),
            ..Session::default()
        }
    }

    /// Attach an entity model (builder style), enabling
    /// [`Session::query`].
    #[must_use]
    pub fn with_entity_db(mut self, edb: EntityDb) -> Session {
        self.edb = Some(edb);
        self
    }

    /// The shared database behind this session — connect further
    /// sessions with [`SharedDb::session`], or mutate it directly.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedDb> {
        &self.db
    }

    /// The current catalog generation (statistics, epoch, plan cache).
    /// The returned guard dereferences to [`Catalog`] and pins a
    /// consistent snapshot: concurrent mutations don't alter it.
    #[must_use]
    pub fn catalog(&self) -> CatalogRef {
        CatalogRef {
            state: self.db.snapshot(),
        }
    }

    /// The current storage generation. Same snapshot semantics as
    /// [`Session::catalog`].
    #[must_use]
    pub fn storage(&self) -> StorageRef {
        StorageRef {
            state: self.db.snapshot(),
        }
    }

    /// The reordering policy every session analyzes algebra queries
    /// under (a product constant).
    #[must_use]
    pub fn policy(&self) -> Policy {
        POLICY
    }

    /// The semijoin-reduction policy every session plans under (a
    /// product constant).
    #[must_use]
    pub fn reduce_policy(&self) -> ReducePolicy {
        REDUCE_POLICY
    }

    /// Cumulative plan-cache counters of the shared cache (all
    /// sessions). For this handle's share, see
    /// [`Session::local_cache_stats`].
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.db.snapshot().catalog().cache_stats()
    }

    /// Plan-cache counters accumulated by this session handle alone.
    /// Across concurrent sessions over one [`SharedDb`], the per-handle
    /// counters sum to the shared cache's cumulative totals.
    #[must_use]
    pub fn local_cache_stats(&self) -> CacheStats {
        self.local.get()
    }

    fn absorb(&self, stats: &CacheStats) {
        let mut local = self.local.get();
        local.merge(stats);
        self.local.set(local);
    }

    fn absorb_maint(&self, stats: &ExecStats) {
        let mut local = self.local_maint.get();
        local.merge(stats);
        self.local_maint.set(local);
    }

    /// Load (or replace) a table: stores the relation and registers
    /// exact statistics — row count and per-column distinct counts —
    /// in the catalog, bumping the epoch. Visible to every session on
    /// the shared database.
    pub fn insert_table(&self, name: impl Into<String>, rel: Relation) {
        self.db.insert_table(name, rel);
    }

    /// Append rows to an existing table (set semantics absorb
    /// duplicates), refreshing its statistics. Returns `false` when
    /// the table is unknown or a row doesn't fit the scheme.
    ///
    /// Appends bump only the relation's row epoch (not the catalog
    /// epoch) and fold into every standing view on the relation
    /// incrementally; the maintenance work is attributed to this
    /// handle ([`Session::local_maintenance_stats`]).
    pub fn append_rows(&self, name: &str, rows: Vec<Tuple>) -> bool {
        let (ok, stats) = self.db.append_rows_traced(name, rows);
        self.absorb_maint(&stats);
        ok
    }

    /// Delete rows from an existing table (absent rows are ignored),
    /// refreshing its statistics. Returns `false` when the table is
    /// unknown. Standing views retract the rows incrementally — an
    /// outerjoin view re-emits its null-padded row when a preserved
    /// row's last match dies.
    pub fn delete_rows(&self, name: &str, rows: &[Tuple]) -> bool {
        let (ok, stats) = self.db.delete_rows_traced(name, rows);
        self.absorb_maint(&stats);
        ok
    }

    /// Build a hash index on `rel(attrs…)` in storage and declare it
    /// to the catalog. Returns `false` (doing nothing) when the table
    /// or an attribute is unknown.
    pub fn create_index(&self, rel: &str, attrs: &[Attr]) -> bool {
        self.db.create_index(rel, attrs)
    }

    /// Override a column's distinct count (what-if statistics
    /// experiments). Bumps the catalog epoch, so cached plans costed
    /// under the old statistics are invalidated automatically.
    pub fn set_distinct(&self, attr: &Attr, distinct: u64) {
        self.db.set_distinct(attr, distinct);
    }

    /// Optimize an algebra query against the current catalog
    /// generation.
    ///
    /// The optimizer consults the shared plan cache first: preparing
    /// the same (or an alpha-equivalent) query again on an unchanged
    /// catalog — from *any* session — returns the cached plan with
    /// zero enumeration.
    ///
    /// # Errors
    /// [`FroError::Opt`] when the query is disconnected or uses an
    /// operator the engine cannot run.
    pub fn prepare(&self, q: &Query) -> Result<Prepared, FroError> {
        let state = self.db.snapshot();
        let optimized = optimize_with_reduce(q, state.catalog(), POLICY, REDUCE_POLICY)?;
        self.absorb(&optimized.cache);
        Ok(Prepared { state, optimized })
    }

    /// Parse, translate and optimize a §5 UnNest/Link query block.
    ///
    /// The block's ground relations (bases and derived) are the entity
    /// model's own, built once and shared; they are synced into the
    /// shared database only when what is stored differs, so repeating a
    /// query keeps the epoch — and with it the plan cache — warm across
    /// every session. The join tree is planned (and cached) without the
    /// Where-List restrictions; each is then placed on the scan of the
    /// base alias it reads ([`place_restriction`], §4), so a point query
    /// starts from its restricted base and follows identifiers — the
    /// same rows the reference evaluator gets by filtering on top.
    ///
    /// # Errors
    /// [`FroError::NoEntityModel`] without an entity model;
    /// [`FroError::Lang`] for parse/translation failures;
    /// [`FroError::Opt`] from the optimizer.
    pub fn query(&self, src: &str) -> Result<Prepared, FroError> {
        let (state, optimized) = self.optimize_src(src)?;
        Ok(Prepared { state, optimized })
    }

    /// Parse/translate/optimize a §5 block, then place each Where-List
    /// restriction where §4 allows it to sit lowest — equivalent to the
    /// reference evaluator's `plan_query`, which filters on top. The
    /// plan cache sees only the unrestricted graph, so alpha-equivalent
    /// phrasings and different literals share one entry. Shared by
    /// [`Session::query`] and [`Session::register_standing_src`].
    fn optimize_src(&self, src: &str) -> Result<(Arc<DbState>, Optimized), FroError> {
        let edb = self.edb.as_ref().ok_or(FroError::NoEntityModel)?;
        let block = parse(src)?;
        let t = translate(&block, edb)?;
        let state = self.sync_tables(&t.database);
        // Translate keeps its own numbering; the optimizer plans the
        // canonical graph, under translate's analysis.
        let analysis = Analysis {
            graph: Some(t.graph.canonical()),
            ..t.analysis
        };
        let optimized = optimize_graph(analysis, state.catalog(), REDUCE_POLICY)?;
        self.absorb(&optimized.cache);
        let Optimized {
            plan,
            est_cost,
            mut est_rows,
            analysis,
            reordered,
            pairs_examined,
            cache,
            reduction,
        } = optimized;
        let plan = t.restrictions.iter().fold(plan, place_restriction);
        for r in &t.restrictions {
            est_rows *= state.catalog().selectivity(r);
        }
        Ok((
            state,
            Optimized {
                plan,
                est_cost,
                est_rows,
                analysis,
                reordered,
                pairs_examined,
                cache,
                reduction,
            },
        ))
    }

    /// Register an algebra query as a **standing view**: plan it once
    /// (through the shared plan cache), materialize the result and the
    /// per-join state deltas need, and keep it maintained under every
    /// [`Session::append_rows`] / [`Session::delete_rows`] on its base
    /// relations. Registering an alpha-equivalent query — from *any*
    /// session over this database — returns the **same** view
    /// ([`Registered::shared`]): one materialization, another
    /// subscriber, exactly the sharing Theorem 1 licenses.
    ///
    /// # Errors
    /// [`FroError::Opt`] when the optimizer rejects the query;
    /// [`FroError::Exec`] when the initial materialization fails.
    pub fn register_standing(&self, q: &Query) -> Result<Registered, FroError> {
        let state = self.db.snapshot();
        let optimized = optimize_with_reduce(q, state.catalog(), POLICY, REDUCE_POLICY)?;
        self.absorb(&optimized.cache);
        let (reg, stats) = self.db.register_standing_with(&optimized)?;
        self.absorb_maint(&stats);
        Ok(reg)
    }

    /// Register a §5 UnNest/Link query block as a standing view (the
    /// text-protocol twin of [`Session::register_standing`]; the
    /// server's `Register` frame lands here).
    ///
    /// # Errors
    /// [`FroError::NoEntityModel`] without an entity model;
    /// [`FroError::Lang`] for parse/translation failures;
    /// [`FroError::Opt`] / [`FroError::Exec`] from planning and
    /// materialization.
    pub fn register_standing_src(&self, src: &str) -> Result<Registered, FroError> {
        let (_state, optimized) = self.optimize_src(src)?;
        let (reg, stats) = self.db.register_standing_with(&optimized)?;
        self.absorb_maint(&stats);
        Ok(reg)
    }

    /// Serve a standing view's current result in canonical row order,
    /// with the work counters of *this* poll (all zero on the
    /// steady-state fast path; a full refresh shows up as
    /// `views_refreshed = 1` plus the re-execution's engine counters).
    ///
    /// # Errors
    /// [`FroError::UnknownStanding`] for an id this database never
    /// issued; [`FroError::Exec`] when a refresh fails.
    pub fn poll_standing(&self, id: StandingId) -> Result<(Relation, ExecStats), FroError> {
        let (rel, stats) = self.db.poll_standing(id)?;
        self.absorb_maint(&stats);
        Ok((rel, stats))
    }

    /// Cumulative standing-query registry counters (all sessions).
    #[must_use]
    pub fn standing_counters(&self) -> StandingCounters {
        self.db.standing_counters()
    }

    /// Cumulative view-maintenance work across all sessions
    /// ([`SharedDb::maintenance_stats`]).
    #[must_use]
    pub fn maintenance_stats(&self) -> ExecStats {
        self.db.maintenance_stats()
    }

    /// View-maintenance work attributed to this handle alone
    /// (registrations, polls and mutations it issued). Across
    /// concurrent sessions over one [`SharedDb`] these sum to
    /// [`Session::maintenance_stats`], like the plan-cache counters.
    #[must_use]
    pub fn local_maintenance_stats(&self) -> ExecStats {
        self.local_maint.get()
    }

    /// Sync a translated block's relations into the shared database,
    /// mutating only when some relation's stored content differs —
    /// an untouched database keeps its epoch, so the plan cache stays
    /// warm across repeated queries from any session. Returns the
    /// generation to plan against.
    ///
    /// Storage keeps the relation it is given and the model hands out
    /// the same rows every time, so for a table nobody wrote since it
    /// was loaded the comparison is a scheme and a pointer; only a table
    /// someone appended to, or one loaded from a different model, is
    /// compared row by row (and then replaced).
    ///
    /// A table loaded here gets a hash index on its object identifier —
    /// `@id` of a base relation, `@owner` of an unnest relation: the
    /// column every `NestedIn`/`LinkedTo` outerjoin predicate equates,
    /// so the optimizer can cost probing it against building a hash
    /// table over the whole relation.
    fn sync_tables(&self, db: &fro_algebra::Database) -> Arc<DbState> {
        let state = self.db.snapshot();
        let synced = db.iter().all(|(name, rel)| {
            state
                .storage()
                .rel_id(name)
                .and_then(|id| state.storage().get_by_id(id))
                .is_some_and(|table| table.relation() == rel)
        });
        if synced {
            return state;
        }
        self.db.mutate(|catalog, storage| {
            for (name, rel) in db.iter() {
                let stored = storage
                    .rel_id(name)
                    .and_then(|id| storage.get_by_id(id))
                    .is_some_and(|table| table.relation() == rel);
                if !stored {
                    insert_with_stats(catalog, storage, name, rel.clone());
                    let mut attrs = rel.schema().attrs().iter();
                    if let Some(identifier) = attrs.find(|a| matches!(a.name(), "@id" | "@owner")) {
                        let key = [identifier.clone()];
                        if storage.create_index(name, &key) {
                            catalog.add_index(name, &key);
                        }
                    }
                }
            }
        });
        self.db.snapshot()
    }
}

/// A pinned catalog generation, returned by [`Session::catalog`].
/// Dereferences to [`Catalog`].
#[derive(Debug)]
pub struct CatalogRef {
    state: Arc<DbState>,
}

impl std::ops::Deref for CatalogRef {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        self.state.catalog()
    }
}

/// A pinned storage generation, returned by [`Session::storage`].
/// Dereferences to [`Storage`].
#[derive(Debug)]
pub struct StorageRef {
    state: Arc<DbState>,
}

impl std::ops::Deref for StorageRef {
    type Target = Storage;
    fn deref(&self) -> &Storage {
        self.state.storage()
    }
}

/// An optimized statement bound to the database generation it was
/// planned against, ready to run. Owning its snapshot, it stays valid
/// — and its results stay consistent with its plan — even while other
/// sessions mutate the shared database.
#[derive(Debug)]
pub struct Prepared {
    state: Arc<DbState>,
    optimized: Optimized,
}

impl Prepared {
    /// The optimizer's full outcome (plan, estimates, analysis,
    /// cache counters).
    #[must_use]
    pub fn optimized(&self) -> &Optimized {
        &self.optimized
    }

    /// The chosen physical plan.
    #[must_use]
    pub fn plan(&self) -> &PhysPlan {
        &self.optimized.plan
    }

    /// EXPLAIN: plan tree, cost estimates, reordering verdict, and
    /// plan-cache counters for this optimization.
    #[must_use]
    pub fn explain(&self) -> String {
        self.optimized.explain()
    }

    /// Execute against the snapshot this statement was planned on.
    ///
    /// # Errors
    /// [`FroError::Exec`] on engine failures.
    pub fn run(&self) -> Result<Relation, FroError> {
        Ok(self.run_with_stats()?.0)
    }

    /// Execute, additionally returning the engine's work counters.
    ///
    /// # Errors
    /// [`FroError::Exec`] on engine failures.
    pub fn run_with_stats(&self) -> Result<(Relation, ExecStats), FroError> {
        let mut stats = ExecStats::new();
        let out = execute(&self.optimized.plan, self.state.storage(), &mut stats)?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Pred, Value};
    use fro_lang::model::paper_world;

    fn algebra_session() -> Session {
        let s = Session::new();
        s.insert_table("R1", Relation::from_ints("R1", &["k1"], &[&[0]]));
        s.insert_table(
            "R2",
            Relation::from_ints("R2", &["k2"], &[&[0], &[1], &[2]]),
        );
        s.insert_table(
            "R3",
            Relation::from_ints("R3", &["k3"], &[&[1], &[2], &[9]]),
        );
        s
    }

    fn example1() -> Query {
        Query::rel("R1").join(
            Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
            Pred::eq_attr("R1.k1", "R2.k2"),
        )
    }

    #[test]
    fn prepare_runs_and_warms_the_cache() {
        let s = algebra_session();
        let q = example1();
        let cold = s.prepare(&q).unwrap();
        let cold_out = cold.run().unwrap();
        assert!(cold.optimized().pairs_examined > 0);
        let warm = s.prepare(&q).unwrap();
        assert_eq!(warm.optimized().pairs_examined, 0, "full-set cache hit");
        assert!(warm.optimized().cache.hits >= 1);
        assert!(warm.run().unwrap().set_eq(&cold_out));
        assert_eq!(cold.explain(), {
            // Cache counters differ between the two runs; plans agree.
            let c = cold.plan().explain();
            let w = warm.plan().explain();
            assert_eq!(c, w);
            cold.explain()
        });
    }

    #[test]
    fn deletes_keep_the_indexes_the_catalog_advertises() {
        // The catalog goes on advertising R's index after a delete, so
        // the planner goes on choosing IndexJoin: storage must still
        // have the index, with its postings renumbered.
        let s = Session::new();
        let r: Vec<Vec<i64>> = (0..40).map(|k| vec![k, k * 10]).collect();
        let r: Vec<&[i64]> = r.iter().map(Vec::as_slice).collect();
        s.insert_table("R", Relation::from_ints("R", &["k", "v"], &r));
        s.insert_table("S", Relation::from_ints("S", &["k"], &[&[7], &[30]]));
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let q = Query::rel("S").join(Query::rel("R"), Pred::eq_attr("S.k", "R.k"));
        let indexes = |s: &Session| {
            let state = s.shared().snapshot();
            let id = state.storage().rel_id("R").unwrap();
            state.storage().get_by_id(id).unwrap().indexes().len()
        };
        let ints = |vs: &[i64]| Tuple::new(vs.iter().map(|&v| Value::Int(v)).collect());
        let run = |s: &Session| {
            let prepared = s.prepare(&q).unwrap();
            assert!(prepared.plan().explain().contains("IndexJoin"));
            prepared.run().map(|out| out.rows().to_vec())
        };
        assert_eq!(run(&s).unwrap().len(), 2);
        // A row in front of both matches goes: same answer, found at
        // the rows' new positions.
        assert!(s.delete_rows("R", &[ints(&[3, 30])]));
        assert_eq!(indexes(&s), 1);
        let mut out = run(&s).unwrap();
        out.sort();
        assert_eq!(out, vec![ints(&[7, 7, 70]), ints(&[30, 30, 300])]);
        // A matched row goes, beside a reader this time.
        let pin = s.shared().snapshot();
        assert!(s.delete_rows("R", &[ints(&[7, 70])]));
        drop(pin);
        assert_eq!(indexes(&s), 1);
        assert_eq!(run(&s).unwrap().len(), 1);
    }

    #[test]
    fn stats_mutation_through_session_invalidates_plans() {
        let s = algebra_session();
        let q = example1();
        let _ = s.prepare(&q).unwrap();
        s.set_distinct(&Attr::parse("R2.k2"), 1_000_000);
        let replanned = s.prepare(&q).unwrap();
        assert!(
            replanned.optimized().pairs_examined > 0,
            "stale plan evicted"
        );
        assert!(replanned.optimized().cache.stale >= 1);
    }

    #[test]
    fn connected_sessions_share_data_and_plans() {
        let a = algebra_session();
        let b = Session::connect(a.shared());
        let q = example1();
        let cold = a.prepare(&q).unwrap();
        assert!(cold.optimized().pairs_examined > 0);
        // The second session sees the first session's tables *and* its
        // warm plan.
        let warm = b.prepare(&q).unwrap();
        assert_eq!(warm.optimized().pairs_examined, 0, "cross-session hit");
        assert!(warm.optimized().cache.hits >= 1);
        assert!(warm.run().unwrap().set_eq(&cold.run().unwrap()));
        // Per-handle counters stay separate and sum into the shared
        // cumulative stats.
        assert_eq!(b.local_cache_stats().hits, warm.optimized().cache.hits);
        let total = a.cache_stats();
        let (la, lb) = (a.local_cache_stats(), b.local_cache_stats());
        assert_eq!(total.hits, la.hits + lb.hits);
        assert_eq!(total.misses, la.misses + lb.misses);
    }

    #[test]
    fn prepared_statements_pin_their_generation() {
        let s = algebra_session();
        let q = example1();
        let prepared = s.prepare(&q).unwrap();
        let before = prepared.run().unwrap();
        // Mutating the shared database after preparing doesn't disturb
        // the pinned snapshot: the statement replays identically.
        s.insert_table("R2", Relation::from_ints("R2", &["k2"], &[&[999]]));
        assert_eq!(prepared.run().unwrap(), before);
        // A fresh prepare sees the new generation (and re-plans, since
        // the epoch moved).
        let fresh = s.prepare(&q).unwrap();
        assert!(!fresh.run().unwrap().set_eq(&before));
    }

    #[test]
    fn query_requires_an_entity_model() {
        let s = Session::new();
        let e = s.query("Select All From EMPLOYEE*ChildName").unwrap_err();
        assert_eq!(e.code(), "SESSION_NO_ENTITY_MODEL");
    }

    #[test]
    fn lang_query_matches_reference_and_warms() {
        let src = "Select All From EMPLOYEE*ChildName, DEPARTMENT \
                   Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'";
        let s = Session::from_entity_db(paper_world());
        let out = s.query(src).unwrap().run().unwrap();
        assert_eq!(out.len(), 3);
        // Re-issuing the same block hits the cache: the tables are
        // already in sync, so the epoch (and cache) hold.
        let again = s.query(src).unwrap();
        assert_eq!(again.optimized().pairs_examined, 0);
        assert!(again.optimized().cache.hits >= 1);
        assert!(again.run().unwrap().set_eq(&out));
    }

    /// A join chain over more relations than a query graph holds is
    /// planned as written, not refused: the graph is undefined, so the
    /// optimizer lowers the tree by name.
    #[test]
    fn a_chain_longer_than_a_query_graph_runs_as_written() {
        let n = fro_graph::QueryGraph::MAX_NODES + 1;
        let s = Session::new();
        let mut db = fro_algebra::Database::new();
        for i in 0..n {
            let rows: &[&[i64]] = if i == 0 {
                &[&[1], &[2]]
            } else {
                &[&[1], &[2], &[3]]
            };
            let r = Relation::from_ints(&format!("R{i}"), &["k"], rows);
            db.insert(r.clone());
            s.insert_table(format!("R{i}"), r);
        }
        let q = (1..n).fold(Query::rel("R0"), |q, i| {
            q.join(
                Query::rel(format!("R{i}")),
                Pred::eq_attr(&format!("R{}.k", i - 1), &format!("R{i}.k")),
            )
        });
        let out = s.prepare(&q).unwrap().run().unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.set_eq(&q.eval(&db).unwrap()));
    }

    #[test]
    fn lang_query_surfaces_parse_errors_with_codes() {
        let s = Session::from_entity_db(paper_world());
        let e = s.query("From nothing").unwrap_err();
        assert_eq!(e.code(), "LANG_PARSE");
    }
}
