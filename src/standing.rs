//! Standing queries: register once, maintain forever.
//!
//! A standing query is planned a single time and materialized into a
//! view: the result rows plus the per-join state the delta algebra
//! needs (hash build sides, outerjoin match counters — see
//! [`fro_exec::DeltaPlan`]). Afterwards every mutation that goes
//! through the [`SharedDb`] front door ([`SharedDb::append_rows`],
//! [`SharedDb::delete_rows`]) propagates a typed [`RowDelta`] through
//! the view's plan instead of re-executing it, so maintenance touches
//! O(|delta|) rows, not O(|base|).
//!
//! ## What a poll costs
//!
//! Theorem 1 lands every alpha-equivalent registration on one view, so
//! one view is read by many pollers. A view therefore keeps one
//! *rendering* — its rows as a [`Relation`] in [`Tuple`] order, the
//! order polls serve — and every poll returns a clone of it, which
//! shares the rows (a pointer bump). Mutations do not touch the
//! rendering: they push the view's delta onto a pending log, and the
//! next poll merges the log in first. So a poll of an unchanged view is
//! O(1); a poll after changes locates each changed row by binary search
//! and moves the rows behind the first change, allocating nothing per
//! row; and only if an earlier poll's result is still held somewhere
//! does the merge copy the rows first (once — the holder keeps what it
//! read, the view writes the copy in place from then on).
//! [`StandingCounters`] counts the three.
//!
//! ## Keying (Theorem 1 at registration time)
//!
//! The paper's Theorem 1 makes the query graph the *identity* of a
//! freely reorderable query. Every query is planned as its canonical
//! graph ([`fro_graph::QueryGraph::canonical`]), so the plan is a
//! function of the graph and the statistics, and the registry keys each
//! view by `(GraphSignature, relation set)` — the plan cache's key —
//! refined by a fingerprint of the chosen physical plan (two §5 blocks
//! can share a join graph while carrying different Where-List
//! restrictions; the folded plans tell them apart). Registering an
//! alpha-equivalent phrasing therefore lands on the *same* view, even
//! after an unrelated table changed the catalog in between: one
//! materialization, one maintained state, another subscriber.
//!
//! ## Materialization
//!
//! A registration that no view answers materializes from the base
//! tables exactly as a stale poll refreshes: one function initializes
//! the view's delta state or, for a plan outside the delta algebra,
//! executes the plan. Views share no state with each other — a view's
//! state is its own join state with match counts — so only
//! alpha-equivalent phrasings share, by landing on one view.
//!
//! ## Staleness
//!
//! Each view records the catalog epoch and the per-relation row epochs
//! it has accounted for. Quiet mutations (row appends/deletes) bump
//! only the touched relation's row epoch and are folded in
//! incrementally; anything that bumps the catalog epoch (table
//! replacement, what-if statistics, a §5 block syncing new tables)
//! leaves the view behind, and the next poll notices the gap and falls
//! back to a full re-execution — stale state is never served.

use crate::error::FroError;
use crate::shared::{DbState, SharedDb};
use fro_algebra::schema::{Schema, SchemaRef};
use fro_algebra::{Relation, Tuple};
use fro_core::optimizer::{graph_signature, Optimized};
use fro_core::Catalog;
use fro_exec::{execute, DeltaPlan, ExecStats, PhysPlan, RowDelta};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Handle to a registered standing query. Stable for the lifetime of
/// the [`SharedDb`] that issued it; alpha-equivalent registrations
/// return the *same* id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StandingId(u64);

impl StandingId {
    /// The raw id, e.g. for carrying over the wire protocol.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuild an id received over the wire. An id that no registry
    /// ever issued simply fails at poll time with
    /// `STANDING_UNKNOWN`.
    #[must_use]
    pub fn from_u64(raw: u64) -> StandingId {
        StandingId(raw)
    }
}

impl fmt::Display for StandingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "standing#{}", self.0)
    }
}

/// The outcome of a registration: the view's id and whether an
/// existing view answered it (`shared`) or a fresh materialization ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// The view handle to poll.
    pub id: StandingId,
    /// `true` when an alpha-equivalent view already existed — no new
    /// materialization, one more subscriber on the shared view.
    pub shared: bool,
}

/// A point-in-time description of one registered view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandingInfo {
    /// How many registrations this view answers.
    pub subscribers: u64,
    /// Current maintained result cardinality.
    pub rows: usize,
    /// `true` when the view is delta-maintained; `false` when its plan
    /// uses an operator outside the delta algebra (projection,
    /// aggregation, generalized outerjoin) and every stale poll
    /// re-executes instead.
    pub incremental: bool,
    /// The base relations the view depends on, sorted.
    pub rels: Vec<String>,
}

/// Cumulative registry counters (all sessions, since the
/// [`SharedDb`] was built): how registrations were answered and how
/// polls were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandingCounters {
    /// Distinct views materialized, each from the base tables.
    pub registered: u64,
    /// Registrations answered by an existing alpha-equivalent view.
    pub shared_hits: u64,
    /// Polls that found nothing to merge into the rendering: served as
    /// it stood, O(1). (A poll that
    /// had to refresh the view is counted in none of the three; it is
    /// in `views_refreshed` of [`SharedDb::maintenance_stats`].)
    pub polls_unchanged: u64,
    /// Polls that first merged pending changes into the rendering
    /// where it stood (no earlier result was still held).
    pub polls_merged: u64,
    /// Polls that had to copy the rendering before merging, because an
    /// earlier poll's result was still held.
    pub polls_copied: u64,
}

/// One maintained view: the plan it was registered with, the delta
/// machinery (when the plan fits the delta algebra), the served
/// rendering with the changes not yet merged into it, and the epochs it
/// has accounted for.
#[derive(Debug)]
struct View {
    plan: PhysPlan,
    delta: Option<DeltaPlan>,
    /// The view's rows in [`Tuple`] order, as of the last poll or
    /// refresh. Poll results are clones of it and share its rows; it is
    /// written only by [`View::merge_pending`] and [`View::render`].
    rendering: Relation,
    /// The view deltas of the mutations since, concatenated in
    /// publication order. Each was exact when pushed (inserts absent,
    /// deletes present), so the rendering plus the net of this log is
    /// the view.
    pending: RowDelta,
    rels: BTreeSet<String>,
    subscribers: u64,
    base_epoch: u64,
    row_epochs: HashMap<String, u64>,
}

/// What [`View::merge_pending`] had to do.
enum Merged {
    Nothing,
    InPlace,
    AfterCopy,
}

impl View {
    /// Replace the rendering with `rows` (any order, as an execution
    /// returns them) under `schema`; nothing is pending afterwards.
    fn render(&mut self, schema: SchemaRef, mut rows: Vec<Tuple>) {
        rows.sort_unstable();
        rows.dedup();
        self.rendering = Relation::from_distinct_rows(schema, rows);
        self.pending = RowDelta::default();
    }

    /// Bring the rendering up to date with everything pending, and say
    /// how: nothing to do, merged where it stood, or copied first
    /// because an earlier poll's result still shares its rows.
    fn merge_pending(&mut self) -> Merged {
        // Rows that came and went again since the last merge cancel.
        let net = std::mem::take(&mut self.pending).normalize();
        if net.is_empty() {
            return Merged::Nothing;
        }
        let how = if self.rendering.rows_are_shared() {
            Merged::AfterCopy
        } else {
            Merged::InPlace
        };
        self.rendering.merge_sorted(net.inserts, &net.deletes);
        how
    }

    /// The view's exact cardinality, pending changes included.
    fn len(&self) -> usize {
        self.rendering.len() + self.pending.inserts.len() - self.pending.deletes.len()
    }
}

/// `(signature, relation set, plan fingerprint)` — the sharing key. See
/// the module docs for why the plan fingerprint is part of it.
type ViewKey = (u64, BTreeSet<String>, u64);

/// The standing-query registry of one [`SharedDb`]: all views and the
/// cumulative counters.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    views: BTreeMap<u64, View>,
    by_key: HashMap<ViewKey, u64>,
    next_id: u64,
    totals: ExecStats,
    counters: StandingCounters,
}

fn plan_fingerprint(plan: &PhysPlan) -> u64 {
    let mut h = DefaultHasher::new();
    plan.explain().hash(&mut h);
    h.finish()
}

fn plan_rels(plan: &PhysPlan) -> BTreeSet<String> {
    let mut rels = BTreeSet::new();
    plan.for_each_base_rel(&mut |r| {
        rels.insert(r.to_owned());
    });
    rels
}

fn row_epoch_of(catalog: &Catalog, rel: &str) -> u64 {
    catalog.rel_id(rel).map_or(0, |id| catalog.row_epoch(id))
}

fn current_epochs(catalog: &Catalog, rels: &BTreeSet<String>) -> HashMap<String, u64> {
    rels.iter()
        .map(|r| (r.clone(), row_epoch_of(catalog, r)))
        .collect()
}

/// Whether `view` has accounted for every epoch the catalog currently
/// shows for its relations.
fn is_current(view: &View, catalog: &Catalog) -> bool {
    view.base_epoch == catalog.epoch()
        && view
            .rels
            .iter()
            .all(|r| view.row_epochs.get(r).copied().unwrap_or(0) == row_epoch_of(catalog, r))
}

/// Materialize `view` from the base tables of `state` (counted in
/// `views_refreshed`): re-derive all join state, or execute a plan
/// outside the delta algebra, and re-stamp the accounted epochs. A new
/// registration and a stale poll both come through here.
fn refresh_view(view: &mut View, state: &DbState, stats: &mut ExecStats) -> Result<(), FroError> {
    stats.views_refreshed += 1;
    let (schema, rows) = match view.delta.as_mut() {
        Some(dp) => (dp.schema().clone(), dp.initialize(state.storage(), stats)?),
        None => {
            let rel = execute(&view.plan, state.storage(), stats)?;
            (rel.schema().clone(), rel.rows().to_vec())
        }
    };
    view.render(schema, rows);
    view.base_epoch = state.catalog().epoch();
    view.row_epochs = current_epochs(state.catalog(), &view.rels);
    Ok(())
}

/// Fan one base-relation delta out to every view that depends on it.
/// Called by the mutation front doors *after* the new generation is
/// published, still under the registry lock, with `state` the
/// post-mutation snapshot. Views that are current except for this one
/// row-epoch bump fold the delta in — into their join state now, into
/// their rendering at the next poll: the view's own delta is only
/// pushed onto its pending log, so this stays O(|delta|) however large
/// the view (amortized: a log that outgrows the rendering is merged
/// here, so an unpolled view's memory stays bounded). Views already
/// behind (or whose plan is outside the delta
/// algebra) stay behind and the next poll refreshes them. Returns the
/// maintenance work done (also merged into the registry totals).
pub(crate) fn apply_base_delta(
    reg: &mut Registry,
    state: &DbState,
    rel: &str,
    delta: &RowDelta,
) -> ExecStats {
    let mut done = ExecStats::new();
    if delta.is_empty() {
        return done;
    }
    let catalog = state.catalog();
    let now = row_epoch_of(catalog, rel);
    for view in reg.views.values_mut() {
        if !view.rels.contains(rel) {
            continue;
        }
        let Some(dp) = view.delta.as_mut() else {
            continue; // refresh-mode view: the epoch gap refreshes it at poll
        };
        let behind_exactly_this = view.base_epoch == catalog.epoch()
            && view.rels.iter().all(|r| {
                let have = view.row_epochs.get(r).copied().unwrap_or(0);
                let cur = row_epoch_of(catalog, r);
                if r == rel {
                    have + 1 == cur
                } else {
                    have == cur
                }
            });
        if !behind_exactly_this {
            continue;
        }
        let mut stats = ExecStats::new();
        match dp.apply(rel, delta, &mut stats) {
            Ok(out) => {
                stats.delta_rows_out += out.len() as u64;
                view.pending.inserts.extend(out.inserts);
                view.pending.deletes.extend(out.deletes);
                // A view nobody polls must not grow a log forever: one
                // that has outgrown the rendering is merged on the spot,
                // which the rows logged since the last merge pay for.
                if view.pending.len() > view.rendering.len() {
                    view.merge_pending();
                }
                view.row_epochs.insert(rel.to_owned(), now);
                done.merge(&stats);
            }
            Err(_) => {
                // The join state may be torn mid-apply; leave the view
                // behind so the next poll rebuilds it from scratch.
                dp.reset();
            }
        }
    }
    reg.totals.merge(&done);
    done
}

impl SharedDb {
    /// Register an already-optimized query as a standing view,
    /// returning the (possibly shared) handle and the materialization
    /// work. Crate-internal: [`Session::register_standing`] and
    /// [`Session::register_standing_src`] are the public doors.
    ///
    /// [`Session::register_standing`]: crate::Session::register_standing
    /// [`Session::register_standing_src`]: crate::Session::register_standing_src
    pub(crate) fn register_standing_with(
        &self,
        optimized: &Optimized,
    ) -> Result<(Registered, ExecStats), FroError> {
        let mut guard = self.standing_lock();
        let reg = &mut *guard;
        let state = self.snapshot();
        let rels = plan_rels(&optimized.plan);
        let key: Option<ViewKey> = optimized.analysis.graph.as_ref().map(|g| {
            (
                graph_signature(g).as_u64(),
                rels.clone(),
                plan_fingerprint(&optimized.plan),
            )
        });
        if let Some(&id) = key.as_ref().and_then(|k| reg.by_key.get(k)) {
            let view = reg.views.get_mut(&id).expect("keyed view exists");
            view.subscribers += 1;
            reg.counters.shared_hits += 1;
            return Ok((
                Registered {
                    id: StandingId(id),
                    shared: true,
                },
                ExecStats::new(),
            ));
        }
        // `refresh_view` sets the rendering and the epochs.
        let mut view = View {
            plan: optimized.plan.clone(),
            delta: DeltaPlan::try_build(&optimized.plan, state.storage()),
            rendering: Relation::empty(Arc::new(Schema::empty())),
            pending: RowDelta::default(),
            rels,
            subscribers: 1,
            base_epoch: 0,
            row_epochs: HashMap::new(),
        };
        let mut stats = ExecStats::new();
        refresh_view(&mut view, &state, &mut stats)?;
        let id = reg.next_id;
        reg.next_id += 1;
        reg.views.insert(id, view);
        if let Some(k) = key {
            reg.by_key.insert(k, id);
        }
        reg.counters.registered += 1;
        reg.totals.merge(&stats);
        Ok((
            Registered {
                id: StandingId(id),
                shared: false,
            },
            stats,
        ))
    }

    /// Serve a standing view's current result: the maintained rows in
    /// canonical ([`Tuple`]) order, refreshed from scratch first only if
    /// some mutation path the delta machinery doesn't cover moved the
    /// epochs. The result shares its rows with the view (see the module
    /// docs for what that makes a poll cost); holding on to it is safe
    /// — it never changes — and costs the view one copy at its next
    /// changed poll. The returned [`ExecStats`] is the work *this poll*
    /// did — all zero on the steady-state fast path.
    ///
    /// # Errors
    /// [`FroError::UnknownStanding`] when no registration produced
    /// `id`; [`FroError::Exec`] when a refresh re-execution fails.
    pub fn poll_standing(&self, id: StandingId) -> Result<(Relation, ExecStats), FroError> {
        let mut guard = self.standing_lock();
        let reg = &mut *guard;
        let state = self.snapshot();
        let Some(view) = reg.views.get_mut(&id.0) else {
            return Err(FroError::UnknownStanding(id.0));
        };
        let mut stats = ExecStats::new();
        if is_current(view, state.catalog()) {
            match view.merge_pending() {
                Merged::Nothing => reg.counters.polls_unchanged += 1,
                Merged::InPlace => reg.counters.polls_merged += 1,
                Merged::AfterCopy => reg.counters.polls_copied += 1,
            }
        } else {
            refresh_view(view, &state, &mut stats)?;
        }
        let rel = view.rendering.clone();
        reg.totals.merge(&stats);
        Ok((rel, stats))
    }

    /// Describe one registered view, or `None` for an unknown id.
    #[must_use]
    pub fn standing_info(&self, id: StandingId) -> Option<StandingInfo> {
        let reg = self.standing_lock();
        reg.views.get(&id.0).map(|v| StandingInfo {
            subscribers: v.subscribers,
            rows: v.len(),
            incremental: v.delta.is_some(),
            rels: v.rels.iter().cloned().collect(),
        })
    }

    /// Cumulative registry counters (views materialized, registrations
    /// answered by an alpha-equivalent view, how polls were served)
    /// across all sessions.
    #[must_use]
    pub fn standing_counters(&self) -> StandingCounters {
        self.standing_lock().counters
    }

    /// Cumulative maintenance work across all views and mutations:
    /// `delta_rows_in` / `delta_rows_out` for the incremental passes,
    /// `views_refreshed` for the full re-executions, plus the engine
    /// counters those passes accrued. Per-connection shares
    /// ([`Session::local_maintenance_stats`]) sum to this total, like
    /// the plan-cache counters.
    ///
    /// [`Session::local_maintenance_stats`]: crate::Session::local_maintenance_stats
    #[must_use]
    pub fn maintenance_stats(&self) -> ExecStats {
        self.standing_lock().totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use fro_algebra::{Pred, Query, Value};

    fn star_session() -> Session {
        let s = Session::new();
        s.insert_table(
            "F",
            Relation::from_ints("F", &["d1", "d2"], &[&[1, 10], &[2, 20], &[3, 30]]),
        );
        s.insert_table("D1", Relation::from_ints("D1", &["k"], &[&[1], &[2]]));
        s.insert_table("D2", Relation::from_ints("D2", &["k"], &[&[10], &[30]]));
        s
    }

    fn star_query() -> Query {
        Query::rel("F")
            .join(Query::rel("D1"), Pred::eq_attr("F.d1", "D1.k"))
            .join(Query::rel("D2"), Pred::eq_attr("F.d2", "D2.k"))
    }

    #[test]
    fn register_poll_and_incremental_append() {
        let s = star_session();
        let reg = s.register_standing(&star_query()).unwrap();
        assert!(!reg.shared);
        let (out, stats) = s.poll_standing(reg.id).unwrap();
        assert_eq!(out.len(), 1); // (1,10) matches both dims
        assert_eq!(stats.views_refreshed, 0, "steady poll does no work");
        // A quiet append folds in incrementally: no refresh, O(delta).
        assert!(s.append_rows("D2", vec![Tuple::new(vec![Value::Int(20)])]));
        let (out2, stats2) = s.poll_standing(reg.id).unwrap();
        assert_eq!(out2.len(), 2);
        assert_eq!(stats2.views_refreshed, 0);
        let totals = s.shared().maintenance_stats();
        assert!(totals.delta_rows_in > 0 && totals.delta_rows_out > 0);
        // Bit-identical to a cold re-execution served in the same
        // canonical order.
        let cold = s.prepare(&star_query()).unwrap().run().unwrap();
        let mut sorted = cold.rows().to_vec();
        sorted.sort();
        assert_eq!(
            out2,
            Relation::from_distinct_rows(cold.schema().clone(), sorted)
        );
    }

    #[test]
    fn polls_share_the_rendering_merge_in_place_or_copy_once() {
        let s = star_session();
        let reg = s.register_standing(&star_query()).unwrap();
        let served = || {
            let c = s.shared().standing_counters();
            (c.polls_unchanged, c.polls_merged, c.polls_copied)
        };
        let rows_in_view = || s.shared().standing_info(reg.id).unwrap().rows;
        let d2 = |k: i64| vec![Tuple::new(vec![Value::Int(k)])];
        // Unchanged: two polls, one allocation.
        let (a, _) = s.poll_standing(reg.id).unwrap();
        let (b, _) = s.poll_standing(reg.id).unwrap();
        assert!(std::ptr::eq(a.rows().as_ptr(), b.rows().as_ptr()));
        assert_eq!(served(), (2, 0, 0));
        drop((a, b));
        // Changed with no result held: merged where the rendering
        // stands. The row count is exact before the poll, too.
        assert!(s.append_rows("D2", d2(20)));
        assert_eq!(rows_in_view(), 2);
        let (c, _) = s.poll_standing(reg.id).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(served(), (2, 1, 0));
        // Changed while `c` is held: the rendering is copied first and
        // `c` keeps what it read.
        assert!(s.append_rows("D1", vec![Tuple::new(vec![Value::Int(3)])]));
        let (d, _) = s.poll_standing(reg.id).unwrap();
        assert_eq!((c.len(), d.len()), (2, 3));
        assert!(!std::ptr::eq(c.rows().as_ptr(), d.rows().as_ptr()));
        assert_eq!(served(), (2, 1, 1));
        drop(d);
        // `c` is still held, but on the old rows: the view owns its copy
        // now, so a held result costs one copy, not one per poll.
        assert!(s.delete_rows("D2", &d2(20)));
        let (e, _) = s.poll_standing(reg.id).unwrap();
        assert_eq!((c.len(), e.len()), (2, 2));
        assert_ne!(c, e);
        assert_eq!(served(), (2, 2, 1));
        // A row that came and went between two polls cancels: nothing
        // to merge, the same allocation again.
        assert!(s.append_rows("D2", d2(20)));
        assert!(s.delete_rows("D2", &d2(20)));
        assert_eq!(rows_in_view(), 2);
        let (f, _) = s.poll_standing(reg.id).unwrap();
        assert!(std::ptr::eq(e.rows().as_ptr(), f.rows().as_ptr()));
        assert_eq!(served(), (3, 2, 1));
        let cold = s.prepare(&star_query()).unwrap().run().unwrap();
        assert!(f.set_eq(&cold));
        assert_eq!(s.shared().maintenance_stats().views_refreshed, 1);
    }

    #[test]
    fn an_unpolled_view_merges_its_log_once_it_outgrows_the_rendering() {
        let s = star_session();
        let reg = s.register_standing(&star_query()).unwrap();
        let pending = || s.shared().standing_lock().views[&reg.id.0].pending.len();
        // Nobody polls while (2, 20) joins and leaves the one-row view.
        for round in 0..50 {
            assert!(s.append_rows("D2", vec![Tuple::new(vec![Value::Int(20)])]));
            assert!(s.delete_rows("D2", &[Tuple::new(vec![Value::Int(20)])]));
            assert!(pending() <= 2, "round {round}: {} rows logged", pending());
        }
        assert_eq!(s.shared().standing_info(reg.id).unwrap().rows, 1);
        let (out, stats) = s.poll_standing(reg.id).unwrap();
        assert_eq!((out.len(), stats.views_refreshed), (1, 0));
    }

    #[test]
    fn alpha_equivalent_registrations_share_one_view() {
        let s = star_session();
        // The same star phrased in the opposite association.
        let other = Query::rel("F")
            .join(Query::rel("D2"), Pred::eq_attr("F.d2", "D2.k"))
            .join(Query::rel("D1"), Pred::eq_attr("F.d1", "D1.k"));
        let first = s.register_standing(&star_query()).unwrap();
        let b = Session::connect(s.shared());
        let second = b.register_standing(&other).unwrap();
        assert_eq!(first.id, second.id, "one view, two subscribers");
        assert!(!first.shared);
        assert!(second.shared);
        let info = s.shared().standing_info(first.id).unwrap();
        assert_eq!(info.subscribers, 2);
        let c = s.shared().standing_counters();
        assert_eq!(c.registered, 1);
        assert_eq!(c.shared_hits, 1);
    }

    #[test]
    fn table_replacement_forces_a_refresh() {
        let s = star_session();
        let reg = s.register_standing(&star_query()).unwrap();
        let _ = s.poll_standing(reg.id).unwrap();
        // Replacing a base table bumps the catalog epoch; the next poll
        // must rebuild rather than serve stale rows.
        s.insert_table("D1", Relation::from_ints("D1", &["k"], &[&[3]]));
        let (out, stats) = s.poll_standing(reg.id).unwrap();
        assert_eq!(stats.views_refreshed, 1);
        let cold = s.prepare(&star_query()).unwrap().run().unwrap();
        assert_eq!(out.len(), cold.len());
        assert_eq!(out.len(), 1); // only (3,30) survives the new D1
    }

    #[test]
    fn unknown_ids_fail_with_a_stable_code() {
        let s = star_session();
        let e = s.poll_standing(StandingId::from_u64(999)).unwrap_err();
        assert_eq!(e.code(), "STANDING_UNKNOWN");
        assert!(s
            .shared()
            .standing_info(StandingId::from_u64(999))
            .is_none());
    }

    /// Poll `id` and check it equals a cold re-execution of `q`; returns
    /// the poll's work. A re-plan under new statistics may order the
    /// columns differently from the view's plan, so both sides are
    /// compared in canonical column order.
    fn poll_equals_cold(s: &Session, id: StandingId, q: &Query) -> ExecStats {
        let (out, stats) = s.poll_standing(id).unwrap();
        let cold = s.prepare(q).unwrap().run().unwrap();
        assert_eq!(out.canonical(), cold.canonical());
        stats
    }

    #[test]
    fn a_view_and_its_prefix_each_follow_every_write() {
        let s = star_session();
        let star = star_query();
        let prefix = Query::rel("F").join(Query::rel("D1"), Pred::eq_attr("F.d1", "D1.k"));
        let whole = s.register_standing(&star).unwrap();
        // A prefix of the star joins a subset of its relations on the
        // same predicate: a different graph, so its own view, built from
        // the base tables.
        let part = s.register_standing(&prefix).unwrap();
        assert!(!part.shared);
        assert_ne!(whole.id, part.id);
        assert_eq!(s.shared().standing_counters().registered, 2);
        let int = |v: &[i64]| Tuple::new(v.iter().map(|&x| Value::Int(x)).collect());
        let polls = |refreshes: u64| {
            for (id, q) in [(whole.id, &star), (part.id, &prefix)] {
                assert_eq!(poll_equals_cold(&s, id, q).views_refreshed, refreshes);
            }
        };
        polls(0);
        // Quiet writes to a dimension and to the fact table fold in.
        assert!(s.append_rows("D1", vec![int(&[3])]));
        polls(0);
        assert!(s.append_rows("F", vec![int(&[2, 30]), int(&[3, 10])]));
        polls(0);
        assert!(s.delete_rows("D1", &[int(&[1])]));
        polls(0);
        assert!(s.delete_rows("F", &[int(&[3, 30])]));
        polls(0);
        // Replacing a table bumps the catalog epoch: each view refreshes
        // once, then serves its maintained rows again.
        s.insert_table("D1", Relation::from_ints("D1", &["k"], &[&[1], &[3]]));
        polls(1);
        polls(0);
    }

    #[test]
    fn a_view_outside_the_delta_algebra_refreshes_on_a_stale_poll() {
        let s = star_session();
        let q = star_query().project(vec!["F.d1".into(), "D2.k".into()]);
        let reg = s.register_standing(&q).unwrap();
        assert!(!s.shared().standing_info(reg.id).unwrap().incremental);
        assert_eq!(poll_equals_cold(&s, reg.id, &q).views_refreshed, 0);
        assert!(s.append_rows("D2", vec![Tuple::new(vec![Value::Int(20)])]));
        assert_eq!(poll_equals_cold(&s, reg.id, &q).views_refreshed, 1);
        assert_eq!(s.shared().standing_info(reg.id).unwrap().rows, 2);
    }
}
