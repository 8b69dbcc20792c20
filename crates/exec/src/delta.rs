//! Incremental delta maintenance for standing views.
//!
//! A [`DeltaPlan`] is a maintenance-shaped mirror of a [`PhysPlan`]:
//! scans, filters, and joins (every physical join flavor collapses to
//! one delta join node; [`PhysPlan::SemiReduce`] wrappers are dropped
//! because reduction is semantically transparent). Each join node keeps
//! the state a delta needs: both inputs indexed by their equi-keys,
//! each row held once, next to its match count. Predicates are bound
//! to column offsets once, when the plan is built, and decide a match
//! without building the pair.
//!
//! The delta algebra per join kind, writing `Δ` for a signed row set
//! and `pad(t)` for the null-extension of `t`:
//!
//! * **Inner** — `Δ(L ⋈ R) = ΔL ⋈ R ∪ L' ⋈ ΔR` (`L'` is `L` after
//!   `ΔL` is applied; processing is sequential, left phase first).
//! * **Left outer** — as inner, plus a per-left-row match count `m(l)`:
//!   when `m(l)` crosses `0 → 1` the pad `l∘null` is retracted, when it
//!   crosses `1 → 0` the pad is emitted.
//! * **Full outer** — left-outer bookkeeping on both sides (`m(l)` and
//!   `m(r)`, pads on either side).
//! * **Semi** — output is the left rows with `m(l) > 0`; only the
//!   `0 ↔ 1` transitions of `m(l)` emit or retract `l`.
//! * **Anti** — output is the left rows with `m(l) = 0`; the same
//!   transitions act in reverse.
//!
//! A null equi-key never matches (3VL, like every join in the engine),
//! so null-keyed rows only ever contribute pads or anti rows.
//!
//! **A join node stores no copy of its output.** Over set inputs, every
//! kind but full outer derives each output row at most once: a real
//! row `l∘r` fixes its pair `(l, r)`, the pad `l∘null` exists only while
//! `m(l) = 0` (so never beside a real `l∘r` whose `r` is all-null), and
//! a semi or anti row is a left row, present or not. So a node pushes
//! each derivation change straight into its delta; when one step emits
//! and retracts the same tuple (an all-null right row turning a pad into
//! an identical real row), [`RowDelta::normalize`] cancels the two. Only
//! a full outerjoin derives one row twice: an unmatched all-null left
//! row and an unmatched all-null right row both pad to the all-null row.
//! A full outerjoin node counts that row's derivations and reports it
//! only when the count crosses `0 ↔ 1`, as the execution engine dedups
//! the two pads.
//!
//! Views are registered and owned one level up (the `fro` facade);
//! this module is pure mechanism: build a [`DeltaPlan`] from a
//! physical plan, [`DeltaPlan::initialize`] it against storage, then
//! [`DeltaPlan::apply`] base-relation deltas and fold the returned root
//! delta into the maintained result.

use crate::engine::{bind_pred, ExecError};
use crate::plan::{JoinKind, PhysPlan};
use crate::stats::ExecStats;
use crate::storage::Storage;
use fro_algebra::ops::BoundPred;
use fro_algebra::schema::SchemaRef;
use fro_algebra::{FastMap, Pred, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A signed, set-level change to one relation: rows that became
/// present and rows that ceased to be. A tuple never appears in both
/// lists ([`RowDelta::normalize`] cancels oscillations), matching the
/// set semantics of every relation in the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    /// Rows that became present.
    pub inserts: Vec<Tuple>,
    /// Rows that ceased to be present.
    pub deletes: Vec<Tuple>,
}

impl RowDelta {
    /// A pure-insert delta.
    #[must_use]
    pub fn from_inserts(inserts: Vec<Tuple>) -> RowDelta {
        RowDelta {
            inserts,
            deletes: Vec::new(),
        }
    }

    /// A pure-delete delta.
    #[must_use]
    pub fn from_deletes(deletes: Vec<Tuple>) -> RowDelta {
        RowDelta {
            deletes,
            inserts: Vec::new(),
        }
    }

    /// True when the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of signed rows (inserts plus deletes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Cancel insert/delete oscillations of the same tuple so the
    /// delta is a minimal set-level change, and sort both lists so
    /// downstream processing order is deterministic.
    #[must_use]
    pub fn normalize(self) -> RowDelta {
        let mut net: FastMap<Tuple, i64> = FastMap::default();
        for t in self.inserts {
            *net.entry(t).or_insert(0) += 1;
        }
        for t in self.deletes {
            *net.entry(t).or_insert(0) -= 1;
        }
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for (t, n) in net {
            debug_assert!((-1..=1).contains(&n), "set-level delta amplitude");
            if n > 0 {
                inserts.push(t);
            } else if n < 0 {
                deletes.push(t);
            }
        }
        inserts.sort_unstable();
        deletes.sort_unstable();
        RowDelta { inserts, deletes }
    }
}

/// The equi-key of a row: `None` when any key column is null (a null
/// key never matches). An empty key list yields `Some([])` — every row
/// in one bucket, matching decided by the residual alone (how
/// nested-loop joins are modelled).
fn key_of(t: &Tuple, cols: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        let v = t.get(c);
        if v.is_null() {
            return None;
        }
        key.push(v.clone());
    }
    Some(key)
}

/// A row held by one side of a delta join, and how many rows of the
/// other side it currently joins with.
#[derive(Debug)]
struct Held {
    row: Tuple,
    matches: u32,
}

/// One side of a delta join, indexed by its equi-key. Each row is held
/// once, in its key's bucket next to its match count; the order inside
/// a bucket never reaches a result, because [`RowDelta::normalize`]
/// sorts. Null-keyed rows are held apart: they never match (their count
/// is always 0), but full-outer pads and deletions still need to find
/// them.
#[derive(Debug, Default)]
struct SideIndex {
    by_key: FastMap<Vec<Value>, Vec<Held>>,
    null_keyed: BTreeSet<Tuple>,
}

impl SideIndex {
    /// Add `row`, absent until now, with `matches` current matches.
    fn insert(&mut self, key: Option<Vec<Value>>, row: Tuple, matches: u32) {
        match key {
            Some(k) => {
                // Most buckets of a key side hold one row: start them
                // at that size, not at `Vec`'s first growth of four.
                let bucket = self
                    .by_key
                    .entry(k)
                    .or_insert_with(|| Vec::with_capacity(1));
                debug_assert!(
                    bucket.iter().all(|h| h.row != row),
                    "side rows are sets; duplicate insert"
                );
                bucket.push(Held { row, matches });
            }
            None => {
                let fresh = self.null_keyed.insert(row);
                debug_assert!(fresh, "side rows are sets; duplicate insert");
            }
        }
    }

    /// Remove `row` and return its match count (`None` if it was absent).
    fn remove(&mut self, key: Option<&[Value]>, row: &Tuple) -> Option<u32> {
        let Some(k) = key else {
            return self.null_keyed.remove(row).then_some(0);
        };
        let bucket = self.by_key.get_mut(k)?;
        let held = bucket.swap_remove(bucket.iter().position(|h| h.row == *row)?);
        if bucket.is_empty() {
            self.by_key.remove(k);
        }
        Some(held.matches)
    }

    /// Pass `f` each row of `key`'s bucket that `residual` accepts when
    /// paired with `probe` (`probe_is_left` fixes the pair's order), and
    /// return how many there were. A null key matches nothing.
    fn for_each_match(
        &mut self,
        key: Option<&[Value]>,
        probe: &Tuple,
        probe_is_left: bool,
        residual: &BoundPred,
        mut f: impl FnMut(&mut Held),
    ) -> u32 {
        let Some(bucket) = key.and_then(|k| self.by_key.get_mut(k)) else {
            return 0;
        };
        let mut matched = 0;
        for cand in bucket {
            let truth = if probe_is_left {
                residual.eval_split(probe, &cand.row)
            } else {
                residual.eval_split(&cand.row, probe)
            };
            if truth.is_true() {
                matched += 1;
                f(cand);
            }
        }
        matched
    }

    /// The rows without a current match, null-keyed rows included.
    fn unmatched(&self) -> impl Iterator<Item = &Tuple> {
        self.by_key
            .values()
            .flatten()
            .filter(|h| h.matches == 0)
            .map(|h| &h.row)
            .chain(&self.null_keyed)
    }

    /// Number of rows held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.by_key.values().map(Vec::len).sum::<usize>() + self.null_keyed.len()
    }
}

/// Per-node state of a delta join: its two inputs, each row held once,
/// and no copy of its output. Every output row has at most one
/// derivation, bar a full outerjoin's all-null row, which
/// [`JoinOutput`] counts (see the module doc).
#[derive(Debug)]
struct JoinNode {
    left: usize,
    right: usize,
    left_cols: Vec<usize>,
    right_cols: Vec<usize>,
    /// The residual, bound to `left ++ right`.
    residual: BoundPred,
    left_index: SideIndex,
    right_index: SideIndex,
    out: JoinOutput,
}

/// What a join emits for its held rows. A derivation change goes
/// straight into the step's delta; only the all-null row of a full
/// outerjoin has its derivations counted.
#[derive(Debug)]
struct JoinOutput {
    kind: JoinKind,
    left_nulls: Tuple,
    right_nulls: Tuple,
    /// `FullOuter` only: how many derivations the all-null output row
    /// has (both pads can derive it).
    all_null: Option<u32>,
}

#[derive(Debug)]
enum DeltaNode {
    Scan { rel: String },
    Filter { input: usize, pred: BoundPred },
    Join(Box<JoinNode>),
}

/// A maintenance plan: the delta-operator mirror of one physical plan,
/// plus all per-join state. Nodes live in a post-order arena (children
/// strictly before parents; the root is last).
#[derive(Debug)]
pub struct DeltaPlan {
    nodes: Vec<DeltaNode>,
    schemas: Vec<SchemaRef>,
}

impl DeltaPlan {
    /// Mirror `plan` into delta operators, resolving key attributes to
    /// column offsets and binding predicates against `storage`'s
    /// schemas. Returns `None` when the plan contains an operator with
    /// no delta form (`Project`, `GroupCount`, `Goj`) or references an
    /// unknown table/attribute — the caller then falls back to
    /// refresh-on-poll maintenance.
    #[must_use]
    pub fn try_build(plan: &PhysPlan, storage: &Storage) -> Option<DeltaPlan> {
        let mut dp = DeltaPlan {
            nodes: Vec::new(),
            schemas: Vec::new(),
        };
        dp.build(plan, storage)?;
        Some(dp)
    }

    /// The output schema of the maintained result.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        self.schemas.last().expect("plan has at least one node")
    }

    fn push(&mut self, node: DeltaNode, schema: SchemaRef) -> usize {
        self.nodes.push(node);
        self.schemas.push(schema);
        self.nodes.len() - 1
    }

    fn build_scan(&mut self, rel: &str, storage: &Storage) -> Option<usize> {
        let schema = storage.get_named(rel)?.relation().schema().clone();
        Some(self.push(
            DeltaNode::Scan {
                rel: rel.to_string(),
            },
            schema,
        ))
    }

    fn build(&mut self, plan: &PhysPlan, storage: &Storage) -> Option<usize> {
        match plan {
            PhysPlan::Scan { rel } => self.build_scan(rel, storage),
            PhysPlan::Filter { input, pred } => {
                let child = self.build(input, storage)?;
                let schema = self.schemas[child].clone();
                let pred = bind_pred(pred, &schema, Some(storage.interner())).ok()?;
                Some(self.push(DeltaNode::Filter { input: child, pred }, schema))
            }
            // Reduction is semantically transparent: the reduced plan
            // computes the same relation, so the delta mirror simply
            // maintains the unreduced input.
            PhysPlan::SemiReduce { input, .. } => self.build(input, storage),
            PhysPlan::HashJoin {
                kind,
                probe,
                build,
                probe_keys,
                build_keys,
                residual,
            } => self.build_join(
                storage, *kind, probe, build, probe_keys, build_keys, residual,
            ),
            PhysPlan::IndexJoin {
                kind,
                outer,
                inner,
                outer_keys,
                inner_keys,
                residual,
            } => {
                let inner_plan = PhysPlan::scan(inner.clone());
                self.build_join(
                    storage,
                    *kind,
                    outer,
                    &inner_plan,
                    outer_keys,
                    inner_keys,
                    residual,
                )
            }
            PhysPlan::NlJoin {
                kind,
                left,
                right,
                pred,
            } => self.build_join(storage, *kind, left, right, &[], &[], pred),
            PhysPlan::Project { .. } | PhysPlan::GroupCount { .. } | PhysPlan::Goj { .. } => None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_join(
        &mut self,
        storage: &Storage,
        kind: JoinKind,
        left: &PhysPlan,
        right: &PhysPlan,
        left_keys: &[fro_algebra::Attr],
        right_keys: &[fro_algebra::Attr],
        residual: &Pred,
    ) -> Option<usize> {
        let l = self.build(left, storage)?;
        let r = self.build(right, storage)?;
        let ls = self.schemas[l].clone();
        let rs = self.schemas[r].clone();
        let left_cols: Option<Vec<usize>> = left_keys.iter().map(|a| ls.index_of(a)).collect();
        let right_cols: Option<Vec<usize>> = right_keys.iter().map(|a| rs.index_of(a)).collect();
        let (left_cols, right_cols) = (left_cols?, right_cols?);
        if left_cols.len() != right_cols.len() {
            return None;
        }
        let pair_schema: SchemaRef = Arc::new(ls.concat(&rs).ok()?);
        let residual = bind_pred(residual, &pair_schema, Some(storage.interner())).ok()?;
        let out_schema = match kind {
            JoinKind::Semi | JoinKind::Anti => ls.clone(),
            _ => pair_schema,
        };
        let node = JoinNode {
            left: l,
            right: r,
            left_cols,
            right_cols,
            residual,
            left_index: SideIndex::default(),
            right_index: SideIndex::default(),
            out: JoinOutput {
                kind,
                left_nulls: Tuple::nulls(ls.len()),
                right_nulls: Tuple::nulls(rs.len()),
                all_null: (kind == JoinKind::FullOuter).then_some(0),
            },
        };
        Some(self.push(DeltaNode::Join(Box::new(node)), out_schema))
    }

    /// Drop all maintained join state (before a fresh
    /// [`DeltaPlan::initialize`]).
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            if let DeltaNode::Join(jn) = node {
                jn.left_index = SideIndex::default();
                jn.right_index = SideIndex::default();
                if let Some(c) = &mut jn.out.all_null {
                    *c = 0;
                }
            }
        }
    }

    /// Materialize the view from scratch against `storage`, building
    /// every join's side indexes and match counts along the way. Returns
    /// the full result rows (deduplicated, unordered).
    pub fn initialize(
        &mut self,
        storage: &Storage,
        stats: &mut ExecStats,
    ) -> Result<Vec<Tuple>, ExecError> {
        self.reset();
        let mut outs: Vec<Vec<Tuple>> = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let rows = match node {
                DeltaNode::Scan { rel } => {
                    let rows = storage.lookup_named(rel)?.relation().rows().to_vec();
                    stats.tuples_retrieved += rows.len() as u64;
                    rows
                }
                DeltaNode::Filter { input, pred } => {
                    let mut kept = std::mem::take(&mut outs[*input]);
                    kept.retain(|t| pred.eval(t).is_true());
                    kept
                }
                DeltaNode::Join(jn) => {
                    let left_rows = std::mem::take(&mut outs[jn.left]);
                    let right_rows = std::mem::take(&mut outs[jn.right]);
                    init_join(jn, left_rows, right_rows, stats)
                }
            };
            outs.push(rows);
        }
        Ok(outs.pop().expect("plan has at least one node"))
    }

    /// Propagate one base-relation delta through the plan, updating
    /// every join's maintained state, and return the set-level delta
    /// of the view result. `delta` must be exact (inserts really novel,
    /// deletes really present) — the mutation APIs guarantee this.
    pub fn apply(
        &mut self,
        base: &str,
        delta: &RowDelta,
        stats: &mut ExecStats,
    ) -> Result<RowDelta, ExecError> {
        let mut deltas: Vec<RowDelta> = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            let d = match node {
                DeltaNode::Scan { rel } => {
                    if rel.as_str() == base {
                        stats.delta_rows_in += delta.len() as u64;
                        delta.clone()
                    } else {
                        RowDelta::default()
                    }
                }
                DeltaNode::Filter { input, pred } => {
                    let mut d = std::mem::take(&mut deltas[*input]);
                    stats.delta_rows_in += d.len() as u64;
                    d.inserts.retain(|t| pred.eval(t).is_true());
                    d.deletes.retain(|t| pred.eval(t).is_true());
                    d
                }
                DeltaNode::Join(jn) => {
                    let dl = std::mem::take(&mut deltas[jn.left]);
                    let dr = std::mem::take(&mut deltas[jn.right]);
                    stats.delta_rows_in += (dl.len() + dr.len()) as u64;
                    apply_join(jn, dl, dr)
                }
            };
            deltas.push(d);
        }
        Ok(deltas
            .pop()
            .expect("plan has at least one node")
            .normalize())
    }

    /// Rows held across every join node: each side's rows, once.
    #[cfg(test)]
    fn retained_rows(&self) -> usize {
        self.nodes
            .iter()
            .map(|node| match node {
                DeltaNode::Join(jn) => jn.left_index.len() + jn.right_index.len(),
                DeltaNode::Scan { .. } | DeltaNode::Filter { .. } => 0,
            })
            .sum()
    }
}

impl JoinOutput {
    /// One derivation of `t` more (`on`) or fewer: a set-level insert or
    /// delete in `delta`, unless the counted all-null row keeps another
    /// derivation.
    fn change(&mut self, t: Tuple, on: bool, delta: &mut RowDelta) {
        let counted = self
            .all_null
            .as_mut()
            .filter(|_| t.values().iter().all(Value::is_null));
        if let Some(c) = counted {
            if on {
                *c += 1;
                if *c > 1 {
                    return;
                }
            } else {
                debug_assert!(*c > 0, "retract of underived tuple");
                *c -= 1;
                if *c > 0 {
                    return;
                }
            }
        }
        if on {
            delta.inserts.push(t);
        } else {
            delta.deletes.push(t);
        }
    }

    /// The pair `l∘r` began (`on`) or ceased to join.
    fn pair(&mut self, l: &Tuple, r: &Tuple, on: bool, delta: &mut RowDelta) {
        if matches!(
            self.kind,
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter
        ) {
            self.change(l.concat(r), on, delta);
        }
    }

    /// The output row a held row contributes by itself, apart from its
    /// pairs, while it is `matched` or not: a preserved row's pad while
    /// unmatched, and a semi (anti) join's left row while matched
    /// (unmatched).
    fn own(&self, row: &Tuple, is_left: bool, matched: bool) -> Option<Tuple> {
        match (self.kind, is_left, matched) {
            (JoinKind::LeftOuter | JoinKind::FullOuter, true, false) => {
                Some(row.concat(&self.right_nulls))
            }
            (JoinKind::FullOuter, false, false) => Some(self.left_nulls.concat(row)),
            (JoinKind::Semi, true, true) | (JoinKind::Anti, true, false) => Some(row.clone()),
            _ => None,
        }
    }

    /// A held row joined (`on`) or left its side while `matched`.
    fn own_change(
        &mut self,
        row: &Tuple,
        is_left: bool,
        matched: bool,
        on: bool,
        delta: &mut RowDelta,
    ) {
        if let Some(t) = self.own(row, is_left, matched) {
            self.change(t, on, delta);
        }
    }
}

impl JoinNode {
    /// Add (`on`) or remove `row` on the left (`is_left`) or right side,
    /// against the other side as it stands, recording in `delta` every
    /// pair it makes or breaks, the other side's rows whose match count
    /// crosses 0, and its own pad or semi/anti row.
    fn side_row(&mut self, row: Tuple, is_left: bool, on: bool, delta: &mut RowDelta) {
        let (this, other, cols) = if is_left {
            (&mut self.left_index, &mut self.right_index, &self.left_cols)
        } else {
            (
                &mut self.right_index,
                &mut self.left_index,
                &self.right_cols,
            )
        };
        let out = &mut self.out;
        let key = key_of(&row, cols);
        let removed = (!on).then(|| this.remove(key.as_deref(), &row));
        let matched = other.for_each_match(key.as_deref(), &row, is_left, &self.residual, |o| {
            let (l, r) = if is_left {
                (&row, &o.row)
            } else {
                (&o.row, &row)
            };
            out.pair(l, r, on, delta);
            if on {
                o.matches += 1;
            } else {
                o.matches -= 1;
            }
            if o.matches == u32::from(on) {
                // `o` gained its first match or lost its last.
                out.own_change(&o.row, !is_left, !on, false, delta);
                out.own_change(&o.row, !is_left, on, true, delta);
            }
        });
        debug_assert!(
            removed.is_none_or(|held| held == Some(matched)),
            "absent side row, or its match count drifted"
        );
        out.own_change(&row, is_left, matched > 0, on, delta);
        if on {
            this.insert(key, row, matched);
        }
    }
}

/// Initial join materialization: index `right_rows` (every count 0),
/// so the node starts as `∅ ⟗ right`, then take every left row as an
/// insert. Returns the join's full output.
fn init_join(
    jn: &mut JoinNode,
    left_rows: Vec<Tuple>,
    right_rows: Vec<Tuple>,
    stats: &mut ExecStats,
) -> Vec<Tuple> {
    for t in right_rows {
        let key = key_of(&t, &jn.right_cols);
        jn.right_index.insert(key, t, 0);
        stats.hash_build_rows += 1;
    }
    let mut delta = RowDelta::default();
    // With no left rows yet, every right row is unmatched.
    for r in jn.right_index.unmatched() {
        jn.out.own_change(r, false, false, true, &mut delta);
    }
    for l in left_rows {
        jn.side_row(l, true, true, &mut delta);
        stats.hash_build_rows += 1;
    }
    // Only a full outerjoin retracts here (the pad of a right row that
    // finds its first match); every other kind emits its output once.
    if jn.out.kind == JoinKind::FullOuter {
        delta.normalize().inserts
    } else {
        delta.inserts
    }
}

/// One incremental step of a delta join: apply the left delta against
/// the old right state, then the right delta against the updated left
/// state. Returns the set-level output delta.
fn apply_join(jn: &mut JoinNode, dl: RowDelta, dr: RowDelta) -> RowDelta {
    let mut delta = RowDelta::default();
    // Phase A: left deletes, then left inserts, against R as it stands.
    for l in dl.deletes {
        jn.side_row(l, true, false, &mut delta);
    }
    for l in dl.inserts {
        jn.side_row(l, true, true, &mut delta);
    }
    // Phase B: right deletes, then right inserts, against updated L.
    for r in dr.deletes {
        jn.side_row(r, false, false, &mut delta);
    }
    for r in dr.inserts {
        jn.side_row(r, false, true, &mut delta);
    }
    delta.normalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use fro_algebra::{Attr, Relation};
    use std::collections::BTreeSet;

    fn storage_rs() -> Storage {
        let mut storage = Storage::new();
        storage.insert(
            "R",
            Relation::from_ints("R", &["k", "a"], &[&[1, 10], &[2, 20], &[3, 30]]),
        );
        storage.insert(
            "S",
            Relation::from_ints("S", &["k", "b"], &[&[2, 200], &[4, 400]]),
        );
        storage
    }

    fn join_plan(kind: JoinKind) -> PhysPlan {
        PhysPlan::HashJoin {
            kind,
            probe: Box::new(PhysPlan::scan("R")),
            build: Box::new(PhysPlan::scan("S")),
            probe_keys: vec![Attr::parse("R.k")],
            build_keys: vec![Attr::parse("S.k")],
            residual: Pred::always(),
        }
    }

    /// Maintained rows after a mutation must equal a fresh engine run.
    fn check_against_engine(plan: &PhysPlan, storage: &Storage, view: &BTreeSet<Tuple>) {
        let mut stats = ExecStats::new();
        let expect = execute(plan, storage, &mut stats).unwrap();
        let mut rows: Vec<Tuple> = expect.rows().to_vec();
        rows.sort_unstable();
        let got: Vec<Tuple> = view.iter().cloned().collect();
        assert_eq!(got, rows, "maintained view diverged for {plan:?}");
    }

    fn apply_to_view(view: &mut BTreeSet<Tuple>, d: &RowDelta) {
        for t in &d.deletes {
            assert!(view.remove(t), "delete of absent view row");
        }
        for t in &d.inserts {
            assert!(view.insert(t.clone()), "insert of present view row");
        }
    }

    #[test]
    fn all_kinds_maintain_under_appends_and_deletes() {
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::FullOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let mut storage = storage_rs();
            let plan = join_plan(kind);
            let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
            let mut stats = ExecStats::new();
            let init = dp.initialize(&storage, &mut stats).unwrap();
            let mut view: BTreeSet<Tuple> = init.into_iter().collect();
            check_against_engine(&plan, &storage, &view);

            // Append a matching and a non-matching S row.
            let add = vec![
                Tuple::new(vec![Value::Int(1), Value::Int(100)]),
                Tuple::new(vec![Value::Int(9), Value::Int(900)]),
            ];
            let mut rel = storage.get("S").unwrap().relation().clone();
            let mut rows = rel.rows().to_vec();
            rows.extend(add.clone());
            rel = Relation::new(rel.schema().clone(), rows).unwrap();
            storage.insert("S", rel);
            let d = dp
                .apply("S", &RowDelta::from_inserts(add), &mut stats)
                .unwrap();
            apply_to_view(&mut view, &d);
            check_against_engine(&plan, &storage, &view);
            assert!(stats.delta_rows_in > 0);

            // Delete the last match of R.k=2 — the outerjoin pad must
            // come back, the semi row must die, the anti row appear.
            let del = vec![Tuple::new(vec![Value::Int(2), Value::Int(200)])];
            let rel = storage.get("S").unwrap().relation().clone();
            let rows: Vec<Tuple> = rel
                .rows()
                .iter()
                .filter(|t| **t != del[0])
                .cloned()
                .collect();
            storage.insert("S", Relation::new(rel.schema().clone(), rows).unwrap());
            let d = dp
                .apply("S", &RowDelta::from_deletes(del), &mut stats)
                .unwrap();
            apply_to_view(&mut view, &d);
            check_against_engine(&plan, &storage, &view);
        }
    }

    #[test]
    fn full_outer_all_null_pad_collision_is_refcounted() {
        // L = {allnull}, R = {allnull}: both pads are the same all-null
        // output tuple; one derivation must survive deleting one side.
        let mut storage = Storage::new();
        let l = Relation::new(
            Arc::new(fro_algebra::Schema::new(vec![Attr::parse("L.x")]).unwrap()),
            vec![Tuple::new(vec![Value::Null])],
        )
        .unwrap();
        let r = Relation::new(
            Arc::new(fro_algebra::Schema::new(vec![Attr::parse("Rr.y")]).unwrap()),
            vec![Tuple::new(vec![Value::Null])],
        )
        .unwrap();
        storage.insert("L", l);
        storage.insert("Rr", r);
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe: Box::new(PhysPlan::scan("L")),
            build: Box::new(PhysPlan::scan("Rr")),
            probe_keys: vec![Attr::parse("L.x")],
            build_keys: vec![Attr::parse("Rr.y")],
            residual: Pred::always(),
        };
        let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
        let mut stats = ExecStats::new();
        let init = dp.initialize(&storage, &mut stats).unwrap();
        assert_eq!(init.len(), 1, "two pads collide into one all-null row");
        let mut view: BTreeSet<Tuple> = init.into_iter().collect();
        // Deleting the L row drops one derivation; the row survives.
        let d = dp
            .apply(
                "L",
                &RowDelta::from_deletes(vec![Tuple::new(vec![Value::Null])]),
                &mut stats,
            )
            .unwrap();
        assert!(d.is_empty(), "refcount absorbs the collision: {d:?}");
        apply_to_view(&mut view, &d);
        assert_eq!(view.len(), 1);
    }

    /// The one-column table over `attr` holding the values of `vals`
    /// whose bit is set in `mask`.
    fn one_column(attr: &str, vals: &[Value], mask: u8) -> Relation {
        let schema = fro_algebra::Schema::new(vec![Attr::parse(attr)]).unwrap();
        let rows = (0..vals.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| Tuple::new(vec![vals[i].clone()]))
            .collect();
        Relation::new(Arc::new(schema), rows).unwrap()
    }

    /// Every join kind, keyed and keyless, over every small world: `L(x)`
    /// and `R(y)` hold any subset of `{1, 2, null}` (the null row is
    /// all-null), and every sequence of up to three single-row appends
    /// or deletes runs from each of the 64 starting states (each step
    /// undone afterwards, and the undo checked too). After every step the
    /// maintained view equals `execute` of the plan, and the step's delta
    /// inserts no row already present and deletes none absent. Each plan
    /// has one join node, so its output delta is the view's delta.
    #[test]
    fn every_small_world_sequence_keeps_every_join_kind_exact() {
        const VALS: [Value; 3] = [Value::Int(1), Value::Int(2), Value::Null];
        // State bits 0..3 are L's rows, bits 3..6 R's.
        let world = |mask: u8| {
            let mut storage = Storage::new();
            storage.insert("L", one_column("L.x", &VALS, mask));
            storage.insert("R", one_column("R.y", &VALS, mask >> 3));
            storage
        };

        /// Toggle state bit `bit`: append the row if absent, else delete
        /// it, and check the view against the next state's result.
        fn toggle(
            dp: &mut DeltaPlan,
            view: &mut BTreeSet<Tuple>,
            mask: u8,
            bit: u8,
            expected: &[BTreeSet<Tuple>],
        ) -> u8 {
            let (rel, i) = if bit < 3 { ("L", bit) } else { ("R", bit - 3) };
            let row = vec![Tuple::new(vec![VALS[usize::from(i)].clone()])];
            let delta = if mask >> bit & 1 == 1 {
                RowDelta::from_deletes(row)
            } else {
                RowDelta::from_inserts(row)
            };
            let d = dp.apply(rel, &delta, &mut ExecStats::new()).unwrap();
            apply_to_view(view, &d);
            let next = mask ^ (1 << bit);
            assert_eq!(
                *view,
                expected[usize::from(next)],
                "{mask:#08b} -> {next:#08b}"
            );
            next
        }

        fn walk(
            dp: &mut DeltaPlan,
            view: &mut BTreeSet<Tuple>,
            mask: u8,
            depth: usize,
            expected: &[BTreeSet<Tuple>],
        ) {
            if depth == 0 {
                return;
            }
            for bit in 0..6 {
                let next = toggle(dp, view, mask, bit, expected);
                walk(dp, view, next, depth - 1, expected);
                toggle(dp, view, next, bit, expected);
            }
        }

        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::FullOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let keyed = PhysPlan::HashJoin {
                kind,
                probe: Box::new(PhysPlan::scan("L")),
                build: Box::new(PhysPlan::scan("R")),
                probe_keys: vec![Attr::parse("L.x")],
                build_keys: vec![Attr::parse("R.y")],
                residual: Pred::always(),
            };
            let keyless = PhysPlan::NlJoin {
                kind,
                left: Box::new(PhysPlan::scan("L")),
                right: Box::new(PhysPlan::scan("R")),
                pred: Pred::always(),
            };
            for plan in [keyed, keyless] {
                let expected: Vec<BTreeSet<Tuple>> = (0..64)
                    .map(|mask| {
                        let out = execute(&plan, &world(mask), &mut ExecStats::new()).unwrap();
                        out.rows().iter().cloned().collect()
                    })
                    .collect();
                for start in 0..64u8 {
                    let storage = world(start);
                    let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
                    let init = dp.initialize(&storage, &mut ExecStats::new()).unwrap();
                    let mut view: BTreeSet<Tuple> = init.iter().cloned().collect();
                    assert_eq!(view.len(), init.len(), "{kind:?}: duplicate initial row");
                    assert_eq!(
                        view,
                        expected[usize::from(start)],
                        "{kind:?} at {start:#08b}"
                    );
                    walk(&mut dp, &mut view, start, 3, &expected);
                }
            }
        }
    }

    #[test]
    fn left_outer_all_null_right_row_turns_a_pad_into_an_identical_real_row() {
        // L = {1}, R = {}: the view is the pad (1, null). Appending R's
        // all-null row under an always-true residual makes the real row
        // (1, null): the pad's retraction and the real row's emission
        // cancel, so the view does not change; deleting it undoes both.
        let vals = [Value::Int(1), Value::Null];
        let mut storage = Storage::new();
        storage.insert("L", one_column("L.x", &vals, 0b01));
        storage.insert("R", one_column("R.y", &vals, 0b00));
        let plan = PhysPlan::NlJoin {
            kind: JoinKind::LeftOuter,
            left: Box::new(PhysPlan::scan("L")),
            right: Box::new(PhysPlan::scan("R")),
            pred: Pred::always(),
        };
        let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
        let mut stats = ExecStats::new();
        let init = dp.initialize(&storage, &mut stats).unwrap();
        let pad = Tuple::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(init, vec![pad.clone()]);
        let view: BTreeSet<Tuple> = init.into_iter().collect();
        let null_row = vec![Tuple::new(vec![Value::Null])];
        storage.insert("R", one_column("R.y", &vals, 0b10));
        let d = dp
            .apply("R", &RowDelta::from_inserts(null_row.clone()), &mut stats)
            .unwrap();
        assert!(d.is_empty(), "pad and real row cancel: {d:?}");
        check_against_engine(&plan, &storage, &view);
        storage.insert("R", one_column("R.y", &vals, 0b00));
        let d = dp
            .apply("R", &RowDelta::from_deletes(null_row), &mut stats)
            .unwrap();
        assert!(d.is_empty(), "real row and pad cancel: {d:?}");
        check_against_engine(&plan, &storage, &view);
    }

    #[test]
    fn inner_chain_holds_each_input_row_once() {
        // (A ⋈ B) ⋈ C: the lower join holds A's and B's rows, the upper
        // one A ⋈ B's and C's; neither holds a copy of its output.
        let mut storage = Storage::new();
        storage.insert("A", Relation::from_ints("A", &["k"], &[&[1], &[2], &[3]]));
        storage.insert(
            "B",
            Relation::from_ints("B", &["k", "j"], &[&[1, 10], &[1, 11], &[2, 10], &[4, 12]]),
        );
        storage.insert("C", Relation::from_ints("C", &["j"], &[&[10], &[11]]));
        let ab = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("A")),
            build: Box::new(PhysPlan::scan("B")),
            probe_keys: vec![Attr::parse("A.k")],
            build_keys: vec![Attr::parse("B.k")],
            residual: Pred::always(),
        };
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(ab.clone()),
            build: Box::new(PhysPlan::scan("C")),
            probe_keys: vec![Attr::parse("B.j")],
            build_keys: vec![Attr::parse("C.j")],
            residual: Pred::always(),
        };
        let inputs = |storage: &Storage| {
            let ab_rows = execute(&ab, storage, &mut ExecStats::new()).unwrap().len();
            ["A", "B", "C"]
                .iter()
                .map(|rel| storage.get(rel).unwrap().relation().len())
                .sum::<usize>()
                + ab_rows
        };
        let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
        let mut stats = ExecStats::new();
        let init = dp.initialize(&storage, &mut stats).unwrap();
        assert_eq!(init.len(), 3);
        assert_eq!(dp.retained_rows(), 12);
        assert_eq!(dp.retained_rows(), inputs(&storage));

        // An appended B row joins A and C: both joins grow by one input row.
        let add = vec![Tuple::new(vec![Value::Int(3), Value::Int(11)])];
        let rel = storage.get("B").unwrap().relation().clone();
        let mut rows = rel.rows().to_vec();
        rows.extend(add.clone());
        storage.insert("B", Relation::new(rel.schema().clone(), rows).unwrap());
        let d = dp
            .apply("B", &RowDelta::from_inserts(add), &mut stats)
            .unwrap();
        assert_eq!(d.inserts.len(), 1);
        assert_eq!(dp.retained_rows(), 14);
        assert_eq!(dp.retained_rows(), inputs(&storage));
    }

    #[test]
    fn unsupported_operators_refuse_a_delta_plan() {
        let storage = storage_rs();
        let plan = PhysPlan::GroupCount {
            input: Box::new(PhysPlan::scan("R")),
            group_attrs: vec![Attr::parse("R.k")],
            counted: None,
        };
        assert!(DeltaPlan::try_build(&plan, &storage).is_none());
        assert!(DeltaPlan::try_build(&PhysPlan::scan("missing"), &storage).is_none());
    }

    #[test]
    fn normalize_cancels_oscillations() {
        let t = Tuple::new(vec![Value::Int(1)]);
        let d = RowDelta {
            inserts: vec![t.clone()],
            deletes: vec![t.clone()],
        };
        assert!(d.normalize().is_empty());
    }
}
