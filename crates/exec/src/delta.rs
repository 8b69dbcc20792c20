//! Incremental delta maintenance for standing views.
//!
//! A [`DeltaPlan`] is a maintenance-shaped mirror of a [`PhysPlan`]:
//! scans, filters, and joins (every physical join flavor collapses to
//! one delta join node; [`PhysPlan::SemiReduce`] wrappers are dropped
//! because reduction is semantically transparent). Each join node keeps
//! the state a delta needs — both inputs indexed by their equi-keys,
//! per-row match counts for the preserving/filtering kinds, and a
//! derivation refcount on its output so null-pad collisions (the
//! all-null full-outer pad meeting a real all-null row) resolve exactly
//! as the execution engine resolves them.
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
//! Views are registered and owned one level up (the `fro` facade);
//! this module is pure mechanism: build a [`DeltaPlan`] from a
//! physical plan, [`DeltaPlan::initialize`] it against storage (with
//! leaf build sides optionally cloned from a [`BuildSidePool`] instead
//! of rebuilt — Finkelstein-style reuse between standing queries whose
//! graphs overlap), then [`DeltaPlan::apply`] base-relation deltas and
//! fold the returned root delta into the maintained result.

use crate::engine::ExecError;
use crate::plan::{JoinKind, PhysPlan};
use crate::stats::ExecStats;
use crate::storage::Storage;
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

/// One side of a delta join, indexed by its equi-key. Null-keyed rows
/// are held apart: they never match, but full-outer pads and deletions
/// still need to find them.
#[derive(Debug, Clone, Default)]
pub struct SideIndex {
    by_key: FastMap<Vec<Value>, BTreeSet<Tuple>>,
    null_keyed: BTreeSet<Tuple>,
}

impl SideIndex {
    fn insert(&mut self, key: Option<Vec<Value>>, t: Tuple) {
        let fresh = match key {
            Some(k) => self.by_key.entry(k).or_default().insert(t),
            None => self.null_keyed.insert(t),
        };
        debug_assert!(fresh, "side rows are sets; duplicate insert");
    }

    fn remove(&mut self, key: &Option<Vec<Value>>, t: &Tuple) {
        match key {
            Some(k) => {
                if let Some(set) = self.by_key.get_mut(k) {
                    set.remove(t);
                    if set.is_empty() {
                        self.by_key.remove(k);
                    }
                }
            }
            None => {
                self.null_keyed.remove(t);
            }
        }
    }

    fn bucket(&self, key: &[Value]) -> impl Iterator<Item = &Tuple> {
        self.by_key.get(key).into_iter().flatten()
    }

    /// Every row of this side, null-keyed rows included.
    pub fn rows(&self) -> impl Iterator<Item = &Tuple> {
        self.by_key.values().flatten().chain(self.null_keyed.iter())
    }

    /// Number of rows held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_key.values().map(BTreeSet::len).sum::<usize>() + self.null_keyed.len()
    }

    /// True when the side holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty() && self.null_keyed.is_empty()
    }
}

/// Identity of a poolable leaf build side: the base relation, the
/// resolved key columns, and the filter predicate applied on top of
/// the scan (rendered — predicate display is injective enough for a
/// cache key, and a miss only costs a rebuild).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SideKey {
    rel: String,
    cols: Vec<usize>,
    pred: String,
}

/// A cross-view pool of finished leaf build sides. When two standing
/// queries' graphs overlap (one a prefix or extension of the other, in
/// Finkelstein's sense), the shared base relations produce identical
/// `(rel, keys, filter)` leaf sides — the second registration clones
/// the pooled index instead of re-scanning, re-filtering and
/// re-hashing the base table. The owner invalidates pooled entries
/// whenever their base relation mutates.
#[derive(Debug, Default)]
pub struct BuildSidePool {
    sides: FastMap<SideKey, Arc<SideIndex>>,
    hits: u64,
}

impl BuildSidePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> BuildSidePool {
        BuildSidePool::default()
    }

    /// Number of pooled sides.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// True when nothing is pooled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// How many registrations reused a pooled side instead of
    /// rebuilding it.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Drop every pooled side built over `rel` (its contents changed).
    pub fn invalidate_rel(&mut self, rel: &str) {
        self.sides.retain(|k, _| k.rel != rel);
    }

    /// Drop everything (a structural change of unknown scope).
    pub fn clear(&mut self) {
        self.sides.clear();
    }
}

/// Per-node state of a delta join.
#[derive(Debug)]
struct JoinNode {
    kind: JoinKind,
    left: usize,
    right: usize,
    left_cols: Vec<usize>,
    right_cols: Vec<usize>,
    residual: Pred,
    /// `left ++ right` — the schema residuals evaluate against.
    pair_schema: SchemaRef,
    left_width: usize,
    right_width: usize,
    left_index: SideIndex,
    right_index: SideIndex,
    /// Current match count per left row (all kinds except `Inner`).
    match_left: FastMap<Tuple, i64>,
    /// Current match count per right row (`FullOuter` only).
    match_right: FastMap<Tuple, i64>,
    /// Derivation refcount per output tuple: pads and real rows can
    /// collide on all-null tuples, exactly like in the engine.
    out: FastMap<Tuple, i64>,
    /// Set when the right subtree is a bare or filtered scan — the
    /// shapes eligible for cross-view build-side pooling.
    right_leaf: Option<SideKey>,
}

#[derive(Debug)]
enum DeltaNode {
    Scan { rel: String },
    Filter { input: usize, pred: Pred },
    Join(Box<JoinNode>),
}

/// A maintenance plan: the delta-operator mirror of one physical plan,
/// plus all per-join state. Nodes live in a post-order arena (children
/// strictly before parents; the root is last).
#[derive(Debug)]
pub struct DeltaPlan {
    nodes: Vec<DeltaNode>,
    schemas: Vec<SchemaRef>,
    rels: Vec<String>,
}

impl DeltaPlan {
    /// Mirror `plan` into delta operators, resolving key attributes to
    /// column offsets against `storage`'s schemas. Returns `None` when
    /// the plan contains an operator with no delta form (`Project`,
    /// `GroupCount`, `Goj`) or references an unknown table/attribute —
    /// the caller then falls back to refresh-on-poll maintenance.
    #[must_use]
    pub fn try_build(plan: &PhysPlan, storage: &Storage) -> Option<DeltaPlan> {
        let mut dp = DeltaPlan {
            nodes: Vec::new(),
            schemas: Vec::new(),
            rels: Vec::new(),
        };
        dp.build(plan, storage)?;
        dp.rels.sort();
        dp.rels.dedup();
        Some(dp)
    }

    /// The distinct base relations the plan reads (sorted).
    #[must_use]
    pub fn rels(&self) -> &[String] {
        &self.rels
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
        self.rels.push(rel.to_string());
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
                Some(self.push(
                    DeltaNode::Filter {
                        input: child,
                        pred: pred.clone(),
                    },
                    schema,
                ))
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
        let right_leaf = leaf_side_key(right, &right_cols);
        let out_schema = match kind {
            JoinKind::Semi | JoinKind::Anti => ls.clone(),
            _ => pair_schema.clone(),
        };
        let node = JoinNode {
            kind,
            left: l,
            right: r,
            left_cols,
            right_cols,
            residual: residual.clone(),
            pair_schema,
            left_width: ls.len(),
            right_width: rs.len(),
            left_index: SideIndex::default(),
            right_index: SideIndex::default(),
            match_left: FastMap::default(),
            match_right: FastMap::default(),
            out: FastMap::default(),
            right_leaf,
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
                jn.match_left.clear();
                jn.match_right.clear();
                jn.out.clear();
            }
        }
    }

    /// Materialize the view from scratch against `storage`, building
    /// every join's side indexes and match counts along the way. Leaf
    /// build sides found in `pool` are cloned instead of rebuilt (and
    /// freshly built ones are contributed back). Returns the full
    /// result rows (deduplicated, unordered).
    pub fn initialize(
        &mut self,
        storage: &Storage,
        pool: &mut BuildSidePool,
        stats: &mut ExecStats,
    ) -> Result<Vec<Tuple>, ExecError> {
        self.reset();
        // Resolve pool hits up front: a hit lets the join skip
        // computing its (leaf) right subtree entirely.
        let mut pooled: FastMap<usize, SideIndex> = FastMap::default();
        let mut skip: Vec<bool> = vec![false; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            let DeltaNode::Join(jn) = node else { continue };
            let Some(key) = &jn.right_leaf else { continue };
            if let Some(side) = pool.sides.get(key) {
                pool.hits += 1;
                pooled.insert(id, (**side).clone());
                mark_subtree(&self.nodes, jn.right, &mut skip);
            }
        }
        let mut outs: Vec<Vec<Tuple>> = Vec::with_capacity(self.nodes.len());
        for (id, &skipped) in skip.iter().enumerate() {
            if skipped {
                outs.push(Vec::new());
                continue;
            }
            let mut node =
                std::mem::replace(&mut self.nodes[id], DeltaNode::Scan { rel: String::new() });
            let rows = match &mut node {
                DeltaNode::Scan { rel } => {
                    let rows = storage.lookup_named(rel)?.relation().rows().to_vec();
                    stats.tuples_retrieved += rows.len() as u64;
                    rows
                }
                DeltaNode::Filter { input, pred } => {
                    let schema = &self.schemas[*input];
                    let mut kept = Vec::new();
                    for t in std::mem::take(&mut outs[*input]) {
                        if pred.eval(&t, schema).map_err(ExecError::Algebra)?.is_true() {
                            kept.push(t);
                        }
                    }
                    kept
                }
                DeltaNode::Join(jn) => {
                    let left_rows = std::mem::take(&mut outs[jn.left]);
                    let right = match pooled.remove(&id) {
                        Some(side) => side,
                        None => {
                            let mut side = SideIndex::default();
                            for t in std::mem::take(&mut outs[jn.right]) {
                                let key = key_of(&t, &jn.right_cols);
                                side.insert(key, t);
                                stats.hash_build_rows += 1;
                            }
                            if let Some(key) = &jn.right_leaf {
                                pool.sides.insert(key.clone(), Arc::new(side.clone()));
                            }
                            side
                        }
                    };
                    init_join(jn, left_rows, right, stats)?
                }
            };
            self.nodes[id] = node;
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
        for id in 0..self.nodes.len() {
            let mut node =
                std::mem::replace(&mut self.nodes[id], DeltaNode::Scan { rel: String::new() });
            let d = match &mut node {
                DeltaNode::Scan { rel } => {
                    if rel.as_str() == base {
                        stats.delta_rows_in += delta.len() as u64;
                        delta.clone()
                    } else {
                        RowDelta::default()
                    }
                }
                DeltaNode::Filter { input, pred } => {
                    let schema = &self.schemas[*input];
                    let child = std::mem::take(&mut deltas[*input]);
                    stats.delta_rows_in += child.len() as u64;
                    let mut d = RowDelta::default();
                    for t in child.inserts {
                        if pred.eval(&t, schema).map_err(ExecError::Algebra)?.is_true() {
                            d.inserts.push(t);
                        }
                    }
                    for t in child.deletes {
                        if pred.eval(&t, schema).map_err(ExecError::Algebra)?.is_true() {
                            d.deletes.push(t);
                        }
                    }
                    d
                }
                DeltaNode::Join(jn) => {
                    let dl = std::mem::take(&mut deltas[jn.left]);
                    let dr = std::mem::take(&mut deltas[jn.right]);
                    stats.delta_rows_in += (dl.len() + dr.len()) as u64;
                    apply_join(jn, dl, dr)?
                }
            };
            self.nodes[id] = node;
            deltas.push(d);
        }
        Ok(deltas
            .pop()
            .expect("plan has at least one node")
            .normalize())
    }
}

/// The pool key of a right subtree that is a bare or filtered scan.
fn leaf_side_key(plan: &PhysPlan, cols: &[usize]) -> Option<SideKey> {
    match plan {
        PhysPlan::Scan { rel } => Some(SideKey {
            rel: rel.clone(),
            cols: cols.to_vec(),
            pred: String::new(),
        }),
        PhysPlan::Filter { input, pred } => match input.as_ref() {
            PhysPlan::Scan { rel } => Some(SideKey {
                rel: rel.clone(),
                cols: cols.to_vec(),
                pred: pred.to_string(),
            }),
            _ => None,
        },
        _ => None,
    }
}

/// Mark `root` and its descendants in `skip`.
fn mark_subtree(nodes: &[DeltaNode], root: usize, skip: &mut [bool]) {
    skip[root] = true;
    match &nodes[root] {
        DeltaNode::Scan { .. } => {}
        DeltaNode::Filter { input, .. } => mark_subtree(nodes, *input, skip),
        DeltaNode::Join(jn) => {
            mark_subtree(nodes, jn.left, skip);
            mark_subtree(nodes, jn.right, skip);
        }
    }
}

/// Matching rows of `index` for probe row `probe`: equi-key bucket
/// filtered by the residual over the concatenated pair. `probe_is_left`
/// fixes the concatenation order.
fn matching_rows(
    index: &SideIndex,
    key: &Option<Vec<Value>>,
    probe: &Tuple,
    probe_is_left: bool,
    residual: &Pred,
    pair_schema: &SchemaRef,
) -> Result<Vec<Tuple>, ExecError> {
    let Some(key) = key else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for cand in index.bucket(key) {
        let pair = if probe_is_left {
            probe.concat(cand)
        } else {
            cand.concat(probe)
        };
        if residual
            .eval(&pair, pair_schema)
            .map_err(ExecError::Algebra)?
            .is_true()
        {
            out.push(cand.clone());
        }
    }
    Ok(out)
}

/// Bump the derivation refcount of `t`, recording a set-level insert
/// on the `0 → 1` transition.
fn emit(out: &mut FastMap<Tuple, i64>, t: Tuple, d: &mut RowDelta) {
    let c = out.entry(t.clone()).or_insert(0);
    *c += 1;
    if *c == 1 {
        d.inserts.push(t);
    }
}

/// Drop one derivation of `t`, recording a set-level delete on the
/// `1 → 0` transition.
fn retract(out: &mut FastMap<Tuple, i64>, t: Tuple, d: &mut RowDelta) {
    match out.get_mut(&t) {
        Some(c) => {
            *c -= 1;
            if *c == 0 {
                out.remove(&t);
                d.deletes.push(t);
            }
        }
        None => debug_assert!(false, "retract of underived tuple"),
    }
}

/// Initial join materialization: `right` is already indexed (built or
/// pooled); insert every left row against it, then complete the
/// full-outer right pads. Populates `jn`'s indexes, match counts, and
/// output refcounts; returns the join's full output.
fn init_join(
    jn: &mut JoinNode,
    left_rows: Vec<Tuple>,
    right: SideIndex,
    stats: &mut ExecStats,
) -> Result<Vec<Tuple>, ExecError> {
    jn.right_index = right;
    let mut sink = RowDelta::default();
    for l in left_rows {
        let key = key_of(&l, &jn.left_cols);
        let ms = matching_rows(
            &jn.right_index,
            &key,
            &l,
            true,
            &jn.residual,
            &jn.pair_schema,
        )?;
        if jn.kind != JoinKind::Inner {
            jn.match_left.insert(l.clone(), ms.len() as i64);
        }
        match jn.kind {
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter => {
                for r in &ms {
                    if jn.kind == JoinKind::FullOuter {
                        *jn.match_right.entry(r.clone()).or_insert(0) += 1;
                    }
                    emit(&mut jn.out, l.concat(r), &mut sink);
                }
                if ms.is_empty() && jn.kind != JoinKind::Inner {
                    emit(
                        &mut jn.out,
                        l.concat(&Tuple::nulls(jn.right_width)),
                        &mut sink,
                    );
                }
            }
            JoinKind::Semi => {
                if !ms.is_empty() {
                    emit(&mut jn.out, l.clone(), &mut sink);
                }
            }
            JoinKind::Anti => {
                if ms.is_empty() {
                    emit(&mut jn.out, l.clone(), &mut sink);
                }
            }
        }
        jn.left_index.insert(key, l);
        stats.hash_build_rows += 1;
    }
    if jn.kind == JoinKind::FullOuter {
        let pads: Vec<Tuple> = jn
            .right_index
            .rows()
            .filter(|r| jn.match_right.get(*r).copied().unwrap_or(0) == 0)
            .map(|r| Tuple::nulls(jn.left_width).concat(r))
            .collect();
        for pad in pads {
            emit(&mut jn.out, pad, &mut sink);
        }
    }
    Ok(jn.out.keys().cloned().collect())
}

/// One incremental step of a delta join: apply the left delta against
/// the old right state, then the right delta against the updated left
/// state. Returns the set-level output delta.
fn apply_join(jn: &mut JoinNode, dl: RowDelta, dr: RowDelta) -> Result<RowDelta, ExecError> {
    let mut d = RowDelta::default();
    let (lw, rw) = (jn.left_width, jn.right_width);

    // Phase A: left deletes, then left inserts, against R as it stands.
    for l in &dl.deletes {
        let key = key_of(l, &jn.left_cols);
        jn.left_index.remove(&key, l);
        let ms = matching_rows(
            &jn.right_index,
            &key,
            l,
            true,
            &jn.residual,
            &jn.pair_schema,
        )?;
        if jn.kind != JoinKind::Inner {
            let mc = jn.match_left.remove(l).unwrap_or(0);
            debug_assert_eq!(mc as usize, ms.len(), "match count drifted");
        }
        match jn.kind {
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter => {
                for r in &ms {
                    retract(&mut jn.out, l.concat(r), &mut d);
                    if jn.kind == JoinKind::FullOuter {
                        let rc = jn.match_right.entry(r.clone()).or_insert(0);
                        *rc -= 1;
                        if *rc == 0 {
                            emit(&mut jn.out, Tuple::nulls(lw).concat(r), &mut d);
                        }
                    }
                }
                if ms.is_empty() && jn.kind != JoinKind::Inner {
                    retract(&mut jn.out, l.concat(&Tuple::nulls(rw)), &mut d);
                }
            }
            JoinKind::Semi => {
                if !ms.is_empty() {
                    retract(&mut jn.out, l.clone(), &mut d);
                }
            }
            JoinKind::Anti => {
                if ms.is_empty() {
                    retract(&mut jn.out, l.clone(), &mut d);
                }
            }
        }
    }
    for l in &dl.inserts {
        let key = key_of(l, &jn.left_cols);
        let ms = matching_rows(
            &jn.right_index,
            &key,
            l,
            true,
            &jn.residual,
            &jn.pair_schema,
        )?;
        if jn.kind != JoinKind::Inner {
            jn.match_left.insert(l.clone(), ms.len() as i64);
        }
        match jn.kind {
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter => {
                for r in &ms {
                    emit(&mut jn.out, l.concat(r), &mut d);
                    if jn.kind == JoinKind::FullOuter {
                        let rc = jn.match_right.entry(r.clone()).or_insert(0);
                        *rc += 1;
                        if *rc == 1 {
                            retract(&mut jn.out, Tuple::nulls(lw).concat(r), &mut d);
                        }
                    }
                }
                if ms.is_empty() && jn.kind != JoinKind::Inner {
                    emit(&mut jn.out, l.concat(&Tuple::nulls(rw)), &mut d);
                }
            }
            JoinKind::Semi => {
                if !ms.is_empty() {
                    emit(&mut jn.out, l.clone(), &mut d);
                }
            }
            JoinKind::Anti => {
                if ms.is_empty() {
                    emit(&mut jn.out, l.clone(), &mut d);
                }
            }
        }
        jn.left_index.insert(key, l.clone());
    }

    // Phase B: right deletes, then right inserts, against updated L.
    for r in &dr.deletes {
        let key = key_of(r, &jn.right_cols);
        jn.right_index.remove(&key, r);
        let rc = if jn.kind == JoinKind::FullOuter {
            jn.match_right.remove(r).unwrap_or(0)
        } else {
            0
        };
        let ms = matching_rows(
            &jn.left_index,
            &key,
            r,
            false,
            &jn.residual,
            &jn.pair_schema,
        )?;
        for l in &ms {
            match jn.kind {
                JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter => {
                    retract(&mut jn.out, l.concat(r), &mut d);
                }
                JoinKind::Semi | JoinKind::Anti => {}
            }
            if jn.kind != JoinKind::Inner {
                let mc = jn.match_left.entry(l.clone()).or_insert(0);
                *mc -= 1;
                if *mc == 0 {
                    match jn.kind {
                        JoinKind::LeftOuter | JoinKind::FullOuter => {
                            emit(&mut jn.out, l.concat(&Tuple::nulls(rw)), &mut d);
                        }
                        JoinKind::Semi => retract(&mut jn.out, l.clone(), &mut d),
                        JoinKind::Anti => emit(&mut jn.out, l.clone(), &mut d),
                        JoinKind::Inner => unreachable!(),
                    }
                }
            }
        }
        if jn.kind == JoinKind::FullOuter && rc == 0 {
            retract(&mut jn.out, Tuple::nulls(lw).concat(r), &mut d);
        }
    }
    for r in &dr.inserts {
        let key = key_of(r, &jn.right_cols);
        let ms = matching_rows(
            &jn.left_index,
            &key,
            r,
            false,
            &jn.residual,
            &jn.pair_schema,
        )?;
        if jn.kind == JoinKind::FullOuter {
            jn.match_right.insert(r.clone(), ms.len() as i64);
            if ms.is_empty() {
                emit(&mut jn.out, Tuple::nulls(lw).concat(r), &mut d);
            }
        }
        for l in &ms {
            match jn.kind {
                JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter => {
                    emit(&mut jn.out, l.concat(r), &mut d);
                }
                JoinKind::Semi | JoinKind::Anti => {}
            }
            if jn.kind != JoinKind::Inner {
                let mc = jn.match_left.entry(l.clone()).or_insert(0);
                *mc += 1;
                if *mc == 1 {
                    match jn.kind {
                        JoinKind::LeftOuter | JoinKind::FullOuter => {
                            retract(&mut jn.out, l.concat(&Tuple::nulls(rw)), &mut d);
                        }
                        JoinKind::Semi => emit(&mut jn.out, l.clone(), &mut d),
                        JoinKind::Anti => retract(&mut jn.out, l.clone(), &mut d),
                        JoinKind::Inner => unreachable!(),
                    }
                }
            }
        }
        jn.right_index.insert(key, r.clone());
    }
    Ok(d.normalize())
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
    fn check_against_engine(
        plan: &PhysPlan,
        storage: &Storage,
        dp: &DeltaPlan,
        view: &BTreeSet<Tuple>,
    ) {
        let mut stats = ExecStats::new();
        let expect = execute(plan, storage, &mut stats).unwrap();
        let mut rows: Vec<Tuple> = expect.rows().to_vec();
        rows.sort_unstable();
        let got: Vec<Tuple> = view.iter().cloned().collect();
        assert_eq!(got, rows, "maintained view diverged for {:?}", dp.rels());
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
            let mut pool = BuildSidePool::new();
            let mut stats = ExecStats::new();
            let init = dp.initialize(&storage, &mut pool, &mut stats).unwrap();
            let mut view: BTreeSet<Tuple> = init.into_iter().collect();
            check_against_engine(&plan, &storage, &dp, &view);

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
            check_against_engine(&plan, &storage, &dp, &view);
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
            check_against_engine(&plan, &storage, &dp, &view);
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
        let mut pool = BuildSidePool::new();
        let mut stats = ExecStats::new();
        let init = dp.initialize(&storage, &mut pool, &mut stats).unwrap();
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
    fn pool_reuses_leaf_build_sides() {
        let storage = storage_rs();
        let plan = join_plan(JoinKind::Inner);
        let mut pool = BuildSidePool::new();
        let mut stats = ExecStats::new();
        let mut dp1 = DeltaPlan::try_build(&plan, &storage).unwrap();
        dp1.initialize(&storage, &mut pool, &mut stats).unwrap();
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.len(), 1);
        let built_before = stats.hash_build_rows;
        let mut dp2 = DeltaPlan::try_build(&plan, &storage).unwrap();
        dp2.initialize(&storage, &mut pool, &mut stats).unwrap();
        assert_eq!(pool.hits(), 1, "second registration reuses the side");
        // The pooled side's rows were not re-hashed; only left rows were.
        assert_eq!(stats.hash_build_rows - built_before, 3);
        pool.invalidate_rel("S");
        assert!(pool.is_empty());
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
