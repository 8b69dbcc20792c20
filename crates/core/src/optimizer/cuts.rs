//! Shared cut machinery: the interned, bitset form of predicate
//! splitting and cut classification used by every reordering path.
//!
//! The paper's DP (§6.1) enumerates 2-partitions — *cuts* — of
//! connected node sets. Everything an optimizer wants to know about a
//! cut (its crossing edges, the operator it admits, the equi-key
//! pairs, the residual predicate, the combined selectivity, whether an
//! index join applies) is a function of the unordered pair of
//! [`RelSet`]s alone. This module resolves every string exactly once —
//! attribute names to `(relation, column)` at `CutCtx` construction,
//! relation names to dense node ids in [`RelMap`] — so the DP answers
//! each cut from bitsets and never re-derives anything from strings.
//! The DP visits each cut once, so the answers are not memoized.

use super::dp::Entry;
use super::stats::Catalog;
use fro_algebra::{Attr, CmpOp, Pred, RelId, RelSet, Scalar};
use fro_exec::{JoinKind, PhysPlan};
use fro_graph::{EdgeKind, QueryGraph};
use std::collections::HashMap;

/// Per-query mapping between relation names and the query's dense
/// relation ids. A query graph's node ids *are* those dense ids, so
/// for graph-driven optimization this is just the node list — plus the
/// catalog-level [`RelId`] of each node, resolved once.
#[derive(Debug, Clone)]
pub struct RelMap {
    ids: HashMap<String, usize>,
    cat_ids: Vec<Option<RelId>>,
}

impl RelMap {
    /// Build from a query graph: node `i` is relation id `i`.
    #[must_use]
    pub fn from_graph(g: &QueryGraph, catalog: &Catalog) -> RelMap {
        RelMap::from_rels(g.node_names().iter().cloned(), catalog)
    }

    /// Build from an ordered list of distinct relation names.
    #[must_use]
    pub(crate) fn from_rels(rels: impl IntoIterator<Item = String>, catalog: &Catalog) -> RelMap {
        let mut ids = HashMap::new();
        let mut cat_ids = Vec::new();
        for (i, name) in rels.into_iter().enumerate() {
            cat_ids.push(catalog.rel_id(&name));
            ids.insert(name, i);
        }
        RelMap { ids, cat_ids }
    }

    /// The dense id of a relation name.
    #[must_use]
    pub(crate) fn node_of(&self, rel: &str) -> Option<usize> {
        self.ids.get(rel).copied()
    }

    /// The catalog-level [`RelId`] of a node, when the catalog knows
    /// the table.
    #[must_use]
    pub(crate) fn cat_id(&self, i: usize) -> Option<RelId> {
        self.cat_ids[i]
    }
}

/// Split a predicate into equi-join key pairs `(left_attr,
/// right_attr)` across the given relation sets, plus the residual
/// predicate of everything else. This is the canonical, bitset form:
/// side membership is a single bit test per conjunct attribute. (The
/// name-keyed `BTreeSet<String>` variant survives crate-privately as a
/// compatibility shim and `testing-oracles` oracle.)
#[must_use]
pub fn split_equi(
    pred: &Pred,
    left: RelSet,
    right: RelSet,
    rels: &RelMap,
) -> (Vec<(Attr, Attr)>, Pred) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for conj in pred.conjuncts() {
        if let Pred::Cmp {
            op: CmpOp::Eq,
            lhs: Scalar::Attr(a),
            rhs: Scalar::Attr(b),
        } = &conj
        {
            let an = rels.node_of(a.rel());
            let bn = rels.node_of(b.rel());
            if let (Some(an), Some(bn)) = (an, bn) {
                if left.contains(an) && right.contains(bn) {
                    pairs.push((a.clone(), b.clone()));
                    continue;
                }
                if left.contains(bn) && right.contains(an) {
                    pairs.push((b.clone(), a.clone()));
                    continue;
                }
            }
        }
        residual.push(conj);
    }
    (pairs, Pred::from_conjuncts(residual))
}

/// One equi conjunct `a = b`, fully resolved: node ids for side tests,
/// catalog column offsets for index checks, and its selectivity — all
/// computed once at [`CutCtx`] construction.
#[derive(Debug, Clone)]
struct EqConjunct {
    a: Attr,
    b: Attr,
    a_node: usize,
    b_node: usize,
    a_col: Option<u32>,
    b_col: Option<u32>,
    /// [`Catalog::eq_selectivity`], measured once per conjunct.
    sel: f64,
}

/// One conjunct of an edge predicate with its precomputed resolution.
#[derive(Debug, Clone)]
struct Conjunct {
    pred: Pred,
    eq: Option<EqConjunct>,
    /// [`Catalog::selectivity`] of `pred`, for when it is residual.
    sel: f64,
}

/// Which operator (if any) a cut admits, with the outerjoin's probe
/// side expressed relative to the cut's canonical `lo` side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CutClass {
    /// At least one crossing edge, all of them join edges.
    Joins,
    /// Exactly one crossing edge, an outerjoin whose preserved side is
    /// the cut's `lo` half.
    OuterjoinProbeLo,
    /// Exactly one crossing edge, an outerjoin whose preserved side is
    /// the cut's `hi` half.
    OuterjoinProbeHi,
    /// Cartesian (no crossing edge) or mixed — no single operator.
    None,
}

/// What the DP needs to cost one unordered cut — computed per split,
/// without building any predicate. `lo` is the side whose bitset
/// compares smaller.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutInfo {
    pub(crate) class: CutClass,
    /// Whether an equi conjunct crosses the cut (a hash or index join
    /// needs one).
    has_keys: bool,
    /// Product of the key pairs' equality selectivities.
    key_sel: f64,
    /// Selectivity of the residual predicate.
    residual_sel: f64,
    /// Whether the lo side is a single base table with an index on
    /// exactly its key columns (the index-join precondition).
    index_lo: bool,
    /// Same for the hi side.
    index_hi: bool,
}

impl CutInfo {
    fn build_has_index(&self, probe_is_lo: bool) -> bool {
        if probe_is_lo {
            self.index_hi
        } else {
            self.index_lo
        }
    }
}

/// The predicates of one unordered cut, built only for a subset's
/// winning cut.
#[derive(Debug, Clone)]
pub(crate) struct CutPreds {
    /// Equi key pairs, lo-side attribute first, in conjunct order.
    pairs_lo: Vec<(Attr, Attr)>,
    /// Non-equi conjuncts, reassembled.
    residual: Pred,
    /// The full cut predicate (for nested-loop joins), rebuilt from
    /// the crossing edges' predicates in edge order.
    full_pred: Pred,
}

impl CutPreds {
    /// Key attributes as `(probe, build)` vectors.
    fn keys(&self, probe_is_lo: bool) -> (Vec<Attr>, Vec<Attr>) {
        self.pairs_lo
            .iter()
            .map(|(lo, hi)| {
                if probe_is_lo {
                    (lo.clone(), hi.clone())
                } else {
                    (hi.clone(), lo.clone())
                }
            })
            .unzip()
    }
}

/// The physical shape of a join candidate — costed arithmetically
/// first; a [`PhysPlan`] is built only for the winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    Nl,
    Index,
    Hash,
}

/// A costed join candidate over a cut, before any plan is built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) cost: f64,
    pub(crate) rows: f64,
    pub(crate) shape: Shape,
    pub(crate) kind: JoinKind,
    /// Whether the probe side is the cut's `lo` half.
    pub(crate) probe_is_lo: bool,
}

/// Per-graph cut context: the resolved conjuncts of every edge. Build
/// one per optimization run.
pub(crate) struct CutCtx<'a> {
    g: &'a QueryGraph,
    catalog: &'a Catalog,
    relmap: RelMap,
    /// Resolved conjuncts per edge, same index as `g.edges()`.
    conjuncts: Vec<Vec<Conjunct>>,
}

impl<'a> CutCtx<'a> {
    /// Resolve every edge conjunct once: attribute → node id, catalog
    /// column offset, and selectivity.
    pub(crate) fn new(g: &'a QueryGraph, catalog: &'a Catalog) -> CutCtx<'a> {
        let relmap = RelMap::from_graph(g, catalog);
        let conjuncts = g
            .edges()
            .iter()
            .map(|e| {
                e.pred()
                    .conjuncts()
                    .into_iter()
                    .map(|conj| {
                        let eq = resolve_eq(&conj, &relmap, catalog);
                        let sel = catalog.selectivity(&conj);
                        Conjunct {
                            pred: conj,
                            eq,
                            sel,
                        }
                    })
                    .collect()
            })
            .collect();
        CutCtx {
            g,
            catalog,
            relmap,
            conjuncts,
        }
    }

    /// `(lo, hi)`: the pair ordered by bits.
    fn order(left: RelSet, right: RelSet) -> (RelSet, RelSet) {
        if left.bits() <= right.bits() {
            (left, right)
        } else {
            (right, left)
        }
    }

    /// The edges crossing `{lo, hi}`, in edge order. Each one has an
    /// endpoint on the side with fewer nodes, so only that side's
    /// incident edges are tested: one list, already in edge order, for
    /// a one-node side. A larger side's lists hold its crossing edges
    /// out of order, and sorting them back pays only when the lists are
    /// [`WALK_SAVING`] edges shorter than the graph's; otherwise every
    /// edge is tested.
    fn crossing(&self, lo: RelSet, hi: RelSet) -> impl Iterator<Item = usize> + '_ {
        let edges = self.g.edges();
        let crosses = move |&i: &usize| {
            let e = &edges[i];
            (lo.contains(e.a()) && hi.contains(e.b())) || (lo.contains(e.b()) && hi.contains(e.a()))
        };
        let small = if lo.len() <= hi.len() { lo } else { hi };
        let one = single_node(small).map(|v| self.g.incident_edges(v).iter().copied());
        let degrees: usize = small.iter().map(|v| self.g.incident_edges(v).len()).sum();
        let walk = one.is_none() && degrees + WALK_SAVING < edges.len();
        let walked = walk.then(|| {
            let mut ids: Vec<usize> = small
                .iter()
                .flat_map(|v| self.g.incident_edges(v).iter().copied())
                .filter(crosses)
                .collect();
            ids.sort_unstable();
            ids
        });
        let all = (one.is_none() && !walk).then_some(0..edges.len());
        one.into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
            .filter(crosses)
            .chain(walked.into_iter().flatten())
    }

    /// The equi conjunct of `c` when it crosses `{lo, hi}`.
    fn crossing_eq(c: &Conjunct, lo: RelSet, hi: RelSet) -> Option<&EqConjunct> {
        c.eq.as_ref().filter(|eq| {
            (lo.contains(eq.a_node) && hi.contains(eq.b_node))
                || (lo.contains(eq.b_node) && hi.contains(eq.a_node))
        })
    }

    /// The cost record of the unordered partition `{left, right}`.
    pub(crate) fn info(&self, left: RelSet, right: RelSet) -> CutInfo {
        let (lo, hi) = Self::order(left, right);
        // Crossing edges and the operator classification (§1.3: cuts
        // without edges are Cartesian products and excluded; an
        // outerjoin cut must cross exactly its one directed edge).
        let mut n_crossing = 0usize;
        let mut oj_count = 0usize;
        let mut oj_probe_lo = false;
        let mut has_keys = false;
        let mut key_sel = 1.0f64;
        let mut residual_sel = 1.0f64;
        for i in self.crossing(lo, hi) {
            n_crossing += 1;
            let e = &self.g.edges()[i];
            if e.kind() == EdgeKind::OuterJoin {
                oj_count += 1;
                // `a` is the preserved endpoint of a directed edge.
                oj_probe_lo = lo.contains(e.a());
            }
            // The products run in conjunct order, as
            // `Catalog::selectivity` multiplies a conjunction.
            for c in &self.conjuncts[i] {
                match Self::crossing_eq(c, lo, hi) {
                    Some(eq) => {
                        has_keys = true;
                        key_sel *= eq.sel;
                    }
                    None => residual_sel *= c.sel,
                }
            }
        }
        let class = match (oj_count, n_crossing) {
            (_, 0) => CutClass::None,
            (0, _) => CutClass::Joins,
            (1, 1) => {
                if oj_probe_lo {
                    CutClass::OuterjoinProbeLo
                } else {
                    CutClass::OuterjoinProbeHi
                }
            }
            _ => CutClass::None,
        };
        CutInfo {
            class,
            has_keys,
            key_sel,
            residual_sel,
            index_lo: has_keys && self.key_index(lo, lo, hi),
            index_hi: has_keys && self.key_index(hi, lo, hi),
        }
    }

    /// Whether `side` (one half of `{lo, hi}`) is a single catalog
    /// table with an index on exactly its crossing key columns.
    fn key_index(&self, side: RelSet, lo: RelSet, hi: RelSet) -> bool {
        let Some(node) = single_node(side) else {
            return false;
        };
        let Some(rid) = self.relmap.cat_id(node) else {
            return false;
        };
        let mut cols = Vec::new();
        for i in self.crossing(lo, hi) {
            for c in &self.conjuncts[i] {
                if let Some(eq) = Self::crossing_eq(c, lo, hi) {
                    let col = if eq.a_node == node {
                        eq.a_col
                    } else {
                        eq.b_col
                    };
                    let Some(col) = col else {
                        return false;
                    };
                    cols.push(col);
                }
            }
        }
        cols.sort_unstable();
        self.catalog.has_index_cols(rid, &cols)
    }

    /// The predicates of the unordered partition `{left, right}`.
    pub(crate) fn preds(&self, left: RelSet, right: RelSet) -> CutPreds {
        let (lo, hi) = Self::order(left, right);
        let mut pairs_lo = Vec::new();
        let mut residual = Vec::new();
        for i in self.crossing(lo, hi) {
            for c in &self.conjuncts[i] {
                match Self::crossing_eq(c, lo, hi) {
                    Some(eq) if lo.contains(eq.a_node) => {
                        pairs_lo.push((eq.a.clone(), eq.b.clone()));
                    }
                    Some(eq) => pairs_lo.push((eq.b.clone(), eq.a.clone())),
                    None => residual.push(c.pred.clone()),
                }
            }
        }
        // Rebuild the full predicate from the crossing *edge*
        // predicates (not flattened conjuncts) so nested-loop plans
        // carry the same predicate structure the edges do.
        let full_pred = Pred::from_conjuncts(
            self.crossing(lo, hi)
                .map(|i| self.g.edges()[i].pred().clone()),
        );
        CutPreds {
            pairs_lo,
            residual: Pred::from_conjuncts(residual),
            full_pred,
        }
    }
}

/// The edges a many-node side's incident lists must fall short of the
/// graph's for [`CutCtx::crossing`] to walk them: about what testing
/// edges saves to pay for the walk's list and its sort.
const WALK_SAVING: usize = 64;

fn single_node(s: RelSet) -> Option<usize> {
    if s.len() == 1 {
        s.lowest()
    } else {
        None
    }
}

fn resolve_eq(conj: &Pred, relmap: &RelMap, catalog: &Catalog) -> Option<EqConjunct> {
    let Pred::Cmp {
        op: CmpOp::Eq,
        lhs: Scalar::Attr(a),
        rhs: Scalar::Attr(b),
    } = conj
    else {
        return None;
    };
    let a_node = relmap.node_of(a.rel())?;
    let b_node = relmap.node_of(b.rel())?;
    let col_of = |attr: &Attr| {
        catalog
            .attr_id(attr)
            .map(|id| catalog.interner().attr_col(id))
    };
    let sel = catalog.eq_selectivity(a, b);
    Some(EqConjunct {
        a: a.clone(),
        b: b.clone(),
        a_node,
        b_node,
        a_col: col_of(a),
        b_col: col_of(b),
        sel,
    })
}

/// The cheapest candidate for `probe ⊙ build` over a cut — pure
/// arithmetic, no plan is built. An index join wins unless hash is
/// strictly cheaper, so ties resolve as in the historical enumeration
/// order (index, then hash).
pub(crate) fn best_shape(
    info: &CutInfo,
    probe: &Entry,
    build: &Entry,
    probe_is_lo: bool,
    kind: JoinKind,
) -> Candidate {
    use super::cost::join_rows;
    let sel = info.key_sel * info.residual_sel;
    let rows = join_rows(kind, probe.rows, build.rows, sel);
    let mk = |shape: Shape, cost: f64| Candidate {
        cost,
        rows,
        shape,
        kind,
        probe_is_lo,
    };
    if !info.has_keys {
        return mk(
            Shape::Nl,
            probe.cost + build.cost + probe.rows * build.rows + rows,
        );
    }
    let hash = mk(
        Shape::Hash,
        probe.cost + build.cost + build.rows + probe.rows + rows,
    );
    // Index nested-loop: build side must be a bare indexed base table;
    // its scan cost is *not* paid.
    if !(build.base.is_some() && info.build_has_index(probe_is_lo)) {
        return hash;
    }
    let retrieved = probe.rows * build.rows * info.key_sel;
    let index = mk(Shape::Index, probe.cost + probe.rows + retrieved + rows);
    if hash.cost < index.cost {
        hash
    } else {
        index
    }
}

/// Build the physical plan for a winning candidate from the plans of
/// its two sides. An index join reads its inner table by `build_base`
/// and never asks for `build`.
pub(crate) fn materialize(
    cand: Candidate,
    preds: &CutPreds,
    probe: PhysPlan,
    build: impl FnOnce() -> PhysPlan,
    build_base: Option<RelId>,
    catalog: &Catalog,
) -> PhysPlan {
    match cand.shape {
        Shape::Nl => PhysPlan::NlJoin {
            kind: cand.kind,
            left: Box::new(probe),
            right: Box::new(build()),
            pred: preds.full_pred.clone(),
        },
        Shape::Index => {
            let rid = build_base.expect("index join requires a base-table build side");
            let (outer_keys, inner_keys) = preds.keys(cand.probe_is_lo);
            PhysPlan::IndexJoin {
                kind: cand.kind,
                outer: Box::new(probe),
                inner: catalog.interner().rel_name(rid).to_owned(),
                outer_keys,
                inner_keys,
                residual: preds.residual.clone(),
            }
        }
        Shape::Hash => {
            let (probe_keys, build_keys) = preds.keys(cand.probe_is_lo);
            PhysPlan::HashJoin {
                kind: cand.kind,
                probe: Box::new(probe),
                build: Box::new(build()),
                probe_keys,
                build_keys,
                residual: preds.residual.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        use fro_algebra::Schema;
        use std::sync::Arc;
        let mut cat = Catalog::new();
        for name in ["A", "B", "C"] {
            cat.add_table(name, Arc::new(Schema::of_relation(name, &["k", "v"])), 100);
            cat.add_index(name, &[Attr::new(name, "k")]);
        }
        cat
    }

    fn chain3() -> QueryGraph {
        let mut g = QueryGraph::new(vec!["A".into(), "B".into(), "C".into()]);
        g.add_join_edge(
            0,
            1,
            Pred::eq_attr("A.k", "B.k").and(Pred::cmp_attr("A.v", CmpOp::Lt, "B.v")),
        )
        .unwrap();
        g.add_outerjoin_edge(1, 2, Pred::eq_attr("B.k", "C.k"))
            .unwrap();
        g
    }

    #[test]
    fn relmap_resolves_names_once() {
        let cat = catalog();
        let g = chain3();
        let m = RelMap::from_graph(&g, &cat);
        assert_eq!(m.node_of("B"), Some(1));
        assert_eq!(m.node_of("C"), Some(2));
        assert_eq!(m.node_of("missing"), None);
        assert!(m.cat_id(0).is_some());
    }

    #[test]
    fn split_equi_matches_name_keyed_shim() {
        use super::super::lower::split_equi_by_name_impl;
        use std::collections::BTreeSet;
        let cat = catalog();
        let m = RelMap::from_rels(["A".to_owned(), "B".to_owned()], &cat);
        let pred = Pred::eq_attr("A.k", "B.k")
            .and(Pred::cmp_attr("A.k", CmpOp::Lt, "B.k"))
            .and(Pred::eq_attr("B.v", "A.v"));
        let left = RelSet::singleton(0);
        let right = RelSet::singleton(1);
        let (pairs, residual) = split_equi(&pred, left, right, &m);
        let l: BTreeSet<String> = ["A".to_owned()].into();
        let r: BTreeSet<String> = ["B".to_owned()].into();
        let (pairs_n, residual_n) = split_equi_by_name_impl(&pred, &l, &r);
        assert_eq!(pairs, pairs_n);
        assert_eq!(residual, residual_n);
        // Pairs are normalized (left attr first).
        assert!(pairs.iter().all(|(a, _)| a.rel() == "A"));
    }

    #[test]
    fn cut_info_classifies() {
        let cat = catalog();
        let g = chain3();
        let ctx = CutCtx::new(&g, &cat);
        let a = RelSet::singleton(0);
        let bc = RelSet::empty().with(1).with(2);
        assert_eq!(ctx.info(a, bc).class, CutClass::Joins);
        // Same unordered cut from the other orientation.
        assert_eq!(ctx.info(bc, a).class, CutClass::Joins);
        let ab = RelSet::empty().with(0).with(1);
        let c = RelSet::singleton(2);
        assert!(matches!(
            ctx.info(ab, c).class,
            CutClass::OuterjoinProbeHi | CutClass::OuterjoinProbeLo
        ));
        // {B} | {A,C} crosses both edges: no single operator.
        let b = RelSet::singleton(1);
        let ac = RelSet::empty().with(0).with(2);
        assert_eq!(ctx.info(b, ac).class, CutClass::None);
    }

    /// The crossing edges of random cuts of seeded random graphs, from
    /// one- and many-node sides, dense and sparse, equal a scan of
    /// every edge, in edge order.
    #[test]
    fn crossing_walk_matches_a_full_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let cat = Catalog::new();
        let (mut walks, mut scans) = (0, 0);
        for round in 0..200 {
            let n = 2 + next(30) as usize;
            let density = 1 + next(100);
            let mut g = QueryGraph::new((0..n).map(|i| format!("N{i}")).collect());
            for a in 0..n {
                for b in a + 1..n {
                    if next(100) < density {
                        let pred = Pred::eq_attr(&format!("N{a}.k"), &format!("N{b}.k"));
                        if next(4) == 0 {
                            g.add_outerjoin_edge(b, a, pred).unwrap();
                        } else {
                            g.add_join_edge(b, a, pred).unwrap();
                        }
                    }
                }
            }
            let ctx = CutCtx::new(&g, &cat);
            for _ in 0..20 {
                let (mut lo, mut hi) = (RelSet::empty(), RelSet::empty());
                for v in 0..n {
                    match next(3) {
                        0 => lo = lo.with(v),
                        1 => hi = hi.with(v),
                        _ => {}
                    }
                }
                let scan: Vec<usize> = (0..g.edges().len())
                    .filter(|&i| {
                        let e = &g.edges()[i];
                        (lo.contains(e.a()) && hi.contains(e.b()))
                            || (lo.contains(e.b()) && hi.contains(e.a()))
                    })
                    .collect();
                assert_eq!(
                    ctx.crossing(lo, hi).collect::<Vec<_>>(),
                    scan,
                    "round {round}"
                );
                let small = if lo.len() <= hi.len() { lo } else { hi };
                let degrees: usize = small.iter().map(|v| g.incident_edges(v).len()).sum();
                if small.len() > 1 && degrees + WALK_SAVING < g.edges().len() {
                    walks += 1;
                } else {
                    scans += 1;
                }
            }
        }
        assert!(walks > 200 && scans > 200, "{walks} walks, {scans} scans");
    }

    #[test]
    fn index_precondition_requires_singleton_indexed_side() {
        let cat = catalog();
        let g = chain3();
        let ctx = CutCtx::new(&g, &cat);
        let a = RelSet::singleton(0);
        let b = RelSet::singleton(1);
        // A −(k eq, v theta)− B: both sides singleton with an index on
        // k, and the key-column resolution must ignore the residual.
        let info = ctx.info(a, b);
        assert!(info.index_lo && info.index_hi);
        let preds = ctx.preds(a, b);
        assert_eq!(preds.pairs_lo.len(), 1);
        assert_eq!(preds.residual.conjuncts().len(), 1);
    }
}
