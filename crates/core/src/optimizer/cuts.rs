//! Shared cut machinery: the interned, bitset form of predicate
//! splitting and cut classification used by every reordering path.
//!
//! The paper's DP (§6.1) enumerates 2-partitions — *cuts* — of
//! connected node sets. Everything an optimizer wants to know about a
//! cut (its crossing edges, the operator it admits, the equi-key
//! pairs, the residual predicate, the combined selectivity, whether an
//! index join applies) is a function of the unordered pair of
//! [`RelSet`]s alone. This module resolves every string exactly once —
//! attribute names to `(relation, column)` at [`CutCtx`] construction,
//! relation names to dense node ids in [`RelMap`] — and memoizes the
//! per-cut answers so the DP and the greedy reorderer never repeat the
//! work, let alone re-derive it from strings.

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
    names: Vec<String>,
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
    pub fn from_rels(rels: impl IntoIterator<Item = String>, catalog: &Catalog) -> RelMap {
        let names: Vec<String> = rels.into_iter().collect();
        let ids = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let cat_ids = names.iter().map(|n| catalog.rel_id(n)).collect();
        RelMap {
            names,
            ids,
            cat_ids,
        }
    }

    /// Number of relations in the query.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the query references no relations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The dense id of a relation name.
    #[must_use]
    pub fn node_of(&self, rel: &str) -> Option<usize> {
        self.ids.get(rel).copied()
    }

    /// The name of a dense id (for rendering and plan leaves).
    #[must_use]
    pub fn name_of(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// The catalog-level [`RelId`] of a node, when the catalog knows
    /// the table.
    #[must_use]
    pub fn cat_id(&self, i: usize) -> Option<RelId> {
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

/// Everything the optimizer needs to know about one unordered cut,
/// computed once and memoized. `lo` is the side whose bitset compares
/// smaller; key pairs store the lo-side attribute first.
#[derive(Debug, Clone)]
pub(crate) struct CutInfo {
    pub(crate) class: CutClass,
    /// Equi key pairs, lo-side attribute first, in conjunct order.
    pairs_lo: Vec<(Attr, Attr)>,
    /// Non-equi conjuncts, reassembled.
    residual: Pred,
    /// The full cut predicate (for nested-loop joins), rebuilt from
    /// the crossing edges' predicates in edge order.
    full_pred: Pred,
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
    /// Key attributes as `(probe, build)` vectors (cloned only when a
    /// plan is built).
    fn keys(&self, probe_is_lo: bool) -> (Vec<Attr>, Vec<Attr>) {
        let mut probe = Vec::with_capacity(self.pairs_lo.len());
        let mut build = Vec::with_capacity(self.pairs_lo.len());
        for (lo, hi) in &self.pairs_lo {
            if probe_is_lo {
                probe.push(lo.clone());
                build.push(hi.clone());
            } else {
                probe.push(hi.clone());
                build.push(lo.clone());
            }
        }
        (probe, build)
    }

    fn build_has_index(&self, probe_is_lo: bool) -> bool {
        if probe_is_lo {
            self.index_hi
        } else {
            self.index_lo
        }
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

/// Per-graph cut context: the resolved conjuncts of every edge plus
/// the memoized per-cut answers. Build one per optimization run and
/// keep it across rounds (the greedy reorderer re-examines the same
/// component pairs every round; the cache makes those free).
pub(crate) struct CutCtx<'a> {
    g: &'a QueryGraph,
    catalog: &'a Catalog,
    relmap: RelMap,
    /// Resolved conjuncts per edge, same index as `g.edges()`.
    conjuncts: Vec<Vec<Conjunct>>,
    cache: HashMap<(u64, u64), CutInfo>,
}

impl<'a> CutCtx<'a> {
    /// Resolve every edge conjunct once: attribute → node id, catalog
    /// column offset, and equality selectivity.
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
                        Conjunct { pred: conj, eq }
                    })
                    .collect()
            })
            .collect();
        CutCtx {
            g,
            catalog,
            relmap,
            conjuncts,
            cache: HashMap::new(),
        }
    }

    /// The memoized cut record for the unordered partition
    /// `{left, right}`.
    pub(crate) fn info(&mut self, left: RelSet, right: RelSet) -> &CutInfo {
        let (lo, hi) = if left.bits() <= right.bits() {
            (left, right)
        } else {
            (right, left)
        };
        let key = (lo.bits(), hi.bits());
        if !self.cache.contains_key(&key) {
            let info = self.compute(lo, hi);
            self.cache.insert(key, info);
        }
        &self.cache[&key]
    }

    fn compute(&self, lo: RelSet, hi: RelSet) -> CutInfo {
        // Crossing edges and the operator classification (§1.3: cuts
        // without edges are Cartesian products and excluded; an
        // outerjoin cut must cross exactly its one directed edge).
        let mut crossing: Vec<usize> = Vec::new();
        let mut oj_count = 0usize;
        let mut oj_probe_lo = false;
        for (i, e) in self.g.edges().iter().enumerate() {
            let (a, b) = (e.a(), e.b());
            let crosses = (lo.contains(a) && hi.contains(b)) || (lo.contains(b) && hi.contains(a));
            if !crosses {
                continue;
            }
            crossing.push(i);
            if e.kind() == EdgeKind::OuterJoin {
                oj_count += 1;
                // `a` is the preserved endpoint of a directed edge.
                oj_probe_lo = lo.contains(a);
            }
        }
        let class = match (oj_count, crossing.len()) {
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

        let mut pairs_lo = Vec::new();
        let mut lo_cols: Option<Vec<u32>> = Some(Vec::new());
        let mut hi_cols: Option<Vec<u32>> = Some(Vec::new());
        let mut residual = Vec::new();
        let mut key_sel = 1.0f64;
        let push_col = |side: &mut Option<Vec<u32>>, col: Option<u32>| {
            if let Some(cols) = side {
                match col {
                    Some(c) => cols.push(c),
                    None => *side = None,
                }
            }
        };
        for &ei in &crossing {
            for c in &self.conjuncts[ei] {
                let eq = c.eq.as_ref().filter(|eq| {
                    (lo.contains(eq.a_node) && hi.contains(eq.b_node))
                        || (lo.contains(eq.b_node) && hi.contains(eq.a_node))
                });
                match eq {
                    Some(eq) => {
                        if lo.contains(eq.a_node) {
                            pairs_lo.push((eq.a.clone(), eq.b.clone()));
                            push_col(&mut lo_cols, eq.a_col);
                            push_col(&mut hi_cols, eq.b_col);
                        } else {
                            pairs_lo.push((eq.b.clone(), eq.a.clone()));
                            push_col(&mut lo_cols, eq.b_col);
                            push_col(&mut hi_cols, eq.a_col);
                        }
                        key_sel *= eq.sel;
                    }
                    None => residual.push(c.pred.clone()),
                }
            }
        }
        let residual = Pred::from_conjuncts(residual);
        let residual_sel = self.catalog.selectivity(&residual);
        // Rebuild the full predicate from the crossing *edge*
        // predicates (not flattened conjuncts) so nested-loop plans
        // carry the same predicate structure the edges do.
        let full_pred =
            Pred::from_conjuncts(crossing.iter().map(|&i| self.g.edges()[i].pred().clone()));

        let has_index = |side: RelSet, cols: Option<Vec<u32>>| -> bool {
            if pairs_lo.is_empty() {
                return false;
            }
            let (Some(node), Some(mut cols)) = (single_node(side), cols) else {
                return false;
            };
            let Some(rid) = self.relmap.cat_id(node) else {
                return false;
            };
            cols.sort_unstable();
            self.catalog.has_index_cols(rid, &cols)
        };
        let index_lo = has_index(lo, lo_cols);
        let index_hi = has_index(hi, hi_cols);

        CutInfo {
            class,
            pairs_lo,
            residual,
            full_pred,
            key_sel,
            residual_sel,
            index_lo,
            index_hi,
        }
    }
}

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
    if info.pairs_lo.is_empty() {
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

/// Build the physical plan for a winning candidate (the only place a
/// cut clones its sub-plans).
pub(crate) fn materialize(
    cand: Candidate,
    info: &CutInfo,
    probe: &Entry,
    build: &Entry,
    catalog: &Catalog,
) -> Entry {
    let plan = match cand.shape {
        Shape::Nl => PhysPlan::NlJoin {
            kind: cand.kind,
            left: Box::new(probe.plan.clone()),
            right: Box::new(build.plan.clone()),
            pred: info.full_pred.clone(),
        },
        Shape::Index => {
            let rid = build
                .base
                .expect("index join requires a base-table build side");
            let (outer_keys, inner_keys) = info.keys(cand.probe_is_lo);
            PhysPlan::IndexJoin {
                kind: cand.kind,
                outer: Box::new(probe.plan.clone()),
                inner: catalog.interner().rel_name(rid).to_owned(),
                outer_keys,
                inner_keys,
                residual: info.residual.clone(),
            }
        }
        Shape::Hash => {
            let (probe_keys, build_keys) = info.keys(cand.probe_is_lo);
            PhysPlan::HashJoin {
                kind: cand.kind,
                probe: Box::new(probe.plan.clone()),
                build: Box::new(build.plan.clone()),
                probe_keys,
                build_keys,
                residual: info.residual.clone(),
            }
        }
    };
    Entry {
        plan,
        cost: cand.cost,
        rows: cand.rows,
        base: None,
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
        assert_eq!(m.len(), 3);
        assert_eq!(m.node_of("B"), Some(1));
        assert_eq!(m.node_of("missing"), None);
        assert_eq!(m.name_of(2), "C");
        assert!(m.cat_id(0).is_some());
        let empty = RelMap::from_rels(std::iter::empty(), &cat);
        assert!(empty.is_empty());
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
    fn cut_info_classifies_and_memoizes() {
        let cat = catalog();
        let g = chain3();
        let mut ctx = CutCtx::new(&g, &cat);
        let a = RelSet::singleton(0);
        let bc = RelSet::empty().with(1).with(2);
        assert_eq!(ctx.info(a, bc).class, CutClass::Joins);
        // Same unordered cut from the other orientation: cache hit.
        assert_eq!(ctx.info(bc, a).class, CutClass::Joins);
        assert_eq!(ctx.cache.len(), 1);
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

    #[test]
    fn index_precondition_requires_singleton_indexed_side() {
        let cat = catalog();
        let g = chain3();
        let mut ctx = CutCtx::new(&g, &cat);
        let a = RelSet::singleton(0);
        let b = RelSet::singleton(1);
        // A −(k eq, v theta)− B: both sides singleton with an index on
        // k, and the key-column resolution must ignore the residual.
        let info = ctx.info(a, b).clone();
        assert!(info.index_lo && info.index_hi);
        assert_eq!(info.pairs_lo.len(), 1);
        assert_eq!(info.residual.conjuncts().len(), 1);
    }
}
