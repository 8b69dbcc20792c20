//! Dynamic programming over the connected subsets of a query graph —
//! the §6.1 recipe: *"Optimizers already implement a query graph by
//! generating expression trees with different associations of the
//! graph edges; now it must fill in Join or else Outerjoin (preserving
//! the operator direction)."*
//!
//! Every csg–cmp pair whose cut is implementable (all-join crossing
//! edges, or a single outerjoin edge) is considered; free
//! reorderability (Theorem 1) is exactly the licence that makes every
//! such plan correct, so the DP needs no validity analysis beyond the
//! cut classification itself.
//!
//! The memo is keyed on [`RelSet`] and every per-cut question
//! (classification, key pairs, selectivities, index preconditions) is
//! answered by the shared [`super::cuts`] machinery — candidate plans
//! are costed arithmetically and a [`PhysPlan`] is built only for the
//! per-subset winner, so the inner loop touches no strings and clones
//! no plans.

use super::cuts::{best_shape, materialize, Candidate, CutClass, CutCtx};
use super::plancache::{CacheStats, CachedEntry, GraphSignature};
use super::stats::Catalog;
use super::OptError;
use fro_algebra::{RelId, RelSet};
use fro_exec::{JoinKind, PhysPlan};
use fro_graph::QueryGraph;
use std::collections::HashMap;
use std::sync::Arc;

/// The DP's per-subset best plan (also reused by the greedy
/// heuristic).
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) plan: PhysPlan,
    pub(crate) cost: f64,
    pub(crate) rows: f64,
    /// `Some(id)` when the plan is a bare scan of one catalog-known
    /// base table — the precondition for turning it into an index-join
    /// inner side.
    pub(crate) base: Option<RelId>,
}

/// The final plan chosen by [`dp_optimize`].
#[derive(Debug, Clone)]
pub struct DpResult {
    /// The chosen physical plan.
    pub plan: PhysPlan,
    /// Its estimated cost (tuples touched).
    pub cost: f64,
    /// Its estimated output cardinality.
    pub rows: f64,
    /// Number of csg–cmp pairs examined (plan-space size indicator).
    /// Zero on a full cache hit: nothing was enumerated.
    pub pairs_examined: u64,
    /// Plan-cache accounting for this optimization.
    pub cache: CacheStats,
}

/// Exhaustive-DP node limit (3^n csg–cmp pairs).
pub const DP_MAX_NODES: usize = 18;

/// Optimize a (freely-reorderable) query graph by exhaustive DP,
/// without consulting the plan cache.
///
/// # Errors
/// [`OptError::Unsupported`] beyond [`DP_MAX_NODES`] relations;
/// [`OptError::Disconnected`] when no implementing tree exists.
pub fn dp_optimize(g: &QueryGraph, catalog: &Catalog) -> Result<DpResult, OptError> {
    dp_optimize_with(g, catalog, None)
}

/// [`dp_optimize`], threading the catalog's plan cache: with the
/// graph's [`GraphSignature`] every connected subset is looked up
/// before its cuts are enumerated and each per-subset winner is
/// inserted after. A hit on the full set short-circuits the whole DP
/// (zero csg–cmp pairs).
///
/// # Errors
/// Same failure modes as [`dp_optimize`].
pub fn dp_optimize_with(
    g: &QueryGraph,
    catalog: &Catalog,
    cache: Option<GraphSignature>,
) -> Result<DpResult, OptError> {
    let n = g.n_nodes();
    if n > DP_MAX_NODES {
        return Err(OptError::Unsupported(format!(
            "exhaustive DP capped at {DP_MAX_NODES} relations; query has {n}"
        )));
    }
    let full = RelSet::full(n);
    if !g.connected_in(full) {
        return Err(OptError::Disconnected);
    }

    // Effective epoch: structural epoch + row-content versions of the
    // relations this graph reads, so a row append elsewhere does not
    // evict this graph's plans.
    let epoch = catalog.epoch_for_graph(g);
    let pc = catalog.plan_cache();
    let mut cstats = CacheStats::default();
    // Full-set fast path: a repeated query costs one hash probe.
    if let Some(sig) = cache {
        if let Some(hit) = pc.lookup(sig, full, epoch, &mut cstats) {
            return Ok(DpResult {
                plan: hit.plan.clone(),
                cost: hit.cost,
                rows: hit.rows,
                pairs_examined: 0,
                cache: cstats,
            });
        }
    }

    let mut ctx = CutCtx::new(g, catalog);
    let mut table: HashMap<RelSet, Entry> = HashMap::new();
    for i in 0..n {
        let name = g.node_name(i);
        let rows = catalog.rows_of(name) as f64;
        table.insert(
            RelSet::singleton(i),
            Entry {
                plan: PhysPlan::scan(name.to_owned()),
                cost: rows,
                rows,
                base: catalog.rel_id(name),
            },
        );
    }

    let mut pairs_examined = 0u64;
    // Enumerate subsets in increasing-cardinality order.
    let mut subsets: Vec<u64> = (1..=full.bits())
        .filter(|m| m & full.bits() == *m)
        .collect();
    subsets.sort_by_key(|m| m.count_ones());
    for &bits in &subsets {
        let s = RelSet::from_bits(bits);
        if s.len() < 2 || !g.connected_in(s) {
            continue;
        }
        // Consult the cache before enumerating this subset's cuts.
        if let Some(sig) = cache {
            if let Some(hit) = pc.lookup(sig, s, epoch, &mut cstats) {
                table.insert(s, hit.to_entry());
                continue;
            }
        }
        // Best candidate over every cut of `s`, as pure arithmetic:
        // (candidate, probe side, build side). Only the winner is
        // materialized into a plan, below.
        let mut best: Option<(Candidate, RelSet, RelSet)> = None;
        // Ties keep the last candidate enumerated. An inner join costs
        // the same whichever side builds, so which tie wins is a
        // convention; this one depends only on the canonical numbering,
        // not on the phrasing or on table sizes that appends move.
        // Keeping the first instead hashed the fact table of the
        // benchmark's snowflake.
        let consider = |best: &mut Option<(Candidate, RelSet, RelSet)>,
                        cand: Candidate,
                        p: RelSet,
                        b: RelSet| {
            if best.as_ref().is_none_or(|(bc, _, _)| cand.cost <= bc.cost) {
                *best = Some((cand, p, b));
            }
        };
        for left in s.anchored_proper_subsets() {
            let right = s.minus(left);
            if !g.connected_in(left) || !g.connected_in(right) {
                continue;
            }
            let (Some(le), Some(re)) = (table.get(&left), table.get(&right)) else {
                continue;
            };
            let lo_is_left = left.bits() <= right.bits();
            let info = ctx.info(left, right);
            match info.class {
                CutClass::None => {}
                CutClass::Joins => {
                    pairs_examined += 1;
                    for (pset, pe, bset, be, probe_is_lo) in [
                        (left, le, right, re, lo_is_left),
                        (right, re, left, le, !lo_is_left),
                    ] {
                        let cand = best_shape(info, pe, be, probe_is_lo, JoinKind::Inner);
                        consider(&mut best, cand, pset, bset);
                    }
                }
                CutClass::OuterjoinProbeLo | CutClass::OuterjoinProbeHi => {
                    pairs_examined += 1;
                    let probe_is_lo = info.class == CutClass::OuterjoinProbeLo;
                    let (pset, pe, bset, be) = if probe_is_lo == lo_is_left {
                        (left, le, right, re)
                    } else {
                        (right, re, left, le)
                    };
                    let cand = best_shape(info, pe, be, probe_is_lo, JoinKind::LeftOuter);
                    consider(&mut best, cand, pset, bset);
                }
            }
        }
        if let Some((cand, pset, bset)) = best {
            let info = ctx.info(pset, bset);
            let entry = materialize(cand, info, &table[&pset], &table[&bset], catalog);
            if let Some(sig) = cache {
                pc.insert(
                    sig,
                    s,
                    Arc::new(CachedEntry::from_entry(&entry, epoch)),
                    &mut cstats,
                );
            }
            table.insert(s, entry);
        }
    }

    table
        .remove(&full)
        .map(|e| DpResult {
            plan: e.plan,
            cost: e.cost,
            rows: e.rows,
            pairs_examined,
            cache: cstats,
        })
        .ok_or_else(|| {
            OptError::Unsupported("no implementable association found for the full graph".into())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Attr, Pred, Schema};
    use std::sync::Arc;

    fn example1_graph() -> QueryGraph {
        let mut g = QueryGraph::new(vec!["R1".into(), "R2".into(), "R3".into()]);
        g.add_join_edge(0, 1, Pred::eq_attr("R1.k1", "R2.k2"))
            .unwrap();
        g.add_outerjoin_edge(1, 2, Pred::eq_attr("R2.k2", "R3.k3"))
            .unwrap();
        g
    }

    fn example1_catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, attr, rows) in [
            ("R1", "k1", 1u64),
            ("R2", "k2", 10_000_000),
            ("R3", "k3", 10_000_000),
        ] {
            cat.add_table(name, Arc::new(Schema::of_relation(name, &[attr])), rows);
            cat.set_distinct(&Attr::new(name, attr), rows);
            cat.add_index(name, &[Attr::new(name, attr)]);
        }
        cat
    }

    #[test]
    fn example1_dp_drives_from_the_tiny_relation() {
        let g = example1_graph();
        let cat = example1_catalog();
        let result = dp_optimize(&g, &cat).unwrap();
        // The optimal plan starts at R1 (1 row) and index-joins out;
        // total cost is a handful of tuples, not 10^7.
        assert!(
            result.cost < 100.0,
            "expected near-constant cost, got {} for\n{}",
            result.cost,
            result.plan
        );
        let text = result.plan.explain();
        assert!(text.contains("Scan R1"), "{text}");
        assert!(!text.contains("Scan R2"), "must not scan R2:\n{text}");
        assert!(!text.contains("Scan R3"), "must not scan R3:\n{text}");
    }

    #[test]
    fn dp_respects_outerjoin_direction() {
        let g = example1_graph();
        let cat = example1_catalog();
        let result = dp_optimize(&g, &cat).unwrap();
        fn count_left_outer(p: &PhysPlan) -> usize {
            match p {
                PhysPlan::IndexJoin { kind, outer, .. } => {
                    usize::from(*kind == JoinKind::LeftOuter) + count_left_outer(outer)
                }
                PhysPlan::HashJoin {
                    kind, probe, build, ..
                } => {
                    usize::from(*kind == JoinKind::LeftOuter)
                        + count_left_outer(probe)
                        + count_left_outer(build)
                }
                PhysPlan::NlJoin {
                    kind, left, right, ..
                } => {
                    usize::from(*kind == JoinKind::LeftOuter)
                        + count_left_outer(left)
                        + count_left_outer(right)
                }
                _ => 0,
            }
        }
        assert_eq!(count_left_outer(&result.plan), 1);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = QueryGraph::new(vec!["A".into(), "B".into()]);
        let cat = Catalog::new();
        assert!(matches!(dp_optimize(&g, &cat), Err(OptError::Disconnected)));
    }

    #[test]
    fn too_many_nodes_rejected() {
        let names: Vec<String> = (0..=DP_MAX_NODES).map(|i| format!("R{i}")).collect();
        let mut g = QueryGraph::new(names);
        for i in 0..DP_MAX_NODES {
            g.add_join_edge(
                i,
                i + 1,
                Pred::eq_attr(&format!("R{i}.k"), &format!("R{}.k", i + 1)),
            )
            .unwrap();
        }
        assert!(matches!(
            dp_optimize(&g, &Catalog::new()),
            Err(OptError::Unsupported(_))
        ));
    }

    #[test]
    fn theta_only_graph_uses_nested_loops() {
        let mut g = QueryGraph::new(vec!["A".into(), "B".into()]);
        g.add_join_edge(0, 1, Pred::cmp_attr("A.x", fro_algebra::CmpOp::Gt, "B.y"))
            .unwrap();
        let mut cat = Catalog::new();
        cat.add_table("A", Arc::new(Schema::of_relation("A", &["x"])), 10);
        cat.add_table("B", Arc::new(Schema::of_relation("B", &["y"])), 10);
        let r = dp_optimize(&g, &cat).unwrap();
        assert!(matches!(r.plan, PhysPlan::NlJoin { .. }));
    }

    #[test]
    fn warm_cache_skips_all_enumeration() {
        let g = example1_graph();
        let cat = example1_catalog();
        let sig = super::super::plancache::graph_signature(&g);
        let cold = dp_optimize_with(&g, &cat, Some(sig)).unwrap();
        assert!(cold.pairs_examined > 0);
        assert_eq!(cold.cache.hits, 0);
        let warm = dp_optimize_with(&g, &cat, Some(sig)).unwrap();
        assert_eq!(
            warm.pairs_examined, 0,
            "full-set hit must enumerate nothing"
        );
        assert_eq!(warm.cache.hits, 1);
        assert_eq!(warm.plan.explain(), cold.plan.explain());
        assert!((warm.cost - cold.cost).abs() < 1e-12);
    }

    #[test]
    fn epoch_bump_invalidates_cached_plans() {
        use fro_algebra::Attr;
        let g = example1_graph();
        let mut cat = example1_catalog();
        let sig = super::super::plancache::graph_signature(&g);
        dp_optimize_with(&g, &cat, Some(sig)).unwrap();
        // A stats change bumps the epoch: the warm entry is stale.
        cat.set_distinct(&Attr::parse("R2.k2"), 5);
        let replanned = dp_optimize_with(&g, &cat, Some(sig)).unwrap();
        assert!(replanned.pairs_examined > 0, "stale entries must re-plan");
        assert!(replanned.cache.stale >= 1);
    }

    #[test]
    fn pairs_examined_grows_with_chain_length() {
        let mut cat = Catalog::new();
        let mk = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("R{i}")).collect();
            let mut g = QueryGraph::new(names);
            for i in 0..n - 1 {
                g.add_join_edge(
                    i,
                    i + 1,
                    Pred::eq_attr(&format!("R{i}.k"), &format!("R{}.k", i + 1)),
                )
                .unwrap();
            }
            g
        };
        for i in 0..8 {
            cat.add_table(
                format!("R{i}"),
                Arc::new(Schema::of_relation(&format!("R{i}"), &["k"])),
                100,
            );
        }
        let small = dp_optimize(&mk(4), &cat).unwrap();
        let large = dp_optimize(&mk(8), &cat).unwrap();
        assert!(large.pairs_examined > small.pairs_examined);
    }
}
