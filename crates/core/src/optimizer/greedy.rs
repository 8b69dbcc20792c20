//! A greedy (GOO-style) reorderer for query graphs too large for the
//! exhaustive DP.
//!
//! Start with one component per relation; repeatedly merge the pair of
//! connected components whose cut is implementable (all-join crossing
//! edges, or a single outerjoin edge respecting its direction) and
//! whose merged plan is cheapest; stop when one component remains.
//! `O(n³)` pair evaluations instead of `3ⁿ` csg–cmp pairs — the same
//! "fill in Join or else Outerjoin" rule, applied greedily.
//!
//! Cut classification, key-pair extraction, and selectivities come
//! from one [`CutCtx`] held across merge rounds: a cut's properties
//! depend only on the two node sets, so the memo keeps paying off as
//! the same component pairs are re-examined round after round.

use super::cuts::{best_shape, materialize, Candidate, CutClass, CutCtx};
use super::dp::Entry;
use super::plancache::{CacheStats, CachedEntry, GraphSignature};
use super::stats::Catalog;
use super::OptError;
use fro_algebra::RelSet;
use fro_exec::{JoinKind, PhysPlan};
use fro_graph::QueryGraph;
use std::sync::Arc;

/// The plan chosen by [`greedy_optimize`].
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// The chosen physical plan.
    pub plan: PhysPlan,
    /// Its estimated cost (tuples touched).
    pub cost: f64,
    /// Its estimated output cardinality.
    pub rows: f64,
    /// Number of candidate merges evaluated. Zero on a full cache hit.
    pub merges_examined: u64,
    /// Plan-cache accounting for this optimization.
    pub cache: CacheStats,
}

/// Greedily reorder a freely-reorderable query graph, without
/// consulting the plan cache.
///
/// # Errors
/// [`OptError::Disconnected`] when no implementing tree exists;
/// [`OptError::Unsupported`] when the merge process wedges (a cut mix
/// with no implementable pair — cannot happen on nice graphs, where
/// the syntactic tree itself witnesses a full merge order).
pub fn greedy_optimize(g: &QueryGraph, catalog: &Catalog) -> Result<GreedyResult, OptError> {
    greedy_optimize_with(g, catalog, None)
}

/// [`greedy_optimize`], threading the catalog's plan cache: a hit on
/// the full relation set short-circuits the merge loop entirely, and
/// every merged component's winner is inserted for future queries over
/// the same graph (the DP can reuse them too — the key space is
/// shared).
///
/// # Errors
/// Same failure modes as [`greedy_optimize`].
pub fn greedy_optimize_with(
    g: &QueryGraph,
    catalog: &Catalog,
    cache: Option<GraphSignature>,
) -> Result<GreedyResult, OptError> {
    let n = g.n_nodes();
    if !g.connected_in(RelSet::full(n)) {
        return Err(OptError::Disconnected);
    }
    // Effective epoch: structural epoch + row-content versions of the
    // relations this graph reads, so a row append elsewhere does not
    // evict this graph's plans.
    let epoch = catalog.epoch_for_graph(g);
    let pc = catalog.plan_cache();
    let mut cstats = CacheStats::default();
    if let Some(sig) = cache {
        if let Some(hit) = pc.lookup(sig, RelSet::full(n), epoch, &mut cstats) {
            return Ok(GreedyResult {
                plan: hit.plan.clone(),
                cost: hit.cost,
                rows: hit.rows,
                merges_examined: 0,
                cache: cstats,
            });
        }
    }
    let mut ctx = CutCtx::new(g, catalog);
    let mut components: Vec<(RelSet, Entry)> = (0..n)
        .map(|i| {
            let name = g.node_name(i);
            let rows = catalog.rows_of(name) as f64;
            (
                RelSet::singleton(i),
                Entry {
                    plan: PhysPlan::scan(name.to_owned()),
                    cost: rows,
                    rows,
                    base: catalog.rel_id(name),
                },
            )
        })
        .collect();

    let mut merges_examined = 0u64;
    while components.len() > 1 {
        // (i, j, winning candidate, probe-is-component-i).
        let mut best: Option<(usize, usize, Candidate, bool)> = None;
        for i in 0..components.len() {
            for j in i + 1..components.len() {
                let (si, ei) = &components[i];
                let (sj, ej) = &components[j];
                let lo_is_i = si.bits() <= sj.bits();
                let info = ctx.info(*si, *sj);
                // Ties keep the last candidate, as in the DP.
                let mut consider = |cand: Candidate, probe_is_i: bool| {
                    if best.as_ref().is_none_or(|(_, _, b, _)| cand.cost <= b.cost) {
                        best = Some((i, j, cand, probe_is_i));
                    }
                };
                match info.class {
                    CutClass::None => {}
                    CutClass::Joins => {
                        merges_examined += 1;
                        for (pe, be, probe_is_i) in [(ei, ej, true), (ej, ei, false)] {
                            let probe_is_lo = probe_is_i == lo_is_i;
                            let cand = best_shape(info, pe, be, probe_is_lo, JoinKind::Inner);
                            consider(cand, probe_is_i);
                        }
                    }
                    CutClass::OuterjoinProbeLo | CutClass::OuterjoinProbeHi => {
                        merges_examined += 1;
                        let probe_is_lo = info.class == CutClass::OuterjoinProbeLo;
                        let probe_is_i = probe_is_lo == lo_is_i;
                        let (pe, be) = if probe_is_i { (ei, ej) } else { (ej, ei) };
                        let cand = best_shape(info, pe, be, probe_is_lo, JoinKind::LeftOuter);
                        consider(cand, probe_is_i);
                    }
                }
            }
        }
        let Some((i, j, cand, probe_is_i)) = best else {
            return Err(OptError::Unsupported(
                "greedy merge wedged: no implementable component pair".into(),
            ));
        };
        let entry = {
            let (si, ei) = &components[i];
            let (sj, ej) = &components[j];
            let info = ctx.info(*si, *sj);
            let (pe, be) = if probe_is_i { (ei, ej) } else { (ej, ei) };
            materialize(cand, info, pe, be, catalog)
        };
        let (sj, _) = components.swap_remove(j); // j > i, safe order
        let (si, _) = components.swap_remove(i);
        let merged = si.union(sj);
        if let Some(sig) = cache {
            pc.insert(
                sig,
                merged,
                Arc::new(CachedEntry::from_entry(&entry, epoch)),
                &mut cstats,
            );
        }
        components.push((merged, entry));
    }

    let (_, e) = components.pop().expect("one component remains");
    Ok(GreedyResult {
        plan: e.plan,
        cost: e.cost,
        rows: e.rows,
        merges_examined,
        cache: cstats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Attr, Pred, Schema};
    use std::sync::Arc;

    fn chain_graph(n: usize) -> QueryGraph {
        let mut g = QueryGraph::new((0..n).map(|i| format!("R{i}")).collect());
        for i in 0..n - 1 {
            g.add_join_edge(
                i,
                i + 1,
                Pred::eq_attr(&format!("R{i}.k"), &format!("R{}.k", i + 1)),
            )
            .unwrap();
        }
        g
    }

    fn catalog(n: usize, tiny: usize) -> Catalog {
        let mut cat = Catalog::new();
        for i in 0..n {
            let name = format!("R{i}");
            let rows = if i == tiny { 2 } else { 10_000 };
            cat.add_table(&name, Arc::new(Schema::of_relation(&name, &["k"])), rows);
            cat.set_distinct(&Attr::new(&name, "k"), rows);
            cat.add_index(&name, &[Attr::new(&name, "k")]);
        }
        cat
    }

    #[test]
    fn greedy_handles_30_relations() {
        let g = chain_graph(30);
        let cat = catalog(30, 0);
        let r = greedy_optimize(&g, &cat).expect("greedy succeeds");
        assert!(r.merges_examined > 0);
        // Drives from the tiny head with index joins: near-constant
        // cost, not 30 × 10_000 scans.
        assert!(r.cost < 50_000.0, "cost {}", r.cost);
    }

    #[test]
    fn greedy_close_to_dp_on_small_graphs() {
        for tiny in [0usize, 3, 7] {
            let g = chain_graph(8);
            let cat = catalog(8, tiny);
            let dp = super::super::dp::dp_optimize(&g, &cat).unwrap();
            let gr = greedy_optimize(&g, &cat).unwrap();
            assert!(
                gr.cost <= dp.cost * 10.0 + 1.0,
                "greedy {} vs dp {} (tiny at {tiny})",
                gr.cost,
                dp.cost
            );
        }
    }

    #[test]
    fn greedy_respects_outerjoin_direction() {
        let mut g = chain_graph(4);
        g.add_outerjoin_edge(3, 4, Pred::eq_attr("R3.k", "R4.k"))
            .unwrap_err(); // node 4 does not exist
        let mut g = QueryGraph::new((0..4).map(|i| format!("R{i}")).collect());
        g.add_join_edge(0, 1, Pred::eq_attr("R0.k", "R1.k"))
            .unwrap();
        g.add_outerjoin_edge(1, 2, Pred::eq_attr("R1.k", "R2.k"))
            .unwrap();
        g.add_outerjoin_edge(2, 3, Pred::eq_attr("R2.k", "R3.k"))
            .unwrap();
        let cat = catalog(4, 0);
        let r = greedy_optimize(&g, &cat).unwrap();
        fn count_lo(p: &PhysPlan) -> usize {
            match p {
                PhysPlan::IndexJoin { kind, outer, .. } => {
                    usize::from(*kind == JoinKind::LeftOuter) + count_lo(outer)
                }
                PhysPlan::HashJoin {
                    kind, probe, build, ..
                } => usize::from(*kind == JoinKind::LeftOuter) + count_lo(probe) + count_lo(build),
                PhysPlan::NlJoin {
                    kind, left, right, ..
                } => usize::from(*kind == JoinKind::LeftOuter) + count_lo(left) + count_lo(right),
                _ => 0,
            }
        }
        assert_eq!(count_lo(&r.plan), 2);
    }

    #[test]
    fn greedy_warm_cache_short_circuits() {
        use super::super::plancache::graph_signature;
        let g = chain_graph(30);
        let cat = catalog(30, 0);
        let sig = graph_signature(&g);
        let cold = greedy_optimize_with(&g, &cat, Some(sig)).unwrap();
        assert!(cold.merges_examined > 0);
        let warm = greedy_optimize_with(&g, &cat, Some(sig)).unwrap();
        assert_eq!(warm.merges_examined, 0);
        assert_eq!(warm.cache.hits, 1);
        assert_eq!(warm.plan.explain(), cold.plan.explain());
    }

    #[test]
    fn greedy_rejects_disconnected() {
        let g = QueryGraph::new(vec!["A".into(), "B".into()]);
        assert!(matches!(
            greedy_optimize(&g, &Catalog::new()),
            Err(OptError::Disconnected)
        ));
    }

    #[test]
    fn greedy_executes_correctly() {
        use fro_algebra::{Relation, Value};
        use fro_exec::{execute, ExecStats, Storage};
        // Real data: verify the greedy plan's result against the
        // reference evaluator via some implementing tree.
        let mut g = QueryGraph::new((0..5).map(|i| format!("R{i}")).collect());
        for i in 0..4 {
            g.add_join_edge(
                i,
                i + 1,
                Pred::eq_attr(&format!("R{i}.k"), &format!("R{}.k", i + 1)),
            )
            .unwrap();
        }
        let mut storage = Storage::new();
        for i in 0..5 {
            let name = format!("R{i}");
            let rows: Vec<Vec<Value>> = (0..6)
                .map(|j| vec![Value::Int((j + i) as i64 % 4)])
                .collect();
            storage.insert(&name, Relation::from_values(&name, &["k"], rows));
            storage.create_index(&name, &[Attr::new(&name, "k")]);
        }
        let cat = Catalog::from_storage(&storage);
        let r = greedy_optimize(&g, &cat).unwrap();
        let mut st = ExecStats::new();
        let got = execute(&r.plan, &storage, &mut st).unwrap();
        let tree = fro_trees::some_implementing_tree(&g).unwrap();
        let want = tree.eval(&storage.to_database()).unwrap();
        assert!(got.set_eq(&want));
    }
}
