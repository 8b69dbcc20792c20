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
//! Connected subsets are built one level at a time from graph
//! neighbours and planned in `(size, bits)` order. Every split the DP
//! visits — the `2^(j-1) - 1` anchored 2-partitions of each `j`-member
//! subset it plans — counts against [`SPLIT_BUDGET`], whether or not
//! the plan cache answers the subset, so one optimization's time,
//! memory and cache inserts are bounded whatever the graph, and its
//! route does not depend on what the cache holds. When the whole DP
//! fits the budget, that is the search. Otherwise it runs IDP-1 rounds
//! (Kossmann and Stocker, TODS 2000): plan the levels that fit half of
//! the budget left, collapse the cheapest block of the largest
//! complete level into one leaf, and repeat over the smaller graph
//! until one round plans all of it. Theorem 1 makes any connected block
//! of a nice graph a valid subtree, so a block's plan stays correct
//! inside the whole.
//!
//! The memo is keyed on [`RelSet`]; every per-cut question is answered
//! by [`super::cuts`] as arithmetic, and a memo entry records its
//! winning join, so a [`PhysPlan`] is built only when one is needed (a
//! plan-cache insert, or the result).

use super::cuts::{best_shape, materialize, Candidate, CutClass, CutCtx};
use super::plancache::{CacheStats, CachedEntry, GraphSignature};
use super::stats::Catalog;
use super::OptError;
use fro_algebra::{RelId, RelSet};
use fro_exec::{JoinKind, PhysPlan};
use fro_graph::QueryGraph;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The DP's per-subset best plan.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) plan: Plan,
    pub(crate) cost: f64,
    pub(crate) rows: f64,
    /// `Some(id)` when the plan is a bare scan of one catalog-known
    /// base table — the precondition for turning it into an index-join
    /// inner side.
    pub(crate) base: Option<RelId>,
}

/// A memo entry's plan: built, or the winning join of two other memo
/// entries, built only when a plan is asked for.
#[derive(Debug, Clone)]
pub(crate) enum Plan {
    Built(PhysPlan),
    /// The winning candidate, its probe side and its build side.
    Join(Candidate, RelSet, RelSet),
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
    /// Number of csg–cmp pairs examined, over every round (plan-space
    /// size indicator). Zero on a full cache hit: nothing was
    /// enumerated.
    pub pairs_examined: u64,
    /// Plan-cache accounting for this optimization.
    pub cache: CacheStats,
}

/// The splits one optimization may visit (see the module doc).
/// DESIGN.md §8 sizes it: the exhaustive DP of every graph the corpus
/// and the benchmark plan fits with room to spare, and the worst graph
/// shapes plan in a few milliseconds on the reference host.
pub const SPLIT_BUDGET: u64 = 1 << 16;

/// Optimize a (freely-reorderable) query graph within
/// [`SPLIT_BUDGET`], without consulting the plan cache.
///
/// # Errors
/// [`OptError::Disconnected`] when no implementing tree exists;
/// [`OptError::Unsupported`] when no implementable association
/// exists.
pub fn dp_optimize(g: &QueryGraph, catalog: &Catalog) -> Result<DpResult, OptError> {
    search(g, catalog, None, SPLIT_BUDGET)
}

/// [`dp_optimize`] under another split budget, so tests can force the
/// IDP-1 rounds on graphs small enough to check against a reference
/// (every round plans its pairs, so budget 0 still finds a plan). The
/// product always plans within [`SPLIT_BUDGET`].
///
/// # Errors
/// Same failure modes as [`dp_optimize`].
#[doc(hidden)]
pub fn dp_optimize_within(
    g: &QueryGraph,
    catalog: &Catalog,
    budget: u64,
) -> Result<DpResult, OptError> {
    search(g, catalog, None, budget)
}

/// The plan search: threading the catalog's plan cache when given the
/// graph's [`GraphSignature`], every subset is looked up before its
/// cuts are enumerated and each per-subset winner is inserted after. A
/// hit on the full set short-circuits the whole search (zero csg–cmp
/// pairs).
pub(crate) fn search(
    g: &QueryGraph,
    catalog: &Catalog,
    cache: Option<GraphSignature>,
    budget: u64,
) -> Result<DpResult, OptError> {
    let n = g.n_nodes();
    let full = RelSet::full(n);
    if !g.connected_in(full) {
        return Err(OptError::Disconnected);
    }

    // Effective epoch: structural epoch + row-content versions of the
    // relations this graph reads, so a row append elsewhere does not
    // evict this graph's plans.
    let epoch = catalog.epoch_for_graph(g);
    let mut cstats = CacheStats::default();
    // Full-set fast path: a repeated query costs one hash probe.
    if let Some(sig) = cache {
        if let Some(hit) = catalog.plan_cache().lookup(sig, full, epoch, &mut cstats) {
            return Ok(DpResult {
                plan: hit.plan.clone(),
                cost: hit.cost,
                rows: hit.rows,
                pairs_examined: 0,
                cache: cstats,
            });
        }
    }

    let mut dp = Dp {
        catalog,
        ctx: CutCtx::new(g, catalog),
        cache: cache.map(|sig| (sig, epoch)),
        memo: HashMap::new(),
        cstats,
        pairs_examined: 0,
    };
    for i in 0..n {
        let name = g.node_name(i);
        let rows = catalog.rows_of(name) as f64;
        dp.memo.insert(
            RelSet::singleton(i),
            Entry {
                plan: Plan::Built(PhysPlan::scan(name.to_owned())),
                cost: rows,
                rows,
                base: catalog.rel_id(name),
            },
        );
    }

    // The leaves of the current round: connected blocks of relations,
    // ordered by their lowest member (singletons in the first round).
    let mut blocks: Vec<RelSet> = (0..n).map(RelSet::singleton).collect();
    let mut budget_left = budget;
    loop {
        let bg = BlockGraph::new(g, &blocks);
        let levels = Levels::build(&bg, budget_left, &dp.memo);
        let m = blocks.len();
        // A round that does not finish the search plans the levels that
        // fit half of what is left beyond an m² reserve, which pays for
        // the pairs later rounds plan (fewer than m per round).
        let k = if levels.top() >= m {
            m
        } else {
            // Rounds plan privately: only the full plan enters the
            // cache, so a query past the budget adds one entry.
            dp.cache = None;
            levels.fitting(budget_left.saturating_sub((m * m) as u64) / 2)
        };
        for level in levels.sets.iter().take(k + 1).skip(2) {
            for &mask in level {
                dp.plan(&bg, mask);
            }
        }
        budget_left = budget_left.saturating_sub(levels.work[k]);
        if k == m {
            break;
        }
        let block = dp.cheapest(&bg, &levels.sets[k]).ok_or_else(|| {
            OptError::Unsupported("no implementable block found for the graph".into())
        })?;
        blocks.retain(|b| !b.is_subset_of(block));
        blocks.push(block);
        blocks.sort_by_key(|b| b.lowest());
    }

    let Some(e) = dp.memo.remove(&full) else {
        return Err(OptError::Unsupported(
            "no implementable association found for the full graph".into(),
        ));
    };
    let plan = match e.plan {
        Plan::Built(plan) => plan,
        Plan::Join(cand, probe, build) => dp.build_join(cand, probe, build),
    };
    if let (Some(sig), None) = (cache, dp.cache) {
        let cached = CachedEntry::new(plan.clone(), e.cost, e.rows, e.base, epoch);
        catalog
            .plan_cache()
            .insert(sig, full, Arc::new(cached), &mut dp.cstats);
    }
    Ok(DpResult {
        plan,
        cost: e.cost,
        rows: e.rows,
        pairs_examined: dp.pairs_examined,
        cache: dp.cstats,
    })
}

/// The state of one search: the memo of per-subset winners (only
/// connected, plannable subsets ever get an entry), the cut context
/// and the plan-cache accounting.
struct Dp<'a> {
    catalog: &'a Catalog,
    ctx: CutCtx<'a>,
    /// The signature and epoch subsets are looked up and inserted
    /// under; `None` without a cache and during IDP rounds.
    cache: Option<(GraphSignature, u64)>,
    memo: HashMap<RelSet, Entry>,
    cstats: CacheStats,
    pairs_examined: u64,
}

impl Dp<'_> {
    /// Plan the block subset `mask` from its splits, unless an earlier
    /// round or the plan cache already has it.
    fn plan(&mut self, bg: &BlockGraph<'_>, mask: u64) {
        let s = bg.rels(mask);
        if self.memo.contains_key(&s) {
            return;
        }
        // Consult the cache before enumerating this subset's cuts.
        if let Some((sig, epoch)) = self.cache {
            let pc = self.catalog.plan_cache();
            if let Some(hit) = pc.lookup(sig, s, epoch, &mut self.cstats) {
                self.memo.insert(s, hit.to_entry());
                return;
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
        for left in RelSet::from_bits(mask).anchored_proper_subsets() {
            let left = bg.rels(left.bits());
            let right = s.minus(left);
            // Only connected, plannable subsets have a memo entry, so
            // the two probes are the connectivity test.
            let (Some(le), Some(re)) = (self.memo.get(&left), self.memo.get(&right)) else {
                continue;
            };
            let lo_is_left = left.bits() <= right.bits();
            let info = self.ctx.info(left, right);
            match info.class {
                CutClass::None => {}
                CutClass::Joins => {
                    self.pairs_examined += 1;
                    for (pset, pe, bset, be, probe_is_lo) in [
                        (left, le, right, re, lo_is_left),
                        (right, re, left, le, !lo_is_left),
                    ] {
                        let cand = best_shape(&info, pe, be, probe_is_lo, JoinKind::Inner);
                        consider(&mut best, cand, pset, bset);
                    }
                }
                CutClass::OuterjoinProbeLo | CutClass::OuterjoinProbeHi => {
                    self.pairs_examined += 1;
                    let probe_is_lo = info.class == CutClass::OuterjoinProbeLo;
                    let (pset, pe, bset, be) = if probe_is_lo == lo_is_left {
                        (left, le, right, re)
                    } else {
                        (right, re, left, le)
                    };
                    let cand = best_shape(&info, pe, be, probe_is_lo, JoinKind::LeftOuter);
                    consider(&mut best, cand, pset, bset);
                }
            }
        }
        if let Some((cand, pset, bset)) = best {
            let mut plan = Plan::Join(cand, pset, bset);
            if let Some((sig, epoch)) = self.cache {
                let built = self.build_join(cand, pset, bset);
                let cached = CachedEntry::new(built.clone(), cand.cost, cand.rows, None, epoch);
                self.catalog
                    .plan_cache()
                    .insert(sig, s, Arc::new(cached), &mut self.cstats);
                plan = Plan::Built(built);
            }
            let entry = Entry {
                plan,
                cost: cand.cost,
                rows: cand.rows,
                base: None,
            };
            self.memo.insert(s, entry);
        }
    }

    /// The plan of memo subset `s`.
    fn build(&self, s: RelSet) -> PhysPlan {
        match &self.memo[&s].plan {
            Plan::Built(plan) => plan.clone(),
            &Plan::Join(cand, probe, build) => self.build_join(cand, probe, build),
        }
    }

    /// The plan of candidate `cand` joining memo subsets `probe` and
    /// `build`.
    fn build_join(&self, cand: Candidate, probe: RelSet, build: RelSet) -> PhysPlan {
        materialize(
            cand,
            &self.ctx.preds(probe, build),
            self.build(probe),
            || self.build(build),
            self.memo[&build].base,
            self.catalog,
        )
    }

    /// The cheapest planned subset among `level`, ties to the lowest
    /// relation bits.
    fn cheapest(&self, bg: &BlockGraph<'_>, level: &[u64]) -> Option<RelSet> {
        level
            .iter()
            .map(|&mask| bg.rels(mask))
            .filter_map(|s| self.memo.get(&s).map(|e| (e.cost, s)))
            .min_by(|(a, s), (b, t)| a.total_cmp(b).then(s.bits().cmp(&t.bits())))
            .map(|(_, s)| s)
    }
}

/// The graph a round plans: one node per block, adjacent when some
/// edge of the query graph joins the two blocks. Subsets of blocks are
/// `u64` masks over block indexes.
struct BlockGraph<'a> {
    blocks: &'a [RelSet],
    adj: Vec<u64>,
    /// Every block is the singleton of its own index, so a block mask
    /// is already a relation set.
    identity: bool,
}

impl<'a> BlockGraph<'a> {
    fn new(g: &QueryGraph, blocks: &'a [RelSet]) -> BlockGraph<'a> {
        let mut owner = vec![0usize; g.n_nodes()];
        for (b, set) in blocks.iter().enumerate() {
            for v in set.iter() {
                owner[v] = b;
            }
        }
        let mut adj = vec![0u64; blocks.len()];
        for e in g.edges() {
            let (a, b) = (owner[e.a()], owner[e.b()]);
            if a != b {
                adj[a] |= 1 << b;
                adj[b] |= 1 << a;
            }
        }
        BlockGraph {
            blocks,
            adj,
            identity: blocks.len() == g.n_nodes(),
        }
    }

    /// The relations of the blocks in `mask`.
    fn rels(&self, mask: u64) -> RelSet {
        if self.identity {
            return RelSet::from_bits(mask);
        }
        RelSet::from_bits(mask)
            .iter()
            .fold(RelSet::empty(), |acc, b| acc.union(self.blocks[b]))
    }

    /// The blocks adjacent to `mask` and outside it.
    fn neighbours(&self, mask: u64) -> u64 {
        RelSet::from_bits(mask)
            .iter()
            .fold(0, |acc, b| acc | self.adj[b])
            & !mask
    }
}

/// The connected block subsets of one round, level by level:
/// `sets[j]` holds those of `j` blocks, sorted by bits, and `work[j]`
/// the splits that planning levels `2..=j` visits (subsets an earlier
/// round planned cost nothing). Built only as far as `work` stays
/// within the budget, except that level 2 is always built: every round
/// can collapse a pair, so the search ends whatever is left.
struct Levels {
    sets: Vec<Vec<u64>>,
    work: Vec<u64>,
}

impl Levels {
    fn build(bg: &BlockGraph<'_>, budget: u64, memo: &HashMap<RelSet, Entry>) -> Levels {
        let m = bg.adj.len();
        let mut sets = vec![Vec::new(), (0..m).map(|b| 1u64 << b).collect()];
        let mut work: Vec<u64> = vec![0, 0];
        for j in 2..=m {
            let splits = (1u64 << (j - 1)) - 1;
            let mut spent = work[j - 1];
            let mut level = HashSet::new();
            for &s in &sets[j - 1] {
                let mut grow = bg.neighbours(s);
                while grow != 0 {
                    let t = s | (grow & grow.wrapping_neg());
                    grow &= grow - 1;
                    if level.insert(t) && !memo.contains_key(&bg.rels(t)) {
                        spent = spent.saturating_add(splits);
                        if j > 2 && spent > budget {
                            return Levels { sets, work };
                        }
                    }
                }
            }
            let mut level: Vec<u64> = level.into_iter().collect();
            level.sort_unstable();
            sets.push(level);
            work.push(spent);
        }
        Levels { sets, work }
    }

    /// The largest complete level.
    fn top(&self) -> usize {
        self.sets.len() - 1
    }

    /// The largest complete level whose work fits `cap`, at least 2.
    fn fitting(&self, cap: u64) -> usize {
        (3..=self.top())
            .rev()
            .find(|&j| self.work[j] <= cap)
            .unwrap_or(2)
    }
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

    #[test]
    fn dp_respects_outerjoin_direction() {
        let g = example1_graph();
        let cat = example1_catalog();
        let result = dp_optimize(&g, &cat).unwrap();
        assert_eq!(count_left_outer(&result.plan), 1);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = QueryGraph::new(vec!["A".into(), "B".into()]);
        let cat = Catalog::new();
        assert!(matches!(dp_optimize(&g, &cat), Err(OptError::Disconnected)));
        let rounds = dp_optimize_within(&g, &cat, 0);
        assert!(matches!(rounds, Err(OptError::Disconnected)));
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
        let cold = search(&g, &cat, Some(sig), SPLIT_BUDGET).unwrap();
        assert!(cold.pairs_examined > 0);
        assert_eq!(cold.cache.hits, 0);
        let warm = search(&g, &cat, Some(sig), SPLIT_BUDGET).unwrap();
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
        search(&g, &cat, Some(sig), SPLIT_BUDGET).unwrap();
        // A stats change bumps the epoch: the warm entry is stale.
        cat.set_distinct(&Attr::parse("R2.k2"), 5);
        let replanned = search(&g, &cat, Some(sig), SPLIT_BUDGET).unwrap();
        assert!(replanned.pairs_examined > 0, "stale entries must re-plan");
        assert!(replanned.cache.stale >= 1);
    }

    #[test]
    fn pairs_examined_grows_with_chain_length() {
        let cat = chain_catalog(8, 0);
        let small = dp_optimize(&chain_graph(4), &cat).unwrap();
        let large = dp_optimize(&chain_graph(8), &cat).unwrap();
        assert!(large.pairs_examined > small.pairs_examined);
    }

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

    /// `n` indexed tables `R0..R{n-1}` of 10 000 rows, except `R{tiny}`
    /// with 2.
    fn chain_catalog(n: usize, tiny: usize) -> Catalog {
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
    fn full_dp_is_taken_exactly_when_its_splits_fit() {
        // A 4-chain's DP visits 3·1 + 2·3 + 1·7 = 16 splits.
        let g = chain_graph(4);
        let cat = chain_catalog(4, 2);
        let full = dp_optimize(&g, &cat).unwrap();
        let fits = dp_optimize_within(&g, &cat, 16).unwrap();
        assert_eq!(fits.plan, full.plan);
        assert_eq!(fits.pairs_examined, full.pairs_examined);
        // One split short: rounds, which never beat the full DP.
        let rounds = dp_optimize_within(&g, &cat, 15).unwrap();
        assert!(rounds.pairs_examined < full.pairs_examined);
        assert!(rounds.cost >= full.cost);
    }

    #[test]
    fn idp_close_to_dp_on_small_graphs() {
        for tiny in [0usize, 3, 7] {
            let g = chain_graph(8);
            let cat = chain_catalog(8, tiny);
            let dp = dp_optimize(&g, &cat).unwrap();
            for budget in [0, 8, 64] {
                let idp = dp_optimize_within(&g, &cat, budget).unwrap();
                assert!(
                    dp.cost <= idp.cost && idp.cost <= dp.cost * 10.0 + 1.0,
                    "idp {} vs dp {} (tiny at {tiny}, budget {budget})",
                    idp.cost,
                    dp.cost
                );
            }
        }
    }

    #[test]
    fn idp_respects_outerjoin_direction() {
        let mut g = QueryGraph::new((0..4).map(|i| format!("R{i}")).collect());
        g.add_join_edge(0, 1, Pred::eq_attr("R0.k", "R1.k"))
            .unwrap();
        g.add_outerjoin_edge(1, 2, Pred::eq_attr("R1.k", "R2.k"))
            .unwrap();
        g.add_outerjoin_edge(2, 3, Pred::eq_attr("R2.k", "R3.k"))
            .unwrap();
        let cat = chain_catalog(4, 0);
        for budget in [0, 2, 8] {
            let r = dp_optimize_within(&g, &cat, budget).unwrap();
            assert_eq!(count_left_outer(&r.plan), 2, "budget {budget}");
        }
    }

    #[test]
    fn idp_warm_cache_short_circuits() {
        use super::super::plancache::graph_signature;
        let g = chain_graph(30);
        let cat = chain_catalog(30, 0);
        let sig = graph_signature(&g);
        let cold = search(&g, &cat, Some(sig), SPLIT_BUDGET).unwrap();
        assert!(cold.pairs_examined > 0 && cold.pairs_examined <= SPLIT_BUDGET);
        // Drives from the tiny head with index joins: near-constant
        // cost, not 30 × 10_000 scans.
        assert!(cold.cost < 50_000.0, "cost {}", cold.cost);
        let warm = search(&g, &cat, Some(sig), SPLIT_BUDGET).unwrap();
        assert_eq!(warm.pairs_examined, 0);
        assert_eq!(warm.cache.hits, 1);
        assert_eq!(warm.plan.explain(), cold.plan.explain());
    }

    #[test]
    fn idp_executes_correctly() {
        use fro_algebra::{Relation, Value};
        use fro_exec::{execute, ExecStats, Storage};
        // Real data: verify the rounds' plans against the reference
        // evaluator via some implementing tree.
        let g = chain_graph(5);
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
        let tree = fro_trees::some_implementing_tree(&g).unwrap();
        let want = tree.eval(&storage.to_database()).unwrap();
        for budget in [0, 4, 12] {
            let r = dp_optimize_within(&g, &cat, budget).unwrap();
            let mut st = ExecStats::new();
            let got = execute(&r.plan, &storage, &mut st).unwrap();
            assert!(got.set_eq(&want), "budget {budget}:\n{}", r.plan);
        }
    }

    #[test]
    fn clique14_plans_within_the_budget() {
        let n = 14;
        let mut g = QueryGraph::new((0..n).map(|i| format!("R{i}")).collect());
        for i in 0..n {
            for j in i + 1..n {
                g.add_join_edge(i, j, Pred::eq_attr(&format!("R{i}.k"), &format!("R{j}.k")))
                    .unwrap();
            }
        }
        let cat = chain_catalog(n, 5);
        let r = dp_optimize(&g, &cat).unwrap();
        // The full DP would examine (3^14 - 2^15 + 1) / 2 pairs.
        assert!(r.pairs_examined > 0 && r.pairs_examined <= SPLIT_BUDGET);
        assert!(r.plan.explain().contains("Scan R5"), "{}", r.plan);
    }
}
