//! The cost-based optimizer (§6.1).
//!
//! [`optimize_graph`] is the one entry: it takes an analyzed,
//! canonical query graph ([`fro_graph::QueryGraph::canonical`]) and,
//! the graph being freely reorderable, explores *every* implementing
//! tree via [`dp::dp_optimize`] — the simple optimizer extension the paper
//! promises ("there is no need to insert additional operators, or
//! perform a subtle analysis"). Because the DP enumerates the canonical
//! numbering, the plan depends on the graph and the catalog alone, not
//! on how the query was phrased. [`optimize`] builds and canonicalizes
//! `graph(Q)` for an algebra query; when the query is not freely
//! reorderable it falls back to the syntactic association of the input
//! tree ([`lower::lower`]), which is always correct.

pub mod cost;
pub mod cuts;
pub mod dp;
pub mod lower;
pub mod place;
pub mod plancache;
pub mod reduce;
pub mod stats;

use crate::reorder::{analyze_owned, Analysis, Policy};
use fro_algebra::{Query, Relation};
use fro_exec::{ExecError, ExecStats, PhysPlan, Storage};
use std::fmt;

pub use cost::{estimate_plan, Estimate};
pub use cuts::{split_equi, RelMap};
pub use dp::{dp_optimize, DpResult, SPLIT_BUDGET};
pub use lower::lower;
#[cfg(feature = "testing-oracles")]
#[doc(hidden)]
pub use lower::{lower_by_name, split_equi_by_name};
pub use place::place_restriction;
pub use plancache::{graph_signature, CacheStats, GraphSignature};
pub use reduce::{reduce_plan, ReducePolicy, ReductionReport, WrapDesc};
pub use stats::{Catalog, TableInfo};

/// Optimizer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The query uses an operator the physical engine cannot run, or
    /// has no implementable association.
    Unsupported(String),
    /// The query graph is disconnected (no implementing tree).
    Disconnected,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Unsupported(m) => write!(f, "unsupported: {m}"),
            OptError::Disconnected => write!(f, "query graph is disconnected"),
        }
    }
}

impl std::error::Error for OptError {}

/// The outcome of [`optimize`].
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen physical plan.
    pub plan: PhysPlan,
    /// Estimated cost in tuples touched.
    pub est_cost: f64,
    /// Estimated output rows.
    pub est_rows: f64,
    /// The Theorem 1 analysis that gated reordering.
    pub analysis: Analysis,
    /// Whether the plan came from the reordering DP (`true`) or the
    /// syntactic fallback (`false`).
    pub reordered: bool,
    /// csg–cmp pairs the plan search examined, at most
    /// [`SPLIT_BUDGET`]. Zero when the whole plan came out of the cache.
    pub pairs_examined: u64,
    /// Plan-cache accounting for this optimization (all zero on the
    /// non-reordering fallback path, which never consults the cache).
    pub cache: CacheStats,
    /// What the semijoin reducer did to the chosen plan: the applied
    /// wrap schedule and its cost against the plain alternative, or
    /// why reduction was declined. Reduction runs *after* the plan
    /// cache, so cached entries stay plain and reusable under every
    /// [`ReducePolicy`].
    pub reduction: ReductionReport,
}

impl Optimized {
    /// An EXPLAIN-style rendering: the plan tree followed by the
    /// estimates, the reordering verdict, and the plan-cache counters.
    #[must_use]
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = self.plan.explain();
        if !out.ends_with('\n') {
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "est_cost: {:.1}  est_rows: {:.1}",
            self.est_cost, self.est_rows
        );
        let _ = writeln!(
            out,
            "reordered: {}  pairs_examined: {}",
            self.reordered, self.pairs_examined
        );
        let _ = writeln!(out, "plan_cache: {}", self.cache);
        let _ = writeln!(out, "{}", self.reduction);
        out
    }
    /// Run the chosen plan ([`fro_exec::execute`]).
    ///
    /// # Errors
    /// [`ExecError`] for unknown tables, missing indexes, or
    /// unresolved attributes.
    pub fn run(&self, storage: &Storage, stats: &mut ExecStats) -> Result<Relation, ExecError> {
        fro_exec::execute(&self.plan, storage, stats)
    }
}

/// Optimize a query: reorder freely when Theorem 1 allows, otherwise
/// keep the user's association. Runs the semijoin reducer under
/// [`ReducePolicy::Auto`]; use [`optimize_with_reduce`] to force it.
///
/// # Errors
/// [`OptError`] for unsupported operators or disconnected graphs.
pub fn optimize(q: &Query, catalog: &Catalog, policy: Policy) -> Result<Optimized, OptError> {
    optimize_with_reduce(q, catalog, policy, ReducePolicy::Auto)
}

/// [`optimize`] with an explicit [`ReducePolicy`]: builds `graph(Q)`
/// once, canonicalizes it and, when it is freely reorderable under
/// `policy`, plans it with [`optimize_graph`]. Otherwise the user's
/// association is kept ([`lower()`]) and the reducer runs over that.
///
/// # Errors
/// Same failure modes as [`optimize`].
pub fn optimize_with_reduce(
    q: &Query,
    catalog: &Catalog,
    policy: Policy,
    reduce_policy: ReducePolicy,
) -> Result<Optimized, OptError> {
    let analysis = match fro_graph::graph_of(q) {
        Ok(g) => analyze_owned(g.canonical(), policy),
        Err(e) => Analysis::undefined(e, policy),
    };
    if analysis.is_freely_reorderable() {
        return optimize_graph(analysis, catalog, reduce_policy);
    }
    let plan = lower(q, catalog)?;
    let est = estimate_plan(&plan, catalog);
    let lowered = Optimized {
        plan,
        est_cost: est.cost,
        est_rows: est.rows,
        analysis,
        reordered: false,
        pairs_examined: 0,
        cache: CacheStats::default(),
        reduction: ReductionReport::default(),
    };
    Ok(reduce(lowered, catalog, reduce_policy))
}

/// Plan an analyzed query graph — the optimizer entry both front doors
/// reach. `analysis.graph` must be canonical
/// ([`fro_graph::QueryGraph::canonical`]) and freely reorderable. The
/// DP ([`dp`]: exhaustive within [`SPLIT_BUDGET`], IDP-1 rounds past
/// it) enumerates the canonical numbering through the plan cache, so
/// the plan is a function of the graph and the catalog. The semijoin
/// reducer then runs as a post-pass — after the plan cache (cached
/// plans stay plain), never altering join order or shape, only wrapping
/// operands in [`PhysPlan::SemiReduce`] where the wrap is sound and
/// (under `Auto`) estimated to pay. When a wrap is applied,
/// `est_cost`/`est_rows` reflect the reduced plan; the plain estimate
/// is preserved in [`Optimized::reduction`].
///
/// # Errors
/// [`OptError::Unsupported`] when the analysis admits no reordering or
/// no implementable association exists; [`OptError::Disconnected`] for
/// a disconnected graph.
pub fn optimize_graph(
    analysis: Analysis,
    catalog: &Catalog,
    reduce_policy: ReducePolicy,
) -> Result<Optimized, OptError> {
    let g = match &analysis.graph {
        Some(g) if analysis.is_freely_reorderable() => g,
        _ => return Err(OptError::Unsupported(analysis.to_string())),
    };
    debug_assert!(*g == g.canonical(), "optimize_graph plans canonical graphs");
    let r = dp::search(g, catalog, Some(graph_signature(g)), SPLIT_BUDGET)?;
    let planned = Optimized {
        plan: r.plan,
        est_cost: r.cost,
        est_rows: r.rows,
        analysis,
        reordered: true,
        pairs_examined: r.pairs_examined,
        cache: r.cache,
        reduction: ReductionReport::default(),
    };
    Ok(reduce(planned, catalog, reduce_policy))
}

/// The reducer post-pass over a chosen plan.
fn reduce(mut opt: Optimized, catalog: &Catalog, reduce_policy: ReducePolicy) -> Optimized {
    let (plan, report) = reduce_plan(
        &opt.plan,
        catalog,
        reduce_policy,
        opt.analysis.graph.as_ref(),
    );
    if !report.applied.is_empty() {
        let est = estimate_plan(&plan, catalog);
        opt.plan = plan;
        opt.est_cost = est.cost;
        opt.est_rows = est.rows;
    }
    opt.reduction = report;
    opt
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Attr, Pred, Schema};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, attr, rows) in [
            ("R1", "k1", 1u64),
            ("R2", "k2", 1_000_000),
            ("R3", "k3", 1_000_000),
        ] {
            cat.add_table(name, Arc::new(Schema::of_relation(name, &[attr])), rows);
            cat.set_distinct(&Attr::new(name, attr), rows);
            cat.add_index(name, &[Attr::new(name, attr)]);
        }
        cat
    }

    fn p(a: &str, b: &str) -> Pred {
        Pred::eq_attr(a, b)
    }

    #[test]
    fn reorderable_query_is_reordered() {
        // The *bad* association: R1 − (R2 → R3). The optimizer must
        // reorder to drive from R1.
        let q = Query::rel("R1").join(
            Query::rel("R2").outerjoin(Query::rel("R3"), p("R2.k2", "R3.k3")),
            p("R1.k1", "R2.k2"),
        );
        let cat = catalog();
        let out = optimize(&q, &cat, Policy::Paper).unwrap();
        assert!(out.reordered);
        assert!(out.est_cost < 100.0, "cost {}", out.est_cost);
        assert!(out.plan.explain().contains("Scan R1"));
    }

    #[test]
    fn non_reorderable_query_keeps_association() {
        // Example 2: R1 → (R2 − R3). Syntactic fallback.
        let q = Query::rel("R1").outerjoin(
            Query::rel("R2").join(Query::rel("R3"), p("R2.k2", "R3.k3")),
            p("R1.k1", "R2.k2"),
        );
        let cat = catalog();
        let out = optimize(&q, &cat, Policy::Paper).unwrap();
        assert!(!out.reordered);
        assert!(!out.analysis.is_freely_reorderable());
        // Preserved side (R1) drives the outer join at the root.
        let text = out.plan.explain();
        assert!(text.contains("left-outer"), "{text}");
    }

    #[test]
    fn syntactic_and_dp_agree_on_results() {
        // Execute both plans and compare with the reference evaluator.
        use fro_algebra::{Database, Relation};
        use fro_exec::{execute, ExecStats, Storage};

        let mut db = Database::new();
        db.insert(Relation::from_ints("R1", &["k1"], &[&[1], &[5]]));
        db.insert(Relation::from_ints("R2", &["k2"], &[&[1], &[2], &[5]]));
        db.insert(Relation::from_ints("R3", &["k3"], &[&[2], &[5]]));
        let mut storage = Storage::from_database(&db);
        for (t, a) in [("R1", "R1.k1"), ("R2", "R2.k2"), ("R3", "R3.k3")] {
            storage.create_index(t, &[Attr::parse(a)]);
        }
        let cat = Catalog::from_storage(&storage);

        let q = Query::rel("R1").join(
            Query::rel("R2").outerjoin(Query::rel("R3"), p("R2.k2", "R3.k3")),
            p("R1.k1", "R2.k2"),
        );
        let expect = q.eval(&db).unwrap();

        let dp = optimize(&q, &cat, Policy::Paper).unwrap();
        assert!(dp.reordered);
        let mut st = ExecStats::new();
        let got = execute(&dp.plan, &storage, &mut st).unwrap();
        assert!(got.set_eq(&expect), "plan:\n{}", dp.plan);

        let syn = lower(&q, &cat).unwrap();
        let mut st2 = ExecStats::new();
        let got2 = execute(&syn, &storage, &mut st2).unwrap();
        assert!(got2.set_eq(&expect));
    }

    #[test]
    fn estimates_populated_in_fallback() {
        let q = Query::rel("R1").outerjoin(
            Query::rel("R2").join(Query::rel("R3"), p("R2.k2", "R3.k3")),
            p("R1.k1", "R2.k2"),
        );
        let out = optimize(&q, &catalog(), Policy::Paper).unwrap();
        assert!(out.est_cost > 0.0);
        assert!(out.est_rows >= 0.0);
    }

    #[test]
    fn union_errors() {
        let q = Query::rel("R1").union(Query::rel("R2"));
        assert!(matches!(
            optimize(&q, &catalog(), Policy::Paper),
            Err(OptError::Unsupported(_))
        ));
    }
}
