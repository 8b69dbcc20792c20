//! Yannakakis-style semijoin reduction as a costed post-pass.
//!
//! The paper's "nice" query graphs are tree-shaped; on such acyclic
//! graphs a two-pass semijoin reducer (leaves→root, then root→leaves)
//! bounds every intermediate by the output size. [`reduce_plan`]
//! retrofits that classic win onto the plan the DP already chose —
//! without disturbing it: reduction is a **shape-preserving wrap
//! rewrite**. Each wrap splices a [`PhysPlan::SemiReduce`] node around
//! an existing operand, filtering it to the rows whose join key has a
//! partner in a *shallow base source* (`Scan R` or `Filter(Scan R)`)
//! taken from the opposite subtree. A semijoin by any superset of the
//! partner key set only removes rows that could never contribute, so
//! the wrapped plan produces bit-identical rows in the same order.
//!
//! Soundness per join kind (the wrap matrix):
//! * **up-pass** (reduce a join's probe side by its own build key):
//!   `Inner` and `Semi` only — a left-outer probe row must survive
//!   unmatched, and an anti probe row is *defined* by having no match.
//! * **down-pass** (reduce the build side by the probe key): `Inner`,
//!   `LeftOuter`, `Semi`, `Anti` — build rows whose key never occurs
//!   on the probe side can never match, pad, or veto anything.
//! * `FullOuter` admits no wraps and blocks descent entirely.
//!
//! A pending wrap **descends** toward the base table it filters —
//! through `Filter`, key-retaining `Project`, the probe side of
//! non-full-outer hash joins and the outer side of index joins — and
//! is applied where descent stops. In the pipelined engine that puts
//! the membership probe directly above the fact-table scan, killing
//! non-joining rows before any join expands them.
//!
//! Every candidate wrap is **costed**: the greedy loop keeps a wrap
//! only when the whole-plan estimate improves by at least 1%. On
//! uniformly keyed data the survivor fraction is ≈1 and reduction is
//! correctly declined; on skewed star/snowflake data it approaches the
//! true match fraction and the reducer pays for itself many times over.
//!
//! The reducer costs under **containment** throughout: its survivor
//! fraction `min(1, d_src/d_in)` and, for the plain and the wrapped
//! plan alike, the join arms' `1/max(d_a, d_b)`
//! (`estimate_contained`) — not the measured key overlap that picked
//! the plan. A wrap is insurance against a blow-up the statistics
//! cannot see: hot keys duplicated in a dimension whose never-matched
//! keys dilute its rows per key, so the measured overlap prices the
//! join that explodes as tiny. Containment lets a join produce as much
//! as any uniform-key estimate allows, and a wrap costs at most one
//! probe per input row, so pricing the downside high is the right side
//! to err on.

use super::cost::estimate_contained;
use super::stats::Catalog;
use fro_algebra::Attr;
use fro_exec::{PhysPlan, ReducePass};
use fro_graph::{EdgeKind, QueryGraph};
use std::fmt;

/// When the optimizer may apply semijoin reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReducePolicy {
    /// Cost-based: apply each wrap only when the estimate says it pays.
    #[default]
    Auto,
    /// Apply every sound wrap unconditionally (testing / benchmarks).
    Always,
    /// Never reduce — always run the plain plan.
    Never,
}

impl fmt::Display for ReducePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReducePolicy::Auto => write!(f, "auto"),
            ReducePolicy::Always => write!(f, "always"),
            ReducePolicy::Never => write!(f, "never"),
        }
    }
}

/// One applied (or candidate) reduction wrap, for reports and EXPLAIN.
#[derive(Debug, Clone, PartialEq)]
pub struct WrapDesc {
    /// Which pass of the two-pass schedule the wrap belongs to.
    pub pass: ReducePass,
    /// Key attributes of the reduced (surviving) operand.
    pub input_keys: Vec<Attr>,
    /// Key attributes of the membership source.
    pub source_keys: Vec<Attr>,
    /// Short label of the source plan (`Scan D1`, `Filter(Scan D1)`).
    pub source_label: String,
}

impl fmt::Display for WrapDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ik: Vec<String> = self.input_keys.iter().map(ToString::to_string).collect();
        let sk: Vec<String> = self.source_keys.iter().map(ToString::to_string).collect();
        write!(
            f,
            "SemiReduce({}) [{} = {}] src={}",
            self.pass,
            ik.join(","),
            sk.join(","),
            self.source_label
        )
    }
}

/// What the reducer did and why — rendered by `Optimized::explain`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionReport {
    /// The policy the reducer ran under.
    pub policy: ReducePolicy,
    /// Number of sound candidate wraps enumerated.
    pub considered: usize,
    /// The wraps actually applied (empty ⇒ plain plan kept).
    pub applied: Vec<WrapDesc>,
    /// Why nothing was applied, when `applied` is empty.
    pub declined: Option<String>,
    /// Estimated cost of the plain (unreduced) plan, under the
    /// containment estimate the reducer decides by.
    pub plain_cost: f64,
    /// Estimated cost of the returned plan, likewise (= `plain_cost`
    /// when no wrap was applied).
    pub reduced_cost: f64,
}

impl Default for ReductionReport {
    fn default() -> Self {
        ReductionReport {
            policy: ReducePolicy::Auto,
            considered: 0,
            applied: Vec::new(),
            declined: Some("not attempted".to_owned()),
            plain_cost: 0.0,
            reduced_cost: 0.0,
        }
    }
}

impl fmt::Display for ReductionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.applied.is_empty() {
            write!(
                f,
                "reduction: declined (policy={} considered={}{})",
                self.policy,
                self.considered,
                self.declined
                    .as_deref()
                    .map(|r| format!(" — {r}"))
                    .unwrap_or_default()
            )
        } else {
            write!(
                f,
                "reduction: {} wrap(s) applied (policy={} considered={})  plain_cost: {:.1}  reduced_cost: {:.1}",
                self.applied.len(),
                self.policy,
                self.considered,
                self.plain_cost,
                self.reduced_cost
            )?;
            for w in &self.applied {
                write!(f, "\n  {w}")?;
            }
            Ok(())
        }
    }
}

/// Is the join core of `g` acyclic? Union-find over the `Join` edges:
/// an edge whose endpoints are already connected closes a cycle, and
/// cyclic graphs get no Yannakakis guarantee (a full reducer would
/// need a tree decomposition the paper never requires).
fn join_core_acyclic(g: &QueryGraph) -> bool {
    let mut parent: Vec<usize> = (0..g.n_nodes()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in g.edges() {
        if e.kind() != EdgeKind::Join {
            continue;
        }
        let (ra, rb) = (find(&mut parent, e.a()), find(&mut parent, e.b()));
        if ra == rb {
            return false;
        }
        parent[ra] = rb;
    }
    true
}

/// Does `plan`'s output schema contain every attribute in `keys`?
/// Structural: tracks which relation attributes survive projections,
/// aggregations, and the schema-halving join kinds.
pub(super) fn provides(plan: &PhysPlan, keys: &[Attr]) -> bool {
    keys.iter().all(|k| provides_attr(plan, k))
}

fn provides_attr(plan: &PhysPlan, k: &Attr) -> bool {
    use fro_exec::JoinKind as JK;
    match plan {
        PhysPlan::Scan { rel } => k.rel() == rel,
        PhysPlan::Filter { input, .. } | PhysPlan::SemiReduce { input, .. } => {
            provides_attr(input, k)
        }
        PhysPlan::Project { attrs, .. } => attrs.contains(k),
        PhysPlan::GroupCount { group_attrs, .. } => group_attrs.contains(k),
        PhysPlan::HashJoin {
            kind, probe, build, ..
        } => match kind {
            JK::Semi | JK::Anti => provides_attr(probe, k),
            _ => provides_attr(probe, k) || provides_attr(build, k),
        },
        PhysPlan::IndexJoin {
            kind, outer, inner, ..
        } => match kind {
            JK::Semi | JK::Anti => provides_attr(outer, k),
            _ => provides_attr(outer, k) || k.rel() == inner,
        },
        PhysPlan::NlJoin {
            kind, left, right, ..
        } => match kind {
            JK::Semi | JK::Anti => provides_attr(left, k),
            _ => provides_attr(left, k) || provides_attr(right, k),
        },
        PhysPlan::Goj { left, right, .. } => provides_attr(left, k) || provides_attr(right, k),
    }
}

/// Find the shallow base access of `rel` inside `plan`: the `Scan`
/// node itself, or its immediate `Filter(Scan)` wrapper (tighter, and
/// still trivially a superset of the rows that reach any join above
/// it). Never returns a join subtree — sources must not re-execute
/// plan fragments.
fn find_base(plan: &PhysPlan, rel: &str) -> Option<PhysPlan> {
    match plan {
        PhysPlan::Scan { rel: r } if r == rel => Some(plan.clone()),
        PhysPlan::Scan { .. } => None,
        PhysPlan::Filter { input, .. } => match input.as_ref() {
            PhysPlan::Scan { rel: r } if r == rel => Some(plan.clone()),
            _ => find_base(input, rel),
        },
        PhysPlan::Project { input, .. }
        | PhysPlan::GroupCount { input, .. }
        | PhysPlan::SemiReduce { input, .. } => find_base(input, rel),
        PhysPlan::HashJoin { probe, build, .. } => {
            find_base(probe, rel).or_else(|| find_base(build, rel))
        }
        PhysPlan::IndexJoin { outer, inner, .. } => {
            if inner == rel {
                Some(PhysPlan::Scan { rel: inner.clone() })
            } else {
                find_base(outer, rel)
            }
        }
        PhysPlan::NlJoin { left, right, .. } | PhysPlan::Goj { left, right, .. } => {
            find_base(left, rel).or_else(|| find_base(right, rel))
        }
    }
}

fn label_of(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { rel } => format!("Scan {rel}"),
        PhysPlan::Filter { input, .. } => match input.as_ref() {
            PhysPlan::Scan { rel } => format!("Filter(Scan {rel})"),
            _ => "Filter(..)".to_owned(),
        },
        _ => "..".to_owned(),
    }
}

/// A wrap in flight: generated at a join, descending toward its
/// application point.
struct Pending {
    input_keys: Vec<Attr>,
    source: PhysPlan,
    source_keys: Vec<Attr>,
    pass: ReducePass,
}

struct RewriteCx<'a> {
    enabled: &'a [bool],
    cands: Vec<WrapDesc>,
}

impl RewriteCx<'_> {
    fn is_enabled(&self, idx: usize) -> bool {
        self.enabled.get(idx).copied().unwrap_or(false)
    }
}

/// Group equal-length key lists by the relation of the `by` side,
/// preserving first-occurrence order. Returns
/// `(rel, keys_of_by_side, keys_of_other_side)` triples.
fn group_by_rel<'k>(by: &'k [Attr], other: &'k [Attr]) -> Vec<(&'k str, Vec<Attr>, Vec<Attr>)> {
    let mut groups: Vec<(&str, Vec<Attr>, Vec<Attr>)> = Vec::new();
    for (b, o) in by.iter().zip(other) {
        if let Some(g) = groups.iter_mut().find(|g| g.0 == b.rel()) {
            g.1.push(b.clone());
            g.2.push(o.clone());
        } else {
            groups.push((b.rel(), vec![b.clone()], vec![o.clone()]));
        }
    }
    groups
}

/// Wrap `out` with every pending reduction, first pending innermost.
fn apply_pending(mut out: PhysPlan, pending: Vec<Pending>) -> PhysPlan {
    for p in pending {
        out = PhysPlan::SemiReduce {
            input: Box::new(out),
            source: Box::new(p.source),
            input_keys: p.input_keys,
            source_keys: p.source_keys,
            pass: p.pass,
        };
    }
    out
}

/// Split `pending` into the wraps that may descend into `child` and
/// the ones blocked here.
fn split_descend(pending: Vec<Pending>, child: &PhysPlan) -> (Vec<Pending>, Vec<Pending>) {
    pending
        .into_iter()
        .partition(|p| provides(child, &p.input_keys))
}

/// The single traversal that both enumerates candidate wraps (in a
/// deterministic, mask-independent order) and applies the enabled
/// subset. Enumerate with an empty mask; apply with the greedy
/// winner.
#[allow(clippy::too_many_lines)]
fn rewrite(plan: &PhysPlan, pending: Vec<Pending>, cx: &mut RewriteCx<'_>) -> PhysPlan {
    use fro_exec::JoinKind as JK;
    match plan {
        PhysPlan::Scan { .. } => apply_pending(plan.clone(), pending),
        PhysPlan::Filter { input, pred } => {
            let (desc, blocked) = split_descend(pending, input);
            let out = PhysPlan::Filter {
                input: Box::new(rewrite(input, desc, cx)),
                pred: pred.clone(),
            };
            apply_pending(out, blocked)
        }
        PhysPlan::Project { input, attrs } => {
            let (desc, blocked) = split_descend(pending, input);
            let out = PhysPlan::Project {
                input: Box::new(rewrite(input, desc, cx)),
                attrs: attrs.clone(),
            };
            apply_pending(out, blocked)
        }
        PhysPlan::SemiReduce {
            input,
            source,
            input_keys,
            source_keys,
            pass,
        } => {
            let (desc, blocked) = split_descend(pending, input);
            let out = PhysPlan::SemiReduce {
                input: Box::new(rewrite(input, desc, cx)),
                source: Box::new(rewrite(source, Vec::new(), cx)),
                input_keys: input_keys.clone(),
                source_keys: source_keys.clone(),
                pass: *pass,
            };
            apply_pending(out, blocked)
        }
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } if *kind != JK::FullOuter => {
            let mut probe_pending = Vec::new();
            let mut build_pending = Vec::new();
            // Up-pass candidates: reduce the probe side by its own
            // build key — sound only where every probe row must match
            // to surface.
            if matches!(kind, JK::Inner | JK::Semi) {
                for (rel, skeys, ikeys) in group_by_rel(build_keys, probe_keys) {
                    let Some(src) = find_base(build, rel) else {
                        continue;
                    };
                    if !provides(&src, &skeys) || !provides(probe, &ikeys) {
                        continue;
                    }
                    let idx = cx.cands.len();
                    cx.cands.push(WrapDesc {
                        pass: ReducePass::Up,
                        input_keys: ikeys.clone(),
                        source_keys: skeys.clone(),
                        source_label: label_of(&src),
                    });
                    if cx.is_enabled(idx) {
                        probe_pending.push(Pending {
                            input_keys: ikeys,
                            source: src,
                            source_keys: skeys,
                            pass: ReducePass::Up,
                        });
                    }
                }
            }
            // Down-pass candidates: reduce the build side by the probe
            // key — sound for every kind where an unmatchable build
            // row is inert.
            for (rel, skeys, ikeys) in group_by_rel(probe_keys, build_keys) {
                let Some(src) = find_base(probe, rel) else {
                    continue;
                };
                if !provides(&src, &skeys) || !provides(build, &ikeys) {
                    continue;
                }
                let idx = cx.cands.len();
                cx.cands.push(WrapDesc {
                    pass: ReducePass::Down,
                    input_keys: ikeys.clone(),
                    source_keys: skeys.clone(),
                    source_label: label_of(&src),
                });
                if cx.is_enabled(idx) {
                    build_pending.push(Pending {
                        input_keys: ikeys,
                        source: src,
                        source_keys: skeys,
                        pass: ReducePass::Down,
                    });
                }
            }
            let (mut desc, blocked) = split_descend(pending, probe);
            desc.append(&mut probe_pending);
            let out = PhysPlan::HashJoin {
                kind: *kind,
                probe: Box::new(rewrite(probe, desc, cx)),
                build: Box::new(rewrite(build, build_pending, cx)),
                probe_keys: probe_keys.clone(),
                build_keys: build_keys.clone(),
                residual: residual.clone(),
            };
            apply_pending(out, blocked)
        }
        PhysPlan::IndexJoin {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } if *kind != JK::FullOuter => {
            let mut outer_pending = Vec::new();
            // Up-pass only: the inner side is a stored table reached
            // through its index, not a plan operand to wrap.
            if matches!(kind, JK::Inner | JK::Semi) {
                for (_rel, skeys, ikeys) in group_by_rel(inner_keys, outer_keys) {
                    if !provides(outer, &ikeys) {
                        continue;
                    }
                    let src = PhysPlan::Scan { rel: inner.clone() };
                    let idx = cx.cands.len();
                    cx.cands.push(WrapDesc {
                        pass: ReducePass::Up,
                        input_keys: ikeys.clone(),
                        source_keys: skeys.clone(),
                        source_label: label_of(&src),
                    });
                    if cx.is_enabled(idx) {
                        outer_pending.push(Pending {
                            input_keys: ikeys,
                            source: src,
                            source_keys: skeys,
                            pass: ReducePass::Up,
                        });
                    }
                }
            }
            let (mut desc, blocked) = split_descend(pending, outer);
            desc.append(&mut outer_pending);
            let out = PhysPlan::IndexJoin {
                kind: *kind,
                outer: Box::new(rewrite(outer, desc, cx)),
                inner: inner.clone(),
                outer_keys: outer_keys.clone(),
                inner_keys: inner_keys.clone(),
                residual: residual.clone(),
            };
            apply_pending(out, blocked)
        }
        // Everything else blocks descent and generates no wraps, but
        // children are still traversed so joins below a barrier get
        // their own local reductions.
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } => {
            let out = PhysPlan::HashJoin {
                kind: *kind,
                probe: Box::new(rewrite(probe, Vec::new(), cx)),
                build: Box::new(rewrite(build, Vec::new(), cx)),
                probe_keys: probe_keys.clone(),
                build_keys: build_keys.clone(),
                residual: residual.clone(),
            };
            apply_pending(out, pending)
        }
        PhysPlan::IndexJoin { .. } => apply_pending(plan.clone(), pending),
        PhysPlan::NlJoin {
            kind,
            left,
            right,
            pred,
        } => {
            let out = PhysPlan::NlJoin {
                kind: *kind,
                left: Box::new(rewrite(left, Vec::new(), cx)),
                right: Box::new(rewrite(right, Vec::new(), cx)),
                pred: pred.clone(),
            };
            apply_pending(out, pending)
        }
        PhysPlan::GroupCount {
            input,
            group_attrs,
            counted,
        } => {
            let out = PhysPlan::GroupCount {
                input: Box::new(rewrite(input, Vec::new(), cx)),
                group_attrs: group_attrs.clone(),
                counted: counted.clone(),
            };
            apply_pending(out, pending)
        }
        PhysPlan::Goj {
            left,
            right,
            pred,
            subset,
        } => {
            let out = PhysPlan::Goj {
                left: Box::new(rewrite(left, Vec::new(), cx)),
                right: Box::new(rewrite(right, Vec::new(), cx)),
                pred: pred.clone(),
                subset: subset.clone(),
            };
            apply_pending(out, pending)
        }
    }
}

/// Run one enumerate-and-apply pass: returns the rewritten plan and
/// the full candidate list (the same list for every mask).
fn apply_wraps(plan: &PhysPlan, enabled: &[bool]) -> (PhysPlan, Vec<WrapDesc>) {
    let mut cx = RewriteCx {
        enabled,
        cands: Vec::new(),
    };
    let out = rewrite(plan, Vec::new(), &mut cx);
    (out, cx.cands)
}

/// Semijoin-reduce `plan` under `policy`. Returns the (possibly
/// rewritten) plan plus a [`ReductionReport`] describing the schedule,
/// its estimated cost against the plain plan, or why reduction was
/// declined. Pass the query graph when available: a cyclic join core
/// voids the Yannakakis guarantee and declines reduction outright
/// (`None` skips the gate — callers with hand-built plans own that
/// check).
#[must_use]
pub fn reduce_plan(
    plan: &PhysPlan,
    catalog: &Catalog,
    policy: ReducePolicy,
    graph: Option<&QueryGraph>,
) -> (PhysPlan, ReductionReport) {
    let plain = estimate_contained(plan, catalog);
    let mut report = ReductionReport {
        policy,
        considered: 0,
        applied: Vec::new(),
        declined: None,
        plain_cost: plain.cost,
        reduced_cost: plain.cost,
    };
    if policy == ReducePolicy::Never {
        report.declined = Some("policy".to_owned());
        return (plan.clone(), report);
    }
    if let Some(g) = graph {
        if !join_core_acyclic(g) {
            report.declined = Some("cyclic join graph".to_owned());
            return (plan.clone(), report);
        }
    }
    // Enumeration pass: empty mask applies nothing.
    let (_, cands) = apply_wraps(plan, &[]);
    report.considered = cands.len();
    if cands.is_empty() {
        report.declined = Some("no sound wrap sites".to_owned());
        return (plan.clone(), report);
    }
    let mut mask = vec![false; cands.len()];
    match policy {
        ReducePolicy::Always => mask.fill(true),
        ReducePolicy::Auto => {
            // Greedy: accept a wrap iff it improves the whole-plan
            // estimate by ≥1% over the best mask so far. Wraps that
            // merely restate the join they sit under (the first-joined
            // dimension's up-pass, say) don't clear the bar and fall
            // away on their own.
            let mut best = plain.cost;
            for i in 0..cands.len() {
                mask[i] = true;
                let (candidate, _) = apply_wraps(plan, &mask);
                let est = estimate_contained(&candidate, catalog);
                if est.cost < best * 0.99 {
                    best = est.cost;
                } else {
                    mask[i] = false;
                }
            }
        }
        ReducePolicy::Never => unreachable!("handled above"),
    }
    if !mask.iter().any(|&m| m) {
        report.declined = Some("no wrap beats the plain plan".to_owned());
        return (plan.clone(), report);
    }
    let (reduced, cands) = apply_wraps(plan, &mask);
    report.applied = cands
        .into_iter()
        .zip(&mask)
        .filter_map(|(c, &m)| m.then_some(c))
        .collect();
    report.reduced_cost = estimate_contained(&reduced, catalog).cost;
    (reduced, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Pred, Schema};
    use fro_exec::JoinKind;
    use std::sync::Arc;

    /// Skewed star stats: F's keys are nearly unique (10k distinct
    /// over 100k rows) while each dimension has 10k rows over only 100
    /// distinct keys. Containment says only ~1% of F survives each
    /// reduction, and the duplicate-heavy dimensions make the plain
    /// join estimate blow up — the shape the reducer exists for.
    fn skewed_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            "F",
            Arc::new(Schema::of_relation("F", &["d1", "d2"])),
            100_000,
        );
        cat.set_distinct(&Attr::parse("F.d1"), 10_000);
        cat.set_distinct(&Attr::parse("F.d2"), 10_000);
        cat.add_table("D1", Arc::new(Schema::of_relation("D1", &["k"])), 10_000);
        cat.set_distinct(&Attr::parse("D1.k"), 100);
        cat.add_table("D2", Arc::new(Schema::of_relation("D2", &["k"])), 10_000);
        cat.set_distinct(&Attr::parse("D2.k"), 100);
        cat
    }

    fn star_plan() -> PhysPlan {
        PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::HashJoin {
                kind: JoinKind::Inner,
                probe: Box::new(PhysPlan::scan("F")),
                build: Box::new(PhysPlan::scan("D1")),
                probe_keys: vec![Attr::parse("F.d1")],
                build_keys: vec![Attr::parse("D1.k")],
                residual: Pred::always(),
            }),
            build: Box::new(PhysPlan::scan("D2")),
            probe_keys: vec![Attr::parse("F.d2")],
            build_keys: vec![Attr::parse("D2.k")],
            residual: Pred::always(),
        }
    }

    #[test]
    fn auto_reduces_skewed_star_and_places_wraps_on_the_scan() {
        let cat = skewed_catalog();
        let (reduced, report) = reduce_plan(&star_plan(), &cat, ReducePolicy::Auto, None);
        assert!(
            !report.applied.is_empty(),
            "skewed star must be reduced: {report}"
        );
        assert!(report.reduced_cost < report.plain_cost);
        // The up-pass wraps descend to sit directly above Scan F.
        let text = reduced.explain();
        assert!(text.contains("SemiReduce"), "{text}");
        let scan_f = text.lines().position(|l| l.contains("Scan F")).unwrap();
        let wrap = text.lines().position(|l| l.contains("SemiReduce")).unwrap();
        assert!(wrap < scan_f, "wrap above the fact scan:\n{text}");
    }

    #[test]
    fn auto_declines_uniform_keys() {
        let mut cat = Catalog::new();
        cat.add_table("F", Arc::new(Schema::of_relation("F", &["d1", "d2"])), 1000);
        cat.set_distinct(&Attr::parse("F.d1"), 100);
        cat.set_distinct(&Attr::parse("F.d2"), 100);
        cat.add_table("D1", Arc::new(Schema::of_relation("D1", &["k"])), 100);
        cat.set_distinct(&Attr::parse("D1.k"), 100);
        cat.add_table("D2", Arc::new(Schema::of_relation("D2", &["k"])), 100);
        cat.set_distinct(&Attr::parse("D2.k"), 100);
        let (reduced, report) = reduce_plan(&star_plan(), &cat, ReducePolicy::Auto, None);
        assert!(report.applied.is_empty(), "{report}");
        assert_eq!(reduced, star_plan());
        assert!(report.considered > 0);
    }

    #[test]
    fn never_is_identity_and_always_forces() {
        let cat = skewed_catalog();
        let (plan, report) = reduce_plan(&star_plan(), &cat, ReducePolicy::Never, None);
        assert_eq!(plan, star_plan());
        assert_eq!(report.declined.as_deref(), Some("policy"));
        let (forced, report) = reduce_plan(&star_plan(), &cat, ReducePolicy::Always, None);
        assert_eq!(report.applied.len(), report.considered);
        assert!(forced.explain().contains("SemiReduce"));
    }

    #[test]
    fn outerjoin_adjacent_subtrees_are_refused() {
        let cat = skewed_catalog();
        // Left-outer probe side must not be up-reduced; full-outer
        // admits nothing at all.
        let lo = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("F")),
            build: Box::new(PhysPlan::scan("D1")),
            probe_keys: vec![Attr::parse("F.d1")],
            build_keys: vec![Attr::parse("D1.k")],
            residual: Pred::always(),
        };
        let (_, report) = reduce_plan(&lo, &cat, ReducePolicy::Always, None);
        assert!(report.applied.iter().all(|w| w.pass == ReducePass::Down));
        let fo = PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe: Box::new(PhysPlan::scan("F")),
            build: Box::new(PhysPlan::scan("D1")),
            probe_keys: vec![Attr::parse("F.d1")],
            build_keys: vec![Attr::parse("D1.k")],
            residual: Pred::always(),
        };
        let (plan, report) = reduce_plan(&fo, &cat, ReducePolicy::Always, None);
        assert_eq!(plan, fo);
        assert_eq!(report.considered, 0);
    }

    #[test]
    fn cyclic_graph_declines() {
        let cat = skewed_catalog();
        let mut g = QueryGraph::new(vec!["A".into(), "B".into(), "C".into()]);
        g.add_join_edge(0, 1, Pred::always()).unwrap();
        g.add_join_edge(1, 2, Pred::always()).unwrap();
        g.add_join_edge(0, 2, Pred::always()).unwrap();
        let (plan, report) = reduce_plan(&star_plan(), &cat, ReducePolicy::Always, Some(&g));
        assert_eq!(plan, star_plan());
        assert_eq!(report.declined.as_deref(), Some("cyclic join graph"));
    }
}
