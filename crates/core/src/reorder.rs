//! Theorem 1: free reorderability of join/outerjoin queries.
//!
//! > **Theorem 1.** If `graph(Q)` is "nice" and outerjoin predicates
//! > are strong then `Q` is freely reorderable: every implementing
//! > tree of `graph(Q)` evaluates to the same result.
//!
//! The *niceness* half is purely structural ([`fro_graph::nice`]).
//! The *strongness* half has two phrasings in the paper — Lemma 2 says
//! "strong with respect to the null-supplied relation", the §1.3
//! statement says "return False when all attributes of the preserved
//! relation are null" — and the identity that consumes strongness
//! (identity 12) needs `P_yz` strong w.r.t. `Y`, the **preserved**
//! endpoint of its own edge. [`Policy`] exposes the design space; all
//! three policies make Theorem 1 hold (validated against exhaustive IT
//! enumeration in the test-suite), differing only in how many queries
//! they admit.

use fro_algebra::Query;
use fro_graph::{check_nice, EdgeKind, GraphError, NiceViolation, QueryGraph};
use std::fmt;

/// Which strongness condition to require of outerjoin predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// The theorem's stated condition: every outerjoin predicate must
    /// be strong w.r.t. (the attributes it references from) its
    /// **preserved** endpoint.
    #[default]
    Paper,
    /// Strong w.r.t. *both* endpoints — the belt-and-braces reading
    /// that also satisfies Lemma 2's "null-supplied" phrasing. Admits
    /// fewer queries; every equijoin qualifies anyway.
    Strict,
    /// The minimal condition identity 12 exercises: strongness w.r.t.
    /// the preserved endpoint is required **only** when that endpoint
    /// is itself null-supplied by another outerjoin edge (an outerjoin
    /// chain). Admits the most queries.
    MinimalChain,
}

/// A reason a query is not (known to be) freely reorderable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `graph(Q)` is undefined (§1.2 conditions failed).
    GraphUndefined(GraphError),
    /// The graph is not nice (Lemma 1 pattern present).
    NotNice(NiceViolation),
    /// An outerjoin predicate fails the policy's strongness condition.
    WeakOuterjoinPredicate {
        /// Preserved relation of the offending edge.
        preserved: String,
        /// Null-supplied relation of the offending edge.
        null_supplied: String,
        /// The relation on whose attributes strongness was required
        /// but not established.
        needed_on: String,
        /// The predicate, rendered.
        pred: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::GraphUndefined(e) => write!(f, "query graph undefined: {e}"),
            Violation::NotNice(v) => write!(f, "graph is not nice: {v}"),
            Violation::WeakOuterjoinPredicate {
                preserved,
                null_supplied,
                needed_on,
                pred,
            } => write!(
                f,
                "outerjoin {preserved} → {null_supplied}: predicate `{pred}` is not strong w.r.t. {needed_on}"
            ),
        }
    }
}

/// The result of a reorderability analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The query graph, when defined.
    pub graph: Option<QueryGraph>,
    /// All violations found (empty ⇒ freely reorderable under the
    /// chosen policy).
    pub violations: Vec<Violation>,
    /// The policy used.
    pub policy: Policy,
}

impl Analysis {
    /// The analysis of a query whose graph is undefined.
    pub(crate) fn undefined(e: GraphError, policy: Policy) -> Analysis {
        Analysis {
            graph: None,
            violations: vec![Violation::GraphUndefined(e)],
            policy,
        }
    }

    /// Whether the query is freely reorderable under the policy.
    #[must_use]
    pub fn is_freely_reorderable(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_freely_reorderable() {
            write!(f, "freely reorderable (policy {:?})", self.policy)
        } else {
            writeln!(f, "NOT freely reorderable (policy {:?}):", self.policy)?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Analyze a query graph directly.
#[must_use]
pub fn analyze_graph(g: &QueryGraph, policy: Policy) -> Analysis {
    analyze_owned(g.clone(), policy)
}

/// [`analyze_graph`] over a graph the caller hands over, which the
/// analysis keeps.
pub(crate) fn analyze_owned(g: QueryGraph, policy: Policy) -> Analysis {
    let mut violations = Vec::new();

    let nice = check_nice(&g);
    for v in nice.violations {
        violations.push(Violation::NotNice(v));
    }

    for e in g.edges() {
        if e.kind() != EdgeKind::OuterJoin {
            continue;
        }
        let preserved = g.node_name(e.a()).to_owned();
        let null_supplied = g.node_name(e.b()).to_owned();
        let mut required: Vec<String> = Vec::new();
        match policy {
            Policy::Paper => required.push(preserved.clone()),
            Policy::Strict => {
                required.push(preserved.clone());
                required.push(null_supplied.clone());
            }
            Policy::MinimalChain => {
                if g.oj_in_degree(e.a()) > 0 {
                    required.push(preserved.clone());
                }
            }
        }
        for rel in required {
            if !e.pred().is_strong_on_rel(&rel) {
                violations.push(Violation::WeakOuterjoinPredicate {
                    preserved: preserved.clone(),
                    null_supplied: null_supplied.clone(),
                    needed_on: rel,
                    pred: e.pred().to_string(),
                });
            }
        }
    }

    Analysis {
        graph: Some(g),
        violations,
        policy,
    }
}

/// Analyze a query expression: build `graph(Q)` and check Theorem 1's
/// conditions under the given policy.
#[must_use]
pub fn analyze(q: &Query, policy: Policy) -> Analysis {
    match fro_graph::graph_of(q) {
        Ok(g) => analyze_owned(g, policy),
        Err(e) => Analysis::undefined(e, policy),
    }
}

/// Shorthand: is `q` freely reorderable under the default (`Paper`)
/// policy?
#[must_use]
pub fn is_freely_reorderable(q: &Query) -> bool {
    analyze(q, Policy::Paper).is_freely_reorderable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Pred;

    fn p(a: &str, b: &str) -> Pred {
        Pred::eq_attr(&format!("{a}.k{a}"), &format!("{b}.k{b}"))
    }

    fn example1() -> Query {
        Query::rel("R1").join(
            Query::rel("R2").outerjoin(Query::rel("R3"), p("R2", "R3")),
            p("R1", "R2"),
        )
    }

    #[test]
    fn example1_is_freely_reorderable() {
        assert!(is_freely_reorderable(&example1()));
        for policy in [Policy::Paper, Policy::Strict, Policy::MinimalChain] {
            let a = analyze(&example1(), policy);
            assert!(a.is_freely_reorderable(), "{a}");
            assert!(a.graph.is_some());
        }
    }

    #[test]
    fn example2_is_not() {
        let q = Query::rel("R1").outerjoin(
            Query::rel("R2").join(Query::rel("R3"), p("R2", "R3")),
            p("R1", "R2"),
        );
        let a = analyze(&q, Policy::Paper);
        assert!(!a.is_freely_reorderable());
        assert!(a
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NotNice(_))));
    }

    #[test]
    fn weak_predicate_detected_per_policy() {
        // A → B → C with the second predicate not strong w.r.t. B
        // (Example 3's P_bc). B is null-supplied by A → B, so ALL
        // policies must reject.
        let pbc = Pred::eq_attr("B.x", "C.x").or(Pred::is_null("B.x"));
        let q = Query::rel("A")
            .outerjoin(Query::rel("B"), p("A", "B"))
            .outerjoin(Query::rel("C"), pbc);
        for policy in [Policy::Paper, Policy::Strict, Policy::MinimalChain] {
            let a = analyze(&q, policy);
            assert!(
                !a.is_freely_reorderable(),
                "policy {policy:?} wrongly accepted Example 3's shape"
            );
            assert!(a.violations.iter().any(|v| matches!(
                v,
                Violation::WeakOuterjoinPredicate { needed_on, .. } if needed_on == "B"
            )));
        }
    }

    #[test]
    fn minimal_chain_admits_weak_pred_on_core_edge() {
        // Single outerjoin A → B with a predicate weak on A (the
        // preserved side). Identity 12 is never exercised (no chain),
        // so MinimalChain accepts; Paper and Strict reject.
        let pab = Pred::eq_attr("A.x", "B.x").or(Pred::is_null("A.x"));
        let q = Query::rel("A").outerjoin(Query::rel("B"), pab);
        assert!(analyze(&q, Policy::MinimalChain).is_freely_reorderable());
        assert!(!analyze(&q, Policy::Paper).is_freely_reorderable());
        assert!(!analyze(&q, Policy::Strict).is_freely_reorderable());
    }

    #[test]
    fn strict_requires_both_sides() {
        // Predicate strong on preserved A but weak on null-supplied B.
        let pab = Pred::cmp_lit("A.x", fro_algebra::CmpOp::Gt, 0)
            .and(Pred::eq_attr("A.x", "B.x").or(Pred::is_null("B.x")));
        // strong on A via first conjunct; OR makes B weak.
        let q = Query::rel("A").outerjoin(Query::rel("B"), pab);
        // Note: this predicate references only A in its first conjunct,
        // which makes graph construction reject it (conjunct not
        // binary)? No: outerjoin predicates are taken whole. Graph ok.
        let a_paper = analyze(&q, Policy::Paper);
        assert!(a_paper.is_freely_reorderable(), "{a_paper}");
        let a_strict = analyze(&q, Policy::Strict);
        assert!(!a_strict.is_freely_reorderable());
    }

    #[test]
    fn graph_undefined_reported() {
        let q = Query::rel("A").join(Query::rel("A"), Pred::eq_attr("A.x", "A.y"));
        let a = analyze(&q, Policy::Paper);
        assert!(!a.is_freely_reorderable());
        assert!(matches!(a.violations[0], Violation::GraphUndefined(_)));
        assert!(a.graph.is_none());
    }

    #[test]
    fn display_forms() {
        let a = analyze(&example1(), Policy::Paper);
        assert!(a.to_string().contains("freely reorderable"));
        let q = Query::rel("R1").outerjoin(
            Query::rel("R2").join(Query::rel("R3"), p("R2", "R3")),
            p("R1", "R2"),
        );
        let a = analyze(&q, Policy::Paper);
        assert!(a.to_string().contains("NOT freely reorderable"));
    }

    #[test]
    fn fig2_topology_accepted() {
        // Join core {A,B} with outerjoin trees off both.
        let q = Query::rel("A")
            .join(Query::rel("B"), p("A", "B"))
            .outerjoin(Query::rel("C"), p("A", "C"))
            .outerjoin(Query::rel("D"), p("B", "D"));
        // Note: builder associates left-deep; graph is what matters.
        assert!(is_freely_reorderable(&q));
    }

    #[test]
    fn oj_into_core_rejected() {
        // C → A where A also has a join edge: X → Y − Z pattern.
        let q = Query::rel("C")
            .outerjoin(Query::rel("A"), p("C", "A"))
            .join(Query::rel("B"), p("A", "B"));
        let a = analyze(&q, Policy::MinimalChain);
        assert!(!a.is_freely_reorderable());
    }
}
