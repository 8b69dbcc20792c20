//! Finkelstein-style query-graph containment.
//!
//! Theorem 1 makes the query graph the *identity* of a freely
//! reorderable query, which licenses more than exact-match caching:
//! when one standing query's graph is contained in another's — same
//! relations and edges, plus extra joins on one side — the two share
//! every build side over their common base relations. This module
//! classifies that relationship (the readyset lineage calls the two
//! directions *prefix reuse* and *direct extension*); the standing
//! registry uses the verdict to route a new registration at the pooled
//! build sides of an existing view.
//!
//! Containment is computed over *names*: a node is its relation name,
//! an edge is `(kind, endpoints, rendered predicate)` with join-edge
//! endpoints order-normalized (join edges are undirected; outerjoin
//! edges keep their preserved → null-supplied direction) and the
//! predicate in its canonical spelling
//! ([`fro_algebra::Pred::canonical`]). Two graphs that differ only in
//! node numbering or in how a predicate is written therefore compare
//! equal, exactly like the [`super::plancache::GraphSignature`] they
//! share.

use fro_graph::{EdgeKind, QueryGraph};
use std::collections::BTreeSet;

/// How a new query graph relates to an already-registered one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphReuse {
    /// Same nodes, same edges: the queries are alpha-equivalent.
    Equivalent,
    /// The new graph is contained in the registered one (the
    /// registered query joins a superset) — Finkelstein *prefix*
    /// reuse.
    PrefixOf,
    /// The new graph contains the registered one (the new query joins
    /// a superset) — Finkelstein *direct extension*.
    ExtensionOf,
}

/// A canonical edge descriptor: `(kind, endpoint, endpoint, rendered
/// canonical predicate)` with join-edge endpoints order-normalized.
type CanonEdge = (u8, String, String, String);

/// A graph as comparable sets: relation names and canonical edge
/// descriptors.
fn canon(g: &QueryGraph) -> (BTreeSet<&str>, BTreeSet<CanonEdge>) {
    let nodes: BTreeSet<&str> = (0..g.n_nodes()).map(|i| g.node_name(i)).collect();
    let edges = g
        .edges()
        .iter()
        .map(|e| {
            let (mut a, mut b) = (g.node_name(e.a()), g.node_name(e.b()));
            if e.kind() == EdgeKind::Join && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            let kind = match e.kind() {
                EdgeKind::Join => 0u8,
                EdgeKind::OuterJoin => 1u8,
            };
            (
                kind,
                a.to_owned(),
                b.to_owned(),
                e.pred().canonical().to_string(),
            )
        })
        .collect();
    (nodes, edges)
}

/// Classify how `new` relates to `old`, or `None` when neither
/// contains the other (overlap alone is not exploitable: a shared
/// *subgraph* does not make either query's maintained state a state
/// of the other).
#[must_use]
pub fn graph_containment(new: &QueryGraph, old: &QueryGraph) -> Option<GraphReuse> {
    let (nn, ne) = canon(new);
    let (on, oe) = canon(old);
    let new_in_old = nn.is_subset(&on) && ne.is_subset(&oe);
    let old_in_new = on.is_subset(&nn) && oe.is_subset(&ne);
    match (new_in_old, old_in_new) {
        (true, true) => Some(GraphReuse::Equivalent),
        (true, false) => Some(GraphReuse::PrefixOf),
        (false, true) => Some(GraphReuse::ExtensionOf),
        (false, false) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Pred;

    fn graph(names: &[&str], joins: &[(usize, usize, &str, &str)]) -> QueryGraph {
        let mut g = QueryGraph::new(names.iter().map(|s| (*s).to_owned()).collect());
        for &(a, b, x, y) in joins {
            g.add_join_edge(a, b, Pred::eq_attr(x, y)).unwrap();
        }
        g
    }

    #[test]
    fn equivalent_prefix_extension_and_unrelated() {
        let two = graph(&["F", "D1"], &[(0, 1, "F.d1", "D1.k")]);
        let three = graph(
            &["F", "D1", "D2"],
            &[(0, 1, "F.d1", "D1.k"), (0, 2, "F.d2", "D2.k")],
        );
        // Same graph with nodes declared in another order.
        let two_renumbered = graph(&["D1", "F"], &[(1, 0, "F.d1", "D1.k")]);
        assert_eq!(
            graph_containment(&two, &two_renumbered),
            Some(GraphReuse::Equivalent)
        );
        assert_eq!(graph_containment(&two, &three), Some(GraphReuse::PrefixOf));
        assert_eq!(
            graph_containment(&three, &two),
            Some(GraphReuse::ExtensionOf)
        );
        let other = graph(&["A", "B"], &[(0, 1, "A.x", "B.x")]);
        assert_eq!(graph_containment(&other, &three), None);
    }

    #[test]
    fn same_nodes_different_predicates_do_not_contain() {
        let a = graph(&["R", "S"], &[(0, 1, "R.k", "S.k")]);
        let b = graph(&["R", "S"], &[(0, 1, "R.v", "S.v")]);
        assert_eq!(graph_containment(&a, &b), None);
    }

    #[test]
    fn outerjoin_direction_matters() {
        let mut fwd = QueryGraph::new(vec!["R".into(), "S".into()]);
        fwd.add_outerjoin_edge(0, 1, Pred::eq_attr("R.k", "S.k"))
            .unwrap();
        let mut rev = QueryGraph::new(vec!["R".into(), "S".into()]);
        rev.add_outerjoin_edge(1, 0, Pred::eq_attr("R.k", "S.k"))
            .unwrap();
        assert_eq!(graph_containment(&fwd, &rev), None);
        assert_eq!(
            graph_containment(&fwd, &fwd.clone()),
            Some(GraphReuse::Equivalent)
        );
    }
}
