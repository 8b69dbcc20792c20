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
//! Containment is a subgraph test over canonical graphs
//! ([`QueryGraph::canonical`]): nodes match by relation name, and each
//! edge of the smaller graph must appear in the larger one as the same
//! [`fro_graph::Edge`] — same kind, same direction, same canonical
//! predicate. Both graphs number their nodes by name, so matching
//! preserves node order and a join edge's ascending endpoints stay
//! ascending. Two phrasings of one graph therefore compare equal,
//! exactly like the [`super::plancache::GraphSignature`] they share.

use fro_graph::QueryGraph;

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

/// Whether every node and edge of `small` is in `big` (both
/// canonical).
fn contained(small: &QueryGraph, big: &QueryGraph) -> bool {
    let Some(node): Option<Vec<usize>> =
        small.node_names().iter().map(|n| big.node_id(n)).collect()
    else {
        return false;
    };
    // Canonical edges are sorted by endpoints, and an outerjoin edge's
    // endpoint order is its direction.
    small.edges().iter().all(|e| {
        let (a, b) = (node[e.a()], node[e.b()]);
        big.edges()
            .binary_search_by_key(&(a, b), |f| (f.a(), f.b()))
            .is_ok_and(|i| {
                let f = &big.edges()[i];
                f.kind() == e.kind() && f.pred() == e.pred()
            })
    })
}

/// Classify how `new` relates to `old` (both canonical), or `None`
/// when neither contains the other (overlap alone is not exploitable:
/// a shared *subgraph* does not make either query's maintained state a
/// state of the other).
#[must_use]
pub fn graph_containment(new: &QueryGraph, old: &QueryGraph) -> Option<GraphReuse> {
    match (contained(new, old), contained(old, new)) {
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
        g.canonical()
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
        let (fwd, rev) = (fwd.canonical(), rev.canonical());
        assert_eq!(graph_containment(&fwd, &rev), None);
        assert_eq!(
            graph_containment(&fwd, &fwd.clone()),
            Some(GraphReuse::Equivalent)
        );
    }
}
