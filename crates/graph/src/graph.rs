//! The query-graph data structure (§1.2).

use fro_algebra::{Pred, RelSet};
use std::collections::BTreeMap;
use std::fmt;

/// Index of a node (relation) in a [`QueryGraph`].
pub type NodeId = usize;

/// The kind of a query-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// An undirected join edge (one per predicate conjunct; parallel
    /// edges between the same pair are collapsed, their conjuncts
    /// conjoined).
    Join,
    /// A directed outerjoin edge, pointing from the preserved relation
    /// toward the null-supplied relation, labeled with the entire
    /// outerjoin predicate.
    OuterJoin,
}

/// An edge of the query graph.
///
/// For join edges the endpoint order is canonical (`a < b`) and
/// carries no meaning; for outerjoin edges `a` is the preserved
/// endpoint and `b` the null-supplied endpoint (`a → b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    kind: EdgeKind,
    a: NodeId,
    b: NodeId,
    pred: Pred,
}

impl Edge {
    /// The edge kind.
    #[must_use]
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// First endpoint (preserved endpoint for outerjoin edges).
    #[must_use]
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// Second endpoint (null-supplied endpoint for outerjoin edges).
    #[must_use]
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// The edge label: the (merged) predicate.
    #[must_use]
    pub fn pred(&self) -> &Pred {
        &self.pred
    }

    /// The endpoint other than `n`.
    ///
    /// # Panics
    /// If `n` is not an endpoint of this edge.
    #[must_use]
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.a == n {
            self.b
        } else {
            assert_eq!(self.b, n, "node {n} is not an endpoint");
            self.a
        }
    }

    /// Whether `n` is an endpoint.
    #[must_use]
    pub fn touches(&self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }
}

/// Errors raised when mutating a [`QueryGraph`] directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeError {
    /// Both endpoints are the same node.
    SelfLoop(NodeId),
    /// An endpoint index is out of range.
    BadNode(NodeId),
    /// An outerjoin edge would parallel an existing edge between the
    /// same pair of nodes — the paper collapses parallel *join*
    /// conjuncts but a join/outerjoin or outerjoin/outerjoin parallel
    /// pair leaves the graph undefined.
    ParallelOuterjoin(NodeId, NodeId),
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            EdgeError::BadNode(n) => write!(f, "node index {n} out of range"),
            EdgeError::ParallelOuterjoin(a, b) => {
                write!(f, "outerjoin edge {a}–{b} parallels an existing edge")
            }
        }
    }
}

impl std::error::Error for EdgeError {}

/// A query graph: relation nodes plus join/outerjoin edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    nodes: Vec<String>,
    name_to_id: BTreeMap<String, NodeId>,
    edges: Vec<Edge>,
    /// adjacency[n] = indices into `edges`
    adjacency: Vec<Vec<usize>>,
}

impl QueryGraph {
    /// The most relations a graph holds: its node sets are
    /// [`RelSet`]s.
    pub const MAX_NODES: usize = RelSet::MAX_MEMBERS;

    /// Create a graph with the given relation names and no edges.
    ///
    /// # Panics
    /// If more than [`QueryGraph::MAX_NODES`] nodes or duplicate names
    /// are supplied.
    #[must_use]
    pub fn new(nodes: Vec<String>) -> QueryGraph {
        assert!(
            nodes.len() <= QueryGraph::MAX_NODES,
            "query graphs are limited to {} relations",
            QueryGraph::MAX_NODES
        );
        let mut name_to_id = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            let prev = name_to_id.insert(n.clone(), i);
            assert!(prev.is_none(), "duplicate relation name `{n}`");
        }
        let adjacency = vec![Vec::new(); nodes.len()];
        QueryGraph {
            nodes,
            name_to_id,
            edges: Vec::new(),
            adjacency,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Relation name of node `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    #[must_use]
    pub fn node_name(&self, i: NodeId) -> &str {
        &self.nodes[i]
    }

    /// All node names, in id order.
    #[must_use]
    pub fn node_names(&self) -> &[String] {
        &self.nodes
    }

    /// Node id of a relation name.
    #[must_use]
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.name_to_id.get(name).copied()
    }

    /// The edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterate `(neighbor, edge)` pairs at node `n`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, &Edge)> {
        self.adjacency[n].iter().map(move |&ei| {
            let e = &self.edges[ei];
            (e.other(n), e)
        })
    }

    /// Edge indices incident to node `n`.
    #[must_use]
    pub fn incident_edges(&self, n: NodeId) -> &[usize] {
        &self.adjacency[n]
    }

    fn check_pair(&self, a: NodeId, b: NodeId) -> Result<(), EdgeError> {
        if a == b {
            return Err(EdgeError::SelfLoop(a));
        }
        if a >= self.nodes.len() {
            return Err(EdgeError::BadNode(a));
        }
        if b >= self.nodes.len() {
            return Err(EdgeError::BadNode(b));
        }
        Ok(())
    }

    fn edge_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.adjacency[a]
            .iter()
            .copied()
            .find(|&ei| self.edges[ei].touches(b))
    }

    /// Add a join-conjunct edge between `a` and `b`. A parallel join
    /// edge is collapsed: the conjunct is ANDed onto the existing
    /// label (§1.2: "parallel edges will be collapsed into one").
    ///
    /// # Errors
    /// [`EdgeError`] for self-loops, bad indices, or when the parallel
    /// edge is an outerjoin edge.
    pub fn add_join_edge(&mut self, a: NodeId, b: NodeId, conjunct: Pred) -> Result<(), EdgeError> {
        self.check_pair(a, b)?;
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if let Some(ei) = self.edge_between(a, b) {
            if self.edges[ei].kind == EdgeKind::OuterJoin {
                return Err(EdgeError::ParallelOuterjoin(a, b));
            }
            let prev = self.edges[ei].pred.clone();
            self.edges[ei].pred = prev.and(conjunct);
            return Ok(());
        }
        let ei = self.edges.len();
        self.edges.push(Edge {
            kind: EdgeKind::Join,
            a,
            b,
            pred: conjunct,
        });
        self.adjacency[a].push(ei);
        self.adjacency[b].push(ei);
        Ok(())
    }

    /// Add a directed outerjoin edge `preserved → null_supplied`.
    ///
    /// # Errors
    /// [`EdgeError::ParallelOuterjoin`] when any edge already connects
    /// the pair (the graph would be undefined), plus self-loop/index
    /// errors.
    pub fn add_outerjoin_edge(
        &mut self,
        preserved: NodeId,
        null_supplied: NodeId,
        pred: Pred,
    ) -> Result<(), EdgeError> {
        self.check_pair(preserved, null_supplied)?;
        if self.edge_between(preserved, null_supplied).is_some() {
            return Err(EdgeError::ParallelOuterjoin(preserved, null_supplied));
        }
        let ei = self.edges.len();
        self.edges.push(Edge {
            kind: EdgeKind::OuterJoin,
            a: preserved,
            b: null_supplied,
            pred,
        });
        self.adjacency[preserved].push(ei);
        self.adjacency[null_supplied].push(ei);
        Ok(())
    }

    /// Outerjoin in-degree of node `n` (number of outerjoin edges with
    /// `n` as null-supplied endpoint).
    #[must_use]
    pub fn oj_in_degree(&self, n: NodeId) -> usize {
        self.adjacency[n]
            .iter()
            .filter(|&&ei| {
                let e = &self.edges[ei];
                e.kind == EdgeKind::OuterJoin && e.b == n
            })
            .count()
    }

    /// Whether node `n` touches any join edge.
    #[must_use]
    pub fn has_join_edge(&self, n: NodeId) -> bool {
        self.adjacency[n]
            .iter()
            .any(|&ei| self.edges[ei].kind == EdgeKind::Join)
    }

    /// The graph in canonical form: nodes numbered by name, join-edge
    /// endpoints in ascending order, every predicate in its canonical
    /// spelling ([`Pred::canonical`]) and the edges sorted by endpoints.
    /// Names are unique, so this numbering is the only one needed: any
    /// two phrasings of one graph — From-List order, association, how
    /// each predicate is written — have equal canonical forms, and
    /// everything derived from a canonical graph (plans, cache keys,
    /// view identity) depends on the graph alone.
    #[must_use]
    pub fn canonical(&self) -> QueryGraph {
        let mut rank = vec![0; self.nodes.len()];
        for (new, &old) in self.name_to_id.values().enumerate() {
            rank[old] = new;
        }
        let mut edges: Vec<Edge> = self
            .edges
            .iter()
            .map(|e| {
                let (a, b) = (rank[e.a], rank[e.b]);
                let (a, b) = if e.kind == EdgeKind::Join && a > b {
                    (b, a)
                } else {
                    (a, b)
                };
                Edge {
                    kind: e.kind,
                    a,
                    b,
                    pred: e.pred.canonical(),
                }
            })
            .collect();
        // At most one edge joins a pair, so the endpoints order edges
        // totally.
        edges.sort_unstable_by_key(|e| (e.a, e.b));
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            adjacency[e.a].push(ei);
            adjacency[e.b].push(ei);
        }
        QueryGraph {
            nodes: self.name_to_id.keys().cloned().collect(),
            name_to_id: self
                .name_to_id
                .keys()
                .enumerate()
                .map(|(i, n)| (n.clone(), i))
                .collect(),
            edges,
            adjacency,
        }
    }

    /// Structural equality up to node numbering and predicate
    /// spelling: equal canonical forms. This is the
    /// `graph(Q) = graph(Q')` relation of the paper.
    #[must_use]
    pub fn same_graph(&self, other: &QueryGraph) -> bool {
        self.canonical() == other.canonical()
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes: {}", self.nodes.join(", "))?;
        for e in &self.edges {
            match e.kind {
                EdgeKind::Join => writeln!(
                    f,
                    "  {} — {}  [{}]",
                    self.nodes[e.a], self.nodes[e.b], e.pred
                )?,
                EdgeKind::OuterJoin => writeln!(
                    f,
                    "  {} → {}  [{}]",
                    self.nodes[e.a], self.nodes[e.b], e.pred
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g3() -> QueryGraph {
        let mut g = QueryGraph::new(vec!["R0".into(), "R1".into(), "R2".into()]);
        g.add_join_edge(0, 1, Pred::eq_attr("R0.a", "R1.b"))
            .unwrap();
        g.add_outerjoin_edge(1, 2, Pred::eq_attr("R1.b", "R2.c"))
            .unwrap();
        g
    }

    #[test]
    fn node_lookup() {
        let g = g3();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.node_id("R1"), Some(1));
        assert_eq!(g.node_id("nope"), None);
        assert_eq!(g.node_name(2), "R2");
    }

    #[test]
    fn neighbors_and_incidence() {
        let g = g3();
        let nbrs: Vec<NodeId> = g.neighbors(1).map(|(n, _)| n).collect();
        assert_eq!(nbrs, vec![0, 2]);
        assert_eq!(g.incident_edges(0).len(), 1);
    }

    #[test]
    fn parallel_join_edges_collapse() {
        let mut g = QueryGraph::new(vec!["A".into(), "B".into()]);
        g.add_join_edge(0, 1, Pred::eq_attr("A.f", "B.f")).unwrap();
        g.add_join_edge(1, 0, Pred::eq_attr("A.l", "B.l")).unwrap();
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].pred().conjuncts().len(), 2);
    }

    #[test]
    fn parallel_outerjoin_rejected() {
        let mut g = QueryGraph::new(vec!["A".into(), "B".into()]);
        g.add_outerjoin_edge(0, 1, Pred::eq_attr("A.x", "B.y"))
            .unwrap();
        let e = g.add_outerjoin_edge(0, 1, Pred::eq_attr("A.z", "B.w"));
        assert!(matches!(e, Err(EdgeError::ParallelOuterjoin(..))));
        let e = g.add_join_edge(0, 1, Pred::eq_attr("A.z", "B.w"));
        assert!(matches!(e, Err(EdgeError::ParallelOuterjoin(..))));
    }

    #[test]
    fn self_loop_and_bad_node_rejected() {
        let mut g = QueryGraph::new(vec!["A".into(), "B".into()]);
        assert!(matches!(
            g.add_join_edge(0, 0, Pred::always()),
            Err(EdgeError::SelfLoop(0))
        ));
        assert!(matches!(
            g.add_join_edge(0, 5, Pred::always()),
            Err(EdgeError::BadNode(5))
        ));
    }

    #[test]
    fn oj_in_degree_and_join_incidence() {
        let g = g3();
        assert_eq!(g.oj_in_degree(2), 1);
        assert_eq!(g.oj_in_degree(1), 0);
        assert!(g.has_join_edge(0));
        assert!(g.has_join_edge(1));
        assert!(!g.has_join_edge(2));
    }

    #[test]
    fn same_graph_up_to_numbering() {
        let a = g3();
        // Build the same graph with a different node order.
        let mut b = QueryGraph::new(vec!["R2".into(), "R0".into(), "R1".into()]);
        b.add_outerjoin_edge(2, 0, Pred::eq_attr("R1.b", "R2.c"))
            .unwrap();
        b.add_join_edge(2, 1, Pred::eq_attr("R0.a", "R1.b"))
            .unwrap();
        assert!(a.same_graph(&b));
        // Flip the outerjoin direction: different graph.
        let mut c = QueryGraph::new(vec!["R0".into(), "R1".into(), "R2".into()]);
        c.add_join_edge(0, 1, Pred::eq_attr("R0.a", "R1.b"))
            .unwrap();
        c.add_outerjoin_edge(2, 1, Pred::eq_attr("R1.b", "R2.c"))
            .unwrap();
        assert!(!a.same_graph(&c));
    }

    #[test]
    fn canonical_form_numbers_by_name_and_ignores_spelling() {
        let mut b = QueryGraph::new(vec!["R2".into(), "R0".into(), "R1".into()]);
        b.add_outerjoin_edge(2, 0, Pred::eq_attr("R2.c", "R1.b"))
            .unwrap();
        b.add_join_edge(2, 1, Pred::eq_attr("R1.b", "R0.a"))
            .unwrap();
        let c = b.canonical();
        assert_eq!(c, g3().canonical());
        assert_eq!(c.node_names(), ["R0", "R1", "R2"]);
        assert_eq!((c.edges()[0].a(), c.edges()[0].b()), (0, 1));
        assert_eq!(c.edges()[0].pred(), &Pred::eq_attr("R0.a", "R1.b"));
        assert_eq!(c.edges()[1].kind(), EdgeKind::OuterJoin);
        assert_eq!(c.canonical(), c, "idempotent");
    }

    #[test]
    fn same_graph_distinguishes_edge_kinds() {
        let mut a = QueryGraph::new(vec!["A".into(), "B".into()]);
        a.add_join_edge(0, 1, Pred::eq_attr("A.x", "B.y")).unwrap();
        let mut b = QueryGraph::new(vec!["A".into(), "B".into()]);
        b.add_outerjoin_edge(0, 1, Pred::eq_attr("A.x", "B.y"))
            .unwrap();
        assert!(!a.same_graph(&b));
    }

    #[test]
    fn display_renders_arrows() {
        let s = g3().to_string();
        assert!(s.contains("R1 → R2"));
        assert!(s.contains("R0 — R1"));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = g3();
        let e = &g.edges()[0];
        assert_eq!(e.other(0), 1);
        assert_eq!(e.other(1), 0);
        assert!(e.touches(0) && !e.touches(2));
    }
}
