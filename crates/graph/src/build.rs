//! The `graph(Q)` construction (§1.2) with the paper's definedness
//! conditions.
//!
//! For a join operator, *each predicate conjunct* contributes one
//! undirected edge and must reference attributes of exactly two ground
//! relations — one in each operand (the `⊙` convention of §2.1).
//! For an outerjoin, the *entire* predicate contributes one directed
//! edge toward the null-supplied operand and must reference exactly two
//! ground relations, "or else the graph is undefined". Relations appear
//! at most once; joins without edges (Cartesian products) are excluded
//! from implementing trees, so we reject predicate-free operators.

use crate::graph::{EdgeError, QueryGraph};
use fro_algebra::Query;
use std::collections::BTreeSet;
use std::fmt;

/// Why `graph(Q)` is undefined for a given query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The expression contains an operator other than join/outerjoin.
    NotJoinOuterjoin(String),
    /// A ground relation is used more than once.
    DuplicateRelation(String),
    /// A join conjunct does not reference exactly two ground relations.
    ConjunctNotBinary(String),
    /// A join conjunct references relations of only one operand.
    ConjunctDoesNotSpan(String),
    /// An outerjoin predicate does not reference exactly one ground
    /// relation on each side.
    OuterjoinPredNotBinary(String),
    /// An operator has no predicate conjuncts at all (a Cartesian
    /// product — excluded from implementing trees).
    CartesianProduct(String),
    /// Structural edge error (parallel outerjoin edge etc.).
    Edge(String),
    /// The query has more ground relations than a graph can hold
    /// ([`QueryGraph::MAX_NODES`]); carries the count.
    TooManyRelations(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NotJoinOuterjoin(op) => {
                write!(f, "query graphs are defined for join/outerjoin queries only; found {op}")
            }
            GraphError::DuplicateRelation(r) => {
                write!(f, "relation `{r}` is used more than once (rename copies)")
            }
            GraphError::ConjunctNotBinary(p) => {
                write!(f, "join conjunct `{p}` must reference exactly two ground relations")
            }
            GraphError::ConjunctDoesNotSpan(p) => {
                write!(f, "join conjunct `{p}` must reference one relation in each operand")
            }
            GraphError::OuterjoinPredNotBinary(p) => write!(
                f,
                "outerjoin predicate `{p}` must reference exactly two ground relations, one per operand"
            ),
            GraphError::CartesianProduct(q) => {
                write!(f, "operator with no join predicate (Cartesian product) at {q}")
            }
            GraphError::Edge(e) => write!(f, "edge error: {e}"),
            GraphError::TooManyRelations(n) => write!(
                f,
                "{n} relations; query graphs hold at most {}",
                QueryGraph::MAX_NODES
            ),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<EdgeError> for GraphError {
    fn from(e: EdgeError) -> Self {
        GraphError::Edge(e.to_string())
    }
}

/// Construct `graph(Q)`.
///
/// # Errors
/// A [`GraphError`] describing why the graph is undefined.
pub fn graph_of(q: &Query) -> Result<QueryGraph, GraphError> {
    // Leaf set, with the §1.2 each-relation-once check.
    let leaves = q.leaves();
    let mut seen = BTreeSet::new();
    for l in &leaves {
        if !seen.insert(l.clone()) {
            return Err(GraphError::DuplicateRelation(l.clone()));
        }
    }
    if leaves.len() > QueryGraph::MAX_NODES {
        return Err(GraphError::TooManyRelations(leaves.len()));
    }
    let mut g = QueryGraph::new(leaves);
    add_edges(q, &mut g)?;
    Ok(g)
}

/// The set of ground relations under each operand plus edge insertion,
/// bottom-up.
fn add_edges(q: &Query, g: &mut QueryGraph) -> Result<BTreeSet<String>, GraphError> {
    match q {
        Query::Rel(name) => Ok(BTreeSet::from([name.clone()])),
        Query::Join { left, right, pred } => {
            let ls = add_edges(left, g)?;
            let rs = add_edges(right, g)?;
            let conjuncts = pred.conjuncts();
            if conjuncts.is_empty() {
                return Err(GraphError::CartesianProduct(q.shape()));
            }
            for c in conjuncts {
                let rels = c.rels();
                if rels.len() != 2 {
                    return Err(GraphError::ConjunctNotBinary(c.to_string()));
                }
                let mut it = rels.iter();
                let (r1, r2) = (it.next().unwrap(), it.next().unwrap());
                let (in_l, in_r) = if ls.contains(r1) && rs.contains(r2) {
                    (r1, r2)
                } else if ls.contains(r2) && rs.contains(r1) {
                    (r2, r1)
                } else {
                    return Err(GraphError::ConjunctDoesNotSpan(c.to_string()));
                };
                let a = g.node_id(in_l).expect("leaf registered");
                let b = g.node_id(in_r).expect("leaf registered");
                g.add_join_edge(a, b, c)?;
            }
            Ok(ls.union(&rs).cloned().collect())
        }
        Query::OuterJoin { left, right, pred } => {
            let ls = add_edges(left, g)?;
            let rs = add_edges(right, g)?;
            let rels = pred.rels();
            if rels.len() != 2 {
                return Err(GraphError::OuterjoinPredNotBinary(pred.to_string()));
            }
            let mut it = rels.iter();
            let (r1, r2) = (it.next().unwrap(), it.next().unwrap());
            let (preserved, null_supplied) = if ls.contains(r1) && rs.contains(r2) {
                (r1, r2)
            } else if ls.contains(r2) && rs.contains(r1) {
                (r2, r1)
            } else {
                return Err(GraphError::OuterjoinPredNotBinary(pred.to_string()));
            };
            let a = g.node_id(preserved).expect("leaf registered");
            let b = g.node_id(null_supplied).expect("leaf registered");
            g.add_outerjoin_edge(a, b, pred.clone())?;
            Ok(ls.union(&rs).cloned().collect())
        }
        other => Err(GraphError::NotJoinOuterjoin(other.shape())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;
    use fro_algebra::{CmpOp, Pred};

    fn fig1_query() -> Query {
        // Figure 1's tree: ((R − S) − (T → U)) with p_rs, p_st, p_tu —
        // S–T is the cut conjunct of the root join.
        Query::rel("R")
            .join(Query::rel("S"), Pred::eq_attr("R.a", "S.a"))
            .join(
                Query::rel("T").outerjoin(Query::rel("U"), Pred::eq_attr("T.c", "U.d")),
                Pred::eq_attr("S.b", "T.b"),
            )
    }

    #[test]
    fn graph_of_fig1() {
        let g = graph_of(&fig1_query()).unwrap();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.edges().len(), 3);
        let oj_edges: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind() == EdgeKind::OuterJoin)
            .collect();
        assert_eq!(oj_edges.len(), 1);
        assert_eq!(g.node_name(oj_edges[0].a()), "T");
        assert_eq!(g.node_name(oj_edges[0].b()), "U");
    }

    #[test]
    fn same_graph_for_reassociated_trees() {
        // R − (S − (T → U)) implements the same graph as Figure 1's tree.
        let q2 = Query::rel("R").join(
            Query::rel("S").join(
                Query::rel("T").outerjoin(Query::rel("U"), Pred::eq_attr("T.c", "U.d")),
                Pred::eq_attr("S.b", "T.b"),
            ),
            Pred::eq_attr("R.a", "S.a"),
        );
        let g1 = graph_of(&fig1_query()).unwrap();
        let g2 = graph_of(&q2).unwrap();
        assert!(g1.same_graph(&g2));
    }

    #[test]
    fn multi_conjunct_join_collapses_parallel_edges() {
        // (R1.F = R2.F and R1.L = R2.L): two conjuncts, one edge.
        let q = Query::rel("R1").join(
            Query::rel("R2"),
            Pred::eq_attr("R1.F", "R2.F").and(Pred::eq_attr("R1.L", "R2.L")),
        );
        let g = graph_of(&q).unwrap();
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].pred().conjuncts().len(), 2);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let q = Query::rel("R").join(Query::rel("R"), Pred::eq_attr("R.a", "R.b"));
        assert!(matches!(
            graph_of(&q),
            Err(GraphError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn cartesian_product_rejected() {
        let q = Query::rel("R").join(Query::rel("S"), Pred::always());
        assert!(matches!(graph_of(&q), Err(GraphError::CartesianProduct(_))));
    }

    #[test]
    fn non_spanning_conjunct_rejected() {
        // Conjunct references R and S but both are in the left operand.
        let q = Query::rel("R")
            .join(Query::rel("S"), Pred::eq_attr("R.a", "S.a"))
            .join(
                Query::rel("T"),
                Pred::eq_attr("R.a", "S.b").and(Pred::eq_attr("S.b", "T.c")),
            );
        assert!(matches!(
            graph_of(&q),
            Err(GraphError::ConjunctDoesNotSpan(_))
        ));
    }

    #[test]
    fn restriction_conjunct_rejected() {
        let q = Query::rel("R").join(
            Query::rel("S"),
            Pred::eq_attr("R.a", "S.a").and(Pred::cmp_lit("R.a", CmpOp::Gt, 0)),
        );
        assert!(matches!(
            graph_of(&q),
            Err(GraphError::ConjunctNotBinary(_))
        ));
    }

    #[test]
    fn three_relation_oj_pred_rejected() {
        let q = Query::rel("R")
            .join(Query::rel("S"), Pred::eq_attr("R.a", "S.a"))
            .outerjoin(
                Query::rel("T"),
                Pred::eq_attr("R.a", "T.c").and(Pred::eq_attr("S.b", "T.c")),
            );
        assert!(matches!(
            graph_of(&q),
            Err(GraphError::OuterjoinPredNotBinary(_))
        ));
    }

    #[test]
    fn non_ojj_operator_rejected() {
        let q = Query::rel("R")
            .join(Query::rel("S"), Pred::eq_attr("R.a", "S.a"))
            .restrict(Pred::cmp_lit("R.a", CmpOp::Gt, 0));
        assert!(matches!(graph_of(&q), Err(GraphError::NotJoinOuterjoin(_))));
    }

    #[test]
    fn oj_direction_follows_preserved_side() {
        // U ← T written as (U outerjoined by T): T is preserved when T
        // is the left operand of Query::outerjoin.
        let q = Query::rel("U").outerjoin(Query::rel("T"), Pred::eq_attr("T.c", "U.d"));
        let g = graph_of(&q).unwrap();
        let e = &g.edges()[0];
        assert_eq!(g.node_name(e.a()), "U"); // preserved = left operand
        assert_eq!(g.node_name(e.b()), "T");
    }

    #[test]
    fn cyclic_join_graph_builds() {
        // Triangle: R−S, S−T, R−T.
        let q = Query::rel("R")
            .join(Query::rel("S"), Pred::eq_attr("R.a", "S.a"))
            .join(
                Query::rel("T"),
                Pred::eq_attr("S.b", "T.b").and(Pred::eq_attr("R.a", "T.a")),
            );
        let g = graph_of(&q).unwrap();
        assert_eq!(g.edges().len(), 3);
    }

    #[test]
    fn error_display() {
        let e = GraphError::DuplicateRelation("R".into());
        assert!(e.to_string().contains('R'));
        let e: GraphError = EdgeError::SelfLoop(1).into();
        assert!(matches!(e, GraphError::Edge(_)));
    }
}
