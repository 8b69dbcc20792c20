//! Syntactic lowering: map a [`Query`] tree to a physical plan
//! *without reordering* — the baseline an optimizer is reduced to when
//! a query is not freely reorderable (and the comparison point for the
//! benefit measurements in the experiments).
//!
//! The main path ([`lower`]) interns the query's relation names into a
//! [`RelMap`] once and threads [`RelSet`] bitsets through the
//! recursion, so predicate splitting does no string set-membership
//! tests. The historical name-keyed walk survives crate-privately: it
//! is the comparison target for the interned path's equivalence tests
//! and the fallback for queries with more relations than a [`RelSet`]
//! can hold. Under the `testing-oracles` feature it is re-exposed
//! (hidden) as `lower_by_name`/`split_equi_by_name` for the external
//! oracle tests.

use super::cuts::{self, RelMap};
use super::stats::Catalog;
use super::OptError;
use fro_algebra::{Attr, CmpOp, Pred, Query, RelSet, Scalar};
use fro_exec::{JoinKind, PhysPlan};
use std::collections::BTreeSet;

/// Split a predicate into equi-join key pairs `(left_attr,
/// right_attr)` across the given relation sets, plus the residual
/// predicate of everything else.
///
/// Compatibility shim: side membership is tested against
/// `BTreeSet<String>`. The optimizer's own paths use the interned
/// [`cuts::split_equi`], which answers the same question with one bit
/// test per attribute.
#[must_use]
pub(crate) fn split_equi_by_name_impl(
    pred: &Pred,
    left_rels: &BTreeSet<String>,
    right_rels: &BTreeSet<String>,
) -> (Vec<(Attr, Attr)>, Pred) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for conj in pred.conjuncts() {
        if let Pred::Cmp {
            op: CmpOp::Eq,
            lhs: Scalar::Attr(a),
            rhs: Scalar::Attr(b),
        } = &conj
        {
            if left_rels.contains(a.rel()) && right_rels.contains(b.rel()) {
                pairs.push((a.clone(), b.clone()));
                continue;
            }
            if left_rels.contains(b.rel()) && right_rels.contains(a.rel()) {
                pairs.push((b.clone(), a.clone()));
                continue;
            }
        }
        residual.push(conj);
    }
    (pairs, Pred::from_conjuncts(residual))
}

/// Lower a query tree in its given association.
///
/// # Errors
/// [`OptError::Unsupported`] for operators with no physical form
/// (currently `Union`).
pub fn lower(q: &Query, catalog: &Catalog) -> Result<PhysPlan, OptError> {
    let rels = q.rels();
    if rels.len() > RelSet::MAX_MEMBERS {
        // Beyond bitset capacity: fall back to the name-keyed walk.
        return lower_by_name_impl(q, catalog);
    }
    let relmap = RelMap::from_rels(rels, catalog);
    lower_rec(q, catalog, &relmap).map(|(plan, _)| plan)
}

/// One recursion step: the plan plus the bitset of relations it
/// covers (the left/right sets every join split needs).
fn lower_rec(
    q: &Query,
    catalog: &Catalog,
    relmap: &RelMap,
) -> Result<(PhysPlan, RelSet), OptError> {
    match q {
        Query::Rel(name) => {
            let node = relmap
                .node_of(name)
                .expect("every relation of the query is in its RelMap");
            Ok((PhysPlan::scan(name.clone()), RelSet::singleton(node)))
        }
        Query::Join { left, right, pred } => {
            lower_join_rec(JoinKind::Inner, left, right, pred, catalog, relmap)
        }
        Query::OuterJoin { left, right, pred } => {
            lower_join_rec(JoinKind::LeftOuter, left, right, pred, catalog, relmap)
        }
        Query::FullOuterJoin { left, right, pred } => {
            // Never an index join: unmatched inner rows would be lost.
            let (left_plan, lset) = lower_rec(left, catalog, relmap)?;
            let (right_plan, rset) = lower_rec(right, catalog, relmap)?;
            let (pairs, residual) = cuts::split_equi(pred, lset, rset, relmap);
            let plan = if pairs.is_empty() {
                PhysPlan::NlJoin {
                    kind: JoinKind::FullOuter,
                    left: Box::new(left_plan),
                    right: Box::new(right_plan),
                    pred: pred.clone(),
                }
            } else {
                let (probe_keys, build_keys): (Vec<Attr>, Vec<Attr>) = pairs.into_iter().unzip();
                PhysPlan::HashJoin {
                    kind: JoinKind::FullOuter,
                    probe: Box::new(left_plan),
                    build: Box::new(right_plan),
                    probe_keys,
                    build_keys,
                    residual,
                }
            };
            Ok((plan, lset.union(rset)))
        }
        Query::SemiJoin { left, right, pred } => {
            lower_join_rec(JoinKind::Semi, left, right, pred, catalog, relmap)
        }
        Query::AntiJoin { left, right, pred } => {
            lower_join_rec(JoinKind::Anti, left, right, pred, catalog, relmap)
        }
        Query::Restrict { input, pred } => {
            let (plan, set) = lower_rec(input, catalog, relmap)?;
            Ok((
                PhysPlan::Filter {
                    input: Box::new(plan),
                    pred: pred.clone(),
                },
                set,
            ))
        }
        Query::Project { input, attrs } => {
            let (plan, set) = lower_rec(input, catalog, relmap)?;
            Ok((
                PhysPlan::Project {
                    input: Box::new(plan),
                    attrs: attrs.clone(),
                },
                set,
            ))
        }
        Query::GroupCount {
            input,
            group_attrs,
            counted,
        } => {
            let (plan, set) = lower_rec(input, catalog, relmap)?;
            Ok((
                PhysPlan::GroupCount {
                    input: Box::new(plan),
                    group_attrs: group_attrs.clone(),
                    counted: counted.clone(),
                },
                set,
            ))
        }
        Query::Goj {
            left,
            right,
            pred,
            subset,
        } => {
            let (left_plan, lset) = lower_rec(left, catalog, relmap)?;
            let (right_plan, rset) = lower_rec(right, catalog, relmap)?;
            Ok((
                PhysPlan::Goj {
                    left: Box::new(left_plan),
                    right: Box::new(right_plan),
                    pred: pred.clone(),
                    subset: subset.clone(),
                },
                lset.union(rset),
            ))
        }
        Query::Union { .. } => Err(OptError::Unsupported(
            "union has no physical operator in this engine".into(),
        )),
    }
}

fn lower_join_rec(
    kind: JoinKind,
    left: &Query,
    right: &Query,
    pred: &Pred,
    catalog: &Catalog,
    relmap: &RelMap,
) -> Result<(PhysPlan, RelSet), OptError> {
    let (left_plan, lset) = lower_rec(left, catalog, relmap)?;
    let (right_plan, rset) = lower_rec(right, catalog, relmap)?;
    let (pairs, residual) = cuts::split_equi(pred, lset, rset, relmap);
    if pairs.is_empty() {
        return Ok((
            PhysPlan::NlJoin {
                kind,
                left: Box::new(left_plan),
                right: Box::new(right_plan),
                pred: pred.clone(),
            },
            lset.union(rset),
        ));
    }
    let (outer_keys, inner_keys): (Vec<Attr>, Vec<Attr>) = pairs.into_iter().unzip();
    if let Query::Rel(name) = right {
        let indexed = catalog
            .table(name)
            .is_some_and(|t| t.has_index(&inner_keys));
        if indexed {
            return Ok((
                PhysPlan::IndexJoin {
                    kind,
                    outer: Box::new(left_plan),
                    inner: name.clone(),
                    outer_keys,
                    inner_keys,
                    residual,
                },
                lset.union(rset),
            ));
        }
    }
    Ok((
        PhysPlan::HashJoin {
            kind,
            probe: Box::new(left_plan),
            build: Box::new(right_plan),
            probe_keys: outer_keys,
            build_keys: inner_keys,
            residual,
        },
        lset.union(rset),
    ))
}

/// Lower a query tree using name-keyed relation sets throughout — the
/// historical walk, kept as the interned path's equivalence oracle and
/// as the fallback past [`RelSet::MAX_MEMBERS`] relations.
///
/// # Errors
/// [`OptError::Unsupported`] for operators with no physical form
/// (currently `Union`).
pub(crate) fn lower_by_name_impl(q: &Query, catalog: &Catalog) -> Result<PhysPlan, OptError> {
    match q {
        Query::Rel(name) => Ok(PhysPlan::scan(name.clone())),
        Query::Join { left, right, pred } => {
            lower_join_by_name(JoinKind::Inner, left, right, pred, catalog)
        }
        Query::OuterJoin { left, right, pred } => {
            lower_join_by_name(JoinKind::LeftOuter, left, right, pred, catalog)
        }
        Query::FullOuterJoin { left, right, pred } => {
            // Never an index join: unmatched inner rows would be lost.
            let left_plan = lower_by_name_impl(left, catalog)?;
            let right_plan = lower_by_name_impl(right, catalog)?;
            let right_rels = right.rels();
            let (pairs, residual) = split_equi_by_name_impl(pred, &left.rels(), &right_rels);
            Ok(if pairs.is_empty() {
                PhysPlan::NlJoin {
                    kind: JoinKind::FullOuter,
                    left: Box::new(left_plan),
                    right: Box::new(right_plan),
                    pred: pred.clone(),
                }
            } else {
                let (probe_keys, build_keys): (Vec<Attr>, Vec<Attr>) = pairs.into_iter().unzip();
                PhysPlan::HashJoin {
                    kind: JoinKind::FullOuter,
                    probe: Box::new(left_plan),
                    build: Box::new(right_plan),
                    probe_keys,
                    build_keys,
                    residual,
                }
            })
        }
        Query::SemiJoin { left, right, pred } => {
            lower_join_by_name(JoinKind::Semi, left, right, pred, catalog)
        }
        Query::AntiJoin { left, right, pred } => {
            lower_join_by_name(JoinKind::Anti, left, right, pred, catalog)
        }
        Query::Restrict { input, pred } => Ok(PhysPlan::Filter {
            input: Box::new(lower_by_name_impl(input, catalog)?),
            pred: pred.clone(),
        }),
        Query::Project { input, attrs } => Ok(PhysPlan::Project {
            input: Box::new(lower_by_name_impl(input, catalog)?),
            attrs: attrs.clone(),
        }),
        Query::GroupCount {
            input,
            group_attrs,
            counted,
        } => Ok(PhysPlan::GroupCount {
            input: Box::new(lower_by_name_impl(input, catalog)?),
            group_attrs: group_attrs.clone(),
            counted: counted.clone(),
        }),
        Query::Goj {
            left,
            right,
            pred,
            subset,
        } => Ok(PhysPlan::Goj {
            left: Box::new(lower_by_name_impl(left, catalog)?),
            right: Box::new(lower_by_name_impl(right, catalog)?),
            pred: pred.clone(),
            subset: subset.clone(),
        }),
        Query::Union { .. } => Err(OptError::Unsupported(
            "union has no physical operator in this engine".into(),
        )),
    }
}

fn lower_join_by_name(
    kind: JoinKind,
    left: &Query,
    right: &Query,
    pred: &Pred,
    catalog: &Catalog,
) -> Result<PhysPlan, OptError> {
    let left_plan = lower_by_name_impl(left, catalog)?;
    let right_plan = lower_by_name_impl(right, catalog)?;
    let left_rels = left.rels();
    let right_rels = right.rels();
    let (pairs, residual) = split_equi_by_name_impl(pred, &left_rels, &right_rels);
    if pairs.is_empty() {
        return Ok(PhysPlan::NlJoin {
            kind,
            left: Box::new(left_plan),
            right: Box::new(right_plan),
            pred: pred.clone(),
        });
    }
    let (outer_keys, inner_keys): (Vec<Attr>, Vec<Attr>) = pairs.into_iter().unzip();
    if let Query::Rel(name) = right {
        let indexed = catalog
            .table(name)
            .is_some_and(|t| t.has_index(&inner_keys));
        if indexed {
            return Ok(PhysPlan::IndexJoin {
                kind,
                outer: Box::new(left_plan),
                inner: name.clone(),
                outer_keys,
                inner_keys,
                residual,
            });
        }
    }
    Ok(PhysPlan::HashJoin {
        kind,
        probe: Box::new(left_plan),
        build: Box::new(right_plan),
        probe_keys: outer_keys,
        build_keys: inner_keys,
        residual,
    })
}

/// Name-keyed testing oracle: lower a query tree without interning.
/// Hidden from the public surface; enable the `testing-oracles`
/// feature to compare against the id-keyed path.
///
/// # Errors
/// [`OptError::Unsupported`] for operators with no physical form
/// (currently `Union`).
#[cfg(feature = "testing-oracles")]
#[doc(hidden)]
pub fn lower_by_name(q: &Query, catalog: &Catalog) -> Result<PhysPlan, OptError> {
    lower_by_name_impl(q, catalog)
}

/// Name-keyed testing oracle for equi-conjunct splitting. Hidden from
/// the public surface; enable the `testing-oracles` feature to compare
/// against the id-keyed [`cuts::split_equi`].
#[cfg(feature = "testing-oracles")]
#[doc(hidden)]
#[must_use]
pub fn split_equi_by_name(
    pred: &Pred,
    left_rels: &BTreeSet<String>,
    right_rels: &BTreeSet<String>,
) -> (Vec<(Attr, Attr)>, Pred) {
    split_equi_by_name_impl(pred, left_rels, right_rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Schema;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["A", "B", "C"] {
            cat.add_table(name, Arc::new(Schema::of_relation(name, &["k"])), 100);
            cat.add_index(name, &[Attr::new(name, "k")]);
        }
        cat
    }

    #[test]
    fn split_equi_partitions_conjuncts() {
        let l: BTreeSet<String> = ["A".to_owned()].into();
        let r: BTreeSet<String> = ["B".to_owned()].into();
        let pred = Pred::eq_attr("A.k", "B.k")
            .and(Pred::cmp_attr("A.k", CmpOp::Lt, "B.k"))
            .and(Pred::eq_attr("B.k", "A.k"));
        let (pairs, residual) = split_equi_by_name_impl(&pred, &l, &r);
        assert_eq!(pairs.len(), 2);
        // Pairs are normalized (left attr first).
        assert!(pairs.iter().all(|(a, _)| a.rel() == "A"));
        assert_eq!(residual.conjuncts().len(), 1);
    }

    #[test]
    fn lower_prefers_index_join_on_base_right() {
        let cat = catalog();
        let q = Query::rel("A").join(Query::rel("B"), Pred::eq_attr("A.k", "B.k"));
        let plan = lower(&q, &cat).unwrap();
        assert!(matches!(plan, PhysPlan::IndexJoin { .. }), "{plan}");
    }

    #[test]
    fn lower_falls_back_to_hash_join() {
        let mut cat = catalog();
        // Remove B's index by rebuilding the catalog entry.
        cat.add_table("B", Arc::new(Schema::of_relation("B", &["k"])), 100);
        let q = Query::rel("A").join(Query::rel("B"), Pred::eq_attr("A.k", "B.k"));
        let plan = lower(&q, &cat).unwrap();
        assert!(matches!(plan, PhysPlan::HashJoin { .. }), "{plan}");
    }

    #[test]
    fn lower_nl_join_for_theta() {
        let cat = catalog();
        let q = Query::rel("A").join(Query::rel("B"), Pred::cmp_attr("A.k", CmpOp::Gt, "B.k"));
        let plan = lower(&q, &cat).unwrap();
        assert!(matches!(plan, PhysPlan::NlJoin { .. }));
    }

    #[test]
    fn lower_outerjoin_keeps_direction() {
        let cat = catalog();
        let q = Query::rel("A").outerjoin(Query::rel("B"), Pred::eq_attr("A.k", "B.k"));
        let plan = lower(&q, &cat).unwrap();
        match plan {
            PhysPlan::IndexJoin { kind, .. } => assert_eq!(kind, JoinKind::LeftOuter),
            other => panic!("unexpected plan {other}"),
        }
    }

    #[test]
    fn lower_composite_right_side_uses_hash() {
        let cat = catalog();
        let q = Query::rel("A").join(
            Query::rel("B").join(Query::rel("C"), Pred::eq_attr("B.k", "C.k")),
            Pred::eq_attr("A.k", "B.k"),
        );
        let plan = lower(&q, &cat).unwrap();
        assert!(matches!(plan, PhysPlan::HashJoin { .. }));
    }

    #[test]
    fn union_unsupported() {
        let cat = catalog();
        let q = Query::rel("A").union(Query::rel("B"));
        assert!(matches!(lower(&q, &cat), Err(OptError::Unsupported(_))));
    }

    #[test]
    fn restrict_project_goj_lower() {
        let cat = catalog();
        let q = Query::rel("A")
            .goj(
                Query::rel("B"),
                Pred::eq_attr("A.k", "B.k"),
                vec![Attr::parse("A.k")],
            )
            .restrict(Pred::cmp_lit("A.k", CmpOp::Gt, 0))
            .project(vec![Attr::parse("A.k")]);
        let plan = lower(&q, &cat).unwrap();
        let text = plan.explain();
        assert!(text.contains("Project"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Goj"));
    }

    #[test]
    fn interned_and_name_keyed_lowering_agree() {
        let cat = catalog();
        let queries = [
            Query::rel("A").join(Query::rel("B"), Pred::eq_attr("A.k", "B.k")),
            Query::rel("A")
                .join(
                    Query::rel("B").outerjoin(Query::rel("C"), Pred::eq_attr("B.k", "C.k")),
                    Pred::eq_attr("A.k", "B.k"),
                )
                .restrict(Pred::cmp_lit("A.k", CmpOp::Gt, 0)),
            Query::rel("A").join(Query::rel("B"), Pred::cmp_attr("A.k", CmpOp::Gt, "B.k")),
        ];
        for q in queries {
            let interned = lower(&q, &cat).unwrap();
            let named = lower_by_name_impl(&q, &cat).unwrap();
            assert_eq!(interned.explain(), named.explain(), "for {q:?}");
        }
    }
}
