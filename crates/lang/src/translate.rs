//! §5.2: expressing UnNest and Link with outerjoins.
//!
//! Each From-item step names a derived relation and adds one directed
//! outerjoin edge toward it:
//!
//! * `A*F`  ⇒ relation `A_F(@owner, F)` and edge
//!   `A → A_F` labeled `NestedIn ≡ (A.@id = A_F.@owner)`;
//! * `A-->F` ⇒ relation `A_F` (a copy of `F`'s target entity type under
//!   a fresh qualifier) and edge `A → A_F` labeled
//!   `LinkedTo ≡ (A.@F = A_F.@id)`.
//!
//! No rows are built here: every ground relation is the entity model's
//! memoized one, renamed ([`EntityDb::base_relation`] /
//! [`EntityDb::unnest_relation`]), so `TranslatedBlock::database` holds
//! the whole world a block can reach at the cost of a schema per alias.
//!
//! Where-List equalities between base aliases become undirected join
//! edges; literal and same-alias comparisons become restrictions, kept
//! apart from the graph in `TranslatedBlock::restrictions`. They only
//! reference base aliases, which are never null-supplied, so by §4 each
//! may sit anywhere from above the block (where the reference
//! `plan_query` puts it) down to its own relation's scan (where the
//! session's optimizer puts it).
//!
//! The §5.3 observation is then checked, not assumed: the resulting
//! graph must be nice with strong predicates, i.e. *freely
//! reorderable*, so the evaluator may pick any implementing tree.

use crate::ast::{PathOp, QueryBlock, Rhs};
use crate::error::LangError;
use crate::model::{EntityDb, FieldType};
use fro_algebra::{Database, Interner, Pred, Scalar};
use fro_core::reorder::{analyze_graph, Analysis, Policy};
use fro_graph::QueryGraph;
use std::collections::BTreeMap;

/// The output of translating one query block.
#[derive(Debug, Clone)]
pub struct TranslatedBlock {
    /// The join/outerjoin query graph of the block.
    pub graph: QueryGraph,
    /// Ground relations (bases and derived), keyed by alias.
    pub database: Database,
    /// The block's restrictions (literal comparisons and same-alias
    /// conditions from the Where-List), each over one base alias.
    pub restrictions: Vec<Pred>,
    /// The Theorem 1 analysis (always freely reorderable per §5.3).
    pub analysis: Analysis,
    /// Aliases introduced as From-item bases (joinable in WHERE).
    pub base_aliases: Vec<String>,
    /// Aliases introduced by `*`/`-->` (not mentionable in WHERE).
    pub derived_aliases: Vec<String>,
    /// Name ↔ id resolution for the block's relations and attributes,
    /// built exactly once here, where the query enters the system.
    /// `RelId(i)` is graph node `i`, so downstream bitset work needs
    /// no further name lookups.
    pub interner: Interner,
}

/// A relation accumulated while walking one From-item: its alias and,
/// when it is an entity relation, its type (UnNest results carry no
/// further fields).
struct Accumulated {
    alias: String,
    entity_type: Option<String>,
}

/// Translate a parsed block against an entity database.
///
/// # Errors
/// Any [`LangError`] from name resolution, the §5.1 Where-List
/// restriction, or (defensively) a failed §5.3 check.
pub fn translate(block: &QueryBlock, edb: &EntityDb) -> Result<TranslatedBlock, LangError> {
    let mut database = Database::new();
    let mut aliases: Vec<String> = Vec::new();
    let mut base_aliases = Vec::new();
    let mut derived_aliases = Vec::new();
    // alias -> (attr names available), for WHERE validation.
    let mut base_attrs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    // Edges gathered before graph construction.
    struct OjEdge {
        from: String,
        to: String,
        pred: Pred,
    }
    let mut oj_edges: Vec<OjEdge> = Vec::new();

    let claim_alias = |aliases: &mut Vec<String>, a: &str| -> Result<(), LangError> {
        if aliases.iter().any(|x| x == a) {
            return Err(LangError::DuplicateAlias(a.to_owned()));
        }
        aliases.push(a.to_owned());
        Ok(())
    };

    for item in &block.from {
        let ty = edb
            .entity_type(&item.base)
            .ok_or_else(|| LangError::UnknownType(item.base.clone()))?;
        claim_alias(&mut aliases, &item.alias)?;
        base_aliases.push(item.alias.clone());
        let rel = edb.base_relation(&ty.name, &item.alias)?;
        base_attrs.insert(
            item.alias.clone(),
            rel.schema()
                .attrs()
                .iter()
                .map(|a| a.name().to_owned())
                .collect(),
        );
        database.insert_named(item.alias.clone(), rel);

        let mut acc = vec![Accumulated {
            alias: item.alias.clone(),
            entity_type: Some(ty.name.clone()),
        }];

        for op in &item.ops {
            let (field, want_set) = match op {
                PathOp::UnNest(f) => (f, true),
                PathOp::Link(f) => (f, false),
            };
            // Resolve the owner among accumulated entity relations.
            let mut owners: Vec<(&Accumulated, &FieldType)> = Vec::new();
            for a in &acc {
                if let Some(tname) = &a.entity_type {
                    if let Some(ft) = edb.entity_type(tname).and_then(|t| t.field(field)) {
                        owners.push((a, ft));
                    }
                }
            }
            if owners.is_empty() {
                return Err(LangError::UnknownField {
                    field: field.clone(),
                    item: item.alias.clone(),
                });
            }
            if owners.len() > 1 {
                return Err(LangError::AmbiguousField(field.clone()));
            }
            let (owner, ftype) = owners.pop().expect("exactly one");
            let owner_alias = owner.alias.clone();
            let owner_type = owner.entity_type.clone().expect("entity owner");
            let derived_alias = format!("{owner_alias}_{field}");

            match (ftype, want_set) {
                (FieldType::SetValued, true) => {
                    claim_alias(&mut aliases, &derived_alias)?;
                    derived_aliases.push(derived_alias.clone());
                    let rel = edb.unnest_relation(&owner_type, field, &derived_alias)?;
                    database.insert_named(derived_alias.clone(), rel);
                    // NestedIn(@r, @value): owner.@id = derived.@owner.
                    oj_edges.push(OjEdge {
                        from: owner_alias,
                        to: derived_alias.clone(),
                        pred: Pred::eq_attr(
                            &format!("{}.@id", owner.alias),
                            &format!("{derived_alias}.@owner"),
                        ),
                    });
                    acc.push(Accumulated {
                        alias: derived_alias,
                        entity_type: None,
                    });
                }
                (FieldType::EntityRef(target), false) => {
                    claim_alias(&mut aliases, &derived_alias)?;
                    derived_aliases.push(derived_alias.clone());
                    let rel = edb.base_relation(target, &derived_alias)?;
                    database.insert_named(derived_alias.clone(), rel);
                    // LinkedTo(@r, @value): owner.@F = derived.@id.
                    oj_edges.push(OjEdge {
                        from: owner_alias.clone(),
                        to: derived_alias.clone(),
                        pred: Pred::eq_attr(
                            &format!("{owner_alias}.@{field}"),
                            &format!("{derived_alias}.@id"),
                        ),
                    });
                    acc.push(Accumulated {
                        alias: derived_alias,
                        entity_type: Some(target.clone()),
                    });
                }
                (FieldType::SetValued | FieldType::Scalar, false) => {
                    return Err(LangError::WrongFieldKind {
                        field: field.clone(),
                        expected: "entity-valued (only `-->` traverses references)",
                    })
                }
                (_, true) => {
                    return Err(LangError::WrongFieldKind {
                        field: field.clone(),
                        expected: "set-valued (only `*` unnests a set)",
                    })
                }
            }
        }
    }

    // Where-List.
    let mut join_conds: Vec<(String, String, Pred)> = Vec::new();
    let mut restrictions: Vec<Pred> = Vec::new();
    for cond in &block.conds {
        let pred_of = |alias: &str, attr: &str| -> Result<Scalar, LangError> {
            if derived_aliases.iter().any(|d| d == alias) {
                return Err(LangError::RestrictionOnDerived(format!("{alias}.{attr}")));
            }
            let attrs = base_attrs
                .get(alias)
                .ok_or_else(|| LangError::UnknownAttr(format!("{alias}.{attr}")))?;
            if !attrs.iter().any(|a| a == attr) {
                return Err(LangError::UnknownAttr(format!("{alias}.{attr}")));
            }
            Ok(Scalar::attr(&format!("{alias}.{attr}")))
        };
        let lhs = pred_of(&cond.alias, &cond.attr)?;
        match &cond.rhs {
            Rhs::Attr(alias2, attr2) => {
                let rhs = pred_of(alias2, attr2)?;
                let p = Pred::cmp(cond.op, lhs, rhs);
                if cond.alias == *alias2 {
                    restrictions.push(p);
                } else {
                    join_conds.push((cond.alias.clone(), alias2.clone(), p));
                }
            }
            Rhs::Lit(v) => {
                restrictions.push(Pred::cmp(cond.op, lhs, Scalar::Lit(v.clone())));
            }
        }
    }

    // Assemble the graph.
    if aliases.len() > QueryGraph::MAX_NODES {
        return Err(LangError::TooManyRelations(aliases.len()));
    }
    let mut graph = QueryGraph::new(aliases.clone());
    for (a, b, p) in join_conds {
        let ia = graph.node_id(&a).expect("alias registered");
        let ib = graph.node_id(&b).expect("alias registered");
        graph
            .add_join_edge(ia, ib, p)
            .map_err(|e| LangError::Parse(e.to_string()))?;
    }
    for e in oj_edges {
        let ia = graph.node_id(&e.from).expect("alias registered");
        let ib = graph.node_id(&e.to).expect("alias registered");
        graph
            .add_outerjoin_edge(ia, ib, e.pred)
            .map_err(|e| LangError::Parse(e.to_string()))?;
    }

    if !graph.is_connected() {
        return Err(LangError::Disconnected);
    }

    // §5.3: every block is freely reorderable. Verified, not assumed.
    let analysis = analyze_graph(&graph, Policy::Paper);
    if !analysis.is_freely_reorderable() {
        return Err(LangError::NotReorderable(analysis.to_string()));
    }

    // Intern every alias in graph-node order so relation ids and node
    // ids coincide; attributes resolve to (rel, column) here and never
    // again.
    let mut interner = Interner::new();
    for alias in graph.node_names() {
        let rel = database.get(alias).expect("every node has a relation");
        interner.register_relation(alias, rel.schema());
    }

    Ok(TranslatedBlock {
        graph,
        database,
        restrictions,
        analysis,
        base_aliases,
        derived_aliases,
        interner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::paper_world;
    use crate::parser::parse;
    use fro_graph::EdgeKind;

    fn tb(src: &str) -> TranslatedBlock {
        translate(&parse(src).unwrap(), &paper_world()).unwrap()
    }

    #[test]
    fn queretaro_block_builds_expected_graph() {
        let t = tb("Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'");
        assert_eq!(t.graph.n_nodes(), 3); // EMPLOYEE, EMPLOYEE_ChildName, DEPARTMENT
        let oj: Vec<_> = t
            .graph
            .edges()
            .iter()
            .filter(|e| e.kind() == EdgeKind::OuterJoin)
            .collect();
        assert_eq!(oj.len(), 1);
        assert_eq!(t.graph.node_name(oj[0].b()), "EMPLOYEE_ChildName");
        assert_eq!(t.restrictions.len(), 1);
        assert!(t.analysis.is_freely_reorderable());
    }

    #[test]
    fn zurich_block_chains_links() {
        let t =
            tb("Select All From DEPARTMENT-->Manager-->Audit Where DEPARTMENT.Location = 'Zurich'");
        // DEPARTMENT, DEPARTMENT_Manager (EMPLOYEE copy),
        // DEPARTMENT_Audit (REPORT copy). Both links resolve to
        // DEPARTMENT fields, so both edges leave DEPARTMENT.
        assert_eq!(t.graph.n_nodes(), 3);
        let oj_out_of_dept = t
            .graph
            .edges()
            .iter()
            .filter(|e| e.kind() == EdgeKind::OuterJoin && t.graph.node_name(e.a()) == "DEPARTMENT")
            .count();
        assert_eq!(oj_out_of_dept, 2);
        assert_eq!(t.derived_aliases.len(), 2);
    }

    #[test]
    fn where_on_derived_rejected() {
        let e = translate(
            &parse(
                "Select All From EMPLOYEE*ChildName \
                 Where EMPLOYEE_ChildName.ChildName = 'Luz'",
            )
            .unwrap(),
            &paper_world(),
        );
        assert!(matches!(e, Err(LangError::RestrictionOnDerived(_))));
    }

    #[test]
    fn unknown_names_rejected() {
        let w = paper_world();
        assert!(matches!(
            translate(&parse("Select All From GHOST").unwrap(), &w),
            Err(LangError::UnknownType(_))
        ));
        assert!(matches!(
            translate(&parse("Select All From EMPLOYEE*Ghost").unwrap(), &w),
            Err(LangError::UnknownField { .. })
        ));
        assert!(matches!(
            translate(
                &parse("Select All From EMPLOYEE Where EMPLOYEE.Ghost = 1").unwrap(),
                &w
            ),
            Err(LangError::UnknownAttr(_))
        ));
        assert!(matches!(
            translate(
                &parse("Select All From EMPLOYEE Where GHOST.x = 1").unwrap(),
                &w
            ),
            Err(LangError::UnknownAttr(_))
        ));
    }

    #[test]
    fn wrong_step_kinds_rejected() {
        let w = paper_world();
        assert!(matches!(
            translate(&parse("Select All From EMPLOYEE-->ChildName").unwrap(), &w),
            Err(LangError::WrongFieldKind { .. })
        ));
        assert!(matches!(
            translate(&parse("Select All From DEPARTMENT*Manager").unwrap(), &w),
            Err(LangError::WrongFieldKind { .. })
        ));
    }

    #[test]
    fn duplicate_alias_rejected_and_alias_resolves() {
        let w = paper_world();
        assert!(matches!(
            translate(&parse("Select All From EMPLOYEE, EMPLOYEE").unwrap(), &w),
            Err(LangError::DuplicateAlias(_))
        ));
        let t = translate(
            &parse("Select All From EMPLOYEE AS E, EMPLOYEE AS M Where E.D# = M.D#").unwrap(),
            &w,
        )
        .unwrap();
        assert_eq!(t.graph.n_nodes(), 2);
    }

    #[test]
    fn disconnected_block_rejected() {
        let e = translate(
            &parse("Select All From EMPLOYEE, DEPARTMENT").unwrap(),
            &paper_world(),
        );
        assert!(matches!(e, Err(LangError::Disconnected)));
    }

    #[test]
    fn same_alias_condition_is_a_restriction() {
        let t =
            tb("Select All From EMPLOYEE Where EMPLOYEE.Rank > 10 and EMPLOYEE.D# = EMPLOYEE.Rank");
        assert_eq!(t.restrictions.len(), 2);
        assert_eq!(t.graph.edges().len(), 0);
    }

    #[test]
    fn interner_ids_align_with_graph_nodes() {
        let t = tb("Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D#");
        assert_eq!(t.interner.n_rels(), t.graph.n_nodes());
        for i in 0..t.graph.n_nodes() {
            let name = t.graph.node_name(i);
            let id = t.interner.rel_id(name).expect("alias interned");
            assert_eq!(id.index(), i, "RelId must equal graph node id");
            // Every attribute of the alias resolved to a column.
            let rel = t.database.get(name).unwrap();
            for a in rel.schema().attrs() {
                assert!(t.interner.attr_id(a).is_some(), "unresolved {a}");
            }
        }
    }

    #[test]
    fn all_blocks_freely_reorderable_surrogate_preds_strong() {
        let t = tb(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit \
             Where EMPLOYEE.D# = DEPARTMENT.D#",
        );
        assert!(t.analysis.is_freely_reorderable());
        for e in t.graph.edges() {
            if e.kind() == EdgeKind::OuterJoin {
                assert!(e.pred().is_strong_on_rel(t.graph.node_name(e.a())));
                assert!(e.pred().is_strong_on_rel(t.graph.node_name(e.b())));
            }
        }
    }
}
