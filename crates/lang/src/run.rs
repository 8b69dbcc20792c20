//! End-to-end evaluation of §5 query blocks.
//!
//! Because every block is freely reorderable (§5.3, re-checked by the
//! translator), the evaluator may pick **any** implementing tree of the
//! block's graph — we take the first the enumerator finds, apply the
//! Where-List restrictions on top, and evaluate with the reference
//! algebra. The workspace tests additionally evaluate *every* tree and
//! assert the results coincide (Theorem 1, end to end).

use crate::error::LangError;
use crate::translate::TranslatedBlock;
use fro_algebra::{Pred, Query};
use fro_trees::some_implementing_tree;

/// Build the evaluable query (an arbitrary implementing tree plus the
/// block's restrictions) for a translated block.
///
/// This is the reference-evaluation building block: compose it with
/// [`parse`](crate::parse) + [`translate`](fn@crate::translate) and
/// [`Query::eval`] for an oracle, or hand the result to the optimizer.
/// The old one-call `run`/`run_parsed` wrappers were removed — the
/// `fro::Session` front door (`Session::from_entity_db(..).query(..)`)
/// is the supported end-to-end path: it optimizes, caches and
/// executes instead of reference-evaluating.
///
/// # Errors
/// [`LangError::Disconnected`] if the graph admits no tree (prevented
/// earlier; defensive).
pub fn plan_query(t: &TranslatedBlock) -> Result<Query, LangError> {
    let tree = some_implementing_tree(&t.graph).ok_or(LangError::Disconnected)?;
    Ok(t.restrictions
        .iter()
        .fold(tree, |q, r: &Pred| q.restrict(r.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::paper_world;
    use crate::parser::parse;
    use crate::translate::translate;
    use fro_algebra::{Attr, Relation, Value};

    /// Reference evaluation: parse → translate → plan → eval, the same
    /// composition applications previously got from the removed
    /// `run()` wrapper.
    fn run(src: &str, edb: &crate::model::EntityDb) -> Result<Relation, LangError> {
        let t = translate(&parse(src)?, edb)?;
        let q = plan_query(&t)?;
        q.eval(&t.database)
            .map_err(|e| LangError::Eval(e.to_string()))
    }

    #[test]
    fn queretaro_query_preserves_childless_employees() {
        let out = run(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
            &paper_world(),
        )
        .unwrap();
        // Dept 1 (Queretaro): Ana (2 children → 2 rows), Ben (no
        // children → 1 row with null ChildName). Dept 3 has no
        // employees and the employee–department join drops it.
        assert_eq!(out.len(), 3);
        let child_col = out
            .schema()
            .index_of(&Attr::new("EMPLOYEE_ChildName", "ChildName"))
            .expect("unnested column present");
        let nulls = out
            .rows()
            .iter()
            .filter(|t| t.get(child_col).is_null())
            .count();
        assert_eq!(nulls, 1);
        let names: Vec<&fro_algebra::Value> = out.rows().iter().map(|t| t.get(child_col)).collect();
        assert!(names.contains(&&Value::str("Luz")));
        assert!(names.contains(&&Value::str("Rio")));
    }

    #[test]
    fn zurich_query_pads_missing_audit() {
        let out = run(
            "Select All From DEPARTMENT-->Manager-->Audit \
             Where DEPARTMENT.Location = 'Zurich'",
            &paper_world(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let title_col = out
            .schema()
            .index_of(&Attr::new("DEPARTMENT_Audit", "Title"))
            .unwrap();
        assert!(out.rows()[0].get(title_col).is_null());
        let mgr_name = out
            .schema()
            .index_of(&Attr::new("DEPARTMENT_Manager", "Name"))
            .unwrap();
        assert_eq!(out.rows()[0].get(mgr_name), &Value::str("Cy"));
    }

    #[test]
    fn prosecutor_query_joins_both_paths() {
        let out = run(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Zurich' \
             and EMPLOYEE.Rank > 10",
            &paper_world(),
        )
        .unwrap();
        // Zurich dept 2; employee Cy (rank 11) with one child.
        assert_eq!(out.len(), 1);
        let child_col = out
            .schema()
            .index_of(&Attr::new("EMPLOYEE_ChildName", "ChildName"))
            .unwrap();
        assert_eq!(out.rows()[0].get(child_col), &Value::str("Max"));
    }

    #[test]
    fn departments_without_manager_padded_in_pure_link_query() {
        let out = run("Select All From DEPARTMENT-->Manager", &paper_world()).unwrap();
        assert_eq!(out.len(), 3); // all departments preserved
        let name_col = out
            .schema()
            .index_of(&Attr::new("DEPARTMENT_Manager", "Name"))
            .unwrap();
        let padded = out
            .rows()
            .iter()
            .filter(|t| t.get(name_col).is_null())
            .count();
        assert_eq!(padded, 1); // dept 3 has no manager
    }

    #[test]
    fn every_implementing_tree_gives_the_same_result() {
        // Theorem 1, end to end, on the prosecutor query.
        let block = parse(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit \
             Where EMPLOYEE.D# = DEPARTMENT.D#",
        )
        .unwrap();
        let t = translate(&block, &paper_world()).unwrap();
        let trees = fro_trees::enumerate_trees(&t.graph, fro_trees::EnumLimit::default()).unwrap();
        assert!(trees.len() > 1, "want multiple associations");
        let results: Vec<Relation> = trees.iter().map(|q| q.eval(&t.database).unwrap()).collect();
        for r in &results[1..] {
            assert!(r.set_eq(&results[0]));
        }
    }

    #[test]
    fn run_surfaces_parse_errors() {
        assert!(matches!(
            run("From nothing", &paper_world()),
            Err(LangError::Parse(_))
        ));
    }
}
