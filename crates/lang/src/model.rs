//! The nested / entity data model of §5.1.
//!
//! Tuples ("entities") have identity, repeating (set-valued) fields,
//! and entity-valued fields. This module stores entity instances and
//! builds — once per model, shared by every alias, session and
//! connection — the *ground relations* the §5.2 translation needs:
//!
//! * a base relation per alias, with a surrogate `@id` column, one
//!   column per scalar field, and a surrogate `@Field` column per
//!   entity-valued field (null when the reference is null);
//! * a `ValueOfField`-style relation per unnested set field, with
//!   columns `(@owner, Field)` — one row per element of each entity's
//!   set. The paper's abstract `NestedIn(@r, @value)` predicate
//!   becomes the strong equality `alias.@id = derived.@owner`;
//!   `LinkedTo(@r, @value)` becomes `alias.@Field = derived.@id`.

use crate::error::LangError;
use fro_algebra::{Relation, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Kinds of entity fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// A single atomic value.
    Scalar,
    /// A set of atomic values (UnNest's domain).
    SetValued,
    /// A reference to an entity of the named type (Link's domain).
    EntityRef(String),
}

/// An entity-type declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityType {
    /// Type name (also the default relation alias).
    pub name: String,
    /// Field declarations, in order.
    pub fields: Vec<(String, FieldType)>,
}

impl EntityType {
    /// Field type by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldType> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// A field value on an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A scalar (possibly null).
    Scalar(Value),
    /// A set of values.
    Set(Vec<Value>),
    /// An entity reference (by per-type id), or null.
    Ref(Option<u64>),
}

/// One entity instance: per-type id plus field values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Identity within its type (the paper's `@` object identifier).
    pub id: u64,
    /// Field assignments (missing fields read as null/empty).
    pub values: BTreeMap<String, FieldValue>,
}

/// What a model holds: the declarations and the instances.
#[derive(Debug, Clone, Default)]
struct Model {
    types: BTreeMap<String, EntityType>,
    instances: BTreeMap<String, Vec<Entity>>,
}

/// The ground relations built so far, each under its type's own name:
/// `(type, None)` is the base relation, `(type, Some(set field))` the
/// unnest relation. Bounded by the model — an alias a client invents
/// renames an entry, it never adds one.
type GroundMemo = Vec<(String, Option<String>, Relation)>;

/// A database of entity types and instances.
///
/// Copy-on-write: [`Clone`] is two pointer bumps, so every connection
/// and session over one model reads the same entities, and
/// [`EntityDb::declare`] / [`EntityDb::insert`] copy the model first
/// only while a clone still reads it. Each ground relation is built
/// once per model and handed out renamed ([`Relation::renamed`] shares
/// the rows); clones share what is built, and a mutation gives the
/// mutated side a fresh, empty memo — the other clones, and every
/// relation already handed out, keep what they had.
#[derive(Debug, Clone, Default)]
pub struct EntityDb {
    model: Arc<Model>,
    ground: Arc<Mutex<GroundMemo>>,
}

impl EntityDb {
    /// Empty database.
    #[must_use]
    pub fn new() -> EntityDb {
        EntityDb::default()
    }

    /// The model, about to change: unshared from any clone, and with no
    /// ground relation built from what it held before.
    fn model_mut(&mut self) -> &mut Model {
        self.ground = Arc::default();
        Arc::make_mut(&mut self.model)
    }

    /// Declare an entity type.
    pub fn declare(&mut self, name: &str, fields: Vec<(&str, FieldType)>) -> &mut Self {
        let model = self.model_mut();
        model.types.insert(
            name.to_owned(),
            EntityType {
                name: name.to_owned(),
                fields: fields.into_iter().map(|(n, t)| (n.to_owned(), t)).collect(),
            },
        );
        model.instances.entry(name.to_owned()).or_default();
        self
    }

    /// Insert an instance; its id is its insertion position.
    ///
    /// # Panics
    /// If the type was not declared.
    pub fn insert(&mut self, type_name: &str, values: Vec<(&str, FieldValue)>) -> u64 {
        assert!(
            self.model.types.contains_key(type_name),
            "type `{type_name}` not declared"
        );
        let list = self
            .model_mut()
            .instances
            .get_mut(type_name)
            .expect("declared");
        let id = list.len() as u64;
        list.push(Entity {
            id,
            values: values.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
        });
        id
    }

    /// Look up a type.
    #[must_use]
    pub fn entity_type(&self, name: &str) -> Option<&EntityType> {
        self.model.types.get(name)
    }

    /// Instances of a type.
    #[must_use]
    pub fn instances(&self, name: &str) -> &[Entity] {
        self.model.instances.get(name).map_or(&[], Vec::as_slice)
    }

    /// The memoized ground relation of `(type_name, field)`, renamed to
    /// `alias`; `build` runs the first time this model is asked for it.
    fn ground(
        &self,
        type_name: &str,
        field: Option<&str>,
        alias: &str,
        build: impl FnOnce() -> Relation,
    ) -> Relation {
        let mut memo = self
            .ground
            .lock()
            .expect("building a ground relation never panics");
        let found = memo
            .iter()
            .position(|(t, f, _)| t == type_name && f.as_deref() == field);
        let at = found.unwrap_or_else(|| {
            memo.push((type_name.to_owned(), field.map(str::to_owned), build()));
            memo.len() - 1
        });
        let shared = memo[at].2.clone();
        // The rename allocates a scheme; other sessions need not wait.
        drop(memo);
        shared.renamed(alias)
    }

    /// The base ground relation of `type_name` under the qualifier
    /// `alias`: columns `@id`, each scalar field, and `@F` for each
    /// entity-valued field `F`. Set-valued fields have no base column
    /// (they live in the derived relation). Built once per model; every
    /// alias of the type shares its rows.
    ///
    /// # Errors
    /// [`LangError::UnknownType`] when undeclared.
    pub fn base_relation(&self, type_name: &str, alias: &str) -> Result<Relation, LangError> {
        let ty = self
            .entity_type(type_name)
            .ok_or_else(|| LangError::UnknownType(type_name.to_owned()))?;
        Ok(self.ground(type_name, None, alias, || self.build_base(ty)))
    }

    fn build_base(&self, ty: &EntityType) -> Relation {
        let mut cols: Vec<String> = vec!["@id".to_owned()];
        for (fname, ftype) in &ty.fields {
            match ftype {
                FieldType::Scalar => cols.push(fname.clone()),
                FieldType::EntityRef(_) => cols.push(format!("@{fname}")),
                FieldType::SetValued => {}
            }
        }
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut rows = Vec::new();
        for e in self.instances(&ty.name) {
            let mut row = Vec::with_capacity(cols.len());
            row.push(Value::Int(e.id as i64));
            for (fname, ftype) in &ty.fields {
                match ftype {
                    FieldType::Scalar => row.push(match e.values.get(fname) {
                        Some(FieldValue::Scalar(v)) => v.clone(),
                        _ => Value::Null,
                    }),
                    FieldType::EntityRef(_) => row.push(match e.values.get(fname) {
                        Some(FieldValue::Ref(Some(id))) => Value::Int(*id as i64),
                        _ => Value::Null,
                    }),
                    FieldType::SetValued => {}
                }
            }
            rows.push(row);
        }
        Relation::from_values(&ty.name, &col_refs, rows)
    }

    /// The unnest relation for set field `field` of `type_name`, under
    /// qualifier `alias`: columns `(@owner, field)`, one row per set
    /// element (empty sets contribute no rows — the outerjoin supplies
    /// their null). Built once per model, like
    /// [`EntityDb::base_relation`].
    ///
    /// # Errors
    /// [`LangError`] for unknown types/fields or non-set fields.
    pub fn unnest_relation(
        &self,
        type_name: &str,
        field: &str,
        alias: &str,
    ) -> Result<Relation, LangError> {
        let ty = self
            .entity_type(type_name)
            .ok_or_else(|| LangError::UnknownType(type_name.to_owned()))?;
        match ty.field(field) {
            Some(FieldType::SetValued) => {}
            Some(_) => {
                return Err(LangError::WrongFieldKind {
                    field: field.to_owned(),
                    expected: "set-valued",
                })
            }
            None => {
                return Err(LangError::UnknownField {
                    field: field.to_owned(),
                    item: type_name.to_owned(),
                })
            }
        }
        Ok(self.ground(type_name, Some(field), alias, || {
            let mut rows = Vec::new();
            for e in self.instances(type_name) {
                if let Some(FieldValue::Set(items)) = e.values.get(field) {
                    for v in items {
                        rows.push(vec![Value::Int(e.id as i64), v.clone()]);
                    }
                }
            }
            Relation::from_values(type_name, &["@owner", field], rows)
        }))
    }
}

/// A small world modeled directly on the paper's §5 examples:
/// `EMPLOYEE` (scalar `Name`, `D#`, `Rank`; set `ChildName`),
/// `DEPARTMENT` (scalar `D#`, `Location`; refs `Manager`, `Secretary`
/// to `EMPLOYEE`, `Audit` to `REPORT`), `REPORT` (scalar `Title`,
/// `Findings`).
#[must_use]
pub fn paper_world() -> EntityDb {
    let mut db = EntityDb::new();
    db.declare(
        "EMPLOYEE",
        vec![
            ("Name", FieldType::Scalar),
            ("D#", FieldType::Scalar),
            ("Rank", FieldType::Scalar),
            ("ChildName", FieldType::SetValued),
        ],
    );
    db.declare(
        "DEPARTMENT",
        vec![
            ("D#", FieldType::Scalar),
            ("Location", FieldType::Scalar),
            ("Manager", FieldType::EntityRef("EMPLOYEE".into())),
            ("Secretary", FieldType::EntityRef("EMPLOYEE".into())),
            ("Audit", FieldType::EntityRef("REPORT".into())),
        ],
    );
    db.declare(
        "REPORT",
        vec![
            ("Title", FieldType::Scalar),
            ("Findings", FieldType::Scalar),
        ],
    );

    let e0 = db.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Ana"))),
            ("D#", FieldValue::Scalar(Value::Int(1))),
            ("Rank", FieldValue::Scalar(Value::Int(12))),
            (
                "ChildName",
                FieldValue::Set(vec![Value::str("Luz"), Value::str("Rio")]),
            ),
        ],
    );
    let e1 = db.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Ben"))),
            ("D#", FieldValue::Scalar(Value::Int(1))),
            ("Rank", FieldValue::Scalar(Value::Int(3))),
            ("ChildName", FieldValue::Set(vec![])),
        ],
    );
    let e2 = db.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Cy"))),
            ("D#", FieldValue::Scalar(Value::Int(2))),
            ("Rank", FieldValue::Scalar(Value::Int(11))),
            ("ChildName", FieldValue::Set(vec![Value::str("Max")])),
        ],
    );
    let r0 = db.insert(
        "REPORT",
        vec![
            ("Title", FieldValue::Scalar(Value::str("FY89"))),
            ("Findings", FieldValue::Scalar(Value::str("clean"))),
        ],
    );
    db.insert(
        "DEPARTMENT",
        vec![
            ("D#", FieldValue::Scalar(Value::Int(1))),
            ("Location", FieldValue::Scalar(Value::str("Queretaro"))),
            ("Manager", FieldValue::Ref(Some(e0))),
            ("Secretary", FieldValue::Ref(Some(e1))),
            ("Audit", FieldValue::Ref(Some(r0))),
        ],
    );
    db.insert(
        "DEPARTMENT",
        vec![
            ("D#", FieldValue::Scalar(Value::Int(2))),
            ("Location", FieldValue::Scalar(Value::str("Zurich"))),
            ("Manager", FieldValue::Ref(Some(e2))),
            ("Secretary", FieldValue::Ref(None)),
            ("Audit", FieldValue::Ref(None)),
        ],
    );
    // A department with no employees at all (the motivating example).
    db.insert(
        "DEPARTMENT",
        vec![
            ("D#", FieldValue::Scalar(Value::Int(3))),
            ("Location", FieldValue::Scalar(Value::str("Queretaro"))),
            ("Manager", FieldValue::Ref(None)),
            ("Secretary", FieldValue::Ref(None)),
            ("Audit", FieldValue::Ref(None)),
        ],
    );
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Attr;

    #[test]
    fn base_relation_has_surrogates() {
        let db = paper_world();
        let dept = db.base_relation("DEPARTMENT", "DEPARTMENT").unwrap();
        assert_eq!(dept.len(), 3);
        let s = dept.schema();
        assert!(s.contains(&Attr::new("DEPARTMENT", "@id")));
        assert!(s.contains(&Attr::new("DEPARTMENT", "@Manager")));
        assert!(s.contains(&Attr::new("DEPARTMENT", "Location")));
        // Set-valued fields never materialize on the base.
        let emp = db.base_relation("EMPLOYEE", "E").unwrap();
        assert!(!emp.schema().contains(&Attr::new("E", "ChildName")));
    }

    #[test]
    fn null_refs_are_null_surrogates() {
        let db = paper_world();
        let dept = db.base_relation("DEPARTMENT", "D").unwrap();
        let mgr_col = dept.schema().index_of(&Attr::new("D", "@Manager")).unwrap();
        let nulls = dept
            .rows()
            .iter()
            .filter(|t| t.get(mgr_col).is_null())
            .count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn unnest_relation_one_row_per_element() {
        let db = paper_world();
        let kids = db.unnest_relation("EMPLOYEE", "ChildName", "E_Ch").unwrap();
        assert_eq!(kids.len(), 3); // Luz, Rio, Max; Ben's empty set absent
        assert!(kids.schema().contains(&Attr::new("E_Ch", "@owner")));
        assert!(kids.schema().contains(&Attr::new("E_Ch", "ChildName")));
    }

    #[test]
    fn unnest_rejects_wrong_kinds() {
        let db = paper_world();
        assert!(matches!(
            db.unnest_relation("EMPLOYEE", "Name", "x"),
            Err(LangError::WrongFieldKind { .. })
        ));
        assert!(matches!(
            db.unnest_relation("EMPLOYEE", "Nope", "x"),
            Err(LangError::UnknownField { .. })
        ));
        assert!(matches!(
            db.unnest_relation("GHOST", "f", "x"),
            Err(LangError::UnknownType(_))
        ));
    }

    #[test]
    fn clones_share_the_model_and_the_ground_relations_built_from_it() {
        let db = paper_world();
        let clone = db.clone();
        assert!(std::ptr::eq(
            db.instances("EMPLOYEE"),
            clone.instances("EMPLOYEE")
        ));
        // Built once, whoever asks and under whatever alias — a link to
        // EMPLOYEE reads the rows EMPLOYEE itself does.
        let emp = db.base_relation("EMPLOYEE", "EMPLOYEE").unwrap();
        let mgr = clone
            .base_relation("EMPLOYEE", "DEPARTMENT_Manager")
            .unwrap();
        assert!(std::ptr::eq(emp.rows().as_ptr(), mgr.rows().as_ptr()));
        assert!(mgr
            .schema()
            .contains(&Attr::new("DEPARTMENT_Manager", "@id")));
        let kids = db.unnest_relation("EMPLOYEE", "ChildName", "E_Ch").unwrap();
        let again = clone.unnest_relation("EMPLOYEE", "ChildName", "X").unwrap();
        assert!(std::ptr::eq(kids.rows().as_ptr(), again.rows().as_ptr()));
        // ... and equal to a build from scratch.
        let mut fresh = paper_world();
        fresh.declare("NOTE", vec![("Text", FieldType::Scalar)]);
        assert_eq!(fresh.base_relation("EMPLOYEE", "EMPLOYEE").unwrap(), emp);
        assert!(!std::ptr::eq(
            fresh.instances("EMPLOYEE"),
            db.instances("EMPLOYEE")
        ));
    }

    #[test]
    fn a_mutated_clone_leaves_the_original_alone_and_never_serves_a_stale_memo() {
        let db = paper_world();
        let emp = db.base_relation("EMPLOYEE", "EMPLOYEE").unwrap();
        let kids = db.unnest_relation("EMPLOYEE", "ChildName", "K").unwrap();
        let held = db.instances("EMPLOYEE");

        let mut clone = db.clone();
        clone.insert(
            "EMPLOYEE",
            vec![
                ("Name", FieldValue::Scalar(Value::str("Dee"))),
                ("ChildName", FieldValue::Set(vec![Value::str("Kai")])),
            ],
        );
        clone.declare("NOTE", vec![("Text", FieldType::Scalar)]);

        // The original: same entities where they stood, same memo, and
        // what it handed out before still reads what it read.
        assert!(std::ptr::eq(db.instances("EMPLOYEE"), held));
        assert_eq!(db.instances("EMPLOYEE").len(), 3);
        assert!(db.entity_type("NOTE").is_none());
        let emp_again = db.base_relation("EMPLOYEE", "EMPLOYEE").unwrap();
        assert!(std::ptr::eq(emp.rows().as_ptr(), emp_again.rows().as_ptr()));
        assert_eq!((emp.len(), kids.len()), (3, 3));

        // The clone: every ground relation rebuilt from what it holds
        // now, including ones the shared memo had already built.
        assert_eq!(clone.instances("EMPLOYEE").len(), 4);
        let grown = clone.base_relation("EMPLOYEE", "EMPLOYEE").unwrap();
        assert_eq!(grown.len(), 4);
        assert_eq!(
            clone
                .unnest_relation("EMPLOYEE", "ChildName", "K")
                .unwrap()
                .len(),
            4
        );
        assert_eq!(clone.base_relation("NOTE", "NOTE").unwrap().len(), 0);
        // A second mutation of the now-unshared clone drops its memo too.
        clone.insert("NOTE", vec![("Text", FieldValue::Scalar(Value::str("hi")))]);
        assert_eq!(clone.base_relation("NOTE", "NOTE").unwrap().len(), 1);
        assert_eq!(grown.len(), 4);
    }

    #[test]
    fn entity_type_lookup() {
        let db = paper_world();
        let t = db.entity_type("DEPARTMENT").unwrap();
        assert!(matches!(t.field("Manager"), Some(FieldType::EntityRef(n)) if n == "EMPLOYEE"));
        assert!(t.field("Ghost").is_none());
        assert_eq!(db.instances("EMPLOYEE").len(), 3);
        assert!(db.instances("GHOST").is_empty());
    }
}
