//! # fro-algebra — the relational-algebra kernel
//!
//! This crate implements the definitional layer of Rosenthal &
//! Galindo-Legaria, *"Query Graphs, Implementing Trees, and
//! Freely-Reorderable Outerjoins"* (SIGMOD 1990), §1.2 and §2:
//!
//! * [`Value`]s with SQL-style nulls and [`Truth`] (three-valued logic),
//! * [`Attr`]ibutes, [`Schema`]s, [`Tuple`]s and set-semantics
//!   [`Relation`]s with the paper's null-padding conventions,
//! * a [`Pred`]icate language with the paper's *strongness*
//!   (null-rejection) analysis,
//! * the join-like operators: regular join `−`, left outerjoin `→`,
//!   antijoin `▷`, semijoin, union-with-padding, and the §6.2
//!   generalized outerjoin [`ops::goj`],
//! * [`Query`] expression trees with bottom-up [`Query::eval`], and
//! * machine-checkable statements of the paper's identities 1–16 in
//!   [`identities`].
//!
//! Everything downstream (query graphs, implementing trees, the free
//! reorderability theorem, the optimizer, the execution engine) is built
//! on the definitions here; this crate is the semantic ground truth used
//! by every equivalence test in the workspace.
//!
//! ## Example
//!
//! ```
//! use fro_algebra::prelude::*;
//!
//! // Example 1 of the paper: R1 −(keys) (R2 →(keys) R3).
//! let q = Query::rel("R1").join(
//!     Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
//!     Pred::eq_attr("R1.k1", "R2.k2"),
//! );
//!
//! let mut db = Database::new();
//! db.insert(Relation::from_ints("R1", &["k1"], &[&[1]]));
//! db.insert(Relation::from_ints("R2", &["k2"], &[&[1], &[2]]));
//! db.insert(Relation::from_ints("R3", &["k3"], &[&[2], &[3]]));
//!
//! let out = q.eval(&db).unwrap();
//! assert_eq!(out.len(), 1); // (1, 1, null): R2=1 matched R1 but found no R3 partner
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod database;
pub mod error;
pub mod expr;
pub mod fasthash;
pub mod goj;
pub mod identities;
pub mod intern;
pub mod ops;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod sig;
pub mod truth;
pub mod tuple;
pub mod value;

pub use column::{Bitmap, ColumnSet, KeySketch, SelMask, ZONE_ROWS};
pub use database::Database;
pub use error::AlgebraError;
pub use expr::Query;
pub use fasthash::{key_hash, FastHasher, FastMap, FastSet};
pub use intern::{AttrId, Interner, RelId, RelSet};
pub use predicate::{CmpOp, Pred, Scalar};
pub use relation::Relation;
pub use schema::{Attr, Schema};
pub use sig::{sig_hash_of, SigHash, StableHasher};
pub use truth::Truth;
pub use tuple::Tuple;
pub use value::Value;

/// Convenient glob-import surface: `use fro_algebra::prelude::*`.
pub mod prelude {
    pub use crate::database::Database;
    pub use crate::error::AlgebraError;
    pub use crate::expr::Query;
    pub use crate::predicate::{CmpOp, Pred, Scalar};
    pub use crate::relation::Relation;
    pub use crate::schema::{Attr, Schema};
    pub use crate::truth::Truth;
    pub use crate::tuple::Tuple;
    pub use crate::value::Value;
}
