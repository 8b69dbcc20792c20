//! # fro-core — freely-reorderable outerjoins
//!
//! The paper's primary contribution, as a library:
//!
//! * [`reorder`]: **Theorem 1** — a join/outerjoin query is freely
//!   reorderable when its query graph is *nice* (connected join core
//!   with outward outerjoin trees; equivalently no outerjoin cycles, no
//!   `X → Y − Z`, no `X → Y ← Z`) and its outerjoin predicates are
//!   *strong* (null-rejecting). Three strongness [`reorder::Policy`]s
//!   are provided: the theorem's statement (`Paper`), a conservative
//!   `Strict`, and the minimal condition identity 12 actually needs
//!   (`MinimalChain`); property tests validate all three against
//!   exhaustive implementing-tree enumeration.
//! * [`mod@simplify`]: the §4 simplification — predicates (restrictions or
//!   regular joins) that are strong on attributes of a null-supplied
//!   relation convert the outerjoins on the path to it into regular
//!   joins; plus the referential-integrity rewrite and its
//!   reorderability caveat.
//! * [`goj_reorder`]: the §6.2 generalized-outerjoin reassociations
//!   (identities 15 and 16) that recover reordering for shapes like
//!   Example 2's `X → (Y − Z)`, which free reorderability excludes.
//! * [`optimizer`]: a cost-based optimizer in the style the paper's
//!   §6.1 prescribes — dynamic programming over the connected subsets
//!   of the query graph, "filling in Join or else Outerjoin (preserving
//!   the operator direction)" at each cut, with hash-join /
//!   index-nested-loop physical choices and a tuples-retrieved cost
//!   model that reproduces Example 1's asymmetry exactly.

//! ## Example
//!
//! ```
//! use fro_algebra::{Pred, Query};
//! use fro_core::{analyze, optimize, Catalog, Policy};
//!
//! // Example 1's graph, written in the expensive association.
//! let q = Query::rel("R1").join(
//!     Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
//!     Pred::eq_attr("R1.k1", "R2.k2"),
//! );
//! assert!(analyze(&q, Policy::Paper).is_freely_reorderable());
//!
//! // With statistics saying R1 is tiny, the optimizer reorders to
//! // drive from it.
//! let mut catalog = Catalog::new();
//! for (name, attr, rows) in [("R1", "k1", 1u64), ("R2", "k2", 1_000_000), ("R3", "k3", 1_000_000)] {
//!     catalog.add_table(name, std::sync::Arc::new(fro_algebra::Schema::of_relation(name, &[attr])), rows);
//!     catalog.set_distinct(&fro_algebra::Attr::new(name, attr), rows);
//!     catalog.add_index(name, &[fro_algebra::Attr::new(name, attr)]);
//! }
//! let plan = optimize(&q, &catalog, Policy::Paper).unwrap();
//! assert!(plan.reordered);
//! assert!(plan.est_cost < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod goj_reorder;
pub mod optimizer;
pub mod reorder;
pub mod simplify;

pub use optimizer::{
    optimize, optimize_graph, optimize_with_reduce, reduce_plan, Catalog, OptError, Optimized,
    ReducePolicy, ReductionReport,
};
pub use reorder::{analyze, is_freely_reorderable, Analysis, Policy, Violation};
pub use simplify::{simplify, SimplificationEvent};
