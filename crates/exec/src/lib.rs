//! # fro-exec — in-memory execution engine
//!
//! The physical substrate for reproducing the paper's cost claims
//! (Example 1) and for backing the cost-based optimizer in `fro-core`:
//!
//! * [`Storage`]: named in-memory tables, each with a columnar mirror
//!   and optional hash [`index::HashIndex`]es (the paper's Example 1
//!   assumes key indexes on every relation),
//! * [`PhysPlan`]: physical operator trees — scans, filters, hash
//!   joins, index nested-loop joins, plain nested loops, generalized
//!   outerjoin — each join in the four flavors the paper's algebra
//!   needs (inner, left-outer, semi, anti),
//! * [`ExecStats`]: *tuples retrieved* accounting (the metric Example 1
//!   counts: `2·10⁷ + 1` versus `3`), plus probe/comparison/output
//!   counters,
//! * [`execute`]: the executor front door. There is one executor, a
//!   push-based **pipelined** one: scan→filter→probe→project spines
//!   fuse into a single closure-chain pass over morsels with no
//!   intermediate row vector between fused operators, base tables are
//!   read through their columnar mirrors (vectorized filters, zone
//!   skipping, column-direct hash builds), and only pipeline breakers
//!   (non-scan build sides, `GroupCount`, merge sorts, full outerjoins)
//!   materialize. [`ExecConfig`] sets threads, morsel size and
//!   hash-join partitions; none of them changes a result, its order or
//!   a counter. The executor suites, all built on one harness
//!   (`tests/harness`), check it against the reference evaluator of
//!   `fro-algebra` on every plan shape and at every configuration.

//! ## Example
//!
//! ```
//! use fro_algebra::{Attr, Pred, Relation};
//! use fro_exec::{execute, ExecStats, JoinKind, PhysPlan, Storage};
//!
//! let mut storage = Storage::new();
//! storage.insert("R", Relation::from_ints("R", &["k"], &[&[1], &[2]]));
//! storage.insert("S", Relation::from_ints("S", &["k"], &[&[2], &[3]]));
//! storage.create_index("S", &[Attr::parse("S.k")]);
//!
//! let plan = PhysPlan::IndexJoin {
//!     kind: JoinKind::LeftOuter,
//!     outer: Box::new(PhysPlan::scan("R")),
//!     inner: "S".into(),
//!     outer_keys: vec![Attr::parse("R.k")],
//!     inner_keys: vec![Attr::parse("S.k")],
//!     residual: Pred::always(),
//! };
//! let mut stats = ExecStats::new();
//! let out = execute(&plan, &storage, &mut stats).unwrap();
//! assert_eq!(out.len(), 2);               // (1, null) and (2, 2)
//! assert_eq!(stats.tuples_retrieved, 3);  // scan R (2) + matched S row (1)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod delta;
pub mod engine;
pub mod index;
mod pipeline;
pub mod plan;
pub mod stats;
pub mod storage;

pub use config::{suggest_partitions, ExecConfig, MAX_PARTITIONS};
pub use delta::{BuildSidePool, DeltaPlan, RowDelta, SideIndex, SideKey};
pub use engine::{execute, execute_with, explain_analyze, explain_analyze_with, ExecError};
pub use plan::{JoinKind, PhysPlan, ReducePass};
pub use stats::{ExecStats, PartitionStats};
pub use storage::{Storage, Table};
