//! # fro — Freely-Reorderable Outerjoins
//!
//! A complete Rust implementation of Rosenthal & Galindo-Legaria,
//! *"Query Graphs, Implementing Trees, and Freely-Reorderable
//! Outerjoins"* (SIGMOD 1990): the relational algebra with nulls and
//! strong predicates, query graphs and their implementing trees, the
//! free-reorderability theorem with a checker, the §4 simplification
//! rules, the §5 UnNest/Link language, the §6.2 generalized outerjoin,
//! and a cost-based optimizer + execution engine that reproduce the
//! paper's Example 1 cost asymmetry exactly.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! | module | crate | paper section |
//! |--------|-------|---------------|
//! | [`algebra`] | `fro-algebra` | §1.2, §2 (operators, identities) |
//! | [`graph`] | `fro-graph` | §1.2–1.3, §3.1 (query graphs, niceness) |
//! | [`trees`] | `fro-trees` | §3 (implementing trees, basic transforms) |
//! | [`core`] | `fro-core` | Theorem 1, §4, §6 (checker, simplifier, optimizer) |
//! | [`exec`] | `fro-exec` | Example 1's engine (indexes, counters) |
//! | [`lang`] | `fro-lang` | §5 (UnNest/Link language) |
//!
//! ## Quickstart
//!
//! The [`Session`] front door is a cheap handle over a [`SharedDb`] —
//! catalog (statistics + plan cache) and storage — carrying only its
//! own counters. Handles connected to one database share data and warm
//! plans:
//!
//! ```
//! use fro::prelude::*;
//!
//! let session = Session::new();
//! session.insert_table("R1", Relation::from_ints("R1", &["k1"], &[&[0]]));
//! session.insert_table("R2", Relation::from_ints("R2", &["k2"], &[&[0], &[1]]));
//! session.insert_table("R3", Relation::from_ints("R3", &["k3"], &[&[1], &[9]]));
//!
//! // Example 1, written in the "wrong" association.
//! let q = Query::rel("R1").join(
//!     Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
//!     Pred::eq_attr("R1.k1", "R2.k2"),
//! );
//!
//! // Theorem 1 says the graph alone determines the result, so the
//! // optimizer is free to reorder — and to reuse cached plans.
//! assert!(fro::core::is_freely_reorderable(&q));
//! let prepared = session.prepare(&q).unwrap();
//! let out = prepared.run().unwrap();
//! assert_eq!(out.len(), 1);
//!
//! // Preparing the same (or an alpha-equivalent) query again is a
//! // pure plan-cache hit: zero enumeration — from *any* session over
//! // the same shared database.
//! let other = Session::connect(session.shared());
//! let warm = other.prepare(&q).unwrap();
//! assert_eq!(warm.optimized().pairs_examined, 0);
//! ```
//!
//! To serve the same database over TCP, see [`Server`] and [`Client`]
//! (the `fro-wire` query/result protocol).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fro_algebra as algebra;
pub use fro_core as core;
pub use fro_exec as exec;
pub use fro_graph as graph;
pub use fro_lang as lang;
pub use fro_trees as trees;
pub use fro_wire as wire;

mod error;
mod server;
mod session;
mod shared;
mod standing;

pub use error::FroError;
pub use server::{Client, Server, ServerOptions};
pub use session::{CatalogRef, Prepared, Session, StorageRef};
pub use shared::{AppendPaths, DbState, SharedDb};
pub use standing::{Registered, StandingCounters, StandingId, StandingInfo};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{
        Client, FroError, Prepared, Registered, Server, ServerOptions, Session, SharedDb,
        StandingCounters, StandingId, StandingInfo,
    };
    pub use fro_algebra::prelude::*;
    pub use fro_core::optimizer::CacheStats;
    pub use fro_core::{
        analyze, is_freely_reorderable, optimize, optimize_with_reduce, Catalog, Policy,
        ReducePolicy, ReductionReport,
    };
    pub use fro_exec::{execute, ExecStats, PhysPlan, Storage};
    pub use fro_graph::{graph_of, QueryGraph};
    pub use fro_trees::{enumerate_trees, EnumLimit};
}
