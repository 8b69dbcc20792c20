//! Helpers shared by the property suites (`mod common;`).

use fro::prelude::*;
use fro::DbState;
use fro_algebra::{Query, Relation};
use std::sync::Arc;

/// Every table of a generation, in name order — copied row by row: a
/// `Relation::clone` shares the stored rows, and what a reader saw has
/// to be kept apart from the storage it is later compared with.
pub fn read_tables(state: &DbState) -> Vec<Relation> {
    state
        .storage()
        .iter()
        .map(|(_, t)| {
            let rel = t.relation();
            Relation::from_distinct_rows(rel.schema().clone(), rel.rows().to_vec())
        })
        .collect()
}

/// What a reader saw when it pinned a generation — every base table
/// and the result of a statement prepared on it — to be re-read after
/// later writes.
pub struct Pinned {
    state: Arc<DbState>,
    tables: Vec<Relation>,
    prepared: Prepared,
    result: Relation,
}

impl Pinned {
    pub fn pin(session: &Session, q: &Query) -> Pinned {
        let state = session.shared().snapshot();
        let prepared = session.prepare(q).unwrap();
        Pinned {
            tables: read_tables(&state),
            result: prepared.run().unwrap(),
            state,
            prepared,
        }
    }

    /// Both reads repeat bit-identically.
    pub fn assert_unchanged(&self, ctx: &str) {
        assert_eq!(read_tables(&self.state), self.tables, "{ctx}: snapshot");
        assert_eq!(self.prepared.run().unwrap(), self.result, "{ctx}: prepared");
    }
}
