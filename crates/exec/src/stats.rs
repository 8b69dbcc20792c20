//! Execution counters — the paper's cost accounting.
//!
//! Example 1 measures plans by the number of **tuples retrieved** from
//! base relations: a scan retrieves every tuple of its table; an index
//! lookup retrieves exactly the matching tuples. Under that metric the
//! two equivalent orderings of `R1 − (R2 → R3)` cost `2·10⁷ + 1` and
//! `3` tuples — the asymmetry this library exists to exploit.
//!
//! Every counter is a function of the plan and the data alone: a query
//! runs sequentially on its caller's thread, so the same plan over the
//! same tables always reports the same `ExecStats`, which is what lets
//! the executor suites pin counters against values derived from the
//! reference.

use std::fmt;

/// Counters accumulated by [`crate::execute`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table tuples retrieved (scans + index-lookup matches).
    pub tuples_retrieved: u64,
    /// Index probes issued (one per outer row in an index join).
    pub index_probes: u64,
    /// Predicate evaluations performed.
    pub comparisons: u64,
    /// Rows inserted into hash-join build tables.
    pub hash_build_rows: u64,
    /// Rows produced by the root operator.
    pub rows_output: u64,
    /// Rows written into materialized buffers: the results of pipeline
    /// breakers — hash-join build sides that are not bare scans,
    /// `GroupCount` inputs, full-outerjoin and `Goj` operands — so a
    /// fully-fused pipeline reports **0**.
    pub rows_materialized: u64,
    /// Rows that flowed through fused pipeline stages without an
    /// intermediate buffer (source rows pushed plus every fused
    /// operator's emissions).
    pub rows_pipelined: u64,
    /// Pipelines driven (one per fused scan→…→sink chain, including
    /// single-operator pipelines).
    pub pipelines: u64,
    /// Rows dropped by [`crate::PhysPlan::SemiReduce`] nodes: input
    /// rows with no join partner in the reducer source. Deterministic
    /// (input cardinality minus survivors), so it is part of the
    /// logical equality contract like the other scalar counters.
    pub rows_reduced: u64,
    /// `SemiReduce` reducer stages executed (one per plan node per
    /// execution).
    pub reducer_passes: u64,
    /// Delta rows entering maintenance operators of a standing view:
    /// every signed row (insert or delete) an incremental delta pass
    /// fed into a delta node. For a well-behaved maintenance pass this
    /// is O(|delta|·depth), never O(|base|) — the whole point of
    /// maintaining the view instead of re-executing it. Always 0 for
    /// plain (non-standing) execution.
    pub delta_rows_in: u64,
    /// Net changes applied to standing-view results by maintenance
    /// passes (rows inserted into plus rows retracted from maintained
    /// result sets). Always 0 for plain execution.
    pub delta_rows_out: u64,
    /// Standing views refreshed by full re-execution instead of a
    /// delta pass (initial materialization, or a structural change
    /// that invalidated the maintained state). Always 0 for plain
    /// execution.
    pub views_refreshed: u64,
    /// Metadata zones ([`fro_algebra::ZONE_ROWS`]-row runs of a
    /// base column) that a vectorized comparison resolved from zone
    /// min/max / null-count metadata as containing no qualifying row,
    /// without touching the column data. The logical work counters
    /// above do not depend on whether zones were skipped.
    pub morsels_skipped: u64,
}

impl ExecStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Fold another accumulator into this one. Every counter is a plain
    /// sum, so merging is commutative and associative: a session totals
    /// the runs of its statements, and a standing view its maintenance
    /// passes, by merging each run's counters.
    pub fn merge(&mut self, other: &ExecStats) {
        self.tuples_retrieved += other.tuples_retrieved;
        self.index_probes += other.index_probes;
        self.comparisons += other.comparisons;
        self.hash_build_rows += other.hash_build_rows;
        self.rows_output += other.rows_output;
        self.rows_materialized += other.rows_materialized;
        self.rows_pipelined += other.rows_pipelined;
        self.pipelines += other.pipelines;
        self.rows_reduced += other.rows_reduced;
        self.reducer_passes += other.reducer_passes;
        self.delta_rows_in += other.delta_rows_in;
        self.delta_rows_out += other.delta_rows_out;
        self.views_refreshed += other.views_refreshed;
        self.morsels_skipped += other.morsels_skipped;
    }

    /// A scalar "work" summary used by the experiments: retrieved tuples plus
    /// intermediate row volume (materialized at breakers **and**
    /// pipelined through fused stages) plus comparisons (all
    /// unit-weighted; the shape of comparisons is what matters, not an
    /// absolute cost model).
    #[must_use]
    pub fn work(&self) -> u64 {
        self.tuples_retrieved + self.rows_materialized + self.rows_pipelined + self.comparisons
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retrieved={} probes={} comparisons={} built={} materialized={} pipelined={} pipelines={} reduced={} reducer_passes={} delta_in={} delta_out={} views_refreshed={} skipped={} output={}",
            self.tuples_retrieved,
            self.index_probes,
            self.comparisons,
            self.hash_build_rows,
            self.rows_materialized,
            self.rows_pipelined,
            self.pipelines,
            self.rows_reduced,
            self.reducer_passes,
            self.delta_rows_in,
            self.delta_rows_out,
            self.views_refreshed,
            self.morsels_skipped,
            self.rows_output
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = ExecStats::new();
        assert_eq!(s.tuples_retrieved, 0);
        assert_eq!(s.work(), 0);
    }

    #[test]
    fn work_sums_components() {
        let s = ExecStats {
            tuples_retrieved: 10,
            comparisons: 5,
            rows_materialized: 3,
            ..ExecStats::default()
        };
        assert_eq!(s.work(), 18);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = ExecStats {
            tuples_retrieved: 1,
            index_probes: 2,
            comparisons: 3,
            hash_build_rows: 4,
            rows_output: 5,
            rows_materialized: 6,
            ..ExecStats::default()
        };
        let b = ExecStats {
            tuples_retrieved: 10,
            index_probes: 20,
            comparisons: 30,
            hash_build_rows: 40,
            rows_output: 50,
            rows_materialized: 60,
            rows_pipelined: 70,
            pipelines: 80,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.tuples_retrieved, 11);
        assert_eq!(a.index_probes, 22);
        assert_eq!(a.comparisons, 33);
        assert_eq!(a.hash_build_rows, 44);
        assert_eq!(a.rows_output, 55);
        assert_eq!(a.rows_materialized, 66);
        assert_eq!(a.rows_pipelined, 70);
        assert_eq!(a.pipelines, 80);
    }

    #[test]
    fn reducer_counters_merge_and_compare() {
        let mut a = ExecStats {
            rows_reduced: 3,
            reducer_passes: 1,
            ..ExecStats::default()
        };
        a.merge(&ExecStats {
            rows_reduced: 4,
            reducer_passes: 2,
            ..ExecStats::default()
        });
        assert_eq!(a.rows_reduced, 7);
        assert_eq!(a.reducer_passes, 3);
        let b = ExecStats::new();
        assert_ne!(a, b, "reducer counters are logical, not diagnostic");
    }

    #[test]
    fn merge_sums_skipped_zones() {
        let mut a = ExecStats {
            morsels_skipped: 2,
            ..ExecStats::default()
        };
        a.merge(&ExecStats {
            morsels_skipped: 5,
            ..ExecStats::default()
        });
        assert_eq!(a.morsels_skipped, 7);
    }

    #[test]
    fn maintenance_counters_merge_and_compare() {
        let mut a = ExecStats {
            delta_rows_in: 2,
            delta_rows_out: 1,
            views_refreshed: 1,
            ..ExecStats::default()
        };
        a.merge(&ExecStats {
            delta_rows_in: 5,
            delta_rows_out: 3,
            views_refreshed: 2,
            ..ExecStats::default()
        });
        assert_eq!(a.delta_rows_in, 7);
        assert_eq!(a.delta_rows_out, 4);
        assert_eq!(a.views_refreshed, 3);
        assert_ne!(
            a,
            ExecStats::new(),
            "maintenance counters are logical, not diagnostic"
        );
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = ExecStats::new().to_string();
        for key in [
            "retrieved",
            "probes",
            "comparisons",
            "built",
            "materialized",
            "pipelined",
            "pipelines",
            "reduced",
            "reducer_passes",
            "delta_in",
            "delta_out",
            "views_refreshed",
            "skipped",
            "output",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
