//! Execution configuration for the morsel-driven parallel engine.
//!
//! The probe side of every join is split into fixed-size **morsels**
//! (contiguous row ranges); a pool of `std::thread` workers claims
//! morsels from a shared atomic counter and probes each into a private
//! output buffer. Buffers are concatenated in morsel-index order, so
//! the result is bit-identical to a sequential probe no matter how the
//! scheduler interleaves workers.
//!
//! Hash-join build sides are additionally **radix-partitioned**: the
//! high bits of each key's 64-bit hash select one of `partitions`
//! partition-local tables, so the build can be parallelized without a
//! global table barrier and probes touch exactly one partition. The
//! partition is a pure function of the key hash, which makes results
//! (rows, order, counters) identical at every partition count —
//! `partitions = 1` reproduces the unpartitioned engine exactly.

/// The largest partition count the engine will use. Matches the
/// 64-member cap of `fro_algebra::RelSet` and bounds the fixed-size
/// per-partition counter arrays in [`crate::ExecStats`].
pub const MAX_PARTITIONS: usize = 64;

/// Pick a partition count from the build-side row count: one partition
/// per ~16k build rows, in the power-of-4 steps the engine bench
/// sweeps. Tiny builds stay unpartitioned — the scatter/merge overhead
/// only pays once a partition is big enough to miss cache.
#[must_use]
pub fn suggest_partitions(build_rows: u64) -> usize {
    match build_rows {
        0..=16_383 => 1,
        16_384..=262_143 => 4,
        262_144..=4_194_303 => 16,
        _ => MAX_PARTITIONS,
    }
}

/// Knobs for [`crate::execute_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for join probes. `1` (the default) runs fully
    /// sequentially on the calling thread; `0` means "use all available
    /// parallelism".
    pub threads: usize,
    /// Rows per morsel. Small enough to load-balance skewed probes,
    /// large enough that the atomic claim is amortized away.
    pub morsel_rows: usize,
    /// Hash-join partition count. `1` (the default) keeps one global
    /// build table — the exact pre-partitioning engine. `0` means
    /// "auto": the engine picks per join from the actual build-side
    /// row count (and the Session front door substitutes the
    /// optimizer's catalog-statistics hint before execution). Any
    /// value is clamped to [`MAX_PARTITIONS`].
    pub partitions: usize,
}

impl ExecConfig {
    /// Default morsel granularity.
    pub const DEFAULT_MORSEL_ROWS: usize = 4096;

    /// The sequential configuration (one thread).
    #[must_use]
    pub fn new() -> ExecConfig {
        ExecConfig::default()
    }

    /// Configuration with `threads` workers (`0` = all cores).
    #[must_use]
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            ..ExecConfig::default()
        }
    }

    /// Override the morsel size (clamped to at least one row).
    #[must_use]
    pub fn morsel_rows(mut self, rows: usize) -> ExecConfig {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Override the hash-join partition count (`0` = auto; clamped to
    /// [`MAX_PARTITIONS`] at resolution time).
    #[must_use]
    pub fn partitions(mut self, partitions: usize) -> ExecConfig {
        self.partitions = partitions;
        self
    }

    /// Resolve `threads = 0` against the machine; always at least one.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// Resolve the partition count for one hash join: `0` consults the
    /// [`suggest_partitions`] heuristic with the actual build-side row
    /// count; explicit values are clamped to `1..=MAX_PARTITIONS`.
    #[must_use]
    pub fn effective_partitions(&self, build_rows: usize) -> usize {
        let p = if self.partitions == 0 {
            suggest_partitions(build_rows as u64)
        } else {
            self.partitions
        };
        p.clamp(1, MAX_PARTITIONS)
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            threads: 1,
            morsel_rows: ExecConfig::DEFAULT_MORSEL_ROWS,
            partitions: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.effective_threads(), 1);
        assert_eq!(cfg.morsel_rows, ExecConfig::DEFAULT_MORSEL_ROWS);
        assert_eq!(cfg.partitions, 1);
        assert_eq!(cfg.effective_partitions(1_000_000_000), 1);
    }

    #[test]
    fn zero_threads_resolves_to_machine_parallelism() {
        let cfg = ExecConfig::with_threads(0);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn morsel_rows_clamps_to_one() {
        assert_eq!(ExecConfig::new().morsel_rows(0).morsel_rows, 1);
        assert_eq!(ExecConfig::new().morsel_rows(17).morsel_rows, 17);
    }

    #[test]
    fn partitions_clamp_to_cap() {
        assert_eq!(ExecConfig::new().partitions(4).effective_partitions(0), 4);
        assert_eq!(
            ExecConfig::new()
                .partitions(1 << 20)
                .effective_partitions(0),
            MAX_PARTITIONS
        );
    }

    #[test]
    fn auto_partitions_follow_build_size() {
        let auto = ExecConfig::new().partitions(0);
        assert_eq!(auto.effective_partitions(0), 1);
        assert_eq!(auto.effective_partitions(100), 1);
        assert_eq!(auto.effective_partitions(20_000), 4);
        assert_eq!(auto.effective_partitions(1 << 20), 16);
        assert_eq!(auto.effective_partitions(1 << 23), MAX_PARTITIONS);
    }

    #[test]
    fn suggestion_is_monotone_in_build_size() {
        let mut prev = 0;
        for rows in [0u64, 1, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26] {
            let p = suggest_partitions(rows);
            assert!(p >= prev, "suggestion shrank at {rows} rows");
            assert!(p <= MAX_PARTITIONS);
            prev = p;
        }
    }
}
