//! Execution configuration for the morsel-driven parallel probe.
//!
//! The probe side of every join can be split into fixed-size
//! **morsels** (contiguous row ranges); a pool of `std::thread` workers
//! claims morsels from a shared atomic counter and probes each into a
//! private output buffer. Buffers are concatenated in morsel-index
//! order, so the result is bit-identical to a sequential probe no
//! matter how the scheduler interleaves workers.
//!
//! [`crate::execute`] runs [`ExecConfig::default`], which is
//! sequential: a server runs one query per connection thread, and on a
//! two-CPU machine two concurrent bulk connections lost throughput when
//! each query also spawned a worker per core. The config is not a user
//! knob; it is the parameter the executor suites pass to
//! `execute_with` to hold every other configuration to the sequential
//! run.

use std::sync::OnceLock;

/// Thread count and morsel size for `execute_with`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for join probes. `1` (the default) runs fully
    /// sequentially on the calling thread; `0` means "use all available
    /// parallelism".
    pub threads: usize,
    /// Rows per morsel. Small enough to load-balance skewed probes,
    /// large enough that the atomic claim is amortized away.
    pub morsel_rows: usize,
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

    /// Resolve `threads = 0` against the machine; always at least one.
    /// The machine's parallelism is read once per process: reading it
    /// opens cgroup files, which would add file reads to every query.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        static MACHINE: OnceLock<usize> = OnceLock::new();
        if self.threads == 0 {
            *MACHINE.get_or_init(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
        } else {
            self.threads
        }
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            threads: 1,
            morsel_rows: ExecConfig::DEFAULT_MORSEL_ROWS,
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
}
