//! What a workload reports into: op timings, pass/fail, and — in the
//! traced binary only — spans and counts.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it; a root span is
/// one op of the workload's cycle.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count made at a layer boundary: `sum` over `n` contributions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Count {
    pub sum: u64,
    pub n: u64,
}

/// Collects everything one run measures.
pub struct Harness {
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    t0: Instant,
    /// `(op kind, latency ns)` of every timed op, in cycle order.
    pub ops: Vec<(&'static str, u64)>,
    pub spans: Vec<Span>,
    /// Root spans of the cycle in progress, in op order — what the
    /// workload's shadow pass hangs its child spans on.
    pub roots: Vec<u32>,
    pub counts: BTreeMap<&'static str, Count>,
}

impl Harness {
    pub fn new(traced: bool) -> Harness {
        Harness {
            traced,
            attempted: 0,
            failed: 0,
            t0: Instant::now(),
            ops: Vec::new(),
            spans: Vec::new(),
            roots: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time one op of the cycle. `layer` names the public call the op
    /// is (the root span's name); `kind` is the op type.
    pub fn op<R>(&mut self, layer: &'static str, kind: &'static str, f: impl FnOnce() -> R) -> R {
        self.attempted += 1;
        let allocs = self.traced.then(alloc::snapshot);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.ops.push((kind, end_ns - start_ns));
        if let Some(a0) = allocs {
            let a1 = alloc::snapshot();
            self.add("proc.allocs", a1.allocs - a0.allocs);
            self.add("proc.alloc_bytes", a1.bytes - a0.bytes);
            self.roots.push(self.spans.len() as u32);
            self.spans.push(Span {
                name: layer,
                op: kind,
                parent: None,
                start_ns,
                end_ns,
            });
        }
        out
    }

    /// Record the verdict on the op just run.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    /// Each op slot's *undisturbed* latency in µs: the cycle's k-th op is
    /// the same work in every cycle, so the spread of its latency across
    /// cycles is the host's doing, and on this host noise only ever adds
    /// time. The 10th percentile sits on the fast side without hanging
    /// on a single lucky sample the way a minimum does. A diagnostic
    /// only: work that lands in fewer than nine cycles in ten never
    /// reaches it.
    pub fn slot_floor_us(&self, ops_per_cycle: usize) -> Vec<f64> {
        (0..ops_per_cycle)
            .map(|k| {
                let slot: Vec<f64> = self
                    .ops
                    .iter()
                    .skip(k)
                    .step_by(ops_per_cycle)
                    .map(|&(_, ns)| us(ns))
                    .collect();
                quantile(&slot, 0.1)
            })
            .collect()
    }

    /// Summed op latency of each cycle, in µs.
    pub fn cycles_us(&self, ops_per_cycle: usize) -> Vec<f64> {
        self.ops
            .chunks(ops_per_cycle)
            .map(|cycle| cycle.iter().map(|&(_, ns)| us(ns)).sum())
            .collect()
    }

    /// Median op latency of each cycle, in µs.
    pub fn cycle_medians_us(&self, ops_per_cycle: usize) -> Vec<f64> {
        self.ops
            .chunks(ops_per_cycle)
            .map(|cycle| {
                let cycle: Vec<f64> = cycle.iter().map(|&(_, ns)| us(ns)).collect();
                quantile(&cycle, 0.5)
            })
            .collect()
    }

    /// Time a call into one layer's public function as a child of
    /// `parent` (`None`: set-up or between ops). Returns the call's
    /// result and the new span's id, so deeper calls can hang below it.
    /// The untraced binary just makes the call.
    pub fn span<R>(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !self.traced {
            return (f(), 0);
        }
        let op = parent.map_or("-", |p| self.spans[p as usize].op);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (out, id)
    }

    /// Traced runs only: add to a count.
    pub fn add(&mut self, name: &'static str, v: u64) {
        let c = self.counts.entry(name).or_default();
        c.sum += v;
        c.n += 1;
    }

    /// The spans as the trace file's JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Threads this process has right now.
pub fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, Iterator::count)
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `0..=1`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the driver's measure of run-to-run spread); `None` below four
/// values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(3) - cut(1)) / cut(2))
}

/// Confine this process — and the threads and children it starts — to
/// the first CPU it is allowed on.
///
/// This guest's noise lives in its second vCPU: after any stretch with
/// both busy (a build, a two-thread run) cross-vCPU wake-ups stay slow
/// for a minute and the client/server workloads ran 15-40 % slower,
/// while a one-CPU run did not move. The loop is closed with one caller,
/// so the client and the server's connection thread alternate anyway.
/// Done here, not by a wrapper, so that no run is ever unpinned.
pub fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes, the size passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = mask
        .iter()
        .position(|w| *w != 0)
        .ok_or("allowed on no CPU")?;
    let first = mask[word] & mask[word].wrapping_neg();
    mask = [0u64; 16];
    mask[word] = first;
    // SAFETY: as above; the call only reads `mask`.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// One `Vm*` line of `/proc/self/status`, in MiB.
pub fn proc_status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has run so far, all threads, in nanoseconds
/// (first field of each task's `schedstat`).
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
