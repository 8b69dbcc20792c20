//! The EXPLAIN regression corpus: every deterministic testkit workload
//! optimized, rendered to a stable text form, and compared against the
//! files under `corpus/plans/`.
//!
//! Each corpus file captures everything a plan regression would move:
//! the query-graph signature, the estimated cost/cardinality, the
//! EXPLAIN tree, and the hex of the id-only wire encoding — so a cost
//! model tweak, a lowering change, or a wire-format change all show up
//! as a text diff in review instead of sliding in silently.
//!
//! ```text
//! corpus [--out DIR] [--check] [--perturb]
//! ```
//!
//! * default: (re)write the corpus files under `--out`
//!   (`corpus/plans/`);
//! * `--check`: write nothing; regenerate in memory and fail (exit 1)
//!   with a diff excerpt if any file disagrees, or if a `.txt` file in
//!   the directory is one no case generates (a deleted case's or
//!   algorithm's leftover) — the CI gate;
//! * `--perturb`: deterministically perturb every catalog's statistics
//!   first. `--check --perturb` must fail on a healthy corpus; CI runs
//!   it to prove the gate actually detects cost-model drift.

use fro_core::optimizer::{graph_signature, optimize};
use fro_core::{analyze, Catalog, Policy};
use fro_exec::PhysPlan;
use fro_testkit::corpus_suite;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Double every table's row count (wiping its distinct counts): a
/// deterministic statistics shift that moves every cost estimate.
fn perturb(catalog: &mut Catalog, storage: &fro_exec::Storage) {
    for (name, table) in storage.iter() {
        let rel = table.relation();
        let rows = rel.len() as u64 * 2 + 17;
        catalog.add_table(name.to_string(), rel.schema().clone(), rows);
    }
}

fn render(
    case_name: &str,
    sig: u64,
    cost: f64,
    rows: f64,
    plan: &PhysPlan,
    catalog: &Catalog,
) -> String {
    let wire = fro_wire::encode_plan(plan, catalog.interner())
        .unwrap_or_else(|e| panic!("corpus plan for {case_name} must encode: {e}"));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# fro EXPLAIN corpus. Regenerate with scripts/explain_corpus.sh; do not edit by hand."
    );
    let _ = writeln!(s, "case: {case_name}");
    // Kept from when a second search had files of its own, so that
    // every plan file stays byte-identical.
    let _ = writeln!(s, "algo: dp");
    let _ = writeln!(s, "policy: Paper");
    let _ = writeln!(s, "signature: {sig:016x}");
    let _ = writeln!(s, "est_cost: {cost:.3}");
    let _ = writeln!(s, "est_rows: {rows:.3}");
    let _ = writeln!(s, "plan:");
    for line in plan.explain().lines() {
        let _ = writeln!(s, "  {line}");
    }
    let _ = writeln!(s, "wire: {}", hex(&wire));
    s
}

/// First point of divergence, with a couple of context lines from each
/// side — enough to read the regression off the CI log.
fn diff_excerpt(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let n = e.len().max(a.len());
    for i in 0..n {
        if e.get(i) != a.get(i) {
            let mut s = String::new();
            let _ = writeln!(s, "  first difference at line {}:", i + 1);
            for j in i.saturating_sub(1)..(i + 3).min(n) {
                let _ = writeln!(s, "    - {}", e.get(j).unwrap_or(&"<eof>"));
                let _ = writeln!(s, "    + {}", a.get(j).unwrap_or(&"<eof>"));
            }
            return s;
        }
    }
    "  contents differ only in trailing whitespace\n".to_owned()
}

/// The `.txt` files in `dir` that are not in `generated`, sorted.
fn orphans(dir: &Path, generated: &BTreeSet<String>) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".txt") && !generated.contains(name))
        .collect();
    out.sort();
    out
}

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from("corpus/plans");
    let mut check = false;
    let mut do_perturb = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(args.next().expect("--out needs a directory")),
            "--check" => check = true,
            "--perturb" => do_perturb = true,
            other => {
                eprintln!("unknown flag {other}; usage: corpus [--out DIR] [--check] [--perturb]");
                return ExitCode::FAILURE;
            }
        }
    }
    if !check {
        std::fs::create_dir_all(&out_dir).expect("create corpus dir");
    }

    let mut failures = 0usize;
    let mut written = 0usize;
    let mut generated = BTreeSet::new();
    for case in corpus_suite() {
        let mut catalog = case.catalog;
        if do_perturb {
            perturb(&mut catalog, &case.storage);
        }
        // The optimizer plans the canonical graph.
        let graph = analyze(&case.query, Policy::Paper)
            .graph
            .unwrap_or_else(|| panic!("corpus workload {} must be reorderable", case.name))
            .canonical();
        let sig = graph_signature(&graph);

        let dp = optimize(&case.query, &catalog, Policy::Paper)
            .unwrap_or_else(|e| panic!("optimize {} failed: {e}", case.name));
        let content = render(
            case.name,
            sig.as_u64(),
            dp.est_cost,
            dp.est_rows,
            &dp.plan,
            &catalog,
        );
        let file = format!("{}.dp.txt", case.name);
        let path = out_dir.join(&file);
        generated.insert(file);
        if check {
            match std::fs::read_to_string(&path) {
                Ok(on_disk) if on_disk == content => {}
                Ok(on_disk) => {
                    eprintln!("corpus drift in {}:", path.display());
                    eprint!("{}", diff_excerpt(&on_disk, &content));
                    failures += 1;
                }
                Err(e) => {
                    eprintln!(
                        "corpus file {} unreadable ({e}); regenerate with \
                         scripts/explain_corpus.sh",
                        path.display()
                    );
                    failures += 1;
                }
            }
        } else {
            std::fs::write(&path, &content).expect("write corpus file");
            written += 1;
        }
    }

    // A plan file no case generates is checked by nothing.
    for orphan in orphans(&out_dir, &generated) {
        eprintln!(
            "corpus file {} matches no case; delete it",
            out_dir.join(orphan).display()
        );
        failures += usize::from(check);
    }

    if check {
        if failures > 0 {
            eprintln!(
                "{failures} corpus file(s) out of date. If the plan change is intentional, \
                 regenerate with scripts/explain_corpus.sh and commit the diff."
            );
            return ExitCode::FAILURE;
        }
        println!("corpus check: all files match");
    } else {
        println!("corpus: wrote {written} files to {}", out_dir.display());
    }
    ExitCode::SUCCESS
}
