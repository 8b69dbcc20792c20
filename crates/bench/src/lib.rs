//! # fro-bench — the experiment harness
//!
//! One function per experiment in DESIGN.md's index (E1–E11 plus the
//! figure reproductions F1–F4). Each returns a printable report whose
//! rows mirror what the paper states or implies; EXPERIMENTS.md records
//! paper-vs-measured for each. The `experiments` binary prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod examples_1_to_4;
pub mod figures;
pub mod lang_goj_bts;
pub mod optimizer_benefit;
pub mod table;
pub mod theorem_scale;

pub use table::Table;

/// Run every experiment, returning `(id, report)` pairs in order.
/// Progress (with wall-clock per experiment) goes to stderr.
#[must_use]
pub fn run_all(quick: bool) -> Vec<(String, String)> {
    let timed = |id: &str, f: &dyn Fn() -> String| -> (String, String) {
        let t0 = std::time::Instant::now();
        let report = f();
        eprintln!("[{id} done in {:.2?}]", t0.elapsed());
        (id.to_owned(), report)
    };
    vec![
        timed("E1", &|| examples_1_to_4::e1_example1_cost(quick)),
        timed("E2", &|| examples_1_to_4::e2_crossover(quick)),
        timed("E3", &examples_1_to_4::e3_example2_nonassociativity),
        timed("E4", &examples_1_to_4::e4_example3_nonstrong),
        timed("E5", &|| theorem_scale::e5_theorem_validation(quick)),
        timed("E6", &|| theorem_scale::e6_identity_pass_rates(quick)),
        timed("E7", &|| optimizer_benefit::e7_reordering_benefit(quick)),
        timed("E8", &|| optimizer_benefit::e8_simplification(quick)),
        timed("E9", &|| lang_goj_bts::e9_language(quick)),
        timed("E10", &|| lang_goj_bts::e10_goj(quick)),
        timed("E11", &|| lang_goj_bts::e11_bt_machinery(quick)),
        timed("E12", &|| theorem_scale::e12_semijoin_conjecture(quick)),
        timed("F1", &figures::f1_graph_vs_trees),
        timed("F2", &figures::f2_nice_topology),
        timed("F3", &figures::f3_derivation),
        timed("F4", &figures::f4_basic_transforms),
    ]
}
