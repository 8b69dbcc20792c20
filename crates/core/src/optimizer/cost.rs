//! Cost model: estimated tuples retrieved + rows materialized.
//!
//! The unit of cost is "one tuple touched" — the metric of the paper's
//! Example 1. A scan touches every tuple; a hash join touches its
//! build and probe inputs plus its output; an index join touches one
//! probe per outer row and only the *matching* inner tuples, which is
//! exactly why `(R1 − R2) → R3` costs 3 touches while
//! `R1 − (R2 → R3)` costs `2·|R2| + 1` when driven the wrong way.

use super::stats::{Catalog, KeyOverlap};
use fro_exec::{JoinKind, PhysPlan};

/// An estimated (cost, output-rows) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Total work units (tuples touched).
    pub cost: f64,
    /// Estimated output cardinality.
    pub rows: f64,
}

/// Join-output cardinality for `kind`, given input cards and the
/// match selectivity.
#[must_use]
pub(crate) fn join_rows(kind: JoinKind, probe_rows: f64, build_rows: f64, sel: f64) -> f64 {
    let inner = probe_rows * build_rows * sel;
    let match_prob = (build_rows * sel).min(1.0);
    match kind {
        JoinKind::Inner => inner,
        JoinKind::LeftOuter => inner.max(probe_rows),
        JoinKind::FullOuter => inner.max(probe_rows).max(build_rows),
        JoinKind::Semi => probe_rows * match_prob,
        JoinKind::Anti => probe_rows * (1.0 - match_prob),
    }
}

/// Estimate a physical plan bottom-up.
#[must_use]
pub fn estimate_plan(plan: &PhysPlan, catalog: &Catalog) -> Estimate {
    estimate(plan, catalog, KeyOverlap::Measured)
}

/// [`estimate_plan`] with every join key pair costed under the
/// containment bound ([`KeyOverlap::Contained`]) — the semijoin
/// reducer's estimate.
pub(crate) fn estimate_contained(plan: &PhysPlan, catalog: &Catalog) -> Estimate {
    estimate(plan, catalog, KeyOverlap::Contained)
}

fn estimate(plan: &PhysPlan, catalog: &Catalog, overlap: KeyOverlap) -> Estimate {
    match plan {
        PhysPlan::Scan { rel } => {
            let n = catalog.rows_of(rel) as f64;
            Estimate { cost: n, rows: n }
        }
        PhysPlan::Filter { input, pred } => {
            let e = estimate(input, catalog, overlap);
            Estimate {
                cost: e.cost + e.rows,
                rows: e.rows * catalog.selectivity(pred),
            }
        }
        PhysPlan::Project { input, .. } => {
            let e = estimate(input, catalog, overlap);
            Estimate {
                cost: e.cost + e.rows,
                rows: e.rows,
            }
        }
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } => {
            let pe = estimate(probe, catalog, overlap);
            let be = estimate(build, catalog, overlap);
            let mut sel = catalog.selectivity(residual);
            for (pk, bk) in probe_keys.iter().zip(build_keys) {
                sel *= catalog.eq_selectivity_as(pk, bk, overlap);
            }
            let rows = join_rows(*kind, pe.rows, be.rows, sel);
            Estimate {
                cost: pe.cost + be.cost + be.rows + pe.rows + rows,
                rows,
            }
        }
        PhysPlan::IndexJoin {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } => {
            let oe = estimate(outer, catalog, overlap);
            let inner_rows = catalog.rows_of(inner) as f64;
            let mut sel = catalog.selectivity(residual);
            for (ok, ik) in outer_keys.iter().zip(inner_keys) {
                sel *= catalog.eq_selectivity_as(ok, ik, overlap);
            }
            let retrieved = oe.rows * inner_rows * sel;
            let rows = join_rows(*kind, oe.rows, inner_rows, sel);
            Estimate {
                cost: oe.cost + oe.rows + retrieved + rows,
                rows,
            }
        }
        PhysPlan::NlJoin {
            kind,
            left,
            right,
            pred,
        } => {
            let le = estimate(left, catalog, overlap);
            let re = estimate(right, catalog, overlap);
            let sel = catalog.selectivity(pred);
            let rows = join_rows(*kind, le.rows, re.rows, sel);
            Estimate {
                cost: le.cost + re.cost + le.rows * re.rows + rows,
                rows,
            }
        }
        PhysPlan::GroupCount {
            input, group_attrs, ..
        } => {
            let e = estimate(input, catalog, overlap);
            let mut groups = 1.0f64;
            for a in group_attrs {
                groups *= catalog.distinct_of(a) as f64;
            }
            Estimate {
                cost: e.cost + e.rows,
                rows: groups.min(e.rows),
            }
        }
        PhysPlan::Goj {
            left, right, pred, ..
        } => {
            let le = estimate(left, catalog, overlap);
            let re = estimate(right, catalog, overlap);
            let sel = catalog.selectivity(pred);
            let rows = join_rows(JoinKind::LeftOuter, le.rows, re.rows, sel);
            Estimate {
                cost: le.cost + re.cost + le.rows * re.rows + rows,
                rows,
            }
        }
        PhysPlan::SemiReduce {
            input,
            source,
            input_keys,
            source_keys,
            ..
        } => {
            let ie = estimate(input, catalog, overlap);
            let se = estimate(source, catalog, overlap);
            // Containment assumption: the source's key values are a
            // subset of the input's key domain, so an input row
            // survives with probability d_source / d_input per key —
            // not the join arms' equality selectivity. This is what
            // lets the reducer see skew: a dimension whose junk keys
            // never appear in the source gets d_src ≪ d_in and a
            // survivor fraction well below one, while uniformly-keyed
            // inputs get ≈ 1 and the reduction correctly looks useless.
            // An input has no more key values than rows: a wrap stacked
            // on another sees the keys the first one left, so the two
            // survivor fractions do not compound over the whole table's.
            let mut frac = 1.0f64;
            for (ik, sk) in input_keys.iter().zip(source_keys) {
                let d_in = (catalog.distinct_of(ik) as f64).min(ie.rows).max(1.0);
                let d_src = catalog.distinct_of(sk).max(1) as f64;
                frac *= (d_src / d_in).min(1.0);
            }
            Estimate {
                cost: ie.cost + se.cost + se.rows + ie.rows,
                rows: ie.rows * frac,
            }
        }
    }
}

/// The combined equality selectivity of the equi-conjuncts between two
/// relation sets, times the residual selectivity — a name-keyed
/// testing oracle for the id-keyed selectivities computed in
/// `cuts::CutCtx`. Hidden from the public surface; enable the
/// `testing-oracles` feature to use it.
#[cfg(any(test, feature = "testing-oracles"))]
#[doc(hidden)]
#[must_use]
pub fn cut_selectivity(
    catalog: &Catalog,
    pred: &fro_algebra::Pred,
    left_rels: &std::collections::BTreeSet<String>,
    right_rels: &std::collections::BTreeSet<String>,
) -> f64 {
    let (pairs, residual) = super::lower::split_equi_by_name_impl(pred, left_rels, right_rels);
    let mut sel = catalog.selectivity(&residual);
    for (a, b) in &pairs {
        sel *= catalog.eq_selectivity(a, b);
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Attr, Pred, Schema};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, rows) in [("R1", 1u64), ("R2", 10_000_000), ("R3", 10_000_000)] {
            let attr = format!("k{}", &name[1..]);
            cat.add_table(name, Arc::new(Schema::of_relation(name, &[&attr])), rows);
            cat.set_distinct(&Attr::new(name, &attr), rows);
            cat.add_index(name, &[Attr::new(name, &attr)]);
        }
        cat
    }

    #[test]
    fn scan_cost_is_cardinality() {
        let cat = catalog();
        let e = estimate_plan(&PhysPlan::scan("R2"), &cat);
        assert_eq!(e.cost, 10_000_000.0);
        assert_eq!(e.rows, 10_000_000.0);
    }

    #[test]
    fn example1_cost_asymmetry_estimated() {
        let cat = catalog();
        // Plan B (cheap): scan R1 → index into R2 → index into R3.
        let plan_b = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(PhysPlan::IndexJoin {
                kind: JoinKind::Inner,
                outer: Box::new(PhysPlan::scan("R1")),
                inner: "R2".into(),
                outer_keys: vec![Attr::parse("R1.k1")],
                inner_keys: vec![Attr::parse("R2.k2")],
                residual: Pred::always(),
            }),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        // Plan A (expensive): scan R2, index-outerjoin R3, then index
        // into R1.
        let plan_a = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::IndexJoin {
                kind: JoinKind::LeftOuter,
                outer: Box::new(PhysPlan::scan("R2")),
                inner: "R3".into(),
                outer_keys: vec![Attr::parse("R2.k2")],
                inner_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            }),
            inner: "R1".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R1.k1")],
            residual: Pred::always(),
        };
        let eb = estimate_plan(&plan_b, &cat);
        let ea = estimate_plan(&plan_a, &cat);
        assert!(
            eb.cost * 1000.0 < ea.cost,
            "plan B ({}) should be orders cheaper than plan A ({})",
            eb.cost,
            ea.cost
        );
    }

    #[test]
    fn join_rows_kinds() {
        // probe 10 rows, build 100 rows, sel keyed at 1/100.
        let sel = 0.01;
        assert!((join_rows(JoinKind::Inner, 10.0, 100.0, sel) - 10.0).abs() < 1e-9);
        assert!(join_rows(JoinKind::LeftOuter, 10.0, 100.0, sel) >= 10.0);
        assert!(join_rows(JoinKind::Semi, 10.0, 100.0, sel) <= 10.0);
        let anti = join_rows(JoinKind::Anti, 10.0, 100.0, sel);
        assert!((0.0..=10.0).contains(&anti));
    }

    #[test]
    fn cut_selectivity_combines_keys_and_residual() {
        let cat = catalog();
        let l: BTreeSet<String> = ["R2".to_owned()].into();
        let r: BTreeSet<String> = ["R3".to_owned()].into();
        let p = Pred::eq_attr("R2.k2", "R3.k3");
        let s = cut_selectivity(&cat, &p, &l, &r);
        assert!((s - 1e-7).abs() < 1e-12);
    }
}
