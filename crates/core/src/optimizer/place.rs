//! Where a restriction may sit (§4).
//!
//! A restriction over one ground relation `R` commutes with every
//! operator that passes `R`'s rows through unchanged: another filter, a
//! semijoin reduction of the input carrying `R`, either side of a
//! regular join, and the *preserved* side of a one-sided outerjoin
//! (likewise the filtered side of a semi/anti join). It does **not**
//! commute with an operator that can pad `R`'s attributes with nulls —
//! the null-supplied side of a one-sided outerjoin, either side of a
//! two-sided one: below it the restriction removes a row whose partner
//! should then have been padded, above it the restriction judges the
//! padded row (§4's simplification rule is what turns such an outerjoin
//! into a join first, and it is not applied here).
//!
//! [`place_restriction`] therefore walks from the root toward `R`'s
//! scan for as long as each step commutes and leaves the filter where
//! the walk stops — on the scan itself when `R` is preserved or in the
//! join core all the way up, which is every base alias of a §5 block.

use super::reduce::provides;
use fro_algebra::{Attr, Pred};
use fro_exec::{JoinKind, PhysPlan};

/// `plan` restricted by `pred`, the filter sitting as close to the scan
/// of the relation `pred` reads as §4 allows — equivalent, row for row,
/// to `Filter { input: plan, pred }`.
///
/// A predicate over exactly one relation descends through `Filter`,
/// the input of a `SemiReduce`, either side of an inner join, and the
/// preserved/probe/outer side of left-outer, semi and anti joins. It
/// stops, the filter staying above, at a null-supplied side, at the
/// stored inner of an `IndexJoin` (there is no scan node to filter), at
/// a full outerjoin, and at `Project`, `GroupCount` and `Goj`. A
/// predicate over several relations, or none, stays on top.
#[must_use]
pub fn place_restriction(mut plan: PhysPlan, pred: &Pred) -> PhysPlan {
    if pred.rels().len() == 1 {
        let reads: Vec<Attr> = pred.attrs().into_iter().collect();
        place(&mut plan, &reads, pred);
    } else {
        filter_here(&mut plan, pred);
    }
    plan
}

fn filter_here(plan: &mut PhysPlan, pred: &Pred) {
    let input = Box::new(std::mem::replace(plan, PhysPlan::scan(String::new())));
    *plan = PhysPlan::Filter {
        input,
        pred: pred.clone(),
    };
}

/// One step of the walk: hand the restriction to the child whose
/// output carries the attributes it `reads` when this operator commutes
/// with it, else stop here.
fn place(plan: &mut PhysPlan, reads: &[Attr], pred: &Pred) {
    let carrier = match plan {
        PhysPlan::Filter { input, .. } | PhysPlan::SemiReduce { input, .. } => {
            Some(&mut **input).filter(|p| provides(p, reads))
        }
        PhysPlan::HashJoin {
            kind, probe, build, ..
        } => side(*kind, probe, Some(build), reads),
        PhysPlan::IndexJoin { kind, outer, .. } => side(*kind, outer, None, reads),
        PhysPlan::NlJoin {
            kind, left, right, ..
        } => side(*kind, left, Some(right), reads),
        PhysPlan::Scan { .. }
        | PhysPlan::Project { .. }
        | PhysPlan::GroupCount { .. }
        | PhysPlan::Goj { .. } => None,
    };
    match carrier {
        Some(child) => place(child, reads, pred),
        None => filter_here(plan, pred),
    }
}

/// The side of a join that carries the attributes a restriction `reads`
/// and may take it: the first operand unless the join pads it, the
/// second only across a regular join.
fn side<'a>(
    kind: JoinKind,
    first: &'a mut PhysPlan,
    second: Option<&'a mut Box<PhysPlan>>,
    reads: &[Attr],
) -> Option<&'a mut PhysPlan> {
    if kind != JoinKind::FullOuter && provides(first, reads) {
        Some(first)
    } else if kind == JoinKind::Inner {
        second.map(|p| &mut **p).filter(|p| provides(p, reads))
    } else {
        None
    }
}
