//! Physical plans.

use fro_algebra::{Attr, Pred};
use std::fmt;

/// Join flavor, interpreted relative to the *probe/outer/left* input:
/// that side is preserved (`LeftOuter`), filtered (`Semi`/`Anti`), or
/// neither (`Inner`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Regular join.
    Inner,
    /// Probe/outer side preserved, other side null-supplied.
    LeftOuter,
    /// Both sides preserved (two-sided outerjoin). Supported by hash
    /// and nested-loop joins (an index join cannot enumerate unmatched
    /// inner rows without scanning).
    FullOuter,
    /// Keep probe rows with at least one match.
    Semi,
    /// Keep probe rows with no match.
    Anti,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "inner",
            JoinKind::LeftOuter => "left-outer",
            JoinKind::FullOuter => "full-outer",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
        };
        write!(f, "{s}")
    }
}

/// Which Yannakakis pass a [`PhysPlan::SemiReduce`] node belongs to:
/// the leaves→root sweep that shrinks the probe spine before joins
/// expand it, or the root→leaves sweep that shrinks build sides.
/// Execution is identical either way — the pass is schedule metadata
/// surfaced by EXPLAIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReducePass {
    /// Leaves→root: reduce a probe-side input by a build-side source.
    Up,
    /// Root→leaves: reduce a build-side input by a probe-side source.
    Down,
}

impl fmt::Display for ReducePass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReducePass::Up => "up",
            ReducePass::Down => "down",
        };
        write!(f, "{s}")
    }
}

/// A physical operator tree.
///
/// Join output schemas are `probe ++ build` (hash), `outer ++ inner`
/// (index), `left ++ right` (nested loop); semi/anti joins output the
/// probe/outer/left schema only.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Full scan of a stored table.
    Scan {
        /// Table name.
        rel: String,
    },
    /// Filter rows by a predicate (3VL: keep on `True`).
    Filter {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Filter predicate.
        pred: Pred,
    },
    /// Duplicate-removing projection.
    Project {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Output attributes.
        attrs: Vec<Attr>,
    },
    /// Hash join: build a table on `build`, probe with `probe`.
    HashJoin {
        /// Join flavor (relative to the probe side).
        kind: JoinKind,
        /// Probe input (preserved side for `LeftOuter`).
        probe: Box<PhysPlan>,
        /// Build input.
        build: Box<PhysPlan>,
        /// Equi-key attributes on the probe side.
        probe_keys: Vec<Attr>,
        /// Equi-key attributes on the build side (same arity).
        build_keys: Vec<Attr>,
        /// Residual predicate applied to candidate pairs.
        residual: Pred,
    },
    /// Index nested-loop join against a stored, indexed table.
    IndexJoin {
        /// Join flavor (relative to the outer side).
        kind: JoinKind,
        /// Outer input.
        outer: Box<PhysPlan>,
        /// Inner stored table (must have an index on `inner_keys`).
        inner: String,
        /// Equi-key attributes on the outer side.
        outer_keys: Vec<Attr>,
        /// Indexed attributes of the inner table.
        inner_keys: Vec<Attr>,
        /// Residual predicate applied to candidate pairs.
        residual: Pred,
    },
    /// Plain nested-loop join (arbitrary predicate).
    NlJoin {
        /// Join flavor (relative to the left side).
        kind: JoinKind,
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
        /// Join predicate.
        pred: Pred,
    },
    /// Group by `group_attrs`, counting non-null `counted` values
    /// (all rows when `None`); output scheme is the group attributes
    /// plus `agg.count`.
    GroupCount {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Grouping attributes.
        group_attrs: Vec<Attr>,
        /// Attribute whose non-null occurrences are counted.
        counted: Option<Attr>,
    },
    /// Semijoin reduction: keep the `input` rows that have at least
    /// one join partner in `source` on the equi-keys — a
    /// Yannakakis-style reducer pass chosen by the optimizer. Output
    /// schema and row order are the `input`'s; a null key never
    /// matches (3VL, like every equi-join in the engine). `source` is
    /// always a shallow base-relation plan (a scan, possibly
    /// filtered), so reducing never re-executes a join subtree.
    SemiReduce {
        /// The input being reduced (its schema is the output schema).
        input: Box<PhysPlan>,
        /// The reducing side: rows are kept iff a partner exists here.
        source: Box<PhysPlan>,
        /// Equi-key attributes on the input side.
        input_keys: Vec<Attr>,
        /// Equi-key attributes on the source side (same arity).
        source_keys: Vec<Attr>,
        /// Which reduction sweep this node implements (EXPLAIN
        /// metadata; execution is pass-independent).
        pass: ReducePass,
    },
    /// Generalized outerjoin `left GOJ[subset] right` (§6.2).
    Goj {
        /// Left input (`R1`).
        left: Box<PhysPlan>,
        /// Right input (`R2`).
        right: Box<PhysPlan>,
        /// Join predicate.
        pred: Pred,
        /// Projection subset `S ⊆ sch(left)`.
        subset: Vec<Attr>,
    },
}

impl PhysPlan {
    /// Scan shorthand.
    #[must_use]
    pub fn scan(rel: impl Into<String>) -> PhysPlan {
        PhysPlan::Scan { rel: rel.into() }
    }

    /// The immediate child plans, in `explain` order. An `IndexJoin`'s
    /// inner table is a name, not a child plan.
    pub fn children(&self) -> impl Iterator<Item = &PhysPlan> {
        let (a, b): (Option<&PhysPlan>, Option<&PhysPlan>) = match self {
            PhysPlan::Scan { .. } => (None, None),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::GroupCount { input, .. }
            | PhysPlan::IndexJoin { outer: input, .. } => (Some(input), None),
            PhysPlan::HashJoin {
                probe: a, build: b, ..
            }
            | PhysPlan::SemiReduce {
                input: a,
                source: b,
                ..
            }
            | PhysPlan::NlJoin {
                left: a, right: b, ..
            }
            | PhysPlan::Goj {
                left: a, right: b, ..
            } => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }

    /// Visit every base-relation reference in the tree in plan order:
    /// each `Scan` leaf and each `IndexJoin` inner table. The count of
    /// visits is exactly the number of relation slots the plan
    /// occupies, so a cached plan for a `k`-relation subset makes
    /// exactly `k` calls.
    pub fn for_each_base_rel<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            PhysPlan::Scan { rel } => f(rel),
            PhysPlan::Filter { input, .. } | PhysPlan::Project { input, .. } => {
                input.for_each_base_rel(f);
            }
            PhysPlan::HashJoin { probe, build, .. } => {
                probe.for_each_base_rel(f);
                build.for_each_base_rel(f);
            }
            PhysPlan::IndexJoin { outer, inner, .. } => {
                outer.for_each_base_rel(f);
                f(inner);
            }
            PhysPlan::NlJoin { left, right, .. } | PhysPlan::Goj { left, right, .. } => {
                left.for_each_base_rel(f);
                right.for_each_base_rel(f);
            }
            PhysPlan::GroupCount { input, .. } => input.for_each_base_rel(f),
            PhysPlan::SemiReduce { input, source, .. } => {
                input.for_each_base_rel(f);
                source.for_each_base_rel(f);
            }
        }
    }

    /// Multi-line indented EXPLAIN-style rendering.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::Scan { rel } => out.push_str(&format!("{pad}Scan {rel}\n")),
            PhysPlan::Filter { input, pred } => {
                out.push_str(&format!("{pad}Filter [{pred}]\n"));
                input.explain_into(out, depth + 1);
            }
            PhysPlan::Project { input, attrs } => {
                let names: Vec<String> = attrs.iter().map(ToString::to_string).collect();
                out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            PhysPlan::HashJoin {
                kind,
                probe,
                build,
                probe_keys,
                build_keys,
                ..
            } => {
                let pk: Vec<String> = probe_keys.iter().map(ToString::to_string).collect();
                let bk: Vec<String> = build_keys.iter().map(ToString::to_string).collect();
                out.push_str(&format!(
                    "{pad}HashJoin({kind}) [{} = {}]\n",
                    pk.join(","),
                    bk.join(",")
                ));
                probe.explain_into(out, depth + 1);
                build.explain_into(out, depth + 1);
            }
            PhysPlan::IndexJoin {
                kind,
                outer,
                inner,
                outer_keys,
                inner_keys,
                ..
            } => {
                let ok: Vec<String> = outer_keys.iter().map(ToString::to_string).collect();
                let ik: Vec<String> = inner_keys.iter().map(ToString::to_string).collect();
                out.push_str(&format!(
                    "{pad}IndexJoin({kind}) {inner} [{} = {}]\n",
                    ok.join(","),
                    ik.join(",")
                ));
                outer.explain_into(out, depth + 1);
            }
            PhysPlan::NlJoin {
                kind,
                left,
                right,
                pred,
            } => {
                out.push_str(&format!("{pad}NlJoin({kind}) [{pred}]\n"));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysPlan::GroupCount {
                input, group_attrs, ..
            } => {
                let names: Vec<String> = group_attrs.iter().map(ToString::to_string).collect();
                out.push_str(&format!("{pad}GroupCount [{}]\n", names.join(", ")));
                input.explain_into(out, depth + 1);
            }
            PhysPlan::SemiReduce {
                input,
                source,
                input_keys,
                source_keys,
                pass,
            } => {
                let ik: Vec<String> = input_keys.iter().map(ToString::to_string).collect();
                let sk: Vec<String> = source_keys.iter().map(ToString::to_string).collect();
                out.push_str(&format!(
                    "{pad}SemiReduce({pass}) [{} = {}]\n",
                    ik.join(","),
                    sk.join(",")
                ));
                input.explain_into(out, depth + 1);
                source.explain_into(out, depth + 1);
            }
            PhysPlan::Goj {
                left,
                right,
                pred,
                subset,
            } => {
                let names: Vec<String> = subset.iter().map(ToString::to_string).collect();
                out.push_str(&format!("{pad}Goj[{}] [{pred}]\n", names.join(",")));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_tree() {
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("R")),
            build: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("S")),
                pred: Pred::always(),
            }),
            probe_keys: vec![Attr::parse("R.k")],
            build_keys: vec![Attr::parse("S.k")],
            residual: Pred::always(),
        };
        let text = plan.explain();
        assert!(text.contains("HashJoin(left-outer)"));
        assert!(text.contains("Scan R"));
        assert!(text.contains("Filter"));
        // Indentation shows structure.
        assert!(text.contains("\n  Scan R"));
    }

    #[test]
    fn join_kind_display() {
        assert_eq!(JoinKind::Anti.to_string(), "anti");
        assert_eq!(JoinKind::Inner.to_string(), "inner");
    }

    #[test]
    fn semireduce_explains_and_counts_base_rels() {
        let plan = PhysPlan::SemiReduce {
            input: Box::new(PhysPlan::scan("F")),
            source: Box::new(PhysPlan::scan("D1")),
            input_keys: vec![Attr::parse("F.d1")],
            source_keys: vec![Attr::parse("D1.k")],
            pass: ReducePass::Up,
        };
        let text = plan.explain();
        assert!(text.contains("SemiReduce(up) [F.d1 = D1.k]"));
        assert!(text.contains("\n  Scan F"));
        assert!(text.contains("\n  Scan D1"));
        let mut rels = Vec::new();
        plan.for_each_base_rel(&mut |r| rels.push(r));
        assert_eq!(rels, ["F", "D1"]);
        assert_eq!(ReducePass::Down.to_string(), "down");
    }
}
