//! The push-based pipelined executor — the one executor every plan
//! runs on.
//!
//! A [`PhysPlan`] is compiled into **pipelines**: maximal
//! scan → filter → probe → project spines that fuse into a single
//! closure-chain pass over morsels with *no intermediate `Vec<Tuple>`
//! between fused operators*. A probe-side row travels the whole spine
//! as a stack of borrowed **fragments** (`Vec<&Tuple>`: the source row,
//! then one matched build row or null pad per wide join); residuals are
//! evaluated on the virtual concatenation
//! ([`BoundPred::eval_parts`]) and the wide output tuple is allocated
//! exactly once, at the sink. Hash-join build sides that are bare
//! scans are read zero-copy straight out of [`Storage`], their key
//! hashes computed off the table's columnar mirror — a fully fused plan
//! therefore reports `rows_materialized = 0`. When the source is a base
//! table, the leading filters run as vectorized kernels over its
//! columns (zone metadata skipping whole morsels where it can). Rows of
//! intermediates go through the row-at-a-time kernels.
//!
//! **Pipeline breakers** — hash-join build sides that are themselves
//! plans, `GroupCount`, merge joins (sort barrier), full outerjoins
//! (their unmatched-side epilogue needs the whole probe result), `Goj`,
//! and mid-spine projections — run the radix-partitioned
//! morsel-parallel kernels of [`crate::engine`]: the compiler cuts the
//! spine at each breaker, executes the breaker's pipelines first (build
//! before probe), and the materialized result becomes the next
//! pipeline's source.
//!
//! Rows, row order and every counter are identical at every thread
//! count, morsel size and partition count; `rows_materialized` counts
//! breaker results alone, and `rows_pipelined` / `pipelines` count the
//! flow that never touched an intermediate buffer. Per-node output
//! counts (`slots`) are the only source of `explain_analyze`'s
//! `(rows=N)` lines. The executor suites (one harness, `tests/harness`)
//! check all of it against the `fro-algebra` reference evaluator.

use crate::config::ExecConfig;
use crate::engine::{
    bind_pred, dedup_rows, drive_morsels, group_count_partitioned, hash_full_outerjoin, merge_join,
    nl_full_outerjoin, resolve_cols, ExecError, JoinTable,
};
use crate::plan::{JoinKind, PhysPlan};
use crate::stats::ExecStats;
use crate::storage::Storage;
use fro_algebra::ops::BoundPred;
use fro_algebra::{AlgebraError, Attr, Bitmap, ColumnSet, Relation, Schema, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Immutable per-run context.
struct Cx<'s> {
    storage: &'s Storage,
    cfg: &'s ExecConfig,
}

/// Mutable per-run state: counters, per-plan-node output-row slots
/// (pre-order indexed, for `explain_analyze`), and the pipeline trace.
struct Rs<'a> {
    stats: &'a mut ExecStats,
    slots: &'a mut [u64],
    trace: &'a mut Vec<String>,
}

/// Number of plan nodes, counted exactly as the explain walk does
/// (an `IndexJoin`'s inner table is not a node).
fn n_nodes(plan: &PhysPlan) -> usize {
    1 + plan.children().map(n_nodes).sum::<usize>()
}

/// The node label `explain_analyze` prints.
fn label_of(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { rel } => format!("Scan {rel}"),
        PhysPlan::Filter { pred, .. } => format!("Filter [{pred}]"),
        PhysPlan::Project { .. } => "Project".to_owned(),
        PhysPlan::HashJoin { kind, .. } => format!("HashJoin({kind})"),
        PhysPlan::IndexJoin { kind, inner, .. } => format!("IndexJoin({kind}) {inner}"),
        PhysPlan::MergeJoin { kind, .. } => format!("MergeJoin({kind})"),
        PhysPlan::NlJoin { kind, .. } => format!("NlJoin({kind})"),
        PhysPlan::GroupCount { .. } => "GroupCount".to_owned(),
        PhysPlan::SemiReduce { pass, .. } => format!("SemiReduce({pass})"),
        PhysPlan::Goj { .. } => "Goj".to_owned(),
    }
}

/// Pre-order `(depth, label)` walk — the order of the slot counts, so
/// zipping the two gives the report's per-node lines.
fn collect_lines(plan: &PhysPlan, depth: usize, lines: &mut Vec<(usize, String)>) {
    lines.push((depth, label_of(plan)));
    for child in plan.children() {
        collect_lines(child, depth + 1, lines);
    }
}

/// Execute `plan` with the pipelined engine. Entry point for
/// [`crate::execute_with`]; the caller sets `rows_output`.
pub(crate) fn run_pipelined(
    plan: &PhysPlan,
    storage: &Storage,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
) -> Result<Relation, ExecError> {
    let mut slots = vec![0u64; n_nodes(plan)];
    let mut trace = Vec::new();
    let cx = Cx { storage, cfg };
    let mut rs = Rs {
        stats,
        slots: &mut slots,
        trace: &mut trace,
    };
    exec_region(plan, 0, &cx, &mut rs)
}

/// Execute `plan` and render the `EXPLAIN ANALYZE` report: per-node
/// row counts, the counter totals, the per-partition hash-join
/// breakdown (when a hash join ran), then the pipeline breakdown (which
/// operators fused into each pipeline, and where breakers cut the
/// plan).
pub(crate) fn explain_pipelined(
    plan: &PhysPlan,
    storage: &Storage,
    cfg: &ExecConfig,
) -> Result<(Relation, String), ExecError> {
    let mut stats = ExecStats::new();
    let mut slots = vec![0u64; n_nodes(plan)];
    let mut trace = Vec::new();
    let cx = Cx { storage, cfg };
    let rel = {
        let mut rs = Rs {
            stats: &mut stats,
            slots: &mut slots,
            trace: &mut trace,
        };
        exec_region(plan, 0, &cx, &mut rs)?
    };
    stats.rows_output = rel.len() as u64;
    let mut labels = Vec::new();
    collect_lines(plan, 0, &mut labels);
    let mut out = String::new();
    for ((depth, label), rows) in labels.iter().zip(&slots) {
        out.push_str(&"  ".repeat(*depth));
        out.push_str(label);
        out.push_str(&format!("  (rows={rows})\n"));
    }
    out.push_str(&format!("totals: {stats}\n"));
    // The partition breakdown changes shape with the partition count,
    // which is exactly what it is for.
    if stats.partition.used() > 0 {
        out.push_str(&format!(
            "partitions: P={} build={:?} probe={:?}\n",
            stats.partition.used(),
            stats.partition.build_rows(),
            stats.partition.probe_rows()
        ));
    }
    out.push_str(&format!(
        "pipelines: {} (rows pipelined={}, rows materialized={})\n",
        stats.pipelines, stats.rows_pipelined, stats.rows_materialized
    ));
    for t in &trace {
        out.push_str("  ");
        out.push_str(t);
        out.push('\n');
    }
    Ok((rel, out))
}

/// Execute a plan subtree rooted at pre-order slot `base` and return
/// its (region-root) result. Dispatches between the streaming spine
/// compiler and the breaker operators.
fn exec_region(
    plan: &PhysPlan,
    base: usize,
    cx: &Cx<'_>,
    rs: &mut Rs<'_>,
) -> Result<Relation, ExecError> {
    match plan {
        PhysPlan::MergeJoin { .. }
        | PhysPlan::GroupCount { .. }
        | PhysPlan::Goj { .. }
        | PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            ..
        }
        | PhysPlan::NlJoin {
            kind: JoinKind::FullOuter,
            ..
        } => exec_breaker(plan, base, cx, rs),
        _ => exec_stream(plan, base, cx, rs),
    }
}

/// Execute a subtree whose result feeds a parent as a materialized
/// intermediate: same as [`exec_region`] plus the `rows_materialized`
/// tick (the pipelined engine counts *only* these buffers).
fn exec_inter(
    plan: &PhysPlan,
    base: usize,
    cx: &Cx<'_>,
    rs: &mut Rs<'_>,
) -> Result<Relation, ExecError> {
    let rel = exec_region(plan, base, cx, rs)?;
    rs.stats.rows_materialized += rel.len() as u64;
    Ok(rel)
}

/// Pipeline-breaker nodes: execute the operand subtrees into
/// materialized relations, then run the engine's deterministic
/// morsel-parallel kernel.
fn exec_breaker(
    plan: &PhysPlan,
    base: usize,
    cx: &Cx<'_>,
    rs: &mut Rs<'_>,
) -> Result<Relation, ExecError> {
    let out = match plan {
        PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } => {
            if probe_keys.len() != build_keys.len() || probe_keys.is_empty() {
                return Err(ExecError::KeyArityMismatch);
            }
            let p = exec_inter(probe, base + 1, cx, rs)?;
            let b = exec_inter(build, base + 1 + n_nodes(probe), cx, rs)?;
            rs.trace
                .push(format!("breaker: {} (materialized inputs)", label_of(plan)));
            hash_full_outerjoin(
                &p,
                &b,
                probe_keys,
                build_keys,
                residual,
                Some(cx.storage.interner()),
                rs.stats,
                cx.cfg,
            )?
        }
        PhysPlan::NlJoin {
            kind: JoinKind::FullOuter,
            left,
            right,
            pred,
        } => {
            let l = exec_inter(left, base + 1, cx, rs)?;
            let r = exec_inter(right, base + 1 + n_nodes(left), cx, rs)?;
            rs.trace
                .push(format!("breaker: {} (materialized inputs)", label_of(plan)));
            nl_full_outerjoin(&l, &r, pred, Some(cx.storage.interner()), rs.stats, cx.cfg)?
        }
        PhysPlan::MergeJoin {
            kind,
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            if left_keys.len() != right_keys.len() || left_keys.is_empty() {
                return Err(ExecError::KeyArityMismatch);
            }
            let l = exec_inter(left, base + 1, cx, rs)?;
            let r = exec_inter(right, base + 1 + n_nodes(left), cx, rs)?;
            rs.trace
                .push(format!("breaker: {} (materialized inputs)", label_of(plan)));
            merge_join(
                *kind,
                &l,
                &r,
                left_keys,
                right_keys,
                residual,
                Some(cx.storage.interner()),
                rs.stats,
            )?
        }
        PhysPlan::GroupCount {
            input,
            group_attrs,
            counted,
        } => {
            let rel = exec_inter(input, base + 1, cx, rs)?;
            rs.trace
                .push(format!("breaker: {} (materialized input)", label_of(plan)));
            group_count_partitioned(&rel, group_attrs, counted.as_ref(), cx.cfg)?
        }
        PhysPlan::Goj {
            left,
            right,
            pred,
            subset,
        } => {
            let l = exec_inter(left, base + 1, cx, rs)?;
            let r = exec_inter(right, base + 1 + n_nodes(left), cx, rs)?;
            rs.stats.comparisons += (l.len() * r.len()) as u64;
            rs.trace
                .push(format!("breaker: {} (materialized inputs)", label_of(plan)));
            fro_algebra::ops::goj(&l, &r, pred, subset).map_err(ExecError::from)?
        }
        _ => unreachable!("exec_breaker only receives breaker nodes"),
    };
    rs.slots[base] += out.len() as u64;
    Ok(out)
}

/// Where a probe stage's non-spine operand rows come from: zero-copy
/// out of storage (bare-scan build/right sides), or from a
/// materialized breaker result held in the region arena.
enum RowsSrc<'s> {
    Storage(&'s [Tuple]),
    Arena(usize),
}

/// One fused operator of a compiled spine, bottom-up order. `slot` is
/// the operator's pre-order explain slot; `key_map` entries are
/// `(fragment index, column within fragment)` resolved from the global
/// concatenated-scheme offsets.
enum StageSpec<'s> {
    Filter {
        pred: BoundPred,
        slot: usize,
    },
    HashProbe {
        kind: JoinKind,
        table_idx: usize,
        key_map: Vec<(u32, u32)>,
        build_cols: Vec<usize>,
        residual: BoundPred,
        pad: Tuple,
        slot: usize,
    },
    IndexProbe {
        kind: JoinKind,
        index: &'s crate::index::HashIndex,
        inner_rows: &'s [Tuple],
        key_map: Vec<(u32, u32)>,
        residual: BoundPred,
        pad: Tuple,
        slot: usize,
    },
    NlProbe {
        kind: JoinKind,
        side_idx: usize,
        residual: BoundPred,
        pad: Tuple,
        slot: usize,
    },
    /// Semijoin-reduction membership probe: pass the fragment chain
    /// through unchanged iff its key has a partner in the source's
    /// hash table. No residual, no pad, no schema growth.
    Reduce {
        table_idx: usize,
        key_map: Vec<(u32, u32)>,
        source_cols: Vec<usize>,
        slot: usize,
    },
}

/// The sink at the top of a spine.
enum Tail {
    /// Concatenate the fragments into the wide output tuple.
    Collect { width: usize },
    /// Fused root projection: emit only the mapped columns (dedup
    /// happens once, after the drive).
    Project { map: Vec<(u32, u32)>, slot: usize },
}

/// Map a global column offset of the spine's concatenated scheme to
/// `(fragment, column)` given the fragment widths.
fn map_col(widths: &[usize], mut col: usize) -> (u32, u32) {
    for (i, &w) in widths.iter().enumerate() {
        if col < w {
            #[allow(clippy::cast_possible_truncation)]
            return (i as u32, col as u32);
        }
        col -= w;
    }
    unreachable!("column offset past the end of the fragment chain")
}

/// Key hash over fragment-mapped columns — the same values, hashed in
/// the same order, as [`crate::engine`]'s `hash_key` over the
/// materialized wide row, hence the same partition and bucket.
/// `None` when any key value is null.
fn hash_parts(parts: &[&Tuple], key_map: &[(u32, u32)]) -> Option<u64> {
    let mut h = DefaultHasher::new();
    for &(p, c) in key_map {
        let v = parts[p as usize].get(c as usize);
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Column-wise key equality between the fragment chain and a build row.
fn keys_eq_parts(parts: &[&Tuple], key_map: &[(u32, u32)], brow: &Tuple, bcols: &[usize]) -> bool {
    key_map
        .iter()
        .zip(bcols)
        .all(|(&(p, c), &bc)| parts[p as usize].get(c as usize) == brow.get(bc))
}

/// Fill `out` with the fragment-mapped key columns; `false` (and a
/// cleared buffer) when any value is null — SQL equality never matches
/// on null.
fn key_into_parts(parts: &[&Tuple], key_map: &[(u32, u32)], out: &mut Vec<Value>) -> bool {
    out.clear();
    for &(p, c) in key_map {
        let v = parts[p as usize].get(c as usize);
        if v.is_null() {
            out.clear();
            return false;
        }
        out.push(v.clone());
    }
    true
}

/// Compile the maximal streaming spine rooted at `plan` and drive it.
///
/// The walk peels an optional root `Project` as the fused sink, then
/// descends through `Filter`, non-full-outer `HashJoin` (probe side),
/// `IndexJoin` (outer side) and non-full-outer `NlJoin` (left side)
/// until it reaches a `Scan` (the pipeline source) or any other node —
/// a breaker, executed recursively into the region arena.
#[allow(clippy::too_many_lines)]
fn exec_stream(
    plan: &PhysPlan,
    base: usize,
    cx: &Cx<'_>,
    rs: &mut Rs<'_>,
) -> Result<Relation, ExecError> {
    // --- Walk: top-down spine discovery (arity checks run before any
    // child executes, topmost first).
    let mut tail_attrs: Option<(&[Attr], usize)> = None;
    let mut node = plan;
    let mut slot = base;
    if let PhysPlan::Project { input, attrs } = node {
        tail_attrs = Some((attrs, slot));
        node = input;
        slot += 1;
    }
    let mut chain: Vec<(&PhysPlan, usize)> = Vec::new();
    loop {
        match node {
            PhysPlan::Filter { input, .. } => {
                chain.push((node, slot));
                node = input;
                slot += 1;
            }
            PhysPlan::HashJoin {
                kind,
                probe,
                probe_keys,
                build_keys,
                ..
            } if *kind != JoinKind::FullOuter => {
                if probe_keys.len() != build_keys.len() || probe_keys.is_empty() {
                    return Err(ExecError::KeyArityMismatch);
                }
                chain.push((node, slot));
                node = probe;
                slot += 1;
            }
            PhysPlan::SemiReduce {
                input,
                input_keys,
                source_keys,
                ..
            } => {
                if input_keys.len() != source_keys.len() || input_keys.is_empty() {
                    return Err(ExecError::KeyArityMismatch);
                }
                chain.push((node, slot));
                node = input;
                slot += 1;
            }
            PhysPlan::IndexJoin {
                kind,
                outer,
                outer_keys,
                inner_keys,
                ..
            } => {
                if *kind == JoinKind::FullOuter {
                    return Err(ExecError::Algebra(AlgebraError::BadUnion(
                        "index join cannot implement a full outerjoin (unmatched inner rows are unreachable)"
                            .into(),
                    )));
                }
                if outer_keys.len() != inner_keys.len() || outer_keys.is_empty() {
                    return Err(ExecError::KeyArityMismatch);
                }
                chain.push((node, slot));
                node = outer;
                slot += 1;
            }
            PhysPlan::NlJoin { kind, left, .. } if *kind != JoinKind::FullOuter => {
                chain.push((node, slot));
                node = left;
                slot += 1;
            }
            _ => break,
        }
    }
    let (src_plan, src_slot) = (node, slot);

    // --- Compile, bottom-up: resolve the source, then each stage
    // against the running concatenated scheme. Breaker operands are
    // executed here (build pipelines run before their probe pipeline)
    // and parked in the arena.
    let mut arena: Vec<Relation> = Vec::new();
    let mut desc = String::from("pipeline: ");

    // Columnar mirror of the pipeline source (base-table scans only):
    // lets the drive below evaluate leading filters as vectorized
    // kernels instead of per-row predicate calls.
    let mut src_cols: Option<&ColumnSet> = None;
    let (src, src_schema): (RowsSrc<'_>, Arc<Schema>) = match src_plan {
        PhysPlan::Scan { rel } => {
            let t = cx.storage.lookup_named(rel)?;
            rs.stats.tuples_retrieved += t.len() as u64;
            rs.stats.rows_pipelined += t.len() as u64;
            rs.slots[src_slot] += t.len() as u64;
            desc.push_str(&format!("Scan {rel}"));
            src_cols = Some(t.columns());
            (
                RowsSrc::Storage(t.relation().rows()),
                t.relation().schema().clone(),
            )
        }
        breaker => {
            let rel = exec_inter(breaker, src_slot, cx, rs)?;
            rs.stats.rows_pipelined += rel.len() as u64;
            desc.push_str(&format!("[{}]", label_of(breaker)));
            let schema = rel.schema().clone();
            arena.push(rel);
            (RowsSrc::Arena(arena.len() - 1), schema)
        }
    };

    let mut widths: Vec<usize> = vec![src_schema.len()];
    let mut cur_schema = src_schema;
    let mut specs: Vec<StageSpec<'_>> = Vec::new();
    // Non-spine operand rows (hash build sides, NL right sides) in
    // stage order; arena-backed entries are resolved after the arena
    // freezes. `side_cols` carries the columnar mirror of each side
    // that is a base-table scan (hash builds hash those columns
    // directly).
    let mut sides: Vec<RowsSrc<'_>> = Vec::new();
    let mut side_cols: Vec<Option<&ColumnSet>> = Vec::new();
    // Partition count + side index per hash stage, for the table
    // builds below.
    let mut hash_builds: Vec<(usize, usize)> = Vec::new(); // (side_idx, partitions)

    for &(stage_plan, stage_slot) in chain.iter().rev() {
        match stage_plan {
            PhysPlan::Filter { pred, .. } => {
                let bound = bind_pred(pred, &cur_schema, Some(cx.storage.interner()))?;
                specs.push(StageSpec::Filter {
                    pred: bound,
                    slot: stage_slot,
                });
                desc.push_str(" -> Filter");
            }
            PhysPlan::HashJoin {
                kind,
                probe,
                build,
                probe_keys,
                build_keys,
                residual,
            } => {
                // Resolve the build operand first: child errors surface
                // before key-resolution errors.
                let build_slot = stage_slot + 1 + n_nodes(probe);
                let (build_len, build_schema, side, bcols) = match build.as_ref() {
                    PhysPlan::Scan { rel } => {
                        let t = cx.storage.lookup_named(rel)?;
                        rs.stats.tuples_retrieved += t.len() as u64;
                        rs.stats.rows_pipelined += t.len() as u64;
                        rs.slots[build_slot] += t.len() as u64;
                        desc.push_str(&format!(" -> HashJoin({kind}, build=Scan {rel})"));
                        (
                            t.len(),
                            t.relation().schema().clone(),
                            RowsSrc::Storage(t.relation().rows()),
                            Some(t.columns()),
                        )
                    }
                    other => {
                        let rel = exec_inter(other, build_slot, cx, rs)?;
                        desc.push_str(&format!(" -> HashJoin({kind}, build=materialized)"));
                        let schema = rel.schema().clone();
                        let len = rel.len();
                        arena.push(rel);
                        (len, schema, RowsSrc::Arena(arena.len() - 1), None)
                    }
                };
                let probe_cols = resolve_cols(&cur_schema, probe_keys)?;
                let build_cols = resolve_cols(&build_schema, build_keys)?;
                let concat = Arc::new(cur_schema.concat(&build_schema)?);
                let residual_bound = bind_pred(residual, &concat, Some(cx.storage.interner()))?;
                let key_map = probe_cols.iter().map(|&c| map_col(&widths, c)).collect();
                let p = cx.cfg.effective_partitions(build_len);
                sides.push(side);
                side_cols.push(bcols);
                hash_builds.push((sides.len() - 1, p));
                specs.push(StageSpec::HashProbe {
                    kind: *kind,
                    table_idx: hash_builds.len() - 1,
                    key_map,
                    build_cols,
                    residual: residual_bound,
                    pad: Tuple::nulls(build_schema.len()),
                    slot: stage_slot,
                });
                if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                    widths.push(build_schema.len());
                    cur_schema = concat;
                }
            }
            PhysPlan::SemiReduce {
                input,
                source,
                input_keys,
                source_keys,
                pass,
            } => {
                // Resolve the source operand exactly like a hash-join
                // build side: zero-copy out of storage when it is a
                // bare scan, else a materialized arena entry.
                let source_slot = stage_slot + 1 + n_nodes(input);
                let (source_len, source_schema, side, scols) = match source.as_ref() {
                    PhysPlan::Scan { rel } => {
                        let t = cx.storage.lookup_named(rel)?;
                        rs.stats.tuples_retrieved += t.len() as u64;
                        rs.stats.rows_pipelined += t.len() as u64;
                        rs.slots[source_slot] += t.len() as u64;
                        desc.push_str(&format!(" -> SemiReduce({pass}, src=Scan {rel})"));
                        (
                            t.len(),
                            t.relation().schema().clone(),
                            RowsSrc::Storage(t.relation().rows()),
                            Some(t.columns()),
                        )
                    }
                    other => {
                        let rel = exec_inter(other, source_slot, cx, rs)?;
                        desc.push_str(&format!(" -> SemiReduce({pass}, src=materialized)"));
                        let schema = rel.schema().clone();
                        let len = rel.len();
                        arena.push(rel);
                        (len, schema, RowsSrc::Arena(arena.len() - 1), None)
                    }
                };
                let input_cols = resolve_cols(&cur_schema, input_keys)?;
                let source_cols = resolve_cols(&source_schema, source_keys)?;
                let key_map = input_cols.iter().map(|&c| map_col(&widths, c)).collect();
                let p = cx.cfg.effective_partitions(source_len);
                sides.push(side);
                side_cols.push(scols);
                hash_builds.push((sides.len() - 1, p));
                // One reduction pass per compiled stage — ticked here,
                // on the main thread, so the count is deterministic at
                // every thread count (workers merge fresh stats).
                rs.stats.reducer_passes += 1;
                specs.push(StageSpec::Reduce {
                    table_idx: hash_builds.len() - 1,
                    key_map,
                    source_cols,
                    slot: stage_slot,
                });
            }
            PhysPlan::IndexJoin {
                kind,
                inner,
                outer_keys,
                inner_keys,
                residual,
                ..
            } => {
                let inner_table = cx.storage.lookup_named(inner)?;
                let inner_rel = inner_table.relation();
                let mut inner_cols = resolve_cols(inner_rel.schema(), inner_keys)?;
                let mut outer_cols = resolve_cols(&cur_schema, outer_keys)?;
                // The index stores sorted key columns; align the outer
                // key order with it.
                let mut pairs: Vec<(usize, usize)> = inner_cols
                    .iter()
                    .copied()
                    .zip(outer_cols.iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|&(ic, _)| ic);
                inner_cols = pairs.iter().map(|&(ic, _)| ic).collect();
                outer_cols = pairs.iter().map(|&(_, oc)| oc).collect();
                let index =
                    inner_table
                        .index_on(&inner_cols)
                        .ok_or_else(|| ExecError::MissingIndex {
                            table: inner.clone(),
                            attrs: inner_keys
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(","),
                        })?;
                let concat = Arc::new(cur_schema.concat(inner_rel.schema())?);
                let residual_bound = bind_pred(residual, &concat, Some(cx.storage.interner()))?;
                let key_map = outer_cols.iter().map(|&c| map_col(&widths, c)).collect();
                specs.push(StageSpec::IndexProbe {
                    kind: *kind,
                    index,
                    inner_rows: inner_rel.rows(),
                    key_map,
                    residual: residual_bound,
                    pad: Tuple::nulls(inner_rel.schema().len()),
                    slot: stage_slot,
                });
                desc.push_str(&format!(" -> IndexJoin({kind}) {inner}"));
                if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                    widths.push(inner_rel.schema().len());
                    cur_schema = concat;
                }
            }
            PhysPlan::NlJoin {
                kind,
                left,
                right,
                pred,
            } => {
                let right_slot = stage_slot + 1 + n_nodes(left);
                let (right_schema, side) = match right.as_ref() {
                    PhysPlan::Scan { rel } => {
                        let t = cx.storage.lookup_named(rel)?;
                        rs.stats.tuples_retrieved += t.len() as u64;
                        rs.stats.rows_pipelined += t.len() as u64;
                        rs.slots[right_slot] += t.len() as u64;
                        desc.push_str(&format!(" -> NlJoin({kind}, right=Scan {rel})"));
                        (
                            t.relation().schema().clone(),
                            RowsSrc::Storage(t.relation().rows()),
                        )
                    }
                    other => {
                        let rel = exec_inter(other, right_slot, cx, rs)?;
                        desc.push_str(&format!(" -> NlJoin({kind}, right=materialized)"));
                        let schema = rel.schema().clone();
                        arena.push(rel);
                        (schema, RowsSrc::Arena(arena.len() - 1))
                    }
                };
                let concat = Arc::new(cur_schema.concat(&right_schema)?);
                let bound = bind_pred(pred, &concat, Some(cx.storage.interner()))?;
                sides.push(side);
                side_cols.push(None);
                specs.push(StageSpec::NlProbe {
                    kind: *kind,
                    side_idx: sides.len() - 1,
                    residual: bound,
                    pad: Tuple::nulls(right_schema.len()),
                    slot: stage_slot,
                });
                if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                    widths.push(right_schema.len());
                    cur_schema = concat;
                }
            }
            _ => unreachable!("spine walk only collects fusable stages"),
        }
    }

    // --- Sink: fused root projection, or plain collection.
    let (tail, out_schema) = match tail_attrs {
        None => (
            Tail::Collect {
                width: cur_schema.len(),
            },
            cur_schema.clone(),
        ),
        Some((attrs, proj_slot)) => {
            // Resolve exactly as `ops::project`, error surface included.
            let mut cols = Vec::with_capacity(attrs.len());
            for a in attrs {
                cols.push(
                    cur_schema
                        .index_of(a)
                        .ok_or_else(|| AlgebraError::BadProjection(a.to_string()))
                        .map_err(ExecError::from)?,
                );
            }
            let schema = Arc::new(Schema::new(attrs.to_vec()).map_err(ExecError::from)?);
            let map = cols.iter().map(|&c| map_col(&widths, c)).collect();
            desc.push_str(" -> Project");
            (
                Tail::Project {
                    map,
                    slot: proj_slot,
                },
                schema,
            )
        }
    };
    if matches!(tail, Tail::Collect { .. }) {
        desc.push_str(" -> out");
    }

    rs.stats.pipelines += 1;
    rs.trace.push(desc);

    // Bare-scan pipeline: the sink would clone every row anyway, so
    // clone the table relation wholesale (identical result, one
    // allocation).
    if specs.is_empty() {
        if let (RowsSrc::Storage(_), Tail::Collect { .. }, PhysPlan::Scan { .. }) =
            (&src, &tail, src_plan)
        {
            let t = cx.storage.lookup_named(match src_plan {
                PhysPlan::Scan { rel } => rel,
                _ => unreachable!(),
            })?;
            return Ok(t.relation().clone());
        }
    }

    // --- Freeze the arena, resolve operand rows, build hash tables.
    let arena = arena;
    let specs = specs;
    let side_rows: Vec<&[Tuple]> = sides
        .iter()
        .map(|s| match s {
            RowsSrc::Storage(rows) => *rows,
            RowsSrc::Arena(i) => arena[*i].rows(),
        })
        .collect();
    let mut tables: Vec<JoinTable<'_>> = Vec::with_capacity(hash_builds.len());
    for spec in &specs {
        if let StageSpec::HashProbe {
            table_idx,
            build_cols,
            ..
        }
        | StageSpec::Reduce {
            table_idx,
            source_cols: build_cols,
            ..
        } = spec
        {
            let (side_idx, p) = hash_builds[*table_idx];
            tables.push(JoinTable::build(
                side_rows[side_idx],
                build_cols,
                p,
                cx.cfg,
                rs.stats,
                side_cols[side_idx],
            ));
        }
    }
    let src_rows: &[Tuple] = match &src {
        RowsSrc::Storage(rows) => rows,
        RowsSrc::Arena(i) => arena[*i].rows(),
    };

    // --- Columnar filter hoist: when the source is a base-table scan,
    // the leading run of Filter stages is evaluated as vectorized
    // kernels over the table's columns (they are bound against the
    // scan schema — no join fragment exists yet), producing one
    // selection bitmap the drive consumes. Every counter is derived
    // from bitmap popcounts exactly as the per-row path ticks it: a
    // filter is "evaluated" once per row that survived the filters
    // below it, and passes exactly the rows where its mask is
    // definitely true — so counters, rows, and order are bit-identical.
    let mut hoisted = 0usize;
    let mut sel: Option<Bitmap> = None;
    if let Some(cols) = src_cols {
        let mut skipped = 0u64;
        for spec in &specs {
            let StageSpec::Filter { pred, slot } = spec else {
                break;
            };
            let reaching = sel.as_ref().map_or(src_rows.len(), Bitmap::count_ones);
            let mut mask = cols.eval_pred(pred, &mut skipped).into_trues();
            if let Some(prev) = &sel {
                mask.and_assign(prev);
            }
            let passing = mask.count_ones();
            rs.stats.comparisons += reaching as u64;
            rs.stats.rows_pipelined += passing as u64;
            rs.slots[*slot] += passing as u64;
            sel = Some(mask);
            hoisted += 1;
        }
        rs.stats.morsels_skipped += skipped;
    }

    // --- Drive: push every (selected) source row through the fused
    // stage chain, entering above any hoisted filters.
    let mut out_rows: Vec<Tuple> = Vec::new();
    let depth = widths.len() + 1;
    drive_morsels(
        src_rows.len(),
        cx.cfg,
        rs.stats,
        rs.slots,
        &mut out_rows,
        |range, buf, st, sl| {
            let mut parts: Vec<&Tuple> = Vec::with_capacity(depth);
            let mut scratch: Vec<Vec<Value>> = vec![Vec::new(); specs.len()];
            match &sel {
                Some(mask) => mask.for_each_one_in(range.start, range.end, |i| {
                    parts.clear();
                    parts.push(&src_rows[i]);
                    push_row(
                        &specs,
                        &side_rows,
                        &tables,
                        &tail,
                        hoisted,
                        &mut parts,
                        &mut scratch,
                        buf,
                        st,
                        sl,
                    );
                }),
                None => {
                    for row in &src_rows[range] {
                        parts.clear();
                        parts.push(row);
                        push_row(
                            &specs,
                            &side_rows,
                            &tables,
                            &tail,
                            0,
                            &mut parts,
                            &mut scratch,
                            buf,
                            st,
                            sl,
                        );
                    }
                }
            }
        },
    );

    // A fused projection dedups once, after the drive — first
    // occurrence wins, which is exactly `ops::project`'s output order
    // over the same input materialized.
    if let Tail::Project { slot, .. } = &tail {
        dedup_rows(&mut out_rows);
        rs.slots[*slot] += out_rows.len() as u64;
        rs.stats.rows_pipelined += out_rows.len() as u64;
    }

    Ok(Relation::from_distinct_rows(out_schema, out_rows))
}

/// One row's journey through the fused stages above `idx`. Each probe
/// stage emits candidates in build-row order, ticks `comparisons` only
/// on exact-key candidates, and emits the pad (left outer) or the probe
/// row (anti) when nothing matched.
#[allow(clippy::too_many_arguments)]
fn push_row<'a>(
    specs: &'a [StageSpec<'a>],
    side_rows: &[&'a [Tuple]],
    tables: &'a [JoinTable<'a>],
    tail: &Tail,
    idx: usize,
    parts: &mut Vec<&'a Tuple>,
    scratch: &mut [Vec<Value>],
    buf: &mut Vec<Tuple>,
    st: &mut ExecStats,
    slots: &mut [u64],
) {
    let Some(spec) = specs.get(idx) else {
        buf.push(emit(tail, parts));
        return;
    };
    match spec {
        StageSpec::Filter { pred, slot } => {
            st.comparisons += 1;
            if pred.eval_parts(parts).is_true() {
                slots[*slot] += 1;
                st.rows_pipelined += 1;
                push_row(
                    specs,
                    side_rows,
                    tables,
                    tail,
                    idx + 1,
                    parts,
                    scratch,
                    buf,
                    st,
                    slots,
                );
            }
        }
        StageSpec::HashProbe {
            kind,
            table_idx,
            key_map,
            build_cols,
            residual,
            pad,
            slot,
        } => {
            let table = &tables[*table_idx];
            let h = hash_parts(parts, key_map);
            if let Some(h) = h {
                st.partition.add_probe(table.partition_index(h));
            }
            let mut matched = false;
            for &rid in table.bucket(h) {
                let brow = table.row(rid);
                if !keys_eq_parts(parts, key_map, brow, build_cols) {
                    continue;
                }
                st.comparisons += 1;
                parts.push(brow);
                let ok = residual.eval_parts(parts).is_true();
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        if ok {
                            matched = true;
                            slots[*slot] += 1;
                            st.rows_pipelined += 1;
                            push_row(
                                specs,
                                side_rows,
                                tables,
                                tail,
                                idx + 1,
                                parts,
                                scratch,
                                buf,
                                st,
                                slots,
                            );
                        }
                        parts.pop();
                    }
                    JoinKind::Semi => {
                        parts.pop();
                        if ok {
                            matched = true;
                            slots[*slot] += 1;
                            st.rows_pipelined += 1;
                            push_row(
                                specs,
                                side_rows,
                                tables,
                                tail,
                                idx + 1,
                                parts,
                                scratch,
                                buf,
                                st,
                                slots,
                            );
                            break;
                        }
                    }
                    JoinKind::Anti => {
                        parts.pop();
                        if ok {
                            matched = true;
                            break;
                        }
                    }
                    JoinKind::FullOuter => unreachable!("full outerjoins are breakers"),
                }
            }
            if !matched {
                match kind {
                    JoinKind::LeftOuter => {
                        slots[*slot] += 1;
                        st.rows_pipelined += 1;
                        parts.push(pad);
                        push_row(
                            specs,
                            side_rows,
                            tables,
                            tail,
                            idx + 1,
                            parts,
                            scratch,
                            buf,
                            st,
                            slots,
                        );
                        parts.pop();
                    }
                    JoinKind::Anti => {
                        slots[*slot] += 1;
                        st.rows_pipelined += 1;
                        push_row(
                            specs,
                            side_rows,
                            tables,
                            tail,
                            idx + 1,
                            parts,
                            scratch,
                            buf,
                            st,
                            slots,
                        );
                    }
                    _ => {}
                }
            }
        }
        StageSpec::IndexProbe {
            kind,
            index,
            inner_rows,
            key_map,
            residual,
            pad,
            slot,
        } => {
            st.index_probes += 1;
            let mut key = std::mem::take(&mut scratch[idx]);
            let rids: &[usize] = if key_into_parts(parts, key_map, &mut key) {
                index.lookup(&key)
            } else {
                &[]
            };
            st.tuples_retrieved += rids.len() as u64;
            let mut matched = false;
            for &rid in rids {
                let irow = &inner_rows[rid];
                st.comparisons += 1;
                parts.push(irow);
                let ok = residual.eval_parts(parts).is_true();
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        if ok {
                            matched = true;
                            slots[*slot] += 1;
                            st.rows_pipelined += 1;
                            push_row(
                                specs,
                                side_rows,
                                tables,
                                tail,
                                idx + 1,
                                parts,
                                scratch,
                                buf,
                                st,
                                slots,
                            );
                        }
                        parts.pop();
                    }
                    JoinKind::Semi => {
                        parts.pop();
                        if ok {
                            matched = true;
                            slots[*slot] += 1;
                            st.rows_pipelined += 1;
                            push_row(
                                specs,
                                side_rows,
                                tables,
                                tail,
                                idx + 1,
                                parts,
                                scratch,
                                buf,
                                st,
                                slots,
                            );
                            break;
                        }
                    }
                    JoinKind::Anti => {
                        parts.pop();
                        if ok {
                            matched = true;
                            break;
                        }
                    }
                    JoinKind::FullOuter => unreachable!("rejected at compile"),
                }
            }
            if !matched {
                match kind {
                    JoinKind::LeftOuter => {
                        slots[*slot] += 1;
                        st.rows_pipelined += 1;
                        parts.push(pad);
                        push_row(
                            specs,
                            side_rows,
                            tables,
                            tail,
                            idx + 1,
                            parts,
                            scratch,
                            buf,
                            st,
                            slots,
                        );
                        parts.pop();
                    }
                    JoinKind::Anti => {
                        slots[*slot] += 1;
                        st.rows_pipelined += 1;
                        push_row(
                            specs,
                            side_rows,
                            tables,
                            tail,
                            idx + 1,
                            parts,
                            scratch,
                            buf,
                            st,
                            slots,
                        );
                    }
                    _ => {}
                }
            }
            scratch[idx] = key;
        }
        StageSpec::Reduce {
            table_idx,
            key_map,
            source_cols,
            slot,
        } => {
            let table = &tables[*table_idx];
            let h = hash_parts(parts, key_map);
            if let Some(h) = h {
                st.partition.add_probe(table.partition_index(h));
            }
            let mut matched = false;
            for &rid in table.bucket(h) {
                let brow = table.row(rid);
                if !keys_eq_parts(parts, key_map, brow, source_cols) {
                    continue;
                }
                st.comparisons += 1;
                matched = true;
                break;
            }
            if matched {
                slots[*slot] += 1;
                st.rows_pipelined += 1;
                push_row(
                    specs,
                    side_rows,
                    tables,
                    tail,
                    idx + 1,
                    parts,
                    scratch,
                    buf,
                    st,
                    slots,
                );
            } else {
                st.rows_reduced += 1;
            }
        }
        StageSpec::NlProbe {
            kind,
            side_idx,
            residual,
            pad,
            slot,
        } => {
            let mut matched = false;
            for brow in side_rows[*side_idx] {
                st.comparisons += 1;
                parts.push(brow);
                let ok = residual.eval_parts(parts).is_true();
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        if ok {
                            matched = true;
                            slots[*slot] += 1;
                            st.rows_pipelined += 1;
                            push_row(
                                specs,
                                side_rows,
                                tables,
                                tail,
                                idx + 1,
                                parts,
                                scratch,
                                buf,
                                st,
                                slots,
                            );
                        }
                        parts.pop();
                    }
                    JoinKind::Semi => {
                        parts.pop();
                        if ok {
                            matched = true;
                            slots[*slot] += 1;
                            st.rows_pipelined += 1;
                            push_row(
                                specs,
                                side_rows,
                                tables,
                                tail,
                                idx + 1,
                                parts,
                                scratch,
                                buf,
                                st,
                                slots,
                            );
                            break;
                        }
                    }
                    JoinKind::Anti => {
                        parts.pop();
                        if ok {
                            matched = true;
                            break;
                        }
                    }
                    JoinKind::FullOuter => unreachable!("full outerjoins are breakers"),
                }
            }
            if !matched {
                match kind {
                    JoinKind::LeftOuter => {
                        slots[*slot] += 1;
                        st.rows_pipelined += 1;
                        parts.push(pad);
                        push_row(
                            specs,
                            side_rows,
                            tables,
                            tail,
                            idx + 1,
                            parts,
                            scratch,
                            buf,
                            st,
                            slots,
                        );
                        parts.pop();
                    }
                    JoinKind::Anti => {
                        slots[*slot] += 1;
                        st.rows_pipelined += 1;
                        push_row(
                            specs,
                            side_rows,
                            tables,
                            tail,
                            idx + 1,
                            parts,
                            scratch,
                            buf,
                            st,
                            slots,
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Materialize one output tuple at the sink — the only per-row
/// allocation a fused pipeline makes.
fn emit(tail: &Tail, parts: &[&Tuple]) -> Tuple {
    match tail {
        Tail::Collect { width } => {
            let mut vals = Vec::with_capacity(*width);
            for p in parts {
                for i in 0..p.arity() {
                    vals.push(p.get(i).clone());
                }
            }
            Tuple::new(vals)
        }
        Tail::Project { map, .. } => {
            let mut vals = Vec::with_capacity(map.len());
            for &(p, c) in map {
                vals.push(parts[p as usize].get(c as usize).clone());
            }
            Tuple::new(vals)
        }
    }
}
