//! The [`PhysPlan`] codec: ids-only encode against an [`Interner`],
//! strict structural decode back to the same tree.

use crate::codec::{Reader, Writer};
use crate::error::WireError;
use fro_algebra::{Attr, CmpOp, Interner, Pred, Scalar, Truth, Value};
use fro_exec::{JoinKind, PhysPlan, ReducePass};

/// The plan-blob format version this build writes, and the only one
/// it reads.
pub const PLAN_FORMAT_VERSION: u8 = 1;

/// Encode a plan as a self-contained versioned blob. Relations and
/// attributes are written as their dense interned ids — no names reach
/// the wire.
///
/// # Errors
/// [`WireError::UnknownRelation`] / [`WireError::UnknownAttr`] when the
/// plan references a name the interner has not seen (derived
/// attributes such as `agg.count` make a plan unserializable), and
/// [`WireError::InvalidNode`] when the plan violates a structural rule
/// the decoder would reject (so the encoder never emits undecodable
/// bytes).
pub fn encode_plan(plan: &PhysPlan, it: &Interner) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    w.put_u8(PLAN_FORMAT_VERSION);
    enc_plan(&mut w, plan, it)?;
    Ok(w.into_bytes())
}

/// Decode a plan blob produced by [`encode_plan`], resolving ids back
/// to names through `it`. Strict: unknown tags, out-of-range ids,
/// arity violations, over-deep nesting, and trailing bytes are all
/// typed errors — hostile input can never panic the decoder or yield
/// a structurally invalid plan.
///
/// # Errors
/// Any [`WireError`] decode variant.
pub fn decode_plan(bytes: &[u8], it: &Interner) -> Result<PhysPlan, WireError> {
    let mut r = Reader::new(bytes);
    let version = r.take_u8()?;
    if version != PLAN_FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion {
            what: "plan",
            found: version,
            supported: PLAN_FORMAT_VERSION,
        });
    }
    let plan = dec_plan(&mut r, it)?;
    r.finish()?;
    Ok(plan)
}

// ---------------------------------------------------------------- encode

fn enc_rel(w: &mut Writer, name: &str, it: &Interner) -> Result<(), WireError> {
    let id = it.rel_id(name).ok_or_else(|| WireError::UnknownRelation {
        name: name.to_owned(),
    })?;
    w.put_u64(id.index() as u64);
    Ok(())
}

fn enc_attr(w: &mut Writer, attr: &Attr, it: &Interner) -> Result<(), WireError> {
    let id = it.attr_id(attr).ok_or_else(|| WireError::UnknownAttr {
        attr: attr.to_string(),
    })?;
    w.put_u64(id.index() as u64);
    Ok(())
}

fn enc_attrs(w: &mut Writer, attrs: &[Attr], it: &Interner) -> Result<(), WireError> {
    w.put_u64(attrs.len() as u64);
    for a in attrs {
        enc_attr(w, a, it)?;
    }
    Ok(())
}

pub(crate) fn enc_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Value::Str(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        Value::Bool(b) => {
            w.put_u8(3);
            w.put_u8(u8::from(*b));
        }
    }
}

fn truth_tag(t: Truth) -> u8 {
    match t {
        Truth::False => 0,
        Truth::Unknown => 1,
        Truth::True => 2,
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn kind_tag(k: JoinKind) -> u8 {
    match k {
        JoinKind::Inner => 0,
        JoinKind::LeftOuter => 1,
        JoinKind::FullOuter => 2,
        JoinKind::Semi => 3,
        JoinKind::Anti => 4,
    }
}

fn enc_scalar(w: &mut Writer, s: &Scalar, it: &Interner) -> Result<(), WireError> {
    match s {
        Scalar::Attr(a) => {
            w.put_u8(0);
            enc_attr(w, a, it)
        }
        Scalar::Lit(v) => {
            w.put_u8(1);
            enc_value(w, v);
            Ok(())
        }
    }
}

fn enc_pred(w: &mut Writer, p: &Pred, it: &Interner) -> Result<(), WireError> {
    match p {
        Pred::Cmp { op, lhs, rhs } => {
            w.put_u8(0);
            w.put_u8(cmp_tag(*op));
            enc_scalar(w, lhs, it)?;
            enc_scalar(w, rhs, it)
        }
        Pred::IsNull(s) => {
            w.put_u8(1);
            enc_scalar(w, s, it)
        }
        Pred::And(a, b) => {
            w.put_u8(2);
            enc_pred(w, a, it)?;
            enc_pred(w, b, it)
        }
        Pred::Or(a, b) => {
            w.put_u8(3);
            enc_pred(w, a, it)?;
            enc_pred(w, b, it)
        }
        Pred::Not(q) => {
            w.put_u8(4);
            enc_pred(w, q, it)
        }
        Pred::Const(t) => {
            w.put_u8(5);
            w.put_u8(truth_tag(*t));
            Ok(())
        }
    }
}

fn check_keys(node: &'static str, a: &[Attr], b: &[Attr]) -> Result<(), WireError> {
    if a.len() != b.len() {
        return Err(WireError::InvalidNode {
            node,
            reason: "key lists differ in arity",
        });
    }
    if a.is_empty() {
        return Err(WireError::InvalidNode {
            node,
            reason: "empty key lists",
        });
    }
    Ok(())
}

fn enc_plan(w: &mut Writer, plan: &PhysPlan, it: &Interner) -> Result<(), WireError> {
    match plan {
        PhysPlan::Scan { rel } => {
            w.put_u8(0);
            enc_rel(w, rel, it)
        }
        PhysPlan::Filter { input, pred } => {
            w.put_u8(1);
            enc_plan(w, input, it)?;
            enc_pred(w, pred, it)
        }
        PhysPlan::Project { input, attrs } => {
            w.put_u8(2);
            enc_plan(w, input, it)?;
            enc_attrs(w, attrs, it)
        }
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } => {
            check_keys("HashJoin", probe_keys, build_keys)?;
            w.put_u8(3);
            w.put_u8(kind_tag(*kind));
            enc_plan(w, probe, it)?;
            enc_plan(w, build, it)?;
            enc_attrs(w, probe_keys, it)?;
            enc_attrs(w, build_keys, it)?;
            enc_pred(w, residual, it)
        }
        PhysPlan::IndexJoin {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } => {
            check_keys("IndexJoin", outer_keys, inner_keys)?;
            if *kind == JoinKind::FullOuter {
                return Err(WireError::InvalidNode {
                    node: "IndexJoin",
                    reason: "full-outer index join is not executable",
                });
            }
            w.put_u8(4);
            w.put_u8(kind_tag(*kind));
            enc_plan(w, outer, it)?;
            enc_rel(w, inner, it)?;
            enc_attrs(w, outer_keys, it)?;
            enc_attrs(w, inner_keys, it)?;
            enc_pred(w, residual, it)
        }
        PhysPlan::NlJoin {
            kind,
            left,
            right,
            pred,
        } => {
            w.put_u8(6);
            w.put_u8(kind_tag(*kind));
            enc_plan(w, left, it)?;
            enc_plan(w, right, it)?;
            enc_pred(w, pred, it)
        }
        PhysPlan::GroupCount {
            input,
            group_attrs,
            counted,
        } => {
            w.put_u8(7);
            enc_plan(w, input, it)?;
            enc_attrs(w, group_attrs, it)?;
            match counted {
                None => w.put_u8(0),
                Some(a) => {
                    w.put_u8(1);
                    enc_attr(w, a, it)?;
                }
            }
            Ok(())
        }
        PhysPlan::Goj {
            left,
            right,
            pred,
            subset,
        } => {
            w.put_u8(8);
            enc_plan(w, left, it)?;
            enc_plan(w, right, it)?;
            enc_pred(w, pred, it)?;
            enc_attrs(w, subset, it)
        }
        PhysPlan::SemiReduce {
            input,
            source,
            input_keys,
            source_keys,
            pass,
        } => {
            check_keys("SemiReduce", input_keys, source_keys)?;
            w.put_u8(9);
            w.put_u8(match pass {
                ReducePass::Up => 0,
                ReducePass::Down => 1,
            });
            enc_plan(w, input, it)?;
            enc_plan(w, source, it)?;
            enc_attrs(w, input_keys, it)?;
            enc_attrs(w, source_keys, it)
        }
    }
}

// ---------------------------------------------------------------- decode

fn dec_rel(r: &mut Reader<'_>, it: &Interner) -> Result<String, WireError> {
    let id = r.take_u64()?;
    let name = usize::try_from(id)
        .ok()
        .and_then(|i| it.try_rel_name(fro_algebra::RelId::from_index(i)))
        .ok_or(WireError::BadRelId {
            id,
            n_rels: it.n_rels(),
        })?;
    Ok(name.to_owned())
}

fn dec_attr(r: &mut Reader<'_>, it: &Interner) -> Result<Attr, WireError> {
    let id = r.take_u64()?;
    let attr = usize::try_from(id)
        .ok()
        .and_then(|i| it.try_attr(fro_algebra::AttrId::from_index(i)))
        .ok_or(WireError::BadAttrId {
            id,
            n_attrs: it.n_attrs(),
        })?;
    Ok(attr.clone())
}

fn dec_attrs(r: &mut Reader<'_>, it: &Interner) -> Result<Vec<Attr>, WireError> {
    let n = r.take_count(1)?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        attrs.push(dec_attr(r, it)?);
    }
    Ok(attrs)
}

pub(crate) fn dec_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    let at = r.pos();
    let tag = r.take_u8()?;
    match tag {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.take_i64()?)),
        2 => Ok(Value::Str(r.take_str()?.to_owned())),
        3 => {
            let at = r.pos();
            match r.take_u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(WireError::UnknownTag {
                    what: "bool",
                    tag: u64::from(b),
                    at,
                }),
            }
        }
        t => Err(WireError::UnknownTag {
            what: "value",
            tag: u64::from(t),
            at,
        }),
    }
}

fn dec_truth(r: &mut Reader<'_>) -> Result<Truth, WireError> {
    let at = r.pos();
    match r.take_u8()? {
        0 => Ok(Truth::False),
        1 => Ok(Truth::Unknown),
        2 => Ok(Truth::True),
        t => Err(WireError::UnknownTag {
            what: "truth",
            tag: u64::from(t),
            at,
        }),
    }
}

fn dec_cmp(r: &mut Reader<'_>) -> Result<CmpOp, WireError> {
    let at = r.pos();
    match r.take_u8()? {
        0 => Ok(CmpOp::Eq),
        1 => Ok(CmpOp::Ne),
        2 => Ok(CmpOp::Lt),
        3 => Ok(CmpOp::Le),
        4 => Ok(CmpOp::Gt),
        5 => Ok(CmpOp::Ge),
        t => Err(WireError::UnknownTag {
            what: "cmpop",
            tag: u64::from(t),
            at,
        }),
    }
}

fn dec_kind(r: &mut Reader<'_>) -> Result<JoinKind, WireError> {
    let at = r.pos();
    match r.take_u8()? {
        0 => Ok(JoinKind::Inner),
        1 => Ok(JoinKind::LeftOuter),
        2 => Ok(JoinKind::FullOuter),
        3 => Ok(JoinKind::Semi),
        4 => Ok(JoinKind::Anti),
        t => Err(WireError::UnknownTag {
            what: "join kind",
            tag: u64::from(t),
            at,
        }),
    }
}

fn dec_scalar(r: &mut Reader<'_>, it: &Interner) -> Result<Scalar, WireError> {
    let at = r.pos();
    match r.take_u8()? {
        0 => Ok(Scalar::Attr(dec_attr(r, it)?)),
        1 => Ok(Scalar::Lit(dec_value(r)?)),
        t => Err(WireError::UnknownTag {
            what: "scalar",
            tag: u64::from(t),
            at,
        }),
    }
}

fn dec_cmp_pred(r: &mut Reader<'_>, it: &Interner) -> Result<Pred, WireError> {
    let op = dec_cmp(r)?;
    let lhs = dec_scalar(r, it)?;
    let rhs = dec_scalar(r, it)?;
    Ok(Pred::Cmp { op, lhs, rhs })
}

fn dec_pred_pair(r: &mut Reader<'_>, it: &Interner) -> Result<(Box<Pred>, Box<Pred>), WireError> {
    Ok((Box::new(dec_pred(r, it)?), Box::new(dec_pred(r, it)?)))
}

// Small per-arm helpers for the same debug-build stack-frame reason as
// the plan arms above.
fn dec_pred(r: &mut Reader<'_>, it: &Interner) -> Result<Pred, WireError> {
    r.enter()?;
    let at = r.pos();
    let out = match r.take_u8()? {
        0 => dec_cmp_pred(r, it),
        1 => dec_scalar(r, it).map(Pred::IsNull),
        2 => dec_pred_pair(r, it).map(|(a, b)| Pred::And(a, b)),
        3 => dec_pred_pair(r, it).map(|(a, b)| Pred::Or(a, b)),
        4 => dec_pred(r, it).map(|p| Pred::Not(Box::new(p))),
        5 => dec_truth(r).map(Pred::Const),
        t => Err(WireError::UnknownTag {
            what: "pred",
            tag: u64::from(t),
            at,
        }),
    };
    r.leave();
    out
}

// Each recursive arm lives in its own function so a decoding level
// costs one small dispatch frame plus one arm frame — in debug builds a
// single function holding every arm's temporaries needs tens of KiB of
// stack per level, which would let a nesting bomb overflow a default
// thread stack *before* reaching the depth cap.

fn dec_filter(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    Ok(PhysPlan::Filter {
        input: Box::new(dec_plan(r, it)?),
        pred: dec_pred(r, it)?,
    })
}

fn dec_project(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    Ok(PhysPlan::Project {
        input: Box::new(dec_plan(r, it)?),
        attrs: dec_attrs(r, it)?,
    })
}

fn dec_hash_join(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    let kind = dec_kind(r)?;
    let probe = Box::new(dec_plan(r, it)?);
    let build = Box::new(dec_plan(r, it)?);
    let probe_keys = dec_attrs(r, it)?;
    let build_keys = dec_attrs(r, it)?;
    let residual = dec_pred(r, it)?;
    check_keys("HashJoin", &probe_keys, &build_keys)?;
    Ok(PhysPlan::HashJoin {
        kind,
        probe,
        build,
        probe_keys,
        build_keys,
        residual,
    })
}

fn dec_index_join(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    let kind = dec_kind(r)?;
    if kind == JoinKind::FullOuter {
        return Err(WireError::InvalidNode {
            node: "IndexJoin",
            reason: "full-outer index join is not executable",
        });
    }
    let outer = Box::new(dec_plan(r, it)?);
    let inner = dec_rel(r, it)?;
    let outer_keys = dec_attrs(r, it)?;
    let inner_keys = dec_attrs(r, it)?;
    let residual = dec_pred(r, it)?;
    check_keys("IndexJoin", &outer_keys, &inner_keys)?;
    Ok(PhysPlan::IndexJoin {
        kind,
        outer,
        inner,
        outer_keys,
        inner_keys,
        residual,
    })
}

fn dec_nl_join(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    Ok(PhysPlan::NlJoin {
        kind: dec_kind(r)?,
        left: Box::new(dec_plan(r, it)?),
        right: Box::new(dec_plan(r, it)?),
        pred: dec_pred(r, it)?,
    })
}

fn dec_group_count(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    let input = Box::new(dec_plan(r, it)?);
    let group_attrs = dec_attrs(r, it)?;
    let at = r.pos();
    let counted = match r.take_u8()? {
        0 => None,
        1 => Some(dec_attr(r, it)?),
        t => {
            return Err(WireError::UnknownTag {
                what: "option",
                tag: u64::from(t),
                at,
            })
        }
    };
    Ok(PhysPlan::GroupCount {
        input,
        group_attrs,
        counted,
    })
}

fn dec_semi_reduce(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    let at = r.pos();
    let pass = match r.take_u8()? {
        0 => ReducePass::Up,
        1 => ReducePass::Down,
        t => {
            return Err(WireError::UnknownTag {
                what: "reduce pass",
                tag: u64::from(t),
                at,
            })
        }
    };
    let input = Box::new(dec_plan(r, it)?);
    let source = Box::new(dec_plan(r, it)?);
    let input_keys = dec_attrs(r, it)?;
    let source_keys = dec_attrs(r, it)?;
    check_keys("SemiReduce", &input_keys, &source_keys)?;
    Ok(PhysPlan::SemiReduce {
        input,
        source,
        input_keys,
        source_keys,
        pass,
    })
}

fn dec_goj(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    Ok(PhysPlan::Goj {
        left: Box::new(dec_plan(r, it)?),
        right: Box::new(dec_plan(r, it)?),
        pred: dec_pred(r, it)?,
        subset: dec_attrs(r, it)?,
    })
}

fn dec_plan(r: &mut Reader<'_>, it: &Interner) -> Result<PhysPlan, WireError> {
    r.enter()?;
    let at = r.pos();
    let out = match r.take_u8()? {
        0 => dec_rel(r, it).map(|rel| PhysPlan::Scan { rel }),
        1 => dec_filter(r, it),
        2 => dec_project(r, it),
        3 => dec_hash_join(r, it),
        4 => dec_index_join(r, it),
        // 5 is reserved (a retired `MergeJoin`): never reuse it, or an
        // old blob would decode as some other node.
        6 => dec_nl_join(r, it),
        7 => dec_group_count(r, it),
        8 => dec_goj(r, it),
        9 => dec_semi_reduce(r, it),
        t => Err(WireError::UnknownTag {
            what: "plan",
            tag: u64::from(t),
            at,
        }),
    };
    r.leave();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Schema;

    fn test_interner() -> Interner {
        let mut it = Interner::new();
        it.register_relation("R", &Schema::of_relation("R", &["k", "v"]));
        it.register_relation("S", &Schema::of_relation("S", &["k"]));
        it
    }

    fn roundtrip(plan: &PhysPlan, it: &Interner) {
        let bytes = encode_plan(plan, it).expect("encodes");
        let back = decode_plan(&bytes, it).expect("decodes");
        assert_eq!(&back, plan);
        let again = encode_plan(&back, it).expect("re-encodes");
        assert_eq!(again, bytes, "re-encode is bytewise identical");
    }

    #[test]
    fn every_node_kind_roundtrips() {
        let it = test_interner();
        let pred = Pred::eq_attr("R.k", "S.k")
            .and(Pred::cmp_lit("R.v", CmpOp::Gt, 3))
            .or(Pred::IsNull(Scalar::attr("S.k")).not());
        roundtrip(&PhysPlan::scan("R"), &it);
        roundtrip(
            &PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("R")),
                pred: pred.clone(),
            },
            &it,
        );
        roundtrip(
            &PhysPlan::Project {
                input: Box::new(PhysPlan::scan("R")),
                attrs: vec![Attr::parse("R.v"), Attr::parse("R.k")],
            },
            &it,
        );
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::FullOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            roundtrip(
                &PhysPlan::HashJoin {
                    kind,
                    probe: Box::new(PhysPlan::scan("R")),
                    build: Box::new(PhysPlan::scan("S")),
                    probe_keys: vec![Attr::parse("R.k")],
                    build_keys: vec![Attr::parse("S.k")],
                    residual: Pred::always(),
                },
                &it,
            );
        }
        roundtrip(
            &PhysPlan::IndexJoin {
                kind: JoinKind::LeftOuter,
                outer: Box::new(PhysPlan::scan("R")),
                inner: "S".into(),
                outer_keys: vec![Attr::parse("R.k")],
                inner_keys: vec![Attr::parse("S.k")],
                residual: pred.clone(),
            },
            &it,
        );
        roundtrip(
            &PhysPlan::NlJoin {
                kind: JoinKind::FullOuter,
                left: Box::new(PhysPlan::scan("R")),
                right: Box::new(PhysPlan::scan("S")),
                pred,
            },
            &it,
        );
        roundtrip(
            &PhysPlan::GroupCount {
                input: Box::new(PhysPlan::scan("R")),
                group_attrs: vec![Attr::parse("R.v")],
                counted: Some(Attr::parse("R.k")),
            },
            &it,
        );
        roundtrip(
            &PhysPlan::GroupCount {
                input: Box::new(PhysPlan::scan("R")),
                group_attrs: vec![Attr::parse("R.v")],
                counted: None,
            },
            &it,
        );
        roundtrip(
            &PhysPlan::Goj {
                left: Box::new(PhysPlan::scan("R")),
                right: Box::new(PhysPlan::scan("S")),
                pred: Pred::eq_attr("R.k", "S.k"),
                subset: vec![Attr::parse("R.k")],
            },
            &it,
        );
        for pass in [ReducePass::Up, ReducePass::Down] {
            roundtrip(
                &PhysPlan::SemiReduce {
                    input: Box::new(PhysPlan::scan("R")),
                    source: Box::new(PhysPlan::scan("S")),
                    input_keys: vec![Attr::parse("R.k")],
                    source_keys: vec![Attr::parse("S.k")],
                    pass,
                },
                &it,
            );
        }
    }

    #[test]
    fn literal_values_roundtrip() {
        let it = test_interner();
        for lit in [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-7),
            Value::str("Queretaro ❄"),
            Value::Bool(true),
            Value::Bool(false),
        ] {
            let plan = PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("R")),
                pred: Pred::Cmp {
                    op: CmpOp::Ne,
                    lhs: Scalar::attr("R.v"),
                    rhs: Scalar::Lit(lit),
                },
            };
            roundtrip(&plan, &it);
        }
    }

    #[test]
    fn unknown_names_fail_encode() {
        let it = test_interner();
        let e = encode_plan(&PhysPlan::scan("missing"), &it).unwrap_err();
        assert!(matches!(e, WireError::UnknownRelation { .. }), "{e}");
        let e = encode_plan(
            &PhysPlan::Project {
                input: Box::new(PhysPlan::scan("R")),
                attrs: vec![Attr::new("agg", "count")],
            },
            &it,
        )
        .unwrap_err();
        assert!(matches!(e, WireError::UnknownAttr { .. }), "{e}");
    }

    #[test]
    fn arity_violations_fail_both_directions() {
        let it = test_interner();
        let bad = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("R")),
            build: Box::new(PhysPlan::scan("S")),
            probe_keys: vec![Attr::parse("R.k"), Attr::parse("R.v")],
            build_keys: vec![Attr::parse("S.k")],
            residual: Pred::always(),
        };
        assert!(matches!(
            encode_plan(&bad, &it),
            Err(WireError::InvalidNode { .. })
        ));
        let empty = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("R")),
            build: Box::new(PhysPlan::scan("S")),
            probe_keys: vec![],
            build_keys: vec![],
            residual: Pred::always(),
        };
        assert!(matches!(
            encode_plan(&empty, &it),
            Err(WireError::InvalidNode { .. })
        ));
        let full_ix = PhysPlan::IndexJoin {
            kind: JoinKind::FullOuter,
            outer: Box::new(PhysPlan::scan("R")),
            inner: "S".into(),
            outer_keys: vec![Attr::parse("R.k")],
            inner_keys: vec![Attr::parse("S.k")],
            residual: Pred::always(),
        };
        assert!(matches!(
            encode_plan(&full_ix, &it),
            Err(WireError::InvalidNode { .. })
        ));
        let bad_reduce = PhysPlan::SemiReduce {
            input: Box::new(PhysPlan::scan("R")),
            source: Box::new(PhysPlan::scan("S")),
            input_keys: vec![],
            source_keys: vec![],
            pass: ReducePass::Up,
        };
        assert!(matches!(
            encode_plan(&bad_reduce, &it),
            Err(WireError::InvalidNode { .. })
        ));
    }

    #[test]
    fn depth_cap_fits_a_small_stack() {
        // The nesting-bomb guarantee is only real if MAX_DEPTH decoder
        // frames fit a modest thread stack; decode in a deliberately
        // small one so frame-size regressions fail loudly here instead
        // of aborting some caller.
        let it = test_interner();
        let mut bomb = vec![PLAN_FORMAT_VERSION];
        bomb.extend(std::iter::repeat_n(1u8, 4096));
        let out = std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || decode_plan(&bomb, &it))
            .expect("spawn")
            .join()
            .expect("no overflow");
        assert!(matches!(out, Err(WireError::TooDeep { .. })));
    }

    #[test]
    fn hostile_bytes_yield_typed_errors() {
        let it = test_interner();
        // Unknown version.
        assert!(matches!(
            decode_plan(&[9, 0, 0], &it),
            Err(WireError::UnsupportedVersion { .. })
        ));
        // Unknown node tag.
        assert!(matches!(
            decode_plan(&[PLAN_FORMAT_VERSION, 42], &it),
            Err(WireError::UnknownTag { what: "plan", .. })
        ));
        // The retired merge-join tag, followed by what used to be its
        // body (inner, Scan R, Scan S, one key each side, residual TRUE):
        // rejected at the tag byte.
        assert!(matches!(
            decode_plan(
                &[PLAN_FORMAT_VERSION, 5, 0, 0, 0, 0, 1, 1, 0, 1, 2, 5, 2],
                &it
            ),
            Err(WireError::UnknownTag {
                what: "plan",
                tag: 5,
                at: 1
            })
        ));
        // Out-of-range relation id.
        assert!(matches!(
            decode_plan(&[PLAN_FORMAT_VERSION, 0, 99], &it),
            Err(WireError::BadRelId { id: 99, .. })
        ));
        // Truncated input.
        assert!(matches!(
            decode_plan(&[PLAN_FORMAT_VERSION, 1, 0, 0], &it),
            Err(WireError::UnexpectedEof { .. })
        ));
        // Trailing garbage after a valid plan.
        let mut bytes = encode_plan(&PhysPlan::scan("R"), &it).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_plan(&bytes, &it),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
        // SemiReduce with a pass byte past the enum.
        assert!(matches!(
            decode_plan(&[PLAN_FORMAT_VERSION, 9, 2], &it),
            Err(WireError::UnknownTag {
                what: "reduce pass",
                ..
            })
        ));
        // SemiReduce whose decoded key lists are empty: both length
        // prefixes say zero, so the structural check must fire.
        assert!(matches!(
            decode_plan(&[PLAN_FORMAT_VERSION, 9, 0, 0, 0, 0, 1, 0, 0], &it),
            Err(WireError::InvalidNode {
                node: "SemiReduce",
                ..
            })
        ));
        // A nesting bomb: Filter tags all the way down trips the depth
        // cap, not the stack.
        let mut bomb = vec![PLAN_FORMAT_VERSION];
        bomb.extend(std::iter::repeat_n(1u8, 4096));
        assert!(matches!(
            decode_plan(&bomb, &it),
            Err(WireError::TooDeep { .. })
        ));
    }
}
