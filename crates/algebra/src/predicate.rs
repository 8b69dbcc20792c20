//! Predicates: simple and join predicates (§1.2) with three-valued
//! evaluation and the paper's *strongness* analysis (§2.1).
//!
//! > *"A predicate `p` is strong with respect to a set `S` of
//! > attributes if, whenever a tuple `t` has a null value for all
//! > attributes in `S`, `p(t) = False`."*
//!
//! Under three-valued logic a tuple passes a filter only when the
//! predicate is [`Truth::True`], so we implement strongness as
//! *never-True-when-all-null*: a sound syntactic analysis
//! ([`Pred::is_strong`]) computed by the mutually recursive pair
//! never-true / never-false (needed to handle `NOT`). The analysis is
//! conservative (it may say "not strong" for an exotic predicate that
//! is semantically strong) but is exact for the comparison/`IS NULL`
//! fragment the paper considers, which the test-suite verifies against
//! brute-force evaluation.

use crate::error::AlgebraError;
use crate::schema::{Attr, Schema};
use crate::truth::Truth;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering.
    #[must_use]
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with operands swapped (`a < b` ⇔ `b > a`).
    #[must_use]
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar term: an attribute reference or a literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scalar {
    /// A qualified attribute reference.
    Attr(Attr),
    /// A literal value.
    Lit(Value),
}

impl Scalar {
    /// Attribute-reference shorthand, parsing `"rel.attr"`.
    #[must_use]
    pub fn attr(qualified: &str) -> Scalar {
        Scalar::Attr(Attr::parse(qualified))
    }

    /// Integer-literal shorthand.
    #[must_use]
    pub fn int(v: i64) -> Scalar {
        Scalar::Lit(Value::Int(v))
    }

    fn eval<'a>(&'a self, t: &'a Tuple, schema: &Schema) -> Result<&'a Value, AlgebraError> {
        match self {
            Scalar::Lit(v) => Ok(v),
            Scalar::Attr(a) => {
                let i = schema
                    .index_of(a)
                    .ok_or_else(|| AlgebraError::UnknownAttr {
                        attr: a.to_string(),
                        schema: schema.to_string(),
                    })?;
                Ok(t.get(i))
            }
        }
    }

    fn attr_ref(&self) -> Option<&Attr> {
        match self {
            Scalar::Attr(a) => Some(a),
            Scalar::Lit(_) => None,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Attr(a) => write!(f, "{a}"),
            Scalar::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// A predicate over tuples, evaluated in three-valued logic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// A comparison between two scalars.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Scalar,
        /// Right operand.
        rhs: Scalar,
    },
    /// `scalar IS NULL`.
    IsNull(Scalar),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation (Kleene).
    Not(Box<Pred>),
    /// A constant truth value.
    Const(Truth),
}

impl Pred {
    /// `lhs op rhs` from scalars.
    #[must_use]
    pub fn cmp(op: CmpOp, lhs: Scalar, rhs: Scalar) -> Pred {
        Pred::Cmp { op, lhs, rhs }
    }

    /// Equality between two attributes given as `"rel.attr"` strings —
    /// the paper's standard equijoin predicate.
    #[must_use]
    pub fn eq_attr(a: &str, b: &str) -> Pred {
        Pred::cmp(CmpOp::Eq, Scalar::attr(a), Scalar::attr(b))
    }

    /// Comparison between two attributes.
    #[must_use]
    pub fn cmp_attr(a: &str, op: CmpOp, b: &str) -> Pred {
        Pred::cmp(op, Scalar::attr(a), Scalar::attr(b))
    }

    /// `attr op literal` restriction predicate.
    #[must_use]
    pub fn cmp_lit(a: &str, op: CmpOp, v: impl Into<Value>) -> Pred {
        Pred::cmp(op, Scalar::attr(a), Scalar::Lit(v.into()))
    }

    /// `attr IS NULL`.
    #[must_use]
    pub fn is_null(a: &str) -> Pred {
        Pred::IsNull(Scalar::attr(a))
    }

    /// Conjunction with constant folding.
    #[must_use]
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::Const(Truth::True), p) | (p, Pred::Const(Truth::True)) => p,
            (Pred::Const(Truth::False), _) | (_, Pred::Const(Truth::False)) => {
                Pred::Const(Truth::False)
            }
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction with constant folding.
    #[must_use]
    pub fn or(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::Const(Truth::False), p) | (p, Pred::Const(Truth::False)) => p,
            (Pred::Const(Truth::True), _) | (_, Pred::Const(Truth::True)) => {
                Pred::Const(Truth::True)
            }
            (a, b) => Pred::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        match self {
            Pred::Const(t) => Pred::Const(t.not()),
            Pred::Not(p) => *p,
            p => Pred::Not(Box::new(p)),
        }
    }

    /// The always-true predicate.
    #[must_use]
    pub fn always() -> Pred {
        Pred::Const(Truth::True)
    }

    /// Evaluate against a tuple on the given scheme.
    ///
    /// # Errors
    /// [`AlgebraError::UnknownAttr`] when the predicate references an
    /// attribute outside the scheme.
    pub fn eval(&self, t: &Tuple, schema: &Schema) -> Result<Truth, AlgebraError> {
        match self {
            Pred::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(t, schema)?;
                let r = rhs.eval(t, schema)?;
                Ok(match l.cmp3(r) {
                    None => Truth::Unknown,
                    Some(ord) => Truth::from_bool(op.test(ord)),
                })
            }
            Pred::IsNull(s) => Ok(Truth::from_bool(s.eval(t, schema)?.is_null())),
            Pred::And(a, b) => Ok(a.eval(t, schema)?.and(b.eval(t, schema)?)),
            Pred::Or(a, b) => Ok(a.eval(t, schema)?.or(b.eval(t, schema)?)),
            Pred::Not(p) => Ok(p.eval(t, schema)?.not()),
            Pred::Const(t) => Ok(*t),
        }
    }

    /// All attributes referenced.
    #[must_use]
    pub fn attrs(&self) -> BTreeSet<Attr> {
        let mut out = BTreeSet::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut BTreeSet<Attr>) {
        match self {
            Pred::Cmp { lhs, rhs, .. } => {
                if let Some(a) = lhs.attr_ref() {
                    out.insert(a.clone());
                }
                if let Some(a) = rhs.attr_ref() {
                    out.insert(a.clone());
                }
            }
            Pred::IsNull(s) => {
                if let Some(a) = s.attr_ref() {
                    out.insert(a.clone());
                }
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Pred::Not(p) => p.collect_attrs(out),
            Pred::Const(_) => {}
        }
    }

    /// The ground relations referenced.
    #[must_use]
    pub fn rels(&self) -> BTreeSet<String> {
        self.attrs().iter().map(|a| a.rel().to_owned()).collect()
    }

    /// Split into top-level conjuncts (flattening nested `AND`s).
    #[must_use]
    pub fn conjuncts(&self) -> Vec<Pred> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts(&self, out: &mut Vec<Pred>) {
        match self {
            Pred::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            Pred::Const(Truth::True) => {}
            p => out.push(p.clone()),
        }
    }

    /// Rebuild a predicate from conjuncts (empty list ⇒ `always`).
    #[must_use]
    pub fn from_conjuncts(conjuncts: impl IntoIterator<Item = Pred>) -> Pred {
        conjuncts
            .into_iter()
            .fold(Pred::always(), |acc, c| acc.and(c))
    }

    /// The predicate in one canonical spelling, so phrasings that differ
    /// only in how they are written compare (and hash) equal: the
    /// operands of `=`/`<>` in ascending order, `>`/`>=` mirrored to
    /// `<`/`<=`, and the top-level conjuncts sorted.
    #[must_use]
    pub fn canonical(&self) -> Pred {
        match self {
            Pred::Cmp { op, lhs, rhs } => {
                let swap = match op {
                    CmpOp::Eq | CmpOp::Ne => lhs > rhs,
                    CmpOp::Gt | CmpOp::Ge => true,
                    CmpOp::Lt | CmpOp::Le => false,
                };
                if swap {
                    Pred::cmp(op.flipped(), rhs.clone(), lhs.clone())
                } else {
                    self.clone()
                }
            }
            Pred::And(..) => {
                let mut conjuncts: Vec<Pred> =
                    self.conjuncts().iter().map(Pred::canonical).collect();
                conjuncts.sort();
                Pred::from_conjuncts(conjuncts)
            }
            Pred::Or(a, b) => Pred::Or(Box::new(a.canonical()), Box::new(b.canonical())),
            Pred::Not(p) => Pred::Not(Box::new(p.canonical())),
            Pred::IsNull(_) | Pred::Const(_) => self.clone(),
        }
    }

    /// Strongness (§2.1): is this predicate guaranteed never to be
    /// `True` on a tuple whose attributes in `null_set` are **all**
    /// null? Sound (never claims strongness falsely); exact on the
    /// comparison / `IS NULL` / boolean fragment.
    #[must_use]
    pub fn is_strong(&self, null_set: &BTreeSet<Attr>) -> bool {
        self.never_true(null_set)
    }

    /// Strongness with respect to a ground relation: strong on the set
    /// of attributes the predicate references from `rel` (the paper's
    /// "strong with respect to the set of attributes it references
    /// from X"). A predicate referencing nothing from `rel` is not
    /// strong with respect to it (unless it is never satisfiable).
    #[must_use]
    pub fn is_strong_on_rel(&self, rel: &str) -> bool {
        self.is_strong_on_rels(&BTreeSet::from([rel.to_owned()]))
    }

    /// Strongness with respect to a set of ground relations (strong on
    /// all attributes referenced from any of them).
    #[must_use]
    pub fn is_strong_on_rels(&self, rels: &BTreeSet<String>) -> bool {
        let referenced: BTreeSet<Attr> = self
            .attrs()
            .into_iter()
            .filter(|a| rels.contains(a.rel()))
            .collect();
        if referenced.is_empty() {
            // Vacuous case: "all referenced attributes null" holds for
            // every tuple, so only an unsatisfiable predicate is strong.
            return self.never_true(&referenced);
        }
        self.never_true(&referenced)
    }

    /// Never evaluates to `True` when all attributes in `s` are null.
    fn never_true(&self, s: &BTreeSet<Attr>) -> bool {
        match self {
            Pred::Cmp { op, lhs, rhs } => {
                let touches = |x: &Scalar| x.attr_ref().is_some_and(|a| s.contains(a));
                let lit_null = |x: &Scalar| matches!(x, Scalar::Lit(v) if v.is_null());
                if touches(lhs) || touches(rhs) || lit_null(lhs) || lit_null(rhs) {
                    return true; // comparison with a null is Unknown
                }
                match (lhs, rhs) {
                    (Scalar::Lit(a), Scalar::Lit(b)) => match a.cmp3(b) {
                        None => true,
                        Some(ord) => !op.test(ord),
                    },
                    _ => false,
                }
            }
            Pred::IsNull(x) => match x {
                // Whether or not the attribute is in the nulled set,
                // IS NULL may evaluate to True — never strong.
                Scalar::Attr(_) => false,
                Scalar::Lit(v) => !v.is_null(),
            },
            Pred::And(a, b) => a.never_true(s) || b.never_true(s),
            Pred::Or(a, b) => a.never_true(s) && b.never_true(s),
            Pred::Not(p) => p.never_false(s),
            Pred::Const(t) => *t != Truth::True,
        }
    }

    /// Never evaluates to `False` when all attributes in `s` are null.
    fn never_false(&self, s: &BTreeSet<Attr>) -> bool {
        match self {
            Pred::Cmp { op, lhs, rhs } => {
                let touches = |x: &Scalar| x.attr_ref().is_some_and(|a| s.contains(a));
                let lit_null = |x: &Scalar| matches!(x, Scalar::Lit(v) if v.is_null());
                if touches(lhs) || touches(rhs) || lit_null(lhs) || lit_null(rhs) {
                    return true; // Unknown, not False
                }
                match (lhs, rhs) {
                    (Scalar::Lit(a), Scalar::Lit(b)) => match a.cmp3(b) {
                        None => true,
                        Some(ord) => op.test(ord),
                    },
                    _ => false,
                }
            }
            Pred::IsNull(x) => match x {
                Scalar::Attr(a) => s.contains(a), // null attr ⇒ True
                Scalar::Lit(v) => v.is_null(),
            },
            Pred::And(a, b) => a.never_false(s) && b.never_false(s),
            Pred::Or(a, b) => a.never_false(s) || b.never_false(s),
            Pred::Not(p) => p.never_true(s),
            Pred::Const(t) => *t != Truth::False,
        }
    }

    /// Whether every top-level conjunct references attributes from both
    /// relation sets — the paper's `⊙` convention ("any conjunct in the
    /// operator has to reference attributes in both X and Y").
    #[must_use]
    pub fn conjuncts_span(&self, left: &BTreeSet<String>, right: &BTreeSet<String>) -> bool {
        self.conjuncts().iter().all(|c| {
            let rels = c.rels();
            rels.iter().any(|r| left.contains(r)) && rels.iter().any(|r| right.contains(r))
        })
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Pred::IsNull(s) => write!(f, "{s} is null"),
            Pred::And(a, b) => write!(f, "({a} and {b})"),
            Pred::Or(a, b) => write!(f, "({a} or {b})"),
            Pred::Not(p) => write!(f, "not ({p})"),
            Pred::Const(t) => write!(f, "{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attr::parse("R.a"),
            Attr::parse("R.b"),
            Attr::parse("S.c"),
        ])
        .unwrap()
    }

    fn tup(vals: &[Option<i64>]) -> Tuple {
        vals.iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect()
    }

    #[test]
    fn eval_comparisons() {
        let s = schema();
        let p = Pred::eq_attr("R.a", "S.c");
        assert_eq!(
            p.eval(&tup(&[Some(1), Some(0), Some(1)]), &s).unwrap(),
            Truth::True
        );
        assert_eq!(
            p.eval(&tup(&[Some(1), Some(0), Some(2)]), &s).unwrap(),
            Truth::False
        );
        assert_eq!(
            p.eval(&tup(&[None, Some(0), Some(2)]), &s).unwrap(),
            Truth::Unknown
        );
        let lt = Pred::cmp_attr("R.a", CmpOp::Lt, "S.c");
        assert_eq!(
            lt.eval(&tup(&[Some(1), None, Some(2)]), &s).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn eval_is_null_and_boolean_ops() {
        let s = schema();
        let p = Pred::is_null("R.a").or(Pred::eq_attr("R.a", "S.c"));
        assert_eq!(
            p.eval(&tup(&[None, None, Some(1)]), &s).unwrap(),
            Truth::True
        );
        let q = Pred::eq_attr("R.a", "S.c").not();
        assert_eq!(
            q.eval(&tup(&[None, None, Some(1)]), &s).unwrap(),
            Truth::Unknown
        );
    }

    #[test]
    fn unknown_attr_errors() {
        let s = schema();
        let p = Pred::eq_attr("T.z", "R.a");
        assert!(matches!(
            p.eval(&tup(&[Some(1), Some(1), Some(1)]), &s),
            Err(AlgebraError::UnknownAttr { .. })
        ));
    }

    #[test]
    fn equality_is_strong_on_both_sides() {
        let p = Pred::eq_attr("R.a", "S.c");
        assert!(p.is_strong_on_rel("R"));
        assert!(p.is_strong_on_rel("S"));
    }

    #[test]
    fn example3_predicate_is_not_strong() {
        // P_bc = (B.attr2 = C.attr1 or B.attr2 is null) — paper Example 3.
        let p = Pred::eq_attr("B.attr2", "C.attr1").or(Pred::is_null("B.attr2"));
        assert!(!p.is_strong_on_rel("B"));
        // Nulling only C.attr1 leaves "B.attr2 is null" free to be True,
        // so the disjunction is not strong on C either.
        assert!(!p.is_strong_on_rel("C"));
    }

    #[test]
    fn not_of_equality_is_strong() {
        // NOT (R.a = S.c) is Unknown when R.a is null ⇒ never True ⇒ strong.
        let p = Pred::eq_attr("R.a", "S.c").not();
        assert!(p.is_strong_on_rel("R"));
    }

    #[test]
    fn not_of_is_null_is_strong() {
        // NOT (R.a IS NULL) is False when R.a is null ⇒ strong on R.
        let p = Pred::is_null("R.a").not();
        assert!(p.is_strong_on_rel("R"));
    }

    #[test]
    fn is_null_is_not_strong() {
        assert!(!Pred::is_null("R.a").is_strong_on_rel("R"));
    }

    #[test]
    fn and_strong_if_either_conjunct_strong() {
        let p = Pred::eq_attr("R.a", "S.c").and(Pred::is_null("R.b"));
        assert!(p.is_strong_on_rel("R"));
        assert!(p.is_strong_on_rel("S"));
        let q = Pred::is_null("R.a").and(Pred::is_null("R.b"));
        assert!(!q.is_strong_on_rel("R"));
    }

    #[test]
    fn strongness_matches_semantics_on_null_tuple() {
        // Brute-force check: for each predicate, nulling all R-attrs
        // must give non-True evaluation iff analysis says strong.
        let s = schema();
        let preds = [
            Pred::eq_attr("R.a", "S.c"),
            Pred::is_null("R.a"),
            Pred::eq_attr("R.a", "S.c").or(Pred::is_null("R.a")),
            Pred::eq_attr("R.a", "S.c").not(),
            Pred::cmp_lit("R.b", CmpOp::Gt, 10),
        ];
        for p in preds {
            let strong = p.is_strong_on_rel("R");
            // Evaluate with all R attrs null, across a few S values.
            let mut can_be_true = false;
            for c in [Some(0), Some(1), None] {
                let t = tup(&[None, None, c]);
                if p.eval(&t, &s).unwrap().is_true() {
                    can_be_true = true;
                }
            }
            assert_eq!(strong, !can_be_true, "predicate {p}");
        }
    }

    #[test]
    fn canonical_spelling_ignores_operand_order_and_conjunct_order() {
        let lt = Pred::cmp_attr("R.a", CmpOp::Lt, "S.b");
        let eq = Pred::eq_attr("R.k", "S.k");
        let ne = Pred::cmp_lit("S.v", CmpOp::Ne, 3);
        let written = eq.clone().and(lt.clone()).and(ne.clone());
        let flipped = Pred::cmp_attr("S.b", CmpOp::Gt, "R.a")
            .and(Pred::cmp(CmpOp::Ne, Scalar::int(3), Scalar::attr("S.v")))
            .and(Pred::eq_attr("S.k", "R.k"));
        assert_ne!(written, flipped);
        assert_eq!(written.canonical(), flipped.canonical());
        assert_eq!(written.canonical().canonical(), written.canonical());
        // A spelling that is already canonical is kept as written.
        assert_eq!(eq.canonical(), eq);
        assert_eq!(lt.canonical(), lt);
        let ge = Pred::cmp_attr("R.a", CmpOp::Ge, "S.b");
        assert_eq!(ge.canonical(), Pred::cmp_attr("S.b", CmpOp::Le, "R.a"));
        // Meaning is kept: `<` is not turned into `<=` or reversed.
        assert_ne!(
            lt.canonical(),
            Pred::cmp_attr("S.b", CmpOp::Lt, "R.a").canonical()
        );
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let p = Pred::eq_attr("R.a", "S.c").and(Pred::eq_attr("R.b", "S.c").and(Pred::cmp_lit(
            "R.a",
            CmpOp::Gt,
            0,
        )));
        assert_eq!(p.conjuncts().len(), 3);
        let rebuilt = Pred::from_conjuncts(p.conjuncts());
        assert_eq!(rebuilt.conjuncts().len(), 3);
    }

    #[test]
    fn from_conjuncts_empty_is_always() {
        assert_eq!(Pred::from_conjuncts([]), Pred::always());
    }

    #[test]
    fn constant_folding() {
        assert_eq!(
            Pred::always().and(Pred::eq_attr("R.a", "S.c")),
            Pred::eq_attr("R.a", "S.c")
        );
        assert_eq!(
            Pred::Const(Truth::False).or(Pred::eq_attr("R.a", "S.c")),
            Pred::eq_attr("R.a", "S.c")
        );
        assert_eq!(Pred::always().not(), Pred::Const(Truth::False));
        assert_eq!(
            Pred::eq_attr("R.a", "S.c").not().not(),
            Pred::eq_attr("R.a", "S.c")
        );
    }

    #[test]
    fn conjuncts_span_checks_both_sides() {
        let l: BTreeSet<String> = ["R".to_owned()].into();
        let r: BTreeSet<String> = ["S".to_owned()].into();
        assert!(Pred::eq_attr("R.a", "S.c").conjuncts_span(&l, &r));
        assert!(!Pred::cmp_lit("R.a", CmpOp::Gt, 0).conjuncts_span(&l, &r));
        let mixed = Pred::eq_attr("R.a", "S.c").and(Pred::cmp_lit("R.b", CmpOp::Gt, 0));
        assert!(!mixed.conjuncts_span(&l, &r));
    }

    #[test]
    fn attrs_and_rels() {
        let p = Pred::eq_attr("R.a", "S.c").and(Pred::is_null("R.b"));
        assert_eq!(p.attrs().len(), 3);
        let rels = p.rels();
        assert!(rels.contains("R") && rels.contains("S"));
    }

    #[test]
    fn display_round_trippable_by_eye() {
        let p = Pred::eq_attr("R.a", "S.c").and(Pred::is_null("R.b"));
        assert_eq!(p.to_string(), "(R.a = S.c and R.b is null)");
    }

    #[test]
    fn literal_only_predicates() {
        let s = schema();
        let t = tup(&[Some(1), Some(1), Some(1)]);
        let p = Pred::cmp(CmpOp::Lt, Scalar::int(1), Scalar::int(2));
        assert_eq!(p.eval(&t, &s).unwrap(), Truth::True);
        // Unsatisfiable literal comparison is strong w.r.t. anything.
        let q = Pred::cmp(CmpOp::Lt, Scalar::int(2), Scalar::int(1));
        assert!(q.is_strong(&BTreeSet::new()));
    }

    #[test]
    fn flipped_ops() {
        use std::cmp::Ordering::*;
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for ord in [Less, Equal, Greater] {
                assert_eq!(op.test(ord), op.flipped().test(ord.reverse()));
            }
        }
    }
}
