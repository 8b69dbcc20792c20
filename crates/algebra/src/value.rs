//! Attribute values, including the null value used for outerjoin padding.

use crate::truth::Truth;
use std::fmt;

/// A single attribute value.
///
/// The paper's data model needs nothing beyond atomic comparable values
/// plus the distinguished null used when padding non-matched tuples
/// (§1.2). We provide 64-bit integers, strings and booleans; all
/// comparisons follow SQL semantics: any comparison that touches
/// [`Value::Null`] is [`Truth::Unknown`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The null value (absent / padded).
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Whether this value is the null value.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Three-valued equality: `Unknown` if either side is null,
    /// `False` if the types differ.
    #[must_use]
    pub fn eq3(&self, other: &Value) -> Truth {
        self.cmp3(other).map_or(Truth::Unknown, |o| {
            Truth::from_bool(o == std::cmp::Ordering::Equal)
        })
    }

    /// Three-valued comparison. Returns `None` when either side is
    /// null; comparisons across types order by type tag (Int < Str <
    /// Bool), which keeps mixed-type test databases total without
    /// affecting any paper semantics (predicates in the paper compare
    /// like-typed attributes).
    #[must_use]
    pub fn cmp3(&self, other: &Value) -> Option<std::cmp::Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }

    /// A short type tag for diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::Bool(_) => "bool",
        }
    }
}

/// A [`Value`] read in place: a string is a `&str` into wherever it is
/// stored (a column dictionary's buffer), so nothing is cloned to hash
/// or compare it. Its variants are [`Value`]'s, in the same order, so
/// the derived `Hash` and `Ord` hash and order it exactly as the owned
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Str(&'a str),
    Bool(bool),
}

impl ValueRef<'_> {
    pub(crate) fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The owned value.
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bool(v) => Value::Bool(v),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(v) => ValueRef::Bool(*v),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "-"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.eq3(&Value::Int(1)), Truth::Unknown);
        assert_eq!(Value::Int(1).eq3(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Null.eq3(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Null.cmp3(&Value::Int(3)), None);
    }

    #[test]
    fn definite_equality() {
        assert_eq!(Value::Int(4).eq3(&Value::Int(4)), Truth::True);
        assert_eq!(Value::Int(4).eq3(&Value::Int(5)), Truth::False);
        assert_eq!(Value::str("a").eq3(&Value::str("a")), Truth::True);
    }

    #[test]
    fn ordering_within_type() {
        assert_eq!(Value::Int(1).cmp3(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").cmp3(&Value::str("a")),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn cross_type_comparison_is_total_and_definite() {
        // Needed so canonical sorting of mixed test data is stable.
        let t = Value::Int(1).cmp3(&Value::str("a"));
        assert!(t.is_some());
        assert_eq!(Value::Int(1).eq3(&Value::str("a")), Truth::False);
    }

    #[test]
    fn null_sorts_first_in_total_order() {
        // The derived Ord (used for canonicalization only) puts Null first.
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn display_uses_paper_dash_for_null() {
        assert_eq!(Value::Null.to_string(), "-");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("x").to_string(), "'x'");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("t")), Value::Str("t".into()));
    }

    #[test]
    fn a_value_ref_hashes_and_orders_as_its_value() {
        use crate::fasthash::FastHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b = BuildHasherDefault::<FastHasher>::default();
        let values = [
            Value::Null,
            Value::Int(-3),
            Value::Int(7),
            Value::str(""),
            Value::str("a"),
            Value::str("city-1"),
            Value::str("ü-longer-than-eight-bytes"),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for v in &values {
            let r = ValueRef::from(v);
            assert_eq!(b.hash_one(r), b.hash_one(v), "{v:?}");
            assert_eq!(r.to_value(), *v);
            assert_eq!(r.is_null(), v.is_null());
            for w in &values {
                assert_eq!(r.cmp(&ValueRef::from(w)), v.cmp(w), "{v:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Int(0).type_name(), "int");
        assert_eq!(Value::str("").type_name(), "str");
        assert_eq!(Value::Bool(false).type_name(), "bool");
    }
}
