//! Errors for the language front-end.

use fro_graph::QueryGraph;
use std::fmt;

/// Anything that can go wrong between source text and a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte offset of the offending character.
        at: usize,
        /// Description.
        msg: String,
    },
    /// Parse error.
    Parse(String),
    /// The From-List names an entity type the database does not have.
    UnknownType(String),
    /// A path step names a field the accumulated relations don't have.
    UnknownField {
        /// The field name.
        field: String,
        /// The From-item base it was applied within.
        item: String,
    },
    /// A `*` step applied to a non-set field, or `-->` to a non-ref.
    WrongFieldKind {
        /// The field name.
        field: String,
        /// What the step required.
        expected: &'static str,
    },
    /// A path step's field name is ambiguous among accumulated
    /// relations.
    AmbiguousField(String),
    /// Two From-items introduce the same relation alias.
    DuplicateAlias(String),
    /// A Where-List predicate references an attribute from the right
    /// side of `*`/`-->` — forbidden (§5.1: "the position of the
    /// restriction predicate would be ambiguous").
    RestrictionOnDerived(String),
    /// A Where-List predicate references an unknown alias/attribute.
    UnknownAttr(String),
    /// The block's relations are not connected by join conditions.
    Disconnected,
    /// The block has more relations (From-items plus UnNest/Link
    /// steps) than a query graph holds; carries the count.
    TooManyRelations(usize),
    /// The block failed the Theorem 1 check — per §5.3 this is
    /// unreachable for well-formed blocks; surfaced rather than
    /// asserted so a bug cannot silently reorder a non-reorderable
    /// query.
    NotReorderable(String),
    /// An algebra-level failure during evaluation.
    Eval(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { at, msg } => write!(f, "lex error at byte {at}: {msg}"),
            LangError::Parse(m) => write!(f, "parse error: {m}"),
            LangError::UnknownType(t) => write!(f, "unknown entity type `{t}`"),
            LangError::UnknownField { field, item } => {
                write!(f, "no relation in from-item `{item}` has field `{field}`")
            }
            LangError::WrongFieldKind { field, expected } => {
                write!(f, "field `{field}` is not {expected}")
            }
            LangError::AmbiguousField(fld) => {
                write!(f, "field `{fld}` is ambiguous in this from-item")
            }
            LangError::DuplicateAlias(a) => write!(f, "duplicate relation alias `{a}`"),
            LangError::RestrictionOnDerived(a) => write!(
                f,
                "attribute `{a}` comes from the right side of */--> and cannot appear in WHERE"
            ),
            LangError::UnknownAttr(a) => write!(f, "unknown attribute `{a}` in WHERE"),
            LangError::Disconnected => {
                write!(
                    f,
                    "query block relations are not connected by join conditions"
                )
            }
            LangError::TooManyRelations(n) => write!(
                f,
                "query block has {n} relations; a block holds at most {}",
                QueryGraph::MAX_NODES
            ),
            LangError::NotReorderable(m) => write!(
                f,
                "internal: translated block is not freely reorderable ({m}) — this contradicts §5.3"
            ),
            LangError::Eval(m) => write!(f, "evaluation failed: {m}"),
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        assert!(LangError::UnknownType("X".into()).to_string().contains('X'));
        assert!(LangError::Lex {
            at: 3,
            msg: "bad".into()
        }
        .to_string()
        .contains('3'));
        let e = LangError::UnknownField {
            field: "f".into(),
            item: "E".into(),
        };
        assert!(e.to_string().contains('f') && e.to_string().contains('E'));
        assert!(LangError::RestrictionOnDerived("E_f.x".into())
            .to_string()
            .contains("WHERE"));
    }
}
