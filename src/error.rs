//! The unified error type of the `fro` facade.
//!
//! Each layer of the workspace keeps its own error enum
//! ([`LangError`], [`OptError`], [`ExecError`]); the [`Session`] front
//! door folds them into one [`FroError`] so applications match on a
//! single type and log a single stable [`FroError::code`] string.
//!
//! [`Session`]: crate::Session

use fro_core::optimizer::OptError;
use fro_exec::ExecError;
use fro_lang::LangError;
use fro_wire::WireError;
use std::fmt;

/// Any failure between source text (or an algebra [`Query`]) and an
/// executed result.
///
/// [`Query`]: fro_algebra::Query
#[derive(Debug, Clone, PartialEq)]
pub enum FroError {
    /// Parsing, translation or reference evaluation of a §5 query
    /// block failed.
    Lang(LangError),
    /// The optimizer rejected the query.
    Opt(OptError),
    /// The execution engine failed (unknown table, missing index, …).
    Exec(ExecError),
    /// [`Session::query`] was called on a session constructed without
    /// an entity model ([`Session::from_entity_db`] provides one).
    ///
    /// [`Session::query`]: crate::Session::query
    /// [`Session::from_entity_db`]: crate::Session::from_entity_db
    NoEntityModel,
    /// The wire codec failed: a malformed plan blob or protocol frame
    /// (`WIRE_FORMAT`), or a socket failure on a client or server
    /// connection (`WIRE_IO`).
    Wire(WireError),
    /// A standing-query poll named an id no registration ever issued
    /// (or one issued by a *different* shared database).
    UnknownStanding(u64),
    /// A server reported a failure over the wire protocol. `code` is
    /// the remote [`FroError::code`] string (so the original failure
    /// shape survives the round trip), `message` its rendered text.
    Remote {
        /// The stable error code the server reported.
        code: String,
        /// The server's rendered error message.
        message: String,
    },
}

impl FroError {
    /// A stable machine-readable code, one per failure shape. Codes
    /// never change meaning across releases; new codes may be added.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            FroError::Lang(e) => match e {
                LangError::Lex { .. } => "LANG_LEX",
                LangError::Parse(_) => "LANG_PARSE",
                LangError::UnknownType(_) => "LANG_UNKNOWN_TYPE",
                LangError::UnknownField { .. } => "LANG_UNKNOWN_FIELD",
                LangError::WrongFieldKind { .. } => "LANG_WRONG_FIELD_KIND",
                LangError::AmbiguousField(_) => "LANG_AMBIGUOUS_FIELD",
                LangError::DuplicateAlias(_) => "LANG_DUPLICATE_ALIAS",
                LangError::RestrictionOnDerived(_) => "LANG_RESTRICTION_ON_DERIVED",
                LangError::UnknownAttr(_) => "LANG_UNKNOWN_ATTR",
                LangError::Disconnected => "LANG_DISCONNECTED",
                LangError::TooManyRelations(_) => "LANG_TOO_MANY_RELATIONS",
                LangError::NotReorderable(_) => "LANG_NOT_REORDERABLE",
                LangError::Eval(_) => "LANG_EVAL",
            },
            FroError::Opt(e) => match e {
                OptError::Unsupported(_) => "OPT_UNSUPPORTED",
                OptError::Disconnected => "OPT_DISCONNECTED",
            },
            FroError::Exec(e) => match e {
                ExecError::UnknownTable { .. } => "EXEC_UNKNOWN_TABLE",
                ExecError::MissingIndex { .. } => "EXEC_MISSING_INDEX",
                ExecError::KeyArityMismatch => "EXEC_KEY_ARITY_MISMATCH",
                ExecError::Algebra(_) => "EXEC_ALGEBRA",
            },
            FroError::NoEntityModel => "SESSION_NO_ENTITY_MODEL",
            FroError::UnknownStanding(_) => "STANDING_UNKNOWN",
            FroError::Wire(e) => match e {
                WireError::Io(_) => "WIRE_IO",
                _ => "WIRE_FORMAT",
            },
            FroError::Remote { .. } => "SERVER_REMOTE",
        }
    }
}

impl fmt::Display for FroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            FroError::Lang(e) => e.fmt(f),
            FroError::Opt(e) => e.fmt(f),
            FroError::Exec(e) => e.fmt(f),
            FroError::NoEntityModel => {
                write!(
                    f,
                    "session has no entity model; build it with Session::from_entity_db \
                     (or with_entity_db) before calling query()"
                )
            }
            FroError::UnknownStanding(id) => {
                write!(
                    f,
                    "no standing query is registered under id {id}; \
                     register one with Session::register_standing first"
                )
            }
            FroError::Wire(e) => e.fmt(f),
            FroError::Remote { code, message } => {
                write!(f, "server reported {code}: {message}")
            }
        }
    }
}

impl std::error::Error for FroError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FroError::Lang(e) => Some(e),
            FroError::Opt(e) => Some(e),
            FroError::Exec(e) => Some(e),
            FroError::NoEntityModel => None,
            FroError::UnknownStanding(_) => None,
            FroError::Wire(e) => Some(e),
            FroError::Remote { .. } => None,
        }
    }
}

impl From<WireError> for FroError {
    fn from(e: WireError) -> FroError {
        FroError::Wire(e)
    }
}

impl From<LangError> for FroError {
    fn from(e: LangError) -> FroError {
        FroError::Lang(e)
    }
}

impl From<OptError> for FroError {
    fn from(e: OptError) -> FroError {
        FroError::Opt(e)
    }
}

impl From<ExecError> for FroError {
    fn from(e: ExecError) -> FroError {
        FroError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_prefixed_by_layer() {
        let cases: Vec<(FroError, &str)> = vec![
            (LangError::Parse("x".into()).into(), "LANG_PARSE"),
            (LangError::Disconnected.into(), "LANG_DISCONNECTED"),
            (
                LangError::TooManyRelations(65).into(),
                "LANG_TOO_MANY_RELATIONS",
            ),
            (OptError::Disconnected.into(), "OPT_DISCONNECTED"),
            (OptError::Unsupported("n".into()).into(), "OPT_UNSUPPORTED"),
            (
                ExecError::UnknownTable {
                    name: "T".into(),
                    suggestion: None,
                }
                .into(),
                "EXEC_UNKNOWN_TABLE",
            ),
            (FroError::NoEntityModel, "SESSION_NO_ENTITY_MODEL"),
            (FroError::UnknownStanding(7), "STANDING_UNKNOWN"),
            (WireError::Io("nope".into()).into(), "WIRE_IO"),
            (
                WireError::UnknownTag {
                    what: "plan",
                    tag: 5,
                    at: 1,
                }
                .into(),
                "WIRE_FORMAT",
            ),
            (
                FroError::Remote {
                    code: "EXEC_UNKNOWN_TABLE".into(),
                    message: "unknown table".into(),
                },
                "SERVER_REMOTE",
            ),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code);
            // Display leads with the code so log lines are greppable.
            assert!(e.to_string().starts_with(&format!("[{code}]")), "{e}");
        }
    }

    #[test]
    fn source_exposes_the_layer_error() {
        use std::error::Error;
        let e: FroError = LangError::Parse("x".into()).into();
        assert!(e.source().is_some());
        assert!(FroError::NoEntityModel.source().is_none());
    }
}
