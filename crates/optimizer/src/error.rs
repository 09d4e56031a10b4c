//! Optimizer errors.

use std::fmt;

/// Errors returned by binding or optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizerError {
    /// A table referenced by the query does not exist in the catalog.
    UnknownTable(String),
    /// A column could not be resolved against any bound table.
    UnknownColumn(String),
    /// A column name is ambiguous between two bound tables.
    AmbiguousColumn(String),
    /// Two FROM-list entries expose the same name (`FROM t, t`).
    DuplicateBinding(String),
    /// The governor aborted the compilation (e.g. a gateway timeout).
    Aborted(String),
    /// The governor demanded a best-effort plan but exploration had not yet
    /// produced any complete physical plan.
    NoPlanAvailable,
    /// The query uses a feature the engine does not support.
    Unsupported(String),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            OptimizerError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            OptimizerError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            OptimizerError::DuplicateBinding(b) => {
                write!(f, "FROM list exposes the name {b} more than once")
            }
            OptimizerError::Aborted(why) => write!(f, "compilation aborted: {why}"),
            OptimizerError::NoPlanAvailable => {
                write!(f, "compilation interrupted before any plan was available")
            }
            OptimizerError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for OptimizerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_subject() {
        assert!(OptimizerError::UnknownTable("foo".into())
            .to_string()
            .contains("foo"));
        assert!(OptimizerError::UnknownColumn("bar".into())
            .to_string()
            .contains("bar"));
        assert!(OptimizerError::DuplicateBinding("baz".into())
            .to_string()
            .contains("baz"));
        assert!(OptimizerError::Aborted("timeout".into())
            .to_string()
            .contains("timeout"));
        assert!(OptimizerError::NoPlanAvailable
            .to_string()
            .contains("interrupted"));
    }
}
