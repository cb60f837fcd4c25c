//! Error type shared by model construction, compilation, and ADL validation.

use std::fmt;

/// Errors produced while building, compiling or validating application
/// models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A name (operator, composite, stream, host pool) was defined twice.
    DuplicateName(String),
    /// A referenced entity does not exist.
    Unknown(String),
    /// A port index is out of range for the operator it references.
    BadPort(String),
    /// Composite instantiation recursion (a composite that contains itself).
    RecursiveComposite(String),
    /// Partitioning constraints are unsatisfiable (e.g. two operators both
    /// colocated and exlocated).
    ConstraintConflict(String),
    /// Not enough hosts to satisfy placement.
    PlacementFailure(String),
    /// Anything else.
    Invalid(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateName(n) => write!(f, "duplicate name: {n}"),
            ModelError::Unknown(n) => write!(f, "unknown reference: {n}"),
            ModelError::BadPort(m) => write!(f, "bad port: {m}"),
            ModelError::RecursiveComposite(n) => {
                write!(
                    f,
                    "composite type {n} instantiates itself (directly or indirectly)"
                )
            }
            ModelError::ConstraintConflict(m) => write!(f, "constraint conflict: {m}"),
            ModelError::PlacementFailure(m) => write!(f, "placement failure: {m}"),
            ModelError::Invalid(m) => write!(f, "invalid model: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            ModelError::DuplicateName("op1".into()).to_string(),
            "duplicate name: op1"
        );
        assert!(ModelError::RecursiveComposite("c".into())
            .to_string()
            .contains("instantiates itself"));
    }
}
