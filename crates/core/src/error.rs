//! Error type for the CaRL engine.

use std::fmt;

/// Errors produced while building relational causal models, grounding them,
/// constructing unit tables, or answering causal queries.
#[derive(Debug)]
pub enum CarlError {
    /// An error bubbled up from the relational substrate.
    Rel(reldb::RelError),

    /// An error bubbled up from the CaRL language front end.
    Lang(carl_lang::LangError),

    /// An error bubbled up from the statistics substrate.
    Stats(carl_stats::StatsError),

    /// The program referenced an attribute that the schema does not declare
    /// and that no aggregate rule defines.
    UnknownAttribute(String),

    /// An attribute reference had the wrong number of arguments for the
    /// predicate it attaches to.
    AttributeArity {
        /// Attribute name.
        attr: String,
        /// Subject predicate.
        subject: String,
        /// Expected argument count.
        expected: usize,
        /// Written argument count.
        actual: usize,
    },

    /// A condition referenced an unknown predicate.
    UnknownPredicate(String),

    /// The treatment attribute is not binary.
    NonBinaryTreatment(String),

    /// Treatment and response are not relationally connected.
    NotRelationallyConnected {
        /// Treatment attribute name.
        treatment: String,
        /// Response attribute name.
        response: String,
    },

    /// The grounded causal graph contains a cycle.
    CyclicModel(String),

    /// A grounding request that cannot be served as asked (e.g. patching
    /// an epoch with a delta that is not attribute-patchable).
    Grounding(String),

    /// The unit table ended up empty (no units satisfied the query).
    EmptyUnitTable(String),

    /// A query asked about an attribute with no grounded values.
    NoValues(String),

    /// A unit-table input (named in the payload: the peer map or the
    /// adjustment plan) was built over a different unit list than the
    /// table, so its rows would not line up with the table's units.
    UnitListMismatch(String),

    /// Catch-all invalid-argument error.
    InvalidQuery(String),
}

impl fmt::Display for CarlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rel(source) => write!(f, "relational error: {source}"),
            Self::Lang(source) => write!(f, "language error: {source}"),
            Self::Stats(source) => write!(f, "estimation error: {source}"),
            Self::UnknownAttribute(name) => write!(
                f,
                "unknown attribute `{name}` (not in the schema and not defined by an aggregate rule)"
            ),
            Self::AttributeArity {
                attr,
                subject,
                expected,
                actual,
            } => write!(
                f,
                "attribute `{attr}` attaches to `{subject}` with arity {expected}, \
                 but was written with {actual} argument(s)"
            ),
            Self::UnknownPredicate(name) => write!(f, "unknown predicate `{name}` in WHERE clause"),
            Self::NonBinaryTreatment(name) => write!(
                f,
                "treatment attribute `{name}` must be binary (bool-valued); \
                 binarise it with a comparison or a derived attribute"
            ),
            Self::NotRelationallyConnected {
                treatment,
                response,
            } => write!(
                f,
                "treatment `{treatment}` and response `{response}` are not relationally \
                 connected by any relational path"
            ),
            Self::CyclicModel(name) => write!(
                f,
                "the grounded causal graph contains a cycle through `{name}`; \
                 the relational causal model must be non-recursive"
            ),
            Self::Grounding(message) => write!(f, "grounding error: {message}"),
            Self::EmptyUnitTable(message) => {
                write!(f, "the unit table for this query is empty: {message}")
            }
            Self::NoValues(name) => write!(
                f,
                "attribute `{name}` has no observed or derived values in this instance"
            ),
            Self::UnitListMismatch(input) => write!(
                f,
                "the {input} was built over a different unit list than the unit table"
            ),
            Self::InvalidQuery(message) => write!(f, "invalid query: {message}"),
        }
    }
}

impl std::error::Error for CarlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Rel(source) => Some(source),
            Self::Lang(source) => Some(source),
            Self::Stats(source) => Some(source),
            _ => None,
        }
    }
}

impl From<reldb::RelError> for CarlError {
    fn from(source: reldb::RelError) -> Self {
        Self::Rel(source)
    }
}

impl From<carl_lang::LangError> for CarlError {
    fn from(source: carl_lang::LangError) -> Self {
        Self::Lang(source)
    }
}

impl From<carl_stats::StatsError> for CarlError {
    fn from(source: carl_stats::StatsError) -> Self {
        Self::Stats(source)
    }
}

/// Result alias for this crate.
pub type CarlResult<T> = Result<T, CarlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CarlError::NotRelationallyConnected {
            treatment: "Prestige".into(),
            response: "Bill".into(),
        };
        assert!(e.to_string().contains("Prestige"));
        assert!(e.to_string().contains("Bill"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let rel: CarlError = reldb::RelError::UnknownAttribute("X".into()).into();
        assert!(matches!(rel, CarlError::Rel(_)));
        let lang: CarlError = carl_lang::LangError::Validation("bad".into()).into();
        assert!(matches!(lang, CarlError::Lang(_)));
        let stats: CarlError = carl_stats::StatsError::EmptyArm("treated".into()).into();
        assert!(matches!(stats, CarlError::Stats(_)));
    }
}
