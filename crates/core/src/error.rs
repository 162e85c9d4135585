//! Error type for the Stabilizer core library.

use stabilizer_dsl::DslError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the Stabilizer core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Configuration-file or builder error.
    Config(String),
    /// A predicate failed to compile.
    Dsl(DslError),
    /// `publish` would exceed the send-buffer capacity; retry after the
    /// stability frontier advances and space is reclaimed.
    WouldBlock {
        /// Bytes currently buffered.
        buffered: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The payload exceeds `max_payload_bytes`.
    PayloadTooLarge {
        /// Attempted payload size.
        size: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A predicate was rejected at install time by static analysis
    /// (`option analysis deny`): it carried error- or warning-level
    /// findings. The rendered diagnostics are included verbatim.
    PredicateRejected {
        /// The predicate key being installed.
        key: String,
        /// Human-rendered analyzer findings.
        report: String,
    },
    /// Reference to an unregistered predicate key.
    UnknownPredicate(String),
    /// Reference to a stream whose origin is not in the topology.
    UnknownStream(String),
    /// A restored node does not publish until every unsuspected replica
    /// of its stream has reported how far it received it: retry later.
    Fenced,
    /// A malformed wire frame was received.
    Wire(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Config(m) => write!(f, "configuration error: {m}"),
            CoreError::Dsl(e) => write!(f, "predicate error: {e}"),
            CoreError::WouldBlock { buffered, capacity } => {
                write!(f, "send buffer full ({buffered}/{capacity} bytes)")
            }
            CoreError::PayloadTooLarge { size, max } => {
                write!(f, "payload of {size} bytes exceeds maximum {max}")
            }
            CoreError::PredicateRejected { key, report } => {
                write!(
                    f,
                    "predicate {key:?} rejected by static analysis:\n{report}"
                )
            }
            CoreError::UnknownPredicate(k) => write!(f, "unknown predicate {k:?}"),
            CoreError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            CoreError::Fenced => write!(f, "restored stream fenced until its replicas report"),
            CoreError::Wire(m) => write!(f, "wire format error: {m}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Dsl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DslError> for CoreError {
    fn from(e: DslError) -> Self {
        CoreError::Dsl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::WouldBlock {
            buffered: 10,
            capacity: 8,
        };
        assert!(e.to_string().contains("10/8"));
        let e = CoreError::UnknownPredicate("Q".into());
        assert!(e.to_string().contains("\"Q\""));
    }

    #[test]
    fn dsl_error_is_source() {
        let e = CoreError::from(DslError::Resolve("x".into()));
        assert!(e.source().is_some());
    }
}
