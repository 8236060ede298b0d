//! Error type for the evolutionary rule system.

use crate::checkpoint::CheckpointError;
use evoforecast_linalg::LinalgError;
use evoforecast_tsdata::DataError;
use std::fmt;

/// Why one ensemble execution failed, as classified by the supervisor's
/// panic-isolation boundary.
#[derive(Debug)]
pub enum FailureKind {
    /// The worker panicked; the payload message when it was a string.
    Panic(String),
    /// The worker returned an ordinary error.
    Error(Box<EvoError>),
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::Error(e) => write!(f, "error: {e}"),
        }
    }
}

/// Errors produced when configuring or running the rule system.
#[derive(Debug)]
pub enum EvoError {
    /// Invalid configuration (zero population, bad probabilities, ...).
    InvalidConfig(String),
    /// A data/windowing problem from the substrate.
    Data(DataError),
    /// A linear-algebra failure that could not be recovered by the ridge
    /// fallback (should be rare).
    Linalg(LinalgError),
    /// The initializer produced no viable rules (e.g. constant series).
    EmptyInitialization,
    /// One ensemble execution failed (panicked or errored), with the retry
    /// context the supervisor accumulated before giving up.
    ExecutionFailure {
        /// Zero-based execution slot.
        execution: usize,
        /// Seed of the last failed attempt.
        seed: u64,
        /// Attempts made (1 = the first try, no retries granted or left).
        attempts: u32,
        /// The last failure, classified.
        kind: FailureKind,
    },
    /// A checkpoint file could not be written, read, or trusted.
    Checkpoint(CheckpointError),
}

impl EvoError {
    /// Whether retrying the failed operation with a fresh (derived) seed can
    /// plausibly succeed. Configuration, data and checkpoint errors are
    /// deterministic — retrying reproduces them — while panics, numeric
    /// failures and empty initializations are seed- or state-dependent.
    pub(crate) fn is_retryable(&self) -> bool {
        match self {
            EvoError::InvalidConfig(_) | EvoError::Data(_) | EvoError::Checkpoint(_) => false,
            EvoError::Linalg(_) | EvoError::EmptyInitialization => true,
            EvoError::ExecutionFailure { kind, .. } => match kind {
                FailureKind::Panic(_) => true,
                FailureKind::Error(inner) => inner.is_retryable(),
            },
        }
    }
}

impl fmt::Display for EvoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvoError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EvoError::Data(e) => write!(f, "data error: {e}"),
            EvoError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            EvoError::EmptyInitialization => {
                write!(f, "initialization produced no viable rules")
            }
            EvoError::ExecutionFailure {
                execution,
                seed,
                attempts,
                kind,
            } => write!(
                f,
                "execution {execution} failed after {attempts} attempt(s) \
                 (last seed {seed}): {kind}"
            ),
            EvoError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for EvoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvoError::Data(e) => Some(e),
            EvoError::Linalg(e) => Some(e),
            EvoError::Checkpoint(e) => Some(e),
            EvoError::ExecutionFailure { kind, .. } => match kind {
                FailureKind::Error(inner) => Some(inner.as_ref()),
                FailureKind::Panic(_) => None,
            },
            _ => None,
        }
    }
}

impl From<DataError> for EvoError {
    fn from(e: DataError) -> Self {
        EvoError::Data(e)
    }
}

impl From<LinalgError> for EvoError {
    fn from(e: LinalgError) -> Self {
        EvoError::Linalg(e)
    }
}

impl From<CheckpointError> for EvoError {
    fn from(e: CheckpointError) -> Self {
        EvoError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EvoError::InvalidConfig("pop=0".into())
            .to_string()
            .contains("pop=0"));
        assert!(EvoError::EmptyInitialization
            .to_string()
            .contains("no viable"));
        let d: EvoError = DataError::EmptySeries.into();
        assert!(d.to_string().contains("data error"));
        let l: EvoError = LinalgError::Singular.into();
        assert!(l.to_string().contains("linear algebra"));
    }

    #[test]
    fn sources_wired() {
        use std::error::Error;
        let d: EvoError = DataError::EmptySeries.into();
        assert!(d.source().is_some());
        assert!(EvoError::EmptyInitialization.source().is_none());
    }

    #[test]
    fn execution_failure_display_and_source() {
        use std::error::Error;
        let panic = EvoError::ExecutionFailure {
            execution: 3,
            seed: 42,
            attempts: 2,
            kind: FailureKind::Panic("index out of bounds".into()),
        };
        let text = panic.to_string();
        assert!(text.contains("execution 3"));
        assert!(text.contains("2 attempt"));
        assert!(text.contains("index out of bounds"));
        assert!(panic.source().is_none(), "panics have no error source");

        let wrapped = EvoError::ExecutionFailure {
            execution: 0,
            seed: 7,
            attempts: 1,
            kind: FailureKind::Error(Box::new(EvoError::Linalg(LinalgError::Singular))),
        };
        assert!(wrapped.source().is_some(), "wrapped errors expose a source");
    }

    #[test]
    fn checkpoint_errors_wrap_with_source() {
        use std::error::Error;
        let e: EvoError = CheckpointError::VersionMismatch {
            found: 9,
            expected: 1,
        }
        .into();
        assert!(e.to_string().contains("checkpoint"));
        assert!(e.source().is_some());
    }

    #[test]
    fn retryability_classification() {
        assert!(!EvoError::InvalidConfig("x".into()).is_retryable());
        assert!(!EvoError::Data(DataError::EmptySeries).is_retryable());
        assert!(!EvoError::Checkpoint(CheckpointError::Corrupt("x".into())).is_retryable());
        assert!(EvoError::Linalg(LinalgError::Singular).is_retryable());
        assert!(EvoError::EmptyInitialization.is_retryable());
        // Panics are retryable; wrapped errors inherit the inner verdict.
        assert!(EvoError::ExecutionFailure {
            execution: 0,
            seed: 0,
            attempts: 1,
            kind: FailureKind::Panic("boom".into()),
        }
        .is_retryable());
        assert!(!EvoError::ExecutionFailure {
            execution: 0,
            seed: 0,
            attempts: 1,
            kind: FailureKind::Error(Box::new(EvoError::InvalidConfig("x".into()))),
        }
        .is_retryable());
    }
}
