//! Typed errors for the solver-facing API.
//!
//! [`McError`] is the error type of every `try_*` entry point in this
//! crate: input validation failures (delegated to
//! [`GeomError`]), oracle/input mismatches, bad
//! parameters, and fatal oracle failures. The CLI maps each class to a
//! distinct exit code.

use crate::oracle::OracleError;
use mc_geom::GeomError;
use std::fmt;

/// An error from a fallible solver entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum McError {
    /// Invalid geometric input (dimension mismatch, non-finite
    /// coordinate, non-positive weight, length mismatch).
    Geom(GeomError),
    /// A fatal oracle failure that the solver could not degrade around.
    Oracle(OracleError),
    /// The oracle does not cover exactly the input points.
    OracleSizeMismatch {
        /// Points behind the oracle.
        oracle: usize,
        /// Points in the input set.
        points: usize,
    },
    /// A parameter is out of range (ε, δ, φ divisor, …).
    InvalidParameter {
        /// Human-readable description, e.g. `"ε must lie in (0, 1], got 2"`.
        message: String,
    },
    /// The solve exceeded its deadline and stopped at a cooperative
    /// cancellation checkpoint ([`mc_obs::CancelCause::Deadline`]).
    Timeout,
    /// The solve was cancelled explicitly — e.g. by the stall watchdog
    /// under `mcc --watch-abort` ([`mc_obs::CancelCause::Explicit`]).
    Cancelled,
}

impl McError {
    /// Convenience constructor for [`McError::InvalidParameter`].
    pub fn invalid_parameter(message: impl Into<String>) -> Self {
        McError::InvalidParameter {
            message: message.into(),
        }
    }
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Geom(e) => e.fmt(f),
            McError::Oracle(e) => e.fmt(f),
            McError::OracleSizeMismatch { oracle, points } => write!(
                f,
                "oracle must cover exactly the input points: oracle has {oracle}, input has {points}"
            ),
            McError::InvalidParameter { message } => f.write_str(message),
            McError::Timeout => f.write_str("solve deadline expired"),
            McError::Cancelled => f.write_str("solve cancelled"),
        }
    }
}

impl std::error::Error for McError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McError::Geom(e) => Some(e),
            McError::Oracle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for McError {
    fn from(e: GeomError) -> Self {
        McError::Geom(e)
    }
}

impl From<OracleError> for McError {
    fn from(e: OracleError) -> Self {
        McError::Oracle(e)
    }
}

impl From<mc_obs::Cancelled> for McError {
    fn from(e: mc_obs::Cancelled) -> Self {
        match e.cause {
            mc_obs::CancelCause::Deadline => McError::Timeout,
            mc_obs::CancelCause::Explicit => McError::Cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = McError::OracleSizeMismatch {
            oracle: 3,
            points: 5,
        };
        assert!(e.to_string().contains("oracle must cover exactly"));
        let e = McError::invalid_parameter("ε must lie in (0, 1], got 2");
        assert_eq!(e.to_string(), "ε must lie in (0, 1], got 2");
        let e: McError = GeomError::ZeroDimension.into();
        assert_eq!(e.to_string(), "dimensionality must be at least 1");
        let e: McError = OracleError::Abstain { probe: 4 }.into();
        assert_eq!(e.to_string(), "oracle abstained on point 4");
        assert_eq!(McError::Timeout.to_string(), "solve deadline expired");
        assert_eq!(McError::Cancelled.to_string(), "solve cancelled");
    }

    #[test]
    fn cancellation_causes_map_to_distinct_variants() {
        let token = mc_obs::CancelToken::new();
        token.cancel();
        let e: McError = token.poll().unwrap_err().into();
        assert_eq!(e, McError::Cancelled);
        let token = mc_obs::CancelToken::with_deadline(std::time::Duration::ZERO);
        let e: McError = token.poll().unwrap_err().into();
        assert_eq!(e, McError::Timeout);
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e: McError = GeomError::ZeroDimension.into();
        assert!(e.source().is_some());
        assert!(McError::invalid_parameter("x").source().is_none());
    }
}
