//! Typed validation errors for the geometric substrate.
//!
//! The panicking constructors ([`PointSet::push`](crate::PointSet::push)
//! and friends) stay available for internal code working on
//! already-validated data; the `try_*` variants return these errors
//! instead of unwinding, and are what user-facing entry points (CSV
//! ingestion, the CLI, the `try_solve` solver paths) build on.

use std::fmt;

/// A validation failure on geometric input.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A point's coordinate count disagrees with the set's dimensionality.
    DimensionMismatch {
        /// The set's dimensionality.
        expected: usize,
        /// The offending point's coordinate count.
        actual: usize,
    },
    /// A coordinate is NaN or infinite, which would poison every
    /// dominance comparison involving the point.
    NonFiniteCoordinate {
        /// Index of the point within the batch being validated.
        index: usize,
        /// The offending axis.
        axis: usize,
        /// The offending value.
        value: f64,
    },
    /// A weight is zero, negative, NaN, or infinite (the paper requires
    /// positive finite real weights).
    NonPositiveWeight {
        /// Index of the point within the batch being validated.
        index: usize,
        /// The offending weight.
        weight: f64,
    },
    /// Parallel arrays (points vs. labels or weights) differ in length.
    LengthMismatch {
        /// Number of points.
        points: usize,
        /// Length of the companion array.
        other: usize,
        /// What the companion array holds (`"labels"` or `"weights"`).
        what: &'static str,
    },
    /// A point set cannot have dimensionality zero.
    ZeroDimension,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::DimensionMismatch { expected, actual } => write!(
                f,
                "point has dimension {actual} but the set has dimension {expected}"
            ),
            GeomError::NonFiniteCoordinate { index, axis, value } => write!(
                f,
                "point {index}, axis {axis}: coordinate {value} is not finite"
            ),
            GeomError::NonPositiveWeight { index, weight } => write!(
                f,
                "weight of point {index} is {weight}; weights must be positive and finite"
            ),
            GeomError::LengthMismatch {
                points,
                other,
                what,
            } => write!(f, "{points} points but {other} {what}"),
            GeomError::ZeroDimension => write!(f, "dimensionality must be at least 1"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Validates one coordinate row: length and finiteness.
pub(crate) fn check_coords(dim: usize, index: usize, coords: &[f64]) -> Result<(), GeomError> {
    if coords.len() != dim {
        return Err(GeomError::DimensionMismatch {
            expected: dim,
            actual: coords.len(),
        });
    }
    for (axis, &value) in coords.iter().enumerate() {
        if !value.is_finite() {
            return Err(GeomError::NonFiniteCoordinate { index, axis, value });
        }
    }
    Ok(())
}

/// Validates one weight: strictly positive and finite.
pub(crate) fn check_weight(index: usize, weight: f64) -> Result<(), GeomError> {
    if weight > 0.0 && weight.is_finite() {
        Ok(())
    } else {
        Err(GeomError::NonPositiveWeight { index, weight })
    }
}
