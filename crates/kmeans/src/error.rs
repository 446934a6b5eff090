//! Typed estimator errors.
//!
//! The estimator used to report every misuse through
//! [`SimError::InvalidConfig`] with a formatted string, which callers could
//! neither match on nor test precisely. [`KMeansError`] is the structured
//! replacement: configuration problems name the offending field, shape
//! problems carry both shapes, and genuine simulator failures pass through
//! unchanged.

use gpu_sim::{Matrix, Scalar, SimError};
use std::fmt;

/// Errors surfaced by the estimator API ([`crate::Session`],
/// [`crate::KMeans`], [`crate::FittedModel`]).
///
/// ```
/// use kmeans::{KMeansConfig, KMeansError};
///
/// // k = 0 can never cluster anything; the error names the field.
/// let err = KMeansConfig::new(0).validate(10, 2).unwrap_err();
/// assert!(matches!(err, KMeansError::InvalidConfig { field: "k", .. }));
/// assert!(err.to_string().contains("k"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum KMeansError {
    /// A configuration field holds an unusable value for this problem.
    InvalidConfig {
        /// The [`crate::KMeansConfig`] field (or pseudo-field) at fault.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// Two matrices that must agree in shape do not.
    ShapeMismatch {
        /// What was being shape-checked (e.g. "samples", "batch",
        /// "warm-start centroids").
        what: &'static str,
        /// The `(rows, cols)` the operation required.
        expected: (usize, usize),
        /// The `(rows, cols)` it received.
        got: (usize, usize),
    },
    /// An input matrix holds a NaN or an infinity (the first one found,
    /// in row-major order).
    NonFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// The simulated device rejected a launch (resource overflow, kernel
    /// structure violation, ...).
    Sim(SimError),
}

impl fmt::Display for KMeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KMeansError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            KMeansError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch: {what}: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            KMeansError::NonFinite { row, col } => {
                write!(f, "non-finite value at row {row}, column {col}")
            }
            KMeansError::Sim(e) => write!(f, "simulator error: {e}"),
        }
    }
}

impl std::error::Error for KMeansError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KMeansError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for KMeansError {
    fn from(e: SimError) -> Self {
        KMeansError::Sim(e)
    }
}

/// Reject a matrix holding a NaN or an infinity with
/// [`KMeansError::NonFinite`], naming the first such entry in row-major
/// order. Neither a training sample nor a query without a finite value has
/// a nearest centroid.
pub(crate) fn ensure_finite<T: Scalar>(m: &Matrix<T>) -> Result<(), KMeansError> {
    match m.as_slice().iter().position(|v| !v.is_finite_s()) {
        Some(i) => Err(KMeansError::NonFinite {
            row: i / m.cols(),
            col: i % m.cols(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field_and_shapes() {
        let e = KMeansError::InvalidConfig {
            field: "max_iter",
            reason: "must be at least 1".into(),
        };
        assert!(e.to_string().contains("max_iter"));
        let e = KMeansError::ShapeMismatch {
            what: "batch",
            expected: (4, 3),
            got: (4, 7),
        };
        let s = e.to_string();
        assert!(s.contains("batch") && s.contains("4x3") && s.contains("4x7"));
    }

    #[test]
    fn sim_errors_wrap_unchanged() {
        let sim = SimError::ShapeMismatch("inner".into());
        let km: KMeansError = sim.clone().into();
        assert_eq!(km, KMeansError::Sim(sim));
    }

    #[test]
    fn error_source_chains_to_sim() {
        use std::error::Error;
        let e = KMeansError::Sim(SimError::InvalidConfig("x".into()));
        assert!(e.source().is_some());
        let e = KMeansError::InvalidConfig {
            field: "k",
            reason: "r".into(),
        };
        assert!(e.source().is_none());
    }
}
