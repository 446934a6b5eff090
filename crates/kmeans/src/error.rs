//! Typed estimator errors.
//!
//! The estimator used to report every misuse through
//! [`SimError::InvalidConfig`] with a formatted string, which callers could
//! neither match on nor test precisely. [`KMeansError`] is the structured
//! replacement: configuration problems name the offending field, shape
//! problems carry both shapes, and genuine simulator failures pass through
//! unchanged.

use gpu_sim::{exec, Matrix, Scalar, SimError};
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
    /// An input row is finite but so large that its squared norm exceeds
    /// `T::MAX / 8`, past which the distance identity
    /// `‖x‖² − 2x·c + ‖c‖²` can overflow (the first such row).
    Overflow {
        /// The offending row.
        row: usize,
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
            KMeansError::Overflow { row } => {
                write!(f, "row {row} is too large: its squared norm overflows")
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

/// The rule every input row must pass: its squared norm, computed in `T`,
/// is at most `T::MAX / 8`. A NaN or an infinity in the row makes the sum
/// non-finite, so it fails too.
///
/// The bound keeps the distance identity finite: centroids are means of
/// rows, so `‖c‖ ≤ max ‖x‖`, and every term of `‖x‖² − 2x·c + ‖c‖²` stays
/// within about `T::MAX / 2`. Without it an overflowing `‖x‖²` gives
/// `inf − inf = NaN` distances, and no centroid beats the argmin's
/// sentinel.
pub(crate) fn admissible<T: Scalar>(sq_norm: T) -> bool {
    sq_norm <= T::MAX / T::from_usize(8)
}

/// The error for `row` of `m` when the row failed [`admissible`]:
/// [`KMeansError::NonFinite`] with its first NaN or infinite column,
/// otherwise [`KMeansError::Overflow`].
pub(crate) fn rejected_row<T: Scalar>(m: &Matrix<T>, row: usize) -> KMeansError {
    match m.row(row).iter().position(|v| !v.is_finite_s()) {
        Some(col) => KMeansError::NonFinite { row, col },
        None => KMeansError::Overflow { row },
    }
}

/// Reject a query matrix no nearest centroid can be computed for, naming
/// its first row that fails [`admissible`] ([`rejected_row`]). Fits and
/// `partial_fit` get the same verdict from their ingest launch
/// ([`crate::norms::ingest`]). Predict and score check their queries here
/// before they launch, and so does the server's pre-check
/// (`FittedModel::validate_queries`), before its queries are batched.
/// Chunks of rows are checked in parallel on the current executor and the
/// first rejected row of the first chunk that has one is reported, so the
/// verdict does not depend on the schedule; a serving request of a few rows
/// is one chunk, checked inline. The columns are searched only for a
/// rejected row.
pub(crate) fn ensure_finite<T: Scalar>(m: &Matrix<T>) -> Result<(), KMeansError> {
    const ROWS: usize = 4096;
    let mut first = vec![None; m.rows().div_ceil(ROWS)];
    exec::with_current(|e| {
        e.par_chunks_mut(&mut first, 1, |chunk, out| {
            let rows = chunk * ROWS..m.rows().min((chunk + 1) * ROWS);
            out[0] = rows.into_iter().find(|&r| !admissible(sq_norm(m.row(r))));
        })
    });
    match first.into_iter().flatten().next() {
        Some(row) => Err(rejected_row(m, row)),
        None => Ok(()),
    }
}

/// `‖x‖²` in eight independent partial sums, so the pass vectorises.
pub(crate) fn sq_norm<T: Scalar>(x: &[T]) -> T {
    let mut acc = [T::ZERO; 8];
    let mut lanes = x.chunks_exact(8);
    for chunk in &mut lanes {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a += v * v;
        }
    }
    for (a, &v) in acc.iter_mut().zip(lanes.remainder()) {
        *a += v * v;
    }
    acc.into_iter().sum()
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
