//! Error type shared by every solver in the crate.

use std::fmt;

/// Errors surfaced by the linear-algebra layer.
///
/// Solvers in this crate are written against exact mathematical
/// preconditions (symmetry, positive semi-definiteness, conforming
/// dimensions). Violations are reported as values rather than panics so the
/// higher layers (graph construction, the Spectral LPM mapper) can attach
/// context before reporting to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// What the caller was doing, e.g. `"matvec"`.
        context: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A matrix that must be symmetric is not (largest asymmetry reported).
    NotSymmetric {
        /// `max_ij |a_ij - a_ji|` observed.
        max_asymmetry: f64,
    },
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// Which solver gave up.
        solver: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm (or equivalent) at the point of giving up.
        residual: f64,
        /// Tolerance that was requested.
        tolerance: f64,
    },
    /// The operator was found to be singular / not positive definite where
    /// positive definiteness was required (e.g. CG hit a zero or negative
    /// curvature direction).
    NotPositiveDefinite {
        /// Curvature value `pᵀAp` that triggered the failure.
        curvature: f64,
    },
    /// The problem is too small for the requested computation, e.g. asking
    /// for the Fiedler vector of a 1-vertex graph.
    ProblemTooSmall {
        /// Dimension supplied.
        dimension: usize,
        /// Minimum dimension the operation supports.
        minimum: usize,
    },
    /// Input contained NaN or infinity.
    NonFiniteInput {
        /// What the caller was doing.
        context: &'static str,
    },
    /// Sparse arrays that break an invariant of [`crate::CsrMatrix`].
    InvalidStructure {
        /// What the caller was doing.
        context: &'static str,
    },
    /// A dimension above [`crate::sparse::MAX_DIM`]: a column index of a
    /// [`crate::CsrMatrix`] is 32 bits wide.
    TooLarge {
        /// What the caller was doing.
        context: &'static str,
        /// Dimension supplied.
        dimension: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotSymmetric { max_asymmetry } => write!(
                f,
                "matrix must be symmetric (max |a_ij - a_ji| = {max_asymmetry:.3e})"
            ),
            LinalgError::NoConvergence {
                solver,
                iterations,
                residual,
                tolerance,
            } => write!(
                f,
                "{solver} did not converge after {iterations} iterations \
                 (residual {residual:.3e}, tolerance {tolerance:.3e})"
            ),
            LinalgError::NotPositiveDefinite { curvature } => write!(
                f,
                "operator is not positive definite (curvature {curvature:.3e})"
            ),
            LinalgError::ProblemTooSmall { dimension, minimum } => write!(
                f,
                "problem dimension {dimension} is below the minimum {minimum}"
            ),
            LinalgError::NonFiniteInput { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            LinalgError::InvalidStructure { context } => {
                write!(f, "malformed sparse arrays in {context}")
            }
            LinalgError::TooLarge { context, dimension } => write!(
                f,
                "dimension {dimension} in {context} is above the limit of {}",
                crate::sparse::MAX_DIM
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            context: "matvec",
            expected: 4,
            found: 5,
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch in matvec: expected 4, found 5"
        );
    }

    #[test]
    fn display_no_convergence_mentions_solver() {
        let e = LinalgError::NoConvergence {
            solver: "multilevel",
            iterations: 10,
            residual: 1e-3,
            tolerance: 1e-10,
        };
        let s = e.to_string();
        assert!(s.contains("multilevel"));
        assert!(s.contains("10"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::NotSquare { rows: 2, cols: 3 });
    }

    #[test]
    fn display_not_symmetric_and_not_pd() {
        let s = LinalgError::NotSymmetric { max_asymmetry: 0.5 }.to_string();
        assert!(s.contains("symmetric"));
        let s = LinalgError::NotPositiveDefinite { curvature: -1.0 }.to_string();
        assert!(s.contains("positive definite"));
    }

    #[test]
    fn display_too_small_and_non_finite() {
        let s = LinalgError::ProblemTooSmall {
            dimension: 1,
            minimum: 2,
        }
        .to_string();
        assert!(s.contains("below the minimum"));
        let s = LinalgError::NonFiniteInput { context: "dot" }.to_string();
        assert!(s.contains("dot"));
    }
}
