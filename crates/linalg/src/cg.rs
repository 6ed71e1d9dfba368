//! Conjugate gradients for symmetric positive (semi-)definite systems.
//!
//! The shift-invert Fiedler path needs the action of the Laplacian
//! pseudo-inverse `L⁺`. On the orthogonal complement of the all-ones vector,
//! `L` of a connected graph is positive definite, so `L⁺ b` is exactly the
//! CG solution of `L x = b` when both `b` and every iterate are kept
//! centred. The [`CgOptions::deflate_mean`] flag performs that centring.

use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::vector;

/// Options controlling a CG solve.
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Relative residual target: stop when `‖r‖ ≤ tol · ‖b‖`.
    pub tolerance: f64,
    /// Hard iteration cap; `None` defaults to `10 · n + 100`.
    pub max_iterations: Option<usize>,
    /// Project the right-hand side and every iterate onto the zero-mean
    /// subspace. Required when solving with a singular Laplacian whose
    /// kernel is the constant vector.
    pub deflate_mean: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-12,
            max_iterations: None,
            deflate_mean: false,
        }
    }
}

/// Diagnostics of a successful CG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Solve `A x = b` for SPD `A` (or PSD with mean-deflation) by conjugate
/// gradients.
pub fn solve<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    opts: &CgOptions,
) -> Result<CgOutcome, LinalgError> {
    let n = a.dim();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "cg::solve rhs",
            expected: n,
            found: b.len(),
        });
    }
    if !vector::all_finite(b) {
        return Err(LinalgError::NonFiniteInput {
            context: "cg::solve rhs",
        });
    }

    let max_iters = opts.max_iterations.unwrap_or(10 * n + 100);

    let mut rhs = b.to_vec();
    if opts.deflate_mean {
        vector::center(&mut rhs);
    }
    let b_norm = vector::norm2(&rhs);
    if b_norm == 0.0 {
        return Ok(CgOutcome {
            solution: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
        });
    }

    let mut x = vec![0.0; n];
    let mut r = rhs.clone();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rs_old = vector::dot(&r, &r);

    for iter in 0..max_iters {
        a.apply(&p, &mut ap);
        if opts.deflate_mean {
            vector::center(&mut ap);
        }
        let curvature = vector::dot(&p, &ap);
        if curvature <= 0.0 {
            // A true SPD operator cannot produce this; either the matrix is
            // indefinite or we have fully converged within the deflated
            // subspace and are seeing round-off.
            let rel = vector::norm2(&r) / b_norm;
            if rel <= opts.tolerance.max(1e-10) {
                return Ok(CgOutcome {
                    solution: x,
                    iterations: iter,
                    relative_residual: rel,
                });
            }
            return Err(LinalgError::NotPositiveDefinite { curvature });
        }
        let alpha = rs_old / curvature;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        if opts.deflate_mean {
            vector::center(&mut r);
        }
        let rs_new = vector::dot(&r, &r);
        let rel = rs_new.sqrt() / b_norm;
        if rel <= opts.tolerance {
            if opts.deflate_mean {
                vector::center(&mut x);
            }
            return Ok(CgOutcome {
                solution: x,
                iterations: iter + 1,
                relative_residual: rel,
            });
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }

    Err(LinalgError::NoConvergence {
        solver: "cg",
        iterations: max_iters,
        residual: rs_old.sqrt() / b_norm,
        tolerance: opts.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::sparse::CsrMatrix;

    #[test]
    fn solves_small_spd_system() {
        let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let out = solve(&a, &b, &CgOptions::default()).unwrap();
        // Exact solution: x = (1/11, 7/11).
        assert!((out.solution[0] - 1.0 / 11.0).abs() < 1e-10);
        assert!((out.solution[1] - 7.0 / 11.0).abs() < 1e-10);
        assert!(out.relative_residual <= 1e-12);
    }

    #[test]
    fn identity_solves_in_one_iteration() {
        let a = DenseMatrix::identity(5);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let out = solve(&a, &b, &CgOptions::default()).unwrap();
        assert_eq!(out.iterations, 1);
        for i in 0..5 {
            assert!((out.solution[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = DenseMatrix::identity(3);
        let out = solve(&a, &[0.0; 3], &CgOptions::default()).unwrap();
        assert_eq!(out.solution, vec![0.0; 3]);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn singular_laplacian_with_deflation() {
        // Path graph Laplacian (singular); with mean deflation CG computes
        // the pseudo-inverse action.
        let lap = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let b = [1.0, 0.0, -1.0]; // already zero mean
        let opts = CgOptions {
            deflate_mean: true,
            ..CgOptions::default()
        };
        let out = solve(&lap, &b, &opts).unwrap();
        // Verify L x = b and mean(x) = 0.
        let lx = lap.matvec(&out.solution).unwrap();
        for i in 0..3 {
            assert!((lx[i] - b[i]).abs() < 1e-9);
        }
        assert!(vector::mean(&out.solution).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_detected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]).unwrap();
        let err = solve(&a, &[0.0, 1.0], &CgOptions::default()).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = DenseMatrix::identity(3);
        assert!(solve(&a, &[1.0], &CgOptions::default()).is_err());
    }

    #[test]
    fn non_finite_rhs_detected() {
        let a = DenseMatrix::identity(2);
        assert!(solve(&a, &[f64::NAN, 0.0], &CgOptions::default()).is_err());
    }

    #[test]
    fn iteration_cap_respected() {
        // A poorly conditioned system with an absurdly tight budget.
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1e-6, 0.0],
            vec![0.0, 0.0, 1e6],
        ])
        .unwrap();
        let opts = CgOptions {
            max_iterations: Some(1),
            tolerance: 1e-15,
            ..CgOptions::default()
        };
        let err = solve(&a, &[1.0, 1.0, 1.0], &opts).unwrap_err();
        assert!(matches!(err, LinalgError::NoConvergence { .. }));
    }

    #[test]
    fn random_spd_systems_solve() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for n in [4usize, 8, 16] {
            // A = MᵀM + I is SPD.
            let mut m = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    m.set(i, j, rng.gen_range(-1.0..1.0));
                }
            }
            let mut a = m.transpose().matmul(&m).unwrap();
            for i in 0..n {
                a.add_to(i, i, 1.0);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let out = solve(&a, &b, &CgOptions::default()).unwrap();
            let ax = a.matvec(&out.solution).unwrap();
            for i in 0..n {
                assert!((ax[i] - b[i]).abs() < 1e-8);
            }
        }
    }
}
