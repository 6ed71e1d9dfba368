//! Unpreconditioned conjugate gradients — a reference solver for tests,
//! not part of the library.
//!
//! The library solves with preconditioned CG ([`slpm_linalg::pcg`]); this
//! textbook CG on any [`LinearOperator`] is what the preconditioned solver
//! and the property tests are checked against. With
//! [`CgOptions::deflate_mean`] the right-hand side and every iterate are
//! kept centred, so on a connected graph's singular Laplacian it computes
//! the pseudo-inverse action `L⁺ b`.

use slpm_linalg::error::LinalgError;
use slpm_linalg::operator::LinearOperator;
use slpm_linalg::vector;
use slpm_linalg::CgOptions;

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
