//! Preconditioned conjugate gradients on CSR matrices.
//!
//! [`solve_on`] takes the preconditioner as an argument ([`Preconditioner`]).
//! Two exist in the crate:
//!
//! * Jacobi (`M = diag(A)`), behind [`solve_jacobi_on`]. Plain CG is
//!   fine for *unweighted* grid Laplacians, whose diagonal is nearly
//!   constant. Section 4's weighted graphs (inverse-distance weights,
//!   heavy affinity edges) can skew the diagonal by orders of magnitude;
//!   dividing by it restores the iteration count at one extra vector
//!   multiply per step. The multilevel warm start and the coarse solve
//!   of a stalled hierarchy, which have no V-cycle to offer, use it.
//! * The aggregation V-cycle of [`crate::multilevel`], which the
//!   multilevel walk uses on the hierarchy it already built.

use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::parallel::Pool;
use crate::sparse::CsrMatrix;
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
    /// kernel is the constant vector: on the orthogonal complement of the
    /// all-ones vector a connected graph's Laplacian is positive definite,
    /// so the solve then computes the pseudo-inverse action `L⁺ b`.
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

/// Outcome of a preconditioned solve.
#[derive(Debug, Clone)]
pub struct PcgOutcome {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// A symmetric positive (semi)definite preconditioner: `z ← M⁻¹ r`.
///
/// PCG calls [`Preconditioner::apply`] once per iteration with a residual
/// of the operator's dimension; implementations may keep workspace in
/// `self`, which is why the receiver is mutable. Mean deflation (if the
/// solve asks for it) is applied by PCG after `apply`, so a
/// preconditioner for a singular Laplacian only has to be symmetric and
/// positive on mean-free vectors.
pub trait Preconditioner {
    /// Write `M⁻¹ r` into `z` (both of the operator's dimension).
    fn apply(&mut self, r: &[f64], z: &mut [f64]);
}

/// The Jacobi (diagonal) preconditioner `M = diag(A)`, applied on a pool.
struct Jacobi<'p> {
    inv_diag: Vec<f64>,
    pool: Pool<'p>,
}

impl<'p> Jacobi<'p> {
    /// Invert `A`'s diagonal. Zero, negative or non-finite entries are
    /// rejected with [`LinalgError::NotPositiveDefinite`] — the
    /// preconditioner requires an SPD-compatible diagonal.
    fn new(a: &CsrMatrix, pool: Pool<'p>) -> Result<Self, LinalgError> {
        let mut inv_diag = vec![0.0; a.rows()];
        pool.for_each_chunk(&mut inv_diag, |row0, chunk| {
            for (j, d) in chunk.iter_mut().enumerate() {
                *d = a.get(row0 + j, row0 + j);
            }
        });
        for d in inv_diag.iter_mut() {
            if !(d.is_finite() && *d > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { curvature: *d });
            }
            *d = 1.0 / *d;
        }
        Ok(Jacobi { inv_diag, pool })
    }
}

impl Preconditioner for Jacobi<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        let inv_diag = &self.inv_diag;
        self.pool.for_each_chunk_light(z, |off, chunk| {
            for (j, zi) in chunk.iter_mut().enumerate() {
                *zi = r[off + j] * inv_diag[off + j];
            }
        });
    }
}

/// Solve `A x = b` with Jacobi (diagonal) preconditioning.
///
/// `A` is given as a CSR matrix (the diagonal must be available, which a
/// generic [`LinearOperator`] cannot provide). Zero or negative diagonal
/// entries are rejected — the preconditioner requires an SPD-compatible
/// diagonal. With `opts.deflate_mean` the solve runs in the zero-mean
/// subspace exactly like plain CG (the standard treatment for singular
/// Laplacians).
///
/// The matvec, dot, axpy, and preconditioner kernels run on `pool`
/// ([`crate::parallel`]); the reductions use fixed chunking, so the
/// returned solution is bitwise identical for every thread count. The
/// multilevel solver passes the pool it was given, so nested solves
/// schedule onto the same workers as everything else.
pub fn solve_jacobi_on(
    a: &CsrMatrix,
    b: &[f64],
    opts: &CgOptions,
    pool: Pool<'_>,
) -> Result<PcgOutcome, LinalgError> {
    solve_on(a, b, opts, &mut Jacobi::new(a, pool)?, pool)
}

/// Preconditioned conjugate gradients for `A x = b` with a caller-chosen
/// [`Preconditioner`] (which must be symmetric and positive on the
/// solve's subspace). With `opts.deflate_mean` the right-hand side, every
/// residual, every preconditioned residual and the solution are kept
/// mean-free. All kernels run on `pool` with fixed-chunk reductions, so
/// the result is bitwise identical for every thread count as long as the
/// preconditioner is.
pub fn solve_on(
    a: &CsrMatrix,
    b: &[f64],
    opts: &CgOptions,
    precond: &mut dyn Preconditioner,
    pool: Pool<'_>,
) -> Result<PcgOutcome, LinalgError> {
    let n = a.dim();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "pcg rhs",
            expected: n,
            found: b.len(),
        });
    }
    if !vector::all_finite(b) {
        return Err(LinalgError::NonFiniteInput { context: "pcg rhs" });
    }
    let max_iters = opts.max_iterations.unwrap_or(10 * n + 100);
    let mut rhs = b.to_vec();
    if opts.deflate_mean {
        pool.center(&mut rhs);
    }
    let b_norm = pool.norm2(&rhs);
    if b_norm == 0.0 {
        return Ok(PcgOutcome {
            solution: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
        });
    }

    let mut x = vec![0.0; n];
    let mut r = rhs;
    // z = M⁻¹ r
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    if opts.deflate_mean {
        pool.center(&mut z);
    }
    let mut p = z.clone();
    let mut rz_old = pool.dot(&r, &z);
    let mut ap = vec![0.0; n];

    for iter in 0..max_iters {
        pool.matvec_into(a, &p, &mut ap);
        if opts.deflate_mean {
            pool.center(&mut ap);
        }
        let curvature = pool.dot(&p, &ap);
        if curvature <= 0.0 {
            let rel = pool.norm2(&r) / b_norm;
            if rel <= opts.tolerance.max(1e-10) {
                return Ok(PcgOutcome {
                    solution: x,
                    iterations: iter,
                    relative_residual: rel,
                });
            }
            return Err(LinalgError::NotPositiveDefinite { curvature });
        }
        let alpha = rz_old / curvature;
        pool.axpy(alpha, &p, &mut x);
        pool.axpy(-alpha, &ap, &mut r);
        if opts.deflate_mean {
            pool.center(&mut r);
        }
        let rel = pool.norm2(&r) / b_norm;
        if rel <= opts.tolerance {
            if opts.deflate_mean {
                pool.center(&mut x);
            }
            return Ok(PcgOutcome {
                solution: x,
                iterations: iter + 1,
                relative_residual: rel,
            });
        }
        precond.apply(&r, &mut z);
        if opts.deflate_mean {
            pool.center(&mut z);
        }
        let rz_new = pool.dot(&r, &z);
        let beta = rz_new / rz_old;
        pool.for_each_chunk_light(&mut p, |off, chunk| {
            for (j, pi) in chunk.iter_mut().enumerate() {
                *pi = z[off + j] + beta * *pi;
            }
        });
        rz_old = rz_new;
    }

    Err(LinalgError::NoConvergence {
        solver: "pcg",
        iterations: max_iters,
        residual: pool.norm2(&r) / b_norm,
        tolerance: opts.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    #[test]
    fn solves_spd_system() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
                .unwrap();
        let out = solve_jacobi_on(&a, &[1.0, 2.0], &CgOptions::default(), Pool::default()).unwrap();
        assert!((out.solution[0] - 1.0 / 11.0).abs() < 1e-10);
        assert!((out.solution[1] - 7.0 / 11.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_bad_diagonal_and_inputs() {
        let zero_diag = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            solve_jacobi_on(
                &zero_diag,
                &[1.0, 0.0],
                &CgOptions::default(),
                Pool::default()
            ),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let a = CsrMatrix::from_diagonal(&[1.0, 1.0]);
        assert!(solve_jacobi_on(&a, &[1.0], &CgOptions::default(), Pool::default()).is_err());
        assert!(
            solve_jacobi_on(&a, &[f64::NAN, 0.0], &CgOptions::default(), Pool::default()).is_err()
        );
    }

    #[test]
    fn threaded_solve_bitwise_identical_to_serial() {
        // A grid Laplacian big enough that the pool genuinely spawns
        // (n > SPAWN_MIN): every solve — 1, 2, 4 threads — must return the
        // same bits, iteration count, and residual as the serial run,
        // because matvec/dot/axpy/center all use fixed-chunk deterministic
        // kernels.
        let (w, h) = (160, 120); // 19,200 > parallel::SPAWN_MIN
        let n = w * h;
        let idx = |x: usize, y: usize| x * h + y;
        let mut t = Vec::new();
        let mut deg = vec![0.0; n];
        for x in 0..w {
            for y in 0..h {
                for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                    if nx < w && ny < h {
                        t.push((idx(x, y), idx(nx, ny), -1.0));
                        t.push((idx(nx, ny), idx(x, y), -1.0));
                        deg[idx(x, y)] += 1.0;
                        deg[idx(nx, ny)] += 1.0;
                    }
                }
            }
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64) - 48.0).collect();
        vector::center(&mut b);
        let solve = |threads: usize| {
            with_threads(Some(threads), |pool| {
                solve_jacobi_on(
                    &lap,
                    &b,
                    &CgOptions {
                        deflate_mean: true,
                        tolerance: 1e-10,
                        ..Default::default()
                    },
                    *pool,
                )
                .unwrap()
            })
        };
        let serial = solve(1);
        for threads in [2usize, 4] {
            let par = solve(threads);
            assert_eq!(par.iterations, serial.iterations, "threads={threads}");
            assert_eq!(
                par.relative_residual.to_bits(),
                serial.relative_residual.to_bits(),
                "threads={threads}"
            );
            assert_eq!(par.solution, serial.solution, "threads={threads}");
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        let out = solve_jacobi_on(&a, &[0.0, 0.0], &CgOptions::default(), Pool::default()).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.solution, vec![0.0, 0.0]);
    }
}
