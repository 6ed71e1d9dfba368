//! Preconditioned conjugate gradients on CSR matrices, many right-hand
//! sides at a time.
//!
//! [`solve_on`] is the one solve: a block of right-hand sides in the
//! buffers of a caller-owned [`Workspace`], with the preconditioner as an
//! argument ([`Preconditioner`]). Two exist in the crate:
//!
//! * Jacobi (`M = diag(A)`). Plain CG is fine for *unweighted* grid
//!   Laplacians, whose diagonal is nearly constant. Section 4's weighted
//!   graphs (inverse-distance weights, heavy affinity edges) can skew the
//!   diagonal by orders of magnitude; dividing by it restores the
//!   iteration count at one extra vector multiply per step. The coarse
//!   solve of a stalled hierarchy, which has no V-cycle to offer, uses it;
//!   [`solve_jacobi_on`] is its width-1 solve, for the retry of a failed
//!   V-cycle column.
//! * The aggregation V-cycle of [`crate::multilevel`], which the
//!   multilevel walk uses on the hierarchy it already built.
//!
//! # Batched inner solves
//!
//! [`solve_on`] solves every column of an `n × w` right-hand-side block as
//! independent CG runs that step in lockstep. The block is row-major —
//! entry `(i, c)`, row `i` of column `c`, at `i·w + c` — so a CSR row reads
//! the `w` values of each neighbour from one place: up to [`LOCKSTEP_MAX`]
//! columns share each matrix read (`acc[c] += a_ik · x[k·w + c]`), each
//! preconditioner application and each level-1 pass, while every column
//! keeps its own `α`, `β`, `‖b‖`, iteration count and convergence test. A
//! column that converges or fails leaves the active set at once, the block
//! is compacted, and the next waiting column joins at the following
//! preconditioner application. A single vector is width 1.
//!
//! The contract is bitwise: every column performs the floating-point
//! operations of a one-vector solve in the same order —
//! - a CSR row sums its terms in stored order from `0.0`;
//! - a dot product accumulates 4 lanes within each
//!   [`crate::parallel::REDUCE_CHUNK`] of rows, then tree-folds the chunk
//!   partials;
//! - a mean folds each chunk from the empty sum of `Iterator::sum`, then
//!   tree-folds, then divides by `n`;
//! - an elementwise update evaluates the same expression —
//!
//! and the pool splits work at chunk boundaries of `REDUCE_CHUNK` rows. So
//! a column's solution, iteration count and residual depend neither on
//! which other columns share its block nor on the thread count.

use crate::block::{self, Cols};
use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::parallel::{Pool, LIGHT_SPAWN_MIN};
use crate::sparse::CsrMatrix;

/// The most columns one batched solve steps in lockstep; further columns
/// wait and join as active ones finish. Picked by measurement on a
/// 31,836-point holey set, whose sweeps solve a block of 3 wanted pairs
/// plus 2 guard vectors: at 5 a sweep's corrections run as one lockstep
/// set, while at 4 the fifth column trails the others and the solve was no
/// faster than at 3. Each column costs about five vectors of workspace:
/// the four PCG buffers and its share of the V-cycle's.
pub const LOCKSTEP_MAX: usize = 5;

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

/// Outcome of a single-vector preconditioned solve.
#[derive(Debug, Clone)]
pub struct PcgOutcome {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// One column of a batched solve that succeeded, as [`solve_on`] reports
/// it: the solution borrowed from the solver's block, valid for the call.
#[derive(Debug, Clone, Copy)]
pub struct Solved<'a> {
    block: &'a [f64],
    width: usize,
    column: usize,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
}

impl Solved<'_> {
    /// Entry `i` of the solution.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.block[i * self.width + self.column]
    }

    /// The solution as an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let n = self.block.len() / self.width;
        (0..n).map(|i| self.get(i)).collect()
    }
}

/// A symmetric positive (semi)definite preconditioner: `z ← M⁻¹ r`.
///
/// PCG calls [`Preconditioner::apply`] once per lockstep iteration with
/// the residuals of its active columns; implementations may keep workspace
/// in `self`, which is why the receiver is mutable. Mean deflation (if the
/// solve asks for it) is applied by PCG after `apply`, so a
/// preconditioner for a singular Laplacian only has to be symmetric and
/// positive on mean-free vectors.
pub trait Preconditioner {
    /// Write `M⁻¹ r` into `z` for every column of the `n × w` blocks `r`
    /// and `z` (`1 ≤ w ≤` [`LOCKSTEP_MAX`], row-major). Each column must
    /// come out bitwise as it would alone.
    fn apply(&mut self, w: usize, r: &[f64], z: &mut [f64]);
}

/// The Jacobi (diagonal) preconditioner `M = diag(A)`, applied on a pool.
pub(crate) struct Jacobi<'p> {
    inv_diag: Vec<f64>,
    pool: Pool<'p>,
}

impl<'p> Jacobi<'p> {
    /// Invert `A`'s diagonal. Zero, negative or non-finite entries are
    /// rejected with [`LinalgError::NotPositiveDefinite`] — the
    /// preconditioner requires an SPD-compatible diagonal.
    pub(crate) fn new(a: &CsrMatrix, pool: Pool<'p>) -> Result<Self, LinalgError> {
        let mut diagonal = (0..a.rows()).map(|i| a.get(i, i));
        if let Some(d) = diagonal.find(|d| !(d.is_finite() && *d > 0.0)) {
            return Err(LinalgError::NotPositiveDefinite { curvature: d });
        }
        let inv_diag = a.damped_inverse_diagonal(1.0, &pool);
        Ok(Jacobi { inv_diag, pool })
    }
}

impl Preconditioner for Jacobi<'_> {
    fn apply(&mut self, w: usize, r: &[f64], z: &mut [f64]) {
        let inv_diag = &self.inv_diag;
        self.pool.block_rows(w, LIGHT_SPAWN_MIN, z, |row0, span| {
            for (j, zr) in span.chunks_exact_mut(w).enumerate() {
                let i = row0 + j;
                for (c, zi) in zr.iter_mut().enumerate() {
                    *zi = r[i * w + c] * inv_diag[i];
                }
            }
        });
    }
}

/// Solve `A x = b` with Jacobi (diagonal) preconditioning: [`solve_on`]
/// at width 1.
///
/// `A` is given as a CSR matrix (the diagonal must be available, which a
/// generic [`LinearOperator`] cannot provide). Zero or negative diagonal
/// entries are rejected — the preconditioner requires an SPD-compatible
/// diagonal. With `opts.deflate_mean` the solve runs in the zero-mean
/// subspace exactly like plain CG (the standard treatment for singular
/// Laplacians). The kernels run on `pool` with fixed-chunk reductions, so
/// the returned solution is bitwise identical for every thread count.
pub fn solve_jacobi_on(
    a: &CsrMatrix,
    b: &[f64],
    opts: &CgOptions,
    pool: Pool<'_>,
) -> Result<PcgOutcome, LinalgError> {
    let mut jacobi = Jacobi::new(a, pool)?;
    let mut outcome = None;
    let mut done = |_, result: Result<Solved<'_>, LinalgError>| {
        outcome = Some(result.map(|s| PcgOutcome {
            solution: s.to_vec(),
            iterations: s.iterations,
            relative_residual: s.relative_residual,
        }));
    };
    solve_on(
        &mut Workspace::default(),
        a,
        b,
        1,
        opts,
        &mut jacobi,
        pool,
        &mut done,
    )?;
    outcome.expect("the one column reports")
}

/// A column in the lockstep set: its place in the caller's block and its
/// own CG scalars.
struct Lane {
    column: usize,
    b_norm: f64,
    /// `rᵀz` of the column's last preconditioned residual.
    rz: f64,
    /// The lockstep round in which the column took its first step.
    start: usize,
    /// Admitted, but its search direction is not set yet.
    fresh: bool,
}

/// The four lockstep buffers of [`solve_on`]: solution, residual, search
/// direction, and `q`, which holds `A p` and then the preconditioned
/// residual `z`. A caller that solves again and again keeps one, so every
/// solve after the first reuses memory that is already mapped.
#[derive(Debug, Default)]
pub struct Workspace {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
}

/// Preconditioned conjugate gradients for `A X = B`, where `rhs` holds the
/// `width` right-hand sides as an `n × width` row-major block, in the
/// buffers of `workspace`.
///
/// The preconditioner must be symmetric and positive on the solve's
/// subspace. With `opts.deflate_mean` each right-hand side, residual,
/// preconditioned residual and solution is kept mean-free. Up to
/// [`LOCKSTEP_MAX`] columns step together (module docs); each column ends
/// with one call `done(column, result)`, in completion order:
/// `Ok(`[`Solved`]`)`, or [`LinalgError::NonFiniteInput`] for a
/// non-finite right-hand side, [`LinalgError::NotPositiveDefinite`] for
/// non-positive curvature, or [`LinalgError::NoConvergence`] at the
/// iteration cap. One column's failure does not disturb the others.
///
/// All kernels run on `pool` with fixed-chunk reductions, so every column
/// is bitwise identical for every thread count as long as the
/// preconditioner is. The call itself fails only on a block of the wrong
/// length.
#[allow(clippy::too_many_arguments)]
pub fn solve_on(
    workspace: &mut Workspace,
    a: &CsrMatrix,
    rhs: &[f64],
    width: usize,
    opts: &CgOptions,
    precond: &mut dyn Preconditioner,
    pool: Pool<'_>,
    done: &mut dyn FnMut(usize, Result<Solved<'_>, LinalgError>),
) -> Result<(), LinalgError> {
    let n = a.dim();
    if rhs.len() != n * width {
        return Err(LinalgError::DimensionMismatch {
            context: "pcg rhs",
            expected: n * width,
            found: rhs.len(),
        });
    }
    let max_iters = opts.max_iterations.unwrap_or(10 * n + 100);
    let cap = n * width.min(LOCKSTEP_MAX);
    let Workspace {
        mut x,
        mut r,
        mut p,
        mut q,
    } = std::mem::take(workspace);
    for buf in [&mut x, &mut r, &mut p, &mut q] {
        buf.clear();
        buf.reserve(cap);
    }
    let mut lanes: Vec<Lane> = Vec::with_capacity(LOCKSTEP_MAX);
    let mut next = 0;
    let mut round = 0;
    loop {
        // Admit waiting columns while there is room: r = b (centred), x = 0.
        let w0 = lanes.len();
        let mut admitted = Vec::with_capacity(LOCKSTEP_MAX - w0);
        while w0 + admitted.len() < LOCKSTEP_MAX && next < width {
            let column = next;
            next += 1;
            if (0..n).all(|i| rhs[i * width + column].is_finite()) {
                admitted.push(column);
            } else {
                done(
                    column,
                    Err(LinalgError::NonFiniteInput { context: "pcg rhs" }),
                );
            }
        }
        if !admitted.is_empty() {
            let w = w0 + admitted.len();
            for buf in [&mut x, &mut r, &mut p, &mut q] {
                block::widen(buf, n, w0, admitted.len());
            }
            block::for_rows(&pool, &mut r, w, |i, row| {
                for (slot, &column) in row[w0..].iter_mut().zip(&admitted) {
                    *slot = rhs[i * width + column];
                }
            });
            // Centre the new columns only: subtracting 0.0 leaves the
            // others' bits as they are.
            let mean = opts.deflate_mean.then(|| {
                let mut m = block::means(&pool, &r, w);
                m[..w0].fill(0.0);
                m
            });
            let rr = block::subtract_dot(&pool, &mut r, mean.as_ref(), None, w);
            let mut keep = [true; LOCKSTEP_MAX];
            for (j, &column) in admitted.iter().enumerate() {
                let slot = w0 + j;
                let b_norm = rr[slot].sqrt();
                if b_norm == 0.0 || max_iters == 0 {
                    keep[slot] = false;
                    done(
                        column,
                        if b_norm == 0.0 {
                            Ok(Solved {
                                block: &x,
                                width: w,
                                column: slot,
                                iterations: 0,
                                relative_residual: 0.0,
                            })
                        } else {
                            Err(LinalgError::NoConvergence {
                                solver: "pcg",
                                iterations: max_iters,
                                // ‖r‖ / ‖b‖ before any step.
                                residual: 1.0,
                                tolerance: opts.tolerance,
                            })
                        },
                    );
                }
                lanes.push(Lane {
                    column,
                    b_norm,
                    rz: 0.0,
                    start: round,
                    fresh: true,
                });
            }
            retire(
                &keep,
                &mut lanes,
                [&mut x, &mut r, &mut p, &mut q],
                &mut [0.0; LOCKSTEP_MAX],
            );
            if lanes.len() < LOCKSTEP_MAX && next < width {
                continue;
            }
        }
        let w = lanes.len();
        if w == 0 {
            *workspace = Workspace { x, r, p, q };
            return Ok(());
        }

        // z = M⁻¹ r; a fresh column starts its direction at z, the others
        // take p ← z + β p with β = rᵀz / (rᵀz)_old.
        precond.apply(w, &r, &mut q);
        let mean = opts.deflate_mean.then(|| block::means(&pool, &q, w));
        let rz = block::subtract_dot(&pool, &mut q, mean.as_ref(), Some(&r), w);
        let mut beta: Cols = [0.0; LOCKSTEP_MAX];
        let mut fresh = [false; LOCKSTEP_MAX];
        for (c, lane) in lanes.iter_mut().enumerate() {
            if lane.fresh {
                fresh[c] = true;
            } else {
                beta[c] = rz[c] / lane.rz;
            }
            lane.rz = rz[c];
            lane.fresh = false;
        }
        block::update_direction(&pool, &q, &beta, &fresh, &mut p, w);

        // One CG step per column.
        block::spmm(&pool, a, &p, &mut q, w);
        let mean = opts.deflate_mean.then(|| block::means(&pool, &q, w));
        let mut curvature = block::subtract_dot(&pool, &mut q, mean.as_ref(), Some(&p), w);
        if curvature[..w].iter().any(|&c| c <= 0.0) {
            let rr = block::dot(&pool, &r, &r, w);
            let mut keep = [true; LOCKSTEP_MAX];
            for (c, lane) in lanes.iter().enumerate() {
                if curvature[c] > 0.0 {
                    continue;
                }
                keep[c] = false;
                let rel = rr[c].sqrt() / lane.b_norm;
                let result = if rel <= opts.tolerance.max(1e-10) {
                    Ok(Solved {
                        block: &x,
                        width: w,
                        column: c,
                        iterations: round - lane.start,
                        relative_residual: rel,
                    })
                } else {
                    Err(LinalgError::NotPositiveDefinite {
                        curvature: curvature[c],
                    })
                };
                done(lane.column, result);
            }
            retire(
                &keep,
                &mut lanes,
                [&mut x, &mut r, &mut p, &mut q],
                &mut curvature,
            );
            if lanes.is_empty() {
                continue;
            }
        }
        let w = lanes.len();
        let mut alpha: Cols = [0.0; LOCKSTEP_MAX];
        for (c, lane) in lanes.iter().enumerate() {
            alpha[c] = lane.rz / curvature[c];
        }
        let mean = block::cg_step(&pool, &alpha, &p, &q, &mut x, &mut r, w);
        let rr = block::subtract_dot(&pool, &mut r, opts.deflate_mean.then_some(&mean), None, w);
        round += 1;
        let mut keep = [true; LOCKSTEP_MAX];
        for (c, lane) in lanes.iter().enumerate() {
            let rel = rr[c].sqrt() / lane.b_norm;
            if rel <= opts.tolerance {
                if opts.deflate_mean {
                    block::col_center(&pool, &mut x, w, c);
                }
                keep[c] = false;
                done(
                    lane.column,
                    Ok(Solved {
                        block: &x,
                        width: w,
                        column: c,
                        iterations: round - lane.start,
                        relative_residual: rel,
                    }),
                );
            } else if round - lane.start == max_iters {
                keep[c] = false;
                done(
                    lane.column,
                    Err(LinalgError::NoConvergence {
                        solver: "pcg",
                        iterations: max_iters,
                        residual: rel,
                        tolerance: opts.tolerance,
                    }),
                );
            }
        }
        retire(
            &keep,
            &mut lanes,
            [&mut x, &mut r, &mut p, &mut q],
            &mut curvature,
        );
    }
}

/// Drop the finished lanes (`keep[c] == false`) from the lockstep set: their
/// columns leave all four buffers and the per-column `values`.
fn retire(
    keep: &[bool; LOCKSTEP_MAX],
    lanes: &mut Vec<Lane>,
    bufs: [&mut Vec<f64>; 4],
    values: &mut Cols,
) {
    let w = lanes.len();
    if keep[..w].iter().all(|&k| k) {
        return;
    }
    for buf in bufs {
        block::compact(buf, w, keep);
    }
    let mut c = 0;
    lanes.retain(|_| {
        c += 1;
        keep[c - 1]
    });
    let mut j = 0;
    for c in 0..w {
        if keep[c] {
            values[j] = values[c];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;
    use crate::vector;

    fn diagonal(d: &[f64]) -> CsrMatrix {
        let t: Vec<_> = d.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        CsrMatrix::from_triplets(d.len(), d.len(), &t).unwrap()
    }

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
        let a = diagonal(&[1.0, 1.0]);
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
        let (w, h) = (184, 184); // 33,856 > parallel::SPAWN_MIN
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
        let a = diagonal(&[2.0, 3.0]);
        let out = solve_jacobi_on(&a, &[0.0, 0.0], &CgOptions::default(), Pool::default()).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.solution, vec![0.0, 0.0]);
    }
}
