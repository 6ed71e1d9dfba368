//! Lanczos iteration with full reorthogonalisation.
//!
//! Given a symmetric operator `A`, Lanczos builds an orthonormal Krylov
//! basis `Q` and a tridiagonal `T = QᵀAQ` whose extremal eigenvalues
//! converge rapidly to the extremal eigenvalues of `A`. We keep the entire
//! basis and reorthogonalise every new vector against it ("full
//! reorthogonalisation"), trading memory for the numerical robustness
//! textbooks recommend for small-to-medium problems — exactly our regime
//! (grids of 10² – 10⁵ vertices).
//!
//! The Fiedler driver composes this with a shift-invert operator
//! (`P L⁺ P` via CG) and a deflation basis for the known constant-vector
//! kernel.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::tql;
use crate::vector;
use rand::SeedableRng;

/// Options controlling a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Number of extremal (largest) eigenpairs requested.
    pub num_eigenpairs: usize,
    /// Maximum Krylov dimension; `None` defaults to `min(n, max(4k+20, 50))`.
    pub max_subspace: Option<usize>,
    /// Residual tolerance on each requested Ritz pair, relative to the
    /// largest Ritz value magnitude.
    pub tolerance: f64,
    /// Seed for the random start vector (deterministic runs).
    pub seed: u64,
    /// Optional orthonormal deflation basis: the iteration is confined to
    /// the orthogonal complement of these directions.
    pub deflation: Vec<Vec<f64>>,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            num_eigenpairs: 1,
            max_subspace: None,
            tolerance: 1e-10,
            seed: 0x5eed_1a2b,
            deflation: Vec::new(),
        }
    }
}

/// Converged Ritz pairs, sorted by eigenvalue **descending** (Lanczos is run
/// for the top of the spectrum; callers flip signs/shifts as needed).
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Ritz values, descending.
    pub eigenvalues: Vec<f64>,
    /// Ritz vectors matching `eigenvalues` (each of length `n`, unit norm).
    pub eigenvectors: Vec<Vec<f64>>,
    /// Krylov dimension actually used.
    pub subspace_dim: usize,
    /// Residual norms `‖A v − λ v‖` for each returned pair.
    pub residuals: Vec<f64>,
}

/// Run Lanczos on `a`, returning the `num_eigenpairs` largest eigenpairs.
pub fn largest_eigenpairs<A: LinearOperator + ?Sized>(
    a: &A,
    opts: &LanczosOptions,
) -> Result<LanczosResult, LinalgError> {
    let n = a.dim();
    let k = opts.num_eigenpairs;
    if k == 0 || n == 0 {
        return Ok(LanczosResult {
            eigenvalues: vec![],
            eigenvectors: vec![],
            subspace_dim: 0,
            residuals: vec![],
        });
    }
    let effective_dim = n.saturating_sub(opts.deflation.len());
    if k > effective_dim {
        return Err(LinalgError::ProblemTooSmall {
            dimension: effective_dim,
            minimum: k,
        });
    }
    let m_cap = opts
        .max_subspace
        .unwrap_or_else(|| effective_dim.min((4 * k + 20).max(50)))
        .min(effective_dim);

    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);

    // Start vector: random, deflated, normalised.
    let mut q = vec![0.0; n];
    vector::fill_random(&mut rng, &mut q);
    for d in &opts.deflation {
        vector::project_out(d, &mut q);
    }
    if vector::normalize(&mut q) == 0.0 {
        return Err(LinalgError::NonFiniteInput {
            context: "lanczos start vector collapsed under deflation",
        });
    }

    let mut basis: Vec<Vec<f64>> = vec![q];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new(); // betas[j] couples q_j and q_{j+1}

    let mut w = vec![0.0; n];
    loop {
        let j = basis.len() - 1;
        a.apply(&basis[j], &mut w);
        // Deflate before orthogonalisation so the operator restricted to
        // the complement stays symmetric in exact arithmetic.
        for d in &opts.deflation {
            vector::project_out(d, &mut w);
        }
        let alpha = vector::dot(&basis[j], &w);
        alphas.push(alpha);
        // w ← w − α q_j − β q_{j−1}, then full reorthogonalisation.
        vector::axpy(-alpha, &basis[j], &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            let qprev = &basis[j - 1];
            vector::axpy(-beta_prev, qprev, &mut w);
        }
        vector::reorthogonalize(&basis, &mut w);
        for d in &opts.deflation {
            vector::project_out(d, &mut w);
        }

        let beta = vector::norm2(&w);
        let happy_breakdown = beta < 1e-12;

        // Convergence check on the current Ritz problem, done periodically,
        // on breakdown, and when the subspace cap is reached.
        let m = basis.len();
        let at_cap = m >= m_cap;
        let should_check = happy_breakdown || at_cap || (m >= 2 * k && m.is_multiple_of(5));
        if should_check {
            let (vals, vecs, resids) = ritz_pairs(a, &basis, &alphas, &betas, k.min(m))?;
            let scale = vals.first().map(|v| v.abs()).unwrap_or(1.0).max(1.0);
            let converged = vals.len() >= k && resids.iter().all(|&r| r <= opts.tolerance * scale);
            if converged {
                return Ok(LanczosResult {
                    eigenvalues: vals,
                    eigenvectors: vecs,
                    subspace_dim: m,
                    residuals: resids,
                });
            }
            if at_cap || m >= effective_dim {
                // Subspace exhausted. A full-space basis is as exact as
                // results will ever get; report it rather than failing.
                if m >= effective_dim && vals.len() >= k {
                    return Ok(LanczosResult {
                        eigenvalues: vals,
                        eigenvectors: vecs,
                        subspace_dim: m,
                        residuals: resids,
                    });
                }
                let worst = resids.iter().cloned().fold(0.0f64, f64::max);
                return Err(LinalgError::NoConvergence {
                    solver: "lanczos",
                    iterations: m,
                    residual: worst,
                    tolerance: opts.tolerance,
                });
            }
        }

        if happy_breakdown {
            // The Krylov space hit an invariant subspace before producing k
            // converged pairs (e.g. the operator has a degenerate eigenvalue
            // whose second copy a single start vector can never reach).
            // Restart with a fresh random direction orthogonal to everything
            // found so far; beta = 0 keeps T block-diagonal and exact.
            let mut next = vec![0.0; n];
            vector::fill_random(&mut rng, &mut next);
            for d in &opts.deflation {
                vector::project_out(d, &mut next);
            }
            vector::reorthogonalize(&basis, &mut next);
            if vector::normalize(&mut next) < 1e-12 {
                // No direction left: the space truly is exhausted.
                let (vals, vecs, resids) = ritz_pairs(a, &basis, &alphas, &betas, k.min(m))?;
                return Ok(LanczosResult {
                    eigenvalues: vals,
                    eigenvectors: vecs,
                    subspace_dim: m,
                    residuals: resids,
                });
            }
            betas.push(0.0);
            basis.push(next);
        } else {
            betas.push(beta);
            let mut next = w.clone();
            vector::scale(1.0 / beta, &mut next);
            basis.push(next);
        }
    }
}

/// `(Ritz values, Ritz vectors, per-pair residuals)` from [`ritz_pairs`].
type RitzPairs = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>);

/// Solve the tridiagonal Ritz problem and map the top-`k` Ritz vectors back
/// to the original space, computing true residuals.
fn ritz_pairs<A: LinearOperator + ?Sized>(
    a: &A,
    basis: &[Vec<f64>],
    alphas: &[f64],
    betas: &[f64],
    k: usize,
) -> Result<RitzPairs, LinalgError> {
    let m = basis.len();
    let n = basis[0].len();
    // EISPACK convention: off[0] = 0, off[i] couples i-1,i.
    let mut off = vec![0.0; m];
    off[1..m].copy_from_slice(&betas[..m - 1]);
    let eig = tql::tridiagonal_eigen(alphas.to_vec(), off)?;

    // Top-k by eigenvalue (descending).
    let mut vals = Vec::with_capacity(k);
    let mut vecs = Vec::with_capacity(k);
    let mut resids = Vec::with_capacity(k);
    for idx in (m - k..m).rev() {
        let lambda = eig.eigenvalues[idx];
        let y = eig.eigenvector(idx);
        // v = Q y
        let mut v = vec![0.0; n];
        for (j, qj) in basis.iter().enumerate() {
            vector::axpy(y[j], qj, &mut v);
        }
        vector::normalize(&mut v);
        // True residual ‖Av − λv‖.
        let mut av = vec![0.0; n];
        a.apply(&v, &mut av);
        vector::axpy(-lambda, &v, &mut av);
        resids.push(vector::norm2(&av));
        vals.push(lambda);
        vecs.push(v);
    }
    Ok((vals, vecs, resids))
}

/// Convenience: largest eigenpair of a symmetric operator.
pub fn largest_eigenpair<A: LinearOperator + ?Sized>(
    a: &A,
    opts: &LanczosOptions,
) -> Result<(f64, Vec<f64>), LinalgError> {
    let mut o = opts.clone();
    o.num_eigenpairs = 1;
    let res = largest_eigenpairs(a, &o)?;
    let lambda = res.eigenvalues[0];
    let v = res.eigenvectors.into_iter().next().expect("k=1 pair");
    Ok((lambda, v))
}

/// Compute a dense reference decomposition of a [`LinearOperator`] by
/// probing with unit vectors (tests / tiny operators only).
pub fn materialize<A: LinearOperator + ?Sized>(a: &A) -> DenseMatrix {
    let n = a.dim();
    let mut m = DenseMatrix::zeros(n, n);
    let mut e = vec![0.0; n];
    let mut col = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        a.apply(&e, &mut col);
        for i in 0..n {
            m.set(i, j, col[i]);
        }
        e[j] = 0.0;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::ones_direction;
    use crate::sparse::CsrMatrix;
    use crate::tql::symmetric_eigen;

    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            t.push((i, i, deg));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn finds_largest_eigenvalue_of_diagonal() {
        let d = CsrMatrix::from_diagonal(&[1.0, 5.0, 2.0, 4.0, 3.0]);
        let (lambda, v) = largest_eigenpair(&d, &LanczosOptions::default()).unwrap();
        assert!((lambda - 5.0).abs() < 1e-9);
        assert!(v[1].abs() > 0.99);
    }

    #[test]
    fn matches_dense_solver_on_laplacian() {
        let lap = path_laplacian(20);
        let dense = lap.to_dense();
        let reference = symmetric_eigen(&dense).unwrap();
        let res = largest_eigenpairs(
            &lap,
            &LanczosOptions {
                num_eigenpairs: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..3 {
            let expect = reference.eigenvalues[19 - i];
            assert!(
                (res.eigenvalues[i] - expect).abs() < 1e-8,
                "pair {i}: {} vs {}",
                res.eigenvalues[i],
                expect
            );
        }
    }

    #[test]
    fn deflation_excludes_known_direction() {
        // Deflating the ones vector from (cI − L) makes the top eigenpair
        // correspond to λ₂ of L.
        let n = 12;
        let lap = path_laplacian(n);
        let c = lap.gershgorin_upper_bound() + 1.0;
        let mut shifted = lap.to_dense();
        for i in 0..n {
            for j in 0..n {
                let identity = if i == j { c } else { 0.0 };
                shifted.set(i, j, identity - shifted.get(i, j));
            }
        }
        let opts = LanczosOptions {
            num_eigenpairs: 1,
            deflation: vec![ones_direction(n)],
            ..Default::default()
        };
        let (mu, v) = largest_eigenpair(&shifted, &opts).unwrap();
        let lambda2 = c - mu;
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        assert!(
            (lambda2 - expect).abs() < 1e-8,
            "lambda2 {} vs {}",
            lambda2,
            expect
        );
        // The Ritz vector is orthogonal to ones.
        let ones_coeff: f64 = v.iter().sum::<f64>() / (n as f64).sqrt();
        assert!(ones_coeff.abs() < 1e-8);
    }

    #[test]
    fn requesting_too_many_pairs_errors() {
        let d = CsrMatrix::from_diagonal(&[1.0, 2.0]);
        let opts = LanczosOptions {
            num_eigenpairs: 3,
            ..Default::default()
        };
        assert!(matches!(
            largest_eigenpairs(&d, &opts),
            Err(LinalgError::ProblemTooSmall { .. })
        ));
    }

    #[test]
    fn zero_requests_return_empty() {
        let d = CsrMatrix::from_diagonal(&[1.0, 2.0]);
        let opts = LanczosOptions {
            num_eigenpairs: 0,
            ..Default::default()
        };
        let r = largest_eigenpairs(&d, &opts).unwrap();
        assert!(r.eigenvalues.is_empty());
    }

    #[test]
    fn residuals_are_small() {
        let lap = path_laplacian(30);
        let res = largest_eigenpairs(
            &lap,
            &LanczosOptions {
                num_eigenpairs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for r in &res.residuals {
            assert!(*r < 1e-8, "residual {r}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let lap = path_laplacian(15);
        let a = largest_eigenpairs(&lap, &LanczosOptions::default()).unwrap();
        let b = largest_eigenpairs(&lap, &LanczosOptions::default()).unwrap();
        assert_eq!(a.eigenvalues, b.eigenvalues);
        assert_eq!(a.eigenvectors, b.eigenvectors);
    }

    #[test]
    fn materialize_reconstructs_matrix() {
        let lap = path_laplacian(5);
        let m = materialize(&lap);
        assert_eq!(m, lap.to_dense());
    }

    #[test]
    fn degenerate_top_eigenvalue_still_found() {
        // Diagonal with a repeated largest eigenvalue. A single-start-vector
        // Krylov method sees the two λ=5 coordinates as one direction, so it
        // is only guaranteed to report λ=5 once; every returned pair must
        // still be a genuine eigenpair. (The Fiedler driver only ever needs
        // k = 1, where degeneracy is harmless: any vector in the eigenspace
        // is a valid optimal relaxation solution.)
        let d = CsrMatrix::from_diagonal(&[5.0, 5.0, 1.0, 0.5, 0.1, 3.0]);
        let res = largest_eigenpairs(
            &d,
            &LanczosOptions {
                num_eigenpairs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((res.eigenvalues[0] - 5.0).abs() < 1e-7);
        // Second value is one of the true eigenvalues (5 after a breakdown
        // restart, or 3 if the Krylov space converged first).
        assert!(
            (res.eigenvalues[1] - 5.0).abs() < 1e-7 || (res.eigenvalues[1] - 3.0).abs() < 1e-7,
            "unexpected second eigenvalue {}",
            res.eigenvalues[1]
        );
        for r in &res.residuals {
            assert!(*r < 1e-6);
        }
    }
}
