//! Implicit-shift QL iteration for symmetric tridiagonal matrices.
//!
//! Second half of the dense symmetric eigensolver (EISPACK `tql2`): given
//! the tridiagonal produced by [`crate::householder::tridiagonalize`],
//! compute all eigenvalues and the eigenvectors accumulated onto an
//! initial basis.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::householder::Tridiagonal;

/// Full eigendecomposition of a symmetric matrix: `A v_k = λ_k v_k` with
/// eigenvalues ascending.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose *column* `k` is the eigenvector for `eigenvalues[k]`.
    pub eigenvectors: DenseMatrix,
}

impl SymmetricEigen {
    /// Extract eigenvector `k` as an owned vector.
    pub fn eigenvector(&self, k: usize) -> Vec<f64> {
        let n = self.eigenvectors.rows();
        (0..n).map(|i| self.eigenvectors.get(i, k)).collect()
    }
}

/// Maximum QL sweeps per eigenvalue before declaring failure.
const MAX_SWEEPS: usize = 50;

fn hypot(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

/// Eigen-decompose a symmetric tridiagonal matrix with eigenvector
/// accumulation, consuming `diag`/`off` (EISPACK convention: `off[0] == 0`,
/// `off[i]` couples `i-1, i`). `z` must hold the basis the eigenvectors are
/// expressed in (identity for "eigenvectors of T itself", the Householder
/// `Q` for "eigenvectors of the original dense matrix").
///
/// On success, eigenvalues (and the columns of `z`) are sorted ascending.
pub fn tql2_with_basis(
    mut diag: Vec<f64>,
    mut off: Vec<f64>,
    z: DenseMatrix,
) -> Result<SymmetricEigen, LinalgError> {
    let n = diag.len();
    if off.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "tql2 off-diagonal",
            expected: n,
            found: off.len(),
        });
    }
    if z.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "tql2 basis columns",
            expected: n,
            found: z.cols(),
        });
    }
    if n == 0 {
        return Ok(SymmetricEigen {
            eigenvalues: vec![],
            eigenvectors: z,
        });
    }

    // Shift the off-diagonal left: e[i] couples i and i+1 (NR convention).
    for i in 1..n {
        off[i - 1] = off[i];
    }
    off[n - 1] = 0.0;

    // The rotations act on pairs of basis columns; keep the basis
    // transposed (`zt[i·rows + k]` is entry `(k, i)`) so each one walks
    // two contiguous rows. The arithmetic per entry is unchanged.
    let rows = z.rows();
    let mut zt = vec![0.0; n * rows];
    for k in 0..rows {
        for (i, &v) in z.row(k).iter().enumerate() {
            zt[i * rows + k] = v;
        }
    }

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = diag[m].abs() + diag[m + 1].abs();
                if off[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_SWEEPS {
                return Err(LinalgError::NoConvergence {
                    solver: "tql2",
                    iterations: iter,
                    residual: off[l].abs(),
                    tolerance: f64::EPSILON,
                });
            }
            // Form shift.
            let mut g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
            let mut r = hypot(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = diag[m] - diag[l] + off[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut broke_early = false;
            for i in (l..m).rev() {
                let f = s * off[i];
                let b = c * off[i];
                r = hypot(f, g);
                off[i + 1] = r;
                if r == 0.0 {
                    diag[i + 1] -= p;
                    off[m] = 0.0;
                    broke_early = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diag[i + 1] - p;
                r = (diag[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diag[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector basis.
                let (head, tail) = zt.split_at_mut((i + 1) * rows);
                let (zi, zi1) = (&mut head[i * rows..], &mut tail[..rows]);
                for (v, f) in zi.iter_mut().zip(zi1.iter_mut()) {
                    let (vi, fi) = (*v, *f);
                    *f = s * vi + c * fi;
                    *v = c * vi - s * fi;
                }
            }
            if broke_early {
                continue;
            }
            diag[l] -= p;
            off[l] = g;
            off[m] = 0.0;
        }
    }

    // Sort ascending, permuting basis columns alongside.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| diag[a].partial_cmp(&diag[b]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut sorted = vec![0.0; rows * n];
    for (new_col, &old_col) in order.iter().enumerate() {
        for (r, &v) in zt[old_col * rows..(old_col + 1) * rows].iter().enumerate() {
            sorted[r * n + new_col] = v;
        }
    }
    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors: DenseMatrix::from_vec(rows, n, sorted)?,
    })
}

/// Full dense symmetric eigendecomposition: Householder + QL.
pub fn symmetric_eigen(a: &DenseMatrix) -> Result<SymmetricEigen, LinalgError> {
    let Tridiagonal { diag, off, q } = crate::householder::tridiagonalize(a)?;
    tql2_with_basis(diag, off, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// The eigenpairs of the tridiagonal `T` itself.
    fn tridiagonal_pairs(diag: Vec<f64>, off: Vec<f64>) -> Result<SymmetricEigen, LinalgError> {
        let n = diag.len();
        tql2_with_basis(diag, off, DenseMatrix::identity(n))
    }

    fn check_eigen(a: &DenseMatrix, eig: &SymmetricEigen, tol: f64) {
        let n = a.rows();
        for k in 0..n {
            let v = eig.eigenvector(k);
            let av = a.matvec(&v).unwrap();
            for i in 0..n {
                assert!(
                    (av[i] - eig.eigenvalues[k] * v[i]).abs() < tol,
                    "residual too large for eigenpair {k}"
                );
            }
            assert!((vector::norm2(&v) - 1.0).abs() < tol);
        }
        // Ascending order.
        for k in 1..n {
            assert!(eig.eigenvalues[k] >= eig.eigenvalues[k - 1] - tol);
        }
    }

    #[test]
    fn two_by_two_known_values() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = symmetric_eigen(&a).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
        check_eigen(&a, &eig, 1e-12);
    }

    #[test]
    fn path_graph_laplacian_spectrum() {
        // Path P_n Laplacian eigenvalues are 4 sin²(kπ/2n), k = 0..n-1.
        let n = 7;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            a.set(i, i, deg);
            if i + 1 < n {
                a.set(i, i + 1, -1.0);
                a.set(i + 1, i, -1.0);
            }
        }
        let eig = symmetric_eigen(&a).unwrap();
        for k in 0..n {
            let expect = 4.0
                * (std::f64::consts::PI * k as f64 / (2 * n) as f64)
                    .sin()
                    .powi(2);
            assert!(
                (eig.eigenvalues[k] - expect).abs() < 1e-10,
                "eigenvalue {k}: {} vs {}",
                eig.eigenvalues[k],
                expect
            );
        }
        check_eigen(&a, &eig, 1e-10);
    }

    #[test]
    fn diagonal_matrix_sorted() {
        let a = DenseMatrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ])
        .unwrap();
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![1.0, 2.0, 3.0]);
        check_eigen(&a, &eig, 1e-12);
    }

    #[test]
    fn random_symmetric_eigen_residuals() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for n in [2usize, 4, 9, 16, 25] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = rng.gen_range(-1.0..1.0);
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
            }
            let eig = symmetric_eigen(&a).unwrap();
            check_eigen(&a, &eig, 1e-8);
            // Trace is preserved.
            let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
            let sum: f64 = eig.eigenvalues.iter().sum();
            assert!((trace - sum).abs() < 1e-8);
        }
    }

    #[test]
    fn tridiagonal_eigen_direct() {
        // T = [[1, 2], [2, 1]] has eigenvalues -1, 3.
        let eig = tridiagonal_pairs(vec![1.0, 1.0], vec![0.0, 2.0]).unwrap();
        assert!((eig.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let eig = tridiagonal_pairs(vec![], vec![]).unwrap();
        assert!(eig.eigenvalues.is_empty());
        let eig = tridiagonal_pairs(vec![4.0], vec![0.0]).unwrap();
        assert_eq!(eig.eigenvalues, vec![4.0]);
    }

    #[test]
    fn mismatched_off_len_rejected() {
        assert!(tridiagonal_pairs(vec![1.0, 2.0], vec![0.0]).is_err());
    }
}
