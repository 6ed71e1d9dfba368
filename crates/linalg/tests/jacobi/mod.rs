//! Cyclic Jacobi eigensolver for dense symmetric matrices — a test
//! oracle, not part of the library.
//!
//! Slower than Householder+QL but completely independent of it, which makes
//! it the cross-check of choice in tests: two different algorithms agreeing
//! on a spectrum is strong evidence both are right.

use slpm_linalg::dense::DenseMatrix;
use slpm_linalg::error::LinalgError;
use slpm_linalg::tql::SymmetricEigen;

/// Maximum number of full sweeps before giving up.
const MAX_SWEEPS: usize = 64;

/// Eigen-decompose a symmetric matrix with the cyclic Jacobi method.
///
/// Returns eigenvalues ascending with matching eigenvector columns, same
/// contract as [`slpm_linalg::tql::symmetric_eigen`].
pub fn jacobi_eigen(a: &DenseMatrix) -> Result<SymmetricEigen, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let tol = 1e-10 * a.frobenius_norm().max(1.0);
    a.require_symmetric(tol)?;

    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);

    let off_norm = |m: &DenseMatrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                s += m.get(i, j) * m.get(i, j);
            }
        }
        (2.0 * s).sqrt()
    };

    let stop = f64::EPSILON * m.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut sweeps = 0;
    while off_norm(&m) > stop {
        sweeps += 1;
        if sweeps > MAX_SWEEPS {
            return Err(LinalgError::NoConvergence {
                solver: "jacobi",
                iterations: sweeps,
                residual: off_norm(&m),
                tolerance: stop,
            });
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() <= stop / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Rotation angle (Golub & Van Loan §8.5.2).
                let theta = (aqq - app) / (2.0 * apq);
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Apply the rotation M ← JᵀMJ on rows/cols p,q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    // Extract and sort.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&x, &y| diag[x].partial_cmp(&diag[y]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut sorted_v = DenseMatrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            sorted_v.set(r, new_col, v.get(r, old_col));
        }
    }
    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors: sorted_v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_linalg::tql::symmetric_eigen;

    #[test]
    fn matches_ql_on_small_matrix() {
        let a = DenseMatrix::from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.0],
            vec![-2.0, 0.0, 3.0],
        ])
        .unwrap();
        let j = jacobi_eigen(&a).unwrap();
        let q = symmetric_eigen(&a).unwrap();
        for k in 0..3 {
            assert!((j.eigenvalues[k] - q.eigenvalues[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        for k in 0..4 {
            let v = eig.eigenvector(k);
            let av = a.matvec(&v).unwrap();
            for i in 0..4 {
                assert!((av[i] - eig.eigenvalues[k] * v[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn matches_ql_on_random_matrices() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for n in [2usize, 5, 10, 20] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let val = rng.gen_range(-3.0..3.0);
                    a.set(i, j, val);
                    a.set(j, i, val);
                }
            }
            let j = jacobi_eigen(&a).unwrap();
            let q = symmetric_eigen(&a).unwrap();
            for k in 0..n {
                assert!(
                    (j.eigenvalues[k] - q.eigenvalues[k]).abs() < 1e-7,
                    "n={n} k={k}: jacobi {} vs ql {}",
                    j.eigenvalues[k],
                    q.eigenvalues[k]
                );
            }
        }
    }

    #[test]
    fn identity_has_unit_spectrum() {
        let eig = jacobi_eigen(&DenseMatrix::identity(5)).unwrap();
        for l in eig.eigenvalues {
            assert!((l - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn rejects_asymmetric() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(jacobi_eigen(&a).is_err());
    }
}
