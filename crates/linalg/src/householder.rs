//! Householder tridiagonalisation of dense symmetric matrices.
//!
//! This is the first half of the classic dense symmetric eigensolver
//! (EISPACK's `tred2`, as presented in Numerical Recipes and Golub & Van
//! Loan §8.3): an orthogonal similarity `QᵀAQ = T` reducing `A` to a
//! symmetric tridiagonal `T`, with the accumulated transform `Q` kept so
//! eigenvectors of `T` can be mapped back to eigenvectors of `A`.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;

/// Result of a tridiagonalisation: `QᵀAQ = tridiag(off, diag, off)`.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Main diagonal of `T`, length `n`.
    pub diag: Vec<f64>,
    /// Sub/super-diagonal of `T`, length `n` with `off[0] == 0` (the
    /// EISPACK convention: `off[i]` couples rows `i-1` and `i`).
    pub off: Vec<f64>,
    /// The accumulated orthogonal transform, column `j` of `q` is the image
    /// of the `j`-th tridiagonal basis vector in the original space.
    pub q: DenseMatrix,
}

/// Reduce a symmetric matrix to tridiagonal form with accumulated `Q`.
///
/// The input must be square and symmetric (checked up to `1e-10` relative
/// to the Frobenius norm).
pub fn tridiagonalize(a: &DenseMatrix) -> Result<Tridiagonal, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let tol = 1e-10 * a.frobenius_norm().max(1.0);
    a.require_symmetric(tol)?;
    if !crate::vector::all_finite(a.as_slice()) {
        return Err(LinalgError::NonFiniteInput {
            context: "tridiagonalize",
        });
    }

    // Work on a row-major copy; `z` ends up holding Q. Every loop below
    // walks rows of `z`; each sum keeps the term order of the textbook
    // column-walking form.
    let mut z = a.as_slice().to_vec();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];

    // Householder reduction (tred2, Numerical Recipes in C §11.2, adapted
    // to 0-based indexing).
    for i in (1..n).rev() {
        let l = i - 1;
        let (above, rest) = z.split_at_mut(i * n);
        let zi = &mut rest[..n];
        let mut h = 0.0f64;
        let mut scale = 0.0f64;
        if l > 0 {
            for v in &zi[..=l] {
                scale += v.abs();
            }
            if scale == 0.0 {
                e[i] = zi[l];
            } else {
                for v in zi[..=l].iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let mut f = zi[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                zi[l] = f - g;
                f = 0.0;
                // e[j] = (Σ_{k≤j} z[j][k]·z[i][k] + Σ_{k>j} z[k][j]·z[i][k]) / h,
                // both sums in ascending k. The second one reads column j of
                // the lower triangle, so it is gathered row by row once every
                // first sum is complete: the same terms in the same order.
                for j in 0..=l {
                    above[j * n + i] = zi[j] / h;
                    let mut g = 0.0;
                    for (zjk, zik) in above[j * n..=j * n + j].iter().zip(&zi[..=j]) {
                        g += zjk * zik;
                    }
                    e[j] = g;
                }
                for k in 1..=l {
                    let zik = zi[k];
                    for (ej, zkj) in e[..k].iter_mut().zip(&above[k * n..k * n + k]) {
                        *ej += zkj * zik;
                    }
                }
                for j in 0..=l {
                    e[j] /= h;
                    f += e[j] * zi[j];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = zi[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    let row = &mut above[j * n..=j * n + j];
                    for (zjk, (ek, zik)) in row.iter_mut().zip(e[..=j].iter().zip(&zi[..=j])) {
                        *zjk -= f * ek + g * zik;
                    }
                }
            }
        } else {
            e[i] = zi[l];
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate transformation matrices: g[j] = Σ_{k<i} z[i][k]·z[k][j] in
    // ascending k, then z[k][j] −= g[j]·z[k][i].
    for i in 0..n {
        if d[i] != 0.0 {
            let (above, rest) = z.split_at_mut(i * n);
            let zi = &rest[..i];
            let mut g = vec![0.0; i];
            for (k, &zik) in zi.iter().enumerate() {
                for (gj, zkj) in g.iter_mut().zip(&above[k * n..k * n + i]) {
                    *gj += zik * zkj;
                }
            }
            for row in above.chunks_exact_mut(n) {
                let zki = row[i];
                for (zkj, gj) in row[..i].iter_mut().zip(&g) {
                    *zkj -= gj * zki;
                }
            }
        }
        d[i] = z[i * n + i];
        z[i * n + i] = 1.0;
        for j in 0..i {
            z[j * n + i] = 0.0;
            z[i * n + j] = 0.0;
        }
    }

    Ok(Tridiagonal {
        diag: d,
        off: e,
        q: DenseMatrix::from_vec(n, n, z)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn transpose(m: &DenseMatrix) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                t.set(j, i, m.get(i, j));
            }
        }
        t
    }

    fn reconstruct(t: &Tridiagonal) -> DenseMatrix {
        // A = Q T Qᵀ
        let n = t.diag.len();
        let mut tm = DenseMatrix::zeros(n, n);
        for i in 0..n {
            tm.set(i, i, t.diag[i]);
            if i > 0 {
                tm.set(i, i - 1, t.off[i]);
                tm.set(i - 1, i, t.off[i]);
            }
        }
        t.q.matmul(&tm).unwrap().matmul(&transpose(&t.q)).unwrap()
    }

    fn assert_close(a: &DenseMatrix, b: &DenseMatrix, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a.get(i, j) - b.get(i, j)).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn tridiagonal_matrix_is_unchanged() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
        .unwrap();
        let t = tridiagonalize(&a).unwrap();
        assert_close(&reconstruct(&t), &a, 1e-12);
    }

    #[test]
    fn dense_symmetric_reconstructs() {
        let a = DenseMatrix::from_rows(&[
            vec![4.0, 1.0, -2.0, 2.0],
            vec![1.0, 2.0, 0.0, 1.0],
            vec![-2.0, 0.0, 3.0, -2.0],
            vec![2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        let t = tridiagonalize(&a).unwrap();
        assert_close(&reconstruct(&t), &a, 1e-10);
    }

    #[test]
    fn q_is_orthogonal() {
        let a = DenseMatrix::from_rows(&[
            vec![4.0, 1.0, -2.0, 2.0],
            vec![1.0, 2.0, 0.0, 1.0],
            vec![-2.0, 0.0, 3.0, -2.0],
            vec![2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        let t = tridiagonalize(&a).unwrap();
        let qtq = transpose(&t.q).matmul(&t.q).unwrap();
        assert_close(&qtq, &DenseMatrix::identity(4), 1e-12);
    }

    #[test]
    fn random_matrices_reconstruct() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let v = rng.gen_range(-1.0..1.0);
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
            }
            let t = tridiagonalize(&a).unwrap();
            assert_close(&reconstruct(&t), &a, 1e-9 * (n as f64));
            assert!(vector::all_finite(&t.diag));
            assert!(vector::all_finite(&t.off));
            assert_eq!(t.off[0], 0.0);
        }
    }

    #[test]
    fn rejects_nonsquare_and_asymmetric() {
        let ns = DenseMatrix::zeros(2, 3);
        assert!(tridiagonalize(&ns).is_err());
        let asym = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(tridiagonalize(&asym).is_err());
    }

    #[test]
    fn one_by_one() {
        let a = DenseMatrix::from_rows(&[vec![5.0]]).unwrap();
        let t = tridiagonalize(&a).unwrap();
        assert_eq!(t.diag, vec![5.0]);
    }
}
