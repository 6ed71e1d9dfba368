//! Row-major dense matrices.
//!
//! Dense matrices appear in three places in the reproduction: the dense
//! eigensolver (for graphs small enough to materialise), the Rayleigh–Ritz
//! problem of each multilevel block iteration, and unit tests that compare
//! sparse kernels against a straightforward dense ground truth.

use crate::error::LinalgError;
use crate::operator::LinearOperator;

/// A dense `rows × cols` matrix stored row-major in one contiguous `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::from_vec",
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Build from nested rows (convenient in tests).
    ///
    /// Returns an error if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    context: "DenseMatrix::from_rows",
                    expected: c,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `y = A x` returning a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::matvec",
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            y[i] = crate::vector::dot(self.row(i), x);
        }
        Ok(y)
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "DenseMatrix::matmul",
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.add_to(i, j, aik * other.get(k, j));
                }
            }
        }
        Ok(out)
    }

    /// Largest absolute asymmetry `max |a_ij − a_ji|` (0 for non-square
    /// matrices is not meaningful; returns an error in that case).
    pub fn max_asymmetry(&self) -> Result<f64, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in i + 1..self.cols {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        Ok(worst)
    }

    /// Check symmetry up to `tol`, returning a [`LinalgError::NotSymmetric`]
    /// describing the worst violation otherwise.
    pub fn require_symmetric(&self, tol: f64) -> Result<(), LinalgError> {
        let worst = self.max_asymmetry()?;
        if worst > tol {
            Err(LinalgError::NotSymmetric {
                max_asymmetry: worst,
            })
        } else {
            Ok(())
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::norm2(&self.data)
    }
}

impl LinearOperator for DenseMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows, self.cols, "operator use requires square");
        self.rows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        for i in 0..self.rows {
            y[i] = crate::vector::dot(self.row(i), x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn get_set_row() {
        let mut m = sample();
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_against_identity() {
        let m = sample();
        let i = DenseMatrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_dimension_check() {
        let m = sample();
        let bad = DenseMatrix::zeros(3, 2);
        assert!(m.matmul(&bad).is_err());
    }

    #[test]
    fn symmetry_checks() {
        let sym = DenseMatrix::from_rows(&[vec![2.0, -1.0], vec![-1.0, 2.0]]).unwrap();
        sym.require_symmetric(0.0).unwrap();
        let asym = sample();
        assert!(matches!(
            asym.require_symmetric(1e-12),
            Err(LinalgError::NotSymmetric { .. })
        ));
        assert!(DenseMatrix::zeros(2, 3).max_asymmetry().is_err());
    }

    #[test]
    fn operator_apply_equals_matvec() {
        let m = DenseMatrix::from_rows(&[vec![2.0, -1.0], vec![-1.0, 2.0]]).unwrap();
        let x = [1.0, 2.0];
        let mut y = [0.0, 0.0];
        m.apply(&x, &mut y);
        assert_eq!(y.to_vec(), m.matvec(&x).unwrap());
    }

    #[test]
    fn frobenius_norm_value() {
        let m = sample();
        let expect = (1.0f64 + 4.0 + 9.0 + 16.0).sqrt();
        assert!((m.frobenius_norm() - expect).abs() < 1e-14);
    }
}
