//! Compressed sparse row (CSR) matrices.
//!
//! Graph Laplacians of k-dimensional grids have ≤ 2k+1 nonzeros per row, so
//! CSR is the natural storage: one `matvec` is a single pass over two flat
//! arrays. A matrix is built either from coordinate triplets (sorted,
//! duplicates merged, explicit zeros dropped) or, by a caller that already
//! holds sorted rows such as the graph layer's Laplacian, from its CSR
//! arrays directly. Column indices are 32 bits wide: a row's entries then
//! take 12 bytes instead of 16, which the solver's sparse products, bound
//! by memory traffic, read on every pass.

use crate::error::LinalgError;
use crate::operator::LinearOperator;
use crate::parallel::Pool;

/// The largest dimension a [`CsrMatrix`] (and so any graph or vertex set
/// the ordering path stores) may have: every column index fits in a `u32`.
pub const MAX_DIM: usize = u32::MAX as usize;

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants (enforced by all constructors):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing;
/// * all column indices are `< cols`, and `cols <= MAX_DIM`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from coordinate triplets `(row, col, value)`.
    ///
    /// Duplicate coordinates are summed in input order, starting from the
    /// first one's value; entries that sum to exactly zero are kept (callers
    /// may rely on structural nonzeros), but triplets with value `0.0` are
    /// dropped up front.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        check_cols(cols, "CsrMatrix::from_triplets")?;
        for &(r, c, v) in triplets {
            if r >= rows {
                return Err(LinalgError::DimensionMismatch {
                    context: "CsrMatrix::from_triplets row index",
                    expected: rows,
                    found: r,
                });
            }
            if c >= cols {
                return Err(LinalgError::DimensionMismatch {
                    context: "CsrMatrix::from_triplets col index",
                    expected: cols,
                    found: c,
                });
            }
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteInput {
                    context: "CsrMatrix::from_triplets",
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets
            .iter()
            .copied()
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        // Stable, so repeated coordinates stay in input order and their
        // sum does not depend on the sort's internals.
        sorted.sort_by_key(|a| (a.0, a.1));

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                // Duplicate coordinate: accumulate into the previous entry.
                *values.last_mut().expect("duplicate implies prior entry") += v;
                continue;
            }
            col_idx.push(c as u32); // `c < cols <= MAX_DIM`
            values.push(v);
            row_ptr[r + 1] += 1;
            last = Some((r, c));
        }
        // Turn per-row counts into cumulative offsets.
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Take ownership of ready-made CSR arrays, checking every invariant
    /// listed on [`CsrMatrix`] and that every value is finite.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        check_cols(cols, "CsrMatrix::from_parts")?;
        let nnz = col_idx.len();
        let offsets_ok = row_ptr.len() == rows + 1
            && row_ptr[0] == 0
            && row_ptr.windows(2).all(|w| w[0] <= w[1])
            && row_ptr[rows] == nnz
            && values.len() == nnz;
        let row_ok = |w: &[usize]| {
            let row = &col_idx[w[0]..w[1]];
            row.windows(2).all(|p| p[0] < p[1]) && row.last().is_none_or(|&c| (c as usize) < cols)
        };
        if !(offsets_ok && row_ptr.windows(2).all(row_ok)) {
            return Err(LinalgError::InvalidStructure {
                context: "CsrMatrix::from_parts",
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFiniteInput {
                context: "CsrMatrix::from_parts",
            });
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
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

    /// Iterate over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(i, j)` (0 if not stored). Binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let Ok(j) = u32::try_from(j) else {
            return 0.0;
        };
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// `ω / a_ii` for every row, zero where the diagonal is not positive,
    /// row-chunked on `pool`: the smoothers' and Jacobi's scaled inverse
    /// diagonal.
    pub(crate) fn damped_inverse_diagonal(&self, omega: f64, pool: &Pool) -> Vec<f64> {
        let mut d = vec![0.0; self.rows];
        pool.for_each_chunk(&mut d, |row0, chunk| {
            for (j, dj) in chunk.iter_mut().enumerate() {
                let v = self.get(row0 + j, row0 + j);
                *dj = if v > 0.0 { omega / v } else { 0.0 };
            }
        });
        d
    }

    /// `y = A x` into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        self.matvec_rows_into(0, x, y);
    }

    /// The rows `row0 .. row0 + y.len()` of `A x`, written into `y`. This
    /// is the row-chunk kernel behind both the serial [`matvec_into`] and
    /// the pool's row-parallel matvec ([`crate::parallel::Pool::
    /// matvec_into`]); each output row is computed identically regardless
    /// of how the row range is split, so serial and parallel products are
    /// bitwise equal.
    ///
    /// [`matvec_into`]: CsrMatrix::matvec_into
    pub fn matvec_rows_into(&self, row0: usize, x: &[f64], y: &mut [f64]) {
        debug_assert!(row0 + y.len() <= self.rows);
        for (j, out) in y.iter_mut().enumerate() {
            let i = row0 + j;
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
    }

    /// Row `i` of `A X` for a block `X` of row stride `xs` whose columns
    /// `x0 .. x0 + W` are read ([`crate::block`]): each column's terms are
    /// summed in stored order from `0.0`, exactly as
    /// [`CsrMatrix::matvec_rows_into`] sums one vector's.
    #[inline(always)]
    pub(crate) fn row_times<const W: usize>(
        &self,
        i: usize,
        x: &[f64],
        xs: usize,
        x0: usize,
    ) -> [f64; W] {
        let mut acc = [0.0f64; W];
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        for (&col, &a) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            let at = col as usize * xs + x0;
            let xr = &x[at..at + W];
            for c in 0..W {
                acc[c] += a * xr[c];
            }
        }
        acc
    }

    /// Row `i` of `A (D X)` for a diagonal `D = diag(d)` and a compact
    /// `n × W` block `X`, with each entry `d[k]·x[k, c]` rounded before it
    /// is multiplied in: the terms of [`CsrMatrix::row_times`] on the stored
    /// product, without storing it.
    #[inline(always)]
    pub(crate) fn row_times_scaled<const W: usize>(
        &self,
        i: usize,
        d: &[f64],
        x: &[f64],
    ) -> [f64; W] {
        let mut acc = [0.0f64; W];
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        for (&col, &a) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            let col = col as usize;
            let (dk, xr) = (d[col], &x[col * W..(col + 1) * W]);
            for c in 0..W {
                acc[c] += a * (dk * xr[c]);
            }
        }
        acc
    }

    /// `y = A x` returning a fresh vector, with dimension checking.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "CsrMatrix::matvec",
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// Densify (tests / tiny problems only).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut m = crate::dense::DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Largest `|a_ij − a_ji|` over stored entries; errors for non-square.
    pub fn max_asymmetry(&self) -> Result<f64, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                worst = worst.max((v - self.get(j, i)).abs());
            }
        }
        Ok(worst)
    }

    /// Verify symmetry within `tol`.
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

    /// Gershgorin upper bound on the spectrum of a symmetric matrix:
    /// `max_i (a_ii + Σ_{j≠i} |a_ij|)`. For a combinatorial Laplacian this
    /// equals twice the maximum degree, a cheap and safe shift for turning
    /// "smallest eigenvalue" problems into "largest eigenvalue" problems.
    pub fn gershgorin_upper_bound(&self) -> f64 {
        let mut bound = 0.0f64;
        for i in 0..self.rows {
            let mut radius = 0.0;
            let mut diag = 0.0;
            for (j, v) in self.row_iter(i) {
                if j == i {
                    diag = v;
                } else {
                    radius += v.abs();
                }
            }
            bound = bound.max(diag + radius);
        }
        bound
    }

    /// Row sums (for a Laplacian these must all be zero).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row_iter(i).map(|(_, v)| v).sum())
            .collect()
    }
}

/// A typed error for a column count whose indices would not fit in 32 bits.
fn check_cols(cols: usize, context: &'static str) -> Result<(), LinalgError> {
    if cols > MAX_DIM {
        return Err(LinalgError::TooLarge {
            context,
            dimension: cols,
        });
    }
    Ok(())
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows, self.cols);
        self.rows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagonal(d: &[f64]) -> CsrMatrix {
        let t: Vec<_> = d.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        CsrMatrix::from_triplets(d.len(), d.len(), &t).unwrap()
    }

    fn sample() -> CsrMatrix {
        // [2 -1 0; -1 2 -1; 0 -1 2]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap()
    }

    /// Number of stored entries, row by row.
    fn stored(m: &CsrMatrix) -> usize {
        (0..m.rows()).map(|i| m.row_iter(i).count()).sum()
    }

    #[test]
    fn construction_sorts_and_counts() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(stored(&m), 7);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(stored(&m), 2);
    }

    #[test]
    fn duplicates_are_summed_in_input_order() {
        // Left to right, 1e16 + 1 rounds back to 1e16 and the sum is 0;
        // adding the two large values first would give 1.
        let t = [(0, 0, 1e16), (1, 1, 2.0), (0, 0, 1.0), (0, 0, -1e16)];
        let m = CsrMatrix::from_triplets(2, 2, &t).unwrap();
        assert_eq!(m.get(0, 0).to_bits(), 0.0f64.to_bits());
        assert_eq!(stored(&m), 2, "a zero sum stays a structural entry");
    }

    #[test]
    fn zero_triplets_are_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 0.0), (1, 0, 3.0)]).unwrap();
        assert_eq!(stored(&m), 1);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn out_of_range_triplets_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn from_parts_keeps_valid_arrays_and_rejects_broken_ones() {
        let m =
            CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!((m.get(0, 2), m.get(1, 1), m.get(1, 0)), (2.0, 3.0, 0.0));
        let parts = |p: Vec<usize>, c: Vec<u32>, v: Vec<f64>| CsrMatrix::from_parts(2, 3, p, c, v);
        assert!(parts(vec![0, 2], vec![0, 1], vec![1.0; 2]).is_err()); // row_ptr too short
        assert!(parts(vec![1, 2, 2], vec![0, 1], vec![1.0; 2]).is_err()); // offset 0 missing
        assert!(parts(vec![0, 1, 2], vec![0, 1], vec![1.0; 1]).is_err()); // counts disagree
        assert!(parts(vec![0, 2, 1], vec![0], vec![1.0; 1]).is_err()); // decreasing offsets
        assert!(parts(vec![0, 2, 2], vec![1, 1], vec![1.0; 2]).is_err()); // repeated column
        assert!(parts(vec![0, 2, 2], vec![2, 1], vec![1.0; 2]).is_err()); // descending columns
        assert!(parts(vec![0, 1, 1], vec![3], vec![1.0]).is_err()); // column out of range
        assert!(parts(vec![0, 1, 1], vec![0], vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn dimensions_above_the_32_bit_limit_are_typed_errors() {
        let big = MAX_DIM + 1;
        for m in [
            CsrMatrix::from_triplets(1, big, &[]),
            CsrMatrix::from_parts(1, big, vec![0, 0], vec![], vec![]),
        ] {
            assert!(matches!(m, Err(LinalgError::TooLarge { dimension, .. }) if dimension == big));
        }
        let edge = CsrMatrix::from_parts(1, MAX_DIM, vec![0, 1], vec![u32::MAX - 1], vec![1.0]);
        assert_eq!(edge.unwrap().get(0, MAX_DIM - 1), 1.0);
        assert_eq!(sample().get(0, usize::MAX), 0.0);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (3, 3, 1.0)]).unwrap();
        assert_eq!(m.row_iter(1).count(), 0);
        assert_eq!(m.row_iter(2).count(), 0);
        let y = m.matvec(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x).unwrap(), d.matvec(&x).unwrap());
    }

    #[test]
    fn matvec_rejects_bad_length() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn diagonal_constructor() {
        let d = diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        assert_eq!(stored(&d), 3);
    }

    #[test]
    fn symmetry_and_gershgorin() {
        let m = sample();
        m.require_symmetric(0.0).unwrap();
        // Gershgorin bound of the tridiagonal [−1 2 −1] matrix is 2+2=4.
        assert_eq!(m.gershgorin_upper_bound(), 4.0);

        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(asym.require_symmetric(1e-12).is_err());
    }

    #[test]
    fn row_sums_zero_for_laplacian() {
        let lap = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)],
        )
        .unwrap();
        for s in lap.row_sums() {
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn operator_dim_and_apply() {
        let m = sample();
        assert_eq!(LinearOperator::dim(&m), 3);
        let mut y = vec![0.0; 3];
        m.apply(&[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y, vec![2.0, -1.0, 0.0]);
    }
}
