//! The [`LinearOperator`] abstraction.
//!
//! Krylov methods only ever need `y = A x`. Expressing that as a trait
//! lets one solver run on dense and CSR matrices alike; the reference
//! conjugate-gradient solver of the test suite is written against it.

use crate::vector;

/// Anything that can act as a square linear map on `f64` vectors.
pub trait LinearOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Compute `y = A x`. Implementations may assume `x.len() == y.len() ==
    /// self.dim()` (guaranteed by all callers in this crate).
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Convenience wrapper allocating the output.
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }

    /// Rayleigh quotient `xᵀAx / xᵀx` for a nonzero `x`.
    fn rayleigh_quotient(&self, x: &[f64]) -> f64 {
        let ax = self.apply_vec(x);
        vector::dot(x, &ax) / vector::dot(x, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    fn lap_path3() -> DenseMatrix {
        // Path graph 0-1-2 Laplacian.
        DenseMatrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn rayleigh_quotient_of_eigenvector() {
        let a = lap_path3();
        // (1, 0, -1) is the λ=1 eigenvector of the path Laplacian.
        let rq = a.rayleigh_quotient(&[1.0, 0.0, -1.0]);
        assert!((rq - 1.0).abs() < 1e-14);
    }
}
