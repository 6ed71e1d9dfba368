//! The [`LinearOperator`] abstraction and operator combinators.
//!
//! Lanczos and CG only ever need `y = A x`. Expressing that as a trait lets
//! the Fiedler driver compose operators without materialising matrices:
//! a deflation projector `P = I − 𝟙𝟙ᵀ/n` around the shift-invert action
//! `x ↦ P L⁺ P x` implemented by an inner CG solve.

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

/// `P A P` where `P = I − QQᵀ` projects out an orthonormal set of directions
/// (for Laplacians: the constant vector, i.e. the known kernel).
///
/// Applying the projector on both sides keeps the operator symmetric, which
/// Lanczos requires.
pub struct DeflatedOperator<'a, A: LinearOperator + ?Sized> {
    inner: &'a A,
    /// Orthonormal directions to project out.
    basis: &'a [Vec<f64>],
}

impl<'a, A: LinearOperator + ?Sized> DeflatedOperator<'a, A> {
    /// Wrap `inner` with the deflation basis `basis` (each entry must be a
    /// unit vector of matching dimension; orthonormality is the caller's
    /// responsibility).
    pub fn new(inner: &'a A, basis: &'a [Vec<f64>]) -> Self {
        debug_assert!(basis.iter().all(|q| q.len() == inner.dim()));
        DeflatedOperator { inner, basis }
    }

    fn project(&self, x: &mut [f64]) {
        for q in self.basis {
            vector::project_out(q, x);
        }
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for DeflatedOperator<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut xp = x.to_vec();
        self.project(&mut xp);
        self.inner.apply(&xp, y);
        self.project(y);
    }
}

/// The unit-normalised all-ones vector of dimension `n`, i.e. the kernel of
/// the Laplacian of a connected graph.
pub fn ones_direction(n: usize) -> Vec<f64> {
    vec![1.0 / (n as f64).sqrt(); n]
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
    fn deflated_operator_kills_kernel() {
        let a = lap_path3();
        let basis = vec![ones_direction(3)];
        let d = DeflatedOperator::new(&a, &basis);
        // Applying to the ones vector gives (numerically) zero.
        let y = d.apply_vec(&[1.0, 1.0, 1.0]);
        assert!(vector::norm_inf(&y) < 1e-12);
        // Applying to a centered vector agrees with A (P x = x, P A x = A x
        // because A's range is already orthogonal to ones).
        let x = [1.0, 0.0, -1.0];
        let ya = a.matvec(&x).unwrap();
        let yd = d.apply_vec(&x);
        for i in 0..3 {
            assert!((ya[i] - yd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn rayleigh_quotient_of_eigenvector() {
        let a = lap_path3();
        // (1, 0, -1) is the λ=1 eigenvector of the path Laplacian.
        let rq = a.rayleigh_quotient(&[1.0, 0.0, -1.0]);
        assert!((rq - 1.0).abs() < 1e-14);
    }

    #[test]
    fn ones_direction_is_unit() {
        let q = ones_direction(9);
        assert!((vector::norm2(&q) - 1.0).abs() < 1e-14);
    }
}
