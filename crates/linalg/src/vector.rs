//! Primitive dense-vector kernels.
//!
//! Every iterative solver in this crate is built from the handful of
//! level-1 operations below. They operate on plain `&[f64]` / `&mut [f64]`
//! slices so callers never pay for a wrapper type, and they all assert
//! conforming lengths in debug builds (solvers guarantee conformance by
//! construction, so release builds skip the checks).

use crate::parallel::{tree_fold, REDUCE_CHUNK};

/// Single-chunk dot kernel: 4-lane accumulation, deterministic order.
/// The public [`dot`] (and the parallel pool's dot) apply this per
/// [`REDUCE_CHUNK`]-sized chunk and tree-fold the partials, so serial and
/// parallel reductions share one summation order exactly.
#[inline]
pub(crate) fn dot_kernel(x: &[f64], y: &[f64]) -> f64 {
    // Accumulate in lanes of 4 to give LLVM an easy vectorisation shape
    // while keeping summation order deterministic.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// The value a float `Iterator::sum` starts its fold from; the batched
/// sums fold from it too, so they repeat [`sum_kernel`] bit for bit.
#[inline(always)]
pub(crate) fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Single-chunk entry-sum kernel (same role as [`dot_kernel`]).
/// Deliberately a plain sequential fold: for sub-chunk inputs it is
/// bit-identical to the pre-chunking `iter().sum()` this crate always
/// used, so the parallel refactor does not perturb small-problem results.
#[inline]
pub(crate) fn sum_kernel(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Chunked deterministic sum: per-[`REDUCE_CHUNK`] partials, tree-folded.
/// Bitwise equal to the parallel pool's `sum` for every thread count.
pub(crate) fn sum_kernel_chunked(x: &[f64]) -> f64 {
    if x.len() <= REDUCE_CHUNK {
        return sum_kernel(x);
    }
    let mut partials: Vec<f64> = x.chunks(REDUCE_CHUNK).map(sum_kernel).collect();
    tree_fold(&mut partials)
}

/// Dot product `xᵀy`.
///
/// Computed per fixed-size chunk with a tree fold of the partials — the
/// identical order the parallel pool uses, so threading never changes the
/// result bits.
///
/// # Panics
/// Debug builds panic if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if x.len() <= REDUCE_CHUNK {
        return dot_kernel(x, y);
    }
    let mut partials: Vec<f64> = x
        .chunks(REDUCE_CHUNK)
        .zip(y.chunks(REDUCE_CHUNK))
        .map(|(a, b)| dot_kernel(a, b))
        .collect();
    tree_fold(&mut partials)
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Copy `src` into `dst`.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    debug_assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    dst.copy_from_slice(src);
}

/// Normalise `x` to unit Euclidean norm in place.
///
/// Returns the original norm. If the norm is zero the vector is left
/// untouched and `0.0` is returned (callers treat that as breakdown).
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Arithmetic mean of the entries (0 for an empty slice). Uses the same
/// chunked deterministic summation as the parallel pool.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    sum_kernel_chunked(x) / x.len() as f64
}

/// Subtract the mean from every entry, making the vector orthogonal to the
/// all-ones vector. This is the deflation step used throughout the Fiedler
/// computation (the constant vector spans the Laplacian null space on a
/// connected graph).
pub fn center(x: &mut [f64]) {
    let m = mean(x);
    for xi in x.iter_mut() {
        *xi -= m;
    }
}

/// Remove from `x` its component along the *unit* vector `q`:
/// `x ← x − (qᵀx) q`. Returns the removed coefficient `qᵀx`.
pub fn project_out(q: &[f64], x: &mut [f64]) -> f64 {
    let c = dot(q, x);
    axpy(-c, q, x);
    c
}

/// True if every entry is finite.
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Fill `x` with uniform random values in `(-1, 1)` from the supplied RNG.
/// Deterministic for a seeded RNG; used to start block iterations and
/// to draw probe directions.
pub fn fill_random<R: rand::Rng>(rng: &mut R, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi = rng.gen_range(-1.0..1.0);
    }
}

/// Canonical sign convention used across the crate: flip the vector so its
/// first *significant* entry (the first whose magnitude is within a small
/// relative tolerance of the maximum) is positive. Eigenvectors are only
/// defined up to sign; fixing the sign makes orders reproducible.
///
/// The tolerance matters: picking the strictly-largest entry is unstable
/// when two entries tie in magnitude up to rounding (e.g. the first and
/// last components of a path graph's Fiedler vector are `±cos(π/2n)`), and
/// different solvers would then canonicalise the same eigenvector to
/// opposite signs.
pub fn canonicalize_sign(x: &mut [f64]) {
    let max_abs = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max_abs == 0.0 {
        return;
    }
    let threshold = max_abs * (1.0 - 1e-9);
    if let Some(first) = x.iter().find(|v| v.abs() >= threshold) {
        if *first < 0.0 {
            scale(-1.0, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_of_unit_axes() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn normalize_returns_old_norm() {
        let mut x = [0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = [0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn center_makes_mean_zero() {
        let mut x = [1.0, 2.0, 3.0, 6.0];
        center(&mut x);
        assert!(mean(&x).abs() < 1e-15);
    }

    #[test]
    fn project_out_makes_orthogonal() {
        let q = {
            let mut q = vec![1.0, 1.0, 1.0, 1.0];
            normalize(&mut q);
            q
        };
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        project_out(&q, &mut x);
        assert!(dot(&q, &x).abs() < 1e-12);
    }

    #[test]
    fn canonicalize_sign_flips_when_needed() {
        let mut x = vec![0.1, -0.9, 0.2];
        canonicalize_sign(&mut x);
        assert!(x[1] > 0.0);
        // Flipping twice is idempotent.
        let before = x.clone();
        canonicalize_sign(&mut x);
        assert_eq!(before, x);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn fill_random_is_deterministic_for_seed() {
        use rand::SeedableRng;
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        fill_random(&mut rand::rngs::StdRng::seed_from_u64(7), &mut a);
        fill_random(&mut rand::rngs::StdRng::seed_from_u64(7), &mut b);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
