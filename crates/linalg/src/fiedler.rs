//! Computing the Fiedler pair (λ₂, v₂) of a graph Laplacian.
//!
//! This is the numerical heart of Spectral LPM (step 3 of the paper's
//! pseudo-code): the second-smallest eigenvalue of `L = D − A` — the
//! *algebraic connectivity* (Fiedler 1973) — and its eigenvector, whose
//! component order is the spectral linear order.
//!
//! Every solve is one call chain: [`smallest_nonzero_eigenpairs_on`]
//! checks the Laplacian, resolves the method once
//! ([`FiedlerOptions::method_for`]), and runs the dense path (Householder +
//! QL, O(n³)) or the multilevel path of [`crate::multilevel`] (a
//! [`Hierarchy`] built here, then
//! [`multilevel::smallest_nonzero_eigenpairs_on_hierarchy`]; its block
//! carries guard vectors, so a repeated λ₂ comes back with every copy).
//! Two cut-offs decide the path: [`FiedlerMethod::DENSE_MAX`] picks the
//! method label, and the multilevel driver still solves densely up to
//! [`MultilevelOptions::coarsest_size`] vertices, with the dense path's
//! bits. [`fiedler_pair_on`] is the solve at `k = 1` plus the residual;
//! [`fiedler_pair_balanced_on`] also canonicalises a degenerate λ₂.

use crate::error::LinalgError;
use crate::multilevel::{self, Hierarchy, MultilevelOptions};
use crate::operator::LinearOperator;
use crate::parallel::Pool;
use crate::sparse::CsrMatrix;
use crate::vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Strategy for the Fiedler computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiedlerMethod {
    /// Dense Householder + QL (exact, O(n³)); only sensible for n ≲ 2000.
    Dense,
    /// Coarsen–project–refine multilevel scheme (see [`crate::multilevel`]):
    /// heavy-edge coarsening to a small graph, dense coarse solve, then
    /// block inverse-iteration refinement per level. The only path that is
    /// practical at 10⁵–10⁶ vertices.
    Multilevel,
}

impl FiedlerMethod {
    /// Largest vertex count [`FiedlerMethod::for_size`] solves with the
    /// exact dense path.
    pub const DENSE_MAX: usize = 96;

    /// The size policy: the method every solve of an `n`-vertex Laplacian
    /// uses unless [`FiedlerOptions::method`] names one. Dense QL up to
    /// [`FiedlerMethod::DENSE_MAX`] (exact and instant), multilevel beyond.
    pub fn for_size(n: usize) -> Self {
        if n <= Self::DENSE_MAX {
            FiedlerMethod::Dense
        } else {
            FiedlerMethod::Multilevel
        }
    }

    /// Parse a method name as [`fmt::Display`] writes it.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "dense" => FiedlerMethod::Dense,
            "multilevel" => FiedlerMethod::Multilevel,
            _ => return None,
        })
    }
}

impl fmt::Display for FiedlerMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            FiedlerMethod::Dense => "dense",
            FiedlerMethod::Multilevel => "multilevel",
        })
    }
}

/// Options for [`fiedler_pair_on`].
#[derive(Debug, Clone)]
pub struct FiedlerOptions {
    /// Strategy to use; `None` (the default) picks one per input size with
    /// [`FiedlerMethod::for_size`]. `Some` pins a method, for ablations and
    /// comparisons.
    pub method: Option<FiedlerMethod>,
    /// Relative residual tolerance on the eigenpair.
    pub tolerance: f64,
    /// RNG seed for the multilevel block's random vectors and for the
    /// direction [`fiedler_pair_balanced_on`] projects onto a repeated λ₂.
    pub seed: u64,
    /// Tuning knobs for [`FiedlerMethod::Multilevel`] (ignored by the other
    /// methods).
    pub multilevel: MultilevelOptions,
}

impl FiedlerOptions {
    /// The method an `n`-vertex solve runs: [`FiedlerOptions::method`], or
    /// the size policy's pick ([`FiedlerMethod::for_size`]) when that is
    /// `None`. Every solve resolves its method here, once.
    pub fn method_for(&self, n: usize) -> FiedlerMethod {
        self.method.unwrap_or_else(|| FiedlerMethod::for_size(n))
    }
}

impl Default for FiedlerOptions {
    fn default() -> Self {
        FiedlerOptions {
            method: None,
            tolerance: 1e-9,
            seed: 0xF1ED_1EB2,
            multilevel: MultilevelOptions::default(),
        }
    }
}

/// A computed Fiedler pair plus diagnostics.
#[derive(Debug, Clone)]
pub struct FiedlerPair {
    /// The algebraic connectivity λ₂ ≥ 0 (0 iff the graph is disconnected).
    pub lambda2: f64,
    /// Unit-norm Fiedler vector, mean-centred and sign-canonicalised
    /// ([`vector::canonicalize_sign`]).
    pub vector: Vec<f64>,
    /// Residual `‖L v − λ₂ v‖` measured against the *original* Laplacian.
    pub residual: f64,
    /// Which method produced the answer: [`FiedlerOptions::method`], or
    /// what the size policy chose for it.
    pub method: FiedlerMethod,
}

/// The checks every entry point makes once, and the method it solves by:
/// at least `k + 1` rows, symmetric with zero row sums — so an adjacency
/// matrix (or a shifted Laplacian) passed by mistake fails loudly instead
/// of yielding a meaningless "eigenpair".
fn prepare(
    laplacian: &CsrMatrix,
    k: usize,
    opts: &FiedlerOptions,
) -> Result<FiedlerMethod, LinalgError> {
    let n = laplacian.rows();
    if n < k + 1 {
        return Err(LinalgError::ProblemTooSmall {
            dimension: n,
            minimum: k + 1,
        });
    }
    // Both the symmetry and the zero-row-sum tolerances are scaled to the
    // matrix magnitude: weighted affinity Laplacians with large
    // degrees/weights accumulate round-off proportional to their entries,
    // and a fixed absolute bound would reject valid library-built inputs
    // at scale.
    let scale = laplacian.gershgorin_upper_bound().max(1.0);
    laplacian.require_symmetric(1e-9 * scale)?;
    let worst_row_sum = laplacian
        .row_sums()
        .into_iter()
        .fold(0.0f64, |m, s| m.max(s.abs()));
    if worst_row_sum > 1e-9 * scale {
        return Err(LinalgError::NonFiniteInput {
            context: "matrix is not a Laplacian (nonzero row sums)",
        });
    }
    Ok(opts.method_for(n))
}

/// The `k ≥ 1` smallest nonzero pairs of a [`prepare`]d Laplacian: the one
/// dense path, or a [`Hierarchy`] at the driver's block width and the
/// hierarchy solve on it.
fn solve(
    laplacian: &CsrMatrix,
    k: usize,
    method: FiedlerMethod,
    opts: &FiedlerOptions,
    pool: &Pool<'_>,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let ml = &opts.multilevel;
    match (method, multilevel::block_width(laplacian.rows(), k, ml)) {
        (FiedlerMethod::Multilevel, Some(block)) => {
            let hierarchy = Hierarchy::build(laplacian, block, ml, pool)?;
            multilevel::smallest_nonzero_eigenpairs_on_hierarchy(
                laplacian,
                &hierarchy,
                k,
                opts.tolerance,
                opts.seed,
                ml,
                pool,
            )
        }
        _ => multilevel::dense_smallest(laplacian, k),
    }
}

/// A Fiedler pair from its canonical-form vector `v` and `lambda2` (Ritz
/// value or Rayleigh quotient), with the residual `‖L v − λ₂ v‖`.
fn finish(
    laplacian: &CsrMatrix,
    lambda2: f64,
    v: Vec<f64>,
    method: FiedlerMethod,
) -> Result<FiedlerPair, LinalgError> {
    let mut r = laplacian.matvec(&v)?;
    vector::axpy(-lambda2, &v, &mut r);
    Ok(FiedlerPair {
        lambda2,
        residual: vector::norm2(&r),
        vector: v,
        method,
    })
}

/// Compute the Fiedler pair of a combinatorial Laplacian on `pool`: the
/// solve of [`smallest_nonzero_eigenpairs_on`] at `k = 1`, plus the
/// residual.
///
/// Preconditions (checked): `laplacian` is square, symmetric, has zero row
/// sums, and represents a **connected** graph — disconnected graphs have
/// λ₂ = 0 and no meaningful spectral order; connectivity must be verified by
/// the caller (the graph layer does) and is re-checked here cheaply via the
/// computed λ₂.
///
/// Every kernel down the call chain (multilevel coarsening, smoothing,
/// refinement and inner PCG solves, CSR matvec) schedules onto `pool`;
/// the pool alone decides how many threads run, and never changes a
/// result bit.
pub fn fiedler_pair_on(
    laplacian: &CsrMatrix,
    opts: &FiedlerOptions,
    pool: &Pool<'_>,
) -> Result<FiedlerPair, LinalgError> {
    let method = prepare(laplacian, 1, opts)?;
    let (lambda2, v) = solve(laplacian, 1, method, opts, pool)?.swap_remove(0);
    finish(laplacian, lambda2, v, method)
}

/// The `k` smallest **nonzero** eigenpairs of a connected Laplacian,
/// ascending: `(λ₂, v₂), (λ₃, v₃), …` — the one solve behind every entry
/// point of this module (module docs), used directly by the multi-vector
/// spectral order and by diagnostics. Checks its input like
/// [`fiedler_pair_on`]; every pair is centred, unit-norm and
/// sign-canonicalised. Runs on `pool`.
pub fn smallest_nonzero_eigenpairs_on(
    laplacian: &CsrMatrix,
    k: usize,
    opts: &FiedlerOptions,
    pool: &Pool<'_>,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let method = prepare(laplacian, k, opts)?;
    if k == 0 {
        return Ok(vec![]);
    }
    solve(laplacian, k, method, opts, pool)
}

/// Relative gap below which λ₂ and λ₃ are treated as one degenerate
/// cluster by [`fiedler_pair_balanced_on`].
const DEGENERACY_REL_TOL: f64 = 1e-6;

/// [`fiedler_pair_on`] with a canonical representative when λ₂ is degenerate.
///
/// On symmetric inputs (square grids, hypercubes) λ₂ has multiplicity > 1
/// and *any* unit vector in its eigenspace is an optimal solution of the
/// spectral relaxation. A solver then returns an arbitrary,
/// method-dependent element of that space — in the worst case a pure
/// axis mode, which collapses the spectral order onto a row-major sweep and
/// destroys the fairness property of paper Figure 5b. This entry point
/// detects the cluster (λ ≤ λ₂·(1 + 1e-6)), and replaces the solver's
/// representative by the projection of one fixed, seed-deterministic
/// direction onto the whole eigenspace. That choice is independent of the
/// basis the solver happened to produce, reproducible across methods, and
/// generically mixes every degenerate mode.
///
/// The probe window is capped at 8 eigenpairs: clusters of multiplicity
/// above 8 (complete-graph-like spectra, hypercubes beyond 8 dimensions)
/// get the projection onto the first 8 cluster vectors the solver found,
/// which is still deterministic per method but no longer
/// method-independent.
///
/// Non-degenerate inputs get the canonical-form vector of the spectrum
/// probe without a second solve. Either way λ₂ is the vector's Rayleigh
/// quotient.
///
/// Runs on `pool`, like [`fiedler_pair_on`].
pub fn fiedler_pair_balanced_on(
    laplacian: &CsrMatrix,
    opts: &FiedlerOptions,
    pool: &Pool<'_>,
) -> Result<FiedlerPair, LinalgError> {
    let n = laplacian.rows();
    if n < 3 {
        return fiedler_pair_on(laplacian, opts, pool);
    }
    // Probe the bottom of the spectrum, widening until the cluster around
    // λ₂ is fully inside the window (or the window hits its cap). Starting
    // at k = 3 resolves the most common degenerate input — a square 2-D
    // grid, multiplicity exactly 2 — in a single solve.
    let max_k = (n - 1).min(8);
    let mut k = 3.min(max_k);
    let method = prepare(laplacian, k, opts)?;
    let mut pairs = solve(laplacian, k, method, opts, pool)?;
    let cluster_len = |pairs: &[(f64, Vec<f64>)]| {
        let lambda2 = pairs[0].0;
        pairs
            .iter()
            .take_while(|(l, _)| *l <= lambda2 * (1.0 + DEGENERACY_REL_TOL) + 1e-12)
            .count()
    };
    let mut m = cluster_len(&pairs);
    while m == pairs.len() && k < max_k {
        k = (k * 2).min(max_k);
        pairs = solve(laplacian, k, method, opts, pool)?;
        m = cluster_len(&pairs);
    }
    if m <= 1 {
        // λ₂ is simple: pairs[0] already *is* the (centred, normalised,
        // sign-canonicalised) Fiedler vector.
        let v = pairs.swap_remove(0).1;
        return finish(laplacian, laplacian.rayleigh_quotient(&v), v, method);
    }

    // Orthonormalise the cluster's Ritz vectors (they are already close).
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    for (_, v) in pairs.into_iter().take(m) {
        let mut w = v;
        for b in &basis {
            vector::project_out(b, &mut w);
        }
        if vector::normalize(&mut w) > 1e-8 {
            basis.push(w);
        }
    }

    // Canonical representative: project a fixed generic direction onto the
    // eigenspace.
    let mut probe = vec![0.0; n];
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xBA1A_9CED_0000_0000);
    vector::fill_random(&mut rng, &mut probe);
    let mut v = vec![0.0; n];
    for b in &basis {
        let c = vector::dot(b, &probe);
        vector::axpy(c, b, &mut v);
    }
    vector::center(&mut v);
    if vector::normalize(&mut v) == 0.0 {
        // The probe was (numerically) orthogonal to the eigenspace; keep
        // the solver's representative rather than fail.
        v = basis.swap_remove(0);
    }
    vector::canonicalize_sign(&mut v);
    finish(laplacian, laplacian.rayleigh_quotient(&v), v, method)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn cycle_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            let j = (i + 1) % n;
            t.push((i, j, -1.0));
            t.push((j, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn expected_path_lambda2(n: usize) -> f64 {
        4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2)
    }

    /// Options pinning `method`. Multilevel gets a coarsest size of 4, so
    /// that even these tiny graphs are solved on a real hierarchy rather
    /// than by the driver's exact dense path.
    fn with_method(method: FiedlerMethod) -> FiedlerOptions {
        FiedlerOptions {
            method: Some(method),
            multilevel: MultilevelOptions {
                coarsest_size: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn multilevel() -> FiedlerOptions {
        with_method(FiedlerMethod::Multilevel)
    }

    const METHODS: [FiedlerMethod; 2] = [FiedlerMethod::Dense, FiedlerMethod::Multilevel];

    #[test]
    fn default_options_follow_the_size_policy() {
        // `method: None` resolves per input size, and the pair reports the
        // method that actually ran, from every entry point.
        for n in [FiedlerMethod::DENSE_MAX, FiedlerMethod::DENSE_MAX + 1] {
            let lap = path_laplacian(n);
            let expect = FiedlerMethod::for_size(n);
            let opts = FiedlerOptions::default();
            let plain = fiedler_pair_on(&lap, &opts, &Pool::default()).unwrap();
            let balanced = fiedler_pair_balanced_on(&lap, &opts, &Pool::default()).unwrap();
            assert_eq!(plain.method, expect);
            assert_eq!(balanced.method, expect);
            assert!((plain.lambda2 - expected_path_lambda2(n)).abs() < 1e-7);
        }
    }

    #[test]
    fn method_names_round_trip() {
        for m in METHODS {
            assert_eq!(FiedlerMethod::parse(&m.to_string()), Some(m));
        }
        for bad in ["auto", "shift-invert", "shifted-direct", "Dense", ""] {
            assert_eq!(FiedlerMethod::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn all_methods_agree_on_path() {
        let n = 16;
        let lap = path_laplacian(n);
        let expect = expected_path_lambda2(n);
        for method in METHODS {
            let opts = with_method(method);
            let pair = fiedler_pair_on(&lap, &opts, &Pool::default()).unwrap();
            assert!(
                (pair.lambda2 - expect).abs() < 1e-7,
                "{method:?}: lambda2 {} vs {}",
                pair.lambda2,
                expect
            );
            assert!(
                pair.residual < 1e-6,
                "{method:?}: residual {}",
                pair.residual
            );
        }
    }

    #[test]
    fn balanced_matches_plain_on_simple_spectrum() {
        // λ₂ of a path is simple, so the balanced entry point must return
        // the same pair as fiedler_pair_on (fast path, no second solve).
        let lap = path_laplacian(16);
        for method in METHODS {
            let opts = with_method(method);
            let plain = fiedler_pair_on(&lap, &opts, &Pool::default()).unwrap();
            let balanced = fiedler_pair_balanced_on(&lap, &opts, &Pool::default()).unwrap();
            assert!(
                (plain.lambda2 - balanced.lambda2).abs() < 1e-8,
                "{method:?}: {} vs {}",
                plain.lambda2,
                balanced.lambda2
            );
            assert_eq!(balanced.method, method);
            let diff: f64 = plain
                .vector
                .iter()
                .zip(&balanced.vector)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-6, "{method:?}: vectors differ by {diff:.2e}");
        }
    }

    #[test]
    fn balanced_rejects_non_laplacian() {
        // Adjacency-like symmetric matrix (nonzero row sums) must be
        // rejected by the balanced entry point too, not just fiedler_pair_on.
        let adj =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
                .unwrap();
        assert!(fiedler_pair_on(&adj, &FiedlerOptions::default(), &Pool::default()).is_err());
        assert!(
            fiedler_pair_balanced_on(&adj, &FiedlerOptions::default(), &Pool::default()).is_err()
        );
    }

    #[test]
    fn fiedler_vector_of_path_is_monotone() {
        // The path's Fiedler vector is cos(π(i+0.5)/n): strictly monotone,
        // so the spectral order recovers the path order (or its reverse).
        let lap = path_laplacian(10);
        let pair = fiedler_pair_on(&lap, &multilevel(), &Pool::default()).unwrap();
        let v = &pair.vector;
        let increasing = v.windows(2).all(|w| w[1] > w[0]);
        let decreasing = v.windows(2).all(|w| w[1] < w[0]);
        assert!(increasing || decreasing, "vector {:?} not monotone", v);
    }

    #[test]
    fn cycle_lambda2_known_value() {
        // Cycle C_n: λ₂ = 2 − 2cos(2π/n), multiplicity 2.
        let n = 12;
        let lap = cycle_laplacian(n);
        let expect = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        for method in METHODS {
            let pair = fiedler_pair_on(&lap, &with_method(method), &Pool::default()).unwrap();
            assert!(
                (pair.lambda2 - expect).abs() < 1e-7,
                "{method:?}: {} vs {expect}",
                pair.lambda2
            );
            assert!(pair.residual < 1e-6);
        }
    }

    #[test]
    fn vector_is_centered_unit_sign_canonical() {
        let lap = path_laplacian(9);
        let pair = fiedler_pair_on(&lap, &multilevel(), &Pool::default()).unwrap();
        assert!(vector::mean(&pair.vector).abs() < 1e-10);
        assert!((vector::norm2(&pair.vector) - 1.0).abs() < 1e-10);
        let mut copy = pair.vector.clone();
        vector::canonicalize_sign(&mut copy);
        assert_eq!(copy, pair.vector);
    }

    #[test]
    fn complete_graph_lambda2_is_n() {
        // K_n has λ₂ = n.
        let n = 6;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, (n - 1) as f64));
            for j in 0..n {
                if i != j {
                    t.push((i, j, -1.0));
                }
            }
        }
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let pair = fiedler_pair_on(&lap, &multilevel(), &Pool::default()).unwrap();
        assert!((pair.lambda2 - n as f64).abs() < 1e-7);
    }

    #[test]
    fn rejects_tiny_problems() {
        let lap = CsrMatrix::from_triplets(1, 1, &[(0, 0, 0.0)]).unwrap();
        assert!(matches!(
            fiedler_pair_on(&lap, &FiedlerOptions::default(), &Pool::default()),
            Err(LinalgError::ProblemTooSmall { .. })
        ));
    }

    #[test]
    fn rejects_non_laplacian() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]).unwrap();
        assert!(fiedler_pair_on(&m, &FiedlerOptions::default(), &Pool::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let lap = path_laplacian(20);
        let a = fiedler_pair_on(&lap, &multilevel(), &Pool::default()).unwrap();
        let b = fiedler_pair_on(&lap, &multilevel(), &Pool::default()).unwrap();
        assert_eq!(a.vector, b.vector);
        assert_eq!(a.lambda2, b.lambda2);
    }

    #[test]
    fn smallest_nonzero_pairs_match_dense() {
        let n = 14;
        let lap = path_laplacian(n);
        let iterative =
            smallest_nonzero_eigenpairs_on(&lap, 3, &multilevel(), &Pool::default()).unwrap();
        let dense = smallest_nonzero_eigenpairs_on(
            &lap,
            3,
            &with_method(FiedlerMethod::Dense),
            &Pool::default(),
        )
        .unwrap();
        assert_eq!(iterative.len(), 3);
        for i in 0..3 {
            let expect = 4.0
                * (std::f64::consts::PI * (i + 1) as f64 / (2.0 * n as f64))
                    .sin()
                    .powi(2);
            assert!(
                (iterative[i].0 - expect).abs() < 1e-7,
                "iterative pair {i}: {} vs {expect}",
                iterative[i].0
            );
            assert!((dense[i].0 - expect).abs() < 1e-8);
            // Both representatives are genuine eigenvectors.
            for (lambda, v) in [&iterative[i], &dense[i]] {
                let lv = lap.matvec(v).unwrap();
                let mut r = lv;
                vector::axpy(-lambda, v, &mut r);
                assert!(vector::norm2(&r) < 1e-6, "pair {i} residual");
            }
        }
        // Ascending order.
        assert!(iterative[0].0 <= iterative[1].0);
        assert!(iterative[1].0 <= iterative[2].0);
    }

    #[test]
    fn smallest_nonzero_pairs_edge_cases() {
        let lap = path_laplacian(4);
        assert!(smallest_nonzero_eigenpairs_on(
            &lap,
            0,
            &FiedlerOptions::default(),
            &Pool::default()
        )
        .unwrap()
        .is_empty());
        assert!(smallest_nonzero_eigenpairs_on(
            &lap,
            4,
            &FiedlerOptions::default(),
            &Pool::default()
        )
        .is_err());
    }

    #[test]
    fn weighted_laplacian_supported() {
        // Two nodes joined by weight-5 edge: L = [[5,-5],[-5,5]], λ₂ = 10.
        let lap = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 5.0), (0, 1, -5.0), (1, 0, -5.0), (1, 1, 5.0)],
        )
        .unwrap();
        let pair = fiedler_pair_on(
            &lap,
            &FiedlerOptions {
                method: Some(FiedlerMethod::Dense),
                ..Default::default()
            },
            &Pool::default(),
        )
        .unwrap();
        assert!((pair.lambda2 - 10.0).abs() < 1e-9);
    }
}
