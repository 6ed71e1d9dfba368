//! The wheel: a hub joined to every vertex of a 3,000-vertex cycle.
//!
//! Above λ₁ = 0 its Laplacian's spectrum is 3 − 2cos(2πj/3000) for
//! j = 1..2999, each value double, and 3,001 once. So the low spectrum is
//! one tight cluster just above 1: λ₂ = λ₃ = 1 + 4.39e-6, λ₄ = λ₅ =
//! 1 + 1.75e-5, and block inverse iteration contracts there at a ratio
//! near one. A wider or cluster-aware block would buy a spectrum this
//! flat, which no point set the mapper orders produces. So the solver
//! keeps its block width and answers such a request with a typed
//! `NoConvergence`, never a wrong pair or a panic. This test pins that
//! decision under the default options and the size policy, which picks
//! the multilevel solver at 3,001 vertices: the Fiedler pair (k = 1)
//! converges, and three pairs (k = 3) give `NoConvergence`.

use slpm_linalg::fiedler::smallest_nonzero_eigenpairs_on;
use slpm_linalg::{CsrMatrix, FiedlerMethod, FiedlerOptions, LinalgError, Pool};

/// The Laplacian of a hub (vertex 0) joined to every vertex of a
/// `rim`-vertex cycle (vertices 1..=rim).
fn wheel_laplacian(rim: usize) -> CsrMatrix {
    let mut t = vec![(0, 0, rim as f64)];
    for i in 1..=rim {
        let next = i % rim + 1;
        t.extend([(0, i, -1.0), (i, 0, -1.0), (i, next, -1.0), (next, i, -1.0)]);
        t.push((i, i, 3.0));
    }
    CsrMatrix::from_triplets(rim + 1, rim + 1, &t).unwrap()
}

#[test]
fn wheel_converges_for_the_fiedler_pair_and_gives_no_convergence_for_three_pairs() {
    let rim = 3_000;
    let laplacian = wheel_laplacian(rim);
    let opts = FiedlerOptions::default();
    assert_eq!(FiedlerMethod::for_size(rim + 1), FiedlerMethod::Multilevel);

    let pairs = smallest_nonzero_eigenpairs_on(&laplacian, 1, &opts, &Pool::serial())
        .expect("the Fiedler pair of the wheel converges");
    // A residual within the target bounds the eigenvalue's error by the
    // target, and the target is below the gap to λ₄.
    let exact = |j: f64| 3.0 - 2.0 * (2.0 * std::f64::consts::PI * j / rim as f64).cos();
    let target = opts.tolerance * laplacian.gershgorin_upper_bound().max(1.0);
    assert!(target < exact(2.0) - exact(1.0));
    assert_eq!(pairs.len(), 1);
    assert!(
        (pairs[0].0 - exact(1.0)).abs() <= target,
        "λ₂ {} against {}",
        pairs[0].0,
        exact(1.0)
    );

    let three = smallest_nonzero_eigenpairs_on(&laplacian, 3, &opts, &Pool::serial());
    assert!(
        matches!(
            three,
            Err(LinalgError::NoConvergence {
                solver: "multilevel",
                ..
            })
        ),
        "three pairs of the wheel: {three:?}"
    );
}
