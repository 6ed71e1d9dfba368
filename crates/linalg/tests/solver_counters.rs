//! The multilevel solver's fallback counters ([`solver_counters`]).
//!
//! The counters are process-wide, so every check lives in this one test
//! binary's single test function: no other solve can run concurrently and
//! bleed into the deltas.

use slpm_linalg::fiedler::smallest_nonzero_eigenpairs_on;
use slpm_linalg::{
    solver_counters, CsrMatrix, FiedlerMethod, FiedlerOptions, LinalgError, MultilevelOptions, Pool,
};

/// Multilevel options with this tolerance, seed and refinement cap.
fn multilevel(tolerance: f64, seed: u64, max_refine_steps: usize) -> FiedlerOptions {
    FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        tolerance,
        seed,
        multilevel: MultilevelOptions {
            max_refine_steps,
            ..Default::default()
        },
    }
}

fn grid_laplacian(w: usize, h: usize) -> CsrMatrix {
    let idx = |x: usize, y: usize| x * h + y;
    let mut t = Vec::new();
    let mut deg = vec![0.0; w * h];
    for x in 0..w {
        for y in 0..h {
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx < w && ny < h {
                    t.push((idx(x, y), idx(nx, ny), -1.0));
                    t.push((idx(nx, ny), idx(x, y), -1.0));
                    deg[idx(x, y)] += 1.0;
                    deg[idx(nx, ny)] += 1.0;
                }
            }
        }
    }
    for (i, d) in deg.into_iter().enumerate() {
        t.push((i, i, d));
    }
    CsrMatrix::from_triplets(w * h, w * h, &t).unwrap()
}

/// Star K_{1,n-1}: heavy-edge matching contracts one pair per level, so
/// the hierarchy stalls far above the dense cap.
fn star_laplacian(n: usize) -> CsrMatrix {
    let mut t = Vec::new();
    for i in 1..n {
        t.push((0, i, -1.0));
        t.push((i, 0, -1.0));
        t.push((i, i, 1.0));
    }
    t.push((0, 0, (n - 1) as f64));
    CsrMatrix::from_triplets(n, n, &t).unwrap()
}

#[test]
fn fallbacks_are_counted_and_grids_take_none() {
    let pool = Pool::serial();
    let steps = MultilevelOptions::default().max_refine_steps;

    // A grid runs every inner solve on the V-cycle: no fallback of any kind.
    let before = solver_counters();
    let pairs = smallest_nonzero_eigenpairs_on(
        &grid_laplacian(48, 40),
        1,
        &multilevel(1e-9, 3, steps),
        &pool,
    )
    .unwrap();
    let grid = solver_counters().since(&before);
    assert!(pairs[0].0 > 0.0);
    assert_eq!(grid.vcycle_retries, 0, "{grid:?}");
    assert_eq!(grid.coarse_fallbacks, 0, "{grid:?}");
    assert!(grid.finest_solves > 0, "{grid:?}");
    assert!(grid.finest_iterations >= grid.finest_solves, "{grid:?}");

    // The star's stalled hierarchy takes the coarse fallback: block
    // inverse iteration from a random start on the input itself.
    let star_lap = star_laplacian(1500);
    let before = solver_counters();
    let pairs =
        smallest_nonzero_eigenpairs_on(&star_lap, 1, &multilevel(1e-9, 5, steps), &pool).unwrap();
    let star = solver_counters().since(&before);
    assert!((pairs[0].0 - 1.0).abs() < 1e-6);
    assert_eq!(star.coarse_fallbacks, 1, "{star:?}");
    assert_eq!(star.vcycle_retries, 0, "{star:?}");

    // A coarse fallback that misses its target (here one sweep towards an
    // unreachable tolerance) is a typed error of the solve, still counted
    // as a coarse fallback.
    let before = solver_counters();
    let err = smallest_nonzero_eigenpairs_on(&star_lap, 1, &multilevel(1e-30, 5, 1), &pool);
    let failed = solver_counters().since(&before);
    assert!(
        matches!(err, Err(LinalgError::NoConvergence { solver, .. }) if solver == "multilevel coarse fallback"),
        "{err:?}"
    );
    assert_eq!(failed.coarse_fallbacks, 1, "{failed:?}");
    assert_eq!(failed.vcycle_retries, 0, "{failed:?}");
}
