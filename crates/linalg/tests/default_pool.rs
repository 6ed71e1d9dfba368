//! The process-wide pool behind `Pool::default()` is shared: callers on
//! different threads submit to the same workers at the same time. Each
//! must still get the serial bits, because every kernel's chunk grid and
//! fold order depend on the problem size only.
//!
//! Its own test binary, so no other test's engagements share the pool.
//! The block kernels' own concurrent-callers check is in `block.rs`.

use slpm_linalg::fiedler::fiedler_pair_on;
use slpm_linalg::parallel::SPAWN_MIN;
use slpm_linalg::{CsrMatrix, FiedlerMethod, FiedlerOptions, Pool};

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

/// What one caller computes: a multilevel Fiedler pair, large enough that
/// its heavy kernels engage the pool's workers.
fn work(pool: &Pool<'_>, lap: &CsrMatrix) -> (u64, Vec<f64>) {
    let opts = FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        ..Default::default()
    };
    let pair = fiedler_pair_on(lap, &opts, pool).unwrap();
    (pair.lambda2.to_bits(), pair.vector)
}

#[test]
fn concurrent_callers_on_the_default_pool_get_the_serial_bits() {
    let lap = grid_laplacian(192, 176);
    assert!(
        lap.rows() > SPAWN_MIN,
        "the solve's matvecs must engage the pool"
    );

    let serial = work(&Pool::serial(), &lap);
    let results: Vec<_> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| work(&Pool::default(), &lap)))
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (caller, result) in results.iter().enumerate() {
        assert_eq!(result.0, serial.0, "lambda2: caller {caller}");
        assert_eq!(result.1, serial.1, "fiedler vector: caller {caller}");
    }
}
