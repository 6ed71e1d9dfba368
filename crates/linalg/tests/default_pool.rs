//! The process-wide pool behind `Pool::default()` is shared: callers on
//! different threads submit to the same workers at the same time. Each
//! must still get the serial bits, because every kernel's chunk grid and
//! fold order depend on the problem size only.
//!
//! Its own test binary, so no other test's engagements share the pool.

use slpm_linalg::fiedler::fiedler_pair_on;
use slpm_linalg::parallel::{LIGHT_SPAWN_MIN, SPAWN_MIN};
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

/// What one caller computes: a dot product, a matvec and a multilevel
/// Fiedler pair, each large enough to engage the pool's workers.
fn work(pool: &Pool<'_>, x: &[f64], y: &[f64], lap: &CsrMatrix) -> (u64, Vec<f64>, u64, Vec<f64>) {
    let mut mv = vec![0.0; lap.rows()];
    pool.matvec_into(lap, &x[..lap.rows()], &mut mv);
    let opts = FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        ..Default::default()
    };
    let pair = fiedler_pair_on(lap, &opts, pool).unwrap();
    (
        pool.dot(x, y).to_bits(),
        mv,
        pair.lambda2.to_bits(),
        pair.vector,
    )
}

#[test]
fn concurrent_callers_on_the_default_pool_get_the_serial_bits() {
    let n = LIGHT_SPAWN_MIN + 12_345;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
    let lap = grid_laplacian(136, 128);
    assert!(lap.rows() > SPAWN_MIN, "the matvec must engage the pool");

    let serial = work(&Pool::serial(), &x, &y, &lap);
    let results: Vec<_> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| work(&Pool::default(), &x, &y, &lap)))
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (caller, result) in results.iter().enumerate() {
        assert_eq!(result.0, serial.0, "dot: caller {caller}");
        assert_eq!(result.1, serial.1, "matvec: caller {caller}");
        assert_eq!(result.2, serial.2, "lambda2: caller {caller}");
        assert_eq!(result.3, serial.3, "fiedler vector: caller {caller}");
    }
}
