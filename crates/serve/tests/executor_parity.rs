//! Bitwise parity of the linear-algebra stack across executor backends.
//!
//! PR 10's one-pool contract: the same kernel call must answer
//! **bit-for-bit identically** whether it is scheduled
//!
//! * serially (`Pool::serial()`),
//! * on a throwaway scoped-spawn pool (`Pool::new(..)`), or
//! * on the serving engine's persistent [`WorkerPool`] via the
//!   `ScopeExecutor` seam (`WorkerPool::linalg_pool()`),
//!
//! and at **any thread count** — the fixed `REDUCE_CHUNK` tree-reduction
//! grid depends only on the problem size, so scheduling moves work, never
//! bits. This matrix covers the level-1 kernels (dot, norm2, axpy), the
//! CSR matvec, the full multilevel Fiedler solve and the recursive
//! spectral-bisection order across {1, 2, 4} threads.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::fiedler_pair_on;
use slpm_linalg::{CsrMatrix, FiedlerMethod, FiedlerOptions, FiedlerPair, Pool};
use slpm_serve::WorkerPool;
use spectral_lpm::{rsb_order_on, RsbOptions, SpectralConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Run `f` once per backend at the given thread count and return the
/// labelled results: scoped spawn pool, then persistent worker pool.
fn on_each_backend<T>(threads: usize, f: impl Fn(&Pool<'_>) -> T) -> Vec<(String, T)> {
    let scoped = f(&Pool::new(Some(threads)));
    let workers = WorkerPool::new(threads);
    let pooled = f(&workers.linalg_pool());
    vec![
        (format!("scoped T={threads}"), scoped),
        (format!("pooled T={threads}"), pooled),
    ]
}

#[test]
fn level1_kernels_and_matvec_match_serial_bitwise() {
    // Long enough that even the memory-bound level-1 kernels engage the
    // executor instead of staying on the caller thread.
    let n = slpm_linalg::parallel::LIGHT_SPAWN_MIN + 12_345;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
    // Heavy-op threshold is lower; a modest grid Laplacian crosses it.
    let spec = GridSpec::new(&[160, 120]);
    let lap: CsrMatrix = spec.graph(Connectivity::Orthogonal).laplacian();
    let v: Vec<f64> = (0..lap.rows()).map(|i| (i as f64 * 0.73).sin()).collect();

    let serial = Pool::serial();
    let dot0 = serial.dot(&x, &y);
    let norm0 = serial.norm2(&x);
    let mut axpy0 = y.clone();
    serial.axpy(1.25, &x, &mut axpy0);
    let mut mv0 = vec![0.0; lap.rows()];
    serial.matvec_into(&lap, &v, &mut mv0);

    for threads in THREAD_COUNTS {
        for (label, (dot, norm, axpy, mv)) in on_each_backend(threads, |pool| {
            let mut a = y.clone();
            pool.axpy(1.25, &x, &mut a);
            let mut m = vec![0.0; lap.rows()];
            pool.matvec_into(&lap, &v, &mut m);
            (pool.dot(&x, &y), pool.norm2(&x), a, m)
        }) {
            assert_eq!(dot.to_bits(), dot0.to_bits(), "dot: {label}");
            assert_eq!(norm.to_bits(), norm0.to_bits(), "norm2: {label}");
            assert_eq!(axpy, axpy0, "axpy: {label}");
            assert_eq!(mv, mv0, "matvec: {label}");
        }
    }
}

#[test]
fn multilevel_fiedler_solve_matches_serial_bitwise() {
    // The full coarsen → project → refine eigensolver, not just kernels:
    // 48×32 is well above the default coarsest size, so the hierarchy,
    // the smoother and the PCG solves all run through the executor.
    let spec = GridSpec::new(&[48, 32]);
    let lap = spec.graph(Connectivity::Orthogonal).laplacian();
    let opts = FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        ..Default::default()
    };
    let reference: FiedlerPair = fiedler_pair_on(&lap, &opts, &Pool::serial()).unwrap();
    assert!(reference.lambda2 > 0.0);

    for threads in THREAD_COUNTS {
        for (label, pair) in
            on_each_backend(threads, |pool| fiedler_pair_on(&lap, &opts, pool).unwrap())
        {
            assert_eq!(
                pair.lambda2.to_bits(),
                reference.lambda2.to_bits(),
                "lambda2: {label}"
            );
            assert_eq!(pair.vector, reference.vector, "vector: {label}");
        }
    }
}

#[test]
fn recursive_bisection_order_matches_serial_exactly() {
    // The hierarchy-reusing recursive bisection driver on top of it all:
    // identical ranks from every backend at every thread count.
    let spec = GridSpec::new(&[36, 24]);
    let graph = spec.graph(Connectivity::Orthogonal);
    let opts = RsbOptions {
        leaf_size: 8,
        config: SpectralConfig {
            fiedler: FiedlerOptions {
                method: Some(FiedlerMethod::Multilevel),
                ..Default::default()
            },
            ..Default::default()
        },
        reuse_hierarchy: true,
    };
    let reference = rsb_order_on(&graph, &opts, &Pool::serial()).unwrap();

    for threads in THREAD_COUNTS {
        for (label, order) in
            on_each_backend(threads, |pool| rsb_order_on(&graph, &opts, pool).unwrap())
        {
            assert_eq!(order.ranks(), reference.ranks(), "rsb ranks: {label}");
        }
    }
}
