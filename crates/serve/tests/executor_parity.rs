//! Bitwise parity of the linear-algebra stack between the serial pool and
//! the persistent worker pool.
//!
//! The one-pool contract: the same kernel call must answer
//! **bit-for-bit identically** whether it runs serially
//! (`Pool::serial()`) or on the serving engine's persistent
//! [`WorkerPool`] (`WorkerPool::linalg_pool()`), at **any thread count**
//! — the fixed `REDUCE_CHUNK` tree-reduction
//! grid depends only on the problem size, so scheduling moves work, never
//! bits. This matrix covers a Jacobi-PCG solve (the level-1 block kernels
//! and the CSR matvec), the chunked row-parallel matvec, the full
//! multilevel Fiedler solve and the recursive spectral-bisection order
//! across {1, 2, 4} threads.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::fiedler_pair_on;
use slpm_linalg::pcg::solve_jacobi_on;
use slpm_linalg::{CgOptions, CsrMatrix, FiedlerMethod, FiedlerOptions, FiedlerPair, Pool};
use slpm_serve::WorkerPool;
use spectral_lpm::{rsb_order_on, RsbOptions, SpectralConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Run `f` on a persistent worker pool of `threads` workers and return
/// the result labelled with the thread count.
fn pooled<T>(threads: usize, f: impl Fn(&Pool<'_>) -> T) -> (String, T) {
    let workers = WorkerPool::new(threads);
    (format!("pooled T={threads}"), f(&workers.linalg_pool()))
}

#[test]
fn level1_kernels_and_matvec_match_serial_bitwise() {
    // A Jacobi-PCG solve runs the level-1 block kernels (dots, the CG
    // step, the direction update) and the CSR matvec on the pool; the
    // chunked par_for runs the matvec on its own. Long enough that even the
    // memory-bound level-1 passes engage the pool instead of staying on the
    // caller thread: a shifted, diagonally dominant path operator, so the
    // solve converges in a few iterations.
    let n = slpm_linalg::parallel::LIGHT_SPAWN_MIN + 12_345;
    let mut t = Vec::with_capacity(3 * n);
    for i in 0..n {
        t.push((i, i, 4.0 + (i % 7) as f64));
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
    }
    let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let opts = CgOptions {
        tolerance: 1e-10,
        ..Default::default()
    };
    let run = |pool: &Pool<'_>| {
        let solved = solve_jacobi_on(&a, &b, &opts, *pool).unwrap();
        let mut ab = vec![0.0; n];
        pool.for_each_chunk(&mut ab, |row0, chunk| a.matvec_rows_into(row0, &b, chunk));
        (solved.solution, solved.iterations, ab)
    };
    let (x0, iterations0, ab0) = run(&Pool::serial());
    assert!(iterations0 > 1, "the solve must take several CG steps");

    for threads in THREAD_COUNTS {
        let (label, (x, iterations, ab)) = pooled(threads, run);
        assert_eq!(iterations, iterations0, "iterations: {label}");
        assert!(
            x.iter().zip(&x0).all(|(p, q)| p.to_bits() == q.to_bits()),
            "pcg solution: {label}"
        );
        assert!(
            ab.iter().zip(&ab0).all(|(p, q)| p.to_bits() == q.to_bits()),
            "matvec: {label}"
        );
    }
}

#[test]
fn multilevel_fiedler_solve_matches_serial_bitwise() {
    // The full coarsen → project → refine eigensolver, not just kernels:
    // 48×32 is well above the default coarsest size, so the hierarchy,
    // the smoother and the PCG solves all run on the pool.
    let spec = GridSpec::new(&[48, 32]);
    let lap = spec.graph(Connectivity::Orthogonal).laplacian();
    let opts = FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        ..Default::default()
    };
    let reference: FiedlerPair = fiedler_pair_on(&lap, &opts, &Pool::serial()).unwrap();
    assert!(reference.lambda2 > 0.0);

    for threads in THREAD_COUNTS {
        let (label, pair) = pooled(threads, |pool| fiedler_pair_on(&lap, &opts, pool).unwrap());
        assert_eq!(
            pair.lambda2.to_bits(),
            reference.lambda2.to_bits(),
            "lambda2: {label}"
        );
        assert_eq!(pair.vector, reference.vector, "vector: {label}");
    }
}

#[test]
fn recursive_bisection_order_matches_serial_exactly() {
    // The recursive bisection driver on top of it all: identical ranks at
    // every thread count.
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
    };
    let reference = rsb_order_on(&graph, &opts, &Pool::serial()).unwrap();

    for threads in THREAD_COUNTS {
        let (label, order) = pooled(threads, |pool| rsb_order_on(&graph, &opts, pool).unwrap());
        assert_eq!(order.ranks(), reference.ranks(), "rsb ranks: {label}");
    }
}
