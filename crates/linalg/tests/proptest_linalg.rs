//! Property-based tests for the linear-algebra substrate.

// Only `solve` and the solution are used here; `cg_reference.rs` reads
// the rest of the outcome.
#[allow(dead_code)]
mod cg;
mod jacobi;

use jacobi::jacobi_eigen;
use proptest::prelude::*;
use slpm_linalg::dense::DenseMatrix;
use slpm_linalg::sparse::CsrMatrix;
use slpm_linalg::tql::symmetric_eigen;
use slpm_linalg::vector;
use slpm_linalg::CgOptions;

/// Strategy: a random symmetric matrix of side 2..=8 with entries in ±2.
fn symmetric_matrix() -> impl Strategy<Value = DenseMatrix> {
    (2usize..=8).prop_flat_map(|n| {
        proptest::collection::vec(-2.0f64..2.0, n * (n + 1) / 2).prop_map(move |tri| {
            let mut m = DenseMatrix::zeros(n, n);
            let mut it = tri.into_iter();
            for i in 0..n {
                for j in 0..=i {
                    let v = it.next().unwrap();
                    m.set(i, j, v);
                    m.set(j, i, v);
                }
            }
            m
        })
    })
}

/// Strategy: a connected path-with-chords Laplacian of side 3..=24.
fn laplacian() -> impl Strategy<Value = CsrMatrix> {
    (3usize..=24, proptest::collection::vec(0usize..1000, 0..8)).prop_map(|(n, chords)| {
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        for c in chords {
            let a = c % n;
            let b = (c / 7) % n;
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut t = Vec::new();
        let mut deg = vec![0.0f64; n];
        for &(a, b) in &edges {
            t.push((a, b, -1.0));
            t.push((b, a, -1.0));
            deg[a] += 1.0;
            deg[b] += 1.0;
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_decomposition_reconstructs(a in symmetric_matrix()) {
        let n = a.rows();
        let eig = symmetric_eigen(&a).unwrap();
        // A ≈ V diag(λ) Vᵀ checked via matvec on the all-ones probe.
        let x = vec![1.0; n];
        let ax = a.matvec(&x).unwrap();
        let mut recon = vec![0.0; n];
        for k in 0..n {
            let v = eig.eigenvector(k);
            let coeff = eig.eigenvalues[k] * vector::dot(&v, &x);
            vector::axpy(coeff, &v, &mut recon);
        }
        for i in 0..n {
            prop_assert!((ax[i] - recon[i]).abs() < 1e-6,
                "reconstruction mismatch at {}: {} vs {}", i, ax[i], recon[i]);
        }
    }

    #[test]
    fn jacobi_and_ql_agree(a in symmetric_matrix()) {
        let j = jacobi_eigen(&a).unwrap();
        let q = symmetric_eigen(&a).unwrap();
        for k in 0..a.rows() {
            prop_assert!((j.eigenvalues[k] - q.eigenvalues[k]).abs() < 1e-6);
        }
    }

    #[test]
    fn eigenvalues_sorted_and_trace_preserved(a in symmetric_matrix()) {
        let eig = symmetric_eigen(&a).unwrap();
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        let trace: f64 = (0..a.rows()).map(|i| a.get(i, i)).sum();
        let sum: f64 = eig.eigenvalues.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7);
    }

    #[test]
    fn laplacian_is_psd_with_zero_row_sums(lap in laplacian()) {
        for s in lap.row_sums() {
            prop_assert!(s.abs() < 1e-12);
        }
        let eig = symmetric_eigen(&lap.to_dense()).unwrap();
        prop_assert!(eig.eigenvalues[0] > -1e-9, "smallest eigenvalue {}", eig.eigenvalues[0]);
        prop_assert!(eig.eigenvalues[0].abs() < 1e-8, "kernel missing");
    }

    #[test]
    fn cg_solves_deflated_laplacian(lap in laplacian()) {
        let n = lap.rows();
        // Build a zero-mean rhs deterministically from the size.
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        vector::center(&mut b);
        let opts = CgOptions { deflate_mean: true, tolerance: 1e-11, ..Default::default() };
        let out = cg::solve(&lap, &b, &opts).unwrap();
        let lx = lap.matvec(&out.solution).unwrap();
        for i in 0..n {
            prop_assert!((lx[i] - b[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn fiedler_pair_is_second_smallest(lap in laplacian()) {
        let pair = slpm_linalg::fiedler::fiedler_pair_on(&lap, &Default::default(), &slpm_linalg::Pool::default()).unwrap();
        let dense = symmetric_eigen(&lap.to_dense()).unwrap();
        prop_assert!((pair.lambda2 - dense.eigenvalues[1]).abs() < 1e-6,
            "lambda2 {} vs dense {}", pair.lambda2, dense.eigenvalues[1]);
        prop_assert!(pair.residual < 1e-6);
    }

    #[test]
    fn csr_matvec_matches_dense(lap in laplacian()) {
        let n = lap.rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let sparse_y = lap.matvec(&x).unwrap();
        let dense_y = lap.to_dense().matvec(&x).unwrap();
        for i in 0..n {
            prop_assert!((sparse_y[i] - dense_y[i]).abs() < 1e-12);
        }
    }
}
