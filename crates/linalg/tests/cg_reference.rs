//! The reference CG solver ([`cg::solve`]) and the preconditioned solver
//! checked against it.

mod cg;

use cg::solve;
use slpm_linalg::dense::DenseMatrix;
use slpm_linalg::pcg::solve_jacobi_on;
use slpm_linalg::sparse::CsrMatrix;
use slpm_linalg::{vector, CgOptions, LinalgError, Pool};

fn weighted_path_laplacian(weights: &[f64]) -> CsrMatrix {
    // Path with given edge weights; n = weights.len() + 1.
    let n = weights.len() + 1;
    let mut t = Vec::new();
    let mut deg = vec![0.0; n];
    for (i, &w) in weights.iter().enumerate() {
        t.push((i, i + 1, -w));
        t.push((i + 1, i, -w));
        deg[i] += w;
        deg[i + 1] += w;
    }
    for (i, d) in deg.into_iter().enumerate() {
        t.push((i, i, d));
    }
    CsrMatrix::from_triplets(n, n, &t).unwrap()
}

#[test]
fn solves_small_spd_system() {
    let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
    let b = [1.0, 2.0];
    let out = solve(&a, &b, &CgOptions::default()).unwrap();
    // Exact solution: x = (1/11, 7/11).
    assert!((out.solution[0] - 1.0 / 11.0).abs() < 1e-10);
    assert!((out.solution[1] - 7.0 / 11.0).abs() < 1e-10);
    assert!(out.relative_residual <= 1e-12);
}

#[test]
fn identity_solves_in_one_iteration() {
    let a = DenseMatrix::identity(5);
    let b = [1.0, 2.0, 3.0, 4.0, 5.0];
    let out = solve(&a, &b, &CgOptions::default()).unwrap();
    assert_eq!(out.iterations, 1);
    for i in 0..5 {
        assert!((out.solution[i] - b[i]).abs() < 1e-12);
    }
}

#[test]
fn zero_rhs_returns_zero() {
    let a = DenseMatrix::identity(3);
    let out = solve(&a, &[0.0; 3], &CgOptions::default()).unwrap();
    assert_eq!(out.solution, vec![0.0; 3]);
    assert_eq!(out.iterations, 0);
}

#[test]
fn singular_laplacian_with_deflation() {
    // Path graph Laplacian (singular); with mean deflation CG computes
    // the pseudo-inverse action.
    let lap = CsrMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 1.0),
        ],
    )
    .unwrap();
    let b = [1.0, 0.0, -1.0]; // already zero mean
    let opts = CgOptions {
        deflate_mean: true,
        ..CgOptions::default()
    };
    let out = solve(&lap, &b, &opts).unwrap();
    // Verify L x = b and mean(x) = 0.
    let lx = lap.matvec(&out.solution).unwrap();
    for i in 0..3 {
        assert!((lx[i] - b[i]).abs() < 1e-9);
    }
    assert!(vector::mean(&out.solution).abs() < 1e-12);
}

#[test]
fn indefinite_matrix_detected() {
    let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]).unwrap();
    let err = solve(&a, &[0.0, 1.0], &CgOptions::default()).unwrap_err();
    assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
}

#[test]
fn dimension_mismatch_detected() {
    let a = DenseMatrix::identity(3);
    assert!(solve(&a, &[1.0], &CgOptions::default()).is_err());
}

#[test]
fn non_finite_rhs_detected() {
    let a = DenseMatrix::identity(2);
    assert!(solve(&a, &[f64::NAN, 0.0], &CgOptions::default()).is_err());
}

#[test]
fn iteration_cap_respected() {
    // A poorly conditioned system with an absurdly tight budget.
    let a = DenseMatrix::from_rows(&[
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1e-6, 0.0],
        vec![0.0, 0.0, 1e6],
    ])
    .unwrap();
    let opts = CgOptions {
        max_iterations: Some(1),
        tolerance: 1e-15,
        ..CgOptions::default()
    };
    let err = solve(&a, &[1.0, 1.0, 1.0], &opts).unwrap_err();
    assert!(matches!(err, LinalgError::NoConvergence { .. }));
}

#[test]
fn random_spd_systems_solve() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for n in [4usize, 8, 16] {
        // A = MᵀM + I is SPD.
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let mut mt = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                mt.set(j, i, m.get(i, j));
            }
        }
        let mut a = mt.matmul(&m).unwrap();
        for i in 0..n {
            a.add_to(i, i, 1.0);
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let out = solve(&a, &b, &CgOptions::default()).unwrap();
        let ax = a.matvec(&out.solution).unwrap();
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-8);
        }
    }
}

#[test]
fn matches_plain_cg_on_singular_laplacian() {
    let lap = weighted_path_laplacian(&[1.0, 100.0, 1.0, 50.0, 1.0]);
    let mut b: Vec<f64> = (0..6).map(|i| (i as f64).cos()).collect();
    vector::center(&mut b);
    let opts = CgOptions {
        deflate_mean: true,
        tolerance: 1e-12,
        ..Default::default()
    };
    let plain = solve(&lap, &b, &opts).unwrap();
    let pre = solve_jacobi_on(&lap, &b, &opts, Pool::default()).unwrap();
    for i in 0..6 {
        assert!(
            (plain.solution[i] - pre.solution[i]).abs() < 1e-7,
            "component {i}"
        );
    }
}

#[test]
fn preconditioning_helps_on_skewed_diagonal() {
    // The case Jacobi provably fixes: a strongly diagonally dominant
    // system whose diagonal spans six orders of magnitude. Plain CG
    // pays the diagonal's condition number; Jacobi normalises it away.
    let n = 32usize;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 10f64.powi((i % 7) as i32)));
        if i + 1 < n {
            t.push((i, i + 1, 0.01));
            t.push((i + 1, i, 0.01));
        }
    }
    let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
    let opts = CgOptions {
        tolerance: 1e-10,
        ..Default::default()
    };
    let plain = solve(&a, &b, &opts).unwrap();
    let pre = solve_jacobi_on(&a, &b, &opts, Pool::default()).unwrap();
    assert!(
        pre.iterations < plain.iterations,
        "jacobi {} not fewer than plain {}",
        pre.iterations,
        plain.iterations
    );
    // Both actually solve the system.
    let ax = a.matvec(&pre.solution).unwrap();
    for i in 0..n {
        assert!((ax[i] - b[i]).abs() < 1e-6);
    }
}

#[test]
fn comparable_to_plain_cg_on_weighted_laplacian() {
    // On alternating-weight path Laplacians Jacobi is not guaranteed to
    // win (the coupling structure, not the diagonal, dominates); it
    // must stay within a modest factor and solve correctly.
    let weights: Vec<f64> = (0..40)
        .map(|i| if i % 2 == 0 { 1.0 } else { 1e4 })
        .collect();
    let lap = weighted_path_laplacian(&weights);
    let n = lap.rows();
    let mut b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
    vector::center(&mut b);
    let opts = CgOptions {
        deflate_mean: true,
        tolerance: 1e-10,
        ..Default::default()
    };
    let plain = solve(&lap, &b, &opts).unwrap();
    let pre = solve_jacobi_on(&lap, &b, &opts, Pool::default()).unwrap();
    assert!(
        (pre.iterations as f64) <= 2.0 * plain.iterations as f64,
        "jacobi {} vs plain {}",
        pre.iterations,
        plain.iterations
    );
    let lx = lap.matvec(&pre.solution).unwrap();
    for i in 0..n {
        assert!((lx[i] - b[i]).abs() < 1e-6);
    }
}
