//! Golden record of the multilevel solver on a holey point set.
//!
//! The solver's contract is bitwise: a change to how its kernels are
//! scheduled or batched must leave every eigenvalue bit, every vector bit
//! and every solver counter as it was. This test pins them on an irregular
//! input (a 60×45 grid with disc holes) for the hierarchy solve, and on a
//! star for the stalled-hierarchy fallback (Jacobi-PCG block inverse
//! iteration), at 1 and 2 threads. It also pins λ₂'s bits and the snapped
//! order of `fiedler_pair_on` on grids that take each of its paths: the
//! dense method, the multilevel driver's dense short-cut, and a real
//! hierarchy.
//!
//! The counters are process-wide, so every check lives in this binary's
//! single test function.

use slpm_linalg::fiedler::{fiedler_pair_on, smallest_nonzero_eigenpairs_on};
use slpm_linalg::{
    solver_counters, with_threads, CsrMatrix, FiedlerMethod, FiedlerOptions, MultilevelOptions,
    Pool,
};

/// 4-neighbour Laplacian of a `w × h` grid with one disc hole of radius
/// `r` centred in every `cell × cell` block; vertices are numbered
/// column-major over the surviving points.
fn holey_laplacian(w: usize, h: usize, cell: usize, r: usize) -> CsrMatrix {
    let in_hole = |x: usize, y: usize| {
        let (cx, cy) = (x / cell * cell + cell / 2, y / cell * cell + cell / 2);
        let (dx, dy) = (x.abs_diff(cx), y.abs_diff(cy));
        dx * dx + dy * dy < r * r
    };
    let mut id = vec![usize::MAX; w * h];
    let mut n = 0;
    for x in 0..w {
        for y in 0..h {
            if !in_hole(x, y) {
                id[x * h + y] = n;
                n += 1;
            }
        }
    }
    let mut t = Vec::new();
    let mut deg = vec![0.0; n];
    for x in 0..w {
        for y in 0..h {
            let a = id[x * h + y];
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if a == usize::MAX || nx >= w || ny >= h {
                    continue;
                }
                let b = id[nx * h + ny];
                if b != usize::MAX {
                    t.push((a, b, -1.0));
                    t.push((b, a, -1.0));
                    deg[a] += 1.0;
                    deg[b] += 1.0;
                }
            }
        }
    }
    for (i, d) in deg.into_iter().enumerate() {
        t.push((i, i, d));
    }
    CsrMatrix::from_triplets(n, n, &t).unwrap()
}

/// 4-neighbour Laplacian of a full `w × h` grid.
fn grid_laplacian(w: usize, h: usize) -> CsrMatrix {
    holey_laplacian(w, h, w.max(h) + 1, 0)
}

/// Star K_{1,n-1}: matching stalls, so the coarse solve falls back to
/// Jacobi-PCG block inverse iteration.
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

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Hash of the order the vector induces (vertex ids sorted by value, ties
/// by id).
fn rank_hash(v: &[f64]) -> u64 {
    let mut ids: Vec<usize> = (0..v.len()).collect();
    ids.sort_by(|&a, &b| v[a].total_cmp(&v[b]).then(a.cmp(&b)));
    fnv(ids.into_iter().map(|i| i as u64))
}

/// Hash of the order the mapper takes from `v`: vertex ids sorted by
/// value, then every run of values within `1e-7 · max|v|` of its first
/// value ordered by id.
fn snapped_rank_hash(v: &[f64]) -> u64 {
    let tolerance = v.iter().fold(0.0f64, |m, x| m.max(x.abs())) * 1e-7;
    let mut ids: Vec<usize> = (0..v.len()).collect();
    ids.sort_by(|&a, &b| v[a].total_cmp(&v[b]).then(a.cmp(&b)));
    let mut i = 0;
    while i < ids.len() {
        let anchor = v[ids[i]];
        let mut j = i + 1;
        while j < ids.len() && v[ids[j]] - anchor <= tolerance {
            j += 1;
        }
        ids[i..j].sort_unstable();
        i = j;
    }
    fnv(ids.into_iter().map(|i| i as u64))
}

/// What one solve pins: eigenvalue bits, per-vector rank and bit hashes,
/// and the finest-level counters.
#[derive(Debug, PartialEq, Eq)]
struct Record {
    lambda_bits: Vec<u64>,
    rank_hashes: Vec<u64>,
    bit_hashes: Vec<u64>,
    finest_solves: u64,
    finest_iterations: u64,
    vcycle_retries: u64,
}

fn record(solve: impl Fn(&Pool<'_>) -> Vec<(f64, Vec<f64>)>, threads: usize) -> Record {
    let before = solver_counters();
    let pairs = with_threads(Some(threads), |pool| solve(pool));
    let d = solver_counters().since(&before);
    Record {
        lambda_bits: pairs.iter().map(|(l, _)| l.to_bits()).collect(),
        rank_hashes: pairs.iter().map(|(_, v)| rank_hash(v)).collect(),
        bit_hashes: pairs
            .iter()
            .map(|(_, v)| fnv(v.iter().map(|x| x.to_bits())))
            .collect(),
        finest_solves: d.finest_solves,
        finest_iterations: d.finest_iterations,
        vcycle_retries: d.vcycle_retries,
    }
}

#[test]
fn holey_solves_reproduce_their_recorded_bits() {
    let lap = holey_laplacian(60, 45, 15, 4);
    assert_eq!(lap.rows(), 2160);
    let multilevel = |seed| FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        tolerance: 1e-9,
        seed,
        multilevel: MultilevelOptions::default(),
    };
    let hierarchy =
        |pool: &Pool<'_>| smallest_nonzero_eigenpairs_on(&lap, 3, &multilevel(1), pool).unwrap();
    let star = star_laplacian(1500);
    let fallback =
        |pool: &Pool<'_>| smallest_nonzero_eigenpairs_on(&star, 1, &multilevel(5), pool).unwrap();

    // Recorded before the inner solves were batched.
    let expect_hierarchy = Record {
        lambda_bits: vec![
            4567168227205018543,
            4571022723546832050,
            4573633532689089408,
        ],
        rank_hashes: vec![
            6418335733149874565,
            11105717504045399705,
            9425143869430531661,
        ],
        bit_hashes: vec![443408743670657728, 115099784367126541, 7647204836161932711],
        finest_solves: 47,
        finest_iterations: 180,
        vcycle_retries: 0,
    };
    let expect_fallback = Record {
        lambda_bits: vec![4607182418800017295],
        rank_hashes: vec![15769009485718613625],
        bit_hashes: vec![356986858234171086],
        finest_solves: 0,
        finest_iterations: 0,
        vcycle_retries: 0,
    };
    for threads in [1usize, 2] {
        assert_eq!(
            record(hierarchy, threads),
            expect_hierarchy,
            "hierarchy, threads={threads}"
        );
        assert_eq!(
            record(fallback, threads),
            expect_fallback,
            "fallback, threads={threads}"
        );
    }
    fiedler_pairs_reproduce_their_recorded_bits();
}

/// `fiedler_pair_on` on grids: the method that ran, λ₂'s bits and the
/// snapped order's hash, at 1 and 2 threads. Vector bits are not pinned:
/// only the order the mapper takes from them is a result.
fn fiedler_pairs_reproduce_their_recorded_bits() {
    let multilevel = FiedlerOptions {
        method: Some(FiedlerMethod::Multilevel),
        ..Default::default()
    };
    let default = FiedlerOptions::default();
    // Recorded before the solver's entry points were collapsed into one.
    let cases: [(usize, usize, &FiedlerOptions, FiedlerMethod, u64, u64); 5] = [
        (
            8,
            8,
            &default,
            FiedlerMethod::Dense,
            4594653078034814303,
            11904188558696444901,
        ),
        (
            8,
            8,
            &multilevel,
            FiedlerMethod::Multilevel,
            4594653078034814303,
            11904188558696444901,
        ),
        (
            12,
            9,
            &default,
            FiedlerMethod::Multilevel,
            4589575026616044738,
            7431785495111067493,
        ),
        (
            32,
            32,
            &default,
            FiedlerMethod::Multilevel,
            4576705253951237445,
            14080333309258659229,
        ),
        (
            72,
            72,
            &default,
            FiedlerMethod::Multilevel,
            4566421429346116950,
            7189182393678680429,
        ),
    ];
    for (w, h, opts, method, lambda_bits, order_hash) in cases {
        let lap = grid_laplacian(w, h);
        for threads in [1usize, 2] {
            let pair =
                with_threads(Some(threads), |pool| fiedler_pair_on(&lap, opts, pool)).unwrap();
            let got = (
                pair.method,
                pair.lambda2.to_bits(),
                snapped_rank_hash(&pair.vector),
            );
            assert_eq!(
                got,
                (method, lambda_bits, order_hash),
                "{w}x{h} {:?}, threads={threads}",
                opts.method
            );
        }
    }
}
