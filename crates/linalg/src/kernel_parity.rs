//! Bitwise parity of the multilevel walk's one-pass kernels with the
//! column-at-a-time code they replaced.
//!
//! Each kernel — the Ritz rotation, the Gram matrix, the residual norms,
//! modified Gram–Schmidt, the smoothing passes and the prolongation — must
//! give every bit its predecessor gave, at every block width from 1 to 10
//! (past [`pcg::LOCKSTEP_MAX`], where the wide paths take over) and on
//! pools of 1, 3 and 5 threads. The predecessors below are kept verbatim
//! as the reference; they run serially.

use super::*;
use crate::pool::WorkerPool;

/// More rows than [`LIGHT_SPAWN_MIN`], with a ragged last chunk, so the
/// level-1 kernels engage the workers too.
const ROWS: usize = LIGHT_SPAWN_MIN + 3 * REDUCE_CHUNK + 17;
const WIDTHS: std::ops::RangeInclusive<usize> = 1..=10;
const THREADS: [usize; 3] = [1, 3, 5];

/// The column-at-a-time kernels, as they were.
mod predecessor {
    use super::*;

    /// The dot-product reduction of one column's per-row products.
    fn col_reduce(pool: &Pool, rows: usize, term: impl Fn(usize) -> f64 + Sync) -> f64 {
        pool.reduce_cols(rows, |lo, hi| {
            let mut acc = [0.0f64; 4];
            let quads = (hi - lo) / 4;
            for q in 0..quads {
                for (l, lane) in acc.iter_mut().enumerate() {
                    *lane += term(lo + q * 4 + l);
                }
            }
            let mut tail = 0.0;
            for i in lo + quads * 4..hi {
                tail += term(i);
            }
            [acc[0] + acc[1] + acc[2] + acc[3] + tail]
        })[0]
    }

    fn col_dot(pool: &Pool, x: &[f64], cx: usize, y: &[f64], cy: usize, w: usize) -> f64 {
        col_reduce(pool, x.len() / w, |i| x[i * w + cx] * y[i * w + cy])
    }

    pub(super) fn gram(pool: &Pool, v: &[f64], lv: &[f64], b: usize) -> Vec<f64> {
        let mut t = DenseMatrix::zeros(b, b);
        for i in 0..b {
            for j in i..b {
                let e = col_dot(pool, v, i, lv, j, b);
                t.set(i, j, e);
                t.set(j, i, e);
            }
        }
        t.as_slice().to_vec()
    }

    pub(super) fn residual_norms(
        pool: &Pool,
        v: &[f64],
        lv: &[f64],
        lambdas: &[f64],
        b: usize,
        cols: usize,
    ) -> Vec<f64> {
        (0..cols)
            .map(|c| {
                let neg = -lambdas[c];
                col_reduce(pool, v.len() / b, |i| {
                    let e = lv[i * b + c] + neg * v[i * b + c];
                    e * e
                })
                .sqrt()
            })
            .collect()
    }

    pub(super) fn rotate(v: &mut [f64], y: &[f64], b: usize, pool: &Pool) {
        pool.block_rows(b, LIGHT_SPAWN_MIN, v, |_, span| {
            let mut old = vec![0.0; b];
            for row in span.chunks_exact_mut(b) {
                old.copy_from_slice(row);
                for (col, out) in row.iter_mut().enumerate() {
                    let mut sum = 0.0;
                    for (j, &vj) in old.iter().enumerate() {
                        sum += y[j * b + col] * vj;
                    }
                    *out = sum;
                }
            }
        });
    }

    pub(super) fn orthonormalize(vectors: &mut Block, rng: &mut StdRng, pool: &Pool) {
        let b = vectors.width;
        let v = &mut vectors.data;
        for i in 0..b {
            let mut attempts = 0;
            loop {
                block::col_center(pool, v, b, i);
                for q in 0..i {
                    let c = -col_dot(pool, v, q, v, i, b);
                    block::for_rows(pool, v, b, |_, row| row[i] += c * row[q]);
                }
                let norm = col_dot(pool, v, i, v, i, b).sqrt();
                if norm > 1e-10 || attempts >= 4 {
                    if norm > 0.0 {
                        let inv = 1.0 / norm;
                        block::for_rows(pool, v, b, |_, row| row[i] *= inv);
                    }
                    break;
                }
                for row in v.chunks_exact_mut(b) {
                    row[i] = rng.gen_range(-1.0..1.0);
                }
                attempts += 1;
            }
        }
    }

    pub(super) fn smooth_block(
        laplacian: &CsrMatrix,
        vectors: &mut Block,
        lambdas: &[f64],
        passes: usize,
        pool: &Pool,
    ) {
        let n = laplacian.rows();
        let w = vectors.width;
        let inv_diag: Vec<f64> = (0..n)
            .map(|i| {
                let v = laplacian.get(i, i);
                if v > 0.0 {
                    1.0 / v
                } else {
                    0.0
                }
            })
            .collect();
        const OMEGA: f64 = 0.7;
        let mut r = vec![0.0; n * w];
        for _ in 0..passes {
            block::spmm(pool, laplacian, &vectors.data, &mut r, w);
            let v = &vectors.data;
            block::for_rows(pool, &mut r, w, |i, row| {
                for (c, rc) in row.iter_mut().enumerate() {
                    *rc += -lambdas[c] * v[i * w + c];
                }
            });
            block::for_rows(pool, &mut vectors.data, w, |i, row| {
                for (c, vc) in row.iter_mut().enumerate() {
                    *vc -= OMEGA * r[i * w + c] * inv_diag[i];
                }
            });
        }
    }

    pub(super) fn prolong_block(fine: &CsrMatrix, step: &Coarsening, coarse: &Block) -> Block {
        let parent = &step.parent;
        let w = coarse.width;
        let cv = &coarse.data;
        let mut out = vec![0.0; parent.len() * w];
        let mut num = vec![0.0; w];
        for (v, o) in out.chunks_exact_mut(w).enumerate() {
            num.fill(0.0);
            let mut den = 0.0;
            for (u, entry) in fine.row_iter(v) {
                if u != v && entry < 0.0 {
                    let p = parent[u] as usize;
                    let cu = &cv[p * w..(p + 1) * w];
                    for (nc, &x) in num.iter_mut().zip(cu) {
                        *nc += -entry * x;
                    }
                    den += -entry;
                }
            }
            if den > 0.0 {
                for (oc, &nc) in o.iter_mut().zip(&num) {
                    *oc = nc / den;
                }
            } else {
                let p = parent[v] as usize;
                o.copy_from_slice(&cv[p * w..(p + 1) * w]);
            }
        }
        Block {
            data: out,
            width: w,
        }
    }
}

/// An `rows × w` block of deterministic values.
fn block_of(rows: usize, w: usize, seed: f64) -> Block {
    Block {
        data: (0..rows * w)
            .map(|i| (i as f64 * 0.37 + seed).sin())
            .collect(),
        width: w,
    }
}

/// Laplacian of a path on `n` vertices with non-integer weights, where
/// every 1,000th vertex is isolated (prolongation's injection branch).
fn weighted_path(n: usize) -> CsrMatrix {
    let mut t = Vec::new();
    let mut deg = vec![0.0; n];
    for i in 0..n - 1 {
        if i % 1000 == 0 || (i + 1) % 1000 == 0 {
            continue;
        }
        let w = 1.0 + (i % 7) as f64 * 0.37;
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

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `lambdas` for a `w`-wide block: distinct, positive.
fn thetas(w: usize) -> Vec<f64> {
    (0..w).map(|c| 0.3 + 0.17 * c as f64).collect()
}

/// One worker pool per thread count in [`THREADS`] (none for 1).
fn worker_pools() -> Vec<Option<WorkerPool>> {
    THREADS
        .iter()
        .map(|&t| (t > 1).then(|| WorkerPool::new(t)))
        .collect()
}

/// Run `kernel` on each of `pools` and check each result's bits against
/// `expect`.
fn on_every_pool(
    pools: &[Option<WorkerPool>],
    what: &str,
    w: usize,
    expect: &[f64],
    kernel: impl Fn(&Pool<'_>) -> Vec<f64>,
) {
    for workers in pools {
        let pool = workers
            .as_ref()
            .map_or(Pool::serial(), WorkerPool::linalg_pool);
        assert!(
            bits(&kernel(&pool)) == bits(expect),
            "{what}: width {w}, {} threads",
            pool.threads()
        );
    }
}

#[test]
fn ritz_kernels_equal_their_column_at_a_time_predecessors() {
    let serial = Pool::serial();
    let pools = worker_pools();
    for w in WIDTHS {
        let v = block_of(ROWS, w, 1.0);
        let lv = block_of(ROWS, w, 2.0);
        let y: Vec<f64> = (0..w * w).map(|e| (e as f64 * 1.3 + 0.5).cos()).collect();
        let lambdas = thetas(w);

        let expect = predecessor::gram(&serial, &v.data, &lv.data, w);
        on_every_pool(&pools, "gram", w, &expect, |pool| {
            block::gram(pool, &v.data, &lv.data, w)
        });

        for cols in [w, w.min(2)] {
            let expect = predecessor::residual_norms(&serial, &v.data, &lv.data, &lambdas, w, cols);
            on_every_pool(&pools, "residual norms", w, &expect, |pool| {
                block::residual_norms(pool, &v.data, &lv.data, &lambdas, w, cols)
            });
        }

        let mut expect = v.data.clone();
        predecessor::rotate(&mut expect, &y, w, &serial);
        on_every_pool(&pools, "rotation", w, &expect, |pool| {
            let mut got = v.data.clone();
            block::rotate(pool, &mut got, &y, w);
            got
        });
    }
}

#[test]
fn orthonormalization_equals_its_column_at_a_time_predecessor() {
    let serial = Pool::serial();
    let pools = worker_pools();
    for w in WIDTHS {
        let mut start = block_of(ROWS, w, 3.0);
        // A repeated column and a constant one collapse, so the seeded
        // redraw runs too.
        if w >= 3 {
            for row in start.data.chunks_exact_mut(w) {
                row[2] = row[0];
                row[w - 1] = 0.25;
            }
        }
        let mut expect = start.clone();
        predecessor::orthonormalize(&mut expect, &mut StdRng::seed_from_u64(9), &serial);
        on_every_pool(&pools, "orthonormalization", w, &expect.data, |pool| {
            let mut got = start.clone();
            orthonormalize(&mut got, &mut StdRng::seed_from_u64(9), pool);
            got.data
        });
    }
}

#[test]
fn smoothing_and_prolongation_equal_their_predecessors() {
    let serial = Pool::serial();
    let pools = worker_pools();
    let fine = weighted_path(ROWS);
    let step = coarsen_laplacian(&fine, &serial).unwrap();
    for w in WIDTHS {
        let lambdas = thetas(w);
        let coarse = block_of(step.coarse.rows(), w, 4.0);
        let expect = predecessor::prolong_block(&fine, &step, &coarse);
        on_every_pool(&pools, "prolongation", w, &expect.data, |pool| {
            prolong_block(&fine, &step, &coarse, pool).data
        });

        let mut expect = expect;
        let start = expect.clone();
        predecessor::smooth_block(&fine, &mut expect, &lambdas, SMOOTHING_PASSES, &serial);
        on_every_pool(&pools, "smoothing", w, &expect.data, |pool| {
            let mut got = start.clone();
            smooth_block(
                &fine,
                &mut got,
                &lambdas,
                SMOOTHING_PASSES,
                &mut Vec::new(),
                pool,
            );
            got.data
        });
    }
}
