//! Interleaved blocks of vectors and the kernels that run on them.
//!
//! A block holds `w` vectors of length `n` row-major: entry `(i, c)`, row
//! `i` of column `c`, sits at `i·w + c`. A CSR row then reads all `w`
//! values of each neighbour from one place, so an operator applied to a
//! block walks the matrix once for every column (an SpMM:
//! `acc[c] += a_ik · x[k·w + c]`). The multilevel solver keeps its
//! eigenvector block in this layout, and PCG ([`crate::pcg`]) its lockstep
//! columns.
//!
//! # The bitwise rule
//!
//! Every column of a block kernel performs the floating-point operations
//! of the one-vector kernel it replaces, in the same order:
//! - a CSR row sums its terms in stored order, starting from `0.0`;
//! - a dot product accumulates the 4 lanes of [`vector::dot_kernel`]
//!   within each [`REDUCE_CHUNK`] of rows and tree-folds the chunk partials;
//! - a sum folds from [`vector::empty_sum`] within each chunk, then
//!   tree-folds;
//! - an elementwise update evaluates the same expression.
//!
//! Work splits on the pool at chunk boundaries of [`REDUCE_CHUNK`] *rows*
//! (`REDUCE_CHUNK · w` elements), and the engagement thresholds count rows,
//! so a block kernel schedules like the one-vector kernel and returns the
//! same bits at any thread count. A column's bits never depend on the other
//! columns of its block.
//!
//! # Widths
//!
//! The hot kernels take the width as a const generic: a loop over a
//! runtime width neither unrolls nor keeps its accumulators in registers.
//! [`with_width!`] turns a runtime width in `1..=LOCKSTEP_MAX` into the
//! constant. Blocks can be wider: the multilevel solver refines `k` wanted
//! pairs plus guard vectors, and a degenerate λ₂ widens `k` up to 8. The
//! kernels whose columns are independent ([`spmm`], [`residual_norms`] and
//! the multilevel walk's smoothing and prolongation) walk such a block in
//! windows of at most [`LOCKSTEP_MAX`] columns at a row stride of `w`; the
//! two that mix columns ([`gram`] and [`rotate`]) keep a runtime-width loop
//! for them. Each column's bits are the same either way.
//!
//! The reductions of the Rayleigh–Ritz step and of modified Gram–Schmidt
//! each read the block once: [`gram`] forms every `b(b+1)/2` dot product
//! in one pass, [`residual_norms`] every residual norm, and
//! [`update_dot`] / [`update_sum`] fuse an elementwise update with the
//! reduction that reads its result. Every reduction still keeps its own
//! lanes per chunk and its own tree fold.

use crate::parallel::{tree_fold, Pool, LIGHT_SPAWN_MIN, REDUCE_CHUNK, SPAWN_MIN};
use crate::pcg::LOCKSTEP_MAX;
use crate::sparse::CsrMatrix;
use crate::vector::empty_sum;
use std::array::from_fn;

/// One value per column of a block at most [`LOCKSTEP_MAX`] wide.
pub(crate) type Cols = [f64; LOCKSTEP_MAX];

/// Evaluate `$body` with `$W` bound to the runtime width `$w` as a
/// constant. The arms cover exactly `1..=LOCKSTEP_MAX`.
macro_rules! with_width {
    ($w:expr, $W:ident => $body:expr) => {
        match $w {
            1 => {
                const $W: usize = 1;
                $body
            }
            2 => {
                const $W: usize = 2;
                $body
            }
            3 => {
                const $W: usize = 3;
                $body
            }
            4 => {
                const $W: usize = 4;
                $body
            }
            5 => {
                const $W: usize = 5;
                $body
            }
            w => unreachable!("block width {w} outside 1..={}", crate::pcg::LOCKSTEP_MAX),
        }
    };
}
pub(crate) use with_width;
const _: () = assert!(LOCKSTEP_MAX == 5, "with_width! must cover 1..=LOCKSTEP_MAX");

/// An `n × width` block of vectors, row-major.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub(crate) data: Vec<f64>,
    pub(crate) width: usize,
}

impl Block {
    /// Interleave equal-length columns.
    pub(crate) fn from_columns(columns: &[Vec<f64>]) -> Block {
        let width = columns.len();
        let n = columns.first().map_or(0, Vec::len);
        let mut data = vec![0.0; n * width];
        for (c, col) in columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                data[i * width + c] = v;
            }
        }
        Block { data, width }
    }

    /// Vector length `n`.
    pub(crate) fn rows(&self) -> usize {
        self.data.len() / self.width
    }

    /// Column `c` as an owned vector.
    pub(crate) fn column(&self, c: usize) -> Vec<f64> {
        self.data
            .iter()
            .skip(c)
            .step_by(self.width)
            .copied()
            .collect()
    }
}

impl Pool<'_> {
    /// Run `f(first_row, span)` over the whole rows of an `n × w` block,
    /// split at chunk boundaries of [`REDUCE_CHUNK`] rows; `min` is the
    /// engagement threshold in rows ([`SPAWN_MIN`] or [`LIGHT_SPAWN_MIN`]).
    pub(crate) fn block_rows<F>(&self, w: usize, min: usize, data: &mut [f64], f: F)
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let workers = self.workers_for_min(data.len() / w, min);
        self.split_run(workers, REDUCE_CHUNK * w, data, |off, span| {
            f(off / w, span)
        });
    }

    /// Reductions over `rows` rows: `partial(lo, hi)` returns the partials
    /// of every fixed [`REDUCE_CHUNK`]-row chunk, and each slot's partials
    /// are tree-folded in chunk order, as [`crate::vector::dot`] folds a
    /// single vector's.
    pub(crate) fn reduce_cols<P, F>(&self, rows: usize, partial: F) -> Vec<f64>
    where
        P: AsRef<[f64]> + Send,
        F: Fn(usize, usize) -> P + Sync,
    {
        fold_chunks(&self.map_chunks_min(LIGHT_SPAWN_MIN, rows, partial))
    }

    /// [`Pool::reduce_cols`] for a pass that also writes its rows:
    /// `f(first_row, chunk)` runs on every fixed [`REDUCE_CHUNK`]-row chunk
    /// of the `n × w` block (light-kernel threshold) and returns the chunk's
    /// partials.
    pub(crate) fn rows_reduce<P, F>(&self, data: &mut [f64], w: usize, f: F) -> Vec<f64>
    where
        P: AsRef<[f64]> + Send,
        F: Fn(usize, &mut [f64]) -> P + Sync,
    {
        let rows = data.len() / w;
        let mut chunks: Vec<(&mut [f64], Option<P>)> = data
            .chunks_mut(REDUCE_CHUNK * w)
            .map(|chunk| (chunk, None))
            .collect();
        if chunks.is_empty() {
            return fold_chunks(&[f(0, &mut [])]);
        }
        let workers = self.workers_for_min(rows, LIGHT_SPAWN_MIN);
        self.split_run(workers, 1, &mut chunks, |first, span| {
            for (k, (chunk, part)) in span.iter_mut().enumerate() {
                *part = Some(f((first + k) * REDUCE_CHUNK, chunk));
            }
        });
        let parts: Vec<P> = chunks
            .into_iter()
            .map(|(_, part)| part.expect("every chunk evaluated"))
            .collect();
        fold_chunks(&parts)
    }
}

/// Tree-fold each slot of per-chunk partials in chunk order.
fn fold_chunks<P: AsRef<[f64]>>(parts: &[P]) -> Vec<f64> {
    let slots = parts.first().map_or(0, |p| p.as_ref().len());
    let mut column = vec![0.0; parts.len()];
    (0..slots)
        .map(|s| {
            for (slot, part) in column.iter_mut().zip(parts) {
                *slot = part.as_ref()[s];
            }
            tree_fold(&mut column)
        })
        .collect()
}

/// Widen a result of at most [`LOCKSTEP_MAX`] columns to [`Cols`].
fn pad(v: &[f64]) -> Cols {
    let mut out = [0.0; LOCKSTEP_MAX];
    out[..v.len()].copy_from_slice(v);
    out
}

/// Accumulate `add(lane, row)` over rows `0..rows` in the lanes of
/// [`crate::vector::dot_kernel`]: within the whole groups of 4 rows, row
/// `r` goes to lane `r % 4`; the rows after the last whole group go to the
/// tail, `lanes[4]`. A sum is then [`fold_lanes`] of its five accumulators.
#[inline(always)]
fn lanes<A: Copy>(rows: usize, zero: A, mut add: impl FnMut(&mut A, usize)) -> [A; 5] {
    let mut acc = [zero; 5];
    let quads = rows / 4;
    for q in 0..quads {
        for (l, lane) in acc[..4].iter_mut().enumerate() {
            add(lane, q * 4 + l);
        }
    }
    for r in quads * 4..rows {
        add(&mut acc[4], r);
    }
    acc
}

/// `lane0 + lane1 + lane2 + lane3 + tail`, left to right.
#[inline(always)]
fn fold_lanes(acc: [f64; 5]) -> f64 {
    acc[0] + acc[1] + acc[2] + acc[3] + acc[4]
}

/// [`fold_lanes`] for every column of per-column lanes.
#[inline(always)]
fn fold_lane_cols<const W: usize>(acc: [[f64; W]; 5]) -> [f64; W] {
    from_fn(|c| fold_lanes(from_fn(|l| acc[l][c])))
}

/// [`crate::vector::dot_kernel`] for `W` columns at once: `x` and `y` are
/// row-major blocks of `W` columns, and each column accumulates in the
/// [`lanes`] exactly as `dot_kernel` does on that column alone. This is the
/// rule that makes a batched solve's columns bitwise equal to
/// single-vector solves.
#[inline]
pub(crate) fn dot_kernel_block<const W: usize>(x: &[f64], y: &[f64]) -> [f64; W] {
    debug_assert_eq!(x.len(), y.len());
    fold_lane_cols(lanes(x.len() / W, [0.0; W], |lane, r| {
        let (xr, yr) = (&x[r * W..(r + 1) * W], &y[r * W..(r + 1) * W]);
        for c in 0..W {
            lane[c] += xr[c] * yr[c];
        }
    }))
}

/// `y = A x` for `n × w` blocks of any width: one pass over the matrix per
/// window of at most [`LOCKSTEP_MAX`] columns. Heavy-kernel threshold
/// ([`SPAWN_MIN`] rows); each column is bitwise [`CsrMatrix::matvec_into`].
pub(crate) fn spmm(pool: &Pool, a: &CsrMatrix, x: &[f64], y: &mut [f64], w: usize) {
    debug_assert_eq!(x.len(), a.cols() * w);
    debug_assert_eq!(y.len(), a.rows() * w);
    if w <= LOCKSTEP_MAX {
        return with_width!(w, W => pool.block_rows(W, SPAWN_MIN, y, |row0, span| {
            for (j, out) in span.chunks_exact_mut(W).enumerate() {
                out.copy_from_slice(&a.row_times::<W>(row0 + j, x, W, 0));
            }
        }));
    }
    for c0 in (0..w).step_by(LOCKSTEP_MAX) {
        with_width!((w - c0).min(LOCKSTEP_MAX), W => pool.block_rows(w, SPAWN_MIN, y, |row0, span| {
            for (j, out) in span.chunks_exact_mut(w).enumerate() {
                out[c0..c0 + W].copy_from_slice(&a.row_times::<W>(row0 + j, x, w, c0));
            }
        }));
    }
}

/// Per-column dot products of two `n × w` blocks.
pub(crate) fn dot(pool: &Pool, x: &[f64], y: &[f64], w: usize) -> Cols {
    debug_assert_eq!(x.len(), y.len());
    with_width!(w, W => pad(&pool.reduce_cols(x.len() / W, |lo, hi| {
        dot_kernel_block::<W>(&x[lo * W..hi * W], &y[lo * W..hi * W])
    })))
}

/// Per-column means of an `n × w` block: each column's sum folded from
/// [`empty_sum`] within every chunk and tree-folded, then divided by `n`
/// as [`crate::vector::mean`] divides.
pub(crate) fn means(pool: &Pool, x: &[f64], w: usize) -> Cols {
    let rows = x.len() / w;
    with_width!(w, W => pad(&pool.reduce_cols(rows, |lo, hi| {
        let mut s = [empty_sum(); W];
        for row in x[lo * W..hi * W].chunks_exact(W) {
            for c in 0..W {
                s[c] += row[c];
            }
        }
        s
    })).map(|s| s / rows as f64))
}

/// Subtract `mean[c]` from every entry of column `c` (when given), then
/// return each column's dot product with the same column of `other`, or
/// with itself when `other` is `None`: a centring and the dot product that
/// follows it in one pass.
pub(crate) fn subtract_dot(
    pool: &Pool,
    x: &mut [f64],
    mean: Option<&Cols>,
    other: Option<&[f64]>,
    w: usize,
) -> Cols {
    with_width!(w, W => pad(&pool.rows_reduce(x, W, |row0, chunk| {
        if let Some(m) = mean {
            for row in chunk.chunks_exact_mut(W) {
                for c in 0..W {
                    row[c] -= m[c];
                }
            }
        }
        match other {
            Some(o) => dot_kernel_block::<W>(chunk, &o[row0 * W..row0 * W + chunk.len()]),
            None => dot_kernel_block::<W>(chunk, chunk),
        }
    })))
}

/// The CG step `x += α p`, `r += (−α) q`, column by column; returns the
/// per-column means of the new `r`, as [`means`] would compute them.
pub(crate) fn cg_step(
    pool: &Pool,
    alpha: &Cols,
    p: &[f64],
    q: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    w: usize,
) -> Cols {
    let rows = r.len() / w;
    with_width!(w, W => {
        pool.block_rows(W, LIGHT_SPAWN_MIN, x, |row0, span| {
            for (j, xr) in span.chunks_exact_mut(W).enumerate() {
                let pr = &p[(row0 + j) * W..(row0 + j + 1) * W];
                for c in 0..W {
                    xr[c] += alpha[c] * pr[c];
                }
            }
        });
        pad(&pool.rows_reduce(r, W, |row0, chunk| {
            let mut s = [empty_sum(); W];
            for (j, rr) in chunk.chunks_exact_mut(W).enumerate() {
                let qr = &q[(row0 + j) * W..(row0 + j + 1) * W];
                for c in 0..W {
                    rr[c] += -alpha[c] * qr[c];
                    s[c] += rr[c];
                }
            }
            s
        })).map(|s| s / rows as f64)
    })
}

/// The CG direction update `p ← z + β p`, column by column; a `fresh`
/// column takes `p ← z`.
pub(crate) fn update_direction(
    pool: &Pool,
    z: &[f64],
    beta: &Cols,
    fresh: &[bool; LOCKSTEP_MAX],
    p: &mut [f64],
    w: usize,
) {
    with_width!(w, W => pool.block_rows(W, LIGHT_SPAWN_MIN, p, |row0, span| {
        for (j, pr) in span.chunks_exact_mut(W).enumerate() {
            let zr = &z[(row0 + j) * W..(row0 + j + 1) * W];
            for c in 0..W {
                pr[c] = if fresh[c] { zr[c] } else { zr[c] + beta[c] * pr[c] };
            }
        }
    }))
}

/// Run `f(row, values)` on every row of an `n × w` block with the
/// light-kernel threshold: the elementwise passes that touch one or a few
/// columns.
pub(crate) fn for_rows<F>(pool: &Pool, data: &mut [f64], w: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    pool.block_rows(w, LIGHT_SPAWN_MIN, data, |row0, span| {
        for (j, row) in span.chunks_exact_mut(w).enumerate() {
            f(row0 + j, row);
        }
    });
}

/// One pass over the rows of an `n × w` block: `f` rewrites each row and
/// returns the row's term of a dot product, accumulated as
/// [`crate::vector::dot`] accumulates `x_i·y_i` (lanes per chunk, chunk
/// partials tree-folded). An update fused with the dot product that reads
/// its result.
pub(crate) fn update_dot<F>(pool: &Pool, data: &mut [f64], w: usize, f: F) -> f64
where
    F: Fn(&mut [f64]) -> f64 + Sync,
{
    pool.rows_reduce(data, w, |_, chunk| {
        let rows = chunk.len() / w;
        [fold_lanes(lanes(rows, 0.0, |lane, r| {
            *lane += f(&mut chunk[r * w..(r + 1) * w]);
        }))]
    })[0]
}

/// [`update_dot`] for a sum: the terms fold from [`empty_sum`] within
/// each chunk, as [`col_sum`] folds a column.
pub(crate) fn update_sum<F>(pool: &Pool, data: &mut [f64], w: usize, f: F) -> f64
where
    F: Fn(&mut [f64]) -> f64 + Sync,
{
    pool.rows_reduce(data, w, |_, chunk| {
        let mut s = empty_sum();
        for row in chunk.chunks_exact_mut(w) {
            s += f(row);
        }
        [s]
    })[0]
}

/// Sum of column `c` of an `n × w` block, bitwise equal to the chunked sum
/// behind [`crate::vector::mean`] of that column.
pub(crate) fn col_sum(pool: &Pool, x: &[f64], w: usize, c: usize) -> f64 {
    pool.reduce_cols(x.len() / w, |lo, hi| {
        let mut s = empty_sum();
        for i in lo..hi {
            s += x[i * w + c];
        }
        [s]
    })[0]
}

/// Subtract column `c`'s mean from it, bitwise equal to
/// [`crate::vector::center`].
pub(crate) fn col_center(pool: &Pool, x: &mut [f64], w: usize, c: usize) {
    let rows = x.len() / w;
    if rows == 0 {
        return;
    }
    let mean = col_sum(pool, x, w, c) / rows as f64;
    for_rows(pool, x, w, |_, row| row[c] -= mean);
}

/// The projected operator `T = VᵀLV` of two `n × w` blocks `v` and
/// `lv = L v`, row-major `w × w`: every entry `i ≤ j` is the dot product of
/// column `i` of `v` with column `j` of `lv`, each accumulated as
/// [`crate::vector::dot`] accumulates, and mirrored below the diagonal.
/// One pass over both blocks.
pub(crate) fn gram(pool: &Pool, v: &[f64], lv: &[f64], w: usize) -> Vec<f64> {
    debug_assert_eq!(v.len(), lv.len());
    let mut t = if w <= LOCKSTEP_MAX {
        with_width!(w, W => pool.reduce_cols(v.len() / W, |lo, hi| {
            let (v, lv) = (&v[lo * W..hi * W], &lv[lo * W..hi * W]);
            let acc = lanes(hi - lo, [[0.0; W]; W], |lane, r| {
                let (vr, lr) = (&v[r * W..(r + 1) * W], &lv[r * W..(r + 1) * W]);
                for i in 0..W {
                    for j in i..W {
                        lane[i][j] += vr[i] * lr[j];
                    }
                }
            });
            let acc = &acc;
            (0..W)
                .flat_map(|i| (0..W).map(move |j| fold_lanes(from_fn(|l| acc[l][i][j]))))
                .collect::<Vec<f64>>()
        }))
    } else {
        pool.reduce_cols(v.len() / w, |lo, hi| {
            let mut acc = vec![0.0; 5 * w * w];
            let quads = (hi - lo) / 4;
            for r in 0..hi - lo {
                let lane = if r < quads * 4 { r % 4 } else { 4 };
                let sums = &mut acc[lane * w * w..(lane + 1) * w * w];
                let row = (lo + r) * w;
                let (vr, lr) = (&v[row..row + w], &lv[row..row + w]);
                for i in 0..w {
                    for j in i..w {
                        sums[i * w + j] += vr[i] * lr[j];
                    }
                }
            }
            (0..w * w)
                .map(|e| fold_lanes(from_fn(|l| acc[l * w * w + e])))
                .collect::<Vec<f64>>()
        })
    };
    for i in 0..w {
        for j in 0..i {
            t[i * w + j] = t[j * w + i];
        }
    }
    t
}

/// `‖(L v)_c + (−λ_c) v_c‖` for the first `cols` columns of the `n × w`
/// blocks `v` and `lv = L v`, in one pass: each column's squares accumulate
/// as [`crate::vector::dot`] of the residual vector with itself would.
pub(crate) fn residual_norms(
    pool: &Pool,
    v: &[f64],
    lv: &[f64],
    lambdas: &[f64],
    w: usize,
    cols: usize,
) -> Vec<f64> {
    debug_assert_eq!(v.len(), lv.len());
    let squares = pool.reduce_cols(v.len() / w, |lo, hi| {
        let mut out = vec![0.0; cols];
        for c0 in (0..cols).step_by(LOCKSTEP_MAX) {
            with_width!((cols - c0).min(LOCKSTEP_MAX), W => {
                let neg: [f64; W] = from_fn(|c| -lambdas[c0 + c]);
                let acc = lanes(hi - lo, [0.0; W], |lane, r| {
                    let at = (lo + r) * w + c0;
                    let (vr, lr) = (&v[at..at + W], &lv[at..at + W]);
                    for c in 0..W {
                        let e = lr[c] + neg[c] * vr[c];
                        lane[c] += e * e;
                    }
                });
                out[c0..c0 + W].copy_from_slice(&fold_lane_cols(acc));
            });
        }
        out
    });
    squares.into_iter().map(f64::sqrt).collect()
}

/// `V ← V·Y` in place for a row-major `w × w` rotation `Y`: each new
/// entry `(r, c)` is `Σ_j y_jc · v_rj`, summed from `0.0` in `j` order, as
/// an axpy per source column would build it.
pub(crate) fn rotate(pool: &Pool, v: &mut [f64], y: &[f64], w: usize) {
    debug_assert_eq!(y.len(), w * w);
    if w <= LOCKSTEP_MAX {
        return with_width!(w, W => {
            // Column c of Y, held as a row.
            let yt: [[f64; W]; W] = from_fn(|c| from_fn(|j| y[j * W + c]));
            pool.block_rows(W, LIGHT_SPAWN_MIN, v, |_, span| {
                for row in span.chunks_exact_mut(W) {
                    let old: [f64; W] = from_fn(|j| row[j]);
                    for (out, yc) in row.iter_mut().zip(&yt) {
                        let mut sum = 0.0;
                        for j in 0..W {
                            sum += yc[j] * old[j];
                        }
                        *out = sum;
                    }
                }
            })
        });
    }
    pool.block_rows(w, LIGHT_SPAWN_MIN, v, |_, span| {
        let mut old = vec![0.0; w];
        for row in span.chunks_exact_mut(w) {
            old.copy_from_slice(row);
            for (c, out) in row.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (j, &vj) in old.iter().enumerate() {
                    sum += y[j * w + c] * vj;
                }
                *out = sum;
            }
        }
    });
}

/// Drop the columns of an `n × w` block whose `keep` flag is false, in
/// place; returns the new width.
pub(crate) fn compact(data: &mut Vec<f64>, w: usize, keep: &[bool]) -> usize {
    let kept: Vec<usize> = (0..w).filter(|&c| keep[c]).collect();
    let rows = data.len().checked_div(w).unwrap_or(0);
    let nw = kept.len();
    if nw == w {
        return w;
    }
    // Destination indices never pass their sources, so a forward copy is
    // safe in place.
    for i in 0..rows {
        for (j, &c) in kept.iter().enumerate() {
            data[i * nw + j] = data[i * w + c];
        }
    }
    data.truncate(rows * nw);
    nw
}

/// Append `k` zero columns to an `n × w` block, in place.
pub(crate) fn widen(data: &mut Vec<f64>, n: usize, w: usize, k: usize) {
    let nw = w + k;
    data.resize(n * nw, 0.0);
    if w == 0 {
        return;
    }
    // Row i moves from i·w to i·nw: destinations never trail their
    // sources, so rows copied last to first never overwrite a row still
    // to be read.
    for i in (0..n).rev() {
        data.copy_within(i * w..(i + 1) * w, i * nw);
        data[i * nw + w..(i + 1) * nw].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    /// More rows than [`LIGHT_SPAWN_MIN`], with a ragged last chunk, so the
    /// level-1 kernels engage the workers too.
    const ROWS: usize = LIGHT_SPAWN_MIN + 3 * REDUCE_CHUNK + 17;

    /// A `ROWS × w` block of deterministic values.
    fn block_of(w: usize, seed: f64) -> Vec<f64> {
        (0..ROWS * w)
            .map(|i| (i as f64 * 0.37 + seed).sin())
            .collect()
    }

    /// Laplacian of the path on `n` vertices.
    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::with_capacity(3 * n);
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            t.push((i, i, deg));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    /// FNV-1a over the bits of every value.
    fn bits(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Digests of `dot`, `means`, `spmm`, `update_direction` and `cg_step`
    /// at width `w` on `pool`.
    fn kernels(pool: &Pool<'_>, lap: &CsrMatrix, w: usize) -> Vec<u64> {
        let mut x = block_of(w, 1.0);
        let mut y = block_of(w, 2.0);
        let mut r = block_of(w, 3.0);
        let coef: Cols = [0.5, -0.25, 1.5, 0.75, -2.0];
        let fresh = [false, true, false, false, true];
        let dots = dot(pool, &x, &y, w);
        let mean = means(pool, &x, w);
        let mut ax = vec![0.0; ROWS * w];
        spmm(pool, lap, &x, &mut ax, w);
        update_direction(pool, &ax, &coef, &fresh, &mut y, w);
        let r_mean = cg_step(pool, &coef, &y, &ax, &mut x, &mut r, w);
        vec![
            bits(&dots[..w]),
            bits(&mean[..w]),
            bits(&ax),
            bits(&y),
            bits(&r_mean[..w]),
            bits(&x),
            bits(&r),
        ]
    }

    #[test]
    fn block_kernels_are_bitwise_identical_across_thread_counts() {
        let lap = path_laplacian(ROWS);
        for w in [1usize, 3, 5] {
            let serial = kernels(&Pool::serial(), &lap, w);
            for threads in [2usize, 4] {
                let workers = WorkerPool::new(threads);
                assert_eq!(
                    kernels(&workers.linalg_pool(), &lap, w),
                    serial,
                    "width {w}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn concurrent_callers_on_the_default_pool_get_the_serial_bits() {
        // The process-wide pool is shared: callers on different threads
        // submit to the same workers at once, and each still gets the
        // serial bits, because chunk grids and fold orders depend on the
        // problem size only.
        let lap = path_laplacian(ROWS);
        let serial = kernels(&Pool::serial(), &lap, 1);
        let results: Vec<_> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| kernels(&Pool::default(), &lap, 1)))
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (caller, result) in results.iter().enumerate() {
            assert_eq!(result, &serial, "caller {caller}");
        }
    }
}
