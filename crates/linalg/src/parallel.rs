//! Pooled parallel primitives for the sparse kernels.
//!
//! Every hot kernel under the multilevel Fiedler pipeline — CSR matvec,
//! the level-1 vector reductions, weighted-Jacobi smoothing, the PCG inner
//! solves — is embarrassingly row-parallel, exactly as multilevel spectral
//! practice treats them (Barnard & Simon's multilevel spectral bisection,
//! METIS-style coarsening). This module provides the two primitives they
//! all reduce to:
//!
//! * [`Pool::for_each_chunk`] — *chunked `par_for`*: split a mutable slice
//!   into contiguous chunks and run a closure on each, in parallel. Used
//!   for elementwise updates (axpy, scale, Jacobi sweeps) and row-chunked
//!   SpMV, all of which compute each output element independently, so the
//!   result is bitwise identical no matter how the slice is split.
//! * [`Pool::map_chunks`] — *deterministic chunk map*: results are
//!   computed per **fixed-size chunk** (boundaries depend only on the
//!   problem size, never on the thread count) and returned in chunk order.
//!   Reductions fold those partials by a pairwise tree in chunk order, so a
//!   parallel dot product returns the **same bits** whether run on 1, 2,
//!   or 64 threads — and the serial kernels in [`crate::vector`] use the
//!   identical chunking, so switching threading on or off cannot change a
//!   single eigenvalue, residual, or linear-order rank downstream.
//!
//! # Dispatch: one job per worker, not per chunk
//!
//! A parallel engagement hands each engaged worker its **full slice of
//! chunks in a single job**: worker `w` of `workers` takes
//! `remaining / (workers − w)` chunks of the grid. The calling thread
//! always executes the last span itself, so only `workers − 1` jobs cross
//! to the [`WorkerPool`]. Per-engagement dispatch cost is therefore one
//! channel round-trip per *extra* worker, not per chunk.
//!
//! # Engagement thresholds: heavy vs light kernels
//!
//! Parallelism only pays when the kernel outweighs the dispatch. Two
//! thresholds encode that:
//!
//! * [`SPAWN_MIN`] — heavy, compute-bound passes (CSR matvec, the edge
//!   rating map): a row costs a sparse dot product, so ~32k rows amortise
//!   an engagement. At 16k rows they did not: the 2-thread 128×128 grid
//!   solve, whose matvecs engaged at that size, ran at 0.61–1.04× the
//!   serial speed on a 2-core host.
//! * [`LIGHT_SPAWN_MIN`] — level-1, memory-bound passes (dot, axpy, sum,
//!   scale, center, Jacobi elementwise updates): a few flops per element
//!   need twice the heavy threshold before a split hides its dispatch,
//!   and the win is capped by memory bandwidth, not core count. Engaging
//!   them from 64k rows (rather than 512k) took the 2-thread 512×512 grid
//!   solve from a median 1.10× to 1.43× the serial speed on a 2-core
//!   host.
//!   Below the threshold these run inline — which is also what keeps the
//!   dispatch-counter trajectory (and the 2-thread wall time on a
//!   single-core host) close to serial.
//!
//! Thresholds affect scheduling only, never results: the serial kernels
//! share the chunk grid and fold order bit for bit.
//!
//! # One backend
//!
//! A [`Pool`] is an optional borrowed [`WorkerPool`]: the persistent
//! workers every threaded kernel runs on. [`Pool::serial`] has none and
//! runs everything inline; [`WorkerPool::linalg_pool`] borrows a
//! caller-owned pool; and
//! [`Pool::default`] borrows one process-wide pool, created on first use
//! with one worker per thread of the default count: the `SLPM_THREADS`
//! environment variable if set, else [`std::thread::available_parallelism`],
//! resolved **once per process**. When that count is 1, no pool is ever
//! created and [`Pool::default`] is serial. [`with_threads`] is the one
//! rule that turns an optional thread-count knob into a pool.
//!
//! Every parallel engagement also bumps process-wide [`DispatchCounters`]
//! (engagements, jobs submitted to the pool, chunk-grid cells covered).
//! The dispatch sequence is a pure function of the problem-size sequence
//! and thread count, so the counters are machine-independent observables
//! — `pipeline_scale` records them and CI gates on them.

use crate::pool::WorkerPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Elements per reduction chunk. Chunk boundaries are a function of the
/// problem size **only**, which is what makes parallel reductions bitwise
/// reproducible across thread counts (including one).
pub const REDUCE_CHUNK: usize = 4096;

/// Minimum element count before a **heavy** (compute-bound) primitive —
/// CSR matvec, the chunk maps — engages worker threads; below this the
/// dispatch cost exceeds the kernel cost and everything runs inline.
/// Has no effect on results, only on scheduling.
pub const SPAWN_MIN: usize = 32_768;

/// Minimum element count before a **light** (level-1, memory-bound)
/// primitive — dot, axpy, sum, scale, center, elementwise sweeps —
/// engages worker threads. A few flops per element cannot hide even a
/// cheap pooled dispatch until vectors are this long, and the achievable
/// win is bounded by memory bandwidth; below the threshold light kernels
/// run inline on the calling thread. Scheduling only — never results.
pub const LIGHT_SPAWN_MIN: usize = 65_536;

/// Process-wide dispatch-cost counters (relaxed atomics, bumped only on
/// parallel engagements — serial/inline execution never touches them).
/// The dispatch sequence is a pure function of the problem-size sequence
/// and the thread count, so these totals are machine-independent and can
/// be gated in CI.
static SCOPE_ENTRIES: AtomicU64 = AtomicU64::new(0);
static JOBS_SUBMITTED: AtomicU64 = AtomicU64::new(0);
static CHUNKS_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide dispatch counters — the observable
/// behind the bench's `dispatch_gate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchCounters {
    /// Parallel engagements: calls that split work across >1 worker.
    pub scope_entries: u64,
    /// Jobs submitted to the [`WorkerPool`]; the calling thread's own
    /// inline span is not counted.
    pub jobs_submitted: u64,
    /// [`REDUCE_CHUNK`]-grid cells covered by parallel engagements.
    pub chunks_executed: u64,
}

impl DispatchCounters {
    /// The counter deltas accumulated since `earlier` was snapshot.
    pub fn since(&self, earlier: &DispatchCounters) -> DispatchCounters {
        DispatchCounters {
            scope_entries: self.scope_entries - earlier.scope_entries,
            jobs_submitted: self.jobs_submitted - earlier.jobs_submitted,
            chunks_executed: self.chunks_executed - earlier.chunks_executed,
        }
    }
}

/// Snapshot the process-wide dispatch counters.
pub fn dispatch_counters() -> DispatchCounters {
    DispatchCounters {
        scope_entries: SCOPE_ENTRIES.load(Ordering::Relaxed),
        jobs_submitted: JOBS_SUBMITTED.load(Ordering::Relaxed),
        chunks_executed: CHUNKS_EXECUTED.load(Ordering::Relaxed),
    }
}

/// Record one parallel engagement that submitted `jobs` closures covering
/// `chunks` chunk-grid cells.
fn note_dispatch(jobs: u64, chunks: u64) {
    SCOPE_ENTRIES.fetch_add(1, Ordering::Relaxed);
    JOBS_SUBMITTED.fetch_add(jobs, Ordering::Relaxed);
    CHUNKS_EXECUTED.fetch_add(chunks, Ordering::Relaxed);
}

/// Default worker count: `SLPM_THREADS` env override, else the machine's
/// available parallelism, else 1. Resolved **once per process** (first
/// use); later calls reuse the cached value rather than re-reading the
/// environment.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("SLPM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f` on the pool a thread-count knob asks for — the one rule every
/// caller with a `--threads`-style option uses: `None` borrows
/// [`Pool::default`], `Some(t)` with `t > 1` a fresh [`WorkerPool`] of `t`
/// workers that lives for the call, and `Some(1)` (or `Some(0)`) runs
/// serially. Thread count never changes results, only where work runs.
pub fn with_threads<T>(threads: Option<usize>, f: impl FnOnce(&Pool<'_>) -> T) -> T {
    match threads {
        None => f(&Pool::default()),
        Some(t) if t > 1 => f(&WorkerPool::new(t).linalg_pool()),
        Some(_) => f(&Pool::serial()),
    }
}

/// A handle the kernels schedule through: the borrowed [`WorkerPool`]
/// that runs threaded engagements, or none for the serial pool.
///
/// Cheap to copy; owns no OS resources. Every kernel is bitwise identical
/// for any thread count, so a pool decides where work runs, never what it
/// computes.
#[derive(Clone, Copy)]
pub struct Pool<'e> {
    workers: Option<&'e WorkerPool>,
}

impl std::fmt::Debug for Pool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Default for Pool<'static> {
    /// Borrow the process-wide [`WorkerPool`], created on first use with
    /// the default worker count (`SLPM_THREADS`, else the machine size);
    /// serial when that count is 1, in which case no pool is created.
    /// Once created, its workers stay parked for the rest of the process.
    /// Do not use it from inside a job running on that pool: the job
    /// would wait for workers it occupies.
    fn default() -> Self {
        static SHARED: OnceLock<Option<WorkerPool>> = OnceLock::new();
        let shared = SHARED.get_or_init(|| {
            let threads = default_threads();
            (threads > 1).then(|| WorkerPool::new(threads))
        });
        shared
            .as_ref()
            .map_or_else(Pool::serial, WorkerPool::linalg_pool)
    }
}

impl Pool<'static> {
    /// A single-threaded pool; every primitive runs inline.
    pub fn serial() -> Self {
        Pool { workers: None }
    }
}

impl WorkerPool {
    /// Borrow this pool for the kernels: the returned [`Pool`] schedules
    /// their chunked work onto these workers. Results are bitwise
    /// identical to the serial pool and to every other thread count.
    pub fn linalg_pool(&self) -> Pool<'_> {
        Pool {
            workers: Some(self),
        }
    }
}

impl<'e> Pool<'e> {
    /// Worker count this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.workers.map_or(1, WorkerPool::threads)
    }

    /// Run every job to completion: on the pool's workers when it has
    /// any, else inline in order. For coarse independent tasks (one per
    /// figure series, say); the jobs must not use a pool themselves.
    pub fn run_scoped(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        match self.workers {
            Some(workers) => workers.run_scoped(jobs),
            None => jobs.into_iter().for_each(|job| job()),
        }
    }

    /// Number of workers to engage for `n` independent elements given an
    /// engagement threshold.
    pub(crate) fn workers_for_min(&self, n: usize, min: usize) -> usize {
        let threads = self.threads();
        if threads <= 1 || n < min {
            1
        } else {
            threads.min(n.div_ceil(REDUCE_CHUNK)).max(1)
        }
    }

    /// Run `f(first, span)` over `items` split into one contiguous span
    /// per engaged worker, where each [`REDUCE_CHUNK`]-grid chunk covers
    /// `unit` items and `first` is the span's first item. Worker `w` takes
    /// `remaining / (workers − w)` chunks; the last span runs on the
    /// calling thread, the others as pool jobs. With one worker, `f(0,
    /// items)` runs inline.
    pub(crate) fn split_run<T, F>(&self, workers: usize, unit: usize, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let pool = match self.workers {
            Some(pool) if workers > 1 => pool,
            _ => return f(0, items),
        };
        let chunks = items.len().div_ceil(unit);
        note_dispatch(workers as u64 - 1, chunks as u64);
        let g = &f;
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers - 1);
        let mut rest = items;
        let mut first = 0usize;
        for w in 0..workers - 1 {
            // Never the last chunk, so every job's span is whole chunks.
            let count = (chunks - first) / (workers - w);
            let (head, tail) = rest.split_at_mut(count * unit);
            rest = tail;
            let offset = first * unit;
            jobs.push(Box::new(move || g(offset, head)));
            first += count;
        }
        let offset = first * unit;
        pool.run_scoped_with_local(jobs, move || g(offset, rest));
    }

    /// Chunked `par_for`: split `data` into one contiguous chunk-aligned
    /// span per engaged worker and run `f(offset, span)` on each in
    /// parallel. Engages workers at [`SPAWN_MIN`] — the heavy-kernel
    /// threshold; the block kernels' level-1 passes engage at
    /// [`LIGHT_SPAWN_MIN`] rows.
    ///
    /// `f` must compute each element of its span from the element's
    /// *global* index only (`offset + local`), independent of the split —
    /// then the result is identical for every thread count.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.split_run(
            self.workers_for_min(data.len(), SPAWN_MIN),
            REDUCE_CHUNK,
            data,
            f,
        );
    }

    /// Evaluate `f(start, end)` for every fixed [`REDUCE_CHUNK`]-sized
    /// chunk of `0..n` (in parallel when worthwhile) and return the
    /// per-chunk results **in chunk order**: the partials of a reduction
    /// (tree-folded by the caller), or the variable-sized output of a pass
    /// over row ranges (e.g. the edge-rating pass of heavy-edge matching).
    /// Chunk boundaries depend only on `n`, so the result is identical for
    /// every thread count.
    pub fn map_chunks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        self.map_chunks_min(SPAWN_MIN, n, f)
    }

    /// [`Pool::map_chunks`] with the engagement threshold `min`.
    pub(crate) fn map_chunks_min<T, F>(&self, min: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let chunks = n.div_ceil(REDUCE_CHUNK).max(1);
        let mut out: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
        // One slot per chunk: each worker fills its contiguous slot range.
        self.split_run(
            self.workers_for_min(n, min),
            1,
            &mut out,
            |first, slots: &mut [Option<T>]| {
                for (k, slot) in slots.iter_mut().enumerate() {
                    let start = (first + k) * REDUCE_CHUNK;
                    *slot = Some(f(start, (start + REDUCE_CHUNK).min(n)));
                }
            },
        );
        out.into_iter()
            .map(|slot| slot.expect("every chunk evaluated"))
            .collect()
    }
}

/// Pairwise tree reduction of `partials` in index order; deterministic for
/// a given partial list. The serial chunked kernels in [`crate::vector`]
/// fold their chunk partials through this same function, which is what
/// pins one summation order across every thread count.
pub(crate) fn tree_fold(partials: &mut [f64]) -> f64 {
    if partials.is_empty() {
        return 0.0;
    }
    let mut len = partials.len();
    while len > 1 {
        let mut write = 0;
        let mut read = 0;
        while read < len {
            partials[write] = if read + 1 < len {
                partials[read] + partials[read + 1]
            } else {
                partials[read]
            };
            write += 1;
            read += 2;
        }
        len = write;
    }
    partials[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block;
    use crate::sparse::CsrMatrix;
    use crate::vector;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
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

    /// The threads `map_chunks_min` evaluates chunks on at threshold `min`.
    fn chunk_threads(pool: &Pool<'_>, n: usize, min: usize) -> Vec<ThreadId> {
        let seen = Mutex::new(Vec::new());
        pool.map_chunks_min(min, n, |_, _| {
            seen.lock().unwrap().push(std::thread::current().id());
        });
        seen.into_inner().unwrap()
    }

    /// `y ← y + alpha·x` and `y ← beta·y` on the light elementwise pass
    /// the solver's column updates run on.
    fn axpy_then_scale(pool: &Pool<'_>, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        block::for_rows(pool, y, 1, |i, row| row[0] += alpha * x[i]);
        block::for_rows(pool, y, 1, |_, row| row[0] *= beta);
    }

    #[test]
    fn default_pool_resolves_at_least_one_thread() {
        assert!(default_threads() >= 1);
        assert!(Pool::default().threads() >= 1);
        assert_eq!(WorkerPool::new(0).linalg_pool().threads(), 1);
        assert_eq!(WorkerPool::new(3).linalg_pool().threads(), 3);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn default_pool_follows_slpm_threads() {
        // Callers that pass `Pool::default()` run at exactly the
        // `SLPM_THREADS` count when it is set (CI's threaded shard sets
        // it), else at the machine's available parallelism.
        let expected = std::env::var("SLPM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |n| n.max(1),
            );
        assert_eq!(Pool::default().threads(), expected);
    }

    #[test]
    fn with_threads_follows_the_knob() {
        let default = Pool::default().threads();
        assert_eq!(with_threads(None, |p| p.threads()), default);
        for (knob, threads) in [(0usize, 1usize), (1, 1), (3, 3)] {
            assert_eq!(with_threads(Some(knob), |p| p.threads()), threads);
        }
    }

    #[test]
    fn tree_fold_cases() {
        assert_eq!(tree_fold(&mut []), 0.0);
        assert_eq!(tree_fold(&mut [3.5]), 3.5);
        // ((1+2)+(3+4)) + (5): tree order, not left-to-right.
        assert_eq!(tree_fold(&mut [1.0, 2.0, 3.0, 4.0, 5.0]), 15.0);
    }

    #[test]
    fn worker_spans_cover_the_grid_exactly() {
        let workers = WorkerPool::new(4);
        let pool = workers.linalg_pool();
        for (len, engaged) in [
            (1usize, 1usize),
            (REDUCE_CHUNK, 1),
            (REDUCE_CHUNK + 1, 2),
            (LIGHT_SPAWN_MIN + 37, 3),
            (10 * REDUCE_CHUNK + 5, 4),
        ] {
            let spans = Mutex::new(Vec::new());
            let mut items = vec![0u8; len];
            pool.split_run(engaged, REDUCE_CHUNK, &mut items, |offset, span| {
                spans.lock().unwrap().push((offset, span.len()));
            });
            let mut spans = spans.into_inner().unwrap();
            spans.sort_unstable();
            assert_eq!(spans.len(), engaged, "one span per engaged worker");
            let mut next = 0usize;
            for &(offset, span_len) in &spans {
                assert_eq!(offset, next, "gap in coverage at len={len}");
                assert_eq!(offset % REDUCE_CHUNK, 0, "span not chunk-aligned");
                assert!(span_len > 0, "empty worker span");
                next += span_len;
            }
            assert_eq!(next, len, "elements not fully covered");
        }
    }

    #[test]
    fn dot_bitwise_identical_across_thread_counts() {
        // Larger than LIGHT_SPAWN_MIN so threads genuinely engage, with
        // an odd tail so chunk boundaries are exercised.
        let n = LIGHT_SPAWN_MIN + 3 * REDUCE_CHUNK + 17;
        let x = random_vec(n, 1);
        let y = random_vec(n, 2);
        let serial = vector::dot(&x, &y);
        for t in [1usize, 2, 4] {
            let par = with_threads(Some(t), |pool| block::dot(pool, &x, &y, 1)[0]);
            assert_eq!(par.to_bits(), serial.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn sum_and_center_bitwise_identical() {
        let n = LIGHT_SPAWN_MIN + 1234;
        let base = random_vec(n, 3);
        let serial_sum: f64 = vector::sum_kernel_chunked(&base);
        for t in [1usize, 2, 4] {
            with_threads(Some(t), |pool| {
                let sum = block::col_sum(pool, &base, 1, 0);
                assert_eq!(sum.to_bits(), serial_sum.to_bits());
                let mut a = base.clone();
                let mut b = base.clone();
                vector::center(&mut a);
                block::col_center(pool, &mut b, 1, 0);
                assert_eq!(a, b, "center differs at threads={t}");
            });
        }
    }

    #[test]
    fn axpy_and_scale_match_serial() {
        let n = LIGHT_SPAWN_MIN + 77;
        let x = random_vec(n, 4);
        let base = random_vec(n, 5);
        for t in [1usize, 2, 4] {
            with_threads(Some(t), |pool| {
                let mut a = base.clone();
                let mut b = base.clone();
                vector::axpy(0.37, &x, &mut a);
                vector::scale(-1.5, &mut a);
                axpy_then_scale(pool, 0.37, &x, -1.5, &mut b);
                assert_eq!(a, b, "axpy and scale differ at threads={t}");
            });
        }
    }

    #[test]
    fn light_kernels_below_threshold_run_inline_but_match() {
        // Between SPAWN_MIN and LIGHT_SPAWN_MIN the level-1 passes run
        // inline (dispatch would cost more than the pass), with results
        // bitwise unchanged.
        let n = SPAWN_MIN + 3 * REDUCE_CHUNK;
        let x = random_vec(n, 21);
        let y = random_vec(n, 22);
        let workers = WorkerPool::new(4);
        let pool = workers.linalg_pool();
        let caller = std::thread::current().id();
        assert!(chunk_threads(&pool, n, LIGHT_SPAWN_MIN)
            .iter()
            .all(|&t| t == caller));
        assert_eq!(
            block::dot(&pool, &x, &y, 1)[0].to_bits(),
            vector::dot(&x, &y).to_bits()
        );
    }

    #[test]
    fn matvec_bitwise_identical_across_thread_counts() {
        let lap = grid_laplacian(180, 120); // 21,600 rows > SPAWN_MIN
        let x = random_vec(lap.rows(), 6);
        let mut serial = vec![0.0; lap.rows()];
        lap.matvec_into(&x, &mut serial);
        for t in [1usize, 2, 4] {
            let mut y = vec![0.0; lap.rows()];
            with_threads(Some(t), |pool| block::spmm(pool, &lap, &x, &mut y, 1));
            assert_eq!(y, serial, "matvec differs at threads={t}");
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        // Below SPAWN_MIN nothing is dispatched, but results are still right.
        let x = random_vec(100, 7);
        let y = random_vec(100, 8);
        with_threads(Some(8), |pool| {
            let dot = block::dot(pool, &x, &y, 1)[0];
            assert_eq!(dot.to_bits(), vector::dot(&x, &y).to_bits());
            let norm = block::dot(pool, &x, &x, 1)[0].sqrt();
            assert_eq!(norm.to_bits(), vector::norm2(&x).to_bits());
        });
    }

    #[test]
    fn pooled_backend_is_bitwise_identical_to_serial() {
        let n = LIGHT_SPAWN_MIN + 3 * REDUCE_CHUNK + 29;
        let x = random_vec(n, 11);
        let y = random_vec(n, 12);
        let lap = grid_laplacian(170, 130);
        let v = random_vec(lap.rows(), 13);
        let serial = Pool::serial();
        for t in [2usize, 4] {
            let workers = WorkerPool::new(t);
            let pooled = workers.linalg_pool();
            assert_eq!(pooled.threads(), t);
            assert_eq!(
                block::dot(&pooled, &x, &y, 1)[0].to_bits(),
                block::dot(&serial, &x, &y, 1)[0].to_bits(),
                "dot differs at threads={t}"
            );
            let mut a = y.clone();
            let mut b = y.clone();
            axpy_then_scale(&serial, 0.73, &x, 1.0, &mut a);
            axpy_then_scale(&pooled, 0.73, &x, 1.0, &mut b);
            assert_eq!(a, b, "axpy differs at threads={t}");
            block::col_center(&serial, &mut a, 1, 0);
            block::col_center(&pooled, &mut b, 1, 0);
            assert_eq!(a, b, "center differs at threads={t}");
            let mut mv_serial = vec![0.0; lap.rows()];
            let mut mv_pooled = vec![0.0; lap.rows()];
            block::spmm(&serial, &lap, &v, &mut mv_serial, 1);
            block::spmm(&pooled, &lap, &v, &mut mv_pooled, 1);
            assert_eq!(mv_pooled, mv_serial, "matvec differs at threads={t}");
        }
    }

    #[test]
    fn executor_pool_runs_small_inputs_inline() {
        // Below the engagement thresholds no job reaches the workers:
        // every chunk is evaluated on the calling thread.
        let workers = WorkerPool::new(8);
        let pool = workers.linalg_pool();
        let caller = std::thread::current().id();
        assert!(chunk_threads(&pool, 64, SPAWN_MIN)
            .iter()
            .all(|&t| t == caller));
        assert!(chunk_threads(&pool, SPAWN_MIN - 1, SPAWN_MIN)
            .iter()
            .all(|&t| t == caller));
        // Light ops stay inline all the way up to LIGHT_SPAWN_MIN.
        assert!(chunk_threads(&pool, LIGHT_SPAWN_MIN - 1, LIGHT_SPAWN_MIN)
            .iter()
            .all(|&t| t == caller));
        let x = random_vec(64, 14);
        assert_eq!(
            block::col_sum(&pool, &x, 1, 0).to_bits(),
            vector::sum_kernel_chunked(&x).to_bits()
        );
    }

    #[test]
    fn run_scoped_runs_every_job_inline_or_on_the_workers() {
        for threads in [1usize, 3] {
            let mut slots = vec![0usize; 5];
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| Box::new(move || *slot = i * i) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            with_threads(Some(threads), |pool| pool.run_scoped(jobs));
            assert_eq!(slots, vec![0, 1, 4, 9, 16], "threads={threads}");
        }
    }

    #[test]
    fn reduce_chunk_boundaries_depend_on_size_only() {
        // A chunk map that records each chunk's start: the observed chunk
        // grid must be the same for 1 and 4 threads.
        let n = SPAWN_MIN * 2 + 5;
        let collect = |threads: usize| {
            let starts = Mutex::new(Vec::new());
            with_threads(Some(threads), |pool| {
                pool.map_chunks(n, |a, _b| starts.lock().unwrap().push(a))
            });
            let mut v = starts.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        assert_eq!(collect(1), collect(4));
    }
}
