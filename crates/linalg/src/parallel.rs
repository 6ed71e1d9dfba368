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
//! * [`Pool::reduce`] — *deterministic tree reduction*: partial results are
//!   computed per **fixed-size chunk** (boundaries depend only on the
//!   problem size, never on the thread count) and combined by a pairwise
//!   tree in chunk order. A parallel dot product therefore returns the
//!   **same bits** whether run on 1, 2, or 64 threads — and the serial
//!   kernels in [`crate::vector`] use the identical chunking, so switching
//!   threading on or off cannot change a single eigenvalue, residual, or
//!   linear-order rank downstream.
//!
//! # Dispatch: chunk plans, not per-chunk jobs
//!
//! A parallel engagement hands each engaged worker its **full slice of
//! chunks in a single job**, described by a cached [`ChunkPlan`] (computed
//! once per `(length, workers)` pair and reused across iterations — PCG
//! and the multilevel walk re-touch the same handful of vector lengths
//! thousands of times). The calling thread always executes one span
//! itself: with a persistent [`ScopeExecutor`] only `workers − 1` jobs
//! cross the submission seam, and on the scoped fallback only
//! `workers − 1` threads are spawned. Per-engagement dispatch cost is
//! therefore one channel round-trip per *extra* worker, not per chunk.
//!
//! # Engagement thresholds: heavy vs light kernels
//!
//! Parallelism only pays when the kernel outweighs the dispatch. Two
//! thresholds encode that:
//!
//! * [`SPAWN_MIN`] — heavy, compute-bound passes (CSR matvec, the edge
//!   rating map): a row costs a sparse dot product, so even ~16k rows
//!   amortise an engagement.
//! * [`LIGHT_SPAWN_MIN`] — level-1, memory-bound passes (dot, axpy, sum,
//!   scale, center, Jacobi elementwise updates): a few flops per element
//!   leave nothing to hide dispatch behind until vectors are hundreds of
//!   thousands of elements long, and even then the win is capped by
//!   memory bandwidth, not core count. Below the threshold these run
//!   inline — which is also what keeps the dispatch-counter trajectory
//!   (and the 2-thread wall time on a single-core host) close to serial.
//!
//! Thresholds affect scheduling only, never results: the serial kernels
//! share the chunk grid and fold order bit for bit.
//!
//! # One pool everywhere
//!
//! The pool itself is just a resolved thread count plus an optional
//! borrowed [`ScopeExecutor`] — the seam through which the eigensolver
//! borrows a persistent worker pool (e.g. `slpm_serve::WorkerPool`)
//! instead of spawning scoped threads per call. The *default* count is
//! resolved **once per process** from the `SLPM_THREADS` environment
//! variable if set, else [`std::thread::available_parallelism`] — so
//! [`Pool::default`] means "use the machine" and no construction path
//! re-reads the environment.
//!
//! Every parallel engagement also bumps process-wide [`DispatchCounters`]
//! (engagements, jobs handed to a backend, chunk-grid cells covered).
//! The dispatch sequence is a pure function of the problem-size sequence
//! and thread count, so the counters are machine-independent observables
//! — `pipeline_scale` records them and CI gates on them.

use crate::sparse::CsrMatrix;
use crate::vector;
use crossbeam::thread;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Elements per reduction chunk. Chunk boundaries are a function of the
/// problem size **only**, which is what makes parallel reductions bitwise
/// reproducible across thread counts (including one).
pub const REDUCE_CHUNK: usize = 4096;

/// Minimum element count before a **heavy** (compute-bound) primitive —
/// CSR matvec, the chunk maps — engages worker threads; below this the
/// dispatch cost exceeds the kernel cost and everything runs inline.
/// Has no effect on results, only on scheduling.
pub const SPAWN_MIN: usize = 16_384;

/// Minimum element count before a **light** (level-1, memory-bound)
/// primitive — dot, axpy, sum, scale, center, elementwise sweeps —
/// engages worker threads. A few flops per element cannot hide even a
/// cheap pooled dispatch until vectors are this long, and the achievable
/// win is bounded by memory bandwidth; below the threshold light kernels
/// run inline on the calling thread. Scheduling only — never results.
pub const LIGHT_SPAWN_MIN: usize = 524_288;

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
    /// Closures handed to a backend (scoped spawns or executor jobs);
    /// the calling thread's own inline span is not counted.
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

/// Lazily-resolved default worker count: `SLPM_THREADS` env override, else
/// the machine's available parallelism, else 1. Resolved **once per
/// process** (first use) — every later [`Pool::new`]/[`Pool::default`]
/// reuses the cached value rather than re-reading the environment.
pub fn default_threads() -> usize {
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

/// A cached per-engagement dispatch plan: for one `(vector length,
/// engaged workers)` pair, the contiguous slice of [`REDUCE_CHUNK`]-grid
/// chunks each worker executes as a single job.
///
/// Plans are computed once and memoised process-wide — the multilevel
/// walk and PCG re-touch the same handful of lengths thousands of times,
/// so the split arithmetic (and the allocation behind it) is paid once
/// per length, not per kernel call. The chunk grid itself depends only on
/// the length, so a plan never influences results, only scheduling.
///
/// A plan is bound to the length it was computed for: every primitive
/// re-checks `plan.check(data.len())` before splitting, so a plan cached
/// for length N can never be applied to a slice of length M ≠ N.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    len: usize,
    chunks: usize,
    /// `workers + 1` fenceposts in chunk units: worker `w` executes
    /// chunks `bounds[w]..bounds[w + 1]`.
    bounds: Vec<usize>,
}

impl ChunkPlan {
    /// Compute the balanced chunk split for `len` elements over `workers`
    /// workers (the same iterative split the dispatcher has always used:
    /// worker `w` takes `remaining / (workers - w)` chunks).
    fn compute(len: usize, workers: usize) -> ChunkPlan {
        let chunks = len.div_ceil(REDUCE_CHUNK).max(1);
        let workers = workers.clamp(1, chunks);
        let mut bounds = Vec::with_capacity(workers + 1);
        bounds.push(0);
        let mut first = 0usize;
        for w in 0..workers {
            let count = (chunks - first) / (workers - w);
            first += count;
            bounds.push(first);
        }
        debug_assert_eq!(*bounds.last().expect("nonempty"), chunks);
        ChunkPlan {
            len,
            chunks,
            bounds,
        }
    }

    /// The memoised plan for `len` elements over `workers` workers.
    pub fn for_len(len: usize, workers: usize) -> Arc<ChunkPlan> {
        type PlanCache = Mutex<HashMap<(usize, usize), Arc<ChunkPlan>>>;
        static CACHE: OnceLock<PlanCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("chunk-plan cache lock");
        // Bound the memo (distinct lengths are few in practice — the
        // multilevel hierarchy contributes one per level — but a
        // pathological caller must not leak unboundedly).
        if map.len() > 4096 {
            map.clear();
        }
        Arc::clone(
            map.entry((len, workers))
                .or_insert_with(|| Arc::new(ChunkPlan::compute(len, workers))),
        )
    }

    /// The vector length this plan was computed for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the plan covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of workers the plan engages.
    pub fn workers(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total chunk-grid cells the plan covers.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Worker `w`'s chunk range `[start, end)` in chunk units.
    pub fn chunk_range(&self, w: usize) -> (usize, usize) {
        (self.bounds[w], self.bounds[w + 1])
    }

    /// Worker `w`'s element span `[start, end)` (chunk-aligned, clamped
    /// to the plan's length).
    pub fn span(&self, w: usize) -> (usize, usize) {
        (
            (self.bounds[w] * REDUCE_CHUNK).min(self.len),
            (self.bounds[w + 1] * REDUCE_CHUNK).min(self.len),
        )
    }

    /// Assert the plan is being applied to the length it was computed
    /// for. Every primitive calls this before splitting a slice, so a
    /// plan cached for length N can never silently act on length M ≠ N.
    pub fn check(&self, len: usize) {
        assert_eq!(
            self.len, len,
            "ChunkPlan for length {} applied to length {len}",
            self.len
        );
    }
}

/// An executor that can run a batch of **borrowing** jobs to completion —
/// the seam that lets the pooled kernels borrow a *persistent* thread pool
/// (e.g. `slpm_serve`'s `WorkerPool`) instead of spawning fresh scoped
/// threads on every call, so one pool abstraction serves both the
/// eigensolver and the query engine.
///
/// # Contract
/// `run_jobs` must execute **every** job before returning (order and
/// placement are free — the kernels built on it are bitwise independent of
/// both) and must propagate a job panic to the caller. The crossbeam
/// shim's `thread::run_scoped` implements exactly this contract over any
/// `'static` job sink.
pub trait ScopeExecutor: Sync {
    /// Run every job to completion, then return.
    fn run_jobs(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>);

    /// Run `jobs` on the executor while the **calling thread** executes
    /// `caller`; return once everything (jobs and caller span) finished.
    ///
    /// The default implementation simply appends `caller` to `jobs` —
    /// correct, but it leaves the calling thread blocked in
    /// [`ScopeExecutor::run_jobs`]. Persistent pools should override it
    /// to run `caller` inline between submission and the completion wait
    /// (as `slpm_serve::WorkerPool` does), which removes one job handoff
    /// per engagement and keeps the calling thread productive.
    fn run_jobs_with_caller<'env>(
        &self,
        mut jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        caller: Box<dyn FnOnce() + Send + 'env>,
    ) {
        jobs.push(caller);
        self.run_jobs(jobs);
    }
}

/// A worker pool handle: a resolved thread count plus the dispatch logic.
///
/// Cheap to construct and copy; holds no OS resources of its own. By
/// default threads are spawned per call (scoped) and joined before the
/// call returns; [`Pool::with_executor`] instead borrows a persistent
/// [`ScopeExecutor`], which amortises the per-call spawn cost for the
/// many-small-kernel regime. The executor never changes results — every
/// kernel is bitwise identical for any thread count and either backend.
#[derive(Clone, Copy)]
pub struct Pool<'e> {
    threads: usize,
    /// `None`: scoped threads per call. `Some`: persistent executor.
    executor: Option<&'e dyn ScopeExecutor>,
}

impl std::fmt::Debug for Pool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("executor", &self.executor.map(|_| "persistent"))
            .finish()
    }
}

impl Default for Pool<'static> {
    /// The machine-default pool ([`default_threads`]).
    fn default() -> Self {
        Pool::new(None)
    }
}

impl Pool<'static> {
    /// Resolve a thread-count knob: `Some(t)` pins the worker count,
    /// `None` uses [`default_threads`] (env override / machine size,
    /// resolved once per process).
    pub fn new(threads: Option<usize>) -> Self {
        Pool {
            threads: threads.unwrap_or_else(default_threads).max(1),
            executor: None,
        }
    }

    /// A single-threaded pool; every primitive runs inline.
    pub fn serial() -> Self {
        Pool {
            threads: 1,
            executor: None,
        }
    }
}

impl<'e> Pool<'e> {
    /// Schedule parallel work onto a persistent [`ScopeExecutor`] with
    /// `threads` workers instead of spawning scoped threads per call.
    /// This is the **default path for the solvers**: the multilevel
    /// driver, PCG and the CLI all thread a pool built here through
    /// their call chains, so nested kernels never silently fall back to
    /// scoped spawns. Chunking (and therefore every result bit) is
    /// identical to the scoped backend at the same thread count.
    pub fn with_executor(threads: usize, executor: &'e dyn ScopeExecutor) -> Pool<'e> {
        Pool {
            threads: threads.max(1),
            executor: Some(executor),
        }
    }

    /// Worker count this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of workers to engage for `n` independent elements given an
    /// engagement threshold.
    fn workers_for_min(&self, n: usize, min: usize) -> usize {
        if self.threads <= 1 || n < min {
            1
        } else {
            self.threads.min(n.div_ceil(REDUCE_CHUNK)).max(1)
        }
    }

    /// Chunked `par_for`: split `data` into one contiguous chunk-aligned
    /// span per engaged worker (per the cached [`ChunkPlan`]) and run
    /// `f(offset, span)` on each in parallel. Engages workers at
    /// [`SPAWN_MIN`] — the heavy-kernel threshold; level-1 wrappers use
    /// the [`LIGHT_SPAWN_MIN`] variant internally.
    ///
    /// `f` must compute each element of its span from the element's
    /// *global* index only (`offset + local`), independent of the split —
    /// then the result is identical for every thread count.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_each_chunk_min(SPAWN_MIN, data, f);
    }

    /// [`Pool::for_each_chunk`] with the light-kernel engagement
    /// threshold — for level-1, memory-bound elementwise passes.
    pub(crate) fn for_each_chunk_light<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_each_chunk_min(LIGHT_SPAWN_MIN, data, f);
    }

    fn for_each_chunk_min<T, F>(&self, min: usize, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        let workers = self.workers_for_min(n, min);
        if workers <= 1 {
            f(0, data);
            return;
        }
        let plan = ChunkPlan::for_len(n, workers);
        plan.check(n);
        note_dispatch(plan.workers() as u64 - 1, plan.chunks() as u64);
        // Split at the plan's chunk-aligned fenceposts; the calling
        // thread executes the last span itself instead of idling.
        let mut spans: Vec<(usize, &mut [T])> = Vec::with_capacity(plan.workers());
        let mut rest = data;
        for w in 0..plan.workers() {
            let (lo, hi) = plan.span(w);
            let (head, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            spans.push((lo, head));
        }
        let (c_off, c_head) = spans.pop().expect("plan has >= 1 span");
        let g = &f;
        match self.executor {
            Some(executor) => {
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = spans
                    .into_iter()
                    .map(|(offset, head)| {
                        Box::new(move || g(offset, head)) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                executor.run_jobs_with_caller(jobs, Box::new(move || g(c_off, c_head)));
            }
            None => {
                thread::scope(|s| {
                    for (offset, head) in spans {
                        s.spawn(move |_| g(offset, head));
                    }
                    g(c_off, c_head);
                })
                .expect("parallel worker panicked");
            }
        }
    }

    /// Deterministic reduction over `0..n`: `partial(start, end)` is
    /// evaluated for every fixed [`REDUCE_CHUNK`]-sized chunk (in parallel
    /// when worthwhile, via [`Pool::map_chunks`]) and the partials are
    /// combined by a pairwise tree fold in chunk order — bitwise
    /// reproducible for any thread count.
    pub fn reduce<F>(&self, n: usize, partial: F) -> f64
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        tree_fold(&mut self.map_chunks(n, partial))
    }

    /// [`Pool::reduce`] with the light-kernel engagement threshold.
    pub(crate) fn reduce_light<F>(&self, n: usize, partial: F) -> f64
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        tree_fold(&mut self.map_chunks_min(LIGHT_SPAWN_MIN, n, partial))
    }

    /// Evaluate `f(start, end)` for every fixed [`REDUCE_CHUNK`]-sized
    /// chunk of `0..n` (in parallel when worthwhile) and return the
    /// per-chunk results **in chunk order** — the gather analogue of
    /// [`Pool::reduce`], used for passes that collect variable-sized
    /// output per row range (e.g. the edge-rating pass of heavy-edge
    /// matching). Chunk boundaries depend only on `n`, so the concatenated
    /// result is identical for every thread count.
    pub fn map_chunks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        self.map_chunks_min(SPAWN_MIN, n, f)
    }

    fn map_chunks_min<T, F>(&self, min: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let chunks = n.div_ceil(REDUCE_CHUNK).max(1);
        let mut out: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
        let workers = self.workers_for_min(n, min);
        if workers <= 1 {
            for (c, slot) in out.iter_mut().enumerate() {
                let start = c * REDUCE_CHUNK;
                *slot = Some(f(start, (start + REDUCE_CHUNK).min(n)));
            }
        } else {
            let plan = ChunkPlan::for_len(n, workers);
            plan.check(n);
            debug_assert_eq!(plan.chunks(), chunks);
            note_dispatch(plan.workers() as u64 - 1, plan.chunks() as u64);
            // One job per worker: its full contiguous range of chunks,
            // sliced out of the result vector at the plan's fenceposts.
            let mut spans: Vec<(usize, &mut [Option<T>])> = Vec::with_capacity(plan.workers());
            let mut rest: &mut [Option<T>] = &mut out;
            for w in 0..plan.workers() {
                let (lo, hi) = plan.chunk_range(w);
                let (head, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                spans.push((lo, head));
            }
            let g = &f;
            let eval = move |first: usize, slots: &mut [Option<T>]| {
                for (k, slot) in slots.iter_mut().enumerate() {
                    let start = (first + k) * REDUCE_CHUNK;
                    *slot = Some(g(start, (start + REDUCE_CHUNK).min(n)));
                }
            };
            let (c_first, c_slots) = spans.pop().expect("plan has >= 1 span");
            let ev = &eval;
            match self.executor {
                Some(executor) => {
                    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = spans
                        .into_iter()
                        .map(|(first, slots)| {
                            Box::new(move || ev(first, slots)) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    executor.run_jobs_with_caller(jobs, Box::new(move || ev(c_first, c_slots)));
                }
                None => {
                    thread::scope(|s| {
                        for (first, slots) in spans {
                            s.spawn(move |_| ev(first, slots));
                        }
                        ev(c_first, c_slots);
                    })
                    .expect("parallel worker panicked");
                }
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every chunk evaluated"))
            .collect()
    }

    /// Dot product `xᵀy` — parallel, bitwise equal to [`vector::dot`].
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
        self.reduce_light(x.len(), |a, b| vector::dot_kernel(&x[a..b], &y[a..b]))
    }

    /// Euclidean norm `‖x‖₂` — parallel, bitwise equal to
    /// [`vector::norm2`].
    pub fn norm2(&self, x: &[f64]) -> f64 {
        self.dot(x, x).sqrt()
    }

    /// Entry sum — parallel, bitwise equal to the serial chunked sum
    /// behind [`vector::mean`].
    pub fn sum(&self, x: &[f64]) -> f64 {
        self.reduce_light(x.len(), |a, b| vector::sum_kernel(&x[a..b]))
    }

    /// `y ← y + alpha·x` — parallel, elementwise (bitwise equal to
    /// [`vector::axpy`] for any thread count).
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        self.for_each_chunk_light(y, |off, chunk| {
            vector::axpy(alpha, &x[off..off + chunk.len()], chunk);
        });
    }

    /// `x ← alpha·x` — parallel.
    pub fn scale(&self, alpha: f64, x: &mut [f64]) {
        self.for_each_chunk_light(x, |_, chunk| vector::scale(alpha, chunk));
    }

    /// Subtract the mean from every entry — parallel, bitwise equal to
    /// [`vector::center`].
    pub fn center(&self, x: &mut [f64]) {
        if x.is_empty() {
            return;
        }
        let m = self.sum(x) / x.len() as f64;
        self.for_each_chunk_light(x, |_, chunk| {
            for v in chunk.iter_mut() {
                *v -= m;
            }
        });
    }

    /// `y = A x` with row-chunked parallelism — each output row is an
    /// independent sparse dot product, so the result is bitwise equal to
    /// [`CsrMatrix::matvec_into`] for any thread count. Heavy-kernel
    /// threshold: a CSR row costs a sparse dot, so [`SPAWN_MIN`] rows
    /// amortise the engagement.
    pub fn matvec_into(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), a.cols());
        debug_assert_eq!(y.len(), a.rows());
        self.for_each_chunk(y, |row0, chunk| a.matvec_rows_into(row0, x, chunk));
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
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn default_pool_resolves_at_least_one_thread() {
        assert!(default_threads() >= 1);
        assert!(Pool::default().threads() >= 1);
        assert_eq!(Pool::new(Some(0)).threads(), 1);
        assert_eq!(Pool::new(Some(3)).threads(), 3);
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
    fn tree_fold_cases() {
        assert_eq!(tree_fold(&mut []), 0.0);
        assert_eq!(tree_fold(&mut [3.5]), 3.5);
        // ((1+2)+(3+4)) + (5): tree order, not left-to-right.
        assert_eq!(tree_fold(&mut [1.0, 2.0, 3.0, 4.0, 5.0]), 15.0);
    }

    #[test]
    fn chunk_plan_covers_the_grid_exactly() {
        for (len, workers) in [
            (1usize, 1usize),
            (REDUCE_CHUNK, 4),
            (REDUCE_CHUNK + 1, 2),
            (LIGHT_SPAWN_MIN + 37, 3),
            (10 * REDUCE_CHUNK + 5, 4),
        ] {
            let plan = ChunkPlan::for_len(len, workers);
            assert_eq!(plan.len(), len);
            assert_eq!(plan.chunks(), len.div_ceil(REDUCE_CHUNK).max(1));
            assert!(plan.workers() <= workers.max(1));
            let mut next = 0usize;
            let mut elems = 0usize;
            for w in 0..plan.workers() {
                let (clo, chi) = plan.chunk_range(w);
                assert_eq!(clo, next, "gap in chunk coverage");
                assert!(chi > clo, "empty worker span");
                next = chi;
                let (lo, hi) = plan.span(w);
                assert_eq!(lo, (clo * REDUCE_CHUNK).min(len));
                assert_eq!(hi, (chi * REDUCE_CHUNK).min(len));
                elems += hi - lo;
            }
            assert_eq!(next, plan.chunks(), "chunks not fully covered");
            assert_eq!(elems, len, "elements not fully covered");
        }
    }

    #[test]
    fn chunk_plan_is_memoised_per_length_and_workers() {
        let a = ChunkPlan::for_len(LIGHT_SPAWN_MIN + 11, 4);
        let b = ChunkPlan::for_len(LIGHT_SPAWN_MIN + 11, 4);
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
        let c = ChunkPlan::for_len(LIGHT_SPAWN_MIN + 12, 4);
        assert!(!Arc::ptr_eq(&a, &c), "different length, different plan");
        assert_eq!(c.len(), LIGHT_SPAWN_MIN + 12);
    }

    #[test]
    #[should_panic(expected = "ChunkPlan for length")]
    fn chunk_plan_rejects_mismatched_length() {
        // The regression the cache invites: a plan computed for length N
        // applied to a slice of length M != N must fail loudly, not
        // silently mis-split.
        let plan = ChunkPlan::for_len(SPAWN_MIN, 2);
        plan.check(SPAWN_MIN + 1);
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
            let par = Pool::new(Some(t)).dot(&x, &y);
            assert_eq!(par.to_bits(), serial.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn sum_and_center_bitwise_identical() {
        let n = LIGHT_SPAWN_MIN + 1234;
        let base = random_vec(n, 3);
        let serial_sum: f64 = vector::sum_kernel_chunked(&base);
        for t in [1usize, 2, 4] {
            let pool = Pool::new(Some(t));
            assert_eq!(pool.sum(&base).to_bits(), serial_sum.to_bits());
            let mut a = base.clone();
            let mut b = base.clone();
            vector::center(&mut a);
            pool.center(&mut b);
            assert_eq!(a, b, "center differs at threads={t}");
        }
    }

    #[test]
    fn axpy_and_scale_match_serial() {
        let n = LIGHT_SPAWN_MIN + 77;
        let x = random_vec(n, 4);
        let base = random_vec(n, 5);
        for t in [1usize, 2, 4] {
            let pool = Pool::new(Some(t));
            let mut a = base.clone();
            let mut b = base.clone();
            vector::axpy(0.37, &x, &mut a);
            pool.axpy(0.37, &x, &mut b);
            assert_eq!(a, b, "axpy differs at threads={t}");
            vector::scale(-1.5, &mut a);
            pool.scale(-1.5, &mut b);
            assert_eq!(a, b, "scale differs at threads={t}");
        }
    }

    #[test]
    fn light_kernels_below_threshold_run_inline_but_match() {
        // Between SPAWN_MIN and LIGHT_SPAWN_MIN the level-1 wrappers run
        // inline (dispatch would cost more than the pass); results are
        // bitwise unchanged and no engagement is recorded.
        let n = SPAWN_MIN + 3 * REDUCE_CHUNK;
        let x = random_vec(n, 21);
        let y = random_vec(n, 22);
        let before = dispatch_counters();
        let par = Pool::new(Some(4)).dot(&x, &y);
        let delta = dispatch_counters().since(&before);
        assert_eq!(delta.scope_entries, 0, "light op engaged below threshold");
        assert_eq!(par.to_bits(), vector::dot(&x, &y).to_bits());
    }

    #[test]
    fn matvec_bitwise_identical_across_thread_counts() {
        let lap = grid_laplacian(180, 120); // 21,600 rows > SPAWN_MIN
        let x = random_vec(lap.rows(), 6);
        let mut serial = vec![0.0; lap.rows()];
        lap.matvec_into(&x, &mut serial);
        for t in [1usize, 2, 4] {
            let mut y = vec![0.0; lap.rows()];
            Pool::new(Some(t)).matvec_into(&lap, &x, &mut y);
            assert_eq!(y, serial, "matvec differs at threads={t}");
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        // Below SPAWN_MIN nothing spawns, but results are still right.
        let x = random_vec(100, 7);
        let y = random_vec(100, 8);
        let pool = Pool::new(Some(8));
        assert_eq!(pool.dot(&x, &y).to_bits(), vector::dot(&x, &y).to_bits());
        assert_eq!(pool.norm2(&x).to_bits(), vector::norm2(&x).to_bits());
    }

    #[test]
    fn dispatch_counters_count_submitted_jobs() {
        // A heavy engagement at 4 threads submits workers - 1 jobs and
        // covers the whole chunk grid exactly once.
        let lap = grid_laplacian(200, 120); // 24,000 rows -> 6 chunks
        let x = random_vec(lap.rows(), 23);
        let mut y = vec![0.0; lap.rows()];
        let before = dispatch_counters();
        Pool::new(Some(4)).matvec_into(&lap, &x, &mut y);
        let d = dispatch_counters().since(&before);
        assert_eq!(d.scope_entries, 1);
        assert_eq!(d.jobs_submitted, 3);
        assert_eq!(d.chunks_executed, lap.rows().div_ceil(REDUCE_CHUNK) as u64);
    }

    /// A toy persistent executor: runs the borrowed jobs on plain std
    /// scoped threads. Exercises the executor dispatch path (boxed jobs,
    /// default caller-merging `run_jobs_with_caller`) without needing
    /// `slpm_serve`.
    struct SpawningExecutor;
    impl ScopeExecutor for SpawningExecutor {
        fn run_jobs(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
            std::thread::scope(|s| {
                for job in jobs {
                    s.spawn(job);
                }
            });
        }
    }

    /// An executor that overrides `run_jobs_with_caller` to genuinely run
    /// the caller span on the calling thread — the `WorkerPool` shape.
    struct CallerParticipatingExecutor;
    impl ScopeExecutor for CallerParticipatingExecutor {
        fn run_jobs(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
            std::thread::scope(|s| {
                for job in jobs {
                    s.spawn(job);
                }
            });
        }
        fn run_jobs_with_caller<'env>(
            &self,
            jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
            caller: Box<dyn FnOnce() + Send + 'env>,
        ) {
            std::thread::scope(|s| {
                for job in jobs {
                    s.spawn(job);
                }
                caller();
            });
        }
    }

    #[test]
    fn executor_backend_is_bitwise_identical_to_scoped() {
        let n = LIGHT_SPAWN_MIN + 3 * REDUCE_CHUNK + 29;
        let x = random_vec(n, 11);
        let y = random_vec(n, 12);
        let executor = SpawningExecutor;
        let participating = CallerParticipatingExecutor;
        let backends: [&dyn ScopeExecutor; 2] = [&executor, &participating];
        for backend in backends {
            for t in [2usize, 4] {
                let scoped = Pool::new(Some(t));
                let pooled = Pool::with_executor(t, backend);
                assert_eq!(pooled.threads(), t);
                assert_eq!(
                    pooled.dot(&x, &y).to_bits(),
                    scoped.dot(&x, &y).to_bits(),
                    "dot differs at threads={t}"
                );
                let mut a = y.clone();
                let mut b = y.clone();
                scoped.axpy(0.73, &x, &mut a);
                pooled.axpy(0.73, &x, &mut b);
                assert_eq!(a, b, "axpy differs at threads={t}");
                scoped.center(&mut a);
                pooled.center(&mut b);
                assert_eq!(a, b, "center differs at threads={t}");
            }
        }
        // Matvec through the executor too.
        let lap = grid_laplacian(170, 130);
        let v = random_vec(lap.rows(), 13);
        let mut serial = vec![0.0; lap.rows()];
        lap.matvec_into(&v, &mut serial);
        for backend in [
            &SpawningExecutor as &dyn ScopeExecutor,
            &CallerParticipatingExecutor,
        ] {
            let mut pooled = vec![0.0; lap.rows()];
            Pool::with_executor(4, backend).matvec_into(&lap, &v, &mut pooled);
            assert_eq!(pooled, serial);
        }
    }

    #[test]
    fn executor_pool_runs_small_inputs_inline() {
        // Below the engagement thresholds the executor is never consulted.
        struct PanickingExecutor;
        impl ScopeExecutor for PanickingExecutor {
            fn run_jobs(&self, _jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
                panic!("executor must not be used for tiny inputs");
            }
        }
        let x = random_vec(64, 14);
        let pool = Pool::with_executor(8, &PanickingExecutor);
        assert_eq!(
            pool.sum(&x).to_bits(),
            vector::sum_kernel_chunked(&x).to_bits()
        );
        // Light ops stay inline all the way up to LIGHT_SPAWN_MIN.
        let y = random_vec(LIGHT_SPAWN_MIN - 1, 15);
        assert_eq!(
            pool.sum(&y).to_bits(),
            vector::sum_kernel_chunked(&y).to_bits()
        );
    }

    #[test]
    fn reduce_chunk_boundaries_depend_on_size_only() {
        // A reduction whose partial records its chunk start: the observed
        // chunk grid must be the same for 1 and 4 threads.
        let n = SPAWN_MIN * 2 + 5;
        let collect = |threads: usize| {
            let starts = Mutex::new(Vec::new());
            Pool::new(Some(threads)).reduce(n, |a, _b| {
                starts.lock().unwrap().push(a);
                0.0
            });
            let mut v = starts.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        assert_eq!(collect(1), collect(4));
    }
}
