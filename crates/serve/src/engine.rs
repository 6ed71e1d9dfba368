//! The batch query executor: plan → route → replay → merge, with
//! concurrent batch admission.
//!
//! [`ServeEngine`] turns the reproduction's artifacts — a
//! [`LinearOrder`], the [`PageMapper`] placing it on pages, a
//! [`PackedRTree`] over the same order, and a fleet of [`Shard`]s — into
//! a concurrent query engine for batches of range and k-nearest-neighbour
//! queries. A batch flows through four phases:
//!
//! 1. **Plan** (at [`ServeEngine::plan_batch`], chunk-parallel on the pool):
//!    each query runs against the packed R-tree on one reused
//!    [`PlanScratch`] per chunk. Range queries
//!    ([`PackedRTree::range_query`]) return their matches in packed
//!    order, so result ranks — and the page ids derived from them — are
//!    monotone; kNN queries run best-first branch-and-bound
//!    ([`PackedRTree::knn_best_first`]).
//! 2. **Route** (with planning): result ids become per-query page lists
//!    and per-shard slices — a pure pass of integer divisions over the
//!    order's borrowed ranks and the [`ShardMap`].
//! 3. **Replay** (pooled, admission-queued): each shard owns a FIFO work
//!    queue. A submitted batch enqueues its work units, one per (query,
//!    shard) slice, on each shard it touches; at most one runner per
//!    shard drains its queue on the [`WorkerPool`], taking all of the
//!    front batch's units at once. It first resolves each unit's
//!    admission-time fault verdict, then serves the units that survive
//!    as **one ascending page sweep** ([`Shard::replay`]): every page the
//!    units need is visited once, in page order, and serves each of them
//!    while the sweep is on it; each maximal run of consecutive pages the
//!    LRU pool lacks (capped at `min(1 + readahead, buffer_pages)`) is one
//!    positional read. So a batch reads each page it needs at most once,
//!    and mostly in runs.
//! 4. **Merge** (at [`BatchHandle::wait`], and over every handle of
//!    [`ServeEngine::run_inflight`] or a stream): one fold drains the
//!    handles in submission order, concatenates their outcomes, sums
//!    per-shard aggregates into the merged report, shifts coverage and
//!    failure indices to positions in the concatenation, and folds the
//!    digest once over it.
//!
//! **Admission.** [`ServeEngine::submit_planned`] is the one enqueue: it
//! admits a planned batch, under a per-shard queue-depth bound when the
//! batch carries one ([`PlannedBatch::bounded`]), and returns a
//! [`BatchHandle`] without waiting for replay, so any number of batches
//! can be in flight at once. [`ServeEngine::run`] is plan-submit-wait,
//! and [`ServeEngine::run_inflight`] splits one workload into several
//! concurrently admitted batches and merges them. A runner records each
//! unit it replays, served, degraded or panicked, with one call under
//! the batch's progress lock.
//!
//! **Determinism.** Planning and routing are pure per-query functions,
//! and a batch's units on each shard are fixed at admission, so result
//! sets, page counts, run counts and the digest are bitwise identical for
//! every shard count, thread count, kNN planner and in-flight batch count
//! ([`digest_outcomes`] is invariant under batch splitting). With one
//! batch in flight at a time, hit/miss/prefetch counters repeat exactly
//! at any thread count: a sweep depends only on the batch's page lists
//! and the pool it finds. Buffer statistics are the one
//! scheduling-dependent quantity under *concurrent* admission: the order
//! in which a shard's runner takes in-flight batches changes which batch
//! finds a page warm, while totals per shard still add up — exactly as in
//! any shared-cache server.
//!
//! **Failure and recovery.** Shards break; the engine keeps answering.
//! An installed [`FaultPlan`] ([`ServeEngine::inject_faults`]) is
//! resolved *at admission* — each unit's fault stamp is a pure function
//! of its shard's admitted-unit sequence — and manifested *at the replay
//! seam*, unit by unit, before the sweep: failing attempts pay a bounded
//! retry/backoff loop on the simulated clock (see [`RecoveryConfig`]),
//! injected panics genuinely unwind through a `catch_unwind`. Units no
//! retry budget can save, and units that need a page the sweep cannot
//! read, **degrade** instead of failing the batch: [`BatchHandle::wait`]
//! returns `Ok` with per-query coverage accounting
//! ([`BatchReport::coverage`]) naming exactly which rank-ranges were
//! served from a broken slice. Per-shard circuit breakers
//! ([`crate::health::ShardBreaker`]) trip on consecutive doomed units;
//! a trip requests **failover**: at the next admission boundary the
//! tripped shard's rank-range is rebuilt on a fresh slice and published
//! under an atomic epoch swap ([`crate::shard::ShardSet`]) — in-flight
//! batches drain on their admission-time epoch while new admissions
//! route to the rebuilt slice. A rebuild that cannot reopen the page file
//! keeps the current slice, is counted
//! ([`BreakerSnapshot::failed_rebuilds`]) and is tried again at the next
//! admission. Panics *outside* the fault plan (routing
//! bugs, poisoned locks) fail every unit of their sweep and surface as a
//! typed [`ServeError::ReplayPanicked`] naming each failed unit's query
//! and shard, and the affected slice is likewise rebuilt at the next
//! admission — one poisoned lock no longer wedges the engine forever.

use crate::fault::{FaultPlan, FaultState, ServeError, UnitFailure, UnitFault};
use crate::health::{
    BreakerSnapshot, RecoveryConfig, ShardBreaker, UnitDirective, UnitDisposition,
};
use crate::shard::{Partition, ReadPath, Shard, ShardMap, ShardSet};
use crossbeam::sync::{is_model_abort, Arc, Condvar, Mutex};
use slpm_linalg::WorkerPool;
use slpm_storage::{
    BufferStats, IoCost, IoModel, Mbr, PackedRTree, PageLayout, PageMapper, PlanScratch, QueryCost,
    StorageError,
};
use spectral_lpm::LinearOrder;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// One query of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// All points inside an axis-aligned box (inclusive).
    Range(Mbr),
    /// The `k` nearest points to `center` under the Chebyshev (L∞)
    /// metric, ties broken by point id.
    Knn {
        /// Query point.
        center: Vec<i64>,
        /// Number of neighbours.
        k: usize,
    },
}

/// Engine geometry and scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Records per page (page size in records).
    pub records_per_page: usize,
    /// Bytes per record payload.
    pub record_size: usize,
    /// R-tree leaf fanout (defaults to one leaf per page).
    pub fanout: usize,
    /// Number of shards the pages are partitioned over.
    pub shards: usize,
    /// Worker threads; `1` executes every phase inline (serial baseline).
    pub threads: usize,
    /// Page → shard placement policy.
    pub partition: Partition,
    /// Frames per shard's buffer pool.
    pub buffer_pages: usize,
    /// Readahead: how many pages may follow a run's first page in one
    /// read (`0` = every page its own read). With a locality-preserving
    /// order a batch's missing pages on a shard form long runs of
    /// consecutive ids, so one seek fetches up to
    /// `min(1 + readahead, buffer_pages)` of them.
    pub readahead: usize,
    /// Seek/transfer model for the per-query I/O cost estimate.
    pub io: IoModel,
    /// Retry/timeout/breaker knobs for the fault plane.
    pub recovery: RecoveryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            records_per_page: 64,
            record_size: 64,
            fanout: 64,
            shards: 1,
            threads: 1,
            partition: Partition::Contiguous,
            buffer_pages: 64,
            readahead: 0,
            io: IoModel::default(),
            recovery: RecoveryConfig::default(),
        }
    }
}

/// Outcome of one query of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Matching point ids — ranges in linear-order (rank) sequence, kNN
    /// by ascending (Chebyshev distance, id).
    pub results: Vec<usize>,
    /// Distinct pages the query touched.
    pub pages: usize,
    /// Maximal runs of consecutive page ids (sequential reads).
    pub runs: usize,
    /// Pages served from some shard's buffer pool.
    pub hits: usize,
    /// Pages read from backing storage.
    pub misses: usize,
    /// Seek/transfer cost estimate for this query.
    pub io: IoCost,
    /// R-tree node accounting (best-first kNN visits each node at most
    /// once).
    pub tree: QueryCost,
    /// Latency in seconds: from the start of its batch's planning until
    /// the query's last shard unit replayed (`0.0` for queries that touch
    /// no pages). Scheduling-dependent — never part of the digest.
    pub seconds: f64,
    /// Simulated fault penalty (µs): injected stalls, timeouts and retry
    /// backoff accrued by this query's units. Deterministic for a fixed
    /// fault plan; `0.0` when nothing was injected.
    pub fault_us: f64,
    /// Pages of this query that were *not* served by a healthy slice
    /// (degraded units). `0` means the query is fault-free; the detailed
    /// rank-ranges live in [`BatchReport::coverage`].
    pub degraded_pages: usize,
}

/// Per-shard aggregates over one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardReport {
    /// Shard id.
    pub shard: usize,
    /// Queries that touched this shard.
    pub queries: usize,
    /// Page requests routed here (hits + misses).
    pub pages_routed: usize,
    /// Sequential runs within this shard's slices.
    pub runs: usize,
    /// Buffer accounting attributable to this batch.
    pub buffer: BufferStats,
}

impl ShardReport {
    fn idle(shard: usize) -> Self {
        ShardReport {
            shard,
            queries: 0,
            pages_routed: 0,
            runs: 0,
            buffer: BufferStats::default(),
        }
    }
}

/// One replay unit that a healthy slice did not serve: the coverage
/// accounting names exactly what was lost — which query, which shard,
/// and which rank-ranges of the linear order went unserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedUnit {
    /// Query index within the batch (submission order).
    pub query: usize,
    /// Shard the unit was routed to.
    pub shard: usize,
    /// Routed pages the unit covered.
    pub pages: usize,
    /// The unserved rank-ranges, as half-open `[lo, hi)` intervals of
    /// the linear order, ascending and maximally merged.
    pub rank_ranges: Vec<(usize, usize)>,
}

impl fmt::Display for DegradedUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query {} on shard {}: {} page(s), ranks",
            self.query, self.shard, self.pages
        )?;
        for (i, &(lo, hi)) in self.rank_ranges.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}[{lo}, {hi})")?;
        }
        Ok(())
    }
}

/// Per-query coverage accounting of one batch: which queries were fully
/// served and which rank-ranges were degraded. Deterministic for a fixed
/// fault plan — degraded units are decided on the admission clock, never
/// by runner scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries every unit of which was served by a healthy slice.
    pub fault_free: usize,
    /// The degraded units, ascending by `(query, shard)`.
    pub degraded_units: Vec<DegradedUnit>,
}

impl CoverageReport {
    /// Assemble from degraded units already sorted by `(query, shard)`.
    pub(crate) fn new(queries: usize, degraded_units: Vec<DegradedUnit>) -> Self {
        let mut seen = degraded_units.iter().map(|u| u.query).collect::<Vec<_>>();
        seen.dedup();
        CoverageReport {
            queries,
            fault_free: queries - seen.len(),
            degraded_units,
        }
    }

    /// Queries with at least one degraded unit.
    pub fn degraded_queries(&self) -> usize {
        self.queries - self.fault_free
    }

    /// True when every query was fully served.
    pub fn is_clean(&self) -> bool {
        self.degraded_units.is_empty()
    }
}

/// The merged result of one batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-shard aggregates (every shard, including idle ones).
    pub shards: Vec<ShardReport>,
    /// Wall-clock seconds from the start of planning through merge, on
    /// every path ([`ServeEngine::run`], [`ServeEngine::run_inflight`],
    /// a stream).
    pub elapsed_seconds: f64,
    /// Order-sensitive FNV-1a digest of (query position, result ids, page
    /// count, run count) — see [`digest_outcomes`]; bitwise identical
    /// across shard counts, thread counts, planners and batch splits.
    pub digest: u64,
    /// Which rank-ranges were served vs degraded, per query.
    pub coverage: CoverageReport,
}

impl BatchReport {
    /// Total matching points across the batch.
    pub fn total_results(&self) -> usize {
        self.outcomes.iter().map(|o| o.results.len()).sum()
    }

    /// Total distinct-page touches across the batch.
    pub fn total_pages(&self) -> usize {
        self.outcomes.iter().map(|o| o.pages).sum()
    }

    /// Pages read from backing storage (buffer misses).
    pub fn total_misses(&self) -> usize {
        self.outcomes.iter().map(|o| o.misses).sum()
    }

    /// Fleet-wide buffer statistics (per-shard pools merged).
    pub fn buffer_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in &self.shards {
            total.merge(&s.buffer);
        }
        total
    }

    /// Batch throughput in queries per second.
    pub fn queries_per_second(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.outcomes.len() as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// The nearest-rank `q`-quantile (0 ≤ q ≤ 1) of per-query page
    /// counts (see [`LatencySummary`]; `0` on an empty batch).
    pub fn page_quantile(&self, q: f64) -> usize {
        let pages = self.outcomes.iter().map(|o| o.pages as f64).collect();
        LatencySummary::new(pages).quantile(q) as usize
    }

    /// The batch's per-query admission-to-completion latencies (seconds)
    /// as a [`LatencySummary`] — sorted once; every quantile after that
    /// is an O(1) lookup.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::new(self.outcomes.iter().map(|o| o.seconds).collect())
    }

    /// Shard-balance skew: max/mean of per-shard routed pages — `1.0` is
    /// a perfectly balanced fleet, `S` means one shard absorbed
    /// everything. `0.0` when the batch routed no pages at all. The
    /// diagnostic that shows where contiguous partitioning needs
    /// splitting under hot-spot (Zipf) traffic.
    pub fn shard_balance(&self) -> f64 {
        let total: usize = self.shards.iter().map(|s| s.pages_routed).sum();
        if total == 0 || self.shards.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        let max = self
            .shards
            .iter()
            .map(|s| s.pages_routed)
            .max()
            .unwrap_or(0) as f64;
        max / mean
    }

    /// The **degraded digest**: [`BatchReport::digest`] folded with the
    /// coverage accounting (each degraded unit's query, shard, page
    /// count and rank-ranges, in the deterministic `(query, shard)`
    /// order). Equal to the plain digest on a fault-free run;
    /// deterministic for a fixed fault plan — the proptest and chaos-gate
    /// invariant.
    pub fn degraded_digest(&self) -> u64 {
        let mut digest = self.digest;
        for unit in &self.coverage.degraded_units {
            fnv1a64(&mut digest, unit.query as u64);
            fnv1a64(&mut digest, unit.shard as u64);
            fnv1a64(&mut digest, unit.pages as u64);
            for &(lo, hi) in &unit.rank_ranges {
                fnv1a64(&mut digest, lo as u64);
                fnv1a64(&mut digest, hi as u64);
            }
        }
        digest
    }
}

/// A latency sample sorted once at construction, with nearest-rank
/// quantiles — the crate's one quantile rule. Unit-agnostic: the batch
/// engine feeds it seconds and page counts, the streaming layer simulated
/// microseconds.
///
/// **Method.** The `q`-quantile is *nearest-rank*: the `⌈q·n⌉`-th
/// smallest sample value (1-based), i.e. the smallest observation with
/// at least a `q` fraction of the sample at or below it. Every quantile
/// is an actual observation — never an interpolation — so a reported
/// p999 is a latency some query really experienced.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    sorted: Vec<f64>,
}

impl LatencySummary {
    /// Build from an unordered sample. Sorts once (total order over
    /// floats, NaN-safe); all quantile reads afterwards are O(1).
    pub fn new(mut sample: Vec<f64>) -> Self {
        sample.sort_by(f64::total_cmp);
        LatencySummary { sorted: sample }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile (`q` clamped to `[0, 1]`); `0.0` on
    /// an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)]
    }

    /// The SLO trio in one call: `(p50, p99, p999)`.
    pub fn p50_p99_p999(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }

    /// Samples strictly above `target`, as `(count, fraction)`;
    /// `(0, 0.0)` on an empty sample.
    pub fn violations(&self, target: f64) -> (usize, f64) {
        if self.sorted.is_empty() {
            return (0, 0.0);
        }
        let over = self.sorted.len() - self.sorted.partition_point(|&v| v <= target);
        (over, over as f64 / self.sorted.len() as f64)
    }

    /// The largest sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// FNV-1a over a word stream.
fn fnv1a64(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(0x100_0000_01b3);
}

/// The batch digest: an order-sensitive FNV-1a fold of every outcome's
/// (position, result count, result ids, page count, run count).
///
/// Defined over a *sequence* of outcomes rather than a batch, so the
/// digest of one N-query batch equals the digest of the concatenated
/// outcomes of the same N queries split across any number of in-flight
/// batches — the invariant the `{1,4}` in-flight parity gate checks.
/// Scheduling-dependent fields (hits, misses, latency) never enter.
pub fn digest_outcomes<'a, I>(outcomes: I) -> u64
where
    I: IntoIterator<Item = &'a QueryOutcome>,
{
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (qidx, outcome) in outcomes.into_iter().enumerate() {
        fnv1a64(&mut digest, qidx as u64);
        fnv1a64(&mut digest, outcome.results.len() as u64);
        for &id in &outcome.results {
            fnv1a64(&mut digest, id as u64);
        }
        fnv1a64(&mut digest, outcome.pages as u64);
        fnv1a64(&mut digest, outcome.runs as u64);
    }
    digest
}

/// Merge an ascending page list into half-open `[lo, hi)` rank ranges
/// (`records_per_page` ranks per page, the tail clamped to `records`).
fn rank_ranges(pages: &[usize], records_per_page: usize, records: usize) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for &page in pages {
        let lo = page * records_per_page;
        let hi = ((page + 1) * records_per_page).min(records);
        match out.last_mut() {
            Some(last) if last.1 == lo => last.1 = hi,
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// A planned query: its result ids plus tree accounting.
struct Plan {
    results: Vec<usize>,
    /// Ranges: results are already in rank order; kNN results are in
    /// (distance, id) order and need a sort on the page side.
    rank_ordered: bool,
    tree: QueryCost,
}

/// One query's page list routed to one shard.
struct ShardSlice {
    shard: usize,
    /// Routed page ids; admission moves this list into the
    /// shard's replay [`Unit`] (no second copy lives for the in-flight
    /// window), leaving `page_count` behind for the merge accounting.
    pages: Vec<usize>,
    page_count: usize,
    runs: usize,
}

/// A routed query: global page profile plus per-shard slices.
struct Route {
    pages: usize,
    runs: usize,
    slices: Vec<ShardSlice>,
}

/// One (query, shard) replay unit of a batch, carrying its
/// admission-time fault/breaker verdict to the replay seam.
struct Unit {
    qidx: usize,
    pages: Vec<usize>,
    directive: UnitDirective,
}

/// A batch's units on one shard, in query order. Pins the epoch the
/// batch was admitted against: the runner replays these units on
/// `slices`, so a failover swap never moves in-flight work.
struct BatchWork {
    state: Arc<BatchState>,
    units: Vec<Unit>,
    slices: Arc<ShardSet>,
}

/// One shard's admission queue: in-flight batches, each with its units,
/// the is-a-runner-scheduled flag, and the queued-unit count that
/// bounded admission gates on.
#[derive(Default)]
struct ShardQueue {
    batches: VecDeque<BatchWork>,
    running: bool,
    /// Replay units currently enqueued (not yet taken by the runner) —
    /// the depth a [`PlannedBatch::bounded`] admission compares against
    /// its bound, and what [`ServeEngine::queue_depths`] snapshots.
    pending_units: usize,
}

/// A shard's queue paired with the condvar bounded submitters sleep on
/// until the runner drains the queue below their depth bound.
#[derive(Default)]
struct ShardGate {
    queue: Mutex<ShardQueue>,
    space: Condvar,
}

impl ShardGate {
    fn default_vec(shards: usize) -> Vec<ShardGate> {
        (0..shards).map(|_| ShardGate::default()).collect()
    }
}

/// Fleet health under one lock: per-shard breakers plus the fault
/// plan's deterministic cursors. Taken once per admission (to stamp the
/// batch's units in admission order) and briefly by runners reporting
/// un-modeled panics.
struct FleetHealth {
    breakers: Vec<ShardBreaker>,
    faults: Option<FaultState>,
}

impl FleetHealth {
    /// Stamp the next admitted unit on `shard`: resolve its fault from
    /// the plan's cursors, feed the verdict through the breaker, and
    /// return what the replay seam should do.
    fn stamp_unit(&mut self, shard: usize, pages: &[usize], rec: &RecoveryConfig) -> UnitDirective {
        let incarnation = self.breakers[shard].incarnation();
        let fault = match self.faults.as_mut() {
            Some(state) => state.stamp(shard, incarnation, pages),
            None => UnitFault::NONE,
        };
        let doomed = fault.will_degrade(rec.timeout_us, rec.max_attempts);
        match self.breakers[shard].on_unit(doomed, rec) {
            UnitDisposition::FastFail => UnitDirective::FastFail,
            UnitDisposition::Execute if fault.is_none() => UnitDirective::Serve,
            UnitDisposition::Execute => UnitDirective::Faulted(fault),
        }
    }
}

/// State shared between the engine, its shard runners and outstanding
/// batch handles (everything the pool's `'static` jobs need).
struct EngineShared {
    /// The current epoch's slices; swapped atomically at admission
    /// boundaries when a rebuild is pending.
    slices: Mutex<Arc<ShardSet>>,
    queues: Vec<ShardGate>,
    fleet: Mutex<FleetHealth>,
    recovery: RecoveryConfig,
}

/// One query's replay progress within its batch.
#[derive(Default)]
struct QueryProgress {
    /// Units not yet replayed; the query completes when this hits 0.
    units_left: usize,
    hits: usize,
    misses: usize,
    /// Completion latency (seconds since planning began).
    latency: f64,
    /// Simulated fault penalty (stalls, timeouts, backoff).
    fault_us: f64,
    /// Pages not served by a healthy slice.
    degraded_pages: usize,
}

/// Mutable replay progress of one in-flight batch.
#[derive(Default)]
struct BatchProgress {
    /// Units not yet replayed (0 = batch complete).
    pending_units: usize,
    queries: Vec<QueryProgress>,
    /// Per-shard buffer-stat deltas attributable to this batch.
    shard_buffers: Vec<BufferStats>,
    /// Degraded units with their lost rank-ranges (coverage accounting).
    degraded: Vec<DegradedUnit>,
    /// Units whose replay panicked *outside* the fault plan; surfaced as
    /// [`ServeError::ReplayPanicked`] at the waiter (never a hang).
    panicked: Vec<UnitFailure>,
}

/// Completion tracking for one submitted batch.
struct BatchState {
    started: Instant,
    /// Page geometry that turns a degraded unit's pages into rank-ranges.
    records_per_page: usize,
    records: usize,
    progress: Mutex<BatchProgress>,
    done: Condvar,
}

impl BatchState {
    /// A batch whose query `q` replays `units_per_query[q]` units on
    /// `shards` shards, over an order of `records` records paged
    /// `records_per_page` to a page.
    fn new(
        started: Instant,
        units_per_query: impl Iterator<Item = usize>,
        shards: usize,
        records_per_page: usize,
        records: usize,
    ) -> Self {
        let queries: Vec<QueryProgress> = units_per_query
            .map(|units_left| QueryProgress {
                units_left,
                ..Default::default()
            })
            .collect();
        BatchState {
            started,
            records_per_page,
            records,
            progress: Mutex::new(BatchProgress {
                pending_units: queries.iter().map(|q| q.units_left).sum(),
                queries,
                shard_buffers: vec![BufferStats::default(); shards],
                ..Default::default()
            }),
            done: Condvar::new(),
        }
    }

    /// Fold one replayed unit into the batch's progress under one lock
    /// and retire it; wakes waiters when the last unit lands. A served
    /// unit adds its share of the sweep's buffer accounting; a degraded
    /// one (retries exhausted, a storage error, or fast-failed by an open
    /// breaker) records the rank-ranges its pages covered, so the
    /// coverage report can name the loss; a panicked one records which
    /// (query, shard) failed, so [`BatchHandle::wait`] surfaces an error
    /// instead of hanging the batch.
    fn record(&self, shard: usize, unit: &Unit, result: UnitResult) {
        let qidx = unit.qidx;
        let mut progress = self.progress.lock().expect("batch progress lock");
        let progress = &mut *progress;
        let query = &mut progress.queries[qidx];
        match result {
            UnitResult::Served { stats, penalty_us } => {
                query.hits += stats.hits;
                query.misses += stats.misses;
                query.fault_us += penalty_us;
                progress.shard_buffers[shard].merge(&stats);
            }
            UnitResult::Degraded { penalty_us } => {
                query.fault_us += penalty_us;
                query.degraded_pages += unit.pages.len();
                progress.degraded.push(DegradedUnit {
                    query: qidx,
                    shard,
                    pages: unit.pages.len(),
                    rank_ranges: rank_ranges(&unit.pages, self.records_per_page, self.records),
                });
            }
            UnitResult::Panicked => progress.panicked.push(UnitFailure { query: qidx, shard }),
        }
        query.units_left -= 1;
        if query.units_left == 0 {
            query.latency = self.started.elapsed().as_secs_f64();
        }
        progress.pending_units -= 1;
        if progress.pending_units == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every unit has been recorded, then take the progress.
    fn finished(&self) -> BatchProgress {
        let mut progress = self.progress.lock().expect("batch progress lock");
        while progress.pending_units > 0 {
            progress = self.done.wait(progress).expect("batch progress lock");
        }
        std::mem::take(&mut *progress)
    }
}

/// What one replay unit resolved to.
enum UnitResult {
    /// Served by its shard's sweep: its share of the pool's counters.
    Served {
        stats: BufferStats,
        penalty_us: f64,
    },
    Degraded {
        penalty_us: f64,
    },
    /// Un-modeled panic (routing bug, poisoned lock, …).
    Panicked,
}

/// Manifest one unit's admission-time directive before its shard's
/// sweep: injected stalls and failures pay their simulated penalty
/// through a bounded retry/backoff loop, injected panics really unwind
/// (and are caught), and fast-fails skip the shard entirely. Returns
/// `Ok(penalty)` for a unit the sweep goes on to serve and `Err(penalty)`
/// for one that degrades here.
fn resolve_unit(
    shared: &EngineShared,
    set: &ShardSet,
    shard_id: usize,
    directive: &UnitDirective,
) -> Result<f64, f64> {
    let fault = match directive {
        // Open breaker: don't touch the shard at all. The unit pays
        // nothing — the failure was already paid for by the units that
        // tripped the breaker.
        UnitDirective::FastFail => return Err(0.0),
        UnitDirective::Serve => return Ok(0.0),
        UnitDirective::Faulted(fault) => *fault,
    };
    let rec = &shared.recovery;
    let fail_attempts = fault.effective_fail_attempts(rec.timeout_us);
    let mut penalty_us = 0.0;
    // Bounded retry with backoff: each failed attempt pays the stall (or
    // the timeout, whichever cuts it short) plus backoff before the next
    // try. Never an unbounded loop around a faultable call.
    for attempt in 0..rec.max_attempts.max(1) {
        if attempt >= fail_attempts {
            // This attempt succeeds (after paying any sub-timeout stall).
            return Ok(penalty_us + fault.stall_us.min(rec.timeout_us));
        }
        if fault.panics {
            // Injected panics really unwind (and are caught right here),
            // exercising the exact seam un-modeled panics travel;
            // `resume_unwind` skips the global panic hook so faulted runs
            // stay quiet on stderr.
            let unwound = std::panic::catch_unwind(|| {
                std::panic::resume_unwind(Box::new("injected replay-unit panic"))
            });
            debug_assert!(unwound.is_err());
        }
        if fault.fail_page != usize::MAX {
            // A `pagerr` stamp travels the *real* read path: arm the
            // shard's store and fault the page — the failure this attempt
            // pays for is a genuine typed `StorageError` coming back off
            // the storage tier, identically on memory- and disk-backed
            // slices.
            if let Ok(shard) = set.shard(shard_id).lock() {
                shard.store().arm_read_error(fault.fail_page);
                let read = shard.store().read_page(fault.fail_page, None);
                debug_assert!(
                    matches!(read, Err(StorageError::Injected { .. })),
                    "armed page read must fail"
                );
            }
        }
        let last = attempt + 1 >= rec.max_attempts.max(1);
        penalty_us += rec.failed_attempt_us(fault.stall_us, attempt, last);
    }
    Err(penalty_us)
}

/// Replay one batch's units on a shard, against the batch's pinned
/// epoch: resolve every unit's directive in query order, then serve the
/// units that survive with **one** [`Shard::replay`] sweep. A unit whose
/// page the sweep cannot read degrades; an un-modeled panic in the sweep
/// (a routing bug, a poisoned lock) fails every unit of it.
fn replay_batch(
    shared: &EngineShared,
    set: &ShardSet,
    shard_id: usize,
    units: &[Unit],
) -> Vec<UnitResult> {
    let resolved: Vec<Result<f64, f64>> = units
        .iter()
        .map(|unit| resolve_unit(shared, set, shard_id, &unit.directive))
        .collect();
    let serving: Vec<&[usize]> = units
        .iter()
        .zip(&resolved)
        .filter(|(_, r)| r.is_ok())
        .map(|(unit, _)| &unit.pages[..])
        .collect();
    let swept = if serving.is_empty() {
        Ok(Vec::new())
    } else {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut shard = set.shard(shard_id).lock().expect("shard lock");
            shard.replay(&serving)
        }))
    };
    let mut swept = match swept {
        Ok(replays) => Some(replays.into_iter()),
        // The model checker's teardown signal is not a replay bug.
        Err(payload) if is_model_abort(&*payload) => std::panic::resume_unwind(payload),
        Err(_) => None,
    };
    resolved
        .into_iter()
        .map(|resolved| match (resolved, swept.as_mut()) {
            (Err(penalty_us), _) => UnitResult::Degraded { penalty_us },
            (Ok(_), None) => UnitResult::Panicked,
            (Ok(penalty_us), Some(replays)) => match replays.next().expect("one per served unit") {
                Ok(stats) => UnitResult::Served { stats, penalty_us },
                // A genuine storage failure — corruption, truncation, a
                // device error: no retry budget fixes bad bytes, so the
                // unit degrades (coverage names its rank-ranges) instead
                // of failing the batch.
                Err(_) => UnitResult::Degraded { penalty_us },
            },
        })
        .collect()
}

/// Drain one shard's queue: repeatedly take the front batch's units on
/// this shard, all at once, and replay them as one sweep (batches take
/// turns in admission order). Exactly one runner is active per shard (the
/// `running` flag), which is what keeps each shard's pool seeing batches
/// in the order admission gave them.
fn run_shard_queue(shared: &EngineShared, shard_id: usize) {
    // xtask:allow(unbounded-retry): queue-drain loop, not a retry loop —
    // each iteration consumes one queued batch and the loop exits when
    // the queue is empty; the faultable calls inside are bounded by
    // `resolve_unit`'s attempt budget.
    loop {
        let work = {
            let gate = &shared.queues[shard_id];
            let mut queue = gate.queue.lock().expect("shard queue lock");
            let Some(work) = queue.batches.pop_front() else {
                // Queue drained; clear the flag under the same lock a
                // submitter checks it, so no work is ever stranded.
                queue.running = false;
                return;
            };
            // Taking the units frees their slots of the shard's bounded
            // depth; wake any submitter blocked on space (under the same
            // lock, so the wakeup can't be lost).
            queue.pending_units -= work.units.len();
            gate.space.notify_all();
            work
        };
        let results = replay_batch(shared, &work.slices, shard_id, &work.units);
        if results.iter().any(|r| matches!(r, UnitResult::Panicked)) {
            // An un-modeled panic (routing bug, poisoned shard lock, …)
            // must not kill the runner silently: on the pool that would
            // strand the batch (waiters hang forever) and wedge the shard
            // behind a `running` flag nobody clears. Mark the shard for a
            // rebuild so the fleet self-heals at the next admission
            // boundary; the records below name the failed units, which
            // the waiter surfaces as a [`ServeError`].
            shared.fleet.lock().expect("fleet health lock").breakers[shard_id]
                .note_unexpected_panic();
        }
        for (unit, result) in work.units.iter().zip(results) {
            work.state.record(shard_id, unit, result);
        }
    }
}

/// A planned-and-routed batch that has **not** been admitted yet — the
/// seam streaming admission control builds on. [`ServeEngine::plan_batch`]
/// produces one; [`PlannedBatch::shard_loads`] exposes where each query's
/// pages would land (so a policy can decide to shed or block *before* any
/// work is enqueued); [`PlannedBatch::select`] drops shed queries;
/// [`PlannedBatch::bounded`] sets a per-shard depth bound; and
/// [`ServeEngine::submit_planned`] admits whatever remains. Plans are
/// never recomputed along the way.
pub struct PlannedBatch {
    plans: Vec<Plan>,
    routes: Vec<Route>,
    /// The per-shard queue depth admission waits below (`None`: admit
    /// at once).
    depth: Option<usize>,
    /// When planning began: the batch's latency and elapsed clocks start
    /// here, as [`ServeEngine::run_inflight`]'s and a stream's do.
    started: Instant,
}

impl PlannedBatch {
    /// Number of planned queries.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no queries remain.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The shards query `qidx` routes to, as `(shard, pages, runs)`
    /// triples in ascending shard order — the loads an admission policy
    /// charges against its per-shard depth bound.
    pub fn shard_loads(&self, qidx: usize) -> Vec<(usize, usize, usize)> {
        self.routes[qidx]
            .slices
            .iter()
            .map(|s| (s.shard, s.pages.len(), s.runs))
            .collect()
    }

    /// Keep only the queries whose `keep[qidx]` flag is set (shed the
    /// rest); survivors renumber densely in their original order, so the
    /// admitted batch's digest equals a one-shot run of exactly the
    /// admitted query sequence. A depth bound and the planning clock are
    /// kept.
    ///
    /// # Panics
    /// Panics when `keep.len()` differs from [`PlannedBatch::len`].
    pub fn select(self, keep: &[bool]) -> PlannedBatch {
        assert_eq!(keep.len(), self.plans.len(), "one keep flag per query");
        let (plans, routes) = self
            .plans
            .into_iter()
            .zip(self.routes)
            .zip(keep)
            .filter_map(|((p, r), &k)| k.then_some((p, r)))
            .unzip();
        PlannedBatch {
            plans,
            routes,
            ..self
        }
    }

    /// Admit this batch under a per-shard depth bound: before enqueuing a
    /// shard's units, [`ServeEngine::submit_planned`] blocks until that
    /// shard's queued unit count has drained below `depth` (clamped to
    /// ≥ 1) — real backpressure, not accounting. The bound is checked at
    /// admission time, so one batch's own units may overshoot it; what it
    /// guarantees is that an unbounded stream of submitters cannot grow
    /// any queue without limit.
    ///
    /// Deadlock-free by construction: a blocked submitter holds no other
    /// shard's lock while waiting (shards are gated one at a time, in
    /// ascending id order), and runners never wait — every queued unit
    /// eventually drains and signals `space`. On a serial engine
    /// (`threads == 1`) queues are always empty between submissions, so
    /// the bound never blocks.
    pub fn bounded(self, depth: usize) -> PlannedBatch {
        PlannedBatch {
            depth: Some(depth.max(1)),
            ..self
        }
    }
}

/// A submitted batch: resolves to its [`BatchReport`] via
/// [`BatchHandle::wait`]. Owns the batch's plans and routes, so it
/// borrows nothing from the engine and any number of handles can be in
/// flight while further batches are submitted.
pub struct BatchHandle {
    state: Arc<BatchState>,
    plans: Vec<Plan>,
    routes: Vec<Route>,
    io: IoModel,
    shards: usize,
}

impl BatchHandle {
    /// Block until the batch completes, then merge per-query outcomes (in
    /// submission order), per-shard aggregates, the coverage report and
    /// the digest.
    ///
    /// # Errors
    /// [`ServeError::ReplayPanicked`] when any replay unit panicked
    /// *outside* the fault plan (a real bug, not an injected failure) —
    /// naming every failed (query, shard). Injected failures never error:
    /// they degrade, and the coverage report names what was lost.
    pub fn wait(self) -> Result<BatchReport, ServeError> {
        let (shards, started) = (self.shards, self.state.started);
        merge([self], shards, started)
    }
}

/// Drain `handles` in submission order and fold them into one report:
/// outcomes concatenate, per-shard aggregates sum straight into the
/// merged report, and coverage and failure indices shift from each
/// batch's own numbering to positions in the concatenation. The digest is
/// folded once, over the concatenation — by [`digest_outcomes`]'s
/// split-invariance it equals a one-shot run of the same query sequence.
/// Every handle is drained before an error is returned, so no work is
/// left in flight.
pub(crate) fn merge(
    handles: impl IntoIterator<Item = BatchHandle>,
    shards: usize,
    started: Instant,
) -> Result<BatchReport, ServeError> {
    let mut shard_reports: Vec<ShardReport> = (0..shards).map(ShardReport::idle).collect();
    let (mut outcomes, mut degraded, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for handle in handles {
        let BatchHandle {
            state,
            plans,
            routes,
            io,
            ..
        } = handle;
        let base = outcomes.len();
        let progress = state.finished();
        let offset = |f: UnitFailure| UnitFailure {
            query: base + f.query,
            ..f
        };
        failures.extend(progress.panicked.into_iter().map(offset));
        degraded.extend(progress.degraded.into_iter().map(|d| DegradedUnit {
            query: base + d.query,
            ..d
        }));
        for (report, buffer) in shard_reports.iter_mut().zip(&progress.shard_buffers) {
            report.buffer.merge(buffer);
        }
        outcomes.reserve(plans.len());
        for ((plan, route), query) in plans.into_iter().zip(routes).zip(progress.queries) {
            for slice in &route.slices {
                let report = &mut shard_reports[slice.shard];
                report.queries += 1;
                report.pages_routed += slice.page_count;
                report.runs += slice.runs;
            }
            outcomes.push(QueryOutcome {
                results: plan.results,
                pages: route.pages,
                runs: route.runs,
                hits: query.hits,
                misses: query.misses,
                io: IoCost {
                    pages: route.pages,
                    runs: route.runs,
                    total: route.runs as f64 * io.seek_cost + route.pages as f64 * io.transfer_cost,
                },
                tree: plan.tree,
                seconds: query.latency,
                fault_us: query.fault_us,
                degraded_pages: query.degraded_pages,
            });
        }
    }
    if !failures.is_empty() {
        failures.sort_unstable();
        return Err(ServeError::ReplayPanicked { failures });
    }
    // Replay order is scheduling-dependent; the report is not: sort
    // coverage into (query, shard) order so degraded digests are
    // schedule-invariant.
    degraded.sort_unstable_by_key(|d: &DegradedUnit| (d.query, d.shard));
    let digest = digest_outcomes(&outcomes);
    Ok(BatchReport {
        coverage: CoverageReport::new(outcomes.len(), degraded),
        outcomes,
        shards: shard_reports,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        digest,
    })
}

/// The sharded, batched query engine.
///
/// Borrows the point set and order (the caller keeps ownership); owns the
/// [`PackedRTree`] (with its one packed copy of the coordinates), the
/// shards and the worker pool, so buffer pools stay warm across batches.
pub struct ServeEngine<'a> {
    order: &'a LinearOrder,
    rtree: PackedRTree,
    layout: PageLayout,
    shard_map: ShardMap,
    shared: Arc<EngineShared>,
    /// `None` when `threads == 1`: the serial baseline runs inline.
    pool: Option<WorkerPool>,
    /// `Some(path)`: shard slices fault pages off this disk page file
    /// (and failover rebuilds reopen it) instead of materialising them.
    page_file: Option<PathBuf>,
    cfg: EngineConfig,
}

impl<'a> ServeEngine<'a> {
    /// Build an engine over `points` laid out by `order`, with shards
    /// materialised in memory.
    ///
    /// # Panics
    /// Panics when `points` is empty or its length differs from the
    /// order's (caller bugs), or on zero geometry knobs.
    pub fn new(points: &'a [Vec<i64>], order: &'a LinearOrder, cfg: EngineConfig) -> Self {
        ServeEngine::with_storage(points, order, cfg, None)
            .expect("in-memory shard builds are infallible")
    }

    /// Build an engine whose shard slices read the disk page file at
    /// `page_file` (written by [`slpm_storage::write_page_file`] under
    /// the same order and geometry) instead of materialising pages in
    /// memory. Query results, page accounting and digests are bitwise
    /// identical to [`ServeEngine::new`]; only where the bytes live
    /// differs.
    ///
    /// # Errors
    /// Any [`StorageError`] from opening/validating the file — bad magic,
    /// version skew, truncation, or a geometry/order-digest mismatch.
    pub fn with_page_file(
        points: &'a [Vec<i64>],
        order: &'a LinearOrder,
        cfg: EngineConfig,
        page_file: PathBuf,
    ) -> Result<Self, StorageError> {
        ServeEngine::with_storage(points, order, cfg, Some(page_file))
    }

    fn with_storage(
        points: &'a [Vec<i64>],
        order: &'a LinearOrder,
        cfg: EngineConfig,
        page_file: Option<PathBuf>,
    ) -> Result<Self, StorageError> {
        assert_eq!(points.len(), order.len(), "order/point-set mismatch");
        let layout = PageLayout::new(cfg.records_per_page);
        let mapper = PageMapper::new(order, layout);
        let shard_map = ShardMap::new(cfg.shards, mapper.num_pages(), cfg.partition);
        let shards: Vec<Shard> = (0..cfg.shards)
            .map(|id| {
                Shard::build(
                    id,
                    &shard_map,
                    &mapper,
                    cfg.record_size,
                    ReadPath {
                        buffer_pages: cfg.buffer_pages,
                        readahead: cfg.readahead,
                        page_file: page_file.as_deref(),
                    },
                )
            })
            .collect::<Result<_, _>>()?;
        assert!(
            cfg.recovery.validate().is_ok(),
            "invalid recovery config: {}",
            cfg.recovery.validate().unwrap_err()
        );
        Ok(ServeEngine {
            order,
            rtree: PackedRTree::pack(points, order, cfg.fanout.max(2)),
            layout,
            shard_map,
            shared: Arc::new(EngineShared {
                slices: Mutex::new(Arc::new(ShardSet::new(shards))),
                queues: ShardGate::default_vec(cfg.shards),
                fleet: Mutex::new(FleetHealth {
                    breakers: (0..cfg.shards).map(|_| ShardBreaker::default()).collect(),
                    faults: None,
                }),
                recovery: cfg.recovery,
            }),
            pool: (cfg.threads > 1).then(|| WorkerPool::new(cfg.threads)),
            page_file,
            cfg,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Total pages of the underlying store.
    pub fn num_pages(&self) -> usize {
        self.shard_map.num_pages()
    }

    /// Execute a batch to completion; per-query outcomes come back in
    /// submission order. Equivalent to
    /// `submit_planned(plan_batch(queries)).wait()`.
    ///
    /// # Errors
    /// See [`BatchHandle::wait`].
    pub fn run(&self, queries: &[Query]) -> Result<BatchReport, ServeError> {
        self.submit_planned(self.plan_batch(queries)).wait()
    }

    /// Split one workload into `inflight` contiguous sub-batches, admit
    /// them all concurrently, and merge them in submission order:
    /// outcomes concatenate, per-shard aggregates sum, and the digest is
    /// folded once over the concatenation — by [`digest_outcomes`]'s
    /// split-invariance it equals the single-batch digest of the same
    /// workload.
    ///
    /// # Errors
    /// See [`BatchHandle::wait`]; every sub-batch is drained before an
    /// error is returned (no work is left in flight), and failure /
    /// coverage indices are remapped to whole-workload query positions.
    pub fn run_inflight(
        &self,
        queries: &[Query],
        inflight: usize,
    ) -> Result<BatchReport, ServeError> {
        // xtask:allow(wall-clock): latency accounting only, excluded from digests
        let start = Instant::now();
        let chunk = queries.len().div_ceil(inflight.max(1)).max(1);
        // Collected, so every sub-batch is admitted before any is waited on.
        let handles: Vec<BatchHandle> = queries
            .chunks(chunk)
            .map(|c| self.submit_planned(self.plan_batch(c)))
            .collect();
        merge(handles, self.cfg.shards, start)
    }

    /// Plan and route a batch **without admitting it**: the streaming
    /// admission seam. The returned [`PlannedBatch`] exposes per-query
    /// shard loads (so a policy can shed or block before any work is
    /// enqueued) and admits via [`ServeEngine::submit_planned`] — the
    /// plans are computed exactly once.
    pub fn plan_batch(&self, queries: &[Query]) -> PlannedBatch {
        // xtask:allow(wall-clock): latency accounting only, excluded from digests
        let started = Instant::now();
        let (plans, routes) = self.plan_and_route(queries);
        PlannedBatch {
            plans,
            routes,
            depth: None,
            started,
        }
    }

    /// A snapshot of each shard's queued (not yet replayed) unit count —
    /// the backpressure observable bounded admission gates on.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared
            .queues
            .iter()
            .map(|g| g.queue.lock().expect("shard queue lock").pending_units)
            .collect()
    }

    /// Arm a deterministic fault plan: subsequently admitted units are
    /// stamped against it in admission order. Replaces any previous plan
    /// (its cursors reset); `FaultPlan::default()` disarms.
    pub fn inject_faults(&self, plan: FaultPlan) {
        let mut fleet = self.shared.fleet.lock().expect("fleet health lock");
        fleet.faults = (!plan.is_empty()).then(|| FaultState::new(plan, self.cfg.shards));
    }

    /// A point-in-time view of every shard's circuit breaker.
    pub fn health_snapshot(&self) -> Vec<BreakerSnapshot> {
        self.shared
            .fleet
            .lock()
            .expect("fleet health lock")
            .breakers
            .iter()
            .enumerate()
            .map(|(shard, b)| b.snapshot(shard))
            .collect()
    }

    /// The current slice epoch (bumped by every failover swap; `0` until
    /// a shard is rebuilt).
    pub fn epoch(&self) -> u64 {
        self.shared
            .slices
            .lock()
            .expect("shard slices lock")
            .epoch()
    }

    /// Swap rebuilt slices in for every shard whose breaker requested a
    /// rebuild since the last admission: build a fresh [`Shard`] (cold
    /// buffer pool, fresh lock) for each, publish a new [`ShardSet`]
    /// under the next epoch, and leave old-epoch `Arc`s to drain in
    /// whatever batches still hold them.
    ///
    /// A shard whose page file cannot be reopened (removed, truncated or
    /// rewritten since the engine started) keeps its current slice; the
    /// failure is counted in its breaker and the rebuild stays pending
    /// for the next admission, so the submitter never pays for it with a
    /// panic.
    fn install_rebuilds(&self) {
        let pending: Vec<usize> = {
            let mut fleet = self.shared.fleet.lock().expect("fleet health lock");
            (0..self.cfg.shards)
                .filter(|&s| fleet.breakers[s].take_rebuild())
                .collect()
        };
        if pending.is_empty() {
            return;
        }
        let mapper = PageMapper::new(self.order, self.layout);
        let read_path = ReadPath {
            buffer_pages: self.cfg.buffer_pages,
            readahead: self.cfg.readahead,
            page_file: self.page_file.as_deref(),
        };
        let (mut replacements, mut failed) = (Vec::new(), Vec::new());
        for id in pending {
            match Shard::build(
                id,
                &self.shard_map,
                &mapper,
                self.cfg.record_size,
                read_path,
            ) {
                Ok(fresh) => replacements.push((id, fresh)),
                Err(_) => failed.push(id),
            }
        }
        if !failed.is_empty() {
            let mut fleet = self.shared.fleet.lock().expect("fleet health lock");
            for id in failed {
                fleet.breakers[id].rebuild_failed();
            }
        }
        if replacements.is_empty() {
            return;
        }
        let mut slices = self.shared.slices.lock().expect("shard slices lock");
        *slices = Arc::new(slices.with_replacements(replacements));
    }

    /// Admit an already-planned batch (see [`ServeEngine::plan_batch`])
    /// and return its handle without waiting for replay. A batch made
    /// [`PlannedBatch::bounded`] first waits, shard by shard, for space
    /// below its depth bound.
    pub fn submit_planned(&self, batch: PlannedBatch) -> BatchHandle {
        let PlannedBatch {
            plans,
            mut routes,
            depth,
            started,
        } = batch;

        // Failover happens at admission boundaries: swap in rebuilt
        // slices for any shard whose breaker requested one, *before*
        // this batch pins its epoch. In-flight batches keep draining the
        // old epoch's `Arc`.
        self.install_rebuilds();
        let slices = Arc::clone(&*self.shared.slices.lock().expect("shard slices lock"));

        // Build the per-shard unit lists, in query order. Page lists move
        // out of the routes (page_count stays behind for the merge), so
        // only one copy exists while the batch is in flight. Fault/breaker
        // verdicts are stamped here — serially, under one fleet lock, in
        // query order within each shard — so resolution depends only on
        // the admission sequence, never on replay scheduling.
        let mut per_shard: Vec<Vec<Unit>> = (0..self.cfg.shards).map(|_| Vec::new()).collect();
        {
            let mut fleet = self.shared.fleet.lock().expect("fleet health lock");
            let rec = self.shared.recovery;
            for (qidx, route) in routes.iter_mut().enumerate() {
                for slice in &mut route.slices {
                    let pages = std::mem::take(&mut slice.pages);
                    let directive = fleet.stamp_unit(slice.shard, &pages, &rec);
                    per_shard[slice.shard].push(Unit {
                        qidx,
                        pages,
                        directive,
                    });
                }
            }
        }
        let state = Arc::new(BatchState::new(
            started,
            routes.iter().map(|r| r.slices.len()),
            self.cfg.shards,
            self.cfg.records_per_page,
            self.order.len(),
        ));

        // Enqueue, collecting shards that need a runner scheduled. The
        // running flag flips under the queue lock, so a concurrent
        // runner draining to empty either sees this work or leaves
        // `running == false` for us to claim.
        let mut to_run: Vec<usize> = Vec::new();
        for (shard_id, units) in per_shard.into_iter().enumerate() {
            if units.is_empty() {
                continue;
            }
            let gate = &self.shared.queues[shard_id];
            let mut queue = gate.queue.lock().expect("shard queue lock");
            if let Some(bound) = depth {
                while queue.pending_units >= bound {
                    queue = gate.space.wait(queue).expect("shard queue lock");
                }
            }
            queue.pending_units += units.len();
            queue.batches.push_back(BatchWork {
                state: Arc::clone(&state),
                units,
                slices: Arc::clone(&slices),
            });
            if !queue.running {
                queue.running = true;
                to_run.push(shard_id);
            }
        }
        match &self.pool {
            Some(pool) => {
                for shard_id in to_run {
                    let shared = Arc::clone(&self.shared);
                    pool.submit(move || run_shard_queue(&shared, shard_id));
                }
            }
            // Serial baseline: drain inline before returning, so the
            // handle is already complete (and each shard replays its units
            // in admission order — the deterministic buffer-accounting
            // baseline).
            None => {
                for shard_id in to_run {
                    run_shard_queue(&self.shared, shard_id);
                }
            }
        }
        BatchHandle {
            state,
            plans,
            routes,
            io: self.cfg.io,
            shards: self.cfg.shards,
        }
    }

    /// Plan and route every query of a batch — pure per-query work,
    /// chunked across the pool when one exists (the planning half of the
    /// hot path; replay overlaps it across in-flight batches).
    fn plan_and_route(&self, queries: &[Query]) -> (Vec<Plan>, Vec<Route>) {
        match &self.pool {
            Some(pool) if queries.len() > 1 => {
                let mut slots: Vec<Option<(Plan, Route)>> =
                    (0..queries.len()).map(|_| None).collect();
                // A few chunks per worker for load balance; chunking never
                // affects results (pure per-query functions).
                let chunk = queries.len().div_ceil(pool.threads() * 4).max(1);
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                    .chunks_mut(chunk)
                    .zip(queries.chunks(chunk))
                    .map(|(out, qs)| {
                        Box::new(move || {
                            for (slot, planned) in out.iter_mut().zip(self.plan_run(qs)) {
                                *slot = Some(planned);
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run_scoped(jobs);
                slots
                    .into_iter()
                    .map(|slot| slot.expect("every query planned"))
                    .unzip()
            }
            _ => self.plan_run(queries).unzip(),
        }
    }

    /// Plan and route `queries` in turn on one [`PlanScratch`] and one
    /// page list, so a query allocates only what its plan and route keep.
    fn plan_run<'q>(&'q self, queries: &'q [Query]) -> impl Iterator<Item = (Plan, Route)> + 'q {
        let (mut scratch, mut pages) = (PlanScratch::default(), Vec::new());
        queries.iter().map(move |q| {
            let plan = self.plan(q, &mut scratch);
            let route = route_query(
                &plan.results,
                plan.rank_ordered,
                self.order.ranks(),
                self.layout.records_per_page,
                &self.shard_map,
                &mut pages,
            );
            (plan, route)
        })
    }

    /// Plan one query against the R-tree.
    fn plan(&self, query: &Query, scratch: &mut PlanScratch) -> Plan {
        match query {
            Query::Range(mbr) => {
                let (results, tree) = self.rtree.range_query(mbr, scratch);
                Plan {
                    results,
                    rank_ordered: true,
                    tree,
                }
            }
            Query::Knn { center, k } => {
                let (results, tree) = self.rtree.knn_best_first(center, *k, scratch);
                Plan {
                    results,
                    rank_ordered: false,
                    tree,
                }
            }
        }
    }
}

/// Route one query's result ids to pages and shard slices — a pure
/// function of the rank array, page size and shard map. `pages` is
/// working memory: its contents on entry are ignored.
fn route_query(
    ids: &[usize],
    rank_ordered: bool,
    ranks: &[usize],
    records_per_page: usize,
    shard_map: &ShardMap,
    pages: &mut Vec<usize>,
) -> Route {
    pages.clear();
    pages.extend(ids.iter().map(|&id| ranks[id] / records_per_page));
    if !rank_ordered {
        pages.sort_unstable();
    }
    pages.dedup();
    let runs = count_runs(pages);
    let mut slices: Vec<ShardSlice> = Vec::new();
    for &page in pages.iter() {
        let shard = shard_map.shard_of(page);
        match slices.iter_mut().find(|s| s.shard == shard) {
            Some(slice) => slice.pages.push(page),
            None => slices.push(ShardSlice {
                shard,
                pages: vec![page],
                page_count: 0,
                runs: 0,
            }),
        }
    }
    // Deterministic shard visit order (slices appear in first-touch order
    // above; normalise to ascending shard id) and per-slice run counts.
    slices.sort_by_key(|s| s.shard);
    for slice in &mut slices {
        slice.page_count = slice.pages.len();
        slice.runs = count_runs(&slice.pages);
    }
    Route {
        pages: pages.len(),
        runs,
        slices,
    }
}

/// Maximal runs of consecutive ids in an ascending list.
fn count_runs(pages: &[usize]) -> usize {
    let mut runs = 0;
    let mut prev: Option<usize> = None;
    for &p in pages {
        if prev != Some(p.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(p);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_graph::grid::GridSpec;
    use slpm_storage::chebyshev;

    use crate::testing::{with_quiet_panics, with_watchdog};
    use crate::workload::grid_points;

    fn small_engine() -> (Vec<Vec<i64>>, LinearOrder) {
        let spec = GridSpec::cube(8, 2);
        (grid_points(&spec), LinearOrder::identity(64))
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::Range(Mbr {
                lo: vec![1, 1],
                hi: vec![3, 4],
            }),
            Query::Knn {
                center: vec![4, 4],
                k: 5,
            },
            Query::Range(Mbr {
                lo: vec![0, 0],
                hi: vec![7, 7],
            }),
            Query::Range(Mbr {
                lo: vec![20, 20],
                hi: vec![30, 30],
            }),
        ]
    }

    #[test]
    fn range_results_match_brute_force() {
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&queries()).expect("no replay panic");
        let q0 = Mbr {
            lo: vec![1, 1],
            hi: vec![3, 4],
        };
        let mut got = report.outcomes[0].results.clone();
        got.sort_unstable();
        let want: Vec<usize> = (0..points.len())
            .filter(|&i| q0.contains_point(&points[i]))
            .collect();
        assert_eq!(got, want);
        // Range results stream in rank order.
        for w in report.outcomes[0].results.windows(2) {
            assert!(order.rank_of(w[0]) < order.rank_of(w[1]));
        }
        // Whole-grid query returns everything; empty box returns nothing.
        assert_eq!(report.outcomes[2].results.len(), 64);
        assert!(report.outcomes[3].results.is_empty());
        assert_eq!(report.outcomes[3].pages, 0);
        assert_eq!(report.outcomes[3].seconds, 0.0);
    }

    #[test]
    fn knn_results_match_brute_force() {
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        for (center, k) in [(vec![4i64, 4], 5usize), (vec![0, 0], 3), (vec![7, 7], 64)] {
            let report = engine
                .run(&[Query::Knn {
                    center: center.clone(),
                    k,
                }])
                .expect("no replay panic");
            let got = &report.outcomes[0].results;
            let mut want: Vec<(i64, usize)> = (0..points.len())
                .map(|i| (chebyshev(&center, &points[i]), i))
                .collect();
            want.sort_unstable();
            let want: Vec<usize> = want.into_iter().take(k).map(|(_, id)| id).collect();
            assert_eq!(got, &want, "center {center:?} k {k}");
        }
        // k larger than the point set clamps.
        let report = engine
            .run(&[Query::Knn {
                center: vec![3, 3],
                k: 1000,
            }])
            .expect("no replay panic");
        assert_eq!(report.outcomes[0].results.len(), 64);
    }

    #[test]
    fn digest_and_outcomes_invariant_across_shards_and_threads() {
        let (points, order) = small_engine();
        let base = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            buffer_pages: 4,
            ..Default::default()
        };
        let qs = queries();
        let reference = ServeEngine::new(&points, &order, base)
            .run(&qs)
            .expect("no replay panic");
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 2, 4] {
                for partition in [Partition::Contiguous, Partition::RoundRobin] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        partition,
                        ..base
                    };
                    let engine = ServeEngine::new(&points, &order, cfg);
                    let report = engine.run(&qs).expect("no replay panic");
                    assert_eq!(
                        report.digest, reference.digest,
                        "digest diverged at S={shards} T={threads} {partition}"
                    );
                    for (a, b) in report.outcomes.iter().zip(&reference.outcomes) {
                        assert_eq!(a.results, b.results);
                        assert_eq!(a.pages, b.pages);
                        assert_eq!(a.runs, b.runs);
                    }
                }
            }
        }
    }

    #[test]
    fn inflight_splits_preserve_outcomes_and_digest() {
        let (points, order) = small_engine();
        let base = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            buffer_pages: 8,
            ..Default::default()
        };
        let qs = queries();
        let reference = ServeEngine::new(&points, &order, base)
            .run(&qs)
            .expect("no replay panic");
        for threads in [1usize, 4] {
            for shards in [1usize, 4] {
                for inflight in [1usize, 2, 4] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        ..base
                    };
                    let engine = ServeEngine::new(&points, &order, cfg);
                    let report = engine.run_inflight(&qs, inflight).expect("no replay panic");
                    assert_eq!(
                        report.digest, reference.digest,
                        "digest diverged at S={shards} T={threads} inflight={inflight}"
                    );
                    assert_eq!(report.outcomes.len(), qs.len());
                    for (a, b) in report.outcomes.iter().zip(&reference.outcomes) {
                        assert_eq!(a.results, b.results);
                        assert_eq!(a.pages, b.pages);
                        assert_eq!(a.runs, b.runs);
                    }
                    // Page totals partition exactly whatever the split.
                    let routed: usize = report.shards.iter().map(|s| s.pages_routed).sum();
                    assert_eq!(routed, report.total_pages());
                    let hm: usize = report.outcomes.iter().map(|o| o.hits + o.misses).sum();
                    assert_eq!(routed, hm);
                }
            }
        }
    }

    /// Write the test grid's page file to a unique temp path (the caller
    /// removes it once every engine holding it open is done).
    fn temp_page_file(
        tag: &str,
        order: &LinearOrder,
        records_per_page: usize,
        record_size: usize,
    ) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("slpm-engine-{}-{tag}.pages", std::process::id()));
        let mapper = PageMapper::new(order, PageLayout::new(records_per_page));
        slpm_storage::write_page_file(&path, &mapper, record_size).expect("page file writes");
        path
    }

    #[test]
    fn disk_backed_engine_is_bitwise_identical_to_memory() {
        // The out-of-core acceptance bar: same config, the disk-backed
        // engine and the in-memory engine agree bitwise — results, page
        // counts, runs, digests, and (single-batch) buffer accounting —
        // across the shard × thread × partition × inflight matrix.
        let (points, order) = small_engine();
        let path = temp_page_file("parity", &order, 4, 64);
        let qs = queries();
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 2] {
                for partition in [Partition::Contiguous, Partition::RoundRobin] {
                    for inflight in [1usize, 2] {
                        let cfg = EngineConfig {
                            records_per_page: 4,
                            fanout: 4,
                            buffer_pages: 4,
                            shards,
                            threads,
                            partition,
                            ..Default::default()
                        };
                        let tag = format!("S={shards} T={threads} {partition} I={inflight}");
                        let mem = ServeEngine::new(&points, &order, cfg)
                            .run_inflight(&qs, inflight)
                            .expect("no replay panic");
                        let disk = ServeEngine::with_page_file(&points, &order, cfg, path.clone())
                            .expect("page file opens")
                            .run_inflight(&qs, inflight)
                            .expect("no replay panic");
                        assert_eq!(disk.digest, mem.digest, "digest diverged at {tag}");
                        for (d, m) in disk.outcomes.iter().zip(&mem.outcomes) {
                            assert_eq!(d.results, m.results, "{tag}");
                            assert_eq!(d.pages, m.pages, "{tag}");
                            assert_eq!(d.runs, m.runs, "{tag}");
                        }
                        // Hit/miss splits are scheduling-dependent only
                        // under concurrent admission; a single batch must
                        // account identically on both backings.
                        if inflight == 1 {
                            for (d, m) in disk.outcomes.iter().zip(&mem.outcomes) {
                                assert_eq!(d.hits, m.hits, "{tag}");
                                assert_eq!(d.misses, m.misses, "{tag}");
                            }
                            for (d, m) in disk.shards.iter().zip(&mem.shards) {
                                assert_eq!(d.buffer, m.buffer, "shard accounting at {tag}");
                            }
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn readahead_preserves_digests_and_cuts_demand_misses() {
        // Ordered range sweeps: each query's shard pages form one
        // monotone run, the shape readahead exists for. With readahead on
        // the digest is unchanged, demand misses drop (prefetched pages
        // are admitted off the demand path), and the in-memory engine
        // under the same readahead matches the disk engine bitwise.
        let (points, order) = small_engine();
        let path = temp_page_file("readahead", &order, 4, 64);
        let qs: Vec<Query> = (0..4i64)
            .map(|i| {
                Query::Range(Mbr {
                    lo: vec![2 * i, 0],
                    hi: vec![2 * i + 1, 7],
                })
            })
            .collect();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            buffer_pages: 8,
            ..Default::default()
        };
        let plain = ServeEngine::with_page_file(&points, &order, cfg, path.clone())
            .expect("page file opens")
            .run(&qs)
            .expect("no replay panic");
        let ra_cfg = EngineConfig {
            readahead: 4,
            ..cfg
        };
        let ra = ServeEngine::with_page_file(&points, &order, ra_cfg, path.clone())
            .expect("page file opens")
            .run(&qs)
            .expect("no replay panic");
        assert_eq!(ra.digest, plain.digest, "readahead must not change results");
        for (a, b) in ra.outcomes.iter().zip(&plain.outcomes) {
            assert_eq!(a.results, b.results);
        }
        let misses = |r: &BatchReport| r.shards.iter().map(|s| s.buffer.misses).sum::<usize>();
        let prefetched: usize = ra.shards.iter().map(|s| s.buffer.prefetched).sum();
        let prefetch_hits: usize = ra.shards.iter().map(|s| s.buffer.prefetch_hits).sum();
        assert!(prefetched > 0, "sweeps must trigger prefetch");
        assert!(prefetch_hits > 0, "prefetched pages must be used");
        assert!(
            misses(&ra) < misses(&plain),
            "readahead demand misses {} must undercut plain {}",
            misses(&ra),
            misses(&plain)
        );
        // Same readahead, memory backing: bitwise-identical accounting.
        let mem = ServeEngine::new(&points, &order, ra_cfg)
            .run(&qs)
            .expect("no replay panic");
        assert_eq!(mem.digest, ra.digest);
        for (d, m) in ra.shards.iter().zip(&mem.shards) {
            assert_eq!(d.buffer, m.buffer, "backings must account identically");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn page_error_degrades_and_names_the_failed_pages_rank_range() {
        // `pagerr:3@0` fails the first *real* disk read of page 3. With
        // no retry budget the owning unit degrades, and the coverage
        // report's rank-ranges must cover the failed page's records
        // (page 3 holds ranks 12..16 at 4 records/page).
        let (points, order) = small_engine();
        let path = temp_page_file("pagerr", &order, 4, 64);
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            recovery: RecoveryConfig {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let engine = ServeEngine::with_page_file(&points, &order, cfg, path.clone())
            .expect("page file opens");
        engine.inject_faults(FaultPlan::parse("pagerr:3@0").unwrap());
        let report = engine.run(&queries()).expect("degrades, not errors");
        assert!(!report.coverage.is_clean());
        let covers = report
            .coverage
            .degraded_units
            .iter()
            .any(|d| d.rank_ranges.iter().any(|&(lo, hi)| lo <= 12 && 16 <= hi));
        assert!(
            covers,
            "coverage must name the failed page's rank-range: {:?}",
            report.coverage.degraded_units
        );
        // The one-shot error is consumed: a second run is clean.
        let again = engine.run(&queries()).expect("no replay panic");
        assert!(again.coverage.is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_frame_degrades_exactly_the_units_that_need_its_page() {
        // Flip one payload byte of page 5 on disk. Readahead 4 puts the
        // page inside runs, so the sweep's run read fails and is read
        // again page by page: only the units that need page 5 degrade,
        // their coverage names their rank-ranges, and every other unit
        // serves as it does from an uncorrupted file.
        let (points, order) = small_engine();
        let clean = temp_page_file("corrupt-clean", &order, 4, 64);
        let corrupt = temp_page_file("corrupt", &order, 4, 64);
        let frame_len = slpm_storage::PageFile::open(&corrupt)
            .expect("page file opens")
            .header()
            .frame_len();
        let mut bytes = std::fs::read(&corrupt).expect("page file reads");
        bytes[slpm_storage::diskfile::HEADER_LEN + 5 * frame_len + 7] ^= 0x10;
        std::fs::write(&corrupt, &bytes).expect("page file writes");
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            readahead: 4,
            ..Default::default()
        };
        let mut qs = queries();
        qs.extend((0..8i64).map(|y| {
            Query::Range(Mbr {
                lo: vec![0, y],
                hi: vec![7, y],
            })
        }));
        let run = |path: &PathBuf| {
            ServeEngine::with_page_file(&points, &order, cfg, path.clone())
                .expect("page file opens")
                .run(&qs)
                .expect("degrades, not errors")
        };
        let (want, got) = (run(&clean), run(&corrupt));
        assert!(want.coverage.is_clean());
        // The units that need page 5: its shard's slice of every query
        // whose pages include it, with that slice's rank-ranges.
        let map = ShardMap::new(2, 16, Partition::Contiguous);
        let shard = map.shard_of(5);
        let expected: Vec<DegradedUnit> = want
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(query, o)| {
                let mut pages: Vec<usize> =
                    o.results.iter().map(|&id| order.rank_of(id) / 4).collect();
                pages.sort_unstable();
                pages.dedup();
                pages.retain(|&p| map.shard_of(p) == shard);
                pages.contains(&5).then(|| DegradedUnit {
                    query,
                    shard,
                    pages: pages.len(),
                    rank_ranges: rank_ranges(&pages, 4, 64),
                })
            })
            .collect();
        assert!(
            expected.len() > 1 && expected.len() < qs.len(),
            "{expected:?}"
        );
        assert_eq!(got.coverage.degraded_units, expected);
        assert_eq!(got.digest, want.digest);
        for (q, (g, w)) in got.outcomes.iter().zip(&want.outcomes).enumerate() {
            if expected.iter().all(|d| d.query != q) {
                assert_eq!(
                    g,
                    &QueryOutcome {
                        seconds: g.seconds,
                        ..w.clone()
                    },
                    "query {q}"
                );
            }
        }
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&corrupt);
    }

    #[test]
    fn a_planned_batch_is_timed_from_planning() {
        // `run_inflight` and streams time a batch from before planning;
        // a planned batch submitted later is timed the same way.
        let (points, order) = small_engine();
        let engine = ServeEngine::new(&points, &order, EngineConfig::default());
        let planned = engine.plan_batch(&queries());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let report = engine
            .submit_planned(planned)
            .wait()
            .expect("no replay panic");
        assert!(report.elapsed_seconds >= 0.02, "{}", report.elapsed_seconds);
    }

    #[test]
    fn concurrent_handles_can_overlap() {
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            threads: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let qs = queries();
        // Admit three batches before waiting on any of them.
        let handles: Vec<BatchHandle> = (0..3)
            .map(|_| engine.submit_planned(engine.plan_batch(&qs)))
            .collect();
        let reports: Vec<BatchReport> = handles
            .into_iter()
            .map(|h| h.wait().expect("no replay panic"))
            .collect();
        for r in &reports {
            assert_eq!(r.digest, reports[0].digest);
            assert_eq!(r.outcomes.len(), qs.len());
        }
        // The engine still serves after the overlap.
        let again = engine.run(&qs).expect("no replay panic");
        assert_eq!(again.digest, reports[0].digest);
    }

    #[test]
    fn replay_panic_surfaces_as_error_at_wait_then_self_heals() {
        // An un-modeled panicking replay (here: a poisoned shard lock)
        // must surface as `Err(ServeError::ReplayPanicked)` from
        // wait()/run(), never as a hang — and the failed shard's slice is
        // rebuilt at the next admission, so the engine keeps serving.
        with_quiet_panics(|| {
            for threads in [1usize, 2] {
                let (points, order) = small_engine();
                let cfg = EngineConfig {
                    records_per_page: 4,
                    fanout: 4,
                    threads,
                    ..Default::default()
                };
                let engine = ServeEngine::new(&points, &order, cfg);
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let slices = Arc::clone(&*engine.shared.slices.lock().unwrap());
                    let _guard = slices.shard(0).lock().unwrap();
                    panic!("poison the shard lock");
                }));
                let err = engine
                    .run(&queries())
                    .expect_err("wait must surface replay failures");
                let ServeError::ReplayPanicked { failures } = &err;
                assert!(
                    !failures.is_empty() && failures.iter().all(|f| f.shard == 0),
                    "threads={threads}: {failures:?}"
                );
                // The error names every lost (query, shard) pair.
                assert!(err.to_string().contains("query 0 on shard 0"), "{err}");
                // Self-heal: the rebuild swaps in a fresh slice (new lock).
                let again = engine
                    .run(&queries())
                    .expect("fleet self-heals after a rebuild");
                assert_eq!(again.outcomes.len(), 4);
                assert!(again.coverage.is_clean());
                assert!(engine.epoch() >= 1, "rebuild must bump the epoch");
            }
        });
    }

    #[test]
    fn zero_query_batch_completes_immediately() {
        // The degenerate batch: no queries, hence no units and no runner.
        // `pending_units` starts at 0, so wait() must return without ever
        // touching the pool (the watchdog turns a hang into a failure).
        with_watchdog(
            std::time::Duration::from_secs(30),
            "zero-query batch",
            || {
                for threads in [1usize, 2] {
                    let (points, order) = small_engine();
                    let cfg = EngineConfig {
                        records_per_page: 4,
                        fanout: 4,
                        shards: 2,
                        threads,
                        ..Default::default()
                    };
                    let engine = ServeEngine::new(&points, &order, cfg);
                    let handle = engine.submit_planned(engine.plan_batch(&[]));
                    let report = handle.wait().expect("no replay panic");
                    assert!(report.outcomes.is_empty());
                    assert_eq!(report.digest, digest_outcomes(&[]));
                    // The engine still serves real work afterwards.
                    assert_eq!(
                        engine
                            .run(&queries())
                            .expect("no replay panic")
                            .outcomes
                            .len(),
                        4
                    );
                }
            },
        );
    }

    #[test]
    fn crafted_poisoned_unit_fails_wait_with_a_clear_message() {
        // The waiter must get an error naming the lost (query, shard) —
        // never a hang (the watchdog turns a hang into a clear failure).
        with_quiet_panics(|| {
            with_watchdog(std::time::Duration::from_secs(30), "poisoned unit", || {
                let (points, order) = small_engine();
                let engine = ServeEngine::new(&points, &order, poisoned_unit_config());
                let err = enqueue_poisoned_unit(&engine)
                    .wait()
                    .expect_err("wait must surface the poisoned unit");
                let msg = err.to_string();
                assert!(
                    msg.contains("replay unit(s) panicked during this batch"),
                    "unexpected error message: {msg}"
                );
                // Satellite: the message names exactly what was lost.
                assert!(msg.contains("query 0 on shard 0"), "{msg}");
                // The un-modeled panic marked shard 0 for a rebuild: the next
                // admission swaps in a fresh slice (fresh lock included), so
                // the engine self-heals instead of failing forever.
                let again = engine
                    .run(&queries())
                    .expect("fleet self-heals after the rebuild");
                assert_eq!(again.outcomes.len(), 4);
                assert!(engine.epoch() >= 1);
            });
        });
    }

    fn poisoned_unit_config() -> EngineConfig {
        EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            threads: 2,
            ..Default::default()
        }
    }

    /// Hand shard 0's runner a replay unit naming a page its store slice
    /// does not own, so `read_page` panics inside the runner — a panic
    /// outside the fault plan, which only this module can craft. Returns
    /// the handle of the one-unit batch.
    fn enqueue_poisoned_unit(engine: &ServeEngine<'_>) -> BatchHandle {
        let state = Arc::new(BatchState::new(Instant::now(), [1].into_iter(), 2, 4, 64));
        let units = vec![Unit {
            qidx: 0,
            pages: vec![usize::MAX],
            directive: UnitDirective::Serve,
        }];
        {
            let slices = Arc::clone(&*engine.shared.slices.lock().expect("shard slices lock"));
            let mut queue = engine.shared.queues[0]
                .queue
                .lock()
                .expect("shard queue lock");
            queue.pending_units += 1;
            queue.batches.push_back(BatchWork {
                state: Arc::clone(&state),
                units,
                slices,
            });
            queue.running = true;
        }
        let shared = Arc::clone(&engine.shared);
        engine
            .pool
            .as_ref()
            .expect("threads > 1 builds a pool")
            .submit(move || run_shard_queue(&shared, 0));
        BatchHandle {
            state,
            plans: Vec::new(),
            routes: Vec::new(),
            io: engine.cfg.io,
            shards: 2,
        }
    }

    #[test]
    fn crafted_poisoned_unit_fails_wait_on_every_schedule() {
        // The un-modeled panic under the model checker (the scenario
        // `slpm_check` cannot build from outside this module): on every
        // explored schedule of a 2-worker engine, the runner catches the
        // panic, `wait()` returns the error instead of wedging, and the
        // next admission rebuilds shard 0 and serves.
        let (points, order) = small_engine();
        let report = with_quiet_panics(|| {
            crossbeam::model::explore(
                crossbeam::model::ModelOptions {
                    preemption_bound: Some(1),
                    max_schedules: 60_000,
                    max_threads: 3,
                    max_steps: 100_000,
                },
                move || {
                    let engine = ServeEngine::new(&points, &order, poisoned_unit_config());
                    let err = enqueue_poisoned_unit(&engine)
                        .wait()
                        .expect_err("wait must surface the poisoned unit");
                    assert!(err.to_string().contains("query 0 on shard 0"), "{err}");
                    let again = engine.run(&queries()[..1]).expect("fleet self-heals");
                    assert!(again.coverage.is_clean());
                    assert_eq!(engine.epoch(), 1);
                },
            )
        });
        eprintln!(
            "real-engine unmodelled-panic: explored {} schedules (exhausted: {})",
            report.schedules, report.exhausted
        );
        // The tree has ~1,900 schedules; a tiny one means the runner's
        // pool or the rebuild stopped running under the model.
        assert!(
            report.schedules >= 1000,
            "only {} schedules explored",
            report.schedules
        );
    }

    #[test]
    fn more_inflight_batches_than_shards_preserves_outcomes() {
        // 16 single-query batches over 2 shard queues: far more in-flight
        // handles than shards, so every queue round-robins across many
        // batches. Outcomes and digest must match the one-batch serial
        // reference.
        with_watchdog(
            std::time::Duration::from_secs(30),
            "inflight > shards",
            || {
                let (points, order) = small_engine();
                let base = EngineConfig {
                    records_per_page: 4,
                    fanout: 4,
                    buffer_pages: 8,
                    ..Default::default()
                };
                let qs: Vec<Query> = (0..4).flat_map(|_| queries()).collect();
                let reference = ServeEngine::new(&points, &order, base)
                    .run(&qs)
                    .expect("no replay panic");
                let cfg = EngineConfig {
                    shards: 2,
                    threads: 2,
                    ..base
                };
                let engine = ServeEngine::new(&points, &order, cfg);
                let handles: Vec<BatchHandle> = qs
                    .chunks(1)
                    .map(|c| engine.submit_planned(engine.plan_batch(c)))
                    .collect();
                assert!(handles.len() > 4 * engine.config().shards);
                let outcomes: Vec<QueryOutcome> = handles
                    .into_iter()
                    .flat_map(|h| h.wait().expect("no replay panic").outcomes)
                    .collect();
                assert_eq!(digest_outcomes(&outcomes), reference.digest);
                for (a, b) in outcomes.iter().zip(&reference.outcomes) {
                    assert_eq!(a.results, b.results);
                    assert_eq!(a.pages, b.pages);
                    assert_eq!(a.runs, b.runs);
                }
            },
        );
    }

    #[test]
    fn single_pooled_worker_serves_many_shards_and_batches() {
        // Pin the pool to one worker under 4 shards and 3 overlapping
        // batches: all shard runners queue behind a single thread, so
        // completion relies on runners never blocking on one another.
        with_watchdog(std::time::Duration::from_secs(30), "single worker", || {
            let (points, order) = small_engine();
            let base = EngineConfig {
                records_per_page: 4,
                fanout: 4,
                buffer_pages: 8,
                ..Default::default()
            };
            let qs = queries();
            let reference = ServeEngine::new(&points, &order, base)
                .run(&qs)
                .expect("no replay panic");
            let cfg = EngineConfig {
                shards: 4,
                threads: 2,
                ..base
            };
            let mut engine = ServeEngine::new(&points, &order, cfg);
            engine.pool = Some(WorkerPool::new(1));
            let handles: Vec<BatchHandle> = (0..3)
                .map(|_| engine.submit_planned(engine.plan_batch(&qs)))
                .collect();
            for handle in handles {
                let report = handle.wait().expect("no replay panic");
                assert_eq!(report.digest, reference.digest);
                for (a, b) in report.outcomes.iter().zip(&reference.outcomes) {
                    assert_eq!(a.results, b.results);
                }
            }
        });
    }

    #[test]
    fn page_reads_match_unsharded_store_accounting() {
        // Each query's distinct-page touches must equal the pages its
        // results occupy under the unsharded layout.
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&queries()).expect("no replay panic");
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        for (q, outcome) in queries().iter().zip(&report.outcomes) {
            let direct = mapper.page_count(outcome.results.iter().copied());
            assert_eq!(outcome.pages, direct, "query {q:?}");
        }
    }

    #[test]
    fn buffer_reuse_across_batches_warms_up() {
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            buffer_pages: 32,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let qs = queries();
        let cold = engine.run(&qs).expect("no replay panic");
        let warm = engine.run(&qs).expect("no replay panic");
        assert!(warm.buffer_stats().hits >= cold.buffer_stats().hits);
        // Second identical batch with a big enough pool: everything hits.
        assert_eq!(warm.total_misses(), 0);
        assert_eq!(warm.digest, cold.digest);
    }

    #[test]
    fn shard_reports_cover_routed_pages() {
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 4,
            partition: Partition::RoundRobin,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&queries()).expect("no replay panic");
        let routed: usize = report.shards.iter().map(|s| s.pages_routed).sum();
        assert_eq!(routed, report.total_pages());
        let hits_misses: usize = report.outcomes.iter().map(|o| o.hits + o.misses).sum();
        assert_eq!(routed, hits_misses);
        // Round-robin spreads the whole-grid query across all shards.
        assert!(report.shards.iter().all(|s| s.queries >= 1));
        // Round-robin over a uniform batch is well balanced.
        let balance = report.shard_balance();
        assert!((1.0..2.0).contains(&balance), "balance {balance}");
    }

    #[test]
    fn latencies_are_recorded_for_page_touching_queries() {
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            threads: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&queries()).expect("no replay panic");
        for outcome in &report.outcomes {
            if outcome.pages > 0 {
                assert!(outcome.seconds > 0.0);
                assert!(outcome.seconds <= report.elapsed_seconds);
            } else {
                assert_eq!(outcome.seconds, 0.0);
            }
        }
        let latency = report.latency_summary();
        assert!(latency.quantile(0.99) >= latency.quantile(0.5));
        let empty = BatchReport {
            outcomes: Vec::new(),
            shards: Vec::new(),
            elapsed_seconds: 0.0,
            digest: 0,
            coverage: CoverageReport::default(),
        };
        assert_eq!(empty.latency_summary().quantile(0.5), 0.0);
        assert_eq!(empty.page_quantile(0.5), 0);
    }

    #[test]
    fn quantiles_and_throughput_helpers() {
        let (points, order) = small_engine();
        let engine = ServeEngine::new(
            &points,
            &order,
            EngineConfig {
                records_per_page: 4,
                fanout: 4,
                ..Default::default()
            },
        );
        let report = engine.run(&queries()).expect("no replay panic");
        // Nearest rank picks observations: the ⌈q·n⌉-th smallest.
        let mut pages: Vec<usize> = report.outcomes.iter().map(|o| o.pages).collect();
        pages.sort_unstable();
        assert_eq!(report.page_quantile(0.0), pages[0]);
        assert_eq!(report.page_quantile(0.5), pages[1]);
        assert_eq!(report.page_quantile(0.99), pages[3]);
        assert!(report.queries_per_second() > 0.0);
        assert_eq!(report.outcomes.len(), 4);
        // A single-shard batch is perfectly (trivially) balanced.
        assert_eq!(report.shard_balance(), 1.0);
    }

    #[test]
    fn planned_batch_select_and_bounded_submit_match_plain_runs() {
        with_watchdog(
            std::time::Duration::from_secs(30),
            "planned batch seams",
            || {
                let (points, order) = small_engine();
                let base = EngineConfig {
                    records_per_page: 4,
                    fanout: 4,
                    buffer_pages: 8,
                    ..Default::default()
                };
                let qs = queries();
                let reference = ServeEngine::new(&points, &order, base)
                    .run(&qs)
                    .expect("no replay panic");
                for (shards, threads) in [(1usize, 1usize), (2, 2), (4, 2)] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        ..base
                    };
                    let engine = ServeEngine::new(&points, &order, cfg);
                    // plan → submit_planned is submit.
                    let planned = engine.plan_batch(&qs);
                    assert_eq!(planned.len(), qs.len());
                    assert!(!planned.is_empty());
                    // Every page-touching query exposes its shard loads.
                    for (qidx, outcome) in reference.outcomes.iter().enumerate() {
                        let loads = planned.shard_loads(qidx);
                        let pages: usize = loads.iter().map(|&(_, p, _)| p).sum();
                        assert_eq!(pages, outcome.pages, "query {qidx}");
                        assert!(loads.windows(2).all(|w| w[0].0 < w[1].0));
                    }
                    let report = engine
                        .submit_planned(planned)
                        .wait()
                        .expect("no replay panic");
                    assert_eq!(report.digest, reference.digest);
                    // A tight bound admits the same work, just gated.
                    let bounded = engine
                        .submit_planned(engine.plan_batch(&qs).bounded(1))
                        .wait()
                        .expect("no replay panic");
                    assert_eq!(bounded.digest, reference.digest);
                    // Queues fully drained afterwards.
                    assert!(engine.queue_depths().iter().all(|&d| d == 0));
                    // Selecting a prefix equals running the prefix alone.
                    // Its depth bound survives the selection.
                    let keep: Vec<bool> = (0..qs.len()).map(|i| i < 2).collect();
                    let selected = engine.plan_batch(&qs).bounded(0).select(&keep);
                    assert_eq!(selected.len(), 2);
                    assert_eq!(selected.depth, Some(1), "a bound clamps to 1");
                    let sub = engine
                        .submit_planned(selected)
                        .wait()
                        .expect("no replay panic");
                    assert_eq!(
                        sub.digest,
                        engine.run(&qs[..2]).expect("no replay panic").digest
                    );
                }
            },
        );
    }

    #[test]
    fn bounded_submits_backpressure_concurrent_batches() {
        // Many single-query batches through a depth-1 bound on a pooled
        // engine: every submission may block until the runner drains, and
        // all of them must still complete with the reference outcomes.
        with_watchdog(
            std::time::Duration::from_secs(30),
            "bounded backpressure",
            || {
                let (points, order) = small_engine();
                let base = EngineConfig {
                    records_per_page: 4,
                    fanout: 4,
                    buffer_pages: 8,
                    ..Default::default()
                };
                let qs: Vec<Query> = (0..4).flat_map(|_| queries()).collect();
                let reference = ServeEngine::new(&points, &order, base)
                    .run(&qs)
                    .expect("no replay panic");
                let cfg = EngineConfig {
                    shards: 2,
                    threads: 2,
                    ..base
                };
                let engine = ServeEngine::new(&points, &order, cfg);
                let handles: Vec<BatchHandle> = qs
                    .chunks(1)
                    .map(|c| engine.submit_planned(engine.plan_batch(c).bounded(1)))
                    .collect();
                let outcomes: Vec<QueryOutcome> = handles
                    .into_iter()
                    .flat_map(|h| h.wait().expect("no replay panic").outcomes)
                    .collect();
                assert_eq!(digest_outcomes(&outcomes), reference.digest);
                assert!(engine.queue_depths().iter().all(|&d| d == 0));
            },
        );
    }

    #[test]
    fn latency_summary_sorts_once_and_supports_p999() {
        let s = LatencySummary::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.max(), 4.0);
        // Nearest rank: p99 and p999 of a 4-sample set are the maximum —
        // real observations, never interpolations.
        let (p50, p99, p999) = s.p50_p99_p999();
        assert_eq!((p50, p99, p999), (2.0, 4.0, 4.0));
        assert!(p999 >= p99 && p99 >= p50);
        assert_eq!(s.violations(2.5), (2, 0.5));
        assert_eq!(s.violations(4.0), (0, 0.0));
        let empty = LatencySummary::default();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.999), 0.0);
        assert_eq!(empty.violations(1.0), (0, 0.0));
        assert_eq!(empty.max(), 0.0);
    }

    #[test]
    fn transient_faults_recover_inside_the_retry_budget() {
        // `flaky:0@1+2`: unit 1 on shard 0 fails its first 2 attempts and
        // succeeds on the 3rd (max_attempts = 3). Nothing degrades, the
        // digest matches a clean run bitwise, and the affected query pays
        // its retries as fault latency.
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            threads: 2,
            ..Default::default()
        };
        let clean = ServeEngine::new(&points, &order, cfg)
            .run(&queries())
            .expect("no replay panic");
        let engine = ServeEngine::new(&points, &order, cfg);
        engine.inject_faults(FaultPlan::parse("flaky:0@1+2").unwrap());
        let report = engine.run(&queries()).expect("no replay panic");
        assert!(report.coverage.is_clean());
        assert_eq!(report.digest, clean.digest);
        assert_eq!(report.degraded_digest(), report.digest);
        let paid: f64 = report.outcomes.iter().map(|o| o.fault_us).sum();
        assert!(paid > 0.0, "retries must cost simulated time");
        assert_eq!(engine.epoch(), 0, "no trip, no swap");
    }

    #[test]
    fn permanent_kill_trips_the_breaker_and_swaps_epochs() {
        with_watchdog(std::time::Duration::from_secs(30), "permanent kill", || {
            let (points, order) = small_engine();
            let cfg = EngineConfig {
                records_per_page: 4,
                fanout: 4,
                shards: 2,
                threads: 2,
                ..Default::default()
            };
            let clean = ServeEngine::new(&points, &order, cfg)
                .run(&queries())
                .expect("no replay panic");
            let engine = ServeEngine::new(&points, &order, cfg);
            // Shard 0 dead from unit 0, across every incarnation.
            engine.inject_faults(FaultPlan::parse("kill!:0@0").unwrap());
            // Enough traffic to pass the breaker threshold on shard 0.
            let qs: Vec<Query> = (0..4).flat_map(|_| queries()).collect();
            let report = engine.run(&qs).expect("injected faults degrade, not error");
            // Shard-0 units degrade with named rank-ranges; shard-1 units
            // are still served and bitwise identical to the clean run.
            assert!(!report.coverage.is_clean());
            assert!(report
                .coverage
                .degraded_units
                .iter()
                .all(|d| d.shard == 0 && !d.rank_ranges.is_empty()));
            for (got, want) in report.outcomes.iter().zip(clean.outcomes.iter().cycle()) {
                if got.degraded_pages == 0 {
                    assert_eq!(got.results, want.results);
                }
            }
            let snap = engine.health_snapshot();
            assert!(snap[0].trips >= 1, "{snap:?}");
            assert_eq!(snap[1].trips, 0);
            // The rebuild lands at the next admission boundary.
            let again = engine.run(&queries()).expect("still serving");
            assert!(engine.epoch() >= 1, "trip must swap epochs");
            // Permanent kill spans incarnations: shard 0 stays degraded,
            // shard 1 keeps serving.
            assert!(again.coverage.degraded_units.iter().all(|d| d.shard == 0));
        });
    }

    #[test]
    fn incarnation_pinned_kill_heals_after_failover() {
        with_watchdog(std::time::Duration::from_secs(30), "pinned kill", || {
            let (points, order) = small_engine();
            let cfg = EngineConfig {
                records_per_page: 4,
                fanout: 4,
                shards: 2,
                threads: 2,
                ..Default::default()
            };
            let engine = ServeEngine::new(&points, &order, cfg);
            // `kill:` (no `!`) pins the fault to incarnation 0: the
            // rebuilt slice escapes it.
            engine.inject_faults(FaultPlan::parse("kill:0@0").unwrap());
            let qs: Vec<Query> = (0..4).flat_map(|_| queries()).collect();
            let first = engine.run(&qs).expect("degrades, not errors");
            assert!(!first.coverage.is_clean());
            assert!(engine.health_snapshot()[0].trips >= 1);
            // After the swap, the breaker's probe hits the healthy
            // incarnation, closes, and coverage comes back clean. The
            // open breaker fast-fails a few cooldown units first, so
            // drive enough traffic through.
            let mut healed = false;
            for _ in 0..4 {
                let r = engine.run(&qs).expect("still serving");
                if r.coverage.is_clean() {
                    healed = true;
                    break;
                }
            }
            assert!(healed, "pinned fault must heal after failover");
            assert!(engine.epoch() >= 1);
            let snap = engine.health_snapshot();
            assert_eq!(snap[0].incarnation, 1);
        });
    }

    #[test]
    fn failed_rebuild_keeps_the_slice_and_retries_at_the_next_admission() {
        // After a trip, a page file whose header has since been
        // overwritten cannot be reopened: the rebuild must not panic the
        // submitter. The shard keeps its current slice, the failure is
        // counted, and once the file is whole again the next admission
        // swaps the rebuilt slice in.
        use std::os::unix::fs::FileExt;
        let (points, order) = small_engine();
        let path = temp_page_file("failed-rebuild", &order, 4, 64);
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            ..Default::default()
        };
        let engine = ServeEngine::with_page_file(&points, &order, cfg, path.clone())
            .expect("page file opens");
        engine.inject_faults(FaultPlan::parse("kill:0@0").unwrap());
        let qs: Vec<Query> = (0..4).flat_map(|_| queries()).collect();
        engine.run(&qs).expect("degrades, not errors");
        assert!(engine.health_snapshot()[0].trips >= 1);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .expect("page file reopens for writing");
        let mut header = [0u8; slpm_storage::diskfile::HEADER_LEN];
        file.read_exact_at(&mut header, 0).expect("header reads");
        file.write_all_at(&[0u8; slpm_storage::diskfile::HEADER_LEN], 0)
            .expect("header overwrites");
        engine
            .run(&queries())
            .expect("a failed rebuild is not an error");
        assert_eq!(engine.epoch(), 0, "the current slice keeps serving");
        assert_eq!(engine.health_snapshot()[0].failed_rebuilds, 1);
        file.write_all_at(&header, 0).expect("header restores");
        engine.run(&queries()).expect("the retried rebuild serves");
        assert_eq!(engine.epoch(), 1, "the retried rebuild swaps in");
        assert_eq!(engine.health_snapshot()[0].failed_rebuilds, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn degraded_digest_is_schedule_invariant() {
        // The same fault plan over 1, 2 and 4 threads (and repeat runs)
        // must produce identical coverage and degraded digests — faults
        // are decided on the admission clock, not by runner scheduling.
        let (points, order) = small_engine();
        let qs: Vec<Query> = (0..4).flat_map(|_| queries()).collect();
        let mut baseline: Option<(u64, Vec<DegradedUnit>)> = None;
        for threads in [1usize, 2, 4, 2] {
            let cfg = EngineConfig {
                records_per_page: 4,
                fanout: 4,
                shards: 2,
                threads,
                ..Default::default()
            };
            let engine = ServeEngine::new(&points, &order, cfg);
            engine.inject_faults(FaultPlan::parse("kill!:0@2,stall:1@0+2=50").unwrap());
            let report = engine.run(&qs).expect("degrades, not errors");
            let digest = report.degraded_digest();
            match &baseline {
                None => baseline = Some((digest, report.coverage.degraded_units.clone())),
                Some((d, units)) => {
                    assert_eq!(digest, *d, "threads={threads}");
                    assert_eq!(&report.coverage.degraded_units, units, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn inflight_merge_offsets_coverage_to_workload_positions() {
        // Split one faulted workload into in-flight sub-batches: each
        // sub-batch numbers its degraded units from its own query 0, and
        // the merge must shift them to positions in the whole workload.
        // Faults are stamped per shard in admission order and no breaker
        // trips, so every split degrades exactly the units one batch does.
        use crate::workload::{mixed_workload, WorkloadConfig};
        let spec = GridSpec::cube(16, 2);
        let points = grid_points(&spec);
        let order = LinearOrder::identity(points.len());
        let qs = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries: 96,
                ..Default::default()
            },
        );
        let engine = |threads: usize| {
            let cfg = EngineConfig {
                records_per_page: 4,
                buffer_pages: 8,
                shards: 2,
                threads,
                recovery: RecoveryConfig {
                    breaker_threshold: 1_000_000,
                    ..Default::default()
                },
                ..Default::default()
            };
            let engine = ServeEngine::new(&points, &order, cfg);
            engine.inject_faults(FaultPlan::parse("kill!:0@2,stall:1@0+2=50").unwrap());
            engine
        };
        let key = |r: &BatchReport| -> Vec<(Vec<usize>, usize, usize, usize, u64)> {
            r.outcomes
                .iter()
                .map(|o| {
                    let fault_us = o.fault_us.to_bits();
                    (
                        o.results.clone(),
                        o.pages,
                        o.runs,
                        o.degraded_pages,
                        fault_us,
                    )
                })
                .collect()
        };
        let reference = engine(1).run(&qs).expect("degrades, not errors");
        assert!(reference.coverage.degraded_units.len() > 1);
        assert!(reference
            .coverage
            .degraded_units
            .iter()
            .any(|d| d.query > qs.len() / 2));
        for threads in [1usize, 4] {
            for inflight in [1usize, 2, 4] {
                let engine = engine(threads);
                let report = engine.run_inflight(&qs, inflight).expect("degrades");
                let tag = format!("threads={threads} inflight={inflight}");
                assert_eq!(report.coverage, reference.coverage, "{tag}");
                assert_eq!(
                    report.degraded_digest(),
                    reference.degraded_digest(),
                    "{tag}"
                );
                assert_eq!(report.digest, reference.digest, "{tag}");
                assert_eq!(key(&report), key(&reference), "{tag}");
                assert!(
                    engine.health_snapshot().iter().all(|b| b.trips == 0),
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn open_breaker_fast_fails_without_touching_the_shard() {
        // With a dead shard and plenty of traffic, the breaker opens and
        // later shard-0 units are fast-failed: degraded with zero fault
        // latency (the failure was paid for by the units that tripped it).
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            threads: 1,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        engine.inject_faults(FaultPlan::parse("kill!:0@0").unwrap());
        let qs: Vec<Query> = (0..8).flat_map(|_| queries()).collect();
        let report = engine.run(&qs).expect("degrades, not errors");
        let degraded: Vec<&QueryOutcome> = report
            .outcomes
            .iter()
            .filter(|o| o.degraded_pages > 0)
            .collect();
        assert!(degraded.len() > engine.config().recovery.breaker_threshold as usize);
        assert!(
            degraded.iter().any(|o| o.fault_us == 0.0),
            "some degraded unit must have been fast-failed"
        );
        assert!(
            degraded.iter().any(|o| o.fault_us > 0.0),
            "the tripping units paid the retry budget"
        );
    }
}
