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
//!    each query runs against the packed R-tree. Range queries use
//!    [`PackedRTree::range_query_ordered`], so result ranks — and the
//!    page ids derived from them — are monotone; kNN queries run the
//!    [`KnnPlanner`] of the engine's configuration (best-first
//!    branch-and-bound by default, the expanding-ball probe as the
//!    retained baseline).
//! 2. **Route** (with planning): result ids become per-query page lists
//!    and per-shard slices — a pure pass of integer divisions over the
//!    order's borrowed ranks and the [`ShardMap`].
//! 3. **Replay** (pooled, admission-queued): each shard owns a FIFO work
//!    queue. A submitted batch enqueues one work unit per (query, shard)
//!    slice, **in batch order**; at most one runner per shard drains its
//!    queue on the [`WorkerPool`], taking one unit per queued batch in
//!    turn (round-robin fairness across in-flight batches) so a huge
//!    batch cannot starve a small one. Within a batch, a shard's units
//!    replay in batch order — the sequence the digest contract relies on.
//! 4. **Merge** (at [`BatchHandle::wait`]): per-query outcomes are
//!    reassembled in query order and folded into a digest plus per-shard
//!    aggregates.
//!
//! **Admission.** [`ServeEngine::submit_planned`] (or its depth-bounded
//! twin [`ServeEngine::submit_planned_bounded`]) admits a planned batch
//! and returns a [`BatchHandle`] without waiting for replay, so any
//! number of batches can be in flight at once; [`ServeEngine::run`] is
//! plan-submit-wait, and
//! [`ServeEngine::run_inflight`] splits one workload into several
//! concurrently admitted batches and merges the reports.
//!
//! **Determinism.** Planning and routing are pure per-query functions,
//! and a batch's replay sequence on each shard is internally ordered, so
//! result sets, page counts, run counts and the digest are bitwise
//! identical for every shard count, thread count, kNN planner and
//! in-flight batch count ([`digest_outcomes`] is invariant under batch
//! splitting). Buffer hit/miss statistics are the one scheduling-
//! dependent quantity under *concurrent* admission: interleaving changes
//! which batch finds a page warm (totals per shard still add up) —
//! exactly as in any shared-cache server.
//!
//! **Failure and recovery.** Shards break; the engine keeps answering.
//! An installed [`FaultPlan`] ([`ServeEngine::inject_faults`]) is
//! resolved *at admission* — each unit's fault stamp is a pure function
//! of its shard's admitted-unit sequence — and manifested *at the replay
//! seam*: failing attempts pay a bounded retry/backoff loop on the
//! simulated clock (see [`RecoveryConfig`]), injected panics genuinely
//! unwind through the runner's `catch_unwind`. Units no retry budget can
//! save **degrade** instead of failing the batch: [`BatchHandle::wait`]
//! returns `Ok` with per-query coverage accounting
//! ([`BatchReport::coverage`]) naming exactly which rank-ranges were
//! served from a broken slice. Per-shard circuit breakers
//! ([`crate::health::ShardBreaker`]) trip on consecutive doomed units;
//! a trip requests **failover**: at the next admission boundary the
//! tripped shard's rank-range is rebuilt on a fresh slice and published
//! under an atomic epoch swap ([`crate::shard::ShardSet`]) — in-flight
//! batches drain on their admission-time epoch while new admissions
//! route to the rebuilt slice. Panics *outside* the fault plan (routing
//! bugs, poisoned locks) surface as a typed
//! [`ServeError::ReplayPanicked`] naming every failed unit's query and
//! shard, and the affected slice is likewise rebuilt at the next
//! admission — one poisoned lock no longer wedges the engine forever.

use crate::fault::{FaultPlan, FaultState, ServeError, UnitFailure, UnitFault};
use crate::health::{
    BreakerSnapshot, RecoveryConfig, ShardBreaker, UnitDirective, UnitDisposition,
};
use crate::pool::WorkerPool;
use crate::shard::{Partition, ReadPath, Shard, ShardMap, ShardSet};
use crossbeam::sync::{is_model_abort, Arc, Condvar, Mutex};
use slpm_storage::{
    chebyshev, BufferStats, IoCost, IoModel, Mbr, PackedRTree, PageLayout, PageMapper, QueryCost,
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

/// Which exact-kNN planner the engine runs. Both return the identical
/// result list (ascending `(distance, id)`), so digests never depend on
/// the choice; only the tree-access cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnPlanner {
    /// Best-first branch-and-bound on the packed R-tree
    /// ([`PackedRTree::knn_best_first`]): visits each node at most once.
    /// The default.
    BestFirst,
    /// The doubling expanding-ball probe: re-runs a growing range query
    /// until `k` matches are guaranteed, re-paying shared nodes every
    /// round. Retained as the measured baseline.
    ExpandingBall,
}

impl KnnPlanner {
    /// Parse a planner name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "best-first" | "bestfirst" | "bf" => KnnPlanner::BestFirst,
            "expanding" | "expanding-ball" | "ball" => KnnPlanner::ExpandingBall,
            _ => return None,
        })
    }
}

impl fmt::Display for KnnPlanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KnnPlanner::BestFirst => "best-first",
            KnnPlanner::ExpandingBall => "expanding-ball",
        })
    }
}

/// Engine geometry and scheduling knobs.
#[derive(Debug, Clone, Copy)]
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
    /// LRU frames per shard's buffer pool.
    pub buffer_pages: usize,
    /// Run-readahead window per demand miss (`0` = off). With a
    /// locality-preserving order a range query's shard pages form
    /// monotone runs, so each miss can prefetch the run's next pages in
    /// one seek; `0` keeps hit/miss accounting bitwise identical to the
    /// pre-readahead engine.
    pub readahead: usize,
    /// Seek/transfer model for the per-query I/O cost estimate.
    pub io: IoModel,
    /// kNN planning algorithm.
    pub knn_planner: KnnPlanner,
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
            knn_planner: KnnPlanner::BestFirst,
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
    /// R-tree node accounting (cumulative over kNN expansions for the
    /// expanding-ball planner; at-most-once visits for best-first).
    pub tree: QueryCost,
    /// Admission-to-completion latency in seconds: from batch submission
    /// until the query's last shard unit replayed (`0.0` for queries that
    /// touch no pages). Scheduling-dependent — never part of the digest.
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
    /// Wall-clock seconds from submission through merge.
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

    /// The `q`-quantile (0 ≤ q ≤ 1) of per-query page counts.
    pub fn page_quantile(&self, q: f64) -> usize {
        let mut pages: Vec<usize> = self.outcomes.iter().map(|o| o.pages).collect();
        pages.sort_unstable();
        quantile(&pages, q)
    }

    /// The batch's per-query admission-to-completion latencies (seconds)
    /// as a [`LatencySummary`] — sorted once; every quantile after that
    /// is an O(1) lookup.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::new(self.outcomes.iter().map(|o| o.seconds).collect())
    }

    /// The nearest-rank `q`-quantile of per-query admission-to-completion
    /// latency (seconds); `0.0` on an empty batch. One-shot convenience
    /// over [`BatchReport::latency_summary`] — when reading more than one
    /// quantile, build the summary instead so the sample is sorted once.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency_summary().quantile(q)
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
    /// count and rank-ranges). Equal to the plain digest on a fault-free
    /// run; deterministic for a fixed fault plan — the proptest and
    /// chaos-gate invariant.
    pub fn degraded_digest(&self) -> u64 {
        digest_with_coverage(self.digest, &self.coverage.degraded_units)
    }
}

/// A latency sample sorted once at construction, with nearest-rank
/// quantiles. Unit-agnostic: the batch engine feeds it seconds, the
/// streaming layer simulated microseconds.
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

/// Nearest-rank quantile of an ascending sample (0 on an empty batch).
fn quantile(sorted: &[usize], q: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
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

/// Fold degraded-coverage accounting into a digest: each unit's query,
/// shard, page count and rank-ranges, in the (already deterministic)
/// `(query, shard)` order. Shared by [`BatchReport::degraded_digest`]
/// and the streaming layer.
pub fn digest_with_coverage(digest: u64, degraded: &[DegradedUnit]) -> u64 {
    let mut digest = digest;
    for unit in degraded {
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

/// A batch's pending units on one shard, FIFO in batch order. Pins the
/// epoch the batch was admitted against: the runner replays these units
/// on `slices`, so a failover swap never moves in-flight work.
struct BatchWork {
    state: Arc<BatchState>,
    units: VecDeque<Unit>,
    slices: Arc<ShardSet>,
}

/// One shard's admission queue: in-flight batches, each with its ordered
/// remaining units, the is-a-runner-scheduled flag, and the queued-unit
/// count that bounded admission gates on.
#[derive(Default)]
struct ShardQueue {
    batches: VecDeque<BatchWork>,
    running: bool,
    /// Replay units currently enqueued (not yet taken by the runner) —
    /// the depth [`ServeEngine::submit_planned_bounded`] compares against
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
    /// Page geometry the runner needs to turn degraded pages into
    /// rank-ranges.
    records_per_page: usize,
    records: usize,
}

/// Mutable replay progress of one in-flight batch.
struct BatchProgress {
    /// Units not yet replayed (0 = batch complete).
    pending_units: usize,
    /// Remaining units per query; a query completes when its count hits 0.
    units_left: Vec<usize>,
    hits: Vec<usize>,
    misses: Vec<usize>,
    /// Per-shard buffer-stat deltas attributable to this batch.
    shard_buffers: Vec<BufferStats>,
    /// Per-query completion latency (seconds since submission).
    latency: Vec<f64>,
    /// Per-query simulated fault penalty (stalls, timeouts, backoff).
    fault_us: Vec<f64>,
    /// Per-query pages not served by a healthy slice.
    degraded_pages: Vec<usize>,
    /// Degraded units with their lost rank-ranges (coverage accounting).
    degraded: Vec<DegradedUnit>,
    /// Units whose replay panicked *outside* the fault plan; surfaced as
    /// [`ServeError::ReplayPanicked`] at the waiter (never a hang).
    panicked: Vec<UnitFailure>,
}

/// Completion tracking for one submitted batch.
struct BatchState {
    started: Instant,
    progress: Mutex<BatchProgress>,
    done: Condvar,
}

impl BatchState {
    /// Fold one replayed unit into the batch's progress; wakes waiters
    /// when the last unit lands.
    fn record_unit(
        &self,
        shard: usize,
        qidx: usize,
        hits: usize,
        misses: usize,
        delta: BufferStats,
        penalty_us: f64,
    ) {
        let mut progress = self.progress.lock().expect("batch progress lock");
        progress.hits[qidx] += hits;
        progress.misses[qidx] += misses;
        progress.shard_buffers[shard].merge(&delta);
        progress.fault_us[qidx] += penalty_us;
        Self::retire(&mut progress, qidx, &self.started);
        if progress.pending_units == 0 {
            self.done.notify_all();
        }
    }

    /// A unit exhausted its retries (or was fast-failed by an open
    /// breaker): retire it as degraded, recording the rank-ranges its
    /// pages covered so the waiter's coverage report can name the loss.
    fn record_degraded(
        &self,
        qidx: usize,
        shard: usize,
        pages: usize,
        rank_ranges: Vec<(usize, usize)>,
        penalty_us: f64,
    ) {
        let mut progress = self.progress.lock().expect("batch progress lock");
        progress.fault_us[qidx] += penalty_us;
        progress.degraded_pages[qidx] += pages;
        progress.degraded.push(DegradedUnit {
            query: qidx,
            shard,
            pages,
            rank_ranges,
        });
        Self::retire(&mut progress, qidx, &self.started);
        if progress.pending_units == 0 {
            self.done.notify_all();
        }
    }

    /// A unit's replay panicked outside the fault plan: record which
    /// (query, shard) failed and still retire the unit, so waiters always
    /// wake (the failure surfaces as an error at [`BatchHandle::wait`]
    /// instead of hanging the batch).
    fn record_panic(&self, qidx: usize, shard: usize) {
        let mut progress = self.progress.lock().expect("batch progress lock");
        progress.panicked.push(UnitFailure { query: qidx, shard });
        Self::retire(&mut progress, qidx, &self.started);
        if progress.pending_units == 0 {
            self.done.notify_all();
        }
    }

    fn retire(progress: &mut BatchProgress, qidx: usize, started: &Instant) {
        progress.units_left[qidx] -= 1;
        if progress.units_left[qidx] == 0 {
            progress.latency[qidx] = started.elapsed().as_secs_f64();
        }
        progress.pending_units -= 1;
    }
}

/// What one replay unit resolved to after the retry loop.
enum UnitResult {
    Served {
        hits: usize,
        misses: usize,
        delta: BufferStats,
        penalty_us: f64,
    },
    Degraded {
        penalty_us: f64,
    },
    /// Un-modeled panic (routing bug, poisoned lock, …).
    Panicked,
}

/// Replay one unit against its batch's pinned epoch, manifesting the
/// admission-time directive: injected stalls/failures pay their simulated
/// penalty through a bounded retry/backoff loop; injected panics really
/// unwind (and are caught); fast-fails skip the shard entirely.
fn replay_unit(shared: &EngineShared, set: &ShardSet, shard_id: usize, unit: &Unit) -> UnitResult {
    let fault = match &unit.directive {
        UnitDirective::FastFail => {
            // Open breaker: don't touch the shard at all. The unit pays
            // nothing — the failure was already paid for by the units
            // that tripped the breaker.
            return UnitResult::Degraded { penalty_us: 0.0 };
        }
        UnitDirective::Serve => UnitFault::NONE,
        UnitDirective::Faulted(fault) => *fault,
    };
    let rec = &shared.recovery;
    let fail_attempts = fault.effective_fail_attempts(rec.timeout_us);
    let mut penalty_us = 0.0;
    // Bounded retry with backoff: each failed attempt pays the stall (or
    // the timeout, whichever cuts it short) plus backoff before the next
    // try. Never an unbounded loop around a faultable call.
    for attempt in 0..rec.max_attempts.max(1) {
        let last = attempt + 1 >= rec.max_attempts.max(1);
        if u64::from(attempt) < u64::from(fail_attempts) {
            if fault.panics {
                // Injected panics really unwind (and are caught right
                // here), exercising the exact seam un-modeled panics
                // travel; `resume_unwind` skips the global panic hook so
                // faulted runs stay quiet on stderr.
                let unwound = std::panic::catch_unwind(|| {
                    std::panic::resume_unwind(Box::new("injected replay-unit panic"))
                });
                debug_assert!(unwound.is_err());
            }
            if fault.fail_page != usize::MAX {
                // A `pagerr` stamp travels the *real* read path: arm the
                // shard's store and fault the page — the failure this
                // attempt pays for is a genuine typed `StorageError`
                // coming back off the storage tier, identically on
                // memory- and disk-backed slices.
                if let Ok(shard) = set.shard(shard_id).lock() {
                    shard.store().arm_read_error(fault.fail_page);
                    let read = shard.store().try_read_page(fault.fail_page);
                    debug_assert!(
                        matches!(read, Err(StorageError::Injected { .. })),
                        "armed page read must fail"
                    );
                }
            }
            penalty_us += rec.failed_attempt_us(fault.stall_us, attempt, last);
            if last {
                return UnitResult::Degraded { penalty_us };
            }
            continue;
        }
        // This attempt succeeds (after paying any sub-timeout stall).
        penalty_us += fault.stall_us.min(rec.timeout_us);
        let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut shard = set.shard(shard_id).lock().expect("shard lock");
            let before = shard.buffer_stats();
            let outcome = shard.replay(&unit.pages);
            let after = shard.buffer_stats();
            let delta = BufferStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                prefetched: after.prefetched - before.prefetched,
                prefetch_hits: after.prefetch_hits - before.prefetch_hits,
            };
            outcome.map(|(h, m)| (h, m, delta))
        }));
        return match replayed {
            Ok(Ok((hits, misses, delta))) => UnitResult::Served {
                hits,
                misses,
                delta,
                penalty_us,
            },
            // A genuine storage failure on the serving attempt —
            // corruption, truncation, a device error: no retry budget
            // fixes bad bytes, so the unit degrades (coverage names its
            // rank-ranges) instead of failing the batch.
            Ok(Err(_)) => UnitResult::Degraded { penalty_us },
            // The model checker's teardown signal is not a replay bug.
            Err(payload) if is_model_abort(&*payload) => std::panic::resume_unwind(payload),
            Err(_) => UnitResult::Panicked,
        };
    }
    UnitResult::Degraded { penalty_us }
}

/// Drain one shard's queue: repeatedly take the front batch's next unit,
/// rotate that batch to the back of the line (round-robin fairness across
/// in-flight batches), and replay the unit against the shard. Exactly one
/// runner is active per shard (the `running` flag), which is what keeps
/// each batch's units on a shard in batch order.
fn run_shard_queue(shared: &EngineShared, shard_id: usize) {
    // xtask:allow(unbounded-retry): queue-drain loop, not a retry loop —
    // each iteration consumes one queued unit and the loop exits when the
    // queue is empty; the faultable call inside is bounded by
    // `replay_unit`'s attempt budget.
    loop {
        let (state, unit, slices) = {
            let gate = &shared.queues[shard_id];
            let mut queue = gate.queue.lock().expect("shard queue lock");
            match queue.batches.pop_front() {
                None => {
                    // Queue drained; clear the flag under the same lock a
                    // submitter checks it, so no work is ever stranded.
                    queue.running = false;
                    return;
                }
                Some(mut work) => {
                    let unit = work.units.pop_front().expect("queued batches have work");
                    let state = Arc::clone(&work.state);
                    let slices = Arc::clone(&work.slices);
                    if !work.units.is_empty() {
                        queue.batches.push_back(work);
                    }
                    // Taking a unit frees one slot of the shard's bounded
                    // depth; wake any submitter blocked on space (under
                    // the same lock, so the wakeup can't be lost).
                    queue.pending_units -= 1;
                    gate.space.notify_all();
                    (state, unit, slices)
                }
            }
        };
        match replay_unit(shared, &slices, shard_id, &unit) {
            UnitResult::Served {
                hits,
                misses,
                delta,
                penalty_us,
            } => state.record_unit(shard_id, unit.qidx, hits, misses, delta, penalty_us),
            UnitResult::Degraded { penalty_us } => {
                let ranges = rank_ranges(&unit.pages, shared.records_per_page, shared.records);
                state.record_degraded(unit.qidx, shard_id, unit.pages.len(), ranges, penalty_us);
            }
            UnitResult::Panicked => {
                // An un-modeled panic (routing bug, poisoned shard lock,
                // …) must not kill the runner silently: on the pool that
                // would strand the batch (waiters hang forever) and wedge
                // the shard behind a `running` flag nobody clears. Record
                // which unit failed (the waiter surfaces it as a
                // [`ServeError`]) and mark the shard for a rebuild so the
                // fleet self-heals at the next admission boundary.
                shared.fleet.lock().expect("fleet health lock").breakers[shard_id]
                    .note_unexpected_panic();
                state.record_panic(unit.qidx, shard_id);
            }
        }
    }
}

/// A planned-and-routed batch that has **not** been admitted yet — the
/// seam streaming admission control builds on. [`ServeEngine::plan_batch`]
/// produces one; [`PlannedBatch::shard_loads`] exposes where each query's
/// pages would land (so a policy can decide to shed or block *before* any
/// work is enqueued); [`PlannedBatch::select`] drops shed queries; and
/// [`ServeEngine::submit_planned`] /
/// [`ServeEngine::submit_planned_bounded`] admit whatever remains. Plans
/// are never recomputed along the way.
pub struct PlannedBatch {
    plans: Vec<Plan>,
    routes: Vec<Route>,
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
    /// admitted query sequence.
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
        PlannedBatch { plans, routes }
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
    /// Number of queries in this batch.
    pub fn queries(&self) -> usize {
        self.plans.len()
    }

    /// True once every replay unit has completed (never blocks).
    pub fn is_complete(&self) -> bool {
        self.state
            .progress
            .lock()
            .expect("batch progress lock")
            .pending_units
            == 0
    }

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
        merge_batches(vec![self], shards, started)
    }

    /// Block until the batch completes and merge its outcomes, shard
    /// aggregates and coverage — everything but the digest, which
    /// [`merge_batches`] folds once over all the batches it drains.
    #[allow(clippy::type_complexity)]
    fn finish(
        self,
    ) -> Result<(Vec<QueryOutcome>, Vec<ShardReport>, Vec<DegradedUnit>), ServeError> {
        let BatchHandle {
            state,
            plans,
            routes,
            io,
            shards,
        } = self;
        let (
            hits,
            misses,
            shard_buffers,
            latency,
            fault_us,
            degraded_pages,
            mut degraded,
            mut panicked,
        ) = {
            let mut progress = state.progress.lock().expect("batch progress lock");
            while progress.pending_units > 0 {
                progress = state.done.wait(progress).expect("batch progress lock");
            }
            (
                std::mem::take(&mut progress.hits),
                std::mem::take(&mut progress.misses),
                std::mem::take(&mut progress.shard_buffers),
                std::mem::take(&mut progress.latency),
                std::mem::take(&mut progress.fault_us),
                std::mem::take(&mut progress.degraded_pages),
                std::mem::take(&mut progress.degraded),
                std::mem::take(&mut progress.panicked),
            )
        };
        if !panicked.is_empty() {
            panicked.sort_unstable();
            return Err(ServeError::ReplayPanicked { failures: panicked });
        }
        // Replay order is scheduling-dependent; the report is not: sort
        // coverage into (query, shard) order so degraded digests are
        // schedule-invariant.
        degraded.sort_unstable_by_key(|d| (d.query, d.shard));
        let mut shard_reports: Vec<ShardReport> = (0..shards).map(ShardReport::idle).collect();
        for route in &routes {
            for slice in &route.slices {
                let report = &mut shard_reports[slice.shard];
                report.queries += 1;
                report.pages_routed += slice.page_count;
                report.runs += slice.runs;
            }
        }
        for (shard, buffer) in shard_buffers.into_iter().enumerate() {
            shard_reports[shard].buffer = buffer;
        }
        let outcomes: Vec<QueryOutcome> = plans
            .into_iter()
            .zip(routes)
            .enumerate()
            .map(|(qidx, (plan, route))| QueryOutcome {
                results: plan.results,
                pages: route.pages,
                runs: route.runs,
                hits: hits[qidx],
                misses: misses[qidx],
                io: IoCost {
                    pages: route.pages,
                    runs: route.runs,
                    total: route.runs as f64 * io.seek_cost + route.pages as f64 * io.transfer_cost,
                },
                tree: plan.tree,
                seconds: latency[qidx],
                fault_us: fault_us[qidx],
                degraded_pages: degraded_pages[qidx],
            })
            .collect();
        Ok((outcomes, shard_reports, degraded))
    }
}

/// Drain `handles` in submission order and merge them into one report:
/// outcomes concatenate, per-shard aggregates sum, and coverage and
/// failure indices are offset from each batch's own numbering to
/// positions in the concatenation. The digest is folded once, over the
/// concatenation — by [`digest_outcomes`]'s split-invariance it equals a
/// one-shot run of the same query sequence. Every handle is drained
/// before an error is returned, so no work is left in flight.
pub(crate) fn merge_batches(
    handles: Vec<BatchHandle>,
    shards: usize,
    started: Instant,
) -> Result<BatchReport, ServeError> {
    let mut outcomes: Vec<QueryOutcome> = Vec::new();
    let mut degraded: Vec<DegradedUnit> = Vec::new();
    let mut failures: Vec<UnitFailure> = Vec::new();
    let mut shard_reports: Vec<ShardReport> = (0..shards).map(ShardReport::idle).collect();
    let mut next_base = 0usize;
    for handle in handles {
        let base = next_base;
        next_base += handle.queries();
        match handle.finish() {
            Ok((sub_outcomes, sub_shards, sub_degraded)) => {
                for sub in &sub_shards {
                    let merged = &mut shard_reports[sub.shard];
                    merged.queries += sub.queries;
                    merged.pages_routed += sub.pages_routed;
                    merged.runs += sub.runs;
                    merged.buffer.merge(&sub.buffer);
                }
                outcomes.extend(sub_outcomes);
                degraded.extend(sub_degraded.into_iter().map(|mut d| {
                    d.query += base;
                    d
                }));
            }
            Err(ServeError::ReplayPanicked { failures: sub }) => {
                failures.extend(sub.into_iter().map(|mut f| {
                    f.query += base;
                    f
                }));
            }
        }
    }
    if !failures.is_empty() {
        failures.sort_unstable();
        return Err(ServeError::ReplayPanicked { failures });
    }
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
/// Borrows the point set and order (the caller keeps ownership, exactly
/// like [`PackedRTree::pack`]); owns the shards and the worker pool, so
/// buffer pools stay warm across batches.
pub struct ServeEngine<'a> {
    points: &'a [Vec<i64>],
    order: &'a LinearOrder,
    rtree: PackedRTree<'a>,
    bounds: Mbr,
    layout: PageLayout,
    shard_map: ShardMap,
    shared: Arc<EngineShared>,
    /// The fleet-shared page placement, kept so failover can rebuild a
    /// tripped shard's slice without re-deriving it.
    placement: Arc<Vec<(usize, usize)>>,
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
        // One placement shared by the whole fleet (the store-side analogue
        // of the rank-borrowing PageMapper — no per-shard dense copies).
        let placement = slpm_storage::PageStore::placement_of(&mapper);
        let shards: Vec<Shard> = (0..cfg.shards)
            .map(|id| {
                Shard::build(
                    id,
                    &shard_map,
                    &mapper,
                    Arc::clone(&placement),
                    cfg.record_size,
                    ReadPath {
                        buffer_pages: cfg.buffer_pages,
                        readahead: cfg.readahead,
                        page_file: page_file.as_deref(),
                    },
                )
            })
            .collect::<Result<_, _>>()?;
        let bounds = Mbr::of_points(points.iter().map(|p| p.as_slice()));
        assert!(
            cfg.recovery.validate().is_ok(),
            "invalid recovery config: {}",
            cfg.recovery.validate().unwrap_err()
        );
        Ok(ServeEngine {
            points,
            order,
            rtree: PackedRTree::pack(points, order, cfg.fanout.max(2)),
            bounds,
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
                records_per_page: cfg.records_per_page,
                records: points.len(),
            }),
            placement,
            pool: (cfg.threads > 1).then(|| WorkerPool::new(cfg.threads)),
            page_file,
            cfg,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The linear order being served.
    pub fn order(&self) -> &LinearOrder {
        self.order
    }

    /// The page → shard assignment.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// Total pages of the underlying store.
    pub fn num_pages(&self) -> usize {
        self.shard_map.num_pages()
    }

    /// The engine's persistent worker pool, when pooled (`threads > 1`) —
    /// exposed so callers can borrow the same workers for eigensolver
    /// kernels via [`WorkerPool::linalg_pool`] (one pool abstraction for
    /// compute and serving).
    pub fn worker_pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
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
    /// them all concurrently, and merge the reports in submission order:
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
        let inflight = inflight.max(1).min(queries.len().max(1));
        if inflight <= 1 {
            return self.run(queries);
        }
        // xtask:allow(wall-clock): latency accounting only, excluded from digests
        let start = Instant::now();
        let chunk = queries.len().div_ceil(inflight);
        let handles: Vec<BatchHandle> = queries
            .chunks(chunk)
            .map(|c| self.submit_planned(self.plan_batch(c)))
            .collect();
        merge_batches(handles, self.cfg.shards, start)
    }

    /// Plan and route a batch **without admitting it**: the streaming
    /// admission seam. The returned [`PlannedBatch`] exposes per-query
    /// shard loads (so a policy can shed or block before any work is
    /// enqueued) and admits via [`ServeEngine::submit_planned`] or
    /// [`ServeEngine::submit_planned_bounded`] — the plans are computed
    /// exactly once either way.
    pub fn plan_batch(&self, queries: &[Query]) -> PlannedBatch {
        let (plans, routes) = self.plan_and_route(queries);
        PlannedBatch { plans, routes }
    }

    /// Admit an already-planned batch (see [`ServeEngine::plan_batch`]).
    pub fn submit_planned(&self, batch: PlannedBatch) -> BatchHandle {
        self.admit(batch, None)
    }

    /// Admit an already-planned batch under a per-shard depth bound:
    /// before enqueuing a shard's units, block until that shard's queued
    /// unit count has drained below `depth` (clamped to ≥ 1) — real
    /// backpressure, not accounting. The bound is checked at admission
    /// time, so one batch's own units may overshoot it; what it
    /// guarantees is that an unbounded stream of submitters cannot grow
    /// any queue without limit.
    ///
    /// Deadlock-free by construction: a blocked submitter holds no other
    /// shard's lock while waiting (shards are gated one at a time, in
    /// ascending id order), and runners never wait — every queued unit
    /// eventually drains and signals `space`. On a serial engine
    /// (`threads == 1`) queues are always empty between submissions, so
    /// the bound never blocks.
    pub fn submit_planned_bounded(&self, batch: PlannedBatch, depth: usize) -> BatchHandle {
        self.admit(batch, Some(depth.max(1)))
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
        let replacements: Vec<(usize, Shard)> = pending
            .into_iter()
            .map(|id| {
                let fresh = Shard::build(
                    id,
                    &self.shard_map,
                    &mapper,
                    Arc::clone(&self.placement),
                    self.cfg.record_size,
                    ReadPath {
                        buffer_pages: self.cfg.buffer_pages,
                        readahead: self.cfg.readahead,
                        page_file: self.page_file.as_deref(),
                    },
                )
                // The file opened at engine construction; failing to
                // reopen it mid-failover is an environment change no
                // rebuild can paper over.
                .expect("rebuild reopens the page file the engine started with");
                (id, fresh)
            })
            .collect();
        let mut slices = self.shared.slices.lock().expect("shard slices lock");
        *slices = Arc::new(slices.with_replacements(replacements));
    }

    /// The shared enqueue path behind [`ServeEngine::submit_planned`]
    /// (`depth: None`) and [`ServeEngine::submit_planned_bounded`].
    fn admit(&self, batch: PlannedBatch, depth: Option<usize>) -> BatchHandle {
        // xtask:allow(wall-clock): latency accounting only, excluded from digests
        let started = Instant::now();
        let PlannedBatch { plans, mut routes } = batch;
        let queries = plans.len();

        // Failover happens at admission boundaries: swap in rebuilt
        // slices for any shard whose breaker requested one, *before*
        // this batch pins its epoch. In-flight batches keep draining the
        // old epoch's `Arc`.
        self.install_rebuilds();
        let slices = Arc::clone(&*self.shared.slices.lock().expect("shard slices lock"));

        // Build the per-shard unit queues, each in batch (query) order.
        // Page lists move out of the routes (page_count stays behind for
        // the merge), so only one copy exists while the batch is in
        // flight. Fault/breaker verdicts are stamped here — serially,
        // under one fleet lock, in query order within each shard — so
        // resolution depends only on the admission sequence, never on
        // replay scheduling.
        let mut per_shard: Vec<VecDeque<Unit>> =
            (0..self.cfg.shards).map(|_| VecDeque::new()).collect();
        let mut units_left = vec![0usize; queries];
        {
            let mut fleet = self.shared.fleet.lock().expect("fleet health lock");
            let rec = self.shared.recovery;
            for (qidx, route) in routes.iter_mut().enumerate() {
                units_left[qidx] = route.slices.len();
                for slice in &mut route.slices {
                    let pages = std::mem::take(&mut slice.pages);
                    let directive = fleet.stamp_unit(slice.shard, &pages, &rec);
                    per_shard[slice.shard].push_back(Unit {
                        qidx,
                        pages,
                        directive,
                    });
                }
            }
        }
        let pending_units: usize = units_left.iter().sum();
        let state = Arc::new(BatchState {
            started,
            progress: Mutex::new(BatchProgress {
                pending_units,
                units_left,
                hits: vec![0; queries],
                misses: vec![0; queries],
                shard_buffers: vec![BufferStats::default(); self.cfg.shards],
                latency: vec![0.0; queries],
                fault_us: vec![0.0; queries],
                degraded_pages: vec![0; queries],
                degraded: Vec::new(),
                panicked: Vec::new(),
            }),
            done: Condvar::new(),
        });

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
            // handle is already complete (and replay order is the batch
            // order — the deterministic buffer-accounting baseline).
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
        let rpp = self.layout.records_per_page;
        let shard_map = self.shard_map;
        let plan_route = |q: &Query| {
            let plan = self.plan(q);
            let route = route_query(
                &plan.results,
                plan.rank_ordered,
                self.order.ranks(),
                rpp,
                &shard_map,
            );
            (plan, route)
        };
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
                        let pr = &plan_route;
                        Box::new(move || {
                            for (slot, q) in out.iter_mut().zip(qs) {
                                *slot = Some(pr(q));
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
            _ => queries.iter().map(plan_route).unzip(),
        }
    }

    /// Plan one query against the R-tree.
    fn plan(&self, query: &Query) -> Plan {
        match query {
            Query::Range(mbr) => {
                let (results, tree) = self.rtree.range_query_ordered(mbr);
                Plan {
                    results,
                    rank_ordered: true,
                    tree,
                }
            }
            Query::Knn { center, k } => {
                let (results, tree) = match self.cfg.knn_planner {
                    KnnPlanner::BestFirst => self.rtree.knn_best_first(center, *k),
                    KnnPlanner::ExpandingBall => self.knn_expanding(center, *k),
                };
                Plan {
                    results,
                    rank_ordered: false,
                    tree,
                }
            }
        }
    }

    /// The baseline exact kNN probe under the Chebyshev (L∞) metric: grow
    /// a box of radius `r` around the centre (doubling) until it holds
    /// ≥ `k` points or covers the data bounds — under L∞ the box of
    /// radius `r` *is* the metric ball, so once `k` candidates are inside
    /// the `k` nearest are among them. Node costs accumulate over the
    /// expansion rounds (re-visits are genuinely re-paid, as an iterative
    /// server would; [`QueryCost::absorb`] saturates rather than
    /// overflowing on adversarial workloads). The query box is allocated
    /// once and resized in place across rounds.
    fn knn_expanding(&self, center: &[i64], k: usize) -> (Vec<usize>, QueryCost) {
        let mut tree = QueryCost::ZERO;
        let k = k.min(self.points.len());
        if k == 0 {
            return (Vec::new(), tree);
        }
        let mut radius: i64 = 1;
        let mut query = Mbr {
            lo: center.to_vec(),
            hi: center.to_vec(),
        };
        // xtask:allow(unbounded-retry): radius doubling over a finite grid —
        // the query window covers the whole space within log2(extent) passes,
        // at which point every candidate is found and the loop breaks.
        loop {
            for d in 0..center.len() {
                query.lo[d] = center[d] - radius;
                query.hi[d] = center[d] + radius;
            }
            let (ids, cost) = self.rtree.range_query_ordered(&query);
            tree.absorb(&cost);
            let covers_all = query.lo.iter().zip(&self.bounds.lo).all(|(q, b)| q <= b)
                && query.hi.iter().zip(&self.bounds.hi).all(|(q, b)| q >= b);
            if ids.len() >= k || covers_all {
                let mut scored: Vec<(i64, usize)> = ids
                    .into_iter()
                    .map(|id| (chebyshev(center, &self.points[id]), id))
                    .collect();
                scored.sort_unstable();
                scored.truncate(k);
                let results: Vec<usize> = scored.into_iter().map(|(_, id)| id).collect();
                tree.results = results.len();
                return (results, tree);
            }
            radius *= 2;
        }
    }
}

/// Route one query's result ids to pages and shard slices — a pure
/// function of the rank array, page size and shard map.
fn route_query(
    ids: &[usize],
    rank_ordered: bool,
    ranks: &[usize],
    records_per_page: usize,
    shard_map: &ShardMap,
) -> Route {
    let mut pages: Vec<usize> = ids.iter().map(|&id| ranks[id] / records_per_page).collect();
    if !rank_ordered {
        pages.sort_unstable();
    }
    pages.dedup();
    let runs = count_runs(&pages);
    let mut slices: Vec<ShardSlice> = Vec::new();
    for &page in &pages {
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
    fn knn_results_match_brute_force_under_both_planners() {
        let (points, order) = small_engine();
        for planner in [KnnPlanner::BestFirst, KnnPlanner::ExpandingBall] {
            let cfg = EngineConfig {
                records_per_page: 4,
                fanout: 4,
                knn_planner: planner,
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
                assert_eq!(got, &want, "planner {planner} center {center:?} k {k}");
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
    }

    #[test]
    fn planners_agree_on_results_and_digest_but_not_cost() {
        let (points, order) = small_engine();
        let base = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            ..Default::default()
        };
        // kNN probes whose first unit-radius ball is far short of k, so
        // the expanding ball needs several doubling rounds (re-paying the
        // root path each time) while best-first still visits each node at
        // most once.
        let mut qs = queries();
        qs.push(Query::Knn {
            center: vec![0, 0],
            k: 30,
        });
        qs.push(Query::Knn {
            center: vec![7, 0],
            k: 20,
        });
        let best = ServeEngine::new(
            &points,
            &order,
            EngineConfig {
                knn_planner: KnnPlanner::BestFirst,
                ..base
            },
        )
        .run(&qs)
        .expect("no replay panic");
        let ball = ServeEngine::new(
            &points,
            &order,
            EngineConfig {
                knn_planner: KnnPlanner::ExpandingBall,
                ..base
            },
        )
        .run(&qs)
        .expect("no replay panic");
        assert_eq!(best.digest, ball.digest);
        let mut best_nodes = 0usize;
        let mut ball_nodes = 0usize;
        for (b, e) in best.outcomes.iter().zip(&ball.outcomes) {
            assert_eq!(b.results, e.results);
            assert_eq!(b.pages, e.pages);
            best_nodes += b.tree.nodes_visited;
            ball_nodes += e.tree.nodes_visited;
        }
        // The kNN query re-pays nodes under the expanding ball.
        assert!(
            best_nodes < ball_nodes,
            "best-first {best_nodes} vs expanding-ball {ball_nodes}"
        );
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
        assert!(handles.iter().all(|h| h.queries() == qs.len()));
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
        // `pending_units` starts at 0, so the handle must already be
        // complete and wait() must return without ever touching the pool.
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
                    assert_eq!(handle.queries(), 0);
                    assert!(handle.is_complete(), "no units means nothing pending");
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
        let state = Arc::new(BatchState {
            started: Instant::now(),
            progress: Mutex::new(BatchProgress {
                pending_units: 1,
                units_left: vec![1],
                hits: vec![0],
                misses: vec![0],
                shard_buffers: vec![BufferStats::default(); 2],
                latency: vec![0.0],
                fault_us: vec![0.0],
                degraded_pages: vec![0],
                degraded: Vec::new(),
                panicked: Vec::new(),
            }),
            done: Condvar::new(),
        });
        let mut units = VecDeque::new();
        units.push_back(Unit {
            qidx: 0,
            pages: vec![usize::MAX],
            directive: UnitDirective::Serve,
        });
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
        // Total distinct-page touches must equal what PageStore::serve_query
        // would read per query on the full store.
        let (points, order) = small_engine();
        let cfg = EngineConfig {
            records_per_page: 4,
            fanout: 4,
            shards: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&queries()).expect("no replay panic");
        let layout = PageLayout::new(4);
        let mapper = PageMapper::new(&order, layout);
        let store = slpm_storage::PageStore::build(&mapper, order.len(), 8);
        for (q, outcome) in queries().iter().zip(&report.outcomes) {
            let sorted_ids = {
                let mut ids = outcome.results.clone();
                ids.sort_unstable();
                ids
            };
            let direct = store.serve_query(sorted_ids.iter().copied());
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
        assert!(report.latency_quantile(0.99) >= report.latency_quantile(0.5));
        assert_eq!(
            BatchReport {
                outcomes: Vec::new(),
                shards: Vec::new(),
                elapsed_seconds: 0.0,
                digest: 0,
                coverage: CoverageReport::default(),
            }
            .latency_quantile(0.5),
            0.0
        );
    }

    #[test]
    fn quantiles_and_throughput_helpers() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.5), 7);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.99), 4);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.0), 1);
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
        assert!(report.page_quantile(0.99) >= report.page_quantile(0.5));
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
                        .submit_planned_bounded(engine.plan_batch(&qs), 1)
                        .wait()
                        .expect("no replay panic");
                    assert_eq!(bounded.digest, reference.digest);
                    // Queues fully drained afterwards.
                    assert!(engine.queue_depths().iter().all(|&d| d == 0));
                    // Selecting a prefix equals running the prefix alone.
                    let keep: Vec<bool> = (0..qs.len()).map(|i| i < 2).collect();
                    let selected = engine.plan_batch(&qs).select(&keep);
                    assert_eq!(selected.len(), 2);
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
                    .map(|c| engine.submit_planned_bounded(engine.plan_batch(c), 1))
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

    #[test]
    fn planner_parse_and_display() {
        assert_eq!(KnnPlanner::parse("best-first"), Some(KnnPlanner::BestFirst));
        assert_eq!(KnnPlanner::parse("BF"), Some(KnnPlanner::BestFirst));
        assert_eq!(
            KnnPlanner::parse("expanding-ball"),
            Some(KnnPlanner::ExpandingBall)
        );
        assert_eq!(KnnPlanner::parse("Ball"), Some(KnnPlanner::ExpandingBall));
        assert_eq!(KnnPlanner::parse("dijkstra"), None);
        assert_eq!(KnnPlanner::BestFirst.to_string(), "best-first");
        assert_eq!(KnnPlanner::ExpandingBall.to_string(), "expanding-ball");
    }
}
