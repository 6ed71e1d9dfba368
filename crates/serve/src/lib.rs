//! `slpm_serve` — the sharded, batched query-serving engine.
//!
//! The paper's point is that a spectral linear order makes *query
//! serving* cheap: range and nearest-neighbour queries touch few,
//! contiguous pages. This crate is the layer that actually serves those
//! queries at scale, turning the reproduction's artifacts
//! ([`spectral_lpm::LinearOrder`] → [`slpm_storage::PageMapper`] →
//! [`slpm_storage::PackedRTree`] / [`slpm_storage::PageStore`] →
//! [`slpm_storage::BufferPool`]) into a concurrent engine:
//!
//! * [`pool`] — a persistent [`pool::WorkerPool`]: long-lived threads fed
//!   by the `crossbeam` shim's MPMC channels, amortising the per-call
//!   spawn cost that dominates scoped threads below ~64k work items. Via
//!   [`pool::WorkerPool::linalg_pool`] the same workers also run the
//!   eigensolver's chunked kernels (`slpm_linalg::ScopeExecutor`) — one
//!   pool abstraction for compute and serving.
//! * [`shard`] — partitioning one order's pages across shards
//!   ([`shard::Partition::Contiguous`] rank ranges, or the declustered
//!   [`shard::Partition::RoundRobin`] reusing
//!   [`slpm_storage::decluster`]), each shard owning a
//!   [`slpm_storage::PageStore`] slice plus its own LRU buffer pool.
//! * [`engine`] — the batch executor: plan each query on the packed
//!   R-tree (range scans plus a best-first branch-and-bound kNN planner,
//!   [`engine::KnnPlanner`]), admit any number of concurrent batches
//!   through per-shard FIFO queues with round-robin fairness
//!   ([`engine::ServeEngine::submit_planned`] / [`engine::BatchHandle`]), and
//!   merge outcomes in deterministic query order with I/O-cost, buffer,
//!   latency and shard-balance accounting.
//! * [`workload`] — reproducible mixed range/kNN batches built on
//!   [`slpm_querysim::workloads::sample_boxes`], plus hot-spot (Zipf)
//!   batches ([`workload::zipf_workload`]) for skew studies.
//! * [`fault`] / [`health`] — the fault plane and its recovery layer:
//!   seeded, deterministic [`fault::FaultPlan`]s (stalls, transient and
//!   permanent shard failures, replay-unit panics, page-read errors)
//!   stamped at admission and manifested at the replay seam; per-shard
//!   circuit breakers ([`health::BreakerState`]) with bounded
//!   retry/backoff, and failover by rebuilding a tripped shard's slice
//!   under an epoch-swapped [`shard::ShardSet`]. Faulted runs stay
//!   reproducible: fault-free queries are bitwise identical to an
//!   unfaulted run, and degraded coverage has a schedule-invariant
//!   digest.
//! * [`arrival`] — open-loop arrival processes on a simulated clock
//!   (deterministic rate, seeded Poisson, bursty on/off, diurnal ramp),
//!   turning a batch workload into timed offered traffic.
//! * [`stream`] — the streaming admission loop: micro-batch arrivals
//!   under a batching-delay window, shed or block against a bounded
//!   per-shard queue depth ([`stream::AdmissionPolicy`]), execute on the
//!   engine, and account per-query admission-to-completion latency into
//!   an SLO report ([`stream::SloReport`]: p50/p99/p999 vs. target,
//!   violation %, shed counts per class, max queue depth).
//!
//! **The serving contract:** result sets, page counts, run counts and the
//! batch digest are bitwise identical for every shard count, thread
//! count, kNN planner and in-flight batch count — scheduling moves work,
//! never answers.
//!
//! ```
//! use slpm_serve::engine::{EngineConfig, ServeEngine};
//! use slpm_serve::workload::{grid_points, mixed_workload, WorkloadConfig};
//! use slpm_graph::grid::GridSpec;
//! use spectral_lpm::LinearOrder;
//!
//! let spec = GridSpec::cube(16, 2);
//! let points = grid_points(&spec);
//! let order = LinearOrder::identity(points.len());
//! let engine = ServeEngine::new(
//!     &points,
//!     &order,
//!     EngineConfig { shards: 2, threads: 2, ..Default::default() },
//! );
//! let batch = mixed_workload(&spec, &WorkloadConfig { queries: 32, ..Default::default() });
//! let report = engine.run(&batch).expect("no replay unit panicked");
//! assert_eq!(report.outcomes.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod fault;
pub mod health;
pub mod pool;
pub mod shard;
pub mod stream;
pub mod testing;
pub mod workload;

pub use arrival::{ArrivalConfig, ArrivalShape};
pub use engine::{
    digest_outcomes, digest_with_coverage, BatchHandle, BatchReport, CoverageReport, DegradedUnit,
    EngineConfig, KnnPlanner, LatencySummary, PlannedBatch, Query, QueryOutcome, ServeEngine,
    ShardReport,
};
pub use fault::{Fault, FaultKind, FaultParseError, FaultPlan, ServeError, UnitFailure};
pub use health::{BreakerSnapshot, BreakerState, RecoveryConfig};
pub use pool::WorkerPool;
pub use shard::{Partition, Shard, ShardMap, ShardSet};
pub use stream::{
    stream_serve, AdmissionPolicy, ServiceModel, SloReport, StreamConfig, StreamReport,
};
pub use workload::{
    grid_points, mixed_workload, mixed_workload_labeled, zipf_workload, WorkloadConfig, ZipfConfig,
};
