//! The engine's batch-aware replay, end to end.
//!
//! * `disk_and_memory_engines_agree_with_the_reference_policy` (property
//!   test): for random pool capacities (1 up to a shard's size), readahead
//!   windows 0–8, shard counts, both partitions, thread counts and batches
//!   of range and kNN queries, a disk-backed and a memory-backed engine
//!   report identical digests, per-query pages, runs, hits and misses, and
//!   per-shard `BufferStats`. A naive model of the policy — each shard's
//!   units sorted by (first page, query) when its pool can evict, and an
//!   O(n²) search for the resident page used furthest ahead — predicts
//!   every query's hits and misses and every shard's prefetch count. With
//!   readahead off, the first batch's misses equal Belady's MIN over each
//!   shard's sorted sequence.
//! * `fresh_engines_over_one_page_file_repeat_their_counters`: two fresh
//!   engines given the same batches report identical buffer accounting,
//!   so nothing that decides an eviction depends on addresses, hashing or
//!   timing.

use proptest::prelude::*;
use slpm_graph::grid::GridSpec;
use slpm_serve::engine::{BatchReport, EngineConfig, Query, ServeEngine};
use slpm_serve::workload::{grid_points, mixed_workload, WorkloadConfig};
use slpm_serve::{Partition, ShardMap};
use slpm_storage::{write_page_file, BufferStats, Mbr, PageLayout, PageMapper};
use spectral_lpm::LinearOrder;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const W: usize = 12;
const H: usize = 10;
const RECORDS_PER_PAGE: usize = 4;
const RECORD_SIZE: usize = 16;

/// A page file removed when the test ends.
struct TempFile(PathBuf);

impl TempFile {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("slpm-replay-policy-{}-{n}.pages", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    scrambled: bool,
    shards: usize,
    round_robin: bool,
    threads: usize,
    /// Pool capacity as a fraction of the largest shard, in 1/8ths (0 = 1
    /// frame).
    pool_eighths: usize,
    readahead: usize,
    batches: Vec<Vec<Query>>,
}

fn query() -> impl Strategy<Value = Query> {
    let (w, h) = (W as i64, H as i64);
    prop_oneof![
        (0..w, 0..h, 0..w, 0..h).prop_map(|(x0, y0, x1, y1)| Query::Range(Mbr {
            lo: vec![x0.min(x1), y0.min(y1)],
            hi: vec![x0.max(x1), y0.max(y1)],
        })),
        (0..w, 0..h, 1usize..=16).prop_map(|(x, y, k)| Query::Knn {
            center: vec![x, y],
            k
        }),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let batch = proptest::collection::vec(query(), 1..=16);
    (
        (0u8..2, 1usize..=3, 0u8..2, 1usize..=2),
        (0usize..=8, 0usize..=8),
        proptest::collection::vec(batch, 1..=3),
    )
        .prop_map(
            |((scrambled, shards, round_robin, threads), (pool_eighths, readahead), batches)| {
                Scenario {
                    scrambled: scrambled == 1,
                    shards,
                    round_robin: round_robin == 1,
                    threads,
                    pool_eighths,
                    readahead,
                    batches,
                }
            },
        )
}

/// A naive model of one shard's pool under the engine's replay policy.
struct ModelShard {
    capacity: usize,
    readahead: usize,
    /// Resident pages: (page, last touch, prefetched and untouched since,
    /// batch of the last touch).
    frames: Vec<(usize, u64, bool, usize)>,
    clock: u64,
    stats: BufferStats,
}

impl ModelShard {
    fn new(capacity: usize, readahead: usize) -> Self {
        ModelShard {
            capacity,
            readahead,
            frames: Vec::new(),
            clock: 0,
            stats: BufferStats::default(),
        }
    }

    /// Replay one batch's units `(query, pages)` (in query order) and
    /// return each unit's `(query, hits, misses)`. A pool that can evict
    /// replays the units sorted by (first page, query) and evicts the
    /// page whose next access in that sequence is furthest — a page not
    /// touched yet in this batch has no known next use — breaking ties by
    /// the oldest touch; a pool that cannot evict replays in query order.
    fn replay_batch(
        &mut self,
        batch: usize,
        mut units: Vec<(usize, Vec<usize>)>,
        shard_pages: usize,
    ) -> Vec<(usize, usize, usize)> {
        let planned = shard_pages > self.capacity;
        if planned {
            units.sort_by_key(|(q, pages)| (pages[0], *q));
        }
        let sequence: Vec<usize> = units.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let mut out = Vec::new();
        let mut at = 0;
        for (q, pages) in &units {
            let (mut hits, mut misses) = (0, 0);
            for (i, &page) in pages.iter().enumerate() {
                let now = at + i;
                self.clock += 1;
                if let Some(f) = self.frames.iter_mut().find(|f| f.0 == page) {
                    hits += 1;
                    self.stats.hits += 1;
                    if f.2 {
                        f.2 = false;
                        self.stats.prefetch_hits += 1;
                    }
                    (f.1, f.3) = (self.clock, batch);
                    continue;
                }
                misses += 1;
                self.stats.misses += 1;
                self.admit(page, false, batch, planned.then_some((&sequence[..], now)));
                let budget = self.readahead.min(self.capacity - 1);
                let mut count = 0;
                while count < budget
                    && i + 1 + count < pages.len()
                    && pages[i + 1 + count] == page + 1 + count
                    && !self.frames.iter().any(|f| f.0 == page + 1 + count)
                {
                    count += 1;
                }
                for k in 0..count {
                    self.clock += 1;
                    self.stats.prefetched += 1;
                    let plan = planned.then_some((&sequence[..], now));
                    self.admit(page + 1 + k, true, batch, plan);
                }
            }
            at += pages.len();
            out.push((*q, hits, misses));
        }
        out
    }

    /// Admit `page`, evicting when full; `plan` is the batch's sequence
    /// and the position of the access being served.
    fn admit(
        &mut self,
        page: usize,
        prefetched: bool,
        batch: usize,
        plan: Option<(&[usize], usize)>,
    ) {
        if self.frames.len() == self.capacity {
            let next_use = |f: &(usize, u64, bool, usize)| match plan {
                Some((sequence, now)) if f.3 == batch => (now + 1..sequence.len())
                    .find(|&j| sequence[j] == f.0)
                    .unwrap_or(usize::MAX),
                _ => usize::MAX,
            };
            let victim = (0..self.frames.len())
                .max_by_key(|&v| {
                    (
                        next_use(&self.frames[v]),
                        std::cmp::Reverse(self.frames[v].1),
                    )
                })
                .expect("a full pool has frames");
            self.frames.swap_remove(victim);
            self.stats.evictions += 1;
        }
        self.frames.push((page, self.clock, prefetched, batch));
    }
}

/// Belady's MIN over one access sequence from a cold pool: its misses.
fn belady_misses(sequence: &[usize], capacity: usize) -> usize {
    let mut resident: Vec<usize> = Vec::new();
    let mut misses = 0;
    for (now, &page) in sequence.iter().enumerate() {
        if resident.contains(&page) {
            continue;
        }
        misses += 1;
        if resident.len() == capacity {
            let next = |p: usize| {
                (now + 1..sequence.len())
                    .find(|&j| sequence[j] == p)
                    .unwrap_or(usize::MAX)
            };
            let victim = (0..resident.len())
                .max_by_key(|&v| next(resident[v]))
                .expect("a full pool has pages");
            resident.swap_remove(victim);
        }
        resident.push(page);
    }
    misses
}

/// Each query's routed page list on every shard: `(shard, query, pages)`
/// with pages ascending, derived from the answers.
fn routed(
    report: &BatchReport,
    order: &LinearOrder,
    map: &ShardMap,
) -> Vec<Vec<(usize, Vec<usize>)>> {
    let mut per_shard = vec![Vec::new(); map.shards()];
    for (q, outcome) in report.outcomes.iter().enumerate() {
        let mut pages: Vec<usize> = outcome
            .results
            .iter()
            .map(|&id| order.rank_of(id) / RECORDS_PER_PAGE)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        for s in 0..map.shards() {
            let mine: Vec<usize> = pages
                .iter()
                .copied()
                .filter(|&p| map.shard_of(p) == s)
                .collect();
            if !mine.is_empty() {
                per_shard[s].push((q, mine));
            }
        }
    }
    per_shard
}

fn check(s: &Scenario) {
    let spec = GridSpec::new(&[W, H]);
    let points = grid_points(&spec);
    let n = points.len();
    let order = if s.scrambled {
        LinearOrder::from_ranks((0..n).map(|v| v * 7 % n).collect()).unwrap()
    } else {
        LinearOrder::identity(n)
    };
    let mapper = PageMapper::new(&order, PageLayout::new(RECORDS_PER_PAGE));
    let partition = if s.round_robin {
        Partition::RoundRobin
    } else {
        Partition::Contiguous
    };
    let map = ShardMap::new(s.shards, mapper.num_pages(), partition);
    let largest = (0..s.shards).map(|id| map.page_count(id)).max().unwrap();
    let buffer_pages = (largest * s.pool_eighths / 8).max(1);
    let cfg = EngineConfig {
        records_per_page: RECORDS_PER_PAGE,
        record_size: RECORD_SIZE,
        fanout: RECORDS_PER_PAGE,
        shards: s.shards,
        threads: s.threads,
        partition,
        buffer_pages,
        readahead: s.readahead,
        ..EngineConfig::default()
    };
    let file = TempFile::new();
    write_page_file(&file.0, &mapper, RECORD_SIZE).unwrap();
    let memory = ServeEngine::new(&points, &order, cfg);
    let disk = ServeEngine::with_page_file(&points, &order, cfg, file.0.clone()).unwrap();
    let mut model: Vec<ModelShard> = (0..s.shards)
        .map(|_| ModelShard::new(buffer_pages, s.readahead))
        .collect();

    for (b, batch) in s.batches.iter().enumerate() {
        let m = memory.run(batch).expect("memory batch");
        let d = disk.run(batch).expect("disk batch");
        prop_assert_eq!(m.digest, d.digest, "batch {}", b);
        for (q, (mo, dq)) in m.outcomes.iter().zip(&d.outcomes).enumerate() {
            prop_assert_eq!(&mo.results, &dq.results, "batch {} query {}", b, q);
            prop_assert_eq!(
                (mo.pages, mo.runs, mo.hits, mo.misses),
                (dq.pages, dq.runs, dq.hits, dq.misses),
                "batch {} query {}: (pages, runs, hits, misses)",
                b,
                q
            );
        }
        for (ms, ds) in m.shards.iter().zip(&d.shards) {
            prop_assert_eq!(ms.buffer, ds.buffer, "batch {} shard {}", b, ms.shard);
        }

        // The model predicts every query's hits and misses, and each
        // shard's prefetches.
        let mut want = vec![(0usize, 0usize); batch.len()];
        for (shard, units) in routed(&m, &order, &map).into_iter().enumerate() {
            if b == 0 && s.readahead == 0 {
                // A cold pool with no readahead: Belady's MIN over the
                // sorted sequence (a pool holding its whole shard misses
                // each distinct page once, in any order).
                let mut sorted = units.clone();
                sorted.sort_by_key(|(q, pages)| (pages[0], *q));
                let sequence: Vec<usize> = sorted.into_iter().flat_map(|(_, p)| p).collect();
                prop_assert_eq!(
                    m.shards[shard].buffer.misses,
                    belady_misses(&sequence, buffer_pages),
                    "shard {}: Belady's MIN",
                    shard
                );
            }
            let before = model[shard].stats;
            let pages = map.page_count(shard);
            for (q, hits, misses) in model[shard].replay_batch(b, units, pages) {
                want[q].0 += hits;
                want[q].1 += misses;
            }
            let after = model[shard].stats;
            prop_assert_eq!(
                m.shards[shard].buffer.prefetched,
                after.prefetched - before.prefetched,
                "batch {} shard {}: prefetched",
                b,
                shard
            );
            prop_assert_eq!(
                m.shards[shard].buffer.evictions,
                after.evictions - before.evictions,
                "batch {} shard {}: evictions",
                b,
                shard
            );
        }
        for (q, o) in m.outcomes.iter().enumerate() {
            prop_assert_eq!((o.hits, o.misses), want[q], "batch {} query {}", b, q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disk_and_memory_engines_agree_with_the_reference_policy(s in scenario()) {
        check(&s);
    }
}

#[test]
fn fresh_engines_over_one_page_file_repeat_their_counters() {
    // The disk workload's geometry at a smaller grid: two shards, pools of
    // 1/16 of a shard's pages, readahead 8, 64-query batches.
    let spec = GridSpec::new(&[64, 48]);
    let points = grid_points(&spec);
    let order =
        LinearOrder::from_ranks((0..points.len()).map(|v| (v * 97) % points.len()).collect())
            .unwrap();
    let mapper = PageMapper::new(&order, PageLayout::new(16));
    let shard_pages = mapper.num_pages().div_ceil(2);
    let file = TempFile::new();
    write_page_file(&file.0, &mapper, RECORD_SIZE).unwrap();
    let workload = mixed_workload(
        &spec,
        &WorkloadConfig {
            queries: 256,
            seed: 29,
            knn_every: 4,
            k: 12,
        },
    );
    let counters = |threads: usize| {
        let cfg = EngineConfig {
            records_per_page: 16,
            record_size: RECORD_SIZE,
            fanout: 16,
            shards: 2,
            threads,
            buffer_pages: shard_pages.div_ceil(16),
            readahead: 8,
            ..EngineConfig::default()
        };
        let engine = ServeEngine::with_page_file(&points, &order, cfg, file.0.clone()).unwrap();
        workload
            .chunks(64)
            .map(|batch| {
                let r = engine.run(batch).expect("batch");
                let per_query: Vec<(usize, usize)> =
                    r.outcomes.iter().map(|o| (o.hits, o.misses)).collect();
                let per_shard: Vec<BufferStats> = r.shards.iter().map(|s| s.buffer).collect();
                (per_query, per_shard)
            })
            .collect::<Vec<_>>()
    };
    let first = counters(1);
    assert_eq!(first, counters(1));
    assert_eq!(first, counters(2));
    // The pools are small enough that the batches evict and prefetch.
    let total = first
        .iter()
        .flat_map(|(_, s)| s)
        .fold(BufferStats::default(), |mut t, s| {
            t.merge(s);
            t
        });
    assert!(total.evictions > 0 && total.prefetched > 0, "{total:?}");
}
