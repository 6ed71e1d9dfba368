//! The engine's batch-aware replay, end to end.
//!
//! * `disk_and_memory_engines_agree_with_the_reference_policy` (property
//!   test): for random pool capacities (1 up to a shard's size), readahead
//!   windows 0–8, shard counts, both partitions, thread counts and batches
//!   of range and kNN queries, a disk-backed and a memory-backed engine
//!   report identical digests, per-query pages, runs, hits and misses, and
//!   per-shard `BufferStats`. A naive model of the sweep — per batch and
//!   shard, the pages resident at the start hits, then the distinct
//!   non-resident ones in ascending order, consecutive ones grouped into
//!   runs of at most `min(1 + readahead, capacity)`, over an LRU pool
//!   kept as a list —
//!   predicts every query's hits and misses and every shard's
//!   `BufferStats`. Each batch reads every distinct page it finds
//!   non-resident exactly once: a cold first batch reads each distinct
//!   page of a shard once.
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

/// A naive model of one shard's pool under the engine's sweep.
struct ModelShard {
    /// The most pages one read fetches.
    max_run: usize,
    capacity: usize,
    /// Resident pages, least recently used first, each with whether
    /// readahead brought it in and no access has touched it since.
    frames: Vec<(usize, bool)>,
    stats: BufferStats,
}

impl ModelShard {
    fn new(capacity: usize, readahead: usize) -> Self {
        ModelShard {
            max_run: (1 + readahead).min(capacity),
            capacity,
            frames: Vec::new(),
            stats: BufferStats::default(),
        }
    }

    fn resident(&self, page: usize) -> bool {
        self.frames.iter().any(|f| f.0 == page)
    }

    /// One access to a resident page: a hit, and the page becomes the
    /// most recently used.
    fn hit(&mut self, page: usize) {
        let at = self
            .frames
            .iter()
            .position(|f| f.0 == page)
            .expect("resident");
        let (_, prefetched) = self.frames.remove(at);
        self.stats.hits += 1;
        self.stats.prefetch_hits += usize::from(prefetched);
        self.frames.push((page, false));
    }

    /// Sweep one batch's units `(query, pages)` (in query order) and
    /// return each unit's `(query, hits, misses)` and the pages read.
    fn replay_batch(
        &mut self,
        units: &[(usize, Vec<usize>)],
    ) -> (Vec<(usize, usize, usize)>, usize) {
        let mut distinct: Vec<usize> = units.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut out: Vec<(usize, usize, usize)> = units.iter().map(|(q, _)| (*q, 0, 0)).collect();
        let needing = |page: usize| -> Vec<usize> {
            (0..units.len())
                .filter(|&u| units[u].1.contains(&page))
                .collect()
        };
        // Pages resident when the sweep starts are hits, touched unit by
        // unit.
        distinct.retain(|&page| !self.resident(page));
        for (u, (_, pages)) in units.iter().enumerate() {
            for &page in pages {
                if !distinct.contains(&page) {
                    self.hit(page);
                    out[u].1 += 1;
                }
            }
        }
        // The missing pages come in capped runs of consecutive ids.
        let mut i = 0;
        while i < distinct.len() {
            let page = distinct[i];
            let mut len = 1;
            while len < self.max_run && i + len < distinct.len() && distinct[i + len] == page + len
            {
                len += 1;
            }
            for k in 0..len {
                if self.frames.len() == self.capacity {
                    self.frames.remove(0);
                    self.stats.evictions += 1;
                }
                self.frames.push((page + k, k > 0));
                self.stats.prefetched += usize::from(k > 0);
                for (j, u) in needing(page + k).into_iter().enumerate() {
                    if k == 0 && j == 0 {
                        self.stats.misses += 1;
                        out[u].2 += 1;
                    } else {
                        self.hit(page + k);
                        out[u].1 += 1;
                    }
                }
            }
            i += len;
        }
        let read = distinct.len();
        (out, read)
    }
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
        // shard's buffer accounting.
        let mut want = vec![(0usize, 0usize); batch.len()];
        for (shard, units) in routed(&m, &order, &map).into_iter().enumerate() {
            let before = model[shard].stats;
            let (per_unit, read) = model[shard].replay_batch(&units);
            for (q, hits, misses) in per_unit {
                want[q].0 += hits;
                want[q].1 += misses;
            }
            let after = model[shard].stats;
            let got = m.shards[shard].buffer;
            prop_assert_eq!(
                got,
                BufferStats {
                    hits: after.hits - before.hits,
                    misses: after.misses - before.misses,
                    evictions: after.evictions - before.evictions,
                    prefetched: after.prefetched - before.prefetched,
                    prefetch_hits: after.prefetch_hits - before.prefetch_hits,
                },
                "batch {} shard {}",
                b,
                shard
            );
            // Every page the sweep found missing is read exactly once: a
            // positional read per run, a page per run member.
            prop_assert_eq!(
                got.misses + got.prefetched,
                read,
                "batch {} shard {}",
                b,
                shard
            );
            if b == 0 {
                let mut distinct: Vec<usize> = units.into_iter().flat_map(|(_, p)| p).collect();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(
                    got.misses + got.prefetched,
                    distinct.len(),
                    "cold batch, shard {}",
                    shard
                );
            }
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
