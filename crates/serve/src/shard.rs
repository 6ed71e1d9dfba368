//! Sharding the page store: partitioning one linear order's pages.
//!
//! A shard owns a subset of the global pages (a [`slpm_storage::PageStore`]
//! built over its owned page ids) plus its own [`BufferPool`]. Two
//! placements are provided:
//!
//! * [`Partition::Contiguous`] — shard `s` owns one contiguous run of
//!   page ids. With a locality-preserving order a query's pages are
//!   consecutive, so most queries hit **one** shard and read it
//!   sequentially — the clustering story of the paper, sharded.
//! * [`Partition::RoundRobin`] — page `p` lives on shard `p mod S`,
//!   reusing [`slpm_storage::decluster::RoundRobin`]: consecutive pages
//!   spread across *all* shards, so one query fans out S-ways — the
//!   paper's declustering use-case, where per-query parallelism is worth
//!   more than per-shard sequentiality.
//!
//! Shard placement never changes *what* is read (global page ids and
//! record bytes are shard-invariant); it only changes *where* the reads
//! land, which is exactly what the engine's parity guarantees rely on.
//!
//! A shard serves a batch's units as **one ascending page sweep**
//! ([`Shard::replay`]): each distinct page is visited once and serves
//! every unit that needs it, and each maximal run of consecutive pages
//! the LRU pool lacks, `min(1 + readahead, buffer_pages)` at most, is one
//! positional read. With a contiguous partition a locality-preserving
//! order turns a batch's pages into few, long runs.

use crossbeam::sync::{Arc, Mutex};
use slpm_storage::decluster::Declustering;
use slpm_storage::{
    BufferPool, BufferStats, Bytes, BytesMut, PageMapper, PageStore, RoundRobin, StorageError,
};
use std::fmt;
use std::path::Path;

/// How global pages are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Contiguous, balanced runs of page ids per shard.
    Contiguous,
    /// Declustered: page `p` on shard `p mod S` ([`RoundRobin`]).
    RoundRobin,
}

impl Partition {
    /// Parse a partition name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "contiguous" | "range" => Partition::Contiguous,
            "round-robin" | "roundrobin" | "rr" => Partition::RoundRobin,
            _ => return None,
        })
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Partition::Contiguous => "contiguous",
            Partition::RoundRobin => "round-robin",
        })
    }
}

/// The page → shard assignment for one store geometry.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    shards: usize,
    num_pages: usize,
    partition: Partition,
    /// Contiguous split: the first `rem` shards own `base + 1` pages.
    base: usize,
    rem: usize,
}

impl ShardMap {
    /// Assign `num_pages` global pages to `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(shards: usize, num_pages: usize, partition: Partition) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardMap {
            shards,
            num_pages,
            partition,
            base: num_pages / shards,
            rem: num_pages % shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total pages assigned.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// The placement policy.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Shard owning global page `page`.
    ///
    /// # Panics
    /// Panics on a page id outside the map.
    pub fn shard_of(&self, page: usize) -> usize {
        assert!(page < self.num_pages, "page {page} out of range");
        match self.partition {
            Partition::Contiguous => {
                // First `rem` shards own `base + 1` pages each.
                let wide = self.rem * (self.base + 1);
                if page < wide {
                    page / (self.base + 1)
                } else {
                    self.rem + (page - wide) / self.base
                }
            }
            Partition::RoundRobin => RoundRobin::new(self.shards).disk_of(page),
        }
    }

    /// Global page ids owned by `shard`, ascending.
    pub fn pages_of(&self, shard: usize) -> Vec<usize> {
        let len = self.page_count(shard);
        match self.partition {
            Partition::Contiguous => {
                let start = shard * self.base + shard.min(self.rem);
                (start..start + len).collect()
            }
            Partition::RoundRobin => (shard..).step_by(self.shards).take(len).collect(),
        }
    }

    /// Number of pages `shard` owns.
    pub fn page_count(&self, shard: usize) -> usize {
        assert!(shard < self.shards, "shard {shard} out of range");
        match self.partition {
            Partition::Contiguous => self.base + usize::from(shard < self.rem),
            Partition::RoundRobin => self.num_pages.saturating_sub(shard).div_ceil(self.shards),
        }
    }
}

/// How a shard reads its pages: pool size, readahead window, and the
/// optional disk page file to fault frames from.
#[derive(Clone, Copy, Debug)]
pub struct ReadPath<'a> {
    /// Buffer pool capacity in pages (clamped to at least 1).
    pub buffer_pages: usize,
    /// Readahead window: how many pages may follow a run's first page in
    /// one read. `0` = every page is its own read.
    pub readahead: usize,
    /// Disk page file to read through, or `None` for in-memory payloads.
    pub page_file: Option<&'a Path>,
}

/// What one unit of a [`Shard::replay`] sweep came to: its share of the
/// pool's counters, or the error of a page it needs.
pub type UnitReplay = Result<BufferStats, StorageError>;

/// One shard: a slice of the page store plus its private buffer pool.
pub struct Shard {
    id: usize,
    store: PageStore,
    buffer: BufferPool,
    /// The most pages one read fetches: `1 + readahead`, capped at the
    /// pool's capacity so a whole run fits in the pool.
    max_run: usize,
    /// Buffers of evicted frames the pool held the only handle to: the
    /// next reads fill them instead of allocating.
    spares: Vec<BytesMut>,
    /// The buffer runs are read into before their pages are copied out,
    /// kept at its largest length.
    staging: BytesMut,
    /// A sweep's accesses as `(page, unit)`, kept between sweeps.
    accesses: Vec<(usize, u32)>,
}

impl Shard {
    /// Build shard `id` of the map: a [`PageStore`] over the owned pages
    /// and a fresh buffer pool sized by the [`ReadPath`].
    ///
    /// With `read_path.page_file: Some(path)` the slice opens the disk
    /// page file at `path` instead of materialising payloads — same
    /// bytes, same accounting, reads fault frames off disk.
    /// `read_path.readahead` sets how many pages may follow a run's first
    /// page in one read (`0` disables).
    pub fn build(
        id: usize,
        map: &ShardMap,
        mapper: &PageMapper,
        record_size: usize,
        read_path: ReadPath<'_>,
    ) -> Result<Self, StorageError> {
        let owned = map.pages_of(id);
        let store = match read_path.page_file {
            None => PageStore::in_memory(mapper, record_size, &owned),
            Some(path) => PageStore::open(path, mapper, record_size, &owned)?,
        };
        let capacity = read_path.buffer_pages.max(1);
        Ok(Shard {
            id,
            store,
            buffer: BufferPool::new(capacity),
            max_run: read_path.readahead.saturating_add(1).min(capacity),
            spares: Vec::new(),
            staging: BytesMut::new(),
            accesses: Vec::new(),
        })
    }

    /// Shard id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The underlying store slice.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Serve a batch's units as **one ascending page sweep**: `units[u]`
    /// is unit `u`'s page list, and entry `u` of the result is its share
    /// of the pool's counters, or the error of a page it needs.
    ///
    /// A page resident when the sweep starts is a hit for every unit that
    /// needs it (touched in `units` order). The sweep then visits the
    /// distinct pages the pool lacks in ascending order, and each serves
    /// every unit that needs it. Each maximal run of consecutive missing
    /// pages, `1 + readahead` at most and never more than the pool holds,
    /// is **one** read ([`PageStore::read_run`], or
    /// [`PageStore::read_page`] for a lone page), and its pages are
    /// admitted to the pool. A run's first page is a miss charged to the
    /// first unit, in `units` order, that needs it; a page behind it is
    /// `prefetched` and a `prefetch_hit` for its first unit; every other
    /// access is a hit. So `misses` counts positional reads,
    /// `misses + prefetched` counts pages read, and no page is read twice
    /// in one sweep.
    ///
    /// A run whose read fails is read again page by page, so a page that
    /// cannot be read (a disk error, corruption, an injected fault) fails
    /// exactly the units that need it with its typed [`StorageError`],
    /// and never enters the pool. An unowned page is a routing bug in the
    /// caller, not a storage condition, and panics.
    ///
    /// Reads fill the buffers of evicted frames the pool held the only
    /// handle to, so once the pool is full no single-page read allocates
    /// a page buffer. The sweep looks only at the page lists and at pool
    /// residency, so accounting is bitwise identical between memory- and
    /// disk-backed slices; the engine hands each shard a batch's units in
    /// query order, which makes it repeat at every thread count.
    pub fn replay(&mut self, units: &[&[usize]]) -> Vec<UnitReplay> {
        let mut out: Vec<UnitReplay> = vec![Ok(BufferStats::default()); units.len()];
        // Pages resident when the sweep starts are hits; the accesses to
        // the missing ones are sorted into the sweep's page order.
        let mut accesses = std::mem::take(&mut self.accesses);
        accesses.clear();
        for (unit, pages) in (0u32..).zip(units) {
            let before = self.buffer.stats();
            for &page in pages.iter() {
                if self.buffer.is_resident(page) {
                    let _ = self.buffer.get(page);
                } else {
                    accesses.push((page, unit));
                }
            }
            self.charge(&mut out, unit, before);
        }
        accesses.sort_unstable();
        let mut at = 0;
        while at < accesses.len() {
            let (start, first) = accesses[at];
            let (mut count, mut end) = (1, group_end(&accesses, at));
            while count < self.max_run && end < accesses.len() && accesses[end].0 == start + count {
                end = group_end(&accesses, end);
                count += 1;
            }
            let before = self.buffer.stats();
            let _ = self.buffer.get(start); // the run's miss
            self.charge(&mut out, first, before);
            for (k, read) in self.read_run(start, count).into_iter().enumerate() {
                let end = group_end(&accesses, at);
                let group = &accesses[at..end];
                at = end;
                let bytes = match read {
                    Ok(bytes) => bytes,
                    Err(e @ StorageError::PageNotOwned { .. }) => panic!("{e}"),
                    Err(e) => {
                        for &(_, unit) in group {
                            out[unit as usize] = Err(e.clone());
                        }
                        continue;
                    }
                };
                let before = self.buffer.stats();
                let gone = if k == 0 {
                    self.buffer.admit(start, bytes)
                } else {
                    self.buffer.admit_prefetch(start + k, bytes)
                };
                self.recycle(gone);
                self.charge(&mut out, group[0].1, before);
                // The run's first page already counted its first access.
                self.touch(&group[usize::from(k == 0)..], &mut out);
            }
        }
        self.accesses = accesses;
        out
    }

    /// Read `count` pages from `start` with one read; when that fails,
    /// read them one by one, so each page carries its own outcome.
    fn read_run(&mut self, start: usize, count: usize) -> Vec<Result<Bytes, StorageError>> {
        let run = match count {
            1 => self
                .store
                .read_page(start, self.spares.pop())
                .map(|b| vec![b]),
            _ => self
                .store
                .read_run(start, count, &mut self.staging, &mut self.spares),
        };
        match run {
            Ok(pages) => pages.into_iter().map(Ok).collect(),
            Err(e) if count == 1 => vec![Err(e)],
            Err(_) => (start..start + count)
                .map(|page| self.store.read_page(page, self.spares.pop()))
                .collect(),
        }
    }

    /// Demand-access a resident page once per access of `group`, charging
    /// each hit to its unit.
    fn touch(&mut self, group: &[(usize, u32)], out: &mut [UnitReplay]) {
        for &(page, unit) in group {
            let before = self.buffer.stats();
            let _ = self.buffer.get(page);
            self.charge(out, unit, before);
        }
    }

    /// Add the pool's counters since `before` to `unit`'s share (a unit
    /// that already failed keeps its error).
    fn charge(&self, out: &mut [UnitReplay], unit: u32, before: BufferStats) {
        if let Ok(share) = &mut out[unit as usize] {
            let now = self.buffer.stats();
            share.merge(&BufferStats {
                hits: now.hits - before.hits,
                misses: now.misses - before.misses,
                evictions: now.evictions - before.evictions,
                prefetched: now.prefetched - before.prefetched,
                prefetch_hits: now.prefetch_hits - before.prefetch_hits,
            });
        }
    }

    /// Keep a payload the pool let go of for the next read, when the pool
    /// held its only handle.
    fn recycle(&mut self, gone: Option<Bytes>) {
        if let Some(buf) = gone.and_then(|bytes| bytes.try_into_mut().ok()) {
            self.spares.push(buf);
        }
    }

    /// Cumulative buffer statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffer.stats()
    }

    /// Pages read from backing storage (demand misses + prefetches).
    pub fn storage_reads(&self) -> usize {
        self.store.total_reads()
    }
}

/// The end of the accesses to the page of `accesses[at]` (sorted by page).
fn group_end(accesses: &[(usize, u32)], at: usize) -> usize {
    let page = accesses[at].0;
    at + accesses[at..].iter().take_while(|a| a.0 == page).count()
}

/// One **epoch** of the fleet: a versioned, immutable set of shard
/// slices. The engine publishes the current `Arc<ShardSet>` behind a
/// lock and every admitted batch captures the set it was routed against,
/// so a failover swap (rebuilding a tripped shard's rank-range on a
/// fresh slice and publishing `epoch + 1`) never disturbs in-flight
/// batches: they drain against their own epoch's slices while new
/// admissions route to the rebuilt one. Because pages are read-only, a
/// rebuilt slice *is* a replica — same bytes, fresh buffer pool, fresh
/// (unpoisoned) lock.
pub struct ShardSet {
    epoch: u64,
    shards: Vec<Arc<Mutex<Shard>>>,
}

impl ShardSet {
    /// Epoch 0: the fleet as first built.
    pub fn new(shards: Vec<Shard>) -> Self {
        ShardSet {
            epoch: 0,
            shards: shards
                .into_iter()
                .map(|s| Arc::new(Mutex::new(s)))
                .collect(),
        }
    }

    /// This set's epoch (bumped by one per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shard slices.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True on an empty fleet (never built by the engine).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Handle to one shard's slice.
    pub fn shard(&self, id: usize) -> &Arc<Mutex<Shard>> {
        &self.shards[id]
    }

    /// The next epoch with `replacements` swapped in: healthy shards are
    /// shared by `Arc` (no copies), each replaced id gets its fresh
    /// slice. This is the atomic failover step — callers publish the
    /// returned set under the engine's slice lock.
    pub fn with_replacements(&self, replacements: Vec<(usize, Shard)>) -> ShardSet {
        let mut shards: Vec<Arc<Mutex<Shard>>> = self.shards.iter().map(Arc::clone).collect();
        for (id, fresh) in replacements {
            shards[id] = Arc::new(Mutex::new(fresh));
        }
        ShardSet {
            epoch: self.epoch + 1,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_storage::PageLayout;
    use spectral_lpm::LinearOrder;

    /// Replay one unit alone: its `(hits, misses)`, or its error.
    fn replay_one(shard: &mut Shard, pages: &[usize]) -> Result<(usize, usize), StorageError> {
        let [unit] = <[UnitReplay; 1]>::try_from(shard.replay(&[pages])).expect("one unit");
        unit.map(|s| (s.hits, s.misses))
    }

    /// In-memory [`ReadPath`] with the given pool size and readahead.
    fn mem_pool(buffer_pages: usize, readahead: usize) -> ReadPath<'static> {
        ReadPath {
            buffer_pages,
            readahead,
            page_file: None,
        }
    }

    #[test]
    fn contiguous_partition_is_balanced_and_exhaustive() {
        // 10 pages over 4 shards: 3, 3, 2, 2.
        let map = ShardMap::new(4, 10, Partition::Contiguous);
        let sizes: Vec<usize> = (0..4).map(|s| map.pages_of(s).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // pages_of and shard_of agree, and runs are contiguous.
        for s in 0..4 {
            let pages = map.pages_of(s);
            for w in pages.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
            for &p in &pages {
                assert_eq!(map.shard_of(p), s);
            }
        }
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn round_robin_partition_matches_modulo() {
        let map = ShardMap::new(3, 10, Partition::RoundRobin);
        for p in 0..10 {
            assert_eq!(map.shard_of(p), p % 3);
        }
        assert_eq!(map.pages_of(1), vec![1, 4, 7]);
    }

    #[test]
    fn more_shards_than_pages() {
        let map = ShardMap::new(5, 3, Partition::Contiguous);
        for p in 0..3 {
            assert_eq!(map.shard_of(p), p);
        }
        assert!(map.pages_of(4).is_empty());
        let rr = ShardMap::new(5, 3, Partition::RoundRobin);
        assert_eq!(rr.pages_of(4), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardMap::new(0, 4, Partition::Contiguous);
    }

    #[test]
    fn single_shard_owns_everything() {
        for partition in [Partition::Contiguous, Partition::RoundRobin] {
            let map = ShardMap::new(1, 7, partition);
            assert_eq!(map.pages_of(0), (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_replay_counts_hits_and_storage_reads() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4)); // 4 pages
        let map = ShardMap::new(2, mapper.num_pages(), Partition::Contiguous);
        let mut shard = Shard::build(0, &map, &mapper, 8, mem_pool(8, 0)).unwrap();
        // Shard 0 owns pages {0, 1}.
        let (h, m) = replay_one(&mut shard, &[0, 1, 0]).unwrap();
        assert_eq!((h, m), (1, 2));
        assert_eq!(shard.storage_reads(), 2); // only misses hit the store
        assert_eq!(shard.buffer_stats().hits, 1);
        assert_eq!(shard.id(), 0);
        assert_eq!(
            shard.store().read_page(2, None).unwrap_err(),
            StorageError::PageNotOwned { page: 2 }
        );
    }

    #[test]
    fn readahead_turns_run_misses_into_prefetch_hits() {
        let order = LinearOrder::identity(32);
        let mapper = PageMapper::new(&order, PageLayout::new(4)); // 8 pages
        let map = ShardMap::new(1, mapper.num_pages(), Partition::Contiguous);
        let build =
            |readahead: usize| Shard::build(0, &map, &mapper, 8, mem_pool(8, readahead)).unwrap();
        // An ordered sweep of a 4-page run, readahead off: 4 demand misses.
        let mut plain = build(0);
        let (h0, m0) = replay_one(&mut plain, &[2, 3, 4, 5]).unwrap();
        assert_eq!((h0, m0), (0, 4));
        assert_eq!(plain.buffer_stats().prefetched, 0);
        // Readahead 3: the first miss reads the rest of the run with it,
        // so the remaining touches are hits — all of them prefetch hits.
        let mut ahead = build(3);
        let (h1, m1) = replay_one(&mut ahead, &[2, 3, 4, 5]).unwrap();
        assert_eq!((h1, m1), (3, 1));
        let stats = ahead.buffer_stats();
        assert_eq!(stats.prefetched, 3);
        assert_eq!(stats.prefetch_hits, 3);
        // Same total storage reads either way: readahead moves reads into
        // runs, it does not add any on a fully-consumed sweep.
        assert_eq!(ahead.storage_reads(), plain.storage_reads());
        // A gap breaks the run: page 7 is not prefetched from the 2..=5 run.
        let mut gap = build(8);
        let (_, m2) = replay_one(&mut gap, &[0, 1, 7]).unwrap();
        assert_eq!(m2, 2); // 0 misses+prefetches 1, 7 misses separately
        assert_eq!(gap.buffer_stats().prefetched, 1);
    }

    #[test]
    fn replay_surfaces_typed_storage_errors() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let map = ShardMap::new(1, mapper.num_pages(), Partition::Contiguous);
        let mut shard = Shard::build(0, &map, &mapper, 8, mem_pool(8, 0)).unwrap();
        shard.store().arm_read_error(2);
        assert_eq!(
            replay_one(&mut shard, &[1, 2]).unwrap_err(),
            StorageError::Injected { page: 2 }
        );
        // The failed page never entered the pool; a retry reads it fresh.
        let (h, m) = replay_one(&mut shard, &[1, 2]).unwrap();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn a_sweep_reads_each_needed_page_once_in_capped_runs() {
        let order = LinearOrder::identity(64);
        let mapper = PageMapper::new(&order, PageLayout::new(4)); // 16 pages
        let map = ShardMap::new(1, mapper.num_pages(), Partition::Contiguous);
        // Readahead 8, but a 3-frame pool: runs of at most 3 pages.
        let mut shard = Shard::build(0, &map, &mapper, 8, mem_pool(3, 8)).unwrap();
        let units: [&[usize]; 3] = [&[4, 5, 6, 7], &[0, 5], &[6, 9]];
        let out = shard.replay(&units);
        // Distinct pages 0, 4..=7, 9: runs [0], [4, 5, 6], [7], [9] are
        // four reads of six pages. Unit 0 meets 4 first (a miss), then 5
        // and 6 behind it (prefetch hits) and 7 (a miss); unit 1 owns the
        // miss on 0 and hits 5; unit 2 hits 6 and misses 9.
        let shares: Vec<(usize, usize, usize, usize)> = out
            .into_iter()
            .map(|u| u.map(|s| (s.hits, s.misses, s.prefetched, s.prefetch_hits)))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(shares, vec![(2, 2, 2, 2), (1, 1, 0, 0), (1, 1, 0, 0)]);
        let stats = shard.buffer_stats();
        assert_eq!((stats.misses, stats.prefetched), (4, 2));
        assert_eq!(shard.storage_reads(), 6);
        // A second sweep finds the last three pages resident.
        let again = shard.replay(&[&[6, 7, 9]]);
        assert_eq!(again[0].as_ref().unwrap().hits, 3);
        assert_eq!(shard.storage_reads(), 6);
    }

    #[test]
    fn a_failed_page_fails_only_the_units_that_need_it() {
        let order = LinearOrder::identity(32);
        let mapper = PageMapper::new(&order, PageLayout::new(4)); // 8 pages
        let map = ShardMap::new(1, mapper.num_pages(), Partition::Contiguous);
        let mut shard = Shard::build(0, &map, &mapper, 8, mem_pool(8, 0)).unwrap();
        shard.store().arm_read_error(3);
        let units: [&[usize]; 3] = [&[2, 3], &[1, 2], &[3, 4]];
        let out = shard.replay(&units);
        assert_eq!(out[0], Err(StorageError::Injected { page: 3 }));
        assert_eq!(out[2], Err(StorageError::Injected { page: 3 }));
        let served = out[1].as_ref().unwrap();
        assert_eq!((served.hits, served.misses), (1, 1));
        assert!(!shard.buffer.is_resident(3) && shard.buffer.is_resident(4));
    }

    #[test]
    fn shard_set_swaps_epochs_and_shares_healthy_slices() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let map = ShardMap::new(2, mapper.num_pages(), Partition::Contiguous);
        let build = |id: usize| Shard::build(id, &map, &mapper, 8, mem_pool(8, 0)).unwrap();
        let set = ShardSet::new(vec![build(0), build(1)]);
        assert_eq!(set.epoch(), 0);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        // Warm shard 1's pool, then swap shard 0 out.
        let _ = set.shard(1).lock().unwrap().replay(&[&[2, 3]]);
        let next = set.with_replacements(vec![(0, build(0))]);
        assert_eq!(next.epoch(), 1);
        // The healthy slice is the *same* object (Arc-shared)…
        assert!(Arc::ptr_eq(set.shard(1), next.shard(1)));
        // …while the rebuilt slice is fresh: cold pool, zero reads.
        assert!(!Arc::ptr_eq(set.shard(0), next.shard(0)));
        assert_eq!(next.shard(0).lock().unwrap().storage_reads(), 0);
        assert_eq!(next.shard(1).lock().unwrap().storage_reads(), 2);
    }

    #[test]
    fn partition_parse_and_display() {
        assert_eq!(Partition::parse("contiguous"), Some(Partition::Contiguous));
        assert_eq!(Partition::parse("RR"), Some(Partition::RoundRobin));
        assert_eq!(Partition::parse("Round-Robin"), Some(Partition::RoundRobin));
        assert_eq!(Partition::parse("hashed"), None);
        assert_eq!(Partition::Contiguous.to_string(), "contiguous");
        assert_eq!(Partition::RoundRobin.to_string(), "round-robin");
    }
}
