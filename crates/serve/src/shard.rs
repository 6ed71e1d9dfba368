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

use crossbeam::sync::{Arc, Mutex};
use slpm_storage::decluster::Declustering;
use slpm_storage::{
    BufferPool, BufferStats, Bytes, BytesMut, PageMapper, PageStore, RoundRobin, StorageError,
    NO_NEXT_USE,
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
    /// Readahead window: pages of a miss's monotone run prefetched per
    /// demand miss. `0` = off.
    pub readahead: usize,
    /// Disk page file to read through, or `None` for in-memory payloads.
    pub page_file: Option<&'a Path>,
}

/// Where one replay unit sits in its batch's access sequence on a shard
/// — the batch's plan that [`Shard::replay`] hands to the [`BufferPool`].
#[derive(Clone, Copy, Debug)]
pub struct Lookahead<'a> {
    /// The batch's admission number.
    pub batch: u64,
    /// Position of the unit's first access in the batch's sequence.
    pub start: u32,
    /// For each page of the unit, the position of that page's next access
    /// in the batch's sequence ([`NO_NEXT_USE`] when there is none).
    pub next_use: &'a [u32],
}

/// One shard: a slice of the page store plus its private buffer pool.
pub struct Shard {
    id: usize,
    store: PageStore,
    buffer: BufferPool,
    /// Readahead window: on a demand miss, up to this many following
    /// pages of the miss's monotone run are prefetched. `0` = off.
    readahead: usize,
    /// Buffers of evicted frames the pool held the only handle to: the
    /// next reads fill them instead of allocating.
    spares: Vec<BytesMut>,
    /// The buffer prefetch runs are read into before their pages are
    /// copied out, kept at its largest length.
    staging: BytesMut,
    /// `(batch, position)` at which the pool's plan continues, when the
    /// last replayed unit followed one to its end.
    cursor: Option<(u64, u32)>,
}

impl Shard {
    /// Build shard `id` of the map: a [`PageStore`] over the owned pages
    /// and a fresh buffer pool sized by the [`ReadPath`].
    ///
    /// With `read_path.page_file: Some(path)` the slice opens the disk
    /// page file at `path` instead of materialising payloads — same
    /// bytes, same accounting, reads fault frames off disk.
    /// `read_path.readahead` sets the run-prefetch window (pages per
    /// demand miss; `0` disables).
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
        Ok(Shard {
            id,
            store,
            buffer: BufferPool::new(read_path.buffer_pages.max(1)),
            readahead: read_path.readahead,
            spares: Vec::new(),
            staging: BytesMut::new(),
            cursor: None,
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

    /// Replay one query's page list against this shard: pages served from
    /// the pool are hits; misses fault their payload from the store
    /// (counted reads) and, with readahead on, pull the next pages of the
    /// miss's monotone run into the pool ahead of demand. Returns
    /// `(hits, misses)`; storage failures (disk errors, corruption,
    /// injected faults) surface as typed [`StorageError`]s. Reads fill the
    /// buffers of evicted frames the pool held the only handle to, so
    /// once the pool is full, no read allocates a page buffer.
    ///
    /// With a [`Lookahead`], every access tells the pool where its page is
    /// needed next in the batch, and a readahead frame is marked with the
    /// position of its use later in this unit, so a full pool evicts the
    /// frame used furthest ahead. The pool follows one batch's plan unit
    /// by unit: a unit that does not continue where the last one left off
    /// (the first of a batch, or one after a skipped or failed unit)
    /// first drops the known next uses. Without one, every next use is
    /// unknown and the pool evicts by LRU.
    ///
    /// Replay order is the caller's — the engine hands each shard its
    /// units of a batch in a fixed order, which is what makes hit/miss
    /// accounting reproducible for every thread count. The prefetcher is
    /// deterministic too (it looks only at the page list and pool
    /// residency), so accounting stays bitwise identical between memory-
    /// and disk-backed slices.
    pub fn replay(
        &mut self,
        pages: &[usize],
        plan: Option<Lookahead<'_>>,
    ) -> Result<(usize, usize), StorageError> {
        let at = plan.map(|p| (p.batch, p.start));
        if self.cursor != at {
            self.buffer.forget_plan();
        }
        self.cursor = None;
        let next_use = |i: usize| plan.map_or(NO_NEXT_USE, |p| p.next_use[i]);
        let mut hits = 0;
        let mut misses = 0;
        for (i, &page) in pages.iter().enumerate() {
            if self.buffer.get(page, next_use(i)).is_some() {
                hits += 1;
                continue;
            }
            misses += 1;
            // An unowned page is a routing bug in the caller, not a
            // storage condition: keep the panicking contract (the engine
            // catches it and surfaces the lost unit). Everything else —
            // disk errors, corruption, injected faults — is typed.
            let bytes = match self.store.read_page(page, self.spares.pop()) {
                Ok(bytes) => bytes,
                Err(e @ StorageError::PageNotOwned { .. }) => panic!("{e}"),
                Err(e) => return Err(e),
            };
            let gone = self.buffer.admit(page, bytes, next_use(i));
            self.recycle(gone);
            if self.readahead > 0 {
                self.prefetch_run(pages, i, plan)?;
            }
        }
        self.cursor = plan.map(|p| (p.batch, p.start + pages.len() as u32));
        Ok((hits, misses))
    }

    /// Extend the demand miss at `pages[i]` into its monotone run: the
    /// linear order already sorted each query's shard list, so pages that
    /// follow contiguously in the list are contiguous **on disk** — one
    /// [`PageStore::read_run`] (one positional read) fetches them
    /// all. The window stops at the readahead budget, at the first gap in
    /// the run, at the first already-resident page, and always below the
    /// pool capacity. Each run page is next needed where the list uses it.
    fn prefetch_run(
        &mut self,
        pages: &[usize],
        i: usize,
        plan: Option<Lookahead<'_>>,
    ) -> Result<(), StorageError> {
        let budget = self.readahead.min(self.buffer.capacity().saturating_sub(1));
        let start = pages[i] + 1;
        let mut count = 0;
        for &q in &pages[i + 1..] {
            if count == budget || q != start + count || self.buffer.is_resident(q) {
                break;
            }
            count += 1;
        }
        if count == 0 {
            return Ok(());
        }
        let run = self
            .store
            .read_run(start, count, &mut self.staging, &mut self.spares)?;
        for (k, bytes) in run.into_iter().enumerate() {
            let use_at = plan.map_or(NO_NEXT_USE, |p| p.start + (i + 1 + k) as u32);
            let gone = self.buffer.admit_prefetch(start + k, bytes, use_at);
            self.recycle(gone);
        }
        Ok(())
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
        let (h, m) = shard.replay(&[0, 1, 0], None).unwrap();
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
        let (h0, m0) = plain.replay(&[2, 3, 4, 5], None).unwrap();
        assert_eq!((h0, m0), (0, 4));
        assert_eq!(plain.buffer_stats().prefetched, 0);
        // Readahead 3: the first miss prefetches the rest of the run, so
        // the remaining touches are hits — all of them prefetch hits.
        let mut ahead = build(3);
        let (h1, m1) = ahead.replay(&[2, 3, 4, 5], None).unwrap();
        assert_eq!((h1, m1), (3, 1));
        let stats = ahead.buffer_stats();
        assert_eq!(stats.prefetched, 3);
        assert_eq!(stats.prefetch_hits, 3);
        // Same total storage reads either way: readahead moves reads into
        // runs, it does not add any on a fully-consumed sweep.
        assert_eq!(ahead.storage_reads(), plain.storage_reads());
        // A gap breaks the run: page 7 is not prefetched from the 2..=5 run.
        let mut gap = build(8);
        let (_, m2) = gap.replay(&[0, 1, 7], None).unwrap();
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
            shard.replay(&[1, 2], None).unwrap_err(),
            StorageError::Injected { page: 2 }
        );
        // The failed page never entered the pool; a retry reads it fresh.
        let (h, m) = shard.replay(&[1, 2], None).unwrap();
        assert_eq!((h, m), (1, 1));
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
        let _ = set.shard(1).lock().unwrap().replay(&[2, 3], None);
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
