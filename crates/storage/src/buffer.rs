//! A byte-owning LRU buffer pool over the page store.
//!
//! Locality pays twice: once in fewer pages per query, and again in cache
//! hits across *successive* queries — nearby queries touch overlapping page
//! sets. The buffer pool makes the second effect measurable *and physical*:
//! frames own their page payloads (capacity-bounded, LRU-evicted), so with
//! a disk-backed store a miss is a real read and a hit really avoids one.
//!
//! Every operation is O(1) and none walks the resident frames: a page-id
//! index (4 bytes per page id up to the largest one admitted) finds a
//! page's frame, and an intrusive doubly linked recency list keeps the
//! frames in LRU order — a touch moves its frame to the head, and the
//! victim is always the tail. The frame table grows only as pages are
//! admitted, so memory is bounded by the resident frames, not by the
//! configured capacity.
//!
//! Readahead is accounted separately: pages that arrive behind the first
//! page of one run read (see `slpm_serve`'s shard sweep) are admitted
//! with [`BufferPool::admit_prefetch`] (counted as `prefetched`, **not**
//! as demand misses), and the first demand access that lands on such a
//! frame counts both a `hit` and a `prefetch_hit` — so
//! `prefetch_hits / prefetched` reads off directly how much of the
//! speculation paid.

use bytes::Bytes;

/// The empty marker of the page index and of the recency-list links.
const NONE: u32 = u32::MAX;

/// Statistics of a buffer-pool run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Page requests served from the pool.
    pub hits: usize,
    /// Page requests that had to go to storage.
    pub misses: usize,
    /// Pages evicted to make room.
    pub evictions: usize,
    /// Pages admitted speculatively by readahead.
    pub prefetched: usize,
    /// Demand hits whose frame was brought in by readahead — the subset of
    /// `hits` that would have been `misses` without prefetch.
    pub prefetch_hits: usize,
}

impl BufferStats {
    /// Total page requests (hits + misses).
    pub fn accesses(&self) -> usize {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`. Guarded against the zero-access case: a run
    /// that never touched the pool reports `0.0`, not `NaN` — callers
    /// aggregating per-shard ratios (some shards may receive no queries)
    /// rely on this.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of speculatively admitted pages that served a demand hit,
    /// in `[0, 1]`; `0.0` when nothing was prefetched.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetched == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetched as f64
        }
    }

    /// Accumulate another run's counters into this one — used to fold
    /// per-shard pool statistics into a fleet-wide total.
    pub fn merge(&mut self, other: &BufferStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.prefetched += other.prefetched;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// One resident page: its id, payload, whether it is an as-yet-untouched
/// readahead admission, and its neighbours in the recency list.
#[derive(Debug)]
struct Frame {
    page: usize,
    bytes: Bytes,
    prefetched: bool,
    /// The next more recently used frame (`NONE` at the head).
    newer: u32,
    /// The next less recently used frame (`NONE` at the tail).
    older: u32,
}

/// A fixed-capacity, byte-owning LRU buffer pool.
///
/// Frames hold the actual page payloads, so the pool's memory footprint is
/// genuinely bounded by `min(capacity, pages admitted) · page_size` — with
/// a disk-backed [`crate::store::PageStore`] this is the only place cold
/// page bytes live. `get`, `admit`, `admit_prefetch`, `is_resident` and
/// eviction each take constant time. (Callers that only want residency
/// accounting can use [`BufferPool::access`], which admits empty payloads.)
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Resident frames; a victim's slot is reused by the page evicting it.
    frames: Vec<Frame>,
    /// Page id → frame slot (`NONE` = not resident).
    slot_of: Vec<u32>,
    /// Most recently used frame (`NONE` when empty).
    head: u32,
    /// Least recently used frame, the next victim (`NONE` when empty).
    tail: u32,
    stats: BufferStats,
}

impl BufferPool {
    /// Create a pool with room for `capacity` pages. Nothing is allocated
    /// up front: frames are added as pages are admitted.
    ///
    /// # Panics
    /// Panics on zero capacity (a configuration bug).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::new(),
            slot_of: Vec::new(),
            head: NONE,
            tail: NONE,
            stats: BufferStats::default(),
        }
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Demand-access a page: on a hit, returns the resident payload (and
    /// counts a `prefetch_hit` too if readahead brought the frame in); on
    /// a miss returns `None` — the caller reads storage and
    /// [`BufferPool::admit`]s.
    pub fn get(&mut self, page: usize) -> Option<&Bytes> {
        let Some(slot) = self.slot(page) else {
            self.stats.misses += 1;
            return None;
        };
        self.make_head(slot);
        self.stats.hits += 1;
        let frame = &mut self.frames[slot as usize];
        if frame.prefetched {
            frame.prefetched = false;
            self.stats.prefetch_hits += 1;
        }
        Some(&frame.bytes)
    }

    /// Admit a page read on demand (after a [`BufferPool::get`] miss, which
    /// already counted it), evicting the LRU frame when full. Returns the
    /// payload the pool let go of — the evicted frame's, or the replaced
    /// one when `page` was already resident — so a caller holding its only
    /// handle can reuse the buffer for its next read.
    pub fn admit(&mut self, page: usize, bytes: Bytes) -> Option<Bytes> {
        self.insert(page, bytes, false)
    }

    /// Admit a page brought in by readahead: counted as `prefetched`, not
    /// as a demand miss. A page that is already resident is left untouched
    /// (its recency is not refreshed — speculation must not pin frames)
    /// and the offered payload comes back; otherwise the evicted frame's
    /// payload does.
    pub fn admit_prefetch(&mut self, page: usize, bytes: Bytes) -> Option<Bytes> {
        if self.is_resident(page) {
            return Some(bytes);
        }
        self.stats.prefetched += 1;
        self.insert(page, bytes, true)
    }

    fn insert(&mut self, page: usize, bytes: Bytes, prefetched: bool) -> Option<Bytes> {
        if let Some(slot) = self.slot(page) {
            self.make_head(slot);
            let frame = &mut self.frames[slot as usize];
            frame.prefetched = prefetched;
            return Some(std::mem::replace(&mut frame.bytes, bytes));
        }
        if page >= self.slot_of.len() {
            self.slot_of.resize(page + 1, NONE);
        }
        if self.frames.len() < self.capacity {
            assert!(
                self.frames.len() < NONE as usize,
                "a buffer pool holds fewer than 2^32 - 1 frames"
            );
            let slot = self.frames.len() as u32;
            self.frames.push(Frame {
                page,
                bytes,
                prefetched,
                newer: NONE,
                older: NONE,
            });
            self.slot_of[page] = slot;
            self.push_head(slot);
            return None;
        }
        // Evict the least recently used frame and reuse its slot.
        let slot = self.tail;
        self.unlink(slot);
        self.stats.evictions += 1;
        let frame = &mut self.frames[slot as usize];
        self.slot_of[frame.page] = NONE;
        frame.page = page;
        frame.prefetched = prefetched;
        let evicted = std::mem::replace(&mut frame.bytes, bytes);
        self.slot_of[page] = slot;
        self.push_head(slot);
        Some(evicted)
    }

    /// The frame slot holding `page`, if resident.
    fn slot(&self, page: usize) -> Option<u32> {
        self.slot_of.get(page).copied().filter(|&s| s != NONE)
    }

    /// Mark a resident frame most recently used.
    fn make_head(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_head(slot);
        }
    }

    /// Detach a frame from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Frame { newer, older, .. } = self.frames[slot as usize];
        match newer {
            NONE => self.head = older,
            n => self.frames[n as usize].older = older,
        }
        match older {
            NONE => self.tail = newer,
            o => self.frames[o as usize].newer = newer,
        }
    }

    /// Attach a detached frame at the most recently used end.
    fn push_head(&mut self, slot: u32) {
        let frame = &mut self.frames[slot as usize];
        frame.newer = NONE;
        frame.older = self.head;
        match self.head {
            NONE => self.tail = slot,
            h => self.frames[h as usize].newer = slot,
        }
        self.head = slot;
    }

    /// Touch a page without bytes: returns `true` on a hit, `false` on a
    /// miss (after which the page is resident with an empty payload,
    /// possibly evicting the LRU page). The accounting-only legacy path.
    pub fn access(&mut self, page: usize) -> bool {
        if self.get(page).is_some() {
            return true;
        }
        self.admit(page, Bytes::new());
        false
    }

    /// Touch every page of a query, in order; returns (hits, misses) for
    /// the query.
    pub fn access_many<I: IntoIterator<Item = usize>>(&mut self, pages: I) -> (usize, usize) {
        let mut h = 0;
        let mut m = 0;
        for p in pages {
            if self.access(p) {
                h += 1;
            } else {
                m += 1;
            }
        }
        (h, m)
    }

    /// Number of currently resident pages.
    pub fn resident_count(&self) -> usize {
        self.frames.len()
    }

    /// Whether a page is currently resident (does not count as a touch).
    pub fn is_resident(&self, page: usize) -> bool {
        self.slot(page).is_some()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pool_misses_then_hits() {
        let mut pool = BufferPool::new(2);
        assert!(!pool.access(1));
        assert!(pool.access(1));
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut pool = BufferPool::new(2);
        pool.access(1);
        pool.access(2);
        pool.access(1); // 2 is now LRU
        pool.access(3); // evicts 2
        assert!(pool.is_resident(1));
        assert!(!pool.is_resident(2));
        assert!(pool.is_resident(3));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        BufferPool::new(0);
    }

    #[test]
    fn access_many_counts_per_query() {
        let mut pool = BufferPool::new(4);
        let (h, m) = pool.access_many([1, 2, 1]);
        assert_eq!((h, m), (1, 2));
        assert_eq!(pool.resident_count(), 2);
    }

    #[test]
    fn empty_stats_ratio_is_zero() {
        let pool = BufferPool::new(1);
        assert_eq!(pool.stats().hit_ratio(), 0.0);
        assert_eq!(pool.stats().accesses(), 0);
        // The zero-access guard must hold for the bare default too (the
        // engine reports ratios for shards that served no queries).
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
        assert!(BufferStats::default().hit_ratio().is_finite());
        assert_eq!(BufferStats::default().prefetch_accuracy(), 0.0);
    }

    #[test]
    fn access_many_under_capacity_pressure() {
        // Capacity 2, three distinct pages cycling: every access past the
        // warm-up misses because the pool always just evicted the page
        // that comes back two steps later.
        let mut pool = BufferPool::new(2);
        let (h, m) = pool.access_many([1, 2, 3, 1, 2, 3]);
        assert_eq!((h, m), (0, 6));
        let s = pool.stats();
        assert_eq!(s.misses, 6);
        assert_eq!(s.evictions, 4);
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(pool.resident_count(), 2);
    }

    #[test]
    fn access_many_working_set_within_capacity_hits() {
        // The same stream with capacity 3 keeps the whole working set
        // resident: second round is all hits, nothing evicted.
        let mut pool = BufferPool::new(3);
        let (h1, m1) = pool.access_many([1, 2, 3]);
        assert_eq!((h1, m1), (0, 3));
        let (h2, m2) = pool.access_many([1, 2, 3]);
        assert_eq!((h2, m2), (3, 0));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 3, 0));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_many_mixed_reuse_at_the_eviction_boundary() {
        // Capacity 2: [5, 6, 5] hits the middle reuse, then 7 evicts the
        // LRU page 6; the returns to 6 and 5 each miss and evict in turn,
        // leaving {6, 5} resident.
        let mut pool = BufferPool::new(2);
        let (h, m) = pool.access_many([5, 6, 5, 7, 6, 5]);
        assert_eq!((h, m), (1, 5));
        let s = pool.stats();
        assert_eq!(s.evictions, 3);
        assert!(pool.is_resident(5) && pool.is_resident(6));
        assert!(!pool.is_resident(7));
    }

    #[test]
    fn frames_own_their_bytes() {
        let mut pool = BufferPool::new(2);
        assert!(pool.get(4).is_none());
        pool.admit(4, Bytes::from(vec![1, 2, 3]));
        let back = pool.get(4).expect("resident after admit");
        assert_eq!(&back[..], &[1, 2, 3]);
        // get() on a miss counts the miss; admit() does not double-count.
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn admit_hands_back_the_evicted_payload() {
        let mut pool = BufferPool::new(2);
        assert!(pool.admit(1, Bytes::from(vec![1])).is_none());
        assert!(pool.admit(2, Bytes::from(vec![2])).is_none());
        assert!(pool.get(1).is_some()); // 2 is now LRU
        let evicted = pool.admit(3, Bytes::from(vec![3])).expect("pool was full");
        assert_eq!(&evicted[..], &[2]);
        // Re-admitting a resident page replaces (and returns) its payload.
        let replaced = pool.admit(3, Bytes::from(vec![33])).expect("3 is resident");
        assert_eq!(&replaced[..], &[3]);
        assert_eq!(&pool.get(3).expect("resident")[..], &[33]);
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn huge_capacity_allocates_only_resident_frames() {
        // A capacity far beyond any store (2^40 frames) allocates nothing
        // up front and serves the same stream exactly like a pool sized
        // to the working set: same hits, misses, residency, no evictions.
        let stream = [4, 9, 4, 0, 9, 17, 4, 0];
        let mut huge = BufferPool::new(1 << 40);
        let mut fitted = BufferPool::new(4);
        for &p in &stream {
            assert_eq!(huge.access(p), fitted.access(p), "page {p}");
        }
        assert_eq!(huge.capacity(), 1 << 40);
        assert_eq!(huge.stats(), fitted.stats());
        assert_eq!(huge.resident_count(), 4);
        assert_eq!(huge.stats().evictions, 0);
    }

    #[test]
    fn prefetch_admissions_are_not_demand_misses() {
        let mut pool = BufferPool::new(4);
        pool.admit_prefetch(7, Bytes::from(vec![9]));
        pool.admit_prefetch(8, Bytes::from(vec![8]));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.prefetched), (0, 0, 2));
        // First demand touch of a prefetched frame: hit + prefetch_hit,
        // and the flag clears — a second touch is an ordinary hit.
        assert!(pool.get(7).is_some());
        assert!(pool.get(7).is_some());
        let s = pool.stats();
        assert_eq!((s.hits, s.prefetch_hits), (2, 1));
        assert!((pool.stats().prefetch_accuracy() - 0.5).abs() < 1e-12);
        // Prefetching an already-resident page is a no-op.
        pool.admit_prefetch(7, Bytes::new());
        assert_eq!(pool.stats().prefetched, 2);
    }

    #[test]
    fn prefetched_frames_are_evictable() {
        // Speculative admissions must not pin the pool: demand traffic
        // evicts the untouched prefetched frame first (it is the LRU).
        let mut pool = BufferPool::new(2);
        pool.admit_prefetch(1, Bytes::new());
        pool.access(2);
        pool.access(3); // evicts 1 (least recently used, never touched)
        assert!(!pool.is_resident(1));
        assert!(pool.is_resident(2) && pool.is_resident(3));
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().prefetch_hits, 0);
    }

    #[test]
    fn prefetch_hands_back_the_payload_it_lets_go() {
        let mut pool = BufferPool::new(1);
        assert!(pool.admit_prefetch(1, Bytes::from(vec![1])).is_none());
        // Already resident: the offered payload comes back, uncounted.
        let offered = pool.admit_prefetch(1, Bytes::from(vec![9]));
        assert_eq!(&offered.expect("refused")[..], &[9]);
        let evicted = pool.admit_prefetch(2, Bytes::from(vec![2]));
        assert_eq!(&evicted.expect("pool was full")[..], &[1]);
        assert_eq!(pool.stats().prefetched, 2);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = BufferStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            prefetched: 2,
            prefetch_hits: 1,
        };
        let b = BufferStats {
            hits: 1,
            misses: 3,
            evictions: 2,
            prefetched: 0,
            prefetch_hits: 0,
        };
        a.merge(&b);
        assert_eq!(
            a,
            BufferStats {
                hits: 4,
                misses: 4,
                evictions: 2,
                prefetched: 2,
                prefetch_hits: 1,
            }
        );
        assert!((a.hit_ratio() - 0.5).abs() < 1e-12);
        // Merging into a zero run keeps the zero-access guard meaningful.
        let mut z = BufferStats::default();
        z.merge(&BufferStats::default());
        assert_eq!(z.hit_ratio(), 0.0);
    }

    #[test]
    fn sequential_scan_with_tiny_pool_never_hits() {
        let mut pool = BufferPool::new(1);
        for p in 0..10 {
            assert!(!pool.access(p));
        }
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().evictions, 9);
    }

    #[test]
    fn locality_improves_hit_rate() {
        // Two interleaved query streams over the same pages: a local
        // stream (walks pages 0..8 in order, window reuse) vs a scattered
        // stream (stride-3 permutation). Same page universe, same pool.
        let local: Vec<usize> = (0..32).map(|i| i / 4).collect();
        let scattered: Vec<usize> = (0..32).map(|i| (i * 3) % 8).collect();
        let run = |stream: &[usize]| {
            let mut pool = BufferPool::new(2);
            pool.access_many(stream.iter().copied());
            pool.stats().hit_ratio()
        };
        assert!(run(&local) > run(&scattered));
    }
}
