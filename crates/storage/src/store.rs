//! A page store with access accounting over two interchangeable backings.
//!
//! [`PageStore`] serves page payloads (via [`bytes::Bytes`], cheaply
//! shareable) for a record set laid out by a [`PageMapper`], and counts
//! page reads so examples and tests can report true I/O numbers for a
//! workload rather than analytic estimates. Payloads come from one of two
//! backings behind the same interface:
//!
//! * **Memory** ([`PageStore::build`] and friends) — pages materialised up
//!   front, reads are clones; the fast path for data that fits in RAM and
//!   the bitwise reference for the disk tier.
//! * **Disk** ([`PageStore::open`] / [`PageStore::open_shard_placed`]) — a
//!   [`crate::diskfile::PageFile`]; reads fault checksummed frames off
//!   the file with positional reads, and failures surface as typed
//!   [`StorageError`]s through [`PageStore::try_read_page`].
//!
//! The two backings are **bitwise interchangeable**: same payloads, same
//! read counts, same query accounting — the serving layer's parity tests
//! hold the engine to that.
//!
//! A store can also hold only a *slice* of the global page set
//! ([`PageStore::build_shard`]): the serving layer partitions the pages of
//! one linear order across shards, and each shard materialises payloads
//! for its owned pages only, while keeping the **global** page ids and
//! record ids — so a record read through any shard returns exactly the
//! bytes the unsharded store would.

use crate::diskfile::{PageFile, StorageError};
use crate::pages::PageMapper;
use bytes::{Bytes, BytesMut};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

/// A fixed-size record payload generator: record `v`'s bytes are a
/// deterministic function of its id, so tests can verify reads return the
/// right data. Shared with [`crate::diskfile`]'s writer so a packed file
/// holds bitwise the payloads an in-memory build materialises.
pub(crate) fn record_payload(v: usize, record_size: usize) -> Vec<u8> {
    (0..record_size)
        .map(|i| ((v.wrapping_mul(31).wrapping_add(i)) & 0xFF) as u8)
        .collect()
}

/// Where page payloads live.
enum Backing {
    /// Payloads of the owned pages, materialised in ascending global-id
    /// order (indexed by local slot).
    Memory(Vec<Bytes>),
    /// A disk page file; reads fault frames in by **global** page id.
    Disk(PageFile),
}

/// A page store: pages hold the records assigned by a [`PageMapper`],
/// reads are counted, payloads come from memory or a disk page file.
///
/// Pages are addressed by their **global** id everywhere; a shard-slice
/// store (see [`PageStore::build_shard`]) simply owns payloads for a
/// subset of those ids.
pub struct PageStore {
    /// Payload source (in-memory pages or an open page file).
    backing: Backing,
    /// Global id of each owned page (`page_ids[local] = global`).
    page_ids: Vec<usize>,
    /// Global page id → owned-slot index (`usize::MAX` = not owned).
    local_of: Vec<usize>,
    /// Records per page and record size (geometry).
    record_size: usize,
    /// Vertex → (global page, slot) placement; `Arc`-shared so S shard
    /// slices of one store hold one copy, not S.
    placement: Arc<Vec<(usize, usize)>>,
    /// Number of page reads served.
    reads: Cell<usize>,
    /// One-shot armed read fault: the next demand read of this page fails
    /// with [`StorageError::Injected`] — on either backing, so fault
    /// injection cannot break memory/disk parity.
    armed_fault: Cell<Option<usize>>,
}

impl PageStore {
    /// Build a store for `order_len` records laid out by `mapper`, each
    /// record `record_size` bytes.
    pub fn build(mapper: &PageMapper, order_len: usize, record_size: usize) -> Self {
        let all: Vec<usize> = (0..mapper.num_pages()).collect();
        PageStore::build_shard(mapper, order_len, record_size, &all)
    }

    /// The global vertex → (page, slot) placement of `mapper`'s layout:
    /// records sit **in linear order within their page** (slot = rank mod
    /// page size). Computed in O(n) and `Arc`-shared so a fleet of shard
    /// slices can reuse one copy via [`PageStore::build_shard_placed`].
    pub fn placement_of(mapper: &PageMapper) -> Arc<Vec<(usize, usize)>> {
        let rpp = mapper.layout().records_per_page;
        Arc::new(
            (0..mapper.num_records())
                .map(|v| {
                    let position = mapper.position_of(v);
                    (position / rpp, position % rpp)
                })
                .collect(),
        )
    }

    /// Build a store holding only the pages `owned` (global page ids) of
    /// the layout described by `mapper` — one shard's slice of the store.
    ///
    /// Record ids, page ids, slots and payloads are identical to the full
    /// store's; only the materialised subset differs, so a sharded fleet
    /// whose owned sets partition `0..mapper.num_pages()` serves exactly
    /// the bytes of the unsharded store. Reading a page outside `owned`
    /// panics (a routing bug in the caller). When building many slices of
    /// one store, compute the placement once with
    /// [`PageStore::placement_of`] and use
    /// [`PageStore::build_shard_placed`] instead.
    ///
    /// # Panics
    /// Panics when `owned` names a page `≥ mapper.num_pages()` or
    /// `order_len` differs from the mapper's record count.
    pub fn build_shard(
        mapper: &PageMapper,
        order_len: usize,
        record_size: usize,
        owned: &[usize],
    ) -> Self {
        assert_eq!(
            order_len,
            mapper.num_records(),
            "order length differs from the mapper's record count"
        );
        PageStore::build_shard_placed(mapper, record_size, owned, PageStore::placement_of(mapper))
    }

    /// [`PageStore::build_shard`] with a precomputed, shared placement
    /// (must be `mapper`'s own, i.e. [`PageStore::placement_of`]).
    ///
    /// # Panics
    /// Panics when `owned` names a page `≥ mapper.num_pages()` or the
    /// placement's length differs from the mapper's record count.
    pub fn build_shard_placed(
        mapper: &PageMapper,
        record_size: usize,
        owned: &[usize],
        placement: Arc<Vec<(usize, usize)>>,
    ) -> Self {
        let num_global = mapper.num_pages();
        assert_eq!(
            placement.len(),
            mapper.num_records(),
            "placement does not cover the mapper's records"
        );
        let (page_ids, local_of) = PageStore::owned_index(owned, num_global);
        let rpp = mapper.layout().records_per_page;
        let mut page_bufs: Vec<BytesMut> = (0..page_ids.len())
            .map(|_| BytesMut::zeroed(rpp * record_size))
            .collect();
        // Placement is global; payloads materialise for owned pages only.
        for (v, &(p, slot)) in placement.iter().enumerate() {
            if local_of[p] != usize::MAX {
                let payload = record_payload(v, record_size);
                page_bufs[local_of[p]][slot * record_size..(slot + 1) * record_size]
                    .copy_from_slice(&payload);
            }
        }
        PageStore {
            backing: Backing::Memory(page_bufs.into_iter().map(BytesMut::freeze).collect()),
            page_ids,
            local_of,
            record_size,
            placement,
            reads: Cell::new(0),
            armed_fault: Cell::new(None),
        }
    }

    /// Open a disk-backed store over the whole page set of `path`.
    ///
    /// The file's geometry (record size, page size, record count, order
    /// digest) must match `mapper`; see [`PageStore::open_shard_placed`].
    pub fn open(
        path: &Path,
        mapper: &PageMapper,
        record_size: usize,
    ) -> Result<Self, StorageError> {
        let all: Vec<usize> = (0..mapper.num_pages()).collect();
        PageStore::open_shard_placed(
            path,
            mapper,
            record_size,
            &all,
            PageStore::placement_of(mapper),
        )
    }

    /// Open a disk-backed shard slice: the counterpart of
    /// [`PageStore::build_shard_placed`] that faults owned pages from the
    /// page file at `path` instead of materialising them.
    ///
    /// Validates the file header (magic, version, checksum, length) and
    /// its geometry against `mapper` + `record_size` — including the
    /// **order digest**, so a file packed under a different linear order
    /// is rejected with [`StorageError::GeometryMismatch`] instead of
    /// silently serving wrong slots. Reading through the returned store is
    /// bitwise identical to the in-memory build, payloads and accounting
    /// both.
    ///
    /// # Panics
    /// Panics when `owned` names a page `≥ mapper.num_pages()` or the
    /// placement's length differs from the mapper's record count — the
    /// same caller-bug contract as the in-memory constructors. Everything
    /// about the *file* is a typed error.
    pub fn open_shard_placed(
        path: &Path,
        mapper: &PageMapper,
        record_size: usize,
        owned: &[usize],
        placement: Arc<Vec<(usize, usize)>>,
    ) -> Result<Self, StorageError> {
        assert_eq!(
            placement.len(),
            mapper.num_records(),
            "placement does not cover the mapper's records"
        );
        let file = PageFile::open(path)?;
        file.check_geometry(mapper, record_size)?;
        let (page_ids, local_of) = PageStore::owned_index(owned, mapper.num_pages());
        Ok(PageStore {
            backing: Backing::Disk(file),
            page_ids,
            local_of,
            record_size,
            placement,
            reads: Cell::new(0),
            armed_fault: Cell::new(None),
        })
    }

    /// Sorted, deduped owned-page ids plus the global → local slot index.
    fn owned_index(owned: &[usize], num_global: usize) -> (Vec<usize>, Vec<usize>) {
        let mut page_ids: Vec<usize> = owned.to_vec();
        page_ids.sort_unstable();
        page_ids.dedup();
        if let Some(&last) = page_ids.last() {
            assert!(last < num_global, "owned page {last} ≥ {num_global} pages");
        }
        let mut local_of = vec![usize::MAX; num_global];
        for (local, &global) in page_ids.iter().enumerate() {
            local_of[global] = local;
        }
        (page_ids, local_of)
    }

    /// Number of pages this store owns (= all pages for a full build).
    pub fn num_pages(&self) -> usize {
        self.page_ids.len()
    }

    /// Whether reads fault pages off a disk page file (vs. memory).
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.backing, Backing::Disk(_))
    }

    /// Whether this store owns (materialises) global page `page`.
    pub fn owns_page(&self, page: usize) -> bool {
        self.local_of.get(page).is_some_and(|&l| l != usize::MAX)
    }

    /// Global ids of the owned pages, ascending.
    pub fn page_ids(&self) -> &[usize] {
        &self.page_ids
    }

    /// Read one page by **global** id (counted), returning its payload.
    ///
    /// # Panics
    /// Panics when this store slice does not own `page`, or on a disk
    /// error — the legacy infallible path; fallible callers (the serving
    /// replay loop) use [`PageStore::try_read_page`].
    pub fn read_page(&self, page: usize) -> Bytes {
        self.try_read_page(page).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read one page by **global** id (counted), with typed failures:
    /// unowned pages, disk errors, corruption, and armed injected faults
    /// all come back as [`StorageError`]s instead of panics.
    pub fn try_read_page(&self, page: usize) -> Result<Bytes, StorageError> {
        self.try_read_page_reusing(page, None)
    }

    /// [`PageStore::try_read_page`] that hands a spare buffer — typically
    /// an evicted frame's ([`bytes::Bytes::try_into_mut`]) — to the disk
    /// read ([`PageFile::read_page_reusing`]), so a demand miss allocates
    /// nothing. The memory backing clones its page and drops the spare.
    pub fn try_read_page_reusing(
        &self,
        page: usize,
        spare: Option<BytesMut>,
    ) -> Result<Bytes, StorageError> {
        if self.armed_fault.get() == Some(page) {
            self.armed_fault.set(None);
            return Err(StorageError::Injected { page });
        }
        let local = self
            .local_of
            .get(page)
            .copied()
            .filter(|&l| l != usize::MAX)
            .ok_or(StorageError::PageNotOwned { page })?;
        self.reads.set(self.reads.get() + 1);
        match &self.backing {
            Backing::Memory(pages) => Ok(pages[local].clone()),
            Backing::Disk(file) => file.read_page_reusing(page, spare),
        }
    }

    /// Read a contiguous run of `count` owned pages starting at global id
    /// `start` — the readahead primitive. On disk this is **one
    /// positional read** of the whole run; in memory it is `count`
    /// clones. The run counts `count` reads on both backings, keeping
    /// accounting bitwise identical.
    ///
    /// Every page of the run must be owned by this slice, and its end must
    /// not overflow `usize`.
    pub fn read_run(&self, start: usize, count: usize) -> Result<Vec<Bytes>, StorageError> {
        self.read_run_reusing(start, count, &mut Vec::new(), &mut Vec::new())
    }

    /// [`PageStore::read_run`] through caller-owned buffers: on disk the
    /// run lands in the reused `staging` buffer and each page is copied
    /// into a buffer popped from `spares` (evicted frames', typically)
    /// ([`PageFile::read_run_reusing`]); the memory backing clones its
    /// pages and leaves both alone.
    pub fn read_run_reusing(
        &self,
        start: usize,
        count: usize,
        staging: &mut Vec<u8>,
        spares: &mut Vec<BytesMut>,
    ) -> Result<Vec<Bytes>, StorageError> {
        let end = start
            .checked_add(count)
            .ok_or(StorageError::PageOutOfRange {
                page: usize::MAX,
                num_pages: self.local_of.len(),
            })?;
        for page in start..end {
            let owned = self.local_of.get(page).is_some_and(|&l| l != usize::MAX);
            if !owned {
                return Err(StorageError::PageNotOwned { page });
            }
        }
        self.reads.set(self.reads.get() + count);
        match &self.backing {
            Backing::Memory(pages) => Ok((start..end)
                .map(|p| pages[self.local_of[p]].clone())
                .collect()),
            Backing::Disk(file) => file.read_run_reusing(start, count, staging, spares),
        }
    }

    /// Arm a one-shot injected fault: the next [`PageStore::try_read_page`]
    /// of `page` fails with [`StorageError::Injected`]. This is how the
    /// serving layer's `pagerr:P@N` fault plan manifests as a *real* error
    /// travelling the real read path — identically on both backings.
    pub fn arm_read_error(&self, page: usize) {
        self.armed_fault.set(Some(page));
    }

    /// Fetch one record by vertex id, reading its page.
    pub fn read_record(&self, v: usize) -> Bytes {
        let (page, slot) = self.placement[v];
        let data = self.read_page(page);
        data.slice(slot * self.record_size..(slot + 1) * self.record_size)
    }

    /// Serve a query over vertex ids: reads each distinct page once,
    /// returns the number of pages read for this query.
    ///
    /// On a shard slice, every queried vertex must live on an owned page
    /// (the sharded engine routes per-shard page lists instead).
    pub fn serve_query<I: IntoIterator<Item = usize>>(&self, vertices: I) -> usize {
        let mut pages: Vec<usize> = vertices.into_iter().map(|v| self.placement[v].0).collect();
        pages.sort_unstable();
        pages.dedup();
        for &p in &pages {
            let _ = self.read_page(p);
        }
        pages.len()
    }

    /// Total page reads served so far.
    pub fn total_reads(&self) -> usize {
        self.reads.get()
    }

    /// Expected payload of record `v` (for verification).
    pub fn expected_record(&self, v: usize) -> Vec<u8> {
        record_payload(v, self.record_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PageLayout;
    use spectral_lpm::LinearOrder;

    fn store() -> PageStore {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        PageStore::build(&mapper, 10, 8)
    }

    #[test]
    fn geometry() {
        let s = store();
        assert_eq!(s.num_pages(), 3);
    }

    #[test]
    fn records_roundtrip() {
        let s = store();
        for v in 0..10 {
            let got = s.read_record(v);
            assert_eq!(&got[..], &s.expected_record(v)[..], "record {v}");
        }
    }

    #[test]
    fn reads_are_counted() {
        let s = store();
        assert_eq!(s.total_reads(), 0);
        let _ = s.read_page(0);
        let _ = s.read_record(9);
        assert_eq!(s.total_reads(), 2);
    }

    #[test]
    fn serve_query_reads_distinct_pages() {
        let s = store();
        // Vertices 0..4 live on page 0 under identity order (4 per page).
        let n = s.serve_query([0, 1, 2, 3]);
        assert_eq!(n, 1);
        assert_eq!(s.total_reads(), 1);
        let n = s.serve_query([0, 5, 9]);
        assert_eq!(n, 3);
    }

    #[test]
    fn shard_slice_serves_global_ids_and_bytes() {
        // 10 records, 4 per page → pages {0,1,2}; a shard owning {0,2}
        // must return exactly the full store's bytes for those pages.
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let full = PageStore::build(&mapper, 10, 8);
        let shard = PageStore::build_shard(&mapper, 10, 8, &[2, 0]);
        assert_eq!(shard.num_pages(), 2);
        assert_eq!(shard.page_ids(), &[0, 2]);
        assert!(shard.owns_page(0) && !shard.owns_page(1) && shard.owns_page(2));
        for page in [0usize, 2] {
            assert_eq!(&shard.read_page(page)[..], &full.read_page(page)[..]);
        }
        // Records on owned pages read back with their global ids.
        for v in [0usize, 1, 2, 3, 8, 9] {
            assert_eq!(&shard.read_record(v)[..], &shard.expected_record(v)[..]);
        }
        assert_eq!(shard.total_reads(), 2 + 6);
    }

    #[test]
    fn shard_slices_share_one_placement() {
        // A fleet of slices built from one placement_of holds ONE copy of
        // the dense placement array, and records sit in linear order
        // within their page (slot = rank mod page size).
        let order = LinearOrder::from_ranks((0..10).rev().collect()).unwrap();
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let placement = PageStore::placement_of(&mapper);
        assert_eq!(placement.len(), 10);
        for v in 0..10 {
            let rank = order.rank_of(v);
            assert_eq!(placement[v], (rank / 4, rank % 4));
        }
        let a = PageStore::build_shard_placed(&mapper, 8, &[0, 1], Arc::clone(&placement));
        let b = PageStore::build_shard_placed(&mapper, 8, &[2], Arc::clone(&placement));
        assert!(Arc::ptr_eq(&a.placement, &placement));
        assert!(Arc::ptr_eq(&b.placement, &placement));
        for v in 0..10 {
            let s = if a.owns_page(mapper.page_of(v)) {
                &a
            } else {
                &b
            };
            assert_eq!(&s.read_record(v)[..], &s.expected_record(v)[..]);
        }
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn shard_slice_rejects_unowned_page() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let shard = PageStore::build_shard(&mapper, 10, 8, &[0]);
        let _ = shard.read_page(1);
    }

    #[test]
    #[should_panic(expected = "≥")]
    fn shard_slice_rejects_out_of_range_page() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let _ = PageStore::build_shard(&mapper, 10, 8, &[3]);
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("slpm-store-{}-{tag}.pages", std::process::id()))
    }

    #[test]
    fn disk_backed_store_is_bitwise_identical_to_memory() {
        let order = LinearOrder::from_ranks((0..10).rev().collect()).unwrap();
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let path = temp_path("parity");
        crate::diskfile::write_page_file(&path, &mapper, 8).unwrap();
        let mem = PageStore::build(&mapper, 10, 8);
        let disk = PageStore::open(&path, &mapper, 8).unwrap();
        assert!(disk.is_disk_backed() && !mem.is_disk_backed());
        assert_eq!(disk.num_pages(), mem.num_pages());
        for page in 0..mem.num_pages() {
            assert_eq!(&disk.read_page(page)[..], &mem.read_page(page)[..]);
        }
        for v in 0..10 {
            assert_eq!(&disk.read_record(v)[..], &mem.read_record(v)[..]);
        }
        // Accounting is identical too: same reads for the same traffic.
        assert_eq!(disk.total_reads(), mem.total_reads());
        assert_eq!(disk.serve_query([0, 5, 9]), mem.serve_query([0, 5, 9]));
        assert_eq!(disk.total_reads(), mem.total_reads());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_backed_shard_slice_reads_only_owned_pages() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let path = temp_path("slice");
        crate::diskfile::write_page_file(&path, &mapper, 8).unwrap();
        let placement = PageStore::placement_of(&mapper);
        let slice =
            PageStore::open_shard_placed(&path, &mapper, 8, &[0, 2], Arc::clone(&placement))
                .unwrap();
        assert_eq!(slice.page_ids(), &[0, 2]);
        let full = PageStore::build(&mapper, 10, 8);
        for page in [0usize, 2] {
            assert_eq!(&slice.read_page(page)[..], &full.read_page(page)[..]);
        }
        assert_eq!(
            slice.try_read_page(1).unwrap_err(),
            StorageError::PageNotOwned { page: 1 }
        );
        // A run through an unowned page is rejected before any read.
        assert_eq!(
            slice.read_run(0, 2).unwrap_err(),
            StorageError::PageNotOwned { page: 1 }
        );
        // Opening against the wrong geometry is a typed error, not UB.
        assert!(matches!(
            PageStore::open_shard_placed(&path, &mapper, 16, &[0], Arc::clone(&placement)),
            Err(StorageError::GeometryMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_run_matches_single_page_reads_on_both_backings() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let path = temp_path("run");
        crate::diskfile::write_page_file(&path, &mapper, 8).unwrap();
        let mem = PageStore::build(&mapper, 16, 8);
        let disk = PageStore::open(&path, &mapper, 8).unwrap();
        for s in [&mem, &disk] {
            let run = s.read_run(1, 3).unwrap();
            assert_eq!(run.len(), 3);
            for (i, bytes) in run.iter().enumerate() {
                assert_eq!(&bytes[..], &s.read_page(1 + i)[..]);
            }
        }
        // A run of k pages counts k reads (plus the 3 singles above).
        assert_eq!(mem.total_reads(), disk.total_reads());
        // A run whose end overflows `usize` is a typed error on both
        // backings, and reads nothing.
        let reads = mem.total_reads();
        for s in [&mem, &disk] {
            for (start, count) in [(usize::MAX, 2), (1, usize::MAX)] {
                assert_eq!(
                    s.read_run(start, count).unwrap_err(),
                    StorageError::PageOutOfRange {
                        page: usize::MAX,
                        num_pages: 4
                    }
                );
            }
            assert_eq!(s.total_reads(), reads);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn armed_read_errors_fire_once_on_either_backing() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let path = temp_path("armed");
        crate::diskfile::write_page_file(&path, &mapper, 8).unwrap();
        let mem = PageStore::build(&mapper, 10, 8);
        let disk = PageStore::open(&path, &mapper, 8).unwrap();
        for s in [&mem, &disk] {
            s.arm_read_error(1);
            // Other pages still read fine while armed.
            assert!(s.try_read_page(0).is_ok());
            assert_eq!(
                s.try_read_page(1).unwrap_err(),
                StorageError::Injected { page: 1 }
            );
            // One-shot: the retry succeeds, and the failed read was not
            // counted (it never reached storage).
            assert!(s.try_read_page(1).is_ok());
            assert_eq!(s.total_reads(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn permuted_order_changes_pages_not_data() {
        // Under a reversed order, records move pages but reads still
        // return the right payloads.
        let order = LinearOrder::from_ranks((0..10).rev().collect()).unwrap();
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let s = PageStore::build(&mapper, 10, 8);
        for v in 0..10 {
            assert_eq!(&s.read_record(v)[..], &s.expected_record(v)[..]);
        }
    }
}
