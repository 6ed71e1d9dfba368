//! A page store with access accounting over two interchangeable backings.
//!
//! [`PageStore`] serves page payloads (via [`bytes::Bytes`], cheaply
//! shareable) for a record set laid out by a [`PageMapper`], and counts
//! page reads so examples and tests can report true I/O numbers for a
//! workload rather than analytic estimates. It has one constructor per
//! backing and one read per access shape:
//!
//! * **Memory** ([`PageStore::in_memory`]) — pages materialised up front,
//!   reads are clones; the fast path for data that fits in RAM and the
//!   bitwise reference for the disk tier.
//! * **Disk** ([`PageStore::open`]) — a [`crate::diskfile::PageFile`];
//!   reads fault checksummed frames off the file with positional reads.
//! * [`PageStore::read_page`] reads one page, [`PageStore::read_run`] a
//!   contiguous run of pages (the readahead primitive). Both take the
//!   caller's spare buffers, and every failure is a typed
//!   [`StorageError`].
//!
//! The two backings are **bitwise interchangeable**: same payloads, same
//! read counts, same query accounting — the serving layer's parity tests
//! hold the engine to that.
//!
//! A store holds the pages it is given as `owned`: the serving layer
//! partitions the pages of one linear order across shards, and each shard
//! reads its owned pages only, while keeping the **global** page ids — so
//! a page read through any shard returns exactly the bytes the unsharded
//! store would. Record `v` sits at page `rank / rpp`, slot `rank % rpp`
//! of its rank under the order, which [`PageMapper`] answers from the
//! ranks it borrows; the store keeps no per-record table.

use crate::diskfile::{PageFile, StorageError};
use crate::pages::PageMapper;
use bytes::{Bytes, BytesMut};
use std::cell::Cell;
use std::path::Path;

/// Lay out page `page` into `frame`, which holds `records_per_page`
/// records: slot `s` holds the record of rank `page · records_per_page +
/// s` (`vertex_at[rank]`, the inverse of the rank array), and slots past
/// the last record are zero. Record `v`'s payload is a deterministic
/// function of its id, byte `i` being `(v · 31 + i) & 0xFF`, so tests can
/// verify reads return the right data. The page-file writer and the
/// in-memory store both lay pages out here, so a packed file holds
/// bitwise the payloads an in-memory store materialises.
pub(crate) fn fill_page(
    frame: &mut [u8],
    page: usize,
    records_per_page: usize,
    vertex_at: &[usize],
) {
    let record_size = frame.len() / records_per_page;
    for (slot, record) in frame.chunks_mut(record_size.max(1)).enumerate() {
        match vertex_at.get(page * records_per_page + slot) {
            Some(&v) => {
                for (i, byte) in record.iter_mut().enumerate() {
                    *byte = (v.wrapping_mul(31).wrapping_add(i) & 0xFF) as u8;
                }
            }
            None => record.fill(0),
        }
    }
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
/// Pages are addressed by their **global** id everywhere; a store owning
/// a subset of the pages (one shard's slice) reads only those.
pub struct PageStore {
    /// Payload source (in-memory pages or an open page file).
    backing: Backing,
    /// Global page id → owned-slot index (`usize::MAX` = not owned).
    local_of: Vec<usize>,
    /// Number of page reads served.
    reads: Cell<usize>,
    /// One-shot armed read fault: the next read of this page fails with
    /// [`StorageError::Injected`] — on either backing, so fault injection
    /// cannot break memory/disk parity.
    armed_fault: Cell<Option<usize>>,
}

impl PageStore {
    /// Materialise the pages `owned` (global page ids, any order,
    /// duplicates ignored) of the layout described by `mapper`, each
    /// record `record_size` bytes. Owning `0..mapper.num_pages()` gives
    /// the whole store; a sharded fleet whose owned sets partition that
    /// range serves exactly the bytes of the unsharded store.
    ///
    /// # Panics
    /// Panics when `owned` names a page `≥ mapper.num_pages()` — a
    /// routing bug in the caller.
    pub fn in_memory(mapper: &PageMapper, record_size: usize, owned: &[usize]) -> Self {
        let (page_ids, local_of) = owned_index(owned, mapper.num_pages());
        let rpp = mapper.layout().records_per_page;
        let vertex_at = mapper.vertices_by_position();
        let pages = page_ids
            .into_iter()
            .map(|page| {
                let mut frame = BytesMut::zeroed(rpp * record_size);
                fill_page(&mut frame, page, rpp, &vertex_at);
                frame.freeze()
            })
            .collect();
        PageStore::with_backing(Backing::Memory(pages), local_of)
    }

    /// Open the page file at `path` and read the pages `owned` from it:
    /// the disk counterpart of [`PageStore::in_memory`], bitwise
    /// identical to it, payloads and accounting both.
    ///
    /// Validates the file header (magic, version, checksum, length) and
    /// its geometry against `mapper` + `record_size` — including the
    /// **order digest**, so a file packed under a different linear order
    /// is rejected with [`StorageError::GeometryMismatch`] instead of
    /// silently serving wrong slots.
    ///
    /// # Panics
    /// Panics when `owned` names a page `≥ mapper.num_pages()` — the same
    /// caller-bug contract as [`PageStore::in_memory`]. Everything about
    /// the *file* is a typed error.
    pub fn open(
        path: &Path,
        mapper: &PageMapper,
        record_size: usize,
        owned: &[usize],
    ) -> Result<Self, StorageError> {
        let file = PageFile::open(path)?;
        file.check_geometry(mapper, record_size)?;
        let (_, local_of) = owned_index(owned, mapper.num_pages());
        Ok(PageStore::with_backing(Backing::Disk(file), local_of))
    }

    fn with_backing(backing: Backing, local_of: Vec<usize>) -> Self {
        PageStore {
            backing,
            local_of,
            reads: Cell::new(0),
            armed_fault: Cell::new(None),
        }
    }

    /// The owned-slot index of global page `page`, if this store owns it.
    fn local(&self, page: usize) -> Option<usize> {
        self.local_of
            .get(page)
            .copied()
            .filter(|&l| l != usize::MAX)
    }

    /// Read one owned page by **global** id (counted). On disk the frame
    /// lands in `spare` when given — typically an evicted frame's buffer
    /// ([`bytes::Bytes::try_into_mut`]), so a demand miss allocates
    /// nothing ([`PageFile::read_page`]); the memory backing clones its
    /// page and drops the spare. Unowned pages, disk errors, corruption
    /// and armed injected faults all come back as [`StorageError`]s.
    pub fn read_page(&self, page: usize, spare: Option<BytesMut>) -> Result<Bytes, StorageError> {
        if self.armed_fault.get() == Some(page) {
            self.armed_fault.set(None);
            return Err(StorageError::Injected { page });
        }
        let local = self
            .local(page)
            .ok_or(StorageError::PageNotOwned { page })?;
        self.reads.set(self.reads.get() + 1);
        match &self.backing {
            Backing::Memory(pages) => Ok(pages[local].clone()),
            Backing::Disk(file) => file.read_page(page, spare),
        }
    }

    /// Read a contiguous run of `count` owned pages starting at global id
    /// `start` — the readahead primitive. On disk this is **one
    /// positional read** into the reused `staging` buffer, and each page
    /// is copied into a buffer popped from `spares` ([`PageFile::read_run`]);
    /// in memory it is `count` clones, leaving both alone. The run counts
    /// `count` reads on both backings, keeping accounting bitwise
    /// identical.
    ///
    /// Every page of the run must be owned by this store, and its end
    /// must not overflow `usize`.
    pub fn read_run(
        &self,
        start: usize,
        count: usize,
        staging: &mut BytesMut,
        spares: &mut Vec<BytesMut>,
    ) -> Result<Vec<Bytes>, StorageError> {
        let end = start
            .checked_add(count)
            .ok_or(StorageError::PageOutOfRange {
                page: usize::MAX,
                num_pages: self.local_of.len(),
            })?;
        if let Some(page) = (start..end).find(|&page| self.local(page).is_none()) {
            return Err(StorageError::PageNotOwned { page });
        }
        self.reads.set(self.reads.get() + count);
        match &self.backing {
            Backing::Memory(pages) => Ok((start..end)
                .map(|p| pages[self.local_of[p]].clone())
                .collect()),
            Backing::Disk(file) => file.read_run(start, count, staging, spares),
        }
    }

    /// Arm a one-shot injected fault: the next [`PageStore::read_page`]
    /// of `page` fails with [`StorageError::Injected`]. This is how the
    /// serving layer's `pagerr:P@N` fault plan manifests as a *real* error
    /// travelling the real read path — identically on both backings.
    pub fn arm_read_error(&self, page: usize) {
        self.armed_fault.set(Some(page));
    }

    /// Total page reads served so far.
    pub fn total_reads(&self) -> usize {
        self.reads.get()
    }
}

/// Sorted, deduped owned-page ids plus the global → local slot index.
///
/// # Panics
/// Panics when an owned page is `≥ num_global`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PageLayout;
    use spectral_lpm::LinearOrder;

    /// Record `v`'s payload, spelled out independently of `fill_page`.
    fn payload(v: usize, record_size: usize) -> Vec<u8> {
        (0..record_size)
            .map(|i| ((v * 31 + i) & 0xFF) as u8)
            .collect()
    }

    /// Record `v`'s bytes as read through `store` (page, then slot).
    fn record(store: &PageStore, mapper: &PageMapper, v: usize, record_size: usize) -> Vec<u8> {
        let rank = mapper.position_of(v);
        let rpp = mapper.layout().records_per_page;
        let page = store.read_page(rank / rpp, None).unwrap();
        page[(rank % rpp) * record_size..(rank % rpp + 1) * record_size].to_vec()
    }

    fn all(mapper: &PageMapper) -> Vec<usize> {
        (0..mapper.num_pages()).collect()
    }

    #[test]
    fn geometry() {
        // 10 records, 4 per page → pages {0, 1, 2} of 4 · 8 bytes.
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let s = PageStore::in_memory(&mapper, 8, &all(&mapper));
        for page in 0..3 {
            assert_eq!(s.read_page(page, None).unwrap().len(), 32);
        }
        assert_eq!(
            s.read_page(3, None).unwrap_err(),
            StorageError::PageNotOwned { page: 3 }
        );
    }

    #[test]
    fn records_roundtrip() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let s = PageStore::in_memory(&mapper, 8, &all(&mapper));
        for v in 0..10 {
            assert_eq!(record(&s, &mapper, v, 8), payload(v, 8), "record {v}");
        }
        // Tail slots of the last page are zero.
        assert!(s.read_page(2, None).unwrap()[2 * 8..]
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn reads_are_counted() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let s = PageStore::in_memory(&mapper, 8, &all(&mapper));
        assert_eq!(s.total_reads(), 0);
        let _ = s.read_page(0, None).unwrap();
        let _ = s.read_page(0, None).unwrap();
        let _ = s
            .read_run(1, 2, &mut BytesMut::new(), &mut Vec::new())
            .unwrap();
        assert_eq!(s.total_reads(), 4);
    }

    #[test]
    fn shard_slice_serves_global_ids_and_bytes() {
        // 10 records, 4 per page → pages {0,1,2}; a shard owning {0,2}
        // must return exactly the full store's bytes for those pages.
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let full = PageStore::in_memory(&mapper, 8, &all(&mapper));
        let shard = PageStore::in_memory(&mapper, 8, &[2, 0, 2]);
        for page in [0usize, 2] {
            assert_eq!(shard.read_page(page, None), full.read_page(page, None));
        }
        assert_eq!(
            shard.read_page(1, None).unwrap_err(),
            StorageError::PageNotOwned { page: 1 }
        );
        // Records on owned pages read back under their global ids.
        for v in [0usize, 1, 2, 3, 8, 9] {
            assert_eq!(record(&shard, &mapper, v, 8), payload(v, 8));
        }
        assert_eq!(shard.total_reads(), 2 + 6);
    }

    #[test]
    #[should_panic(expected = "page 1 not owned")]
    fn shard_slice_rejects_unowned_page() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let shard = PageStore::in_memory(&mapper, 8, &[0]);
        if let Err(e) = shard.read_page(1, None) {
            panic!("{e}");
        }
    }

    #[test]
    #[should_panic(expected = "≥")]
    fn shard_slice_rejects_out_of_range_page() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let _ = PageStore::in_memory(&mapper, 8, &[3]);
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
        let mem = PageStore::in_memory(&mapper, 8, &all(&mapper));
        let disk = PageStore::open(&path, &mapper, 8, &all(&mapper)).unwrap();
        for page in 0..mapper.num_pages() {
            assert_eq!(disk.read_page(page, None), mem.read_page(page, None));
        }
        for v in 0..10 {
            assert_eq!(record(&disk, &mapper, v, 8), record(&mem, &mapper, v, 8));
        }
        // Accounting is identical too: same reads for the same traffic.
        assert_eq!(disk.total_reads(), mem.total_reads());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_backed_shard_slice_reads_only_owned_pages() {
        let order = LinearOrder::identity(10);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let path = temp_path("slice");
        crate::diskfile::write_page_file(&path, &mapper, 8).unwrap();
        let slice = PageStore::open(&path, &mapper, 8, &[0, 2]).unwrap();
        let full = PageStore::in_memory(&mapper, 8, &all(&mapper));
        for page in [0usize, 2] {
            assert_eq!(slice.read_page(page, None), full.read_page(page, None));
        }
        assert_eq!(
            slice.read_page(1, None).unwrap_err(),
            StorageError::PageNotOwned { page: 1 }
        );
        // A run through an unowned page is rejected before any read.
        assert_eq!(
            slice
                .read_run(0, 2, &mut BytesMut::new(), &mut Vec::new())
                .unwrap_err(),
            StorageError::PageNotOwned { page: 1 }
        );
        // Opening against the wrong geometry is a typed error, not UB.
        assert!(matches!(
            PageStore::open(&path, &mapper, 16, &[0]),
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
        let mem = PageStore::in_memory(&mapper, 8, &all(&mapper));
        let disk = PageStore::open(&path, &mapper, 8, &all(&mapper)).unwrap();
        let (mut staging, mut spares) = (BytesMut::new(), Vec::new());
        for s in [&mem, &disk] {
            let run = s.read_run(1, 3, &mut staging, &mut spares).unwrap();
            assert_eq!(run.len(), 3);
            for (i, bytes) in run.into_iter().enumerate() {
                assert_eq!(bytes, s.read_page(1 + i, None).unwrap());
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
                    s.read_run(start, count, &mut staging, &mut spares)
                        .unwrap_err(),
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
        let mem = PageStore::in_memory(&mapper, 8, &all(&mapper));
        let disk = PageStore::open(&path, &mapper, 8, &all(&mapper)).unwrap();
        for s in [&mem, &disk] {
            s.arm_read_error(1);
            // Other pages still read fine while armed.
            assert!(s.read_page(0, None).is_ok());
            assert_eq!(
                s.read_page(1, None).unwrap_err(),
                StorageError::Injected { page: 1 }
            );
            // One-shot: the retry succeeds, and the failed read was not
            // counted (it never reached storage).
            assert!(s.read_page(1, None).is_ok());
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
        let s = PageStore::in_memory(&mapper, 8, &all(&mapper));
        for v in 0..10 {
            assert_eq!(record(&s, &mapper, v, 8), payload(v, 8));
        }
    }
}
