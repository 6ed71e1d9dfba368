//! A disk-backed page file: the out-of-core storage tier.
//!
//! Everything upstream of this module treats page I/O as accounting; this
//! module makes it physical. A **page file** serializes the payloads a
//! [`crate::store::PageStore`] would materialise in memory, laid out **in
//! linear-order sequence**: page `p` of the file holds exactly the records
//! whose ranks fall in `[p·rpp, (p+1)·rpp)`, so a mapping that clusters a
//! query's records into few, contiguous ranks also clusters its reads into
//! few, contiguous file extents — the paper's physical motivation, made
//! literal. Sequential rank sweeps become sequential disk reads, which is
//! what makes order-driven readahead (see `slpm_serve`'s shard replay)
//! both trivial and profitable.
//!
//! ## File format (version 3)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SLPMPAGE"
//! 8       4     format version (u32 LE)
//! 12      4     record_size (u32 LE)
//! 16      4     records_per_page (u32 LE)
//! 20      8     num_records (u64 LE)
//! 28      8     num_pages (u64 LE)
//! 36      8     order digest (u64 LE, FNV-1a over the rank array)
//! 44      12    reserved (zero)
//! 56      8     header checksum (u64 LE, FNV-1a over bytes 0..56)
//! 64      —     page frames, ascending global page id
//! ```
//!
//! Each **page frame** is fixed-size: `records_per_page · record_size`
//! payload bytes followed by an 8-byte frame checksum of the payload
//! (`frame_checksum`: eight FNV-style lanes, each step folding two
//! little-endian `u64` words with one multiply, folded with the length,
//! then the sub-128-byte tail word by word and byte by byte). Every step
//! is a bijection in the lane state and in each word, so any change
//! confined to one word — every single-bit flip included — changes the
//! sum. Fixed frames mean `page → offset` is one
//! multiplication, the total file length is known from the header (so
//! truncation is detected eagerly at open, not lazily at first read), and
//! a contiguous run of pages is one positional read.
//!
//! Versions 2 and 3 changed only the frame checksum (version 1 hashed
//! frames byte-serially, version 2 in four lanes of one word per
//! multiply). The header checksum and the order digest are still
//! byte-serial FNV-1a, so an older file's header verifies and opening it
//! fails with a typed [`StorageError::VersionMismatch`], not a checksum
//! error.
//!
//! The **order digest** ties a file to the linear order it was packed
//! under: opening a file with a mapper whose rank array hashes differently
//! fails with [`StorageError::GeometryMismatch`] instead of silently
//! serving records from the wrong slots.
//!
//! Every failure is a typed [`StorageError`] — truncation, corruption and
//! version skew are recoverable conditions for the serving layer (which
//! degrades the affected unit and rebuilds the shard), never panics.
//!
//! ## Relation to [`crate::io::IoModel`]
//!
//! [`crate::io::IoModel`] prices a query analytically: `runs` seeks plus
//! `pages` transfers. This module is the physical counterpart the model
//! predicts: one [`PageFile::read_run`] call is exactly one seek (one
//! positional read) plus `count` page transfers, and a query replayed as
//! `IoCost { pages, runs }` performs `runs` such calls when readahead
//! covers each monotone run. The measured per-page and per-seek costs of
//! this tier calibrate `slpm_serve::stream::ServiceModel`'s defaults.

// This module is the one place `std::fs` is blessed (the `fs-only-in-
// storage` xtask lint pins the whole tree to that rule by path).
use crate::pages::PageMapper;
use crate::store::fill_page;
use bytes::{Bytes, BytesMut};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Magic bytes opening every page file.
pub const MAGIC: [u8; 8] = *b"SLPMPAGE";
/// Current format version.
pub const FORMAT_VERSION: u32 = 3;
/// Serialized header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Per-frame checksum size in bytes.
pub const FRAME_CHECKSUM_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the same hash family the serving layer uses
/// for outcome digests, so checksums stay dependency-free. Hashes the
/// header; frames use the word-wise [`frame_checksum`].
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Independent multiply chains in [`frame_checksum`].
const LANES: usize = 8;
/// Bytes per [`frame_checksum`] block: two little-endian `u64` words per
/// lane.
const BLOCK: usize = LANES * 16;

/// The page-frame checksum (format version 3): FNV-style, but over
/// little-endian `u64` words in eight independent lanes, each step
/// folding two words with one multiply, so eight multiply chains overlap
/// and each multiply covers 16 bytes.
///
/// Each 128-byte block feeds words `2i` and `2i + 1` to lane `i` with
/// `h = ((h ^ a) · FNV_PRIME) + b`. The lanes and the length are then
/// folded into one hash with `h = (h ^ w) · FNV_PRIME`, and so is the
/// sub-128-byte tail, word by word and then byte by byte. Every step is a
/// bijection in its state and in each word (xor, an odd multiplier mod
/// 2⁶⁴, an addition), so any change confined to one word or one tail
/// byte is always detected.
fn frame_checksum(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(16)) {
            let (a, b) = (word(&pair[..8]), word(&pair[8..]));
            *lane = (*lane ^ a).wrapping_mul(FNV_PRIME).wrapping_add(b);
        }
    }
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
    let mut h = lanes
        .into_iter()
        .chain([bytes.len() as u64])
        .fold(FNV_OFFSET, fold);
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = fold(h, word(w));
    }
    words.remainder().iter().fold(h, |h, &b| fold(h, b as u64))
}

/// FNV-1a over a rank array (each rank hashed as a little-endian u64):
/// the digest that ties a page file to its linear order.
pub fn order_digest(ranks: &[usize]) -> u64 {
    let mut h = FNV_OFFSET;
    for &r in ranks {
        for b in (r as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Typed failures of the disk tier.
///
/// These are *conditions*, not bugs: the serving layer maps them to
/// degraded coverage and shard rebuilds, so none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system I/O failure (open, read, write).
    Io(String),
    /// The file does not start with the page-file magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The file is shorter than its header promises.
    Truncated {
        /// Length the header implies, in bytes.
        expected: u64,
        /// Actual file length, in bytes.
        actual: u64,
    },
    /// A checksum did not verify. `page == usize::MAX` means the header
    /// itself; otherwise the global id of the corrupt page frame.
    ChecksumMismatch {
        /// Global page id of the corrupt frame (`usize::MAX` = header).
        page: usize,
    },
    /// The file's geometry (record size, page size, record count or order
    /// digest) does not match what the caller expects.
    GeometryMismatch {
        /// Which field disagreed, with both values.
        detail: String,
    },
    /// A fault-plan-injected read error (`pagerr:P@N`), surfaced through
    /// the same typed path a real device error would take.
    Injected {
        /// Global page id whose read was failed.
        page: usize,
    },
    /// A read named a page this store slice does not own.
    PageNotOwned {
        /// The unowned global page id.
        page: usize,
    },
    /// A read named a page past the end of the file.
    PageOutOfRange {
        /// The out-of-range global page id.
        page: usize,
        /// Number of pages the file holds.
        num_pages: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StorageError::BadMagic => write!(f, "not a page file (bad magic)"),
            StorageError::VersionMismatch { found, expected } => {
                write!(f, "page file version {found}, this build reads {expected}")
            }
            StorageError::Truncated { expected, actual } => {
                write!(
                    f,
                    "page file truncated: {actual} bytes, header promises {expected}"
                )
            }
            StorageError::ChecksumMismatch { page } if *page == usize::MAX => {
                write!(f, "page file header checksum mismatch")
            }
            StorageError::ChecksumMismatch { page } => {
                write!(f, "page {page} checksum mismatch")
            }
            StorageError::GeometryMismatch { detail } => {
                write!(f, "page file geometry mismatch: {detail}")
            }
            StorageError::Injected { page } => {
                write!(f, "injected read error on page {page}")
            }
            StorageError::PageNotOwned { page } => {
                write!(f, "page {page} not owned by this store slice")
            }
            StorageError::PageOutOfRange { page, num_pages } => {
                write!(f, "page {page} out of range ({num_pages} pages)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// The parsed, validated header of a page file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFileHeader {
    /// Format version.
    pub version: u32,
    /// Bytes per record.
    pub record_size: usize,
    /// Records per page.
    pub records_per_page: usize,
    /// Total records packed.
    pub num_records: usize,
    /// Total page frames.
    pub num_pages: usize,
    /// FNV-1a digest of the packing order's rank array.
    pub order_digest: u64,
}

impl PageFileHeader {
    /// Payload bytes per frame (excluding the frame checksum).
    pub fn page_bytes(&self) -> usize {
        self.records_per_page * self.record_size
    }

    /// Total frame size on disk (payload + checksum).
    pub fn frame_len(&self) -> usize {
        self.page_bytes() + FRAME_CHECKSUM_LEN
    }

    /// Total file length the header implies.
    pub fn file_len(&self) -> u64 {
        HEADER_LEN as u64 + self.num_pages as u64 * self.frame_len() as u64
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..8].copy_from_slice(&MAGIC);
        buf[8..12].copy_from_slice(&self.version.to_le_bytes());
        buf[12..16].copy_from_slice(&(self.record_size as u32).to_le_bytes());
        buf[16..20].copy_from_slice(&(self.records_per_page as u32).to_le_bytes());
        buf[20..28].copy_from_slice(&(self.num_records as u64).to_le_bytes());
        buf[28..36].copy_from_slice(&(self.num_pages as u64).to_le_bytes());
        buf[36..44].copy_from_slice(&self.order_digest.to_le_bytes());
        let sum = fnv1a(&buf[..56]);
        buf[56..64].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; HEADER_LEN]) -> Result<Self, StorageError> {
        if buf[0..8] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let sum = u64::from_le_bytes(buf[56..64].try_into().expect("8 bytes"));
        if sum != fnv1a(&buf[..56]) {
            return Err(StorageError::ChecksumMismatch { page: usize::MAX });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StorageError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        Ok(PageFileHeader {
            version,
            record_size: u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize,
            records_per_page: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize,
            num_records: u64::from_le_bytes(buf[20..28].try_into().expect("8 bytes")) as usize,
            num_pages: u64::from_le_bytes(buf[28..36].try_into().expect("8 bytes")) as usize,
            order_digest: u64::from_le_bytes(buf[36..44].try_into().expect("8 bytes")),
        })
    }
}

/// Write a page file for the records laid out by `mapper`, each record
/// `record_size` bytes, to `path` (overwriting).
///
/// Pages are written in ascending global id — i.e. in **linear-order
/// sequence**: the writer inverts the rank array once and lays each page
/// out in one frame buffer exactly as the in-memory store does, so
/// packing is one sequential pass regardless of how scrambled the vertex
/// ids are.
pub fn write_page_file(
    path: &Path,
    mapper: &PageMapper<'_>,
    record_size: usize,
) -> Result<PageFileHeader, StorageError> {
    let header = PageFileHeader {
        version: FORMAT_VERSION,
        record_size,
        records_per_page: mapper.layout().records_per_page,
        num_records: mapper.num_records(),
        num_pages: mapper.num_pages(),
        order_digest: order_digest(mapper.ranks()),
    };
    let vertex_at = mapper.vertices_by_position();
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&header.encode())?;
    let mut frame = vec![0u8; header.page_bytes()];
    for page in 0..header.num_pages {
        fill_page(&mut frame, page, header.records_per_page, &vertex_at);
        out.write_all(&frame)?;
        out.write_all(&frame_checksum(&frame).to_le_bytes())?;
    }
    out.flush()?;
    Ok(header)
}

/// An open, validated page file serving checksummed page reads.
///
/// Opening validates the magic, version, header checksum and **total file
/// length** (so a truncated file fails at open, not at the first unlucky
/// read). Each read is positional — one `read_exact_at` at the page's
/// fixed offset, with no file cursor to move — and verifies every frame's
/// checksum: [`PageFile::read_page`] reads one frame, and
/// [`PageFile::read_run`] a contiguous run of frames in one such read —
/// the readahead primitive. Reads take `&self`; each
/// shard slice still owns its own `PageFile`, one file descriptor per
/// shard.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    header: PageFileHeader,
}

impl PageFile {
    /// Open and validate a page file.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let file = File::open(path)?;
        let actual = file.metadata()?.len();
        if (actual as usize) < HEADER_LEN {
            return Err(StorageError::Truncated {
                expected: HEADER_LEN as u64,
                actual,
            });
        }
        let mut buf = [0u8; HEADER_LEN];
        file.read_exact_at(&mut buf, 0)?;
        let header = PageFileHeader::decode(&buf)?;
        if actual != header.file_len() {
            return Err(StorageError::Truncated {
                expected: header.file_len(),
                actual,
            });
        }
        Ok(PageFile { file, header })
    }

    /// The validated header.
    pub fn header(&self) -> &PageFileHeader {
        &self.header
    }

    /// Check this file's geometry against a mapper + record size; the
    /// order digest must match the mapper's rank array bitwise.
    pub fn check_geometry(
        &self,
        mapper: &PageMapper<'_>,
        record_size: usize,
    ) -> Result<(), StorageError> {
        let h = &self.header;
        let mismatch = |detail: String| Err(StorageError::GeometryMismatch { detail });
        if h.record_size != record_size {
            return mismatch(format!(
                "record_size {} in file, {record_size} expected",
                h.record_size
            ));
        }
        let rpp = mapper.layout().records_per_page;
        if h.records_per_page != rpp {
            return mismatch(format!(
                "records_per_page {} in file, {rpp} expected",
                h.records_per_page
            ));
        }
        if h.num_records != mapper.num_records() {
            return mismatch(format!(
                "num_records {} in file, {} expected",
                h.num_records,
                mapper.num_records()
            ));
        }
        let want = order_digest(mapper.ranks());
        if h.order_digest != want {
            return mismatch(format!(
                "order digest {:#018x} in file, {want:#018x} for this order",
                h.order_digest
            ));
        }
        Ok(())
    }

    /// Read one page frame by global id into `spare` (a fresh buffer
    /// when `None`) with one positional read, and verify its checksum. A
    /// buffer recycled from an evicted page of this file already has the
    /// frame's capacity, so the read allocates nothing and zero-fills
    /// nothing but the 8 checksum bytes.
    pub fn read_page(&self, page: usize, spare: Option<BytesMut>) -> Result<Bytes, StorageError> {
        let mut buf = spare.unwrap_or_default();
        self.read_frames(page, 1, &mut buf)?;
        buf.truncate(self.header.page_bytes());
        Ok(buf.freeze())
    }

    /// Read `count` contiguous page frames starting at global id `start`
    /// with **one positional read** — one call is one physical run: the
    /// I/O the cost model prices as `1 seek + count transfers`. This is
    /// the readahead primitive. The run lands in `staging` (grown to the
    /// run's length when shorter, so a reused staging buffer is never
    /// zero-filled again), every frame's checksum is verified before any
    /// page is returned, and each payload is then copied into a buffer
    /// popped from `spares` (typically evicted frames'), or a new one
    /// when none is left. No page keeps the run buffer alive, so each can
    /// be recycled on its own.
    pub fn read_run(
        &self,
        start: usize,
        count: usize,
        staging: &mut BytesMut,
        spares: &mut Vec<BytesMut>,
    ) -> Result<Vec<Bytes>, StorageError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.read_frames(start, count, staging)?;
        let (frame_len, page_bytes) = (self.header.frame_len(), self.header.page_bytes());
        Ok(staging[..frame_len * count]
            .chunks_exact(frame_len)
            .map(|frame| {
                // Room for a whole frame, so a demand read can reuse it.
                let mut buf = spares
                    .pop()
                    .unwrap_or_else(|| BytesMut::with_capacity(frame_len));
                buf.clear();
                buf.extend_from_slice(&frame[..page_bytes]);
                buf.freeze()
            })
            .collect())
    }

    /// Read the `count ≥ 1` frames from global id `start` with one
    /// positional read into the front of `buf` (grown to the run's length
    /// when shorter) and verify every frame's checksum.
    fn read_frames(
        &self,
        start: usize,
        count: usize,
        buf: &mut BytesMut,
    ) -> Result<(), StorageError> {
        let num_pages = self.header.num_pages;
        // A run whose end overflows lies past any file, too.
        if start.checked_add(count).is_none_or(|end| end > num_pages) {
            return Err(StorageError::PageOutOfRange {
                page: start.saturating_add(count - 1),
                num_pages,
            });
        }
        let frame_len = self.header.frame_len();
        let len = frame_len * count;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let run = &mut buf[..len];
        self.file
            .read_exact_at(run, HEADER_LEN as u64 + (start as u64) * frame_len as u64)?;
        let page_bytes = self.header.page_bytes();
        for (i, frame) in run.chunks_exact(frame_len).enumerate() {
            let (payload, sum) = frame.split_at(page_bytes);
            if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != frame_checksum(payload) {
                return Err(StorageError::ChecksumMismatch { page: start + i });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PageLayout;
    use spectral_lpm::LinearOrder;
    use std::fs;
    use std::path::PathBuf;

    /// Record `v`'s payload, spelled out independently of `fill_page`.
    fn payload(v: usize, record_size: usize) -> Vec<u8> {
        (0..record_size)
            .map(|i| ((v * 31 + i) & 0xFF) as u8)
            .collect()
    }

    /// A run read through fresh buffers.
    fn run(file: &PageFile, start: usize, count: usize) -> Result<Vec<Bytes>, StorageError> {
        file.read_run(start, count, &mut BytesMut::new(), &mut Vec::new())
    }

    /// A self-cleaning temp path (no tempfile crate in the offline image).
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("slpm-diskfile-{}-{tag}.pages", std::process::id()));
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn write_then_open_roundtrips_header_and_pages() {
        let order = LinearOrder::from_ranks((0..10).rev().collect()).unwrap();
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("roundtrip");
        let written = write_page_file(&tmp.0, &mapper, 8).unwrap();
        assert_eq!(written.num_pages, 3);
        assert_eq!(written.num_records, 10);
        let file = PageFile::open(&tmp.0).unwrap();
        assert_eq!(*file.header(), written);
        file.check_geometry(&mapper, 8).unwrap();
        // Every record's bytes sit at (rank / 4, rank % 4) and match the
        // deterministic payload function.
        for v in 0..10 {
            let rank = order.rank_of(v);
            let page = file.read_page(rank / 4, None).unwrap();
            let slot = rank % 4;
            assert_eq!(&page[slot * 8..(slot + 1) * 8], &payload(v, 8)[..]);
        }
        // Tail slots of the last page are zero-filled.
        let last = file.read_page(2, None).unwrap();
        assert!(last[2 * 8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn read_run_matches_single_reads() {
        let order = LinearOrder::identity(32);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("run");
        write_page_file(&tmp.0, &mapper, 16).unwrap();
        let file = PageFile::open(&tmp.0).unwrap();
        let pages = run(&file, 2, 4).unwrap();
        assert_eq!(pages.len(), 4);
        for (i, bytes) in pages.iter().enumerate() {
            assert_eq!(&bytes[..], &file.read_page(2 + i, None).unwrap()[..]);
        }
        assert!(run(&file, 5, 0).unwrap().is_empty());
        assert_eq!(
            run(&file, 6, 3).unwrap_err(),
            StorageError::PageOutOfRange {
                page: 8,
                num_pages: 8
            }
        );
        // A run whose end overflows `usize` is out of range too, not a
        // read at a wrapped offset.
        for (start, count) in [(usize::MAX, 2), (usize::MAX, usize::MAX), (2, usize::MAX)] {
            assert_eq!(
                run(&file, start, count).unwrap_err(),
                StorageError::PageOutOfRange {
                    page: usize::MAX,
                    num_pages: 8
                }
            );
        }
    }

    #[test]
    fn runs_read_through_reused_buffers_match_single_reads() {
        let order = LinearOrder::identity(32);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("run-reuse");
        write_page_file(&tmp.0, &mapper, 16).unwrap();
        let file = PageFile::open(&tmp.0).unwrap();
        let frame_len = file.header().frame_len();
        // A staging buffer left longer and dirty by an earlier run, and
        // spares of every size: a fresh one, a short one, a long one, and
        // a page evicted from an earlier run.
        let mut staging = BytesMut::zeroed(5 * frame_len + 3);
        staging.fill(0xAB);
        let evicted = run(&file, 0, 2).unwrap().pop().unwrap();
        let mut spares = vec![
            BytesMut::new(),
            BytesMut::zeroed(3),
            BytesMut::zeroed(3 * frame_len),
            evicted.try_into_mut().unwrap(),
        ];
        let run = file.read_run(3, 5, &mut staging, &mut spares).unwrap();
        assert!(spares.is_empty(), "four spares filled, one page allocated");
        assert_eq!(staging.len(), 5 * frame_len + 3, "staging never shrinks");
        for (i, bytes) in run.iter().enumerate() {
            assert_eq!(&bytes[..], &file.read_page(3 + i, None).unwrap()[..]);
        }
        // Each page owns its buffer: dropping the others frees nothing it
        // needs, and it can be recycled on its own.
        let last = run.into_iter().last().unwrap();
        assert!(last.try_into_mut().is_ok());
    }

    #[test]
    fn recycled_buffers_are_read_in_place() {
        let order = LinearOrder::identity(32);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("recycle");
        write_page_file(&tmp.0, &mapper, 16).unwrap();
        let file = PageFile::open(&tmp.0).unwrap();
        // A single page's buffer comes back with the frame's capacity, so
        // the next read lands in the same allocation with the right bytes.
        let first = file.read_page(1, None).unwrap();
        let ptr = first.as_ptr();
        let again = file
            .read_page(5, Some(first.try_into_mut().unwrap()))
            .unwrap();
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(&again[..], &file.read_page(5, None).unwrap()[..]);
        // So does the last page of a run once its neighbours are gone, or
        // a buffer of any other size.
        let last = run(&file, 2, 3).unwrap().pop().unwrap();
        let spare = last.try_into_mut().unwrap();
        assert_eq!(
            &file.read_page(0, Some(spare)).unwrap()[..],
            &file.read_page(0, None).unwrap()[..]
        );
        let odd = Some(BytesMut::zeroed(3));
        assert_eq!(
            &file.read_page(7, odd).unwrap()[..],
            &file.read_page(7, None).unwrap()[..]
        );
        assert_eq!(
            file.read_page(8, None).unwrap_err(),
            StorageError::PageOutOfRange {
                page: 8,
                num_pages: 8
            }
        );
    }

    #[test]
    fn truncated_file_fails_at_open_with_a_typed_error() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("truncate");
        write_page_file(&tmp.0, &mapper, 8).unwrap();
        let full = fs::read(&tmp.0).unwrap();
        fs::write(&tmp.0, &full[..full.len() - 5]).unwrap();
        match PageFile::open(&tmp.0) {
            Err(StorageError::Truncated { expected, actual }) => {
                assert_eq!(expected, full.len() as u64);
                assert_eq!(actual, full.len() as u64 - 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Shorter than even a header is also Truncated, not a panic.
        fs::write(&tmp.0, &full[..10]).unwrap();
        assert!(matches!(
            PageFile::open(&tmp.0),
            Err(StorageError::Truncated { .. })
        ));
    }

    #[test]
    fn bit_flips_are_caught_by_checksums() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("bitflip");
        write_page_file(&tmp.0, &mapper, 8).unwrap();
        let pristine = fs::read(&tmp.0).unwrap();
        // Flip one payload bit in page 1: only that page's read fails.
        let mut bytes = pristine.clone();
        let frame_len = 4 * 8 + FRAME_CHECKSUM_LEN;
        bytes[HEADER_LEN + frame_len + 3] ^= 0x40;
        fs::write(&tmp.0, &bytes).unwrap();
        let file = PageFile::open(&tmp.0).unwrap();
        assert!(file.read_page(0, None).is_ok());
        assert_eq!(
            file.read_page(1, None).unwrap_err(),
            StorageError::ChecksumMismatch { page: 1 }
        );
        // Flip a header bit: open itself fails.
        let mut bytes = pristine.clone();
        bytes[20] ^= 0x01;
        fs::write(&tmp.0, &bytes).unwrap();
        assert_eq!(
            PageFile::open(&tmp.0).unwrap_err(),
            StorageError::ChecksumMismatch { page: usize::MAX }
        );
        // Wrong magic is its own error.
        let mut bytes = pristine;
        bytes[0] = b'X';
        fs::write(&tmp.0, &bytes).unwrap();
        assert_eq!(PageFile::open(&tmp.0).unwrap_err(), StorageError::BadMagic);
    }

    #[test]
    fn version_skew_and_geometry_mismatches_are_typed() {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("geometry");
        write_page_file(&tmp.0, &mapper, 8).unwrap();
        // Bump the version and re-checksum the header: VersionMismatch.
        let mut bytes = fs::read(&tmp.0).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let sum = fnv1a(&bytes[..56]);
        bytes[56..64].copy_from_slice(&sum.to_le_bytes());
        fs::write(&tmp.0, &bytes).unwrap();
        assert_eq!(
            PageFile::open(&tmp.0).unwrap_err(),
            StorageError::VersionMismatch {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            }
        );
        // Geometry checks: wrong record size, wrong page size, wrong order.
        write_page_file(&tmp.0, &mapper, 8).unwrap();
        let file = PageFile::open(&tmp.0).unwrap();
        assert!(matches!(
            file.check_geometry(&mapper, 16),
            Err(StorageError::GeometryMismatch { .. })
        ));
        let coarse = PageMapper::new(&order, PageLayout::new(8));
        assert!(matches!(
            file.check_geometry(&coarse, 8),
            Err(StorageError::GeometryMismatch { .. })
        ));
        let other = LinearOrder::from_ranks((0..16).rev().collect()).unwrap();
        let permuted = PageMapper::new(&other, PageLayout::new(4));
        assert!(matches!(
            file.check_geometry(&permuted, 8),
            Err(StorageError::GeometryMismatch { .. })
        ));
    }

    /// Rewrite a fresh file's header as format `version` and open it: the
    /// header hash is the same byte-serial FNV-1a in every version, spelled
    /// out here so the test pins the old versions' header hash, not
    /// whatever `fnv1a` is, and the open must fail on the version alone.
    fn open_as_version(version: u32, tag: &str) -> StorageError {
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new(tag);
        write_page_file(&tmp.0, &mapper, 8).unwrap();
        let mut bytes = fs::read(&tmp.0).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let mut sum = FNV_OFFSET;
        for &b in &bytes[..56] {
            sum = (sum ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        bytes[56..64].copy_from_slice(&sum.to_le_bytes());
        fs::write(&tmp.0, &bytes).unwrap();
        PageFile::open(&tmp.0).unwrap_err()
    }

    #[test]
    fn a_version_1_file_fails_at_open_with_a_version_error() {
        // Version 1 hashed frames byte-serially.
        assert_eq!(
            open_as_version(1, "v1"),
            StorageError::VersionMismatch {
                found: 1,
                expected: 3
            }
        );
    }

    #[test]
    fn a_version_2_file_fails_at_open_with_a_version_error() {
        // Version 2 hashed frames in four lanes of one word per multiply.
        assert_eq!(
            open_as_version(2, "v2"),
            StorageError::VersionMismatch {
                found: 2,
                expected: 3
            }
        );
    }

    /// Every single-bit flip of `frame` changes its checksum.
    fn assert_every_bit_flip_caught(frame: &[u8]) {
        let clean = frame_checksum(frame);
        let mut flipped = frame.to_vec();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                frame_checksum(&flipped),
                clean,
                "flip of bit {bit} in a {}-byte frame went undetected",
                frame.len()
            );
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn frame_checksum_catches_every_single_bit_flip() {
        // A real-geometry frame: 64 records × 64 B = 4,096 bytes, so
        // 32,768 single-bit flips.
        let frame: Vec<u8> = (0..64).flat_map(|v| payload(v, 64)).collect();
        assert_eq!(frame.len(), 4096);
        assert_every_bit_flip_caught(&frame);
        // Lengths 0..=260 cover every tail shape (0–127 bytes past the
        // last whole block: whole words, then bytes) with zero or one
        // whole block before it, and the short tails after two blocks.
        for len in 0..=260 {
            let frame: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_every_bit_flip_caught(&frame);
        }
    }

    #[test]
    fn frame_checksum_catches_a_changed_word_in_every_lane() {
        // Three whole blocks and a 40-byte tail: every word of a block
        // (both words each lane folds per step) and every tail word.
        let frame: Vec<u8> = (0..3 * BLOCK as u32 + 40).map(|i| (i * 7) as u8).collect();
        let clean = frame_checksum(&frame);
        for word in 0..frame.len() / 8 {
            let mut changed = frame.clone();
            let at = word * 8;
            changed[at..at + 8].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
            assert_ne!(frame_checksum(&changed), clean, "word {word}");
        }
        // The length is folded in: trailing zeros are not invisible.
        assert_ne!(frame_checksum(&[0u8; 128]), frame_checksum(&[0u8; 256]));
    }

    #[test]
    fn order_digest_distinguishes_orders() {
        let a: Vec<usize> = (0..64).collect();
        let b: Vec<usize> = (0..64).rev().collect();
        assert_ne!(order_digest(&a), order_digest(&b));
        assert_eq!(order_digest(&a), order_digest(&(0..64).collect::<Vec<_>>()));
    }

    /// Calibration harness for `slpm_serve::stream::ServiceModel` — run
    /// with `cargo test -p slpm_storage --release -- --ignored
    /// calibrate_disk_tier --nocapture` to re-measure this tier. It times
    /// the two primitives the service model charges for: a scattered
    /// `read_page` (one seek + one transfer) and a long `read_run` (one
    /// seek amortised over many transfers), then solves for per-page and
    /// per-seek microseconds. Not a unit test: the numbers are hardware-
    /// dependent and exist to anchor the simulated-clock defaults.
    #[test]
    #[ignore = "measurement harness, not an invariant"]
    fn calibrate_disk_tier() {
        use std::time::Instant;
        // 4096 pages × (64 × 64 B + checksum) ≈ 16 MiB — big enough to
        // amortise fixed costs, small enough for any CI runner.
        let records = 262_144;
        let rpp = 64;
        let order = LinearOrder::identity(records);
        let mapper = PageMapper::new(&order, PageLayout::new(rpp));
        let tmp = TempFile::new("calibrate");
        let header = write_page_file(&tmp.0, &mapper, 64).unwrap();
        let pages = header.num_pages;
        let file = PageFile::open(&tmp.0).unwrap();
        // Warm the page cache so both passes measure the software path
        // plus cached I/O, not first-touch disk latency.
        run(&file, 0, pages).unwrap();
        // Sequential pass: long runs, one seek per 256 pages.
        let t = Instant::now();
        for start in (0..pages).step_by(256) {
            run(&file, start, 256.min(pages - start)).unwrap();
        }
        let seq_us = t.elapsed().as_secs_f64() * 1e6;
        // Scattered pass: a coprime stride visits every page once, one
        // seek per page.
        let t = Instant::now();
        for i in 0..pages {
            file.read_page((i * 2049) % pages, None).unwrap();
        }
        let scat_us = t.elapsed().as_secs_f64() * 1e6;
        let per_page = seq_us / pages as f64;
        let per_seek = (scat_us - seq_us) / pages as f64;
        println!(
            "calibrate_disk_tier: {pages} pages, sequential {seq_us:.0}µs, \
             scattered {scat_us:.0}µs → per_page ≈ {per_page:.3}µs, \
             per_seek ≈ {per_seek:.3}µs"
        );
    }

    #[test]
    fn errors_display_usefully() {
        let cases: Vec<(StorageError, &str)> = vec![
            (StorageError::BadMagic, "magic"),
            (
                StorageError::VersionMismatch {
                    found: 9,
                    expected: 1,
                },
                "version 9",
            ),
            (
                StorageError::Truncated {
                    expected: 100,
                    actual: 64,
                },
                "truncated",
            ),
            (StorageError::ChecksumMismatch { page: 7 }, "page 7"),
            (
                StorageError::ChecksumMismatch { page: usize::MAX },
                "header",
            ),
            (
                StorageError::GeometryMismatch {
                    detail: "record_size".into(),
                },
                "record_size",
            ),
            (StorageError::Injected { page: 3 }, "injected"),
            (StorageError::PageNotOwned { page: 5 }, "not owned"),
            (
                StorageError::PageOutOfRange {
                    page: 9,
                    num_pages: 8,
                },
                "out of range",
            ),
            (StorageError::Io("boom".into()), "boom"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
