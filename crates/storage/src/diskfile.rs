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
//! ## File format (version 2)
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
//! (`frame_checksum`: four FNV-1a-style lanes over little-endian `u64`
//! words, folded with the length, then the sub-32-byte tail byte by
//! byte). Every lane step is a bijection in both the lane state and the
//! word, so any change confined to one word — every single-bit flip
//! included — changes the sum. Fixed frames mean `page → offset` is one
//! multiplication, the total file length is known from the header (so
//! truncation is detected eagerly at open, not lazily at first read), and
//! a contiguous run of pages is one positional read.
//!
//! Version 2 changed only the frame checksum (version 1 hashed frames
//! byte-serially). The header checksum and the order digest are still
//! byte-serial FNV-1a, so a version-1 file's header verifies and opening
//! it fails with a typed [`StorageError::VersionMismatch`], not a
//! checksum error.
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
use crate::store::record_payload;
use bytes::Bytes;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Magic bytes opening every page file.
pub const MAGIC: [u8; 8] = *b"SLPMPAGE";
/// Current format version.
pub const FORMAT_VERSION: u32 = 2;
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
const LANES: usize = 4;
/// Bytes per [`frame_checksum`] block: one little-endian `u64` per lane.
const BLOCK: usize = LANES * 8;

/// The page-frame checksum (format version 2): FNV-1a-style, but over
/// little-endian `u64` words in four independent lanes, so the four
/// multiply chains overlap instead of one chain per byte.
///
/// Each 32-byte block feeds word `i` to lane `i` with
/// `h = (h ^ w) · FNV_PRIME`. The lanes and the length are then folded
/// into one hash the same way, and the sub-32-byte tail is hashed byte
/// by byte. Every step is a bijection in both its inputs (xor, then an
/// odd multiplier mod 2⁶⁴), so any change confined to one word or one
/// tail byte is always detected.
fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_OFFSET;
    for word in lanes.into_iter().chain([bytes.len() as u64]) {
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
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
/// sequence**: the writer inverts the rank array once and streams record
/// payloads in rank order, so packing is one sequential pass regardless of
/// how scrambled the vertex ids are. Tail slots of the last page are
/// zero-filled, exactly as the in-memory store zero-fills them.
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
    let rpp = header.records_per_page;
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&header.encode())?;
    let mut frame = vec![0u8; header.page_bytes()];
    for page in 0..header.num_pages {
        frame.fill(0);
        for slot in 0..rpp {
            let position = page * rpp + slot;
            if position < header.num_records {
                let v = vertex_at[position];
                frame[slot * record_size..(slot + 1) * record_size]
                    .copy_from_slice(&record_payload(v, record_size));
            }
        }
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
/// checksum; [`PageFile::read_run`] reads a contiguous run of frames in
/// one such read — the readahead primitive. Reads take `&self`; each
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

    /// Read one page frame by global id, verifying its checksum.
    pub fn read_page(&self, page: usize) -> Result<Bytes, StorageError> {
        let mut run = self.read_run(page, 1)?;
        Ok(run.pop().expect("read_run(_, 1) returns one page"))
    }

    /// Read `count` contiguous page frames starting at global id `start`
    /// with **one positional read** — one call is one physical run: the
    /// I/O the cost model prices as `1 seek + count transfers`.
    ///
    /// Every frame is verified before any page is returned. The pages are
    /// zero-copy slices of one shared run buffer, so a page held in a
    /// cache keeps its whole run (at most `count` frames) alive.
    pub fn read_run(&self, start: usize, count: usize) -> Result<Vec<Bytes>, StorageError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let end = start + count;
        if end > self.header.num_pages {
            return Err(StorageError::PageOutOfRange {
                page: end - 1,
                num_pages: self.header.num_pages,
            });
        }
        let frame_len = self.header.frame_len();
        let offset = HEADER_LEN as u64 + (start as u64) * frame_len as u64;
        let mut buf = vec![0u8; frame_len * count];
        self.file.read_exact_at(&mut buf, offset)?;
        let page_bytes = self.header.page_bytes();
        for (i, frame) in buf.chunks_exact(frame_len).enumerate() {
            let (payload, sum) = frame.split_at(page_bytes);
            if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != frame_checksum(payload) {
                return Err(StorageError::ChecksumMismatch { page: start + i });
            }
        }
        let run = Bytes::from(buf);
        Ok((0..count)
            .map(|i| run.slice(i * frame_len..i * frame_len + page_bytes))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PageLayout;
    use spectral_lpm::LinearOrder;
    use std::fs;
    use std::path::PathBuf;

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
            let page = file.read_page(rank / 4).unwrap();
            let slot = rank % 4;
            assert_eq!(&page[slot * 8..(slot + 1) * 8], &record_payload(v, 8)[..]);
        }
        // Tail slots of the last page are zero-filled.
        let last = file.read_page(2).unwrap();
        assert!(last[2 * 8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn read_run_matches_single_reads() {
        let order = LinearOrder::identity(32);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("run");
        write_page_file(&tmp.0, &mapper, 16).unwrap();
        let file = PageFile::open(&tmp.0).unwrap();
        let run = file.read_run(2, 4).unwrap();
        assert_eq!(run.len(), 4);
        for (i, bytes) in run.iter().enumerate() {
            assert_eq!(&bytes[..], &file.read_page(2 + i).unwrap()[..]);
        }
        assert!(file.read_run(5, 0).unwrap().is_empty());
        assert_eq!(
            file.read_run(6, 3).unwrap_err(),
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
        assert!(file.read_page(0).is_ok());
        assert_eq!(
            file.read_page(1).unwrap_err(),
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

    #[test]
    fn a_version_1_file_fails_at_open_with_a_version_error() {
        // Version 1 hashed frames byte-serially; its header hash is the
        // same byte-serial FNV-1a, so the header still verifies and the
        // open fails on the version alone. The hash is spelled out here so
        // the test pins version 1's header hash, not whatever `fnv1a` is.
        let order = LinearOrder::identity(16);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let tmp = TempFile::new("v1");
        write_page_file(&tmp.0, &mapper, 8).unwrap();
        let mut bytes = fs::read(&tmp.0).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let mut sum = FNV_OFFSET;
        for &b in &bytes[..56] {
            sum = (sum ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        bytes[56..64].copy_from_slice(&sum.to_le_bytes());
        fs::write(&tmp.0, &bytes).unwrap();
        assert_eq!(
            PageFile::open(&tmp.0).unwrap_err(),
            StorageError::VersionMismatch {
                found: 1,
                expected: 2
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
        let frame: Vec<u8> = (0..64).flat_map(|v| record_payload(v, 64)).collect();
        assert_eq!(frame.len(), 4096);
        assert_every_bit_flip_caught(&frame);
        // Lengths 0..=100 cover every tail shape (0–31 bytes past the
        // last whole block) with zero to three whole blocks before it.
        for len in 0..=100 {
            let frame: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_every_bit_flip_caught(&frame);
        }
    }

    #[test]
    fn frame_checksum_catches_a_changed_word_in_every_lane() {
        let frame: Vec<u8> = (0..96u32).map(|i| (i * 7) as u8).collect();
        let clean = frame_checksum(&frame);
        for lane in 0..LANES {
            for block in 0..frame.len() / BLOCK {
                let mut changed = frame.clone();
                let at = block * BLOCK + lane * 8;
                changed[at..at + 8].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
                assert_ne!(
                    frame_checksum(&changed),
                    clean,
                    "lane {lane}, block {block}"
                );
            }
        }
        // The length is folded in: trailing zeros are not invisible.
        assert_ne!(frame_checksum(&[0u8; 32]), frame_checksum(&[0u8; 64]));
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
        file.read_run(0, pages).unwrap();
        // Sequential pass: long runs, one seek per 256 pages.
        let t = Instant::now();
        for start in (0..pages).step_by(256) {
            file.read_run(start, 256.min(pages - start)).unwrap();
        }
        let seq_us = t.elapsed().as_secs_f64() * 1e6;
        // Scattered pass: a coprime stride visits every page once, one
        // seek per page.
        let t = Instant::now();
        for i in 0..pages {
            file.read_page((i * 2049) % pages).unwrap();
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
