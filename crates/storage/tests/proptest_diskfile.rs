//! Property tests for the out-of-core page file: on random orders,
//! geometries and owned page subsets, write → reopen must hand back, for
//! every owned page, exactly the page an oracle builds from the rank
//! array and the payload formula — on the disk slice and the in-memory
//! slice alike, with the same accounting — and a file damaged at any
//! single point (truncation, one flipped bit) must surface a typed
//! [`StorageError`], never a panic, attributing frame damage to the one
//! page it hit.

use proptest::prelude::*;
use slpm_storage::diskfile::{FRAME_CHECKSUM_LEN, HEADER_LEN};
use slpm_storage::{
    write_page_file, BytesMut, PageFile, PageLayout, PageMapper, PageStore, StorageError,
};
use spectral_lpm::LinearOrder;
use std::path::PathBuf;

/// A self-cleaning unique temp path (no tempfile crate offline).
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str, case: u64) -> Self {
        TempFile(std::env::temp_dir().join(format!(
            "slpm-proptest-{}-{tag}-{case}.pages",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `(order, records_per_page, record_size, case_tag)`: a random
/// permutation (coprime stride + offset) over 1..=96 records, page and
/// record geometry spanning ragged tails and single-record pages.
fn file_case() -> impl Strategy<Value = (LinearOrder, usize, usize, u64)> {
    (
        1usize..=96,
        0usize..=95,
        0usize..=5,
        1usize..=7,
        8usize..=24,
        0u64..u64::MAX,
    )
        .prop_map(|(n, stride, offset, rpp, record_size, tag)| {
            // Strides coprime to any n: map v -> (v * s + offset) % n with
            // s drawn from primes above 96.
            let s = [97usize, 101, 103, 107, 109][stride % 5];
            let ranks: Vec<usize> = (0..n).map(|v| (v * s + offset) % n).collect();
            let order = LinearOrder::from_ranks(ranks).expect("coprime stride permutes");
            (order, rpp, record_size, tag)
        })
}

/// The owned page subset of a case, as the two `Partition`s produce it:
/// `(0, a, b)` is the contiguous range `a..b`, `(k, r, _)` with `k > 0`
/// every `k`-th page from `r` (each of the `a`, `b` and `r` reduced into
/// range).
fn owned_pages(num_pages: usize, (every, a, b): (usize, usize, usize)) -> Vec<usize> {
    if every == 0 {
        let (a, b) = (a % (num_pages + 1), b % (num_pages + 1));
        (a.min(b)..a.max(b)).collect()
    } else {
        (a % every..num_pages).step_by(every).collect()
    }
}

/// The oracle page: slot `s` of page `p` holds the record of rank
/// `p · rpp + s`, record `v`'s byte `i` is `(v · 31 + i) & 0xFF`, and
/// slots past the last record are zero.
fn oracle_page(ranks: &[usize], page: usize, rpp: usize, record_size: usize) -> Vec<u8> {
    let mut frame = vec![0u8; rpp * record_size];
    for (v, &rank) in ranks.iter().enumerate() {
        if rank / rpp == page {
            let slot = rank % rpp;
            for (i, byte) in frame[slot * record_size..(slot + 1) * record_size]
                .iter_mut()
                .enumerate()
            {
                *byte = ((v * 31 + i) & 0xFF) as u8;
            }
        }
    }
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disk_store_round_trips_bitwise(
        (order, rpp, record_size, tag) in file_case(),
        subset in (0usize..=4, 0usize..=96, 0usize..=96),
    ) {
        let mapper = PageMapper::new(&order, PageLayout::new(rpp));
        let tmp = TempFile::new("roundtrip", tag);
        let header = write_page_file(&tmp.0, &mapper, record_size).expect("writes");
        prop_assert_eq!(header.num_records as usize, order.len());
        prop_assert_eq!(header.num_pages as usize, mapper.num_pages());

        let num_pages = mapper.num_pages();
        let owned = owned_pages(num_pages, subset);
        let memory = PageStore::in_memory(&mapper, record_size, &owned);
        let disk = PageStore::open(&tmp.0, &mapper, record_size, &owned).expect("reopens");

        // Every owned page is the oracle's page on both slices, read
        // alone or as part of a run of owned pages; every other page is
        // not owned.
        let (mut staging, mut spares) = (BytesMut::new(), Vec::new());
        for page in 0..num_pages {
            let (m, d) = (memory.read_page(page, None), disk.read_page(page, None));
            if owned.contains(&page) {
                let want = oracle_page(order.ranks(), page, rpp, record_size);
                prop_assert_eq!(&m.expect("owned page")[..], &want[..], "memory page {}", page);
                prop_assert_eq!(&d.expect("owned page")[..], &want[..], "disk page {}", page);
                let len = (page..num_pages).take_while(|p| owned.contains(p)).count();
                let runs = (
                    memory.read_run(page, len, &mut staging, &mut spares).expect("owned run"),
                    disk.read_run(page, len, &mut staging, &mut spares).expect("owned run"),
                );
                for (i, (m, d)) in runs.0.iter().zip(&runs.1).enumerate() {
                    let want = oracle_page(order.ranks(), page + i, rpp, record_size);
                    prop_assert_eq!(&m[..], &want[..], "memory run page {}", page + i);
                    prop_assert_eq!(&d[..], &want[..], "disk run page {}", page + i);
                }
            } else {
                prop_assert_eq!(m.unwrap_err(), StorageError::PageNotOwned { page });
                prop_assert_eq!(d.unwrap_err(), StorageError::PageNotOwned { page });
            }
        }
        // The same traffic charged the same reads on both slices.
        prop_assert_eq!(disk.total_reads(), memory.total_reads());
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic(
        (order, rpp, record_size, tag) in file_case(),
        cut in 0u64..u64::MAX,
    ) {
        let mapper = PageMapper::new(&order, PageLayout::new(rpp));
        let tmp = TempFile::new("truncate", tag);
        write_page_file(&tmp.0, &mapper, record_size).expect("writes");
        let full = std::fs::read(&tmp.0).expect("readback");
        let keep = (cut as usize) % full.len();
        std::fs::write(&tmp.0, &full[..keep]).expect("truncate");
        match PageFile::open(&tmp.0) {
            Err(StorageError::Truncated { expected, actual }) => {
                // A cut inside the header can only promise the header
                // length; past it, the header names the full file.
                let want = if keep < HEADER_LEN {
                    HEADER_LEN as u64
                } else {
                    full.len() as u64
                };
                prop_assert_eq!(expected, want);
                prop_assert_eq!(actual, keep as u64);
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn a_single_bit_flip_is_caught_and_attributed(
        (order, rpp, record_size, tag) in file_case(),
        pos in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let mapper = PageMapper::new(&order, PageLayout::new(rpp));
        let tmp = TempFile::new("bitflip", tag);
        write_page_file(&tmp.0, &mapper, record_size).expect("writes");
        let mut bytes = std::fs::read(&tmp.0).expect("readback");
        let pos = (pos as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        std::fs::write(&tmp.0, &bytes).expect("rewrite");

        if pos < HEADER_LEN {
            // Header damage fails eagerly at open, with a typed error.
            match PageFile::open(&tmp.0) {
                Err(StorageError::BadMagic)
                | Err(StorageError::ChecksumMismatch { page: usize::MAX })
                | Err(StorageError::VersionMismatch { .. })
                | Err(StorageError::Truncated { .. })
                | Err(StorageError::GeometryMismatch { .. }) => {}
                other => prop_assert!(false, "header flip at {}: {:?}", pos, other),
            }
        } else {
            // Frame damage: exactly the page holding the flipped byte
            // fails its read; every other page still round-trips.
            let frame_len = rpp * record_size + FRAME_CHECKSUM_LEN;
            let damaged = (pos - HEADER_LEN) / frame_len;
            let file = PageFile::open(&tmp.0).expect("header intact");
            for page in 0..mapper.num_pages() {
                let got = file.read_page(page, None);
                if page == damaged {
                    prop_assert_eq!(
                        got.unwrap_err(),
                        StorageError::ChecksumMismatch { page }
                    );
                } else {
                    prop_assert!(got.is_ok(), "undamaged page {} must read", page);
                }
            }
        }
    }
}
