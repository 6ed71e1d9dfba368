//! Property tests for the out-of-core page file: on random orders and
//! geometries, build → write → reopen must hand back exactly the bytes
//! and accounting the in-memory store produces — and a file damaged at
//! any single point (truncation, one flipped bit) must surface a typed
//! [`StorageError`], never a panic, attributing frame damage to the one
//! page it hit.

use proptest::prelude::*;
use slpm_storage::diskfile::{FRAME_CHECKSUM_LEN, HEADER_LEN};
use slpm_storage::{write_page_file, PageFile, PageLayout, PageMapper, PageStore, StorageError};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disk_store_round_trips_bitwise((order, rpp, record_size, tag) in file_case()) {
        let mapper = PageMapper::new(&order, PageLayout::new(rpp));
        let tmp = TempFile::new("roundtrip", tag);
        let header = write_page_file(&tmp.0, &mapper, record_size).expect("writes");
        prop_assert_eq!(header.num_records as usize, order.len());
        prop_assert_eq!(header.num_pages as usize, mapper.num_pages());

        let memory = PageStore::build(&mapper, order.len(), record_size);
        let disk = PageStore::open(&tmp.0, &mapper, record_size).expect("reopens");
        prop_assert!(disk.is_disk_backed());

        // Every record's payload, addressed through the order, is the
        // deterministic function of its vertex — identically on both
        // backings.
        for v in 0..order.len() {
            prop_assert_eq!(&disk.read_record(v)[..], &memory.expected_record(v)[..]);
            prop_assert_eq!(&disk.read_record(v)[..], &memory.read_record(v)[..]);
        }
        // Every page is bitwise identical, and run reads match single
        // reads on the disk backing.
        for page in 0..mapper.num_pages() {
            prop_assert_eq!(&disk.read_page(page)[..], &memory.read_page(page)[..]);
        }
        let run = disk.read_run(0, mapper.num_pages()).expect("full-file run");
        for (page, bytes) in run.iter().enumerate() {
            prop_assert_eq!(&bytes[..], &memory.read_page(page)[..]);
        }

        // Query accounting: the same vertex set charges the same reads
        // (deltas — the comparison loops above drove different shapes of
        // traffic through each store).
        let (mem_before, disk_before) = (memory.total_reads(), disk.total_reads());
        memory.serve_query(0..order.len());
        disk.serve_query(0..order.len());
        prop_assert_eq!(
            disk.total_reads() - disk_before,
            memory.total_reads() - mem_before
        );
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
                let got = file.read_page(page);
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
