//! Property test: a disk-backed shard slice replays exactly like the
//! memory-backed slice of the same order. Whatever the pool capacity,
//! the readahead window and the page lists (runs, repeats, gaps), every
//! sweep — each list alone, then all of them as one batch — returns the
//! same per-unit accounting, and the two slices keep the same
//! `BufferStats` and storage read counts after every sweep. Page runs
//! read off the file, and reads into recycled buffers of any size, return
//! the memory store's bytes.

use proptest::prelude::*;
use slpm_serve::shard::ReadPath;
use slpm_serve::{Partition, Shard, ShardMap};
use slpm_storage::{write_page_file, BytesMut, PageLayout, PageMapper, PageStore};
use spectral_lpm::LinearOrder;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records in the order; with 4 records per page, 60 pages.
const RECORDS: usize = 240;
const RECORDS_PER_PAGE: usize = 4;
const RECORD_SIZE: usize = 24;

/// A page file removed when the case ends.
struct TempFile(PathBuf);

impl TempFile {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("slpm-replay-{}-{n}.pages", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One scenario: the fleet layout, the shard's read path and the page
/// lists, each a sequence of `(start, len, step)` segments over the
/// shard's owned pages. Step 0 repeats a page, step 1 walks a run, larger
/// steps leave gaps.
#[derive(Debug, Clone)]
struct Scenario {
    shards: usize,
    shard: usize,
    round_robin: bool,
    buffer_pages: usize,
    readahead: usize,
    queries: Vec<Vec<(usize, usize, usize)>>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let segment = (
        0usize..64,
        1usize..12,
        prop_oneof![Just(0usize), Just(1), 2usize..5],
    );
    let query = proptest::collection::vec(segment, 1..6);
    (
        (1usize..=3, 0usize..3, 0u8..2),
        (1usize..=8, 0usize..=8),
        proptest::collection::vec(query, 1..8),
    )
        .prop_map(
            |((shards, shard, round_robin), (buffer_pages, readahead), queries)| Scenario {
                shards,
                shard: shard % shards,
                round_robin: round_robin == 1,
                buffer_pages,
                readahead,
                queries,
            },
        )
}

/// A scrambled order, so page contents are not the identity layout.
fn order() -> LinearOrder {
    LinearOrder::from_ranks((0..RECORDS).map(|v| v * 7 % RECORDS).collect()).unwrap()
}

/// The page list of one query: its segments over `owned`, clipped.
fn pages(owned: &[usize], segments: &[(usize, usize, usize)]) -> Vec<usize> {
    segments
        .iter()
        .flat_map(|&(start, len, step)| {
            (0..len)
                .map(move |k| (start + k * step) % owned.len())
                .map(|i| owned[i])
        })
        .collect()
}

fn check(s: &Scenario) {
    let order = order();
    let mapper = PageMapper::new(&order, PageLayout::new(RECORDS_PER_PAGE));
    let file = TempFile::new();
    write_page_file(&file.0, &mapper, RECORD_SIZE).unwrap();
    let partition = if s.round_robin {
        Partition::RoundRobin
    } else {
        Partition::Contiguous
    };
    let map = ShardMap::new(s.shards, mapper.num_pages(), partition);
    let build = |page_file| {
        let read_path = ReadPath {
            buffer_pages: s.buffer_pages,
            readahead: s.readahead,
            page_file,
        };
        Shard::build(s.shard, &map, &mapper, RECORD_SIZE, read_path)
    };
    let mut mem = build(None).unwrap();
    let mut disk = build(Some(file.0.as_path())).unwrap();
    // The disk slice reads the file it is given: a missing one fails.
    let missing = file.0.with_extension("missing");
    prop_assert!(build(Some(missing.as_path())).is_err());
    let owned = map.pages_of(s.shard);
    let lists: Vec<Vec<usize>> = s.queries.iter().map(|q| pages(&owned, q)).collect();
    let batch: Vec<&[usize]> = lists.iter().map(|l| &l[..]).collect();
    let alone = batch.iter().map(std::slice::from_ref);
    for (q, units) in alone.chain([&batch[..]]).enumerate() {
        let (m, d) = (mem.replay(units), disk.replay(units));
        prop_assert!(m.iter().all(|u| u.is_ok()), "sweep {}: {:?}", q, m);
        prop_assert_eq!(m, d, "sweep {}: accounting of {:?}", q, units);
        prop_assert_eq!(mem.buffer_stats(), disk.buffer_stats(), "sweep {}", q);
        prop_assert_eq!(mem.storage_reads(), disk.storage_reads(), "sweep {}", q);
    }

    // Runs, the readahead primitive: from every owned page, the run of up
    // to 4 owned pages with consecutive ids, page by page.
    let (mem, disk) = (mem.store(), disk.store());
    let run = |store: &PageStore, start, len| {
        store
            .read_run(start, len, &mut BytesMut::new(), &mut Vec::new())
            .unwrap()
    };
    for (k, &page) in owned.iter().enumerate() {
        let len = owned[k..]
            .iter()
            .zip(page..)
            .take_while(|(&p, id)| p == *id)
            .count()
            .min(4);
        let (m, d) = (run(mem, page, len), run(disk, page, len));
        for (i, (m, d)) in m.iter().zip(&d).enumerate() {
            prop_assert_eq!(&d[..], &m[..], "page {} of the run from {}", i, page);
        }
    }

    // Reads into spare buffers: fresh, smaller and larger than a frame,
    // and the last page of a run once its neighbours are gone.
    let page_bytes = RECORDS_PER_PAGE * RECORD_SIZE;
    for (k, &page) in owned.iter().enumerate() {
        let spare = match k % 4 {
            0 => BytesMut::new(),
            1 => BytesMut::zeroed(page_bytes / 3),
            2 => BytesMut::zeroed(page_bytes * 2 + 5),
            _ => {
                let last = run(disk, page, 1).pop().unwrap();
                run(mem, page, 1);
                last.try_into_mut().unwrap()
            }
        };
        let want = mem.read_page(page, None).unwrap();
        let got = disk.read_page(page, Some(spare)).unwrap();
        prop_assert_eq!(&got[..], &want[..], "page {}", page);
    }
    if let Some(&first) = owned.first() {
        // A longer run's last page, once the rest of the run is dropped.
        let len = owned.iter().take_while(|&&p| p < first + 4).count();
        let contiguous = owned[..len]
            .iter()
            .enumerate()
            .all(|(i, &p)| p == first + i);
        if contiguous && len > 1 {
            let spare = run(disk, first, len).pop().unwrap();
            run(mem, first, len);
            let spare = spare.try_into_mut().unwrap();
            let got = disk.read_page(first, Some(spare)).unwrap();
            let want = mem.read_page(first, None).unwrap();
            prop_assert_eq!(&got[..], &want[..]);
        }
    }
    prop_assert_eq!(mem.total_reads(), disk.total_reads());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn disk_and_memory_replay_agree(s in scenario()) {
        check(&s);
    }
}
