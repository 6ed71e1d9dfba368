//! Differential property test of the buffer pool: random sequences of
//! every operation, at capacities 1–8, against a reference that finds its
//! victim by scanning every frame for the oldest recency stamp. After
//! every step the returned bytes, the residency of every page and every
//! `BufferStats` field must agree, so the pool's recency list evicts
//! exactly the frame the scan picks: plain LRU.

use bytes::Bytes;
use proptest::prelude::*;
use slpm_storage::{BufferPool, BufferStats};
use std::collections::HashMap;

/// Page ids the operations draw from: more than any tested capacity, so
/// every pool fills and evicts.
const PAGES: usize = 12;

/// The scanning reference: each frame carries the clock value of its last
/// touch, and a full pool evicts the resident frame with the smallest.
struct StampLru {
    capacity: usize,
    frames: HashMap<usize, Frame>,
    clock: u64,
    stats: BufferStats,
}

struct Frame {
    bytes: Bytes,
    stamp: u64,
    prefetched: bool,
}

impl StampLru {
    fn new(capacity: usize) -> Self {
        StampLru {
            capacity,
            frames: HashMap::new(),
            clock: 0,
            stats: BufferStats::default(),
        }
    }

    fn get(&mut self, page: usize) -> Option<Bytes> {
        self.clock += 1;
        if let Some(frame) = self.frames.get_mut(&page) {
            frame.stamp = self.clock;
            self.stats.hits += 1;
            if frame.prefetched {
                frame.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            return Some(frame.bytes.clone());
        }
        self.stats.misses += 1;
        None
    }

    fn admit(&mut self, page: usize, bytes: Bytes) -> Option<Bytes> {
        self.insert(page, bytes, false)
    }

    fn admit_prefetch(&mut self, page: usize, bytes: Bytes) -> Option<Bytes> {
        if self.frames.contains_key(&page) {
            return Some(bytes);
        }
        self.stats.prefetched += 1;
        self.insert(page, bytes, true)
    }

    /// Returns the payload that left the pool: the victim's, or the one a
    /// re-admission replaced.
    fn insert(&mut self, page: usize, bytes: Bytes, prefetched: bool) -> Option<Bytes> {
        let mut gone = None;
        if !self.frames.contains_key(&page) && self.frames.len() == self.capacity {
            let (&victim, _) = self
                .frames
                .iter()
                .min_by_key(|(_, f)| f.stamp)
                .expect("pool is non-empty at capacity");
            gone = self.frames.remove(&victim).map(|f| f.bytes);
            self.stats.evictions += 1;
        }
        self.clock += 1;
        let frame = Frame {
            bytes,
            stamp: self.clock,
            prefetched,
        };
        let replaced = self.frames.insert(page, frame);
        gone.or(replaced.map(|f| f.bytes))
    }

    fn access(&mut self, page: usize) -> bool {
        if self.get(page).is_some() {
            return true;
        }
        self.admit(page, Bytes::new());
        false
    }
}

/// One pool operation. Payloads are tagged with the step that admitted
/// them, so a stale or misplaced frame shows in the returned bytes.
#[derive(Clone, Debug)]
enum Op {
    Get(usize),
    Admit(usize),
    AdmitPrefetch(usize),
    Access(usize),
    AccessMany(Vec<usize>),
    IsResident(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let page = || 0usize..PAGES;
    prop_oneof![
        page().prop_map(Op::Get),
        page().prop_map(Op::Admit),
        page().prop_map(Op::AdmitPrefetch),
        page().prop_map(Op::Access),
        proptest::collection::vec(page(), 0..=6).prop_map(Op::AccessMany),
        page().prop_map(Op::IsResident),
    ]
}

fn payload(step: usize, page: usize) -> Bytes {
    Bytes::from(vec![step as u8, (step >> 8) as u8, page as u8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pool_matches_the_stamp_scan_lru(
        capacity in 1usize..=8,
        ops in proptest::collection::vec(op(), 1..=120),
    ) {
        let mut pool = BufferPool::new(capacity);
        let mut reference = StampLru::new(capacity);
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Get(p) => {
                    prop_assert_eq!(pool.get(*p).cloned(), reference.get(*p), "step {}", step)
                }
                Op::Admit(p) => prop_assert_eq!(
                    pool.admit(*p, payload(step, *p)),
                    reference.admit(*p, payload(step, *p)),
                    "step {}",
                    step
                ),
                Op::AdmitPrefetch(p) => prop_assert_eq!(
                    pool.admit_prefetch(*p, payload(step, *p)),
                    reference.admit_prefetch(*p, payload(step, *p)),
                    "step {}",
                    step
                ),
                Op::Access(p) => {
                    prop_assert_eq!(pool.access(*p), reference.access(*p), "step {}", step)
                }
                Op::AccessMany(pages) => {
                    let want = pages.iter().fold((0, 0), |(h, m), &p| {
                        if reference.access(p) { (h + 1, m) } else { (h, m + 1) }
                    });
                    prop_assert_eq!(pool.access_many(pages.iter().copied()), want, "step {}", step);
                }
                Op::IsResident(p) => prop_assert_eq!(
                    pool.is_resident(*p),
                    reference.frames.contains_key(p),
                    "step {}",
                    step
                ),
            }
            prop_assert_eq!(pool.stats(), reference.stats, "step {}", step);
            prop_assert_eq!(pool.resident_count(), reference.frames.len(), "step {}", step);
            for p in 0..PAGES {
                prop_assert_eq!(
                    pool.is_resident(p),
                    reference.frames.contains_key(&p),
                    "step {} page {}",
                    step,
                    p
                );
            }
        }
    }
}
