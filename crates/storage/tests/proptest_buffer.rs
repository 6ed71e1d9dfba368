//! Differential property test of the buffer pool: random sequences of
//! every operation, at capacities 1–8, with and without next-use
//! positions, against a reference that finds its victim by scanning every
//! frame: the furthest next use, ties (frames with none known) broken by
//! the oldest recency stamp. After every step the returned bytes, the
//! residency of every page and every `BufferStats` field must agree, so
//! the pool's recency list and next-use heap evict exactly the frame the
//! scan picks — and with no positions at all, that is plain LRU.

use bytes::Bytes;
use proptest::prelude::*;
use slpm_storage::{BufferPool, BufferStats, NO_NEXT_USE};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Page ids the operations draw from: more than any tested capacity, so
/// every pool fills and evicts.
const PAGES: usize = 12;

/// The scanning reference: each frame carries its next use and the clock
/// value of its last touch, and a full pool evicts the resident frame
/// with the largest next use, the smallest stamp among equals.
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
    next_use: u32,
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

    fn get(&mut self, page: usize, next_use: u32) -> Option<Bytes> {
        self.clock += 1;
        if let Some(frame) = self.frames.get_mut(&page) {
            frame.stamp = self.clock;
            frame.next_use = next_use;
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

    fn admit(&mut self, page: usize, bytes: Bytes, next_use: u32) -> Option<Bytes> {
        self.insert(page, bytes, false, next_use)
    }

    fn admit_prefetch(&mut self, page: usize, bytes: Bytes, next_use: u32) -> Option<Bytes> {
        if self.frames.contains_key(&page) {
            return Some(bytes);
        }
        self.stats.prefetched += 1;
        self.insert(page, bytes, true, next_use)
    }

    fn forget_plan(&mut self) {
        for frame in self.frames.values_mut() {
            frame.next_use = NO_NEXT_USE;
        }
    }

    /// Returns the payload that left the pool: the victim's, or the one a
    /// re-admission replaced.
    fn insert(
        &mut self,
        page: usize,
        bytes: Bytes,
        prefetched: bool,
        next_use: u32,
    ) -> Option<Bytes> {
        let mut gone = None;
        if !self.frames.contains_key(&page) && self.frames.len() == self.capacity {
            let (&victim, _) = self
                .frames
                .iter()
                .max_by_key(|(_, f)| (f.next_use, Reverse(f.stamp)))
                .expect("pool is non-empty at capacity");
            gone = self.frames.remove(&victim).map(|f| f.bytes);
            self.stats.evictions += 1;
        }
        self.clock += 1;
        let frame = Frame {
            bytes,
            stamp: self.clock,
            prefetched,
            next_use,
        };
        let replaced = self.frames.insert(page, frame);
        gone.or(replaced.map(|f| f.bytes))
    }

    fn access(&mut self, page: usize) -> bool {
        if self.get(page, NO_NEXT_USE).is_some() {
            return true;
        }
        self.admit(page, Bytes::new(), NO_NEXT_USE);
        false
    }
}

/// One pool operation. Payloads are tagged with the step that admitted
/// them, so a stale or misplaced frame shows in the returned bytes. A
/// touch carries an optional next-use offset; see [`next_use`].
#[derive(Clone, Debug)]
enum Op {
    Get(usize, Option<u32>),
    Admit(usize, Option<u32>),
    AdmitPrefetch(usize, Option<u32>),
    Access(usize),
    AccessMany(Vec<usize>),
    IsResident(usize),
    ForgetPlan,
}

fn op() -> impl Strategy<Value = Op> {
    let page = || 0usize..PAGES;
    let offset = || prop_oneof![Just(None), (0u32..4096).prop_map(Some)];
    prop_oneof![
        (page(), offset()).prop_map(|(p, o)| Op::Get(p, o)),
        (page(), offset()).prop_map(|(p, o)| Op::Admit(p, o)),
        (page(), offset()).prop_map(|(p, o)| Op::AdmitPrefetch(p, o)),
        page().prop_map(Op::Access),
        proptest::collection::vec(page(), 0..=6).prop_map(Op::AccessMany),
        page().prop_map(Op::IsResident),
        Just(Op::ForgetPlan),
    ]
}

/// The next use of a touch at `step`: none, or a position unique to the
/// step (so no two frames share one and the victim is always unique).
fn next_use(step: usize, offset: Option<u32>) -> u32 {
    offset.map_or(NO_NEXT_USE, |o| o * 128 + step as u32)
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
                Op::Get(p, o) => {
                    let n = next_use(step, *o);
                    prop_assert_eq!(pool.get(*p, n).cloned(), reference.get(*p, n), "step {}", step)
                }
                Op::Admit(p, o) => {
                    let n = next_use(step, *o);
                    prop_assert_eq!(
                        pool.admit(*p, payload(step, *p), n),
                        reference.admit(*p, payload(step, *p), n),
                        "step {}",
                        step
                    )
                }
                Op::AdmitPrefetch(p, o) => {
                    let n = next_use(step, *o);
                    prop_assert_eq!(
                        pool.admit_prefetch(*p, payload(step, *p), n),
                        reference.admit_prefetch(*p, payload(step, *p), n),
                        "step {}",
                        step
                    )
                }
                Op::ForgetPlan => {
                    pool.forget_plan();
                    reference.forget_plan();
                }
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
