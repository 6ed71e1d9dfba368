//! Golden planner counts on an irregular point set.
//!
//! A grid with disc holes, ordered by the spectral mapper
//! (`SpectralConfig::default()`), packs into R-tree leaves that are tall
//! bands, the shape the per-leaf key index is built for. This test pins
//! the total node and leaf visits, result counts and a digest of the
//! returned ids of a seeded batch of range and kNN queries at four
//! fanouts; at 100 and 128 a leaf spans two `u64` words of the range
//! planner's leaf bitset, the last one partial at 100. The totals at 16
//! and 64 were recorded before the leaf scans gained the key index, and
//! those at 100 and 128 before the bitset and the outward kNN walk: a
//! planner change may change what a query costs in time, never which
//! nodes it visits or what it returns.

use slpm_graph::points::PointSet;
use slpm_linalg::Pool;
use slpm_storage::{Mbr, PackedRTree, PlanScratch, QueryCost};
use spectral_lpm::{SpectralConfig, SpectralMapper};

/// SplitMix64, for the hole layout and the queries.
struct SplitMix(u64);

impl SplitMix {
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        lo + ((z ^ (z >> 31)) % (hi - lo + 1) as u64) as i64
    }
}

/// A `w × h` grid with one disc hole in each cell of a `cols × rows`
/// lattice, radius in `2..=max_r`; each hole keeps a margin inside its
/// cell, so the set stays 4-connected.
fn holey_points(w: i64, h: i64, cols: i64, rows: i64, max_r: i64, seed: u64) -> PointSet {
    let mut rng = SplitMix(seed);
    let (cw, ch) = (w / cols, h / rows);
    assert!(2 * max_r + 3 <= cw.min(ch), "cells too small for the holes");
    let mut holes = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            let r = rng.range(2, max_r);
            let x = rng.range(col * cw + r + 1, (col + 1) * cw - r - 2);
            let y = rng.range(row * ch + r + 1, (row + 1) * ch - r - 2);
            holes.push((x, y, r));
        }
    }
    let points = (0..w)
        .flat_map(|x| (0..h).map(move |y| (x, y)))
        .filter(|&(x, y)| {
            holes
                .iter()
                .all(|&(hx, hy, r)| (x - hx).pow(2) + (y - hy).pow(2) > r * r)
        })
        .map(|(x, y)| vec![x, y])
        .collect();
    PointSet::new(points).unwrap()
}

/// Summed costs and an FNV-1a digest of every returned id, in order.
#[derive(Debug, PartialEq, Eq)]
struct Totals {
    nodes: usize,
    leaves: usize,
    results: usize,
    digest: u64,
}

impl Totals {
    fn new() -> Self {
        Totals {
            nodes: 0,
            leaves: 0,
            results: 0,
            digest: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn add(&mut self, ids: &[usize], cost: QueryCost) {
        assert_eq!(cost.results, ids.len());
        self.nodes += cost.nodes_visited;
        self.leaves += cost.leaves_visited;
        self.results += cost.results;
        for &id in ids {
            self.digest = (self.digest ^ id as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

#[test]
fn planner_counts_on_a_holey_spectral_set_are_pinned() {
    let (w, h) = (96i64, 72i64);
    let set = holey_points(w, h, 8, 6, 4, 0x601D);
    let order = SpectralMapper::new(SpectralConfig::default())
        .map_points_on(&set, &Pool::serial())
        .expect("the holey set is connected")
        .order;
    let points = set.points();
    assert_eq!(points.len(), 5_612);

    let mut rng = SplitMix(8);
    // Range boxes from 1×1 to 24×24 cells, some reaching past the data.
    let ranges: Vec<Mbr> = (0..400)
        .map(|_| {
            let (sx, sy) = (rng.range(0, 23), rng.range(0, 23));
            let (x, y) = (rng.range(-8, w + 8), rng.range(-8, h + 8));
            Mbr {
                lo: vec![x, y],
                hi: vec![x + sx, y + sy],
            }
        })
        .collect();
    // kNN centres inside and outside the data, k from 1 to 96.
    let probes: Vec<(Vec<i64>, usize)> = (0..400)
        .map(|i| {
            let k = [1usize, 16, 16, 96][i % 4];
            (vec![rng.range(-40, w + 40), rng.range(-40, h + 40)], k)
        })
        .collect();

    let mut got = Vec::new();
    for fanout in [16usize, 64, 100, 128] {
        let tree = PackedRTree::pack(points, &order, fanout);
        let (mut range, mut knn) = (Totals::new(), Totals::new());
        let mut scratch = PlanScratch::default();
        for q in &ranges {
            let (ids, cost) = tree.range_query(q, &mut scratch);
            range.add(&ids, cost);
        }
        for (center, k) in &probes {
            let (ids, cost) = tree.knn_best_first(center, *k, &mut scratch);
            knn.add(&ids, cost);
        }
        got.push((fanout, range, knn));
    }
    let pinned = [
        (
            16,
            (19_169, 16_993, 36_281, 0x3762_D59E_0578_1268),
            (16_458, 13_660, 12_900, 0x4346_49FB_38C0_3CBF),
        ),
        (
            64,
            (5_699, 4_997, 36_281, 0x3762_D59E_0578_1268),
            (7_123, 6_248, 12_900, 0x4346_49FB_38C0_3CBF),
        ),
        (
            100,
            (3_678, 3_361, 36_281, 0x3762_D59E_0578_1268),
            (4_809, 4_409, 12_900, 0x4346_49FB_38C0_3CBF),
        ),
        (
            128,
            (2_993, 2_676, 36_281, 0x3762_D59E_0578_1268),
            (3_913, 3_513, 12_900, 0x4346_49FB_38C0_3CBF),
        ),
    ];
    for ((fanout, range, knn), (pf, r, k)) in got.iter().zip(pinned) {
        let totals = |(nodes, leaves, results, digest)| Totals {
            nodes,
            leaves,
            results,
            digest,
        };
        assert_eq!(*fanout, pf);
        assert_eq!(*range, totals(r), "range totals at fanout {fanout}");
        assert_eq!(*knn, totals(k), "kNN totals at fanout {fanout}");
    }
}
