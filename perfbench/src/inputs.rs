//! Seeded inputs: point sets and query batches. Everything here is a pure
//! function of the workload definition and `--seed`, and runs before any
//! timing starts.

use slpm_graph::grid::GridSpec;
use slpm_graph::points::PointSet;
use slpm_serve::workload::{mixed_workload, WorkloadConfig};
use slpm_serve::Query;
use slpm_storage::chebyshev;
use spectral_lpm::LinearOrder;

/// SplitMix64: a tiny, well-mixed seeded generator (no external crate).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// A `w × h` grid with one disc hole in each cell of a `cols × rows`
/// lattice, its radius (4 up to half the cell less 2, at most 19) and
/// centre drawn from `layout` — an arbitrary, non-grid point set of the
/// kind the paper claims to order well. Each hole sits inside its own
/// cell with at least one point of margin, so the set stays 4-connected;
/// one hole per cell keeps the point count close across layouts.
pub fn holey_points(w: usize, h: usize, cols: usize, rows: usize, layout: u64) -> PointSet {
    let mut rng = Rng::new(layout);
    let (cw, ch) = ((w / cols) as i64, (h / rows) as i64);
    let max_r = (cw.min(ch) / 2 - 2).min(19);
    assert!(max_r >= 4, "lattice cells too small for the holes");
    let mut alive = vec![true; w * h];
    for row in 0..rows as i64 {
        for col in 0..cols as i64 {
            let r = rng.range(4, max_r);
            let cx = rng.range(col * cw + r + 1, (col + 1) * cw - r - 2);
            let cy = rng.range(row * ch + r + 1, (row + 1) * ch - r - 2);
            for y in cy - r..=cy + r {
                for x in cx - r..=cx + r {
                    if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                        alive[y as usize * w + x as usize] = false;
                    }
                }
            }
        }
    }
    let points = (0..w * h)
        .filter(|&c| alive[c])
        .map(|c| vec![(c % w) as i64, (c / w) as i64])
        .collect();
    PointSet::new(points).expect("a non-empty point set")
}

/// Every point of a `w × h` grid.
pub fn grid_points(w: usize, h: usize) -> PointSet {
    PointSet::from_grid(&GridSpec::new(&[w, h]))
}

/// `batches` closed-loop batches of `batch` queries from the library's
/// mixed workload over the `w × h` bounding grid: three range
/// selectivities, every 4th query a kNN probe with k = 16.
pub fn query_batches(
    w: usize,
    h: usize,
    batches: usize,
    batch: usize,
    seed: u64,
) -> Vec<Vec<Query>> {
    let cfg = WorkloadConfig {
        queries: batches * batch,
        seed,
        knn_every: 4,
        k: 16,
    };
    mixed_workload(&GridSpec::new(&[w, h]), &cfg)
        .chunks(batch)
        .map(<[Query]>::to_vec)
        .collect()
}

/// The answer a full scan of the points gives: range matches in
/// linear-order sequence, kNN by ascending (L∞ distance, id).
pub fn brute_force(points: &[Vec<i64>], order: &LinearOrder, query: &Query) -> Vec<usize> {
    match query {
        Query::Range(mbr) => {
            let mut hits: Vec<usize> = (0..points.len())
                .filter(|&i| mbr.contains_point(&points[i]))
                .collect();
            hits.sort_unstable_by_key(|&i| order.rank_of(i));
            hits
        }
        Query::Knn { center, k } => {
            let mut all: Vec<(i64, usize)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (chebyshev(center, p), i))
                .collect();
            all.sort_unstable();
            all.into_iter().take(*k).map(|(_, i)| i).collect()
        }
    }
}
