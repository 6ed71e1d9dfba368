//! Pinned results of the two solves the benchmark orders, at 1 and 2
//! threads.
//!
//! The spectral order of the 256×192 grid and of the holey 240×180 set is
//! what the `serve-disk` and `order-irregular` workloads serve; a change to
//! the graph build, the CSR storage or the solver that moves one bit of
//! either λ₂ or either order fails here. A change that means to move them
//! re-records the pins on purpose.

use slpm_graph::grid::GridSpec;
use slpm_graph::points::PointSet;
use slpm_linalg::{with_threads, FiedlerMethod};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper};

/// FNV-1a over the ranks, each hashed as a little-endian `u64`.
fn rank_digest(order: &LinearOrder) -> u64 {
    order
        .ranks()
        .iter()
        .flat_map(|&r| (r as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// SplitMix64, seeded as the benchmark seeds its point-set layouts.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        lo + ((z ^ (z >> 31)) % (hi - lo + 1) as u64) as i64
    }
}

/// The benchmark's irregular set: a `w × h` grid with one disc hole in
/// each cell of a `cols × rows` lattice, radius 4 up to half the cell less
/// 2 (at most 19), radius and centre drawn from `layout`.
fn holey_points(w: usize, h: usize, cols: usize, rows: usize, layout: u64) -> PointSet {
    let mut rng = Rng::new(layout);
    let (cw, ch) = ((w / cols) as i64, (h / rows) as i64);
    let max_r = (cw.min(ch) / 2 - 2).min(19);
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
    PointSet::new(points).unwrap()
}

/// Order `set` with the benchmark's configuration at 1 and 2 threads and
/// check λ₂'s bits and the order's digest against the pins.
fn assert_pinned(name: &str, set: &PointSet, lambda2_bits: u64, digest: u64) {
    for threads in [1, 2] {
        let mapping = with_threads(Some(threads), |pool| {
            SpectralMapper::new(SpectralConfig::auto()).map_points_on(set, pool)
        })
        .unwrap();
        assert_eq!(mapping.fiedler.method, FiedlerMethod::Multilevel, "{name}");
        let bits = mapping.fiedler.lambda2.to_bits();
        let got = rank_digest(&mapping.order);
        assert_eq!(
            bits, lambda2_bits,
            "{name} λ₂ {bits:#018x}, {threads} threads"
        );
        assert_eq!(got, digest, "{name} order {got:016x}, {threads} threads");
    }
}

#[test]
fn grid_256x192_solve_is_pinned() {
    let set = PointSet::from_grid(&GridSpec::new(&[256, 192]));
    assert_pinned(
        "256x192 grid",
        &set,
        0x3f23_bd2c_8da4_9509,
        0x0539_c319_172c_2125,
    );
}

#[test]
fn holey_240x180_solve_is_pinned() {
    let set = holey_points(240, 180, 8, 6, 14);
    assert_pinned(
        "holey 240x180 set",
        &set,
        0x3f20_d751_04e6_6d4b,
        0xea17_9e30_eb78_cf55,
    );
}
