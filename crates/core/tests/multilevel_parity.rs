//! Parity between the multilevel and dense-QL spectral orders.
//!
//! The multilevel solver is only a faster road to the same answer: on
//! reference grids its `LinearOrder` must be **identical** to the exact
//! dense path's (both go through the degeneracy-balanced canonical
//! representative and the documented tie-snapping rule, so agreement is
//! exact, not merely approximate), and the min-2-sum objective must match
//! within 1% (trivially, given identical orders — asserted separately so a
//! future tie-rule change degrades this test gracefully instead of
//! silently).

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
use spectral_lpm::{objective, SpectralConfig, SpectralMapper};

fn mapper(method: FiedlerMethod, connectivity: Connectivity) -> SpectralMapper {
    SpectralMapper::new(SpectralConfig {
        connectivity,
        fiedler: FiedlerOptions {
            method,
            // Tight residual target so the multilevel representative agrees
            // with the dense eigenspace beyond the tie-snapping window.
            tolerance: 1e-11,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// Reference grids. The 32×32 case spends most of its time in the dense
/// O(n³) *reference* solve, which is painfully slow without optimisation,
/// so unoptimised (debug) runs stop at 31×17; `--release` (CI tier-1 builds
/// release first; run `cargo test --release` to reproduce locally) covers
/// the full satellite range up to 32×32.
#[cfg(debug_assertions)]
const GRIDS: &[[usize; 2]] = &[[8, 8], [16, 16], [31, 17]];
#[cfg(not(debug_assertions))]
const GRIDS: &[[usize; 2]] = &[[8, 8], [16, 16], [31, 17], [32, 32]];

fn assert_parity(connectivity: Connectivity) {
    for &dims in GRIDS {
        let spec = GridSpec::new(&dims);
        let dense = mapper(FiedlerMethod::Dense, connectivity)
            .map_grid_on(&spec, &Pool::default())
            .unwrap();
        let ml = mapper(FiedlerMethod::Multilevel, connectivity)
            .map_grid_on(&spec, &Pool::default())
            .unwrap();
        assert_eq!(
            dense.order.ranks(),
            ml.order.ranks(),
            "order mismatch on {dims:?} ({connectivity:?}); λ₂ dense {} vs multilevel {}",
            dense.fiedler.lambda2,
            ml.fiedler.lambda2
        );
        let graph = spec.graph(connectivity);
        let sigma_dense = objective::two_sum_cost(&graph, &dense.order);
        let sigma_ml = objective::two_sum_cost(&graph, &ml.order);
        assert!(
            (sigma_ml - sigma_dense).abs() <= 0.01 * sigma_dense,
            "2-sum off by >1% on {dims:?}: {sigma_ml} vs {sigma_dense}"
        );
    }
}

#[test]
fn multilevel_matches_dense_order_4_connected() {
    assert_parity(Connectivity::Orthogonal);
}

#[test]
fn multilevel_matches_dense_order_8_connected() {
    assert_parity(Connectivity::Full);
}

/// SplitMix64 — a tiny seeded generator for the hole layouts.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A `w × h` grid with one disc hole in every 8×8 cell, radius 1–2 and
/// centre drawn from `seed`. Each hole keeps at least one point of margin
/// inside its own cell, so the set stays 4-connected.
fn holey_points(w: i64, h: i64, seed: u64) -> PointSet {
    const CELL: i64 = 8;
    let mut rng = SplitMix(seed);
    let mut holes = Vec::new();
    for cx in 0..w / CELL {
        for cy in 0..h / CELL {
            let r = 1 + rng.below(2) as i64;
            let span = (CELL - 2 * r - 2) as u64;
            let x = cx * CELL + 1 + r + rng.below(span) as i64;
            let y = cy * CELL + 1 + r + rng.below(span) as i64;
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

/// Seeded holey grids, all above the multilevel coarsest size so the
/// hierarchy (and its V-cycle) really runs. The dense reference is O(n³),
/// so debug builds stop near 350 points for the same reason as [`GRIDS`];
/// release runs go to ~1,200.
#[cfg(debug_assertions)]
const HOLEY: &[(i64, i64)] = &[(24, 16)];
#[cfg(not(debug_assertions))]
const HOLEY: &[(i64, i64)] = &[(24, 16), (32, 24), (40, 32)];

#[test]
fn multilevel_matches_dense_on_holey_point_sets() {
    for &(w, h) in HOLEY {
        for seed in 1..=3u64 {
            let points = holey_points(w, h, seed);
            assert!(points.len() > 256 && points.len() <= 2_000);
            let connectivity = Connectivity::Orthogonal;
            let dense = mapper(FiedlerMethod::Dense, connectivity)
                .map_points_on(&points, &Pool::default())
                .unwrap();
            let ml = mapper(FiedlerMethod::Multilevel, connectivity)
                .map_points_on(&points, &Pool::default())
                .unwrap();
            if dense.order.ranks() == ml.order.ranks() {
                continue;
            }
            let graph = points.neighbourhood_graph(connectivity);
            let sigma_dense = objective::two_sum_cost(&graph, &dense.order);
            let sigma_ml = objective::two_sum_cost(&graph, &ml.order);
            assert!(
                (sigma_ml - sigma_dense).abs() <= 0.01 * sigma_dense,
                "{w}x{h} seed {seed} ({} points): orders differ and 2-sum off by >1%: \
                 {sigma_ml} vs {sigma_dense}",
                points.len()
            );
        }
    }
}
