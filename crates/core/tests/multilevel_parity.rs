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
use slpm_linalg::fiedler::fiedler_pair_balanced_on;
use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
use spectral_lpm::{
    objective, rsb_order_on, OrderReport, RsbOptions, SpectralConfig, SpectralMapper,
};
use std::collections::BTreeSet;

fn mapper(method: FiedlerMethod, connectivity: Connectivity) -> SpectralMapper {
    SpectralMapper::new(SpectralConfig {
        connectivity,
        fiedler: FiedlerOptions {
            method: Some(method),
            // Tight residual target so the multilevel representative agrees
            // with the dense eigenspace beyond the tie-snapping window.
            tolerance: 1e-11,
            ..Default::default()
        },
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

/// Square grids for the representative check. Dense at 32×32 takes
/// seconds even optimised, so debug builds stop at 20×20.
#[cfg(debug_assertions)]
const SQUARE_SIDES: &[usize] = &[10, 16, 20];
#[cfg(not(debug_assertions))]
const SQUARE_SIDES: &[usize] = &[10, 12, 16, 20, 24, 28, 32];

#[test]
fn balanced_representative_matches_dense_on_square_grids() {
    // Square grids have a double λ₂. The default policy (multilevel at
    // these sizes) must see both copies and project the same fixed probe
    // onto the eigenspace as dense does, giving the same vector.
    for &side in SQUARE_SIDES {
        let lap = GridSpec::cube(side, 2)
            .graph(Connectivity::Orthogonal)
            .laplacian();
        let dense_opts = FiedlerOptions {
            method: Some(FiedlerMethod::Dense),
            ..Default::default()
        };
        let dense = fiedler_pair_balanced_on(&lap, &dense_opts, &Pool::default()).unwrap();
        let auto =
            fiedler_pair_balanced_on(&lap, &FiedlerOptions::default(), &Pool::default()).unwrap();
        assert_eq!(auto.method, FiedlerMethod::Multilevel, "{side}x{side}");
        let diff = dense
            .vector
            .iter()
            .zip(&auto.vector)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            diff < 1e-8,
            "{side}x{side}: representatives differ by {diff:.2e}"
        );
    }
}

/// SplitMix64 — a tiny seeded generator for the irregular layouts.
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

/// Seeded disc blobs of radius `r` in a left-to-right chain, each joined
/// to the next by a 1-point-wide horizontal corridor 4–7 points long.
/// Centres jitter vertically by less than `r`, so every corridor enters
/// the next disc and the set stays 4-connected.
fn blob_chain(blobs: i64, r: i64, seed: u64) -> PointSet {
    let mut rng = SplitMix(seed);
    let mut points = BTreeSet::new();
    let mut prev: Option<(i64, i64)> = None;
    let mut cx = r;
    for _ in 0..blobs {
        let cy = r + rng.below(r as u64) as i64;
        for x in cx - r..=cx + r {
            for y in cy - r..=cy + r {
                if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                    points.insert(vec![x, y]);
                }
            }
        }
        if let Some((px, py)) = prev {
            // Along the previous centre's row, then down or up this
            // disc's centre column.
            points.extend((px..=cx).map(|x| vec![x, py]));
            points.extend((py.min(cy)..=py.max(cy)).map(|y| vec![cx, y]));
        }
        prev = Some((cx, cy));
        cx += 2 * r + 4 + rng.below(4) as i64;
    }
    PointSet::new(points.into_iter().collect()).unwrap()
}

/// A 2-point-wide serpentine: `lanes` horizontal lanes of seeded lengths
/// around `len`, joined at alternating ends by 2×2 connectors. A lane that
/// overshoots its neighbour leaves a dead-end stub past the connector.
fn serpentine(lanes: i64, len: i64, seed: u64) -> PointSet {
    let mut rng = SplitMix(seed);
    let lengths: Vec<i64> = (0..lanes).map(|_| len - 4 + rng.below(8) as i64).collect();
    let mut points = Vec::new();
    for (k, &lane_len) in (0..).zip(&lengths) {
        for x in 0..lane_len {
            points.extend([vec![x, 4 * k], vec![x, 4 * k + 1]]);
        }
        if k + 1 < lanes {
            let right = lane_len.min(lengths[k as usize + 1]);
            let x0 = if k % 2 == 0 { right - 2 } else { 0 };
            for x in x0..x0 + 2 {
                points.extend([vec![x, 4 * k + 2], vec![x, 4 * k + 3]]);
            }
        }
    }
    PointSet::new(points).unwrap()
}

/// A `w × h × d` block with one radius-1 ball hole (a point and its six
/// neighbours) in every 6×6×6 cell, centre drawn from `seed` at least two
/// points inside its cell, so the block stays 6-connected.
fn holey_block(w: i64, h: i64, d: i64, seed: u64) -> PointSet {
    const CELL: i64 = 6;
    let mut rng = SplitMix(seed);
    let mut holes = Vec::new();
    for cx in 0..w / CELL {
        for cy in 0..h / CELL {
            for cz in 0..d / CELL {
                let mut at = |c: i64| c * CELL + 2 + rng.below((CELL - 4) as u64) as i64;
                holes.push([at(cx), at(cy), at(cz)]);
            }
        }
    }
    let points = (0..w)
        .flat_map(|x| (0..h).flat_map(move |y| (0..d).map(move |z| [x, y, z])))
        .filter(|p| {
            holes
                .iter()
                .all(|hole| p.iter().zip(hole).map(|(a, b)| (a - b).pow(2)).sum::<i64>() > 1)
        })
        .map(|p| p.to_vec())
        .collect();
    PointSet::new(points).unwrap()
}

/// The seeded irregular families, all above the multilevel coarsest size
/// so the hierarchy (and its V-cycle) really runs: grids with disc holes,
/// blob chains, serpentines and 3-D blocks with holes. The dense
/// reference is O(n³), so debug builds stay between ~270 and ~340 points
/// for the same reason as [`GRIDS`]; release runs go up to ~1,100, as the
/// holey grids already did.
fn irregular_families() -> Vec<(String, PointSet)> {
    #[cfg(debug_assertions)]
    let (holey, blobs, snakes, blocks): (&[_], &[_], &[_], &[_]) =
        (&[(24, 16)], &[(5, 4)], &[(4, 36)], &[(8, 6, 6)]);
    #[cfg(not(debug_assertions))]
    let (holey, blobs, snakes, blocks): (&[_], &[_], &[_], &[_]) = (
        &[(24, 16), (32, 24), (40, 32)],
        &[(5, 4), (6, 6), (7, 7)],
        &[(4, 36), (6, 60), (6, 84)],
        &[(8, 6, 6), (12, 12, 6), (12, 12, 7)],
    );
    let mut sets = Vec::new();
    for seed in 1..=3u64 {
        for &(w, h) in holey {
            sets.push((format!("holey {w}x{h}"), holey_points(w, h, seed)));
        }
        for &(n, r) in blobs {
            sets.push((format!("{n} blobs r{r}"), blob_chain(n, r, seed)));
        }
        for &(lanes, len) in snakes {
            sets.push((
                format!("serpentine {lanes}x{len}"),
                serpentine(lanes, len, seed),
            ));
        }
        for &(w, h, d) in blocks {
            sets.push((
                format!("holey block {w}x{h}x{d}"),
                holey_block(w, h, d, seed),
            ));
        }
    }
    sets
}

#[test]
fn multilevel_matches_dense_on_holey_point_sets() {
    for (family, points) in irregular_families() {
        let n = points.len();
        assert!(n > 256 && n <= 2_000, "{family}: {n} points");
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
            "{family} ({n} points): orders differ and 2-sum off by >1%: \
             {sigma_ml} vs {sigma_dense}"
        );
    }
}

/// λ₂ is the minimum of σ over the feasible set, so no order's normalised
/// 2-sum may fall below it: an order whose `optimality_gap` reads under 1
/// means λ₂ was overestimated. Checked without a second solver on the
/// spectral and RSB orders of every irregular family.
#[test]
fn spectral_and_rsb_orders_respect_the_lambda2_bound() {
    let config = SpectralConfig::default();
    for (family, points) in irregular_families() {
        let mapping = SpectralMapper::new(config.clone())
            .map_points_on(&points, &Pool::default())
            .unwrap();
        let graph = points.manhattan_graph();
        let rsb = rsb_order_on(&graph, &RsbOptions::default(), &Pool::default()).unwrap();
        for (name, order) in [("spectral", &mapping.order), ("RSB", &rsb)] {
            let lambda2 = Some(mapping.fiedler.lambda2);
            let report =
                OrderReport::compute(&graph, order, lambda2, &config, &Pool::default()).unwrap();
            assert!(
                report.optimality_gap() >= 1.0 - 1e-9,
                "{family}, {name}: σ/λ₂ = {}",
                report.optimality_gap()
            );
        }
    }
}
