//! Thread-count invariance of the spectral order.
//!
//! The parallel kernels under the multilevel Fiedler pipeline use
//! fixed-chunk deterministic reductions (`slpm_linalg::parallel`), so the
//! computed `LinearOrder` — and therefore every downstream metric — must
//! be **identical** between a run on `Pool::serial()` and one on a
//! 4-thread pool, on both neighbourhood models and on irregular point
//! sets. This is the end-to-end companion of the kernel-level bitwise
//! tests in `slpm_linalg`: if it ever fails, a parallel code path has
//! picked up a thread-count-dependent summation order.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
use spectral_lpm::{objective, SpectralConfig, SpectralMapper, SpectralMapping};

fn mapper(connectivity: Connectivity) -> SpectralMapper {
    SpectralMapper::new(SpectralConfig {
        connectivity,
        fiedler: FiedlerOptions {
            method: Some(FiedlerMethod::Multilevel),
            ..Default::default()
        },
    })
}

/// The serial and the 4-thread pool every case compares.
fn pools() -> (Pool<'static>, Pool<'static>) {
    (Pool::serial(), Pool::new(Some(4)))
}

fn assert_same(serial: &SpectralMapping, threaded: &SpectralMapping, what: &str) {
    assert_eq!(
        serial.order.ranks(),
        threaded.order.ranks(),
        "order differs serial vs 4 threads on {what}"
    );
    assert_eq!(
        serial.fiedler.lambda2.to_bits(),
        threaded.fiedler.lambda2.to_bits(),
        "λ₂ bits differ on {what}"
    );
    assert_eq!(
        serial.fiedler.vector, threaded.fiedler.vector,
        "Fiedler vector differs on {what}"
    );
}

/// Grids forcing a real coarsening hierarchy (default coarsest size 256).
/// The 132×132 case crosses the pool's spawn threshold so worker threads
/// genuinely run; it is release-only because a debug multilevel solve at
/// 17k vertices is painfully slow (the kernel-level bitwise tests in
/// `slpm_linalg` cover genuine spawning in debug builds too).
#[cfg(debug_assertions)]
const GRIDS: &[[usize; 2]] = &[[24, 24], [40, 33]];
#[cfg(not(debug_assertions))]
const GRIDS: &[[usize; 2]] = &[[24, 24], [40, 33], [132, 132]];

fn assert_thread_parity(connectivity: Connectivity) {
    let (serial_pool, threaded_pool) = pools();
    for &dims in GRIDS {
        let spec = GridSpec::new(&dims);
        let serial = mapper(connectivity)
            .map_grid_on(&spec, &serial_pool)
            .unwrap();
        let threaded = mapper(connectivity)
            .map_grid_on(&spec, &threaded_pool)
            .unwrap();
        assert_same(&serial, &threaded, &format!("{dims:?} ({connectivity:?})"));
        let graph = spec.graph(connectivity);
        let sigma_serial = objective::two_sum_cost(&graph, &serial.order);
        let sigma_threaded = objective::two_sum_cost(&graph, &threaded.order);
        assert_eq!(
            sigma_serial.to_bits(),
            sigma_threaded.to_bits(),
            "2-sum differs on {dims:?} ({connectivity:?})"
        );
    }
}

#[test]
fn threaded_order_matches_serial_4_connected() {
    assert_thread_parity(Connectivity::Orthogonal);
}

#[test]
fn threaded_order_matches_serial_8_connected() {
    assert_thread_parity(Connectivity::Full);
}

/// SplitMix64 — a tiny seeded generator for the hole layout.
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
/// lattice, radius in `2..=max_r` and centre drawn from `seed`. Each hole
/// keeps at least one point of margin inside its own cell, so the set
/// stays 4-connected.
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

/// The irregular input: `(w, h, cols, rows, max_r)` of the holey grid and
/// the fewest points it must keep. Release runs pass the pool's spawn
/// threshold (`SPAWN_MIN` = 16,384 vertices) so the 4-thread solve really
/// spreads its heavy kernels over workers; debug runs stay small enough
/// for an unoptimised multilevel solve.
#[cfg(debug_assertions)]
const HOLEY: ((i64, i64, i64, i64, i64), usize) = ((60, 45, 4, 3, 4), 2_000);
#[cfg(not(debug_assertions))]
const HOLEY: ((i64, i64, i64, i64, i64), usize) = ((168, 132, 8, 6, 8), 17_000);

#[test]
fn threaded_order_matches_serial_on_holey_point_set() {
    // The same path the benchmark's irregular workload takes:
    // `map_points_on` over a seeded grid with disc holes.
    let ((w, h, cols, rows, max_r), min_points) = HOLEY;
    let points = holey_points(w, h, cols, rows, max_r, 0x401E);
    assert!(
        points.len() >= min_points,
        "only {} points, want ≥ {min_points}",
        points.len()
    );
    let (serial_pool, threaded_pool) = pools();
    let m = mapper(Connectivity::Orthogonal);
    let serial = m.map_points_on(&points, &serial_pool).unwrap();
    let threaded = m.map_points_on(&points, &threaded_pool).unwrap();
    assert_same(
        &serial,
        &threaded,
        &format!("{w}x{h} holey grid ({} points)", points.len()),
    );
}

/// The multi-vector input: `(w, h, cols, rows, max_r)` of the holey grid
/// and the fewest points it must keep. Release runs use the benchmark's
/// 240×180 lattice, where a tolerance comparator once broke the sort's
/// total order; debug runs stay small enough for an unoptimised solve.
#[cfg(debug_assertions)]
const MULTI_HOLEY: ((i64, i64, i64, i64, i64), usize) = ((60, 45, 4, 3, 4), 2_000);
#[cfg(not(debug_assertions))]
const MULTI_HOLEY: ((i64, i64, i64, i64, i64), usize) = ((240, 180, 8, 6, 13), 20_000);

#[test]
fn multi_vector_order_is_a_permutation_on_holey_point_set() {
    let ((w, h, cols, rows, max_r), min_points) = MULTI_HOLEY;
    let points = holey_points(w, h, cols, rows, max_r, 0x401E);
    let n = points.len();
    assert!(n >= min_points, "only {n} points, want ≥ {min_points}");
    let graph = points.neighbourhood_graph(Connectivity::Orthogonal);
    let order = spectral_lpm::multi_vector_order_on(
        &graph,
        2,
        1e-6,
        &SpectralConfig::default(),
        &Pool::serial(),
    )
    .unwrap();
    let mut seen = vec![false; n];
    for v in 0..n {
        assert!(!std::mem::replace(&mut seen[order.rank_of(v)], true));
    }
    assert!(seen.into_iter().all(|s| s), "{w}x{h}: ranks cover 0..{n}");
}
