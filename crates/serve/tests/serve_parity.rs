//! Shard-, thread-, planner- and admission-invariance of the serving
//! engine.
//!
//! The engine's contract (the serving analogue of PR 3's threading-parity
//! guarantee): replaying the same deterministic workload over the same
//! linear order must produce **identical per-query result sets, page
//! counts, run counts and batch digest** for every combination of shard
//! count, thread count, partition policy, kNN planner and in-flight batch
//! count — scheduling moves work, never answers. Additionally, the
//! engine's per-query distinct-page accounting must equal what the plain
//! unsharded [`slpm_storage::PageStore::serve_query`] loop reads for the
//! same queries.
//!
//! Debug builds run a small grid; the release (tier-2) run adds a
//! 256×256 grid with the full 1 000-query acceptance workload, matching
//! `threading_parity.rs`'s release gating. One more case serves a grid
//! with disc holes under its spectral order — a non-grid point set whose
//! R-tree leaves are tall — and checks every answer against a full scan.

use slpm_graph::grid::GridSpec;
use slpm_graph::points::PointSet;
use slpm_linalg::Pool;
use slpm_querysim::mappings::curve_order;
use slpm_serve::engine::{EngineConfig, KnnPlanner, ServeEngine};
use slpm_serve::shard::Partition;
use slpm_serve::workload::{grid_points, mixed_workload, WorkloadConfig};
use slpm_serve::Query;
use slpm_sfc::HilbertCurve;
use slpm_storage::{chebyshev, PageLayout, PageMapper, PageStore};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper};

/// `(grid side, queries)` cases; sides are powers of two for Hilbert.
#[cfg(debug_assertions)]
const CASES: &[(usize, usize)] = &[(32, 120)];
#[cfg(not(debug_assertions))]
const CASES: &[(usize, usize)] = &[(64, 300), (256, 1000)];

fn hilbert_order(spec: &GridSpec) -> LinearOrder {
    let side = spec.dim(0) as u64;
    curve_order(
        spec,
        &HilbertCurve::from_side(spec.ndim(), side).expect("power-of-two side"),
    )
}

#[test]
fn results_identical_across_shards_threads_and_partitions() {
    for &(side, queries) in CASES {
        let spec = GridSpec::cube(side, 2);
        let points = grid_points(&spec);
        let order = hilbert_order(&spec);
        let workload = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries,
                ..Default::default()
            },
        );
        let base = EngineConfig {
            buffer_pages: 32,
            ..Default::default()
        };
        let reference = ServeEngine::new(&points, &order, base)
            .run(&workload)
            .expect("no replay panic");
        assert_eq!(reference.outcomes.len(), queries);
        assert!(reference.total_results() > 0, "degenerate workload");
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                for partition in [Partition::Contiguous, Partition::RoundRobin] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        partition,
                        ..base
                    };
                    let engine = ServeEngine::new(&points, &order, cfg);
                    let report = engine.run(&workload).expect("no replay panic");
                    let label = format!("{side}x{side} S={shards} T={threads} {partition}");
                    assert_eq!(report.digest, reference.digest, "digest: {label}");
                    for (q, (a, b)) in report.outcomes.iter().zip(&reference.outcomes).enumerate() {
                        assert_eq!(a.results, b.results, "results of query {q}: {label}");
                        assert_eq!(a.pages, b.pages, "pages of query {q}: {label}");
                        assert_eq!(a.runs, b.runs, "runs of query {q}: {label}");
                    }
                    // Shard stats partition the batch exactly.
                    let routed: usize = report.shards.iter().map(|s| s.pages_routed).sum();
                    assert_eq!(routed, report.total_pages(), "routed pages: {label}");
                }
            }
        }
    }
}

#[test]
fn results_identical_across_planners_and_inflight_batches() {
    // The acceptance matrix: kNN result sets and batch digests bitwise
    // identical between expanding-ball and best-first planners, across
    // {1,4} shards × {1,4} threads × {1,4} in-flight batches.
    for &(side, queries) in CASES {
        let spec = GridSpec::cube(side, 2);
        let points = grid_points(&spec);
        let order = hilbert_order(&spec);
        let workload = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries,
                ..Default::default()
            },
        );
        let base = EngineConfig {
            buffer_pages: 32,
            ..Default::default()
        };
        let reference = ServeEngine::new(&points, &order, base)
            .run(&workload)
            .expect("no replay panic");
        let mut best_first_nodes = 0usize;
        let mut expanding_nodes = 0usize;
        for planner in [KnnPlanner::BestFirst, KnnPlanner::ExpandingBall] {
            for shards in [1usize, 4] {
                for threads in [1usize, 4] {
                    for inflight in [1usize, 4] {
                        let cfg = EngineConfig {
                            shards,
                            threads,
                            knn_planner: planner,
                            ..base
                        };
                        let engine = ServeEngine::new(&points, &order, cfg);
                        let report = engine
                            .run_inflight(&workload, inflight)
                            .expect("no replay panic");
                        let label =
                            format!("{side}x{side} {planner} S={shards} T={threads} I={inflight}");
                        assert_eq!(report.digest, reference.digest, "digest: {label}");
                        let mut tree_cost = 0usize;
                        for (q, (a, b)) in
                            report.outcomes.iter().zip(&reference.outcomes).enumerate()
                        {
                            assert_eq!(a.results, b.results, "results of query {q}: {label}");
                            assert_eq!(a.pages, b.pages, "pages of query {q}: {label}");
                            assert_eq!(a.runs, b.runs, "runs of query {q}: {label}");
                            tree_cost += a.tree.nodes_visited + a.tree.leaves_visited;
                        }
                        // Tree costs depend only on the planner, not on
                        // sharding, threading or admission.
                        match planner {
                            KnnPlanner::BestFirst if best_first_nodes == 0 => {
                                best_first_nodes = tree_cost;
                            }
                            KnnPlanner::BestFirst => assert_eq!(tree_cost, best_first_nodes),
                            KnnPlanner::ExpandingBall if expanding_nodes == 0 => {
                                expanding_nodes = tree_cost;
                            }
                            KnnPlanner::ExpandingBall => assert_eq!(tree_cost, expanding_nodes),
                        }
                    }
                }
            }
        }
        // The point of the planner: strictly fewer node visits on the
        // same workload (range scans identical, kNN cheaper).
        assert!(
            best_first_nodes < expanding_nodes,
            "{side}x{side}: best-first {best_first_nodes} vs expanding {expanding_nodes}"
        );
    }
}

#[test]
fn engine_page_accounting_matches_plain_store_replay() {
    for &(side, queries) in CASES {
        let spec = GridSpec::cube(side, 2);
        let points = grid_points(&spec);
        let order = hilbert_order(&spec);
        let workload = mixed_workload(
            &spec,
            &WorkloadConfig {
                queries: queries.min(300),
                ..Default::default()
            },
        );
        let cfg = EngineConfig {
            shards: 4,
            threads: 4,
            ..Default::default()
        };
        let engine = ServeEngine::new(&points, &order, cfg);
        let report = engine.run(&workload).expect("no replay panic");
        // The classic single-threaded, single-shard accounting loop.
        let mapper = PageMapper::new(&order, PageLayout::new(cfg.records_per_page));
        let store = PageStore::build(&mapper, order.len(), 8);
        let mut direct_total = 0usize;
        for (outcome, _q) in report.outcomes.iter().zip(&workload) {
            let direct = store.serve_query(outcome.results.iter().copied());
            assert_eq!(outcome.pages, direct);
            direct_total += direct;
        }
        assert_eq!(report.total_pages(), direct_total);
        assert_eq!(store.total_reads(), direct_total);
    }
}

/// `((w, h, cols, rows, max_r), min points, queries)` of the holey case:
/// a `w × h` grid with one disc hole per cell of a `cols × rows` lattice.
/// Debug keeps 1,400 points; release 13,604.
#[cfg(debug_assertions)]
const HOLEY: ((i64, i64, i64, i64, i64), usize, usize) = ((48, 36, 4, 3, 4), 1_000, 120);
#[cfg(not(debug_assertions))]
const HOLEY: ((i64, i64, i64, i64, i64), usize, usize) = ((144, 108, 8, 6, 5), 10_000, 1000);

/// SplitMix64 for the hole layout.
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

/// A full scan's answer: ranges in rank order, kNN by (L∞ distance, id).
fn brute_force(points: &[Vec<i64>], order: &LinearOrder, query: &Query) -> Vec<usize> {
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

#[test]
fn holey_point_set_under_spectral_order_is_invariant_and_exact() {
    let ((w, h, cols, rows, max_r), min_points, queries) = HOLEY;
    let set = holey_points(w, h, cols, rows, max_r, 0x5E7E);
    let order = SpectralMapper::new(SpectralConfig::default())
        .map_points_on(&set, &Pool::serial())
        .expect("the holey set is connected")
        .order;
    let points = set.points();
    assert!(
        points.len() >= min_points,
        "only {} points, want ≥ {min_points}",
        points.len()
    );
    let workload = mixed_workload(
        &GridSpec::new(&[w as usize, h as usize]),
        &WorkloadConfig {
            queries,
            ..Default::default()
        },
    );
    let base = EngineConfig {
        buffer_pages: 32,
        ..Default::default()
    };
    let reference = ServeEngine::new(points, &order, base)
        .run(&workload)
        .expect("no replay panic");
    assert!(reference.total_results() > 0, "degenerate workload");
    for (q, (query, outcome)) in workload.iter().zip(&reference.outcomes).enumerate() {
        assert_eq!(
            outcome.results,
            brute_force(points, &order, query),
            "query {q} differs from a full scan"
        );
    }
    for planner in [KnnPlanner::BestFirst, KnnPlanner::ExpandingBall] {
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                for inflight in [1usize, 4] {
                    let cfg = EngineConfig {
                        shards,
                        threads,
                        knn_planner: planner,
                        ..base
                    };
                    let report = ServeEngine::new(points, &order, cfg)
                        .run_inflight(&workload, inflight)
                        .expect("no replay panic");
                    let label = format!(
                        "holey {w}x{h} ({} points) {planner} S={shards} T={threads} I={inflight}",
                        points.len()
                    );
                    assert_eq!(report.digest, reference.digest, "digest: {label}");
                    for (q, (a, b)) in report.outcomes.iter().zip(&reference.outcomes).enumerate() {
                        assert_eq!(a.results, b.results, "results of query {q}: {label}");
                        assert_eq!(a.pages, b.pages, "pages of query {q}: {label}");
                        assert_eq!(a.runs, b.runs, "runs of query {q}: {label}");
                    }
                }
            }
        }
    }
}
