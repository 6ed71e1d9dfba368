//! Reproducible mixed workloads for the serving layer.
//!
//! Builds batches of range and kNN queries from
//! [`slpm_querysim::workloads::sample_boxes`] — the same seeded generator
//! the evaluation figures use — so a workload is a pure function of
//! `(grid, count, seed)`: two processes, machines, or shard/thread
//! configurations replay byte-for-byte the same queries.

use crate::engine::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slpm_graph::grid::GridSpec;
use slpm_querysim::workloads::{sample_boxes, RangeBox};
use slpm_storage::Mbr;

/// Shape of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Seed for the box sampler.
    pub seed: u64,
    /// Every `knn_every`-th query becomes a kNN probe at the box centre
    /// (`0` disables kNN entirely).
    pub knn_every: usize,
    /// Neighbours per kNN probe.
    pub k: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 1000,
            seed: 42,
            knn_every: 4,
            // Deliberately larger than the 9 points a unit-radius L∞ ball
            // holds in 2-D, so a kNN query reaches past its centre's
            // immediate neighbourhood and the planner's pruning is
            // exercised on the default workload.
            k: 16,
        }
    }
}

/// The grid's points as integer coordinates, id = row-major index — the
/// point set every engine over a [`GridSpec`] serves.
pub fn grid_points(spec: &GridSpec) -> Vec<Vec<i64>> {
    spec.iter_points()
        .map(|c| c.iter().map(|&x| x as i64).collect())
        .collect()
}

/// Convert a grid-coordinate box to the store's integer MBR.
fn to_mbr(b: &RangeBox) -> Mbr {
    Mbr {
        lo: b.lo.iter().map(|&x| x as i64).collect(),
        hi: b.hi.iter().map(|&x| x as i64).collect(),
    }
}

/// The selectivity-class labels of [`mixed_workload_labeled`], in class
/// order (the fourth label marks kNN probes).
pub const CLASS_LABELS: [&str; 4] = ["range-1/32", "range-1/16", "range-1/8", "knn"];

/// Generate a reproducible mixed batch: three selectivity classes of
/// range boxes (sides ≈ 1/32, 1/16 and 1/8 of the smallest grid extent)
/// interleaved round-robin, with every `knn_every`-th query replaced by a
/// kNN probe anchored at its box's centre.
pub fn mixed_workload(spec: &GridSpec, cfg: &WorkloadConfig) -> Vec<Query> {
    mixed_workload_labeled(spec, cfg)
        .into_iter()
        .map(|(q, _)| q)
        .collect()
}

/// [`mixed_workload`] with each query tagged by its [`CLASS_LABELS`]
/// selectivity class — the key the bench groups per-class latency
/// quantiles by.
pub fn mixed_workload_labeled(spec: &GridSpec, cfg: &WorkloadConfig) -> Vec<(Query, &'static str)> {
    let min_extent = spec.dims().iter().copied().min().expect("non-empty grid");
    let classes: Vec<usize> = [32, 16, 8]
        .iter()
        .map(|&frac| (min_extent / frac).max(1))
        .collect();
    let per_class = cfg.queries.div_ceil(classes.len());
    // One seeded stream per class; interleaving consumes them round-robin
    // so the batch mixes selectivities the way live traffic would.
    let streams: Vec<Vec<RangeBox>> = classes
        .iter()
        .enumerate()
        .map(|(c, &side)| {
            let sides = vec![side; spec.ndim()];
            sample_boxes(spec, &sides, per_class, cfg.seed.wrapping_add(c as u64))
        })
        .collect();
    (0..cfg.queries)
        .map(|i| {
            let class = i % classes.len();
            let b = &streams[class][i / classes.len()];
            let knn_due = cfg.knn_every > 0 && (i + 1) % cfg.knn_every == 0;
            if knn_due && cfg.k > 0 {
                let center: Vec<i64> =
                    b.lo.iter()
                        .zip(b.hi.iter())
                        .map(|(&l, &h)| ((l + h) / 2) as i64)
                        .collect();
                (Query::Knn { center, k: cfg.k }, CLASS_LABELS[3])
            } else {
                (Query::Range(to_mbr(b)), CLASS_LABELS[class])
            }
        })
        .collect()
}

/// Shape of a hot-spot (Zipf) workload: most traffic hammers a few small
/// regions of the grid, the skew the ROADMAP's "workload skew" item asks
/// for — under contiguous partitioning it concentrates on few shards
/// (visible as a high [`crate::engine::BatchReport::shard_balance`]),
/// where round-robin declustering spreads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfConfig {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Seed for hotspot placement and query sampling.
    pub seed: u64,
    /// Every `knn_every`-th query becomes a kNN probe (0 disables).
    pub knn_every: usize,
    /// Neighbours per kNN probe.
    pub k: usize,
    /// Number of hot-spot centres scattered over the grid.
    pub hotspots: usize,
    /// Zipf exponent `s`: hotspot `i` (0-based popularity rank) is drawn
    /// with probability ∝ `1 / (i + 1)^s`. `0.0` is uniform; the classic
    /// web-traffic skew is near `1.0`.
    pub exponent: f64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            queries: 1000,
            seed: 42,
            knn_every: 4,
            k: 8,
            hotspots: 8,
            exponent: 1.2,
        }
    }
}

/// Generate a reproducible hot-spot batch: `hotspots` seeded centres,
/// each query drawn from a Zipf distribution over them and boxed (same
/// three selectivity-class sides as [`mixed_workload`], rotating) with a
/// jitter of up to one box side around its hotspot, clamped to the grid.
/// Every `knn_every`-th query becomes a kNN probe at its box centre.
pub fn zipf_workload(spec: &GridSpec, cfg: &ZipfConfig) -> Vec<Query> {
    assert!(cfg.hotspots >= 1, "need at least one hotspot");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ndim = spec.ndim();
    let centers: Vec<Vec<i64>> = (0..cfg.hotspots)
        .map(|_| {
            (0..ndim)
                .map(|d| rng.gen_range(0..spec.dim(d)) as i64)
                .collect()
        })
        .collect();
    // Zipf inverse-CDF over the hotspot popularity ranks.
    let weights: Vec<f64> = (0..cfg.hotspots)
        .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.exponent))
        .collect();
    // xtask:allow(float-reduce): serial fold over a fixed-order weight table
    let total: f64 = weights.iter().sum();
    let min_extent = spec.dims().iter().copied().min().expect("non-empty grid");
    let class_sides: Vec<i64> = [32usize, 16, 8]
        .iter()
        .map(|&frac| (min_extent / frac).max(1) as i64)
        .collect();
    (0..cfg.queries)
        .map(|i| {
            let mut u = rng.gen_range(0.0..total);
            let mut hotspot = cfg.hotspots - 1;
            for (h, &w) in weights.iter().enumerate() {
                if u < w {
                    hotspot = h;
                    break;
                }
                u -= w;
            }
            let side = class_sides[i % class_sides.len()];
            let center = &centers[hotspot];
            let (lo, hi): (Vec<i64>, Vec<i64>) = (0..ndim)
                .map(|d| {
                    let extent = spec.dim(d) as i64;
                    let jitter = rng.gen_range(-side..=side);
                    let lo = (center[d] + jitter - side / 2).clamp(0, (extent - side).max(0));
                    (lo, (lo + side - 1).min(extent - 1))
                })
                .unzip();
            let knn_due = cfg.knn_every > 0 && (i + 1) % cfg.knn_every == 0;
            if knn_due && cfg.k > 0 {
                let center: Vec<i64> = lo.iter().zip(&hi).map(|(&l, &h)| (l + h) / 2).collect();
                Query::Knn { center, k: cfg.k }
            } else {
                Query::Range(Mbr { lo, hi })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_reproducible() {
        let spec = GridSpec::cube(64, 2);
        let cfg = WorkloadConfig {
            queries: 100,
            ..Default::default()
        };
        let a = mixed_workload(&spec, &cfg);
        let b = mixed_workload(&spec, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let other = mixed_workload(&spec, &WorkloadConfig { seed: 7, ..cfg });
        assert_ne!(a, other);
    }

    #[test]
    fn workload_mixes_ranges_and_knn() {
        let spec = GridSpec::cube(64, 2);
        let cfg = WorkloadConfig {
            queries: 40,
            knn_every: 4,
            ..Default::default()
        };
        let batch = mixed_workload(&spec, &cfg);
        let knn = batch
            .iter()
            .filter(|q| matches!(q, Query::Knn { .. }))
            .count();
        assert_eq!(knn, 10);
        // Boxes stay inside the grid; kNN centres too.
        for q in &batch {
            match q {
                Query::Range(m) => {
                    assert!(m.lo.iter().all(|&x| x >= 0));
                    assert!(m.hi.iter().all(|&x| x < 64));
                }
                Query::Knn { center, k } => {
                    assert!(center.iter().all(|&x| (0..64).contains(&x)));
                    assert_eq!(*k, 16);
                }
            }
        }
    }

    #[test]
    fn knn_disabled_yields_pure_ranges() {
        let spec = GridSpec::cube(32, 2);
        let cfg = WorkloadConfig {
            queries: 30,
            knn_every: 0,
            ..Default::default()
        };
        assert!(mixed_workload(&spec, &cfg)
            .iter()
            .all(|q| matches!(q, Query::Range(_))));
    }

    #[test]
    fn labeled_workload_matches_and_tags_classes() {
        let spec = GridSpec::cube(64, 2);
        let cfg = WorkloadConfig {
            queries: 60,
            ..Default::default()
        };
        let labeled = mixed_workload_labeled(&spec, &cfg);
        let plain = mixed_workload(&spec, &cfg);
        assert_eq!(
            labeled.iter().map(|(q, _)| q.clone()).collect::<Vec<_>>(),
            plain
        );
        for (q, label) in &labeled {
            match q {
                Query::Knn { .. } => assert_eq!(*label, "knn"),
                Query::Range(_) => assert!(label.starts_with("range-"), "label {label}"),
            }
        }
        // All four classes appear in a batch this size.
        for label in CLASS_LABELS {
            assert!(labeled.iter().any(|(_, l)| *l == label), "missing {label}");
        }
    }

    #[test]
    fn zipf_workload_is_reproducible_and_in_bounds() {
        let spec = GridSpec::cube(64, 2);
        let cfg = ZipfConfig {
            queries: 200,
            ..Default::default()
        };
        let a = zipf_workload(&spec, &cfg);
        let b = zipf_workload(&spec, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert_ne!(a, zipf_workload(&spec, &ZipfConfig { seed: 7, ..cfg }));
        let knn = a.iter().filter(|q| matches!(q, Query::Knn { .. })).count();
        assert_eq!(knn, 50);
        for q in &a {
            match q {
                Query::Range(m) => {
                    assert!(m.lo.iter().all(|&x| x >= 0));
                    assert!(m.hi.iter().all(|&x| x < 64));
                    assert!(m.lo.iter().zip(&m.hi).all(|(l, h)| l <= h));
                }
                Query::Knn { center, k } => {
                    assert!(center.iter().all(|&x| (0..64).contains(&x)));
                    assert_eq!(*k, 8);
                }
            }
        }
    }

    #[test]
    fn zipf_workload_concentrates_on_the_top_hotspot() {
        // With a strong exponent, far more queries land near hotspot 0
        // than near the median hotspot: count queries whose box centre is
        // closest to each hotspot centre.
        let spec = GridSpec::cube(256, 2);
        let cfg = ZipfConfig {
            queries: 600,
            knn_every: 0,
            hotspots: 8,
            exponent: 1.5,
            ..Default::default()
        };
        // Recompute the hotspot centres the generator derives (same RNG
        // stream prefix).
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let centers: Vec<Vec<i64>> = (0..cfg.hotspots)
            .map(|_| (0..2).map(|_| rng.gen_range(0..256usize) as i64).collect())
            .collect();
        let mut counts = vec![0usize; cfg.hotspots];
        for q in zipf_workload(&spec, &cfg) {
            let Query::Range(m) = q else { unreachable!() };
            let qc: Vec<i64> = m.lo.iter().zip(&m.hi).map(|(&l, &h)| (l + h) / 2).collect();
            let nearest = (0..cfg.hotspots)
                .min_by_key(|&h| {
                    centers[h]
                        .iter()
                        .zip(&qc)
                        .map(|(&c, &x)| (c - x).abs())
                        .max()
                        .unwrap_or(0)
                })
                .unwrap();
            counts[nearest] += 1;
        }
        let median = {
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            sorted[cfg.hotspots / 2]
        };
        assert!(counts[0] > 2 * median.max(1), "no skew: counts {counts:?}");
    }

    #[test]
    fn zipf_hot_traffic_skews_contiguous_shards() {
        // The point of the metric: hot-spot traffic on contiguous
        // partitioning loads shards unevenly.
        use crate::engine::{EngineConfig, ServeEngine};
        use spectral_lpm::LinearOrder;
        let spec = GridSpec::cube(32, 2);
        let points = grid_points(&spec);
        let order = LinearOrder::identity(points.len());
        let engine = ServeEngine::new(
            &points,
            &order,
            EngineConfig {
                records_per_page: 4,
                fanout: 4,
                shards: 8,
                ..Default::default()
            },
        );
        let batch = zipf_workload(
            &spec,
            &ZipfConfig {
                queries: 120,
                hotspots: 2,
                exponent: 2.0,
                knn_every: 0,
                ..Default::default()
            },
        );
        let report = engine.run(&batch).expect("no replay panic");
        assert!(report.total_pages() > 0);
        assert!(
            report.shard_balance() > 1.5,
            "expected skew, balance {}",
            report.shard_balance()
        );
    }

    #[test]
    fn grid_points_are_row_major() {
        let spec = GridSpec::new(&[2, 3]);
        let pts = grid_points(&spec);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[5], vec![1, 2]);
        for (i, p) in pts.iter().enumerate() {
            let coords: Vec<usize> = p.iter().map(|&x| x as usize).collect();
            assert_eq!(spec.index_of(&coords), i);
        }
    }

    #[test]
    fn tiny_grid_degenerates_gracefully() {
        let spec = GridSpec::cube(4, 2);
        let cfg = WorkloadConfig {
            queries: 10,
            ..Default::default()
        };
        let batch = mixed_workload(&spec, &cfg);
        assert_eq!(batch.len(), 10);
    }
}
