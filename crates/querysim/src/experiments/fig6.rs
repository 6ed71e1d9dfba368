//! Figure 6 — range-query locality in 4-D.
//!
//! The paper's two panels use two related workloads (its own wording):
//!
//! * **6a** — "the maximum difference between the maximum and minimum
//!   one-dimensional points for **a certain range query**": a fixed
//!   (hypercubic) query shape whose volume is `p`% of the space, max span
//!   over all placements. [`run_worst_case`].
//! * **6b** — "for **all possible partial range queries** with a certain
//!   size […] the standard deviation of the difference": every box shape
//!   within a tolerance of the target volume (including elongated
//!   partial-match shapes such as `1×1×8×8`), every placement; the spread
//!   of spans measures fairness. [`run_fairness`].
//!
//! [`run_worst_case_partial`] additionally reports the worst span over the
//! partial-query workload — not a paper panel, but the harshest stress of
//! the boundary effect (every mapping has some adversarial shape, and the
//! interesting signal is how fast each saturates).

use crate::experiments::{series_per_mapping, FigureData, FigureSeries};
use crate::mappings::MappingSet;
use crate::metrics;
use crate::workloads;
use serde::Serialize;
use slpm_graph::grid::GridSpec;

/// Configuration for the Figure 6 experiments.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Config {
    /// Grid side (power of two). Paper-scale default 8 (8⁴ = 4096 points).
    pub side: usize,
    /// Dimensionality (paper: 4).
    pub ndim: usize,
    /// Query sizes as percent of the space volume.
    pub percents: Vec<f64>,
    /// Multiplicative volume tolerance for partial-shape enumeration (see
    /// [`workloads::shapes_for_volume_percent`]).
    pub shape_tolerance: f64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            side: 8,
            ndim: 4,
            percents: vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            shape_tolerance: 1.25,
        }
    }
}

impl Fig6Config {
    /// A reduced configuration for fast tests.
    pub fn quick() -> Self {
        Fig6Config {
            side: 4,
            ndim: 3,
            percents: vec![12.5, 50.0],
            shape_tolerance: 1.25,
        }
    }
}

/// How one sweep variant turns per-query spans into a per-mapping series.
enum Aggregation {
    /// Cubic queries, max span over placements (panel 6a).
    CubicMax,
    /// Partial queries, stddev of span over shapes × placements (panel 6b).
    PartialStdDev,
    /// Partial queries, max span (extra stress experiment).
    PartialMax,
}

fn stats_for(
    spec: &GridSpec,
    order: &spectral_lpm::LinearOrder,
    percent: f64,
    cfg: &Fig6Config,
    agg: &Aggregation,
) -> f64 {
    match agg {
        Aggregation::CubicMax => {
            let side = workloads::side_for_volume_percent(spec, percent);
            metrics::range_span_stats(spec, order, side).max as f64
        }
        Aggregation::PartialStdDev => {
            metrics::partial_range_span_stats(spec, order, percent, cfg.shape_tolerance).stddev
        }
        Aggregation::PartialMax => {
            metrics::partial_range_span_stats(spec, order, percent, cfg.shape_tolerance).max as f64
        }
    }
}

fn sweep(cfg: &Fig6Config, agg: Aggregation) -> (GridSpec, Vec<FigureSeries>) {
    let spec = GridSpec::cube(cfg.side, cfg.ndim);
    let set = MappingSet::paper_set(&spec).expect("power-of-two grid");
    let series = series_per_mapping(&set, |order| {
        cfg.percents
            .iter()
            .map(|&p| (p, stats_for(&spec, order, p, cfg, &agg)))
            .collect()
    });
    (spec, series)
}

/// Figure 6a: worst-case span of a hypercubic range query per query size.
pub fn run_worst_case(cfg: &Fig6Config) -> FigureData {
    let (spec, series) = sweep(cfg, Aggregation::CubicMax);
    FigureData {
        id: "fig6a".into(),
        title: format!(
            "Range-query worst case (cubic queries), {}^{} grid ({} points)",
            cfg.side,
            cfg.ndim,
            spec.num_points()
        ),
        x_label: "Range query size (percent)".into(),
        y_label: "Max span (max - min 1-D value)".into(),
        series,
    }
}

/// Figure 6b: standard deviation of spans over all partial range queries.
pub fn run_fairness(cfg: &Fig6Config) -> FigureData {
    let (spec, series) = sweep(cfg, Aggregation::PartialStdDev);
    FigureData {
        id: "fig6b".into(),
        title: format!(
            "Range-query fairness (partial queries), {}^{} grid ({} points)",
            cfg.side,
            cfg.ndim,
            spec.num_points()
        ),
        x_label: "Range query size (percent)".into(),
        y_label: "StdDev of span".into(),
        series,
    }
}

/// Extra experiment: worst span over the *partial* query workload.
pub fn run_worst_case_partial(cfg: &Fig6Config) -> FigureData {
    let (spec, series) = sweep(cfg, Aggregation::PartialMax);
    FigureData {
        id: "fig6a-partial".into(),
        title: format!(
            "Range-query worst case (partial queries), {}^{} grid ({} points)",
            cfg.side,
            cfg.ndim,
            spec.num_points()
        ),
        x_label: "Range query size (percent)".into(),
        y_label: "Max span (max - min 1-D value)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_has_five_series_and_monotone_x() {
        let f = run_worst_case(&Fig6Config::quick());
        assert_eq!(f.series.len(), 5);
        for s in &f.series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points[0].0 < s.points[1].0);
        }
    }

    #[test]
    fn spectral_beats_fractals_worst_case() {
        // The reproducible core of Figure 6a: Spectral's worst span is
        // below every *fractal* mapping's at every query size. (Sweep —
        // whose span for a cubic query is placement-independent — can win
        // this particular metric on a symmetric hypercube; see
        // EXPERIMENTS.md for the discussion.)
        let f = run_worst_case(&Fig6Config::quick());
        let spectral = &f.series("Spectral").unwrap().points;
        for fractal in ["Peano", "Gray", "Hilbert"] {
            let pts = &f.series(fractal).unwrap().points;
            for (i, &(_, y)) in pts.iter().enumerate() {
                assert!(
                    spectral[i].1 <= y + 1e-9,
                    "Spectral {} > {fractal} {y} at x index {i}",
                    spectral[i].1
                );
            }
        }
    }

    #[test]
    fn spectral_fairest_at_small_sizes() {
        // Figure 6b's headline: Spectral has the lowest span spread for
        // small/medium queries (fractal spreads collapse only when the
        // query approaches the whole space).
        let f = run_fairness(&Fig6Config::quick());
        let spectral_y = f.series("Spectral").unwrap().points[0].1;
        for other in ["Sweep", "Peano", "Gray", "Hilbert"] {
            let y = f.series(other).unwrap().points[0].1;
            assert!(
                spectral_y <= y + 1e-9,
                "Spectral stddev {spectral_y} > {other} {y} at the smallest size"
            );
        }
    }

    #[test]
    fn fairness_stddevs_are_finite_nonnegative() {
        let f = run_fairness(&Fig6Config::quick());
        for s in &f.series {
            for &(_, y) in &s.points {
                assert!(y.is_finite() && y >= 0.0);
            }
        }
    }

    #[test]
    fn partial_worst_case_dominates_cubic() {
        // The partial workload includes (a neighbourhood of) the cubic
        // shape, so its worst span is ≥ the cubic worst span.
        let cfg = Fig6Config::quick();
        let cubic = run_worst_case(&cfg);
        let partial = run_worst_case_partial(&cfg);
        for s in &cubic.series {
            let p = partial.series(&s.label).unwrap();
            for (i, &(_, y)) in s.points.iter().enumerate() {
                assert!(
                    p.points[i].1 >= y - 1e-9,
                    "{}: partial {} < cubic {y}",
                    s.label,
                    p.points[i].1
                );
            }
        }
    }

    #[test]
    fn full_space_query_has_deterministic_span() {
        // A query covering 100% of the space has exactly one placement and
        // span n−1 for every mapping (full scan) with stddev 0.
        let cfg = Fig6Config {
            side: 4,
            ndim: 2,
            percents: vec![100.0],
            shape_tolerance: 1.05,
        };
        let worst = run_worst_case(&cfg);
        let fair = run_fairness(&cfg);
        for s in &worst.series {
            assert_eq!(s.points[0].1, 15.0, "{}", s.label);
        }
        for s in &fair.series {
            assert_eq!(s.points[0].1, 0.0, "{}", s.label);
        }
    }
}
