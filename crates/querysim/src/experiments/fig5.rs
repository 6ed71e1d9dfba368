//! Figure 5 — nearest-neighbour locality.
//!
//! **5a (worst case, 5-D):** for pairs at Manhattan distance `d` (10–50 %
//! of the maximum), what is the *maximum* 1-D distance (as a percent of
//! `n − 1`)? Lower is better for nearest-neighbour queries. The paper's
//! result: the non-fractal mappings (Sweep, Spectral) beat the fractals,
//! with Spectral best or tied.
//!
//! **5b (fairness, 2-D):** the same question restricted to pairs displaced
//! along a *single* dimension. Sweep answers wildly differently for X
//! versus Y (its scan direction); Spectral answers almost identically —
//! it does not discriminate between dimensions.

use crate::experiments::{series_per_mapping, FigureData, FigureSeries};
use crate::mappings::{MappingLabel, MappingSet};
use crate::metrics;
use serde::Serialize;
use slpm_graph::grid::{Connectivity, GridSpec};

/// Configuration for the Figure 5 experiments.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Config {
    /// Grid side for 5a (power of two). Paper-scale default: 4 (4⁵ = 1024
    /// points).
    pub side_5d: usize,
    /// Grid side for 5b (power of two). Default 16 (16² = 256 points).
    pub side_2d: usize,
    /// Manhattan-distance percentages swept on the x-axis.
    pub percents: Vec<f64>,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            side_5d: 4,
            side_2d: 16,
            percents: vec![10.0, 20.0, 30.0, 40.0, 50.0],
        }
    }
}

impl Fig5Config {
    /// A reduced configuration for fast tests.
    pub fn quick() -> Self {
        Fig5Config {
            side_5d: 2,
            side_2d: 8,
            percents: vec![20.0, 40.0],
        }
    }
}

/// Figure 5a: worst-case 1-D distance versus Manhattan distance in 5-D.
pub fn run_worst_case(cfg: &Fig5Config) -> FigureData {
    let spec = GridSpec::cube(cfg.side_5d, 5);
    let set = MappingSet::paper_set(&spec).expect("power-of-two 5-D grid");
    let max_manhattan = spec.max_manhattan();
    let n = spec.num_points();

    // Translate percents into concrete distances (≥ 1).
    let distances: Vec<usize> = cfg
        .percents
        .iter()
        .map(|p| ((p / 100.0 * max_manhattan as f64).round() as usize).max(1))
        .collect();

    let series = series_per_mapping(&set, |order| {
        distances
            .iter()
            .zip(&cfg.percents)
            .map(|(&d, &p)| {
                let stats = metrics::pair_distance_stats(&spec, order, d);
                (p, 100.0 * stats.max as f64 / (n - 1) as f64)
            })
            .collect()
    });

    FigureData {
        id: "fig5a".into(),
        title: format!(
            "Nearest-neighbour worst case, {}^5 grid ({} points)",
            cfg.side_5d, n
        ),
        x_label: "Manhattan distance (percent)".into(),
        y_label: "Max 1-D distance (percent)".into(),
        series,
    }
}

/// Figure 5b: per-dimension fairness in 2-D — series Sweep-X, Sweep-Y,
/// Spectral-X, Spectral-Y.
pub fn run_fairness(cfg: &Fig5Config) -> FigureData {
    let spec = GridSpec::cube(cfg.side_2d, 2);
    let set = MappingSet::paper_set(&spec).expect("power-of-two 2-D grid");
    let sweep = set
        .get(MappingLabel::Curve(slpm_sfc::CurveKind::Sweep))
        .expect("paper set contains sweep");
    let spectral = set
        .get(MappingLabel::Spectral(Connectivity::Orthogonal))
        .expect("paper set contains spectral");

    let max_axis = cfg.side_2d - 1;
    let distances: Vec<usize> = cfg
        .percents
        .iter()
        .map(|p| ((p / 100.0 * max_axis as f64).round() as usize).max(1))
        .collect();

    let mut series = Vec::new();
    for (name, order) in [("Sweep", sweep), ("Spectral", spectral)] {
        for (suffix, dim) in [("X", 0usize), ("Y", 1usize)] {
            let points: Vec<(f64, f64)> = distances
                .iter()
                .zip(cfg.percents.iter())
                .map(|(&d, &p)| {
                    let stats = metrics::axis_pair_distance_stats(&spec, order, dim, d);
                    (p, stats.max as f64)
                })
                .collect();
            series.push(FigureSeries {
                label: format!("{name}-{suffix}"),
                points,
            });
        }
    }

    FigureData {
        id: "fig5b".into(),
        title: format!("Nearest-neighbour fairness, {0}×{0} grid", cfg.side_2d),
        x_label: "Manhattan distance (percent)".into(),
        y_label: "Max 1-D distance".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_has_five_series() {
        let f = run_worst_case(&Fig5Config::quick());
        assert_eq!(f.series.len(), 5);
        for s in &f.series {
            assert_eq!(s.points.len(), 2);
            for &(_, y) in &s.points {
                assert!(y.is_finite() && (0.0..=100.0).contains(&y));
            }
        }
    }

    #[test]
    fn fairness_has_four_series() {
        let f = run_fairness(&Fig5Config::quick());
        let labels: Vec<&str> = f.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["Sweep-X", "Sweep-Y", "Spectral-X", "Spectral-Y"]
        );
    }

    #[test]
    fn sweep_is_unfair_spectral_is_fair() {
        // The headline qualitative claim of Figure 5b, on a small grid.
        let f = run_fairness(&Fig5Config {
            side_2d: 8,
            percents: vec![25.0, 50.0],
            ..Fig5Config::quick()
        });
        let at = |label: &str, i: usize| f.series(label).unwrap().points[i].1;
        for i in 0..2 {
            let sweep_gap = (at("Sweep-X", i) - at("Sweep-Y", i)).abs();
            let spectral_gap = (at("Spectral-X", i) - at("Spectral-Y", i)).abs();
            assert!(
                spectral_gap < sweep_gap,
                "x-point {i}: spectral gap {spectral_gap} not smaller than sweep gap {sweep_gap}"
            );
        }
    }

    #[test]
    fn spectral_no_worse_than_fractals_at_small_distance() {
        // Figure 5a's qualitative shape at the 20% point on a quick grid:
        // Spectral ≤ max(fractals).
        let f = run_worst_case(&Fig5Config::quick());
        let y = |label: &str| f.series(label).unwrap().points[0].1;
        let worst_fractal = y("Peano").max(y("Gray")).max(y("Hilbert"));
        assert!(y("Spectral") <= worst_fractal + 1e-9);
    }
}
