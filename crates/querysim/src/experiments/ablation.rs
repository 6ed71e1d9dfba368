//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Eigensolver path** — the Fiedler strategies must agree on λ₂ and
//!    produce orders of identical quality; they differ (hugely) in cost,
//!    which the Criterion bench `ablation_eigensolver` measures.
//! 2. **Connectivity** — 4- vs 8-connectivity vs inverse-distance weighting
//!    changes the graph being optimised; this runner quantifies the effect
//!    on the Figure-5-style locality metric.
//! 3. **Affinity edges** — Section 4's extensibility: how strongly does an
//!    affinity edge pull its endpoints together, and what does it cost the
//!    rest of the arrangement?

use crate::metrics;
use serde::Serialize;
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
use spectral_lpm::{objective, AffinityEdge, SpectralConfig, SpectralMapper};

/// One eigensolver strategy's outcome on a given grid.
#[derive(Debug, Clone, Serialize)]
pub struct EigensolverRow {
    /// Strategy name.
    pub method: String,
    /// λ₂ it computed.
    pub lambda2: f64,
    /// Eigen-residual.
    pub residual: f64,
    /// 2-sum cost of the resulting order (order quality).
    pub two_sum: f64,
}

/// Compare the multilevel solver with the dense reference on a
/// `side × side` grid. Multilevel solves graphs of up to 256 vertices
/// with the dense path itself, so only sides above 16 compare two solvers.
pub fn eigensolver_agreement(side: usize) -> Vec<EigensolverRow> {
    let spec = GridSpec::cube(side, 2);
    let graph = spec.graph(Connectivity::Orthogonal);
    [FiedlerMethod::Multilevel, FiedlerMethod::Dense]
        .into_iter()
        .map(|method| {
            let mapper = SpectralMapper::new(SpectralConfig {
                fiedler: FiedlerOptions {
                    method: Some(method),
                    ..Default::default()
                },
                ..Default::default()
            });
            let m = mapper
                .map_graph_on(&graph, &Pool::default())
                .expect("grid connected");
            EigensolverRow {
                method: method.to_string(),
                lambda2: m.fiedler.lambda2,
                residual: m.fiedler.residual,
                two_sum: objective::two_sum_cost(&graph, &m.order),
            }
        })
        .collect()
}

/// One graph model's outcome in the connectivity ablation.
#[derive(Debug, Clone, Serialize)]
pub struct ConnectivityRow {
    /// Graph model name.
    pub model: String,
    /// λ₂ of the model's Laplacian.
    pub lambda2: f64,
    /// Worst 1-D distance over Manhattan-distance-1 pairs (the Fig-5a-style
    /// locality metric, evaluated on the *physical* 4-neighbour pairs
    /// regardless of the graph used for mapping).
    pub worst_adjacent: usize,
    /// Mean 1-D distance over the same pairs.
    pub mean_adjacent: f64,
}

/// Compare graph models (Section 4 variations) on a `side × side` grid.
pub fn connectivity_comparison(side: usize) -> Vec<ConnectivityRow> {
    let spec = GridSpec::cube(side, 2);
    let mut rows = Vec::new();

    let mut eval = |model: &str, order: &spectral_lpm::LinearOrder, lambda2: f64| {
        let stats = metrics::pair_distance_stats(&spec, order, 1);
        rows.push(ConnectivityRow {
            model: model.to_string(),
            lambda2,
            worst_adjacent: stats.max,
            mean_adjacent: stats.mean,
        });
    };

    for (name, conn) in [
        ("orthogonal (paper default)", Connectivity::Orthogonal),
        ("full (8-connectivity)", Connectivity::Full),
    ] {
        let mapper = SpectralMapper::new(SpectralConfig {
            connectivity: conn,
            ..Default::default()
        });
        let m = mapper
            .map_grid_on(&spec, &Pool::default())
            .expect("grid connected");
        eval(name, &m.order, m.fiedler.lambda2);
    }

    // Weighted inverse-distance model (Section 4 footnote), radius 2.
    let pts = PointSet::from_grid(&spec);
    let weighted = pts.inverse_distance_graph(2);
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let m = mapper
        .map_graph_on(&weighted, &Pool::default())
        .expect("connected");
    eval("inverse-distance (radius 2)", &m.order, m.fiedler.lambda2);

    rows
}

/// Outcome of the affinity ablation at one affinity weight.
#[derive(Debug, Clone, Serialize)]
pub struct AffinityRow {
    /// Affinity edge weight applied (0 = baseline, no edge).
    pub weight: f64,
    /// 1-D distance between the affinity pair after mapping.
    pub pair_distance: usize,
    /// 2-sum cost over the *base* (unmodified) graph — what the affinity
    /// edge costs everyone else.
    pub base_two_sum: f64,
}

/// Sweep affinity weights for one antipodal pair on a `side × side` grid.
///
/// The pair is the two opposite corners — maximally far apart, so the pull
/// of the affinity edge is clearly visible.
pub fn affinity_sweep(side: usize, weights: &[f64]) -> Vec<AffinityRow> {
    let spec = GridSpec::cube(side, 2);
    let base = spec.graph(Connectivity::Orthogonal);
    let a = spec.index_of(&[0, 0]);
    let b = spec.index_of(&[side - 1, side - 1]);
    let mapper = SpectralMapper::new(SpectralConfig::default());

    let mut rows = Vec::new();
    for &w in weights {
        let m = if w == 0.0 {
            mapper
                .map_graph_on(&base, &Pool::default())
                .expect("connected")
        } else {
            mapper
                .map_graph_with_affinity(
                    &base,
                    &[AffinityEdge::weighted(a, b, w)],
                    &Pool::default(),
                )
                .expect("connected")
        };
        rows.push(AffinityRow {
            weight: w,
            pair_distance: m.order.distance(a, b),
            base_two_sum: objective::two_sum_cost(&base, &m.order),
        });
    }
    rows
}

/// One ordering strategy's quality summary.
#[derive(Debug, Clone, Serialize)]
pub struct OrderingRow {
    /// Strategy name.
    pub strategy: String,
    /// 2-sum arrangement cost on the grid graph.
    pub two_sum: f64,
    /// Arrangement bandwidth (worst edge stretch).
    pub bandwidth: usize,
    /// Mean adjacent-pair 1-D distance.
    pub mean_adjacent: f64,
}

/// Compare ordering strategies built on the same spectral machinery:
/// direct Fiedler order (the paper), recursive spectral bisection, and the
/// multi-vector order (v₂ then v₃ tie-break), plus the Hilbert curve as the
/// fractal yardstick.
pub fn ordering_comparison(side: usize) -> Vec<OrderingRow> {
    use spectral_lpm::recursive::{multi_vector_order_on, rsb_order_on, RsbOptions};
    let spec = GridSpec::cube(side, 2);
    let graph = spec.graph(Connectivity::Orthogonal);

    let direct = SpectralMapper::new(SpectralConfig::default())
        .map_graph_on(&graph, &Pool::default())
        .expect("connected")
        .order;
    let rsb = rsb_order_on(&graph, &RsbOptions::default(), &Pool::default()).expect("connected");
    let multi = multi_vector_order_on(
        &graph,
        3,
        1e-8,
        &SpectralConfig::default(),
        &Pool::default(),
    )
    .expect("connected");
    let hilbert = crate::mappings::curve_order(
        &spec,
        &slpm_sfc::HilbertCurve::from_side(2, side as u64).expect("power of two"),
    );

    [
        ("direct Fiedler (paper)", direct),
        ("recursive spectral bisection", rsb),
        ("multi-vector (v2, v3, v4)", multi),
        ("Hilbert (fractal yardstick)", hilbert),
    ]
    .into_iter()
    .map(|(name, order)| {
        let stats = metrics::pair_distance_stats(&spec, &order, 1);
        OrderingRow {
            strategy: name.to_string(),
            two_sum: objective::two_sum_cost(&graph, &order),
            bandwidth: objective::bandwidth(&graph, &order),
            mean_adjacent: stats.mean,
        }
    })
    .collect()
}

/// Run all four studies at their reference sizes (16×16 for the
/// eigensolver and ordering studies, 8×8 for connectivity and affinity)
/// and render one titled text table per study.
pub fn render() -> String {
    use crate::table::TextTable;
    let mut eigen = TextTable::new(["method", "lambda2", "residual", "2-sum cost"]);
    for r in eigensolver_agreement(20) {
        eigen.push_row([
            r.method,
            format!("{:.8}", r.lambda2),
            format!("{:.2e}", r.residual),
            format!("{:.1}", r.two_sum),
        ]);
    }
    let mut conn = TextTable::new(["graph model", "lambda2", "worst adj.", "mean adj."]);
    for r in connectivity_comparison(8) {
        conn.push_row([
            r.model,
            format!("{:.6}", r.lambda2),
            r.worst_adjacent.to_string(),
            format!("{:.2}", r.mean_adjacent),
        ]);
    }
    let mut affinity = TextTable::new(["affinity weight", "pair 1-D distance", "base 2-sum"]);
    for r in affinity_sweep(8, &[0.0, 0.5, 1.0, 2.0, 4.0, 8.0]) {
        affinity.push_row([
            format!("{:.1}", r.weight),
            r.pair_distance.to_string(),
            format!("{:.1}", r.base_two_sum),
        ]);
    }
    let mut ordering = TextTable::new(["ordering strategy", "2-sum", "bandwidth", "mean adj."]);
    for r in ordering_comparison(16) {
        ordering.push_row([
            r.strategy,
            format!("{:.0}", r.two_sum),
            r.bandwidth.to_string(),
            format!("{:.2}", r.mean_adjacent),
        ]);
    }
    [
        ("eigensolver strategies (20x20 grid)", eigen),
        ("graph connectivity (8x8 grid)", conn),
        ("affinity edge weight (8x8 grid, corner pair)", affinity),
        ("ordering strategies (16x16 grid)", ordering),
    ]
    .iter()
    .map(|(title, table)| format!("== Ablation: {title} ==\n{}", table.render()))
    .collect::<Vec<_>>()
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_comparison_has_four_rows() {
        let rows = ordering_comparison(8);
        assert_eq!(rows.len(), 4);
        // The direct Fiedler order minimises the 2-sum among the spectral
        // strategies (it is the relaxation optimum made integral).
        let two_sum = |name: &str| {
            rows.iter()
                .find(|r| r.strategy.starts_with(name))
                .unwrap()
                .two_sum
        };
        assert!(two_sum("direct") <= two_sum("recursive"));
        for r in &rows {
            assert!(r.bandwidth >= 1);
            assert!(r.mean_adjacent >= 1.0);
        }
    }

    #[test]
    fn eigensolvers_agree_on_lambda2() {
        // 17×17 = 289 vertices: above the size multilevel solves densely.
        let rows = eigensolver_agreement(17);
        assert_eq!(rows.len(), 2);
        let reference = rows.iter().find(|r| r.method == "dense").unwrap().lambda2;
        for r in &rows {
            assert!(
                (r.lambda2 - reference).abs() < 1e-6,
                "{}: {} vs {}",
                r.method,
                r.lambda2,
                reference
            );
            assert!(r.residual < 1e-6, "{}: residual {}", r.method, r.residual);
        }
    }

    #[test]
    fn connectivity_rows_cover_three_models() {
        let rows = connectivity_comparison(4);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.lambda2 > 0.0, "{}", r.model);
            assert!(r.worst_adjacent >= 1);
            assert!(r.mean_adjacent >= 1.0);
        }
    }

    #[test]
    fn affinity_monotonically_pulls_pair_together() {
        let rows = affinity_sweep(5, &[0.0, 1.0, 8.0]);
        assert_eq!(rows.len(), 3);
        // Strong affinity brings the corners closer than no affinity.
        assert!(
            rows[2].pair_distance < rows[0].pair_distance,
            "w=8 distance {} not below baseline {}",
            rows[2].pair_distance,
            rows[0].pair_distance
        );
        // And costs the base arrangement something.
        assert!(rows[2].base_two_sum >= rows[0].base_two_sum - 1e-9);
    }
}
