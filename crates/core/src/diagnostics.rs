//! One-stop quality report for a linear order on a graph.
//!
//! Collects every arrangement metric the repository uses — the relaxation
//! bound λ₂, the 2-sum, the linear arrangement cost, the bandwidth, and
//! adjacent-pair statistics — into a single struct with a renderer, so the
//! CLI, the examples and ad-hoc analysis all print the same report.

use crate::mapper::{MappingError, SpectralConfig};
use crate::objective;
use crate::order::LinearOrder;
use slpm_graph::Graph;
use slpm_linalg::fiedler::fiedler_pair_on;
use slpm_linalg::Pool;

/// Quality metrics of one order on one graph.
#[derive(Debug, Clone)]
pub struct OrderReport {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// λ₂ of the graph (the lower bound every order's σ must respect).
    pub lambda2: f64,
    /// σ(G, normalized ranks) — the relaxed 2-sum of this order.
    pub sigma: f64,
    /// Integer 2-sum cost `Σ w (π_i − π_j)²`.
    pub two_sum: f64,
    /// Linear arrangement cost `Σ w |π_i − π_j|` (minLA objective).
    pub linear_arrangement: f64,
    /// Bandwidth `max |π_i − π_j|` over edges.
    pub bandwidth: usize,
    /// Mean edge stretch `mean |π_i − π_j|`.
    pub mean_stretch: f64,
}

impl OrderReport {
    /// Compute the report. Requires a connected graph. `lambda2` is λ₂ of
    /// `g`'s Laplacian when the caller already has it (e.g. from the
    /// [`crate::SpectralMapping`] that built `order` on the same graph);
    /// `None` solves it on `pool`.
    pub fn compute(
        g: &Graph,
        order: &LinearOrder,
        lambda2: Option<f64>,
        config: &SpectralConfig,
        pool: &Pool<'_>,
    ) -> Result<OrderReport, MappingError> {
        assert_eq!(g.num_vertices(), order.len(), "graph/order size mismatch");
        g.require_connected()?;
        let lambda2 = match lambda2 {
            Some(lambda2) => lambda2,
            None => fiedler_pair_on(&g.laplacian(), &config.fiedler, pool)?.lambda2,
        };
        let la = objective::linear_arrangement_cost(g, order);
        let edges = g.num_edges().max(1);
        Ok(OrderReport {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            lambda2,
            sigma: objective::order_quadratic_form(g, order),
            two_sum: objective::two_sum_cost(g, order),
            linear_arrangement: la,
            bandwidth: objective::bandwidth(g, order),
            mean_stretch: la / edges as f64,
        })
    }

    /// σ / λ₂ ≥ 1: how far the integer order sits above the relaxation
    /// optimum (1 = the relaxation bound itself).
    pub fn optimality_gap(&self) -> f64 {
        self.sigma / self.lambda2
    }

    /// Render for terminal output.
    pub fn render(&self, title: &str) -> String {
        format!(
            "{title}: n={} m={}\n  lambda2={:.6}  sigma={:.6}  gap={:.2}x\n  \
             2-sum={:.1}  minLA={:.1}  bandwidth={}  mean stretch={:.2}\n",
            self.num_vertices,
            self.num_edges,
            self.lambda2,
            self.sigma,
            self.optimality_gap(),
            self.two_sum,
            self.linear_arrangement,
            self.bandwidth,
            self.mean_stretch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::SpectralMapper;
    use slpm_graph::grid::{Connectivity, GridSpec};

    fn grid_and_graph() -> (GridSpec, Graph) {
        let spec = GridSpec::cube(4, 2);
        let g = spec.graph(Connectivity::Orthogonal);
        (spec, g)
    }

    #[test]
    fn report_respects_theorem_bound() {
        let (_, g) = grid_and_graph();
        let mapping = SpectralMapper::new(SpectralConfig::default())
            .map_graph_on(&g, &Pool::default())
            .unwrap();
        let report = OrderReport::compute(
            &g,
            &mapping.order,
            None,
            &SpectralConfig::default(),
            &Pool::default(),
        )
        .unwrap();
        // The mapping's own λ₂ (same 4-connected Laplacian) spares the
        // second solve and agrees with it.
        let reused = OrderReport::compute(
            &g,
            &mapping.order,
            Some(mapping.fiedler.lambda2),
            &SpectralConfig::default(),
            &Pool::default(),
        )
        .unwrap();
        assert!((reused.lambda2 - report.lambda2).abs() < 1e-9);
        assert_eq!(reused.two_sum, report.two_sum);
        assert!(report.sigma >= report.lambda2 - 1e-9);
        assert!(report.optimality_gap() >= 1.0 - 1e-9);
        assert_eq!(report.num_vertices, 16);
        assert_eq!(report.num_edges, 24);
        assert!(report.bandwidth >= 1);
        assert!(report.mean_stretch >= 1.0);
    }

    #[test]
    fn identity_on_path_is_perfect() {
        let mut g = Graph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1).unwrap();
        }
        let report = OrderReport::compute(
            &g,
            &LinearOrder::identity(6),
            None,
            &SpectralConfig::default(),
            &Pool::default(),
        )
        .unwrap();
        assert_eq!(report.bandwidth, 1);
        assert_eq!(report.two_sum, 5.0);
        assert_eq!(report.linear_arrangement, 5.0);
        assert_eq!(report.mean_stretch, 1.0);
    }

    #[test]
    fn spectral_gap_smaller_than_scramble_gap() {
        let (_, g) = grid_and_graph();
        let spectral = SpectralMapper::new(SpectralConfig::default())
            .map_graph_on(&g, &Pool::default())
            .unwrap()
            .order;
        let scramble =
            LinearOrder::from_ranks((0..16).map(|v: usize| (v * 5) % 16).collect()).unwrap();
        let rs = OrderReport::compute(
            &g,
            &spectral,
            None,
            &SpectralConfig::default(),
            &Pool::default(),
        )
        .unwrap();
        let rb = OrderReport::compute(
            &g,
            &scramble,
            None,
            &SpectralConfig::default(),
            &Pool::default(),
        )
        .unwrap();
        assert!(rs.optimality_gap() < rb.optimality_gap());
    }

    #[test]
    fn render_contains_metrics() {
        let (_, g) = grid_and_graph();
        let report = OrderReport::compute(
            &g,
            &LinearOrder::identity(16),
            None,
            &SpectralConfig::default(),
            &Pool::default(),
        )
        .unwrap();
        let s = report.render("sweep");
        assert!(s.contains("lambda2"));
        assert!(s.contains("bandwidth"));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let (_, g) = grid_and_graph();
        let _ = OrderReport::compute(
            &g,
            &LinearOrder::identity(4),
            None,
            &SpectralConfig::default(),
            &Pool::default(),
        );
    }
}
