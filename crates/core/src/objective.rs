//! Objective functions from the paper's optimality theorems.
//!
//! Theorem 1 states that a vector `x` provides the globally optimal
//! locality-preserving mapping when it minimises
//!
//! ```text
//! σ(G, x) = Σ_{(i,j) ∈ E} w_ij (x_i − x_j)²
//! ```
//!
//! subject to `Σ x_i² = 1` and `Σ x_i = 0`; Theorems 2–3 identify the
//! minimiser with the Fiedler pair: `min σ = λ₂`, attained at `v₂`.
//!
//! This module computes σ for arbitrary real vectors *and* for integer
//! linear orders, so tests and benchmarks can check the chain
//!
//! ```text
//! λ₂  =  σ(G, v₂)  ≤  σ(G, normalize(π))   for every order π,
//! ```
//!
//! i.e. the spectral order's relaxation is below every discrete
//! arrangement's normalised cost — the precise sense of "optimal" the paper
//! proves.

use crate::order::LinearOrder;
use slpm_graph::Graph;

/// The quadratic form `σ(G, x) = Σ_{(i,j)∈E} w_ij (x_i − x_j)²`
/// (equivalently `xᵀ L x`).
///
/// # Panics
/// Panics if `x.len() != g.num_vertices()` — callers construct both from
/// the same vertex set.
pub fn quadratic_form(g: &Graph, x: &[f64]) -> f64 {
    assert_eq!(x.len(), g.num_vertices(), "vector/graph dimension mismatch");
    let mut acc = 0.0;
    for (u, v, w) in g.edges() {
        let d = x[u] - x[v];
        acc += w * d * d;
    }
    acc
}

/// Centre and scale an arbitrary key vector to the theorem's feasible set
/// (`Σx = 0`, `Σx² = 1`). Returns `None` when the input is constant (no
/// direction information).
pub fn normalize_to_feasible(x: &[f64]) -> Option<Vec<f64>> {
    let n = x.len();
    if n == 0 {
        return None;
    }
    // xtask:allow(float-reduce): serial left-to-right fold over one slice
    let mean = x.iter().sum::<f64>() / n as f64;
    let mut y: Vec<f64> = x.iter().map(|&v| v - mean).collect();
    // xtask:allow(float-reduce): serial left-to-right fold over one slice
    let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm == 0.0 {
        return None;
    }
    for v in &mut y {
        *v /= norm;
    }
    Some(y)
}

/// σ evaluated on an integer linear order, after projecting the positions
/// `0, 1, …, n−1` onto the feasible set. This is the natural way to compare
/// a discrete arrangement against the λ₂ lower bound.
pub fn order_quadratic_form(g: &Graph, order: &LinearOrder) -> f64 {
    let pos: Vec<f64> = order.ranks().iter().map(|&r| r as f64).collect();
    let feasible =
        normalize_to_feasible(&pos).expect("orders with ≥ 2 vertices have non-constant positions");
    quadratic_form(g, &feasible)
}

/// The un-normalised quadratic arrangement cost
/// `Σ_{(i,j)∈E} w_ij (π_i − π_j)²` — the "minimum-2-sum" objective from the
/// linear-arrangement literature the paper cites (Juvan & Mohar 1992).
pub fn two_sum_cost(g: &Graph, order: &LinearOrder) -> f64 {
    let mut acc = 0.0;
    for (u, v, w) in g.edges() {
        let d = order.distance(u, v) as f64;
        acc += w * d * d;
    }
    acc
}

/// The linear arrangement cost `Σ_{(i,j)∈E} w_ij |π_i − π_j|` (minLA).
/// Reported alongside the 2-sum in benchmarks; the spectral order is a
/// good heuristic for it but provably optimal only for the 2-sum
/// relaxation.
pub fn linear_arrangement_cost(g: &Graph, order: &LinearOrder) -> f64 {
    let mut acc = 0.0;
    for (u, v, w) in g.edges() {
        acc += w * order.distance(u, v) as f64;
    }
    acc
}

/// Maximum stretch `max_{(i,j)∈E} |π_i − π_j|` — bandwidth of the
/// arrangement; the per-edge worst case that fractal boundary effects blow
/// up (Figure 1's 14/9/5 values are exactly edge stretches).
pub fn bandwidth(g: &Graph, order: &LinearOrder) -> usize {
    g.edges()
        .map(|(u, v, _)| order.distance(u, v))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_graph::grid::{Connectivity, GridSpec};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (i - 1, i, 1.0))).unwrap()
    }

    #[test]
    fn quadratic_form_is_laplacian_form() {
        let g = path(4);
        let x = [1.0, 2.0, 4.0, 8.0];
        // Direct: (1−2)² + (2−4)² + (4−8)² = 1 + 4 + 16 = 21.
        assert_eq!(quadratic_form(&g, &x), 21.0);
        // Agrees with xᵀLx.
        let lx = g.laplacian().matvec(&x).unwrap();
        let quad: f64 = x.iter().zip(lx.iter()).map(|(a, b)| a * b).sum();
        assert!((quad - 21.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_edges_scale_the_form() {
        let g = Graph::from_edges(2, [(0, 1, 3.0)]).unwrap();
        assert_eq!(quadratic_form(&g, &[0.0, 2.0]), 12.0);
    }

    #[test]
    fn normalize_to_feasible_properties() {
        let y = normalize_to_feasible(&[1.0, 2.0, 3.0]).unwrap();
        let sum: f64 = y.iter().sum();
        let norm2: f64 = y.iter().map(|v| v * v).sum();
        assert!(sum.abs() < 1e-12);
        assert!((norm2 - 1.0).abs() < 1e-12);
        assert!(normalize_to_feasible(&[5.0, 5.0]).is_none());
        assert!(normalize_to_feasible(&[]).is_none());
    }

    #[test]
    fn identity_order_on_path_is_optimal_2sum() {
        // On a path, the identity arrangement has every edge at distance 1:
        // 2-sum = n−1, which is the minimum possible.
        let g = path(5);
        let id = LinearOrder::identity(5);
        assert_eq!(two_sum_cost(&g, &id), 4.0);
        assert_eq!(linear_arrangement_cost(&g, &id), 4.0);
        assert_eq!(bandwidth(&g, &id), 1);
        // A bad order costs strictly more.
        let bad = LinearOrder::from_ranks(vec![0, 4, 1, 3, 2]).unwrap();
        assert!(two_sum_cost(&g, &bad) > 4.0);
    }

    #[test]
    fn lambda2_lower_bounds_every_order() {
        // Theorems 1–3: λ₂ ≤ σ(G, normalized ranks of π) for every π.
        let spec = GridSpec::new(&[3, 3]);
        let g = spec.graph(Connectivity::Orthogonal);
        let lambda2 = 1.0; // known for the 3×3 grid (paper Figure 3d)
                           // Try several arbitrary orders including identity and a scramble.
        let orders = [
            LinearOrder::identity(9),
            LinearOrder::from_ranks(vec![8, 7, 6, 5, 4, 3, 2, 1, 0]).unwrap(),
            LinearOrder::from_ranks(vec![4, 0, 8, 2, 6, 1, 7, 3, 5]).unwrap(),
        ];
        for o in &orders {
            let sigma = order_quadratic_form(&g, o);
            assert!(
                sigma >= lambda2 - 1e-9,
                "order {:?} has σ = {sigma} < λ₂",
                o.ranks()
            );
        }
    }

    #[test]
    fn bandwidth_of_empty_graph_is_zero() {
        let g = Graph::from_edges(3, []).unwrap();
        assert_eq!(bandwidth(&g, &LinearOrder::identity(3)), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn quadratic_form_length_checked() {
        quadratic_form(&path(3), &[1.0]);
    }
}
