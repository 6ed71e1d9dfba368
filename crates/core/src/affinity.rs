//! Access-affinity edges — the paper's Section 4 extensibility hook.
//!
//! > "Assume that we need to map points in the multi-dimensional space into
//! > disk pages, and we know (from experience) that whenever point p is
//! > accessed, there is a very high probability that point q will be
//! > accessed soon afterwards. To force mapping p and q into nearby
//! > locations […] we add an edge (p, q) to the graph G."
//!
//! An [`AffinityEdge`] is exactly that: a vertex pair plus a weight
//! expressing how strongly the pair should be co-located. Applying a set of
//! affinity edges to a base neighbourhood graph yields the extended graph
//! the mapper diagonalises; the optimality proof is unaffected because it
//! holds for *whatever* graph is chosen.

use slpm_graph::{Graph, GraphError};

/// A correlation-derived edge to superimpose on the neighbourhood graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffinityEdge {
    /// First vertex (point index).
    pub u: usize,
    /// Second vertex (point index).
    pub v: usize,
    /// Co-location priority; 1.0 makes the pair look like grid neighbours,
    /// larger values pull them closer than grid neighbours.
    pub weight: f64,
}

impl AffinityEdge {
    /// Unit-weight affinity edge — the paper's "treat as Manhattan
    /// distance 1" semantics.
    pub fn unit(u: usize, v: usize) -> Self {
        AffinityEdge { u, v, weight: 1.0 }
    }

    /// Weighted affinity edge.
    pub fn weighted(u: usize, v: usize, weight: f64) -> Self {
        AffinityEdge { u, v, weight }
    }
}

/// Superimpose affinity edges on a copy of `base`. Weights add to any
/// existing edge weight (repeating an observation strengthens the tie).
pub fn apply_affinity(base: &Graph, edges: &[AffinityEdge]) -> Result<Graph, GraphError> {
    let extra = edges.iter().map(|e| (e.u, e.v, e.weight));
    Graph::from_edges(base.num_vertices(), base.edges().chain(extra))
}

/// Derive affinity edges from an access trace: every consecutive pair of
/// accesses within `window` steps contributes weight `1/distance-in-trace`
/// to that pair's affinity. This is the "from experience" statistics
/// gathering the paper alludes to, made concrete for the examples and
/// benchmarks.
pub fn affinity_from_trace(
    num_vertices: usize,
    trace: &[usize],
    window: usize,
) -> Vec<AffinityEdge> {
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (i, &a) in trace.iter().enumerate() {
        for (gap, &b) in trace.iter().enumerate().skip(i + 1).take(window) {
            let d = gap - i;
            if a == b || a >= num_vertices || b >= num_vertices {
                continue;
            }
            let key = (a.min(b), a.max(b));
            *acc.entry(key).or_insert(0.0) += 1.0 / d as f64;
        }
    }
    acc.into_iter()
        .map(|((u, v), weight)| AffinityEdge { u, v, weight })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (i - 1, i, 1.0))).unwrap()
    }

    #[test]
    fn apply_affinity_adds_edges() {
        let base = path(4);
        let g = apply_affinity(&base, &[AffinityEdge::unit(0, 3)]).unwrap();
        assert!(g.has_edge(0, 3));
        assert_eq!(g.num_edges(), base.num_edges() + 1);
        // Base graph untouched.
        assert!(!base.has_edge(0, 3));
    }

    #[test]
    fn affinity_strengthens_existing_edge() {
        let base = path(3);
        let g = apply_affinity(&base, &[AffinityEdge::weighted(0, 1, 2.5)]).unwrap();
        assert_eq!(g.edge_weight(0, 1), 3.5);
    }

    #[test]
    fn apply_affinity_validates() {
        let base = path(3);
        assert!(apply_affinity(&base, &[AffinityEdge::unit(0, 9)]).is_err());
        assert!(apply_affinity(&base, &[AffinityEdge::weighted(0, 1, -1.0)]).is_err());
    }

    #[test]
    fn overflowing_affinity_weights_are_typed_errors() {
        let base = path(3);
        let huge = |u, v| AffinityEdge::weighted(u, v, 1e308);
        // Summed onto one pair, and meeting at one vertex.
        for edges in [[huge(0, 1), huge(0, 1)], [huge(0, 1), huge(1, 2)]] {
            assert!(matches!(
                apply_affinity(&base, &edges),
                Err(GraphError::BadWeight { .. })
            ));
        }
    }

    #[test]
    fn trace_derivation_counts_cooccurrence() {
        // Trace 0,1,0,1 with window 1: pairs (0,1) three times at gap 1.
        let edges = affinity_from_trace(2, &[0, 1, 0, 1], 1);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].u, edges[0].v), (0, 1));
        assert!((edges[0].weight - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_window_weights_decay() {
        // Trace 0,2,1 with window 2: (0,2) at gap 1 → 1.0; (0,1) at gap 2 →
        // 0.5; (2,1) at gap 1 → 1.0.
        let edges = affinity_from_trace(3, &[0, 2, 1], 2);
        let w = |u: usize, v: usize| {
            edges
                .iter()
                .find(|e| (e.u, e.v) == (u.min(v), u.max(v)))
                .map(|e| e.weight)
        };
        assert_eq!(w(0, 2), Some(1.0));
        assert_eq!(w(0, 1), Some(0.5));
        assert_eq!(w(1, 2), Some(1.0));
    }

    #[test]
    fn trace_ignores_self_and_out_of_range() {
        let edges = affinity_from_trace(2, &[0, 0, 7, 1], 3);
        // Only the (0,1) pairs survive.
        assert!(edges.iter().all(|e| (e.u, e.v) == (0, 1)));
    }
}
