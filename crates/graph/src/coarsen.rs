//! Heavy-edge graph coarsening (the multilevel solver's graph side).
//!
//! Section 4 of the paper extends Spectral LPM to arbitrary, sparse and
//! *weighted* point sets; the multilevel Fiedler solver exploits exactly
//! that generality by repeatedly contracting the neighbourhood graph into a
//! smaller **weighted** graph whose Laplacian is the Galerkin product
//! `PᵀLP` of the fine Laplacian. This module exposes that contraction at
//! the [`Graph`] level: [`coarsen`] performs one heavy-edge-matching step,
//! [`coarsen_to_size`] builds the whole hierarchy.
//!
//! The matching itself lives in [`slpm_linalg::multilevel`] (the solver
//! needs it on bare CSR Laplacians); this wrapper keeps a single
//! implementation and translates between the graph and matrix views.
//!
//! ```
//! use slpm_graph::grid::{Connectivity, GridSpec};
//! use slpm_graph::coarsen::coarsen;
//! use slpm_linalg::Pool;
//!
//! let fine = GridSpec::new(&[8, 8]).graph(Connectivity::Orthogonal);
//! let step = coarsen(&fine, &Pool::default()).unwrap();
//! // Heavy-edge matching roughly halves a grid.
//! assert!(step.coarse.num_vertices() <= 40);
//! assert_eq!(step.parent.len(), 64);
//! ```

use crate::graph::{Graph, GraphError};
use slpm_linalg::multilevel;
use slpm_linalg::Pool;

/// One coarsening step: the contracted weighted graph plus the
/// fine-vertex → coarse-vertex map defining the prolongation.
#[derive(Debug, Clone)]
pub struct GraphCoarsening {
    /// The contracted weighted graph (parallel edges merged by summing
    /// weights, matched-pair internal edges dropped).
    pub coarse: Graph,
    /// `parent[v]` is the coarse vertex fine vertex `v` was merged into.
    pub parent: Vec<usize>,
}

impl GraphCoarsening {
    /// Interpolate a coarse-vertex vector back to the fine vertices
    /// (piecewise-constant prolongation).
    pub fn prolong(&self, coarse_values: &[f64]) -> Vec<f64> {
        self.parent.iter().map(|&p| coarse_values[p]).collect()
    }
}

/// Contract `graph` one level by heavy-edge matching.
///
/// Edges are matched greedily in order of decreasing weight
/// (deterministic); unmatched vertices survive as singletons. The coarse
/// graph's Laplacian equals `PᵀLP` for the returned prolongation map, so
/// spectral quantities computed on the coarse graph are Rayleigh–Ritz
/// restrictions of the fine ones.
///
/// The edge-rating and Galerkin remap passes run row-chunked on `pool`
/// (see [`multilevel::coarsen_laplacian`]); the result is identical for
/// every thread count.
pub fn coarsen(graph: &Graph, pool: &Pool) -> Result<GraphCoarsening, GraphError> {
    let step = multilevel::coarsen_laplacian(&graph.laplacian(), pool)
        .expect("a Graph's Laplacian is square and finite by construction");
    let nc = step.coarse_len();
    let mut coarse = Graph::new(nc);
    for i in 0..nc {
        for (j, v) in step.coarse.row_iter(i) {
            if j > i && -v > 0.0 {
                coarse.add_weighted_edge(i, j, -v)?;
            }
        }
    }
    Ok(GraphCoarsening {
        coarse,
        parent: step.parent,
    })
}

/// Minimum per-level shrink factor before a hierarchy build gives up,
/// matching the multilevel solver's stall threshold.
const MIN_SHRINK: f64 = 0.95;

/// Coarsen repeatedly until at most `target` vertices remain (or matching
/// stalls, shrinking a level by less than 5% — stars and cliques defeat
/// edge matching). Returns the hierarchy from finest to coarsest; empty
/// when `graph` is already small enough. Each step runs on `pool`.
///
/// This is a standalone Graph-level utility (for building hierarchies to
/// inspect, visualise, or feed other multilevel algorithms); the Fiedler
/// solver builds its own hierarchy on CSR Laplacians internally and
/// additionally bounds levels by its block width, so the two need not
/// produce identical level sets for the same graph.
pub fn coarsen_to_size(
    graph: &Graph,
    target: usize,
    pool: &Pool,
) -> Result<Vec<GraphCoarsening>, GraphError> {
    let mut levels: Vec<GraphCoarsening> = Vec::new();
    let mut current = graph.num_vertices();
    while current > target.max(1) {
        let step = match levels.last() {
            None => coarsen(graph, pool)?,
            Some(prev) => coarsen(&prev.coarse, pool)?,
        };
        let next = step.coarse.num_vertices();
        if next >= (current as f64 * MIN_SHRINK) as usize {
            break; // matching-resistant (or edgeless) graph: stalled
        }
        levels.push(step);
        current = next;
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Connectivity, GridSpec};

    #[test]
    fn grid_roughly_halves() {
        let g = GridSpec::new(&[10, 10]).graph(Connectivity::Orthogonal);
        let step = coarsen(&g, &Pool::default()).unwrap();
        assert!(step.coarse.num_vertices() >= 50);
        assert!(step.coarse.num_vertices() <= 60);
        assert_eq!(step.parent.len(), 100);
        assert!(step.parent.iter().all(|&p| p < step.coarse.num_vertices()));
    }

    #[test]
    fn coarse_laplacian_is_galerkin_product() {
        let g = GridSpec::new(&[6, 5]).graph(Connectivity::Full);
        let step = coarsen(&g, &Pool::default()).unwrap();
        let fine_lap = g.laplacian();
        let nc = step.coarse.num_vertices();
        let x: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.7).sin()).collect();
        let lpx = fine_lap.matvec(&step.prolong(&x)).unwrap();
        let mut restricted = vec![0.0; nc];
        for (v, &p) in step.parent.iter().enumerate() {
            restricted[p] += lpx[v];
        }
        let direct = step.coarse.laplacian().matvec(&x).unwrap();
        for i in 0..nc {
            assert!((restricted[i] - direct[i]).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn weights_accumulate_on_contraction() {
        // Square 0-1-2-3-0: contracting one pair merges the two edges that
        // connected the pair to a common neighbour... on a 4-cycle every
        // vertex pair is matched, so the coarse graph is 2 vertices joined
        // by the two cross edges (weight 2).
        let mut g = Graph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(3, 0).unwrap();
        let step = coarsen(&g, &Pool::default()).unwrap();
        assert_eq!(step.coarse.num_vertices(), 2);
        assert_eq!(step.coarse.edge_weight(0, 1), 2.0);
    }

    #[test]
    fn connected_graph_stays_connected() {
        let g = GridSpec::new(&[9, 7]).graph(Connectivity::Orthogonal);
        let step = coarsen(&g, &Pool::default()).unwrap();
        step.coarse.require_connected().unwrap();
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = GridSpec::new(&[16, 16]).graph(Connectivity::Orthogonal);
        let levels = coarsen_to_size(&g, 20, &Pool::default()).unwrap();
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().coarse;
        assert!(coarsest.num_vertices() <= 20);
        coarsest.require_connected().unwrap();
        // Already-small graphs need no levels.
        assert!(coarsen_to_size(&g, 256, &Pool::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn edgeless_graph_stops_without_progress() {
        let g = Graph::new(5);
        let step = coarsen(&g, &Pool::default()).unwrap();
        assert_eq!(step.coarse.num_vertices(), 5); // all singletons
        assert!(coarsen_to_size(&g, 2, &Pool::default()).unwrap().is_empty());
    }

    #[test]
    fn prolong_is_piecewise_constant() {
        let g = GridSpec::new(&[4, 4]).graph(Connectivity::Orthogonal);
        let step = coarsen(&g, &Pool::default()).unwrap();
        let x: Vec<f64> = (0..step.coarse.num_vertices()).map(|i| i as f64).collect();
        let fine = step.prolong(&x);
        for (v, &p) in step.parent.iter().enumerate() {
            assert_eq!(fine[v], x[p]);
        }
    }
}
