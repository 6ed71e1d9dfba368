//! Spectral graph bisection — the optimality result the paper leans on.
//!
//! The paper cites Chan, Ciarlet & Szeto's proof that the **median cut of
//! the Fiedler vector** is the optimal spectral bisection. This module
//! implements that cut along with baseline bisections (coordinate cut,
//! rank interleaving) and the cut-weight metric, so the citation's content
//! is reproducible too — and because the mapper already produces Fiedler
//! vectors, it comes almost for free.

use crate::mapper::{MappingError, SpectralConfig};
use slpm_graph::Graph;
use slpm_linalg::fiedler::fiedler_pair_on;
use slpm_linalg::Pool;

/// A two-way vertex partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bisection {
    /// `side[v]` is `false` for part A, `true` for part B.
    pub side: Vec<bool>,
}

impl Bisection {
    /// Sizes of the two parts `(|A|, |B|)`.
    pub fn sizes(&self) -> (usize, usize) {
        let b = self.side.iter().filter(|&&s| s).count();
        (self.side.len() - b, b)
    }

    /// Total weight of edges crossing the cut.
    pub fn cut_weight(&self, g: &Graph) -> f64 {
        g.edges()
            .filter(|&(u, v, _)| self.side[u] != self.side[v])
            .map(|(_, _, w)| w)
            .sum()
    }

    /// |size(A) − size(B)| — 0 or 1 for a proper bisection.
    pub fn imbalance(&self) -> usize {
        let (a, b) = self.sizes();
        a.abs_diff(b)
    }
}

/// Median-cut spectral bisection (Chan–Ciarlet–Szeto): sort by Fiedler
/// component, put the lower half in part A. The eigensolve runs on `pool`.
pub fn spectral_bisection(
    g: &Graph,
    config: &SpectralConfig,
    pool: &Pool<'_>,
) -> Result<Bisection, MappingError> {
    g.require_connected()?;
    let pair = fiedler_pair_on(
        &g.laplacian(),
        &config.resolved_fiedler(g.num_vertices()),
        pool,
    )?;
    let order = crate::order::LinearOrder::from_keys(&pair.vector).expect("finite eigenvector");
    let n = g.num_vertices();
    let half = n / 2;
    let mut side = vec![false; n];
    for v in 0..n {
        side[v] = order.rank_of(v) >= half;
    }
    Ok(Bisection { side })
}

/// Baseline: split by any precomputed linear order's median (e.g. a
/// space-filling curve order).
pub fn order_bisection(order: &crate::order::LinearOrder) -> Bisection {
    let n = order.len();
    let half = n / 2;
    let side = (0..n).map(|v| order.rank_of(v) >= half).collect();
    Bisection { side }
}

/// Baseline: alternate vertices by id parity (a deliberately bad,
/// locality-blind cut for comparison).
pub fn parity_bisection(n: usize) -> Bisection {
    Bisection {
        side: (0..n).map(|v| v % 2 == 1).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_graph::grid::{Connectivity, GridSpec};

    #[test]
    fn sizes_and_imbalance() {
        let b = Bisection {
            side: vec![false, false, true],
        };
        assert_eq!(b.sizes(), (2, 1));
        assert_eq!(b.imbalance(), 1);
    }

    #[test]
    fn spectral_bisection_of_path_cuts_one_edge() {
        // The optimal bisection of a path cuts exactly one edge.
        let mut g = Graph::new(10);
        for i in 0..9 {
            g.add_edge(i, i + 1).unwrap();
        }
        let b = spectral_bisection(&g, &SpectralConfig::default(), &Pool::default()).unwrap();
        assert_eq!(b.imbalance(), 0);
        assert_eq!(b.cut_weight(&g), 1.0);
        // And it is the contiguous half split.
        let first_half: Vec<bool> = b.side[..5].to_vec();
        assert!(first_half.iter().all(|&s| s == first_half[0]));
    }

    #[test]
    fn spectral_bisection_of_grid_is_near_optimal() {
        // Optimal bisection of an n×n grid cuts n edges (a straight line).
        let spec = GridSpec::cube(8, 2);
        let g = spec.graph(Connectivity::Orthogonal);
        let b = spectral_bisection(&g, &SpectralConfig::default(), &Pool::default()).unwrap();
        assert_eq!(b.imbalance(), 0);
        let cut = b.cut_weight(&g);
        assert!(
            (8.0..=12.0).contains(&cut),
            "spectral cut {cut} not near the optimal 8"
        );
        // Far better than the parity cut (which cuts almost everything).
        let parity = parity_bisection(64).cut_weight(&g);
        assert!(cut < parity / 4.0, "cut {cut} vs parity {parity}");
    }

    #[test]
    fn order_bisection_from_hilbert() {
        use slpm_graph::grid::GridSpec;
        let spec = GridSpec::cube(4, 2);
        let g = spec.graph(Connectivity::Orthogonal);
        // Identity (sweep) order: median cut = top half vs bottom half,
        // cutting exactly one grid row boundary = 4 edges.
        let b = order_bisection(&crate::order::LinearOrder::identity(16));
        assert_eq!(b.imbalance(), 0);
        assert_eq!(b.cut_weight(&g), 4.0);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::new(4);
        assert!(spectral_bisection(&g, &SpectralConfig::default(), &Pool::default()).is_err());
    }

    #[test]
    fn odd_sized_graph_imbalance_one() {
        let mut g = Graph::new(5);
        for i in 0..4 {
            g.add_edge(i, i + 1).unwrap();
        }
        let b = spectral_bisection(&g, &SpectralConfig::default(), &Pool::default()).unwrap();
        assert_eq!(b.imbalance(), 1);
    }
}
