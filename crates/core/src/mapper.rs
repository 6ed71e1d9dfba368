//! The Spectral LPM mapper — paper Figure 2, steps 1–6.

use crate::affinity::{apply_affinity, AffinityEdge};
use crate::order::LinearOrder;
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_graph::{Graph, GraphError};
use slpm_linalg::fiedler::{fiedler_pair_balanced_on, FiedlerOptions, FiedlerPair};
use slpm_linalg::{CsrMatrix, LinalgError, Pool};
use std::fmt;

/// Errors from the mapping pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingError {
    /// Graph construction / validation failed (e.g. disconnected input).
    Graph(GraphError),
    /// The eigensolver failed.
    Linalg(LinalgError),
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::Graph(e) => write!(f, "graph error: {e}"),
            MappingError::Linalg(e) => write!(f, "eigensolver error: {e}"),
        }
    }
}

impl std::error::Error for MappingError {}

impl From<GraphError> for MappingError {
    fn from(e: GraphError) -> Self {
        MappingError::Graph(e)
    }
}

impl From<LinalgError> for MappingError {
    fn from(e: LinalgError) -> Self {
        MappingError::Linalg(e)
    }
}

/// Configuration of the Spectral LPM pipeline.
#[derive(Debug, Clone, Default)]
pub struct SpectralConfig {
    /// Neighbourhood model for step 1 (4- vs 8-connectivity, Section 4).
    pub connectivity: Connectivity,
    /// Eigensolver options for step 3. By default the eigensolver is
    /// picked per input size ([`slpm_linalg::FiedlerMethod::for_size`]); setting
    /// `fiedler.method` pins one.
    pub fiedler: FiedlerOptions,
}

impl SpectralConfig {
    /// Equal to [`SpectralConfig::default`], whose eigensolver is already
    /// chosen by size; kept because the `perfbench/` benchmark calls it.
    pub fn auto() -> Self {
        SpectralConfig::default()
    }

    /// The eigensolver options an `n`-vertex solve runs with: a copy of
    /// [`SpectralConfig::fiedler`] whose method is the one the solve
    /// resolves ([`FiedlerOptions::method_for`]).
    pub fn resolved_fiedler(&self, n: usize) -> FiedlerOptions {
        FiedlerOptions {
            method: Some(self.fiedler.method_for(n)),
            ..self.fiedler.clone()
        }
    }
}

/// The Spectral Locality-Preserving Mapping algorithm.
///
/// Stateless apart from configuration; each `map_*` call runs the paper's
/// full pipeline on its input.
#[derive(Debug, Clone, Default)]
pub struct SpectralMapper {
    config: SpectralConfig,
}

/// Result of a spectral mapping: the linear order plus the eigen
/// diagnostics that certify it.
#[derive(Debug, Clone)]
pub struct SpectralMapping {
    /// The spectral linear order (step 5): `order.rank_of(v)` is the
    /// one-dimensional position of point/vertex `v`.
    pub order: LinearOrder,
    /// The Fiedler pair behind the order (λ₂, v₂, residual, method).
    pub fiedler: FiedlerPair,
    /// Number of graph edges the order was optimised over.
    pub num_edges: usize,
}

impl SpectralMapper {
    /// Create a mapper with the given configuration.
    pub fn new(config: SpectralConfig) -> Self {
        SpectralMapper { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &SpectralConfig {
        &self.config
    }

    /// Map every point of a grid (the experiments' setting) on `pool` —
    /// see [`SpectralMapper::map_graph_on`].
    pub fn map_grid_on(
        &self,
        spec: &GridSpec,
        pool: &Pool<'_>,
    ) -> Result<SpectralMapping, MappingError> {
        let graph = spec.graph(self.config.connectivity);
        self.map_graph_on(&graph, pool)
    }

    /// Map an arbitrary point set (paper step 1: Manhattan-distance-1
    /// edges, or Chebyshev under `Connectivity::Full`) on `pool` — see
    /// [`SpectralMapper::map_graph_on`].
    pub fn map_points_on(
        &self,
        points: &PointSet,
        pool: &Pool<'_>,
    ) -> Result<SpectralMapping, MappingError> {
        let graph = points.neighbourhood_graph(self.config.connectivity);
        graph.require_connected()?;
        let num_edges = graph.num_edges();
        self.map_laplacian_on(&graph.into_laplacian(), num_edges, pool)
    }

    /// Map a pre-built graph — the fully general Section 4 form (weighted
    /// graphs, custom neighbourhood models).
    ///
    /// Every eigensolver kernel (inner PCG solves, multilevel coarsening
    /// and refinement, CSR matvec) schedules onto `pool`, which alone
    /// decides how many threads run. The computed order is bitwise
    /// identical for every pool.
    pub fn map_graph_on(
        &self,
        graph: &Graph,
        pool: &Pool<'_>,
    ) -> Result<SpectralMapping, MappingError> {
        graph.require_connected()?;
        // Step 2: the Laplacian.
        self.map_laplacian_on(&graph.laplacian(), graph.num_edges(), pool)
    }

    /// Steps 3–5 on a connected graph's Laplacian.
    fn map_laplacian_on(
        &self,
        laplacian: &CsrMatrix,
        num_edges: usize,
        pool: &Pool<'_>,
    ) -> Result<SpectralMapping, MappingError> {
        // Step 3 — degeneracy-aware: on symmetric grids λ₂ has multiplicity
        // > 1 and the balanced entry point picks a canonical mixed
        // representative instead of an arbitrary (possibly axis-pure,
        // sweep-like) element of the eigenspace.
        let fiedler = fiedler_pair_balanced_on(laplacian, &self.config.fiedler, pool)?;
        // Steps 4–5: sort on the Fiedler values. Snap values that agree up
        // to solver round-off so ties (grid rows share one value in exact
        // arithmetic) are broken by the documented vertex-index rule, not
        // by noise.
        let max_abs = fiedler.vector.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let order = LinearOrder::from_keys_snapped(&fiedler.vector, max_abs * 1e-7)
            .expect("Fiedler vector is finite by construction");
        Ok(SpectralMapping {
            order,
            fiedler,
            num_edges,
        })
    }

    /// Map a graph extended with access-affinity edges (Section 4) on
    /// `pool`.
    pub fn map_graph_with_affinity(
        &self,
        base: &Graph,
        affinity: &[AffinityEdge],
        pool: &Pool<'_>,
    ) -> Result<SpectralMapping, MappingError> {
        let graph = apply_affinity(base, affinity)?;
        self.map_graph_on(&graph, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective;
    use slpm_linalg::FiedlerMethod;

    fn mapper() -> SpectralMapper {
        SpectralMapper::new(SpectralConfig::default())
    }

    #[test]
    fn figure3_3x3_grid() {
        // Paper Figure 3: 3×3 grid, λ₂ = 1.
        let spec = GridSpec::new(&[3, 3]);
        let m = mapper().map_grid_on(&spec, &Pool::default()).unwrap();
        assert!(
            (m.fiedler.lambda2 - 1.0).abs() < 1e-7,
            "λ₂ = {}",
            m.fiedler.lambda2
        );
        assert_eq!(m.order.len(), 9);
        assert_eq!(m.num_edges, 12);
        assert!(m.fiedler.residual < 1e-6);
    }

    #[test]
    fn spectral_order_on_path_recovers_path() {
        // 1-D "grid": the order must be the path order or its reverse.
        let spec = GridSpec::new(&[8]);
        let m = mapper().map_grid_on(&spec, &Pool::default()).unwrap();
        let ranks = m.order.ranks();
        let forward: Vec<usize> = (0..8).collect();
        let backward: Vec<usize> = (0..8).rev().collect();
        assert!(
            ranks == forward.as_slice() || ranks == backward.as_slice(),
            "got {ranks:?}"
        );
    }

    #[test]
    fn order_objective_attains_lambda2_bound() {
        // The relaxation value of the spectral order's generating vector is
        // exactly λ₂; any integer order's normalised σ is ≥ λ₂. Non-square
        // grid so λ₂ is simple and the order is solver-independent (on a
        // square grid the degenerate eigenspace contains both sweep-like
        // and diagonal representatives with different 2-sum costs).
        let spec = GridSpec::new(&[5, 3]);
        let g = spec.graph(Connectivity::Orthogonal);
        let m = mapper().map_graph_on(&g, &Pool::default()).unwrap();
        let sigma_relax = objective::quadratic_form(&g, &m.fiedler.vector);
        assert!((sigma_relax - m.fiedler.lambda2).abs() < 1e-6);
        let sigma_spectral = objective::order_quadratic_form(&g, &m.order);
        assert!(sigma_spectral >= m.fiedler.lambda2 - 1e-9);
        // And the spectral integer order beats (or ties) the sweep order
        // on the 2-sum objective here.
        let sweep = LinearOrder::identity(15);
        assert!(
            objective::two_sum_cost(&g, &m.order) <= objective::two_sum_cost(&g, &sweep) + 1e-9
        );
    }

    #[test]
    fn degenerate_point_sets_give_orders_or_typed_errors() {
        let map = |points: Vec<Vec<i64>>| {
            let points = PointSet::new(points).unwrap();
            mapper().map_points_on(&points, &Pool::default())
        };
        assert!(matches!(
            map(vec![vec![3, 4]]),
            Err(MappingError::Linalg(LinalgError::ProblemTooSmall { .. }))
        ));
        assert_eq!(map(vec![vec![0, 0], vec![0, 1]]).unwrap().order.len(), 2);
        let duplicates = vec![vec![1, 1], vec![0, 1], vec![1, 1], vec![0, 1], vec![1, 0]];
        assert_eq!(map(duplicates).unwrap().order.len(), 3);
        assert!(matches!(
            map(vec![vec![0, 0], vec![9, 9]]),
            Err(MappingError::Graph(GraphError::Disconnected {
                components: 2
            }))
        ));
        let line: Vec<Vec<i64>> = (0..200).map(|x| vec![x, 7]).collect();
        let order = map(line).unwrap().order;
        assert_eq!(order.len(), 200);
        // A line's spectral order is the line, one way or the other.
        let ranks: Vec<usize> = (0..200).map(|v| order.rank_of(v)).collect();
        assert!(ranks.windows(2).all(|w| w[0].abs_diff(w[1]) == 1));
    }

    #[test]
    fn disconnected_input_is_rejected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let err = mapper().map_graph_on(&g, &Pool::default()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::Graph(GraphError::Disconnected { .. })
        ));
    }

    #[test]
    fn eight_connectivity_differs_from_four() {
        // Figure 4: the spectral orders under 4- and 8-connectivity differ.
        let spec = GridSpec::new(&[4, 4]);
        let four = mapper().map_grid_on(&spec, &Pool::default()).unwrap();
        let eight = SpectralMapper::new(SpectralConfig {
            connectivity: Connectivity::Full,
            ..Default::default()
        })
        .map_grid_on(&spec, &Pool::default())
        .unwrap();
        assert_ne!(four.order.ranks(), eight.order.ranks());
        assert!(eight.fiedler.lambda2 > four.fiedler.lambda2 - 1e-9);
    }

    #[test]
    fn affinity_edges_pull_points_together() {
        // Section 4's motivating scenario on a path: affinity between the
        // endpoints drags them closer in the new order than without it.
        let base = Graph::from_edges(10, (1..10).map(|i| (i - 1, i, 1.0))).unwrap();
        let plain = mapper().map_graph_on(&base, &Pool::default()).unwrap();
        let strong = mapper()
            .map_graph_with_affinity(
                &base,
                &[AffinityEdge::weighted(0, 9, 4.0)],
                &Pool::default(),
            )
            .unwrap();
        let d_plain = plain.order.distance(0, 9);
        let d_affine = strong.order.distance(0, 9);
        assert!(
            d_affine < d_plain,
            "affinity did not reduce distance: {d_affine} vs {d_plain}"
        );
    }

    #[test]
    fn map_points_matches_map_grid() {
        let spec = GridSpec::new(&[3, 4]);
        let pts = PointSet::from_grid(&spec);
        let a = mapper().map_grid_on(&spec, &Pool::default()).unwrap();
        let b = mapper().map_points_on(&pts, &Pool::default()).unwrap();
        assert_eq!(a.order.ranks(), b.order.ranks());
    }

    #[test]
    fn dense_and_iterative_methods_agree_on_order() {
        let spec = GridSpec::new(&[5, 3]); // non-square: λ₂ simple
        let with_method = |method| {
            SpectralMapper::new(SpectralConfig {
                fiedler: FiedlerOptions {
                    method: Some(method),
                    // Small enough that the 15-vertex grid is solved on a
                    // real hierarchy, not the driver's exact dense path.
                    multilevel: slpm_linalg::MultilevelOptions {
                        coarsest_size: 4,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..Default::default()
            })
            .map_grid_on(&spec, &Pool::default())
            .unwrap()
        };
        let dense = with_method(FiedlerMethod::Dense);
        let ml = with_method(FiedlerMethod::Multilevel);
        // λ₂ agrees tightly.
        assert!((dense.fiedler.lambda2 - ml.fiedler.lambda2).abs() < 1e-7);
        // The Fiedler vectors agree up to sign (λ₂ is simple on a 5×3
        // grid). Note the *orders* may still differ at exactly-tied values
        // — rows of the grid share one Fiedler value and ties are broken by
        // solver round-off before the index tie-break kicks in — so the
        // vector, not the rank array, is the right thing to compare.
        let d = &dense.fiedler.vector;
        let s = &ml.fiedler.vector;
        let same: f64 = d
            .iter()
            .zip(s)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let flip: f64 = d
            .iter()
            .zip(s)
            .map(|(a, b)| (a + b).abs())
            .fold(0.0, f64::max);
        assert!(
            same.min(flip) < 1e-6,
            "vectors differ: {same:.2e}/{flip:.2e}"
        );
    }

    /// A connected, non-square `n`-vertex graph: the first `n` vertices
    /// of a 32-wide grid in row-major order.
    fn truncated_grid(n: usize) -> Graph {
        let width = 32;
        let mut edges = Vec::new();
        for v in 0..n {
            if (v + 1) % width != 0 && v + 1 < n {
                edges.push((v, v + 1, 1.0));
            }
            if v + width < n {
                edges.push((v, v + width, 1.0));
            }
        }
        Graph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn size_policy_is_the_default() {
        let dense_max = FiedlerMethod::DENSE_MAX;
        for (n, expect) in [
            (dense_max, FiedlerMethod::Dense),
            (dense_max + 1, FiedlerMethod::Multilevel),
            (1024, FiedlerMethod::Multilevel),
            (4096, FiedlerMethod::Multilevel),
        ] {
            assert_eq!(FiedlerMethod::for_size(n), expect, "n = {n}");
            // `auto()` is the default: the options perfbench reads from it
            // are the ones every default solve runs with.
            let d = SpectralConfig::default().resolved_fiedler(n);
            let a = SpectralConfig::auto().resolved_fiedler(n);
            assert_eq!(d.method, Some(expect), "n = {n}");
            assert_eq!(a.method, d.method);
            assert_eq!(a.tolerance, d.tolerance);
            assert_eq!(a.seed, d.seed);
            assert_eq!(a.multilevel.coarsest_size, d.multilevel.coarsest_size);
            assert_eq!(a.multilevel.guard_vectors, d.multilevel.guard_vectors);
            assert_eq!(a.multilevel.max_refine_steps, d.multilevel.max_refine_steps);
            // And the mapper actually runs, and reports, that method.
            let m = mapper()
                .map_graph_on(&truncated_grid(n), &Pool::default())
                .unwrap();
            assert_eq!(m.fiedler.method, expect, "n = {n}");
            assert_eq!(m.order.len(), n);
        }
    }

    #[test]
    fn multilevel_method_maps_grid() {
        // End-to-end pipeline through the multilevel solver on a grid big
        // enough to build a real hierarchy.
        let spec = GridSpec::new(&[24, 24]);
        let m = SpectralMapper::new(SpectralConfig {
            fiedler: FiedlerOptions {
                method: Some(FiedlerMethod::Multilevel),
                ..Default::default()
            },
            ..Default::default()
        })
        .map_grid_on(&spec, &Pool::default())
        .unwrap();
        assert_eq!(m.order.len(), 576);
        assert_eq!(m.fiedler.method, FiedlerMethod::Multilevel);
        let expect = 4.0 * (std::f64::consts::PI / 48.0).sin().powi(2);
        assert!(
            (m.fiedler.lambda2 - expect).abs() < 1e-6,
            "λ₂ {} vs {expect}",
            m.fiedler.lambda2
        );
    }

    #[test]
    fn mapping_is_deterministic() {
        let spec = GridSpec::new(&[4, 4]);
        let a = mapper().map_grid_on(&spec, &Pool::default()).unwrap();
        let b = mapper().map_grid_on(&spec, &Pool::default()).unwrap();
        assert_eq!(a.order.ranks(), b.order.ranks());
    }

    #[test]
    fn error_display_forwards() {
        let e = MappingError::Graph(GraphError::Disconnected { components: 2 });
        assert!(e.to_string().contains("disconnected"));
    }
}
