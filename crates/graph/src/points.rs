//! Arbitrary integer point sets and their neighbourhood graphs.
//!
//! The paper's algorithm takes "a set of multi-dimensional points P" — not
//! necessarily a full grid. [`PointSet`] models that general case: any set
//! of distinct integer points, with builders producing the Manhattan-
//! distance-1 graph of step 1 (or its Chebyshev / radius generalisations
//! from Section 4). Vertex `i` of the resulting graph corresponds to
//! `points()[i]`, and points are kept in sorted order so ids are stable and
//! reproducible.

use crate::graph::Graph;
use crate::grid::{Connectivity, GridSpec};

/// A finite set of distinct points with signed integer coordinates, all of
/// the same dimensionality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointSet {
    ndim: usize,
    points: Vec<Vec<i64>>,
}

/// Errors from point-set construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointSetError {
    /// The input was empty (dimensionality would be undefined).
    Empty,
    /// A point had a different dimensionality than the first.
    MixedDimensions {
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality of the offending point.
        found: usize,
    },
}

impl std::fmt::Display for PointSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointSetError::Empty => write!(f, "point set must not be empty"),
            PointSetError::MixedDimensions { expected, found } => {
                write!(
                    f,
                    "mixed dimensionality: expected {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for PointSetError {}

impl PointSet {
    /// Build from a list of points; duplicates are removed, order is
    /// normalised to lexicographic.
    pub fn new(points: Vec<Vec<i64>>) -> Result<Self, PointSetError> {
        let first = points.first().ok_or(PointSetError::Empty)?;
        let ndim = first.len();
        for p in &points {
            if p.len() != ndim {
                return Err(PointSetError::MixedDimensions {
                    expected: ndim,
                    found: p.len(),
                });
            }
        }
        let mut pts = points;
        pts.sort_unstable();
        pts.dedup();
        Ok(PointSet { ndim, points: pts })
    }

    /// Every point of a grid, in the grid's row-major order (so vertex ids
    /// line up with [`GridSpec::index_of`]).
    pub fn from_grid(spec: &GridSpec) -> Self {
        let points: Vec<Vec<i64>> = spec
            .iter_points()
            .map(|c| c.into_iter().map(|x| x as i64).collect())
            .collect();
        // Row-major order on non-negative coordinates *is* lexicographic
        // order, so the sorted invariant holds by construction.
        PointSet {
            ndim: spec.ndim(),
            points,
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, sorted lexicographically; index = graph vertex id.
    pub fn points(&self) -> &[Vec<i64>] {
        &self.points
    }

    /// Index of a point, if present (binary search).
    pub fn index_of(&self, p: &[i64]) -> Option<usize> {
        self.points.binary_search_by(|q| q.as_slice().cmp(p)).ok()
    }

    /// Manhattan distance between two points in the set (by index).
    pub fn manhattan(&self, i: usize, j: usize) -> u64 {
        self.points[i]
            .iter()
            .zip(self.points[j].iter())
            .map(|(&a, &b)| a.abs_diff(b))
            .sum()
    }

    /// Chebyshev distance between two points in the set (by index).
    pub fn chebyshev(&self, i: usize, j: usize) -> u64 {
        self.points[i]
            .iter()
            .zip(self.points[j].iter())
            .map(|(&a, &b)| a.abs_diff(b))
            .max()
            .unwrap_or(0)
    }

    /// The paper's step-1 graph: vertices = points, edges between points at
    /// Manhattan distance exactly 1.
    pub fn manhattan_graph(&self) -> Graph {
        self.neighbourhood_graph(Connectivity::Orthogonal)
    }

    /// Neighbourhood graph under either connectivity model: Manhattan
    /// distance 1 (orthogonal) or Chebyshev distance 1 (full).
    ///
    /// Implementation: from each point, probe the neighbour offsets whose
    /// first nonzero entry is +1, generating each edge from its
    /// lexicographically smaller endpoint. Adding a fixed offset keeps the
    /// points' lexicographic order, so each offset's candidates rise with
    /// the point and one forward-only cursor per offset finds them:
    /// O(n · 3^k · k) — fine for the ≤ 6 dimensions the paper considers.
    pub fn neighbourhood_graph(&self, connectivity: Connectivity) -> Graph {
        let offsets = connectivity.forward_offsets(self.ndim);
        let mut cursors = vec![0usize; offsets.len()];
        let mut edges = Vec::new();
        let mut candidate = vec![0i64; self.ndim];
        for (i, p) in self.points.iter().enumerate() {
            for (offset, j) in offsets.iter().zip(&mut cursors) {
                for (c, (x, o)) in candidate.iter_mut().zip(p.iter().zip(offset)) {
                    *c = x + o;
                }
                while self.points.get(*j).is_some_and(|q| *q < candidate) {
                    *j += 1;
                }
                if self.points.get(*j) == Some(&candidate) {
                    edges.push((i, *j, 1.0));
                }
            }
        }
        Graph::from_edges(self.len(), edges).expect("neighbour indices are valid")
    }

    /// Weighted complete-neighbourhood graph of Section 4's footnote:
    /// every pair within Manhattan distance `radius` gets an edge of weight
    /// `1 / manhattan(i, j)`. O(n²) — intended for small point sets.
    pub fn inverse_distance_graph(&self, radius: u64) -> Graph {
        let n = self.len();
        let edges = (0..n).flat_map(|i| {
            (i + 1..n).filter_map(move |j| {
                let d = self.manhattan(i, j);
                (d >= 1 && d <= radius).then(|| (i, j, 1.0 / d as f64))
            })
        });
        Graph::from_edges(n, edges).expect("indices valid, weights positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let ps = PointSet::new(vec![vec![1, 1], vec![0, 0], vec![1, 1]]).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.points()[0], vec![0, 0]);
        assert_eq!(ps.index_of(&[1, 1]), Some(1));
        assert_eq!(ps.index_of(&[2, 2]), None);
        assert!(!ps.is_empty());
    }

    #[test]
    fn rejects_empty_and_mixed() {
        assert_eq!(PointSet::new(vec![]).unwrap_err(), PointSetError::Empty);
        let err = PointSet::new(vec![vec![0, 0], vec![1]]).unwrap_err();
        assert!(matches!(err, PointSetError::MixedDimensions { .. }));
    }

    #[test]
    fn from_grid_matches_row_major() {
        let spec = GridSpec::new(&[2, 3]);
        let ps = PointSet::from_grid(&spec);
        assert_eq!(ps.len(), 6);
        for (i, p) in ps.points().iter().enumerate() {
            let coords: Vec<usize> = p.iter().map(|&x| x as usize).collect();
            assert_eq!(spec.index_of(&coords), i);
        }
    }

    #[test]
    fn manhattan_graph_on_grid_matches_grid_graph() {
        let spec = GridSpec::new(&[3, 3]);
        let ps = PointSet::from_grid(&spec);
        let from_points = ps.manhattan_graph();
        let from_grid = spec.graph(Connectivity::Orthogonal);
        assert_eq!(from_points.num_edges(), from_grid.num_edges());
        for (u, v, w) in from_grid.edges() {
            assert_eq!(from_points.edge_weight(u, v), w);
        }
    }

    #[test]
    fn full_graph_on_grid_matches_grid_graph() {
        let spec = GridSpec::new(&[3, 3]);
        let ps = PointSet::from_grid(&spec);
        let a = ps.neighbourhood_graph(Connectivity::Full);
        let b = spec.graph(Connectivity::Full);
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn sparse_point_set_graph() {
        // An L-shaped set with a gap: (0,0)-(0,1)-(0,2), (2,0) isolated.
        let ps = PointSet::new(vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![2, 0]]).unwrap();
        let g = ps.manhattan_graph();
        assert_eq!(g.num_edges(), 2);
        assert!(!crate::traversal::is_connected(&g));
    }

    #[test]
    fn negative_coordinates_work() {
        let ps = PointSet::new(vec![vec![-1, 0], vec![0, 0], vec![1, 0]]).unwrap();
        let g = ps.manhattan_graph();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(ps.manhattan(0, 2), 2);
        assert_eq!(ps.chebyshev(0, 2), 2);
    }

    #[test]
    fn inverse_distance_graph_weights() {
        let ps = PointSet::new(vec![vec![0], vec![1], vec![3]]).unwrap();
        let g = ps.inverse_distance_graph(3);
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.edge_weight(1, 2), 0.5);
        assert!((g.edge_weight(0, 2) - 1.0 / 3.0).abs() < 1e-15);
        // Radius cut-off respected.
        let g1 = ps.inverse_distance_graph(1);
        assert_eq!(g1.num_edges(), 1);
    }
}
