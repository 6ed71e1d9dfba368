//! k-dimensional grid spaces and their graphs.
//!
//! The paper's experiments all run on finite k-dimensional grids: 2-D for
//! the fairness study (Figure 5b), 4-D for range queries (Figure 6), 5-D
//! for the nearest-neighbour worst case (Figure 5a), plus the 3×3 and 4×4
//! worked examples (Figures 3 and 4). A [`GridSpec`] describes such a grid
//! and provides the row-major index ⇄ coordinate bijection every other
//! layer (curves, metrics, storage) shares.

use crate::graph::Graph;

/// Neighbourhood model used when turning a grid into a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// Edges between points at Manhattan distance 1 (the paper's default,
    /// "four-connectivity" in 2-D; 2k neighbours in k-D).
    #[default]
    Orthogonal,
    /// Edges between points at Chebyshev distance 1 ("eight-connectivity"
    /// in 2-D, Figure 4c/4d; 3^k − 1 neighbours in k-D).
    Full,
}

impl Connectivity {
    /// The neighbour offsets in `k` dimensions whose first nonzero entry
    /// is `+1`: unit steps when orthogonal, every other `{−1, 0, +1}^k`
    /// offset when full. Probing only these from every point generates
    /// each undirected edge once, from its lexicographically smaller end.
    pub(crate) fn forward_offsets(self, k: usize) -> Vec<Vec<i64>> {
        let all = (0..3usize.pow(k as u32)).map(|code| {
            // The base-3 digits of `code`, most significant first, less one.
            let digits = (0..k)
                .rev()
                .map(|d| (code / 3usize.pow(d as u32) % 3) as i64 - 1);
            digits.collect::<Vec<i64>>()
        });
        all.filter(|offset| {
            let nonzero = offset.iter().filter(|&&o| o != 0).count();
            offset.iter().find(|&&o| o != 0) == Some(&1)
                && (self == Connectivity::Full || nonzero == 1)
        })
        .collect()
    }
}

/// A finite axis-aligned grid `[0, dims[0]) × … × [0, dims[k-1])`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridSpec {
    dims: Vec<usize>,
}

impl GridSpec {
    /// Create a grid with the given per-dimension extents.
    ///
    /// # Panics
    /// Panics if `dims` is empty, any extent is zero, or the number of
    /// points (the product of the extents) overflows `usize` — a grid with
    /// no cells, or more cells than an index can name, indicates a caller
    /// bug.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "grid must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "every grid dimension must be positive"
        );
        assert!(
            dims.iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d))
                .is_some(),
            "grid {dims:?} has more points than usize can count"
        );
        GridSpec {
            dims: dims.to_vec(),
        }
    }

    /// A `side^k` hypercube grid.
    pub fn cube(side: usize, k: usize) -> Self {
        Self::new(&vec![side; k])
    }

    /// Dimensionality `k`.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// All extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of grid points.
    pub fn num_points(&self) -> usize {
        self.dims.iter().product()
    }

    /// Maximum possible Manhattan distance between two grid points.
    pub fn max_manhattan(&self) -> usize {
        self.dims.iter().map(|&d| d - 1).sum()
    }

    /// Row-major ("sweep") linear index of a coordinate tuple.
    ///
    /// The **last** dimension varies fastest, matching the usual row-major
    /// convention: in 2-D `(x, y)` with dims `(W, H)`, index = `x·H + y`.
    ///
    /// # Panics
    /// Debug-panics when the coordinate is out of range.
    pub fn index_of(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.ndim());
        let mut idx = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[d], "coordinate {c} out of range in dim {d}");
            idx = idx * self.dims[d] + c;
        }
        idx
    }

    /// Inverse of [`GridSpec::index_of`].
    pub fn coords_of(&self, mut index: usize) -> Vec<usize> {
        debug_assert!(index < self.num_points());
        let k = self.ndim();
        let mut coords = vec![0usize; k];
        for d in (0..k).rev() {
            coords[d] = index % self.dims[d];
            index /= self.dims[d];
        }
        coords
    }

    /// Iterate over all coordinate tuples in row-major order.
    pub fn iter_points(&self) -> GridPointIter<'_> {
        GridPointIter {
            spec: self,
            next: 0,
        }
    }

    /// Manhattan (L1) distance between two coordinate tuples.
    pub fn manhattan(a: &[usize], b: &[usize]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(&x, &y)| x.abs_diff(y)).sum()
    }

    /// Chebyshev (L∞) distance between two coordinate tuples.
    pub fn chebyshev(a: &[usize], b: &[usize]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| x.abs_diff(y))
            .max()
            .unwrap_or(0)
    }

    /// Build the grid graph under the given connectivity (paper step 1 /
    /// Section 4 variation). Vertex ids are row-major indices.
    pub fn graph(&self, connectivity: Connectivity) -> Graph {
        self.weighted_graph(connectivity, |_, _| 1.0)
    }

    /// Build the **torus** graph: orthogonal connectivity with periodic
    /// boundaries (each dimension wraps around). Not used by the paper but
    /// valuable as a test oracle — the torus Laplacian spectrum is known in
    /// closed form (`λ = Σ_d 2 − 2cos(2π m_d / n_d)`), and cyclic spaces
    /// model wrap-around domains (hash-partitioned key spaces, angular
    /// coordinates).
    ///
    /// Dimensions of extent ≤ 2 do not wrap (the wrap edge would duplicate
    /// an existing edge or form a self-loop).
    pub fn torus_graph(&self) -> Graph {
        Graph::from_edge_walk(self.num_points(), |emit| {
            for coords in self.iter_points() {
                for d in 0..self.ndim() {
                    // The last cell wraps back to the first above extent 2.
                    if coords[d] + 1 < self.dims[d] || self.dims[d] > 2 {
                        let mut neighbor = coords.clone();
                        neighbor[d] = (coords[d] + 1) % self.dims[d];
                        emit(self.index_of(&coords), self.index_of(&neighbor), 1.0);
                    }
                }
            }
        })
        .expect("torus edges are valid by construction")
    }

    /// Build a weighted grid graph: `weight(a_coords, b_coords)` is called
    /// for every neighbouring pair (Section 4's general weighted model,
    /// e.g. `w_ij = 1 / manhattan(i, j)`). The pairs are enumerated
    /// twice, once to size the graph's rows and once to fill them, so
    /// `weight` is called twice per pair and must give the same value.
    ///
    /// # Panics
    /// Panics if `weight` returns a weight that is not positive and finite,
    /// on either call.
    pub fn weighted_graph<F>(&self, connectivity: Connectivity, weight: F) -> Graph
    where
        F: Fn(&[usize], &[usize]) -> f64,
    {
        let offsets = connectivity.forward_offsets(self.ndim());
        Graph::from_edge_walk(self.num_points(), |emit| {
            let mut neighbor = vec![0usize; self.ndim()];
            for coords in self.iter_points() {
                'offsets: for offset in &offsets {
                    for d in 0..self.ndim() {
                        let nc = coords[d] as i64 + offset[d];
                        if nc < 0 || nc as usize >= self.dims[d] {
                            continue 'offsets;
                        }
                        neighbor[d] = nc as usize;
                    }
                    let w = weight(&coords, &neighbor);
                    emit(self.index_of(&coords), self.index_of(&neighbor), w);
                }
            }
        })
        .unwrap_or_else(|e| panic!("weighted_graph: {e}"))
    }
}

/// Iterator over grid coordinates in row-major order.
pub struct GridPointIter<'a> {
    spec: &'a GridSpec,
    next: usize,
}

impl Iterator for GridPointIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.next >= self.spec.num_points() {
            return None;
        }
        let c = self.spec.coords_of(self.next);
        self.next += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.spec.num_points() - self.next;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "weighted_graph: ")]
    fn a_weight_that_turns_bad_on_the_filling_walk_panics() {
        // 12 pairs on a 3x3 grid: the counting walk sees 1.0, the filling
        // walk −1.0, which leaves every degree finite.
        let calls = std::cell::Cell::new(0);
        GridSpec::new(&[3, 3]).weighted_graph(Connectivity::Orthogonal, |_, _| {
            calls.set(calls.get() + 1);
            if calls.get() <= 12 {
                1.0
            } else {
                -1.0
            }
        });
    }

    #[test]
    fn index_roundtrip_2d() {
        let g = GridSpec::new(&[3, 4]);
        assert_eq!(g.num_points(), 12);
        for i in 0..12 {
            assert_eq!(g.index_of(&g.coords_of(i)), i);
        }
        // Last dimension fastest.
        assert_eq!(g.coords_of(0), vec![0, 0]);
        assert_eq!(g.coords_of(1), vec![0, 1]);
        assert_eq!(g.coords_of(4), vec![1, 0]);
    }

    #[test]
    fn index_roundtrip_5d() {
        let g = GridSpec::cube(3, 5);
        assert_eq!(g.num_points(), 243);
        for i in 0..243 {
            assert_eq!(g.index_of(&g.coords_of(i)), i);
        }
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_panic() {
        GridSpec::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        GridSpec::new(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "more points than usize can count")]
    fn overflowing_point_count_panics() {
        GridSpec::new(&[usize::MAX / 2, 3]);
    }

    #[test]
    fn distances() {
        assert_eq!(GridSpec::manhattan(&[0, 0], &[2, 3]), 5);
        assert_eq!(GridSpec::chebyshev(&[0, 0], &[2, 3]), 3);
        assert_eq!(GridSpec::manhattan(&[1], &[1]), 0);
    }

    #[test]
    fn max_manhattan() {
        assert_eq!(GridSpec::new(&[4, 4]).max_manhattan(), 6);
        assert_eq!(GridSpec::cube(4, 5).max_manhattan(), 15);
    }

    #[test]
    fn iter_points_row_major() {
        let g = GridSpec::new(&[2, 2]);
        let pts: Vec<_> = g.iter_points().collect();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        assert_eq!(g.iter_points().size_hint(), (4, Some(4)));
    }

    #[test]
    fn orthogonal_graph_edge_count() {
        // m×n grid: edges = m(n-1) + n(m-1).
        let g = GridSpec::new(&[3, 3]).graph(Connectivity::Orthogonal);
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 12);
        // Paper Figure 3b: the 3×3 grid graph. Corner degree 2, edge 3,
        // centre 4.
        let degs = g.degrees();
        let spec = GridSpec::new(&[3, 3]);
        assert_eq!(degs[spec.index_of(&[0, 0])], 2.0);
        assert_eq!(degs[spec.index_of(&[0, 1])], 3.0);
        assert_eq!(degs[spec.index_of(&[1, 1])], 4.0);
    }

    #[test]
    fn orthogonal_graph_is_manhattan_1() {
        let spec = GridSpec::new(&[3, 4]);
        let g = spec.graph(Connectivity::Orthogonal);
        for a in spec.iter_points() {
            for b in spec.iter_points() {
                let ia = spec.index_of(&a);
                let ib = spec.index_of(&b);
                let expect = GridSpec::manhattan(&a, &b) == 1;
                assert_eq!(g.has_edge(ia, ib), expect, "pair {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn full_graph_is_chebyshev_1() {
        let spec = GridSpec::new(&[3, 3]);
        let g = spec.graph(Connectivity::Full);
        for a in spec.iter_points() {
            for b in spec.iter_points() {
                let ia = spec.index_of(&a);
                let ib = spec.index_of(&b);
                let expect = GridSpec::chebyshev(&a, &b) == 1;
                assert_eq!(g.has_edge(ia, ib), expect, "pair {a:?} {b:?}");
            }
        }
        // 3×3 8-connected: 12 orthogonal + 8 diagonal edges.
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn full_graph_3d_includes_diagonals() {
        let spec = GridSpec::cube(2, 3);
        let g = spec.graph(Connectivity::Full);
        // In a 2³ cube under Chebyshev-1, every pair of distinct corners is
        // adjacent: complete graph K8 = 28 edges.
        assert_eq!(g.num_edges(), 28);
    }

    #[test]
    fn one_dimensional_grid_is_path() {
        let g = GridSpec::new(&[5]).graph(Connectivity::Orthogonal);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        // In 1-D Orthogonal and Full coincide.
        let f = GridSpec::new(&[5]).graph(Connectivity::Full);
        assert_eq!(f.num_edges(), 4);
    }

    #[test]
    fn weighted_graph_applies_weight_fn() {
        let spec = GridSpec::new(&[2, 2]);
        // Weight = 10·(sum of endpoint indices' first coords + 1) as an
        // arbitrary but checkable function.
        let g = spec.weighted_graph(Connectivity::Orthogonal, |a, b| {
            10.0 * ((a[0] + b[0]) as f64 + 1.0)
        });
        let i00 = spec.index_of(&[0, 0]);
        let i01 = spec.index_of(&[0, 1]);
        let i10 = spec.index_of(&[1, 0]);
        assert_eq!(g.edge_weight(i00, i01), 10.0);
        assert_eq!(g.edge_weight(i00, i10), 20.0);
    }

    #[test]
    fn grid_graphs_are_connected() {
        for spec in [
            GridSpec::new(&[4, 4]),
            GridSpec::cube(3, 3),
            GridSpec::new(&[2, 5, 3]),
        ] {
            spec.graph(Connectivity::Orthogonal)
                .require_connected()
                .unwrap();
            spec.graph(Connectivity::Full).require_connected().unwrap();
        }
    }

    #[test]
    fn torus_is_regular_and_connected() {
        let spec = GridSpec::new(&[4, 5]);
        let g = spec.torus_graph();
        g.require_connected().unwrap();
        // Every vertex of a (≥3)-extent torus has degree 2k.
        for d in g.degrees() {
            assert_eq!(d, 4.0);
        }
        // Edge count: n·k (each vertex contributes one +1 edge per dim).
        assert_eq!(g.num_edges(), 20 * 2);
    }

    #[test]
    fn torus_small_extents_do_not_wrap() {
        // A 2-extent dimension must not create parallel edges.
        let spec = GridSpec::new(&[2, 3]);
        let g = spec.torus_graph();
        // dim0 (extent 2): plain path edges; dim1 (extent 3): cycles.
        assert_eq!(
            g.edge_weight(spec.index_of(&[0, 0]), spec.index_of(&[1, 0])),
            1.0
        );
        assert_eq!(
            g.edge_weight(spec.index_of(&[0, 0]), spec.index_of(&[0, 2])),
            1.0
        );
        g.require_connected().unwrap();
    }

    #[test]
    fn one_dimensional_torus_is_cycle() {
        let g = GridSpec::new(&[6]).torus_graph();
        assert_eq!(g.num_edges(), 6);
        assert!(g.has_edge(0, 5));
        for d in g.degrees() {
            assert_eq!(d, 2.0);
        }
    }

    #[test]
    fn full_connectivity_edge_count_2d() {
        // m×n 8-connected grid: orth m(n-1)+n(m-1), diag 2(m-1)(n-1).
        let spec = GridSpec::new(&[4, 5]);
        let g = spec.graph(Connectivity::Full);
        let expect = 4 * 4 + 5 * 3 + 2 * 3 * 4;
        assert_eq!(g.num_edges(), expect);
    }
}
