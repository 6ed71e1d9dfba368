//! The weighted undirected [`Graph`] type and its matrix views.

use slpm_linalg::sparse::{CsrMatrix, MAX_DIM};
use std::fmt;

/// Errors from graph construction and matrix extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Edge endpoint out of range.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// Self-loops carry no locality information and are rejected.
    SelfLoop {
        /// The vertex that was joined to itself.
        vertex: usize,
    },
    /// Edge weights must be positive and finite (a weight encodes the
    /// priority of placing two points close together; zero or negative
    /// priorities are meaningless in the paper's model).
    BadWeight {
        /// The offending weight.
        weight: f64,
    },
    /// A vertex list that must be duplicate-free contained a repeat.
    DuplicateVertex {
        /// The repeated vertex id.
        vertex: usize,
    },
    /// The operation requires a connected graph.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
    /// More vertices than a 32-bit vertex id can name (above
    /// [`MAX_DIM`]).
    TooManyVertices {
        /// The vertex count asked for.
        num_vertices: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range (graph has {num_vertices} vertices)"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::BadWeight { weight } => {
                write!(f, "edge weight must be positive and finite, got {weight}")
            }
            GraphError::DuplicateVertex { vertex } => {
                write!(f, "vertex {vertex} appears more than once")
            }
            GraphError::Disconnected { components } => {
                write!(f, "graph is disconnected ({components} components)")
            }
            GraphError::TooManyVertices { num_vertices } => {
                write!(f, "{num_vertices} vertices is above the limit of {MAX_DIM}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A weighted undirected graph on vertices `0..n`, stored as its own
/// combinatorial Laplacian `L = D − A` (paper step 2) in one CSR matrix:
/// an edge `(u, v)` of weight `w` is the pair of off-diagonal entries
/// `−w`, and each diagonal entry is its vertex's weighted degree (absent
/// for isolated vertices). Every read — edges, degrees, traversal — comes
/// from that matrix.
///
/// Parallel edges are merged by **summing** weights (adding an affinity edge
/// on top of a grid edge strengthens the tie, matching the paper's
/// Section 4 semantics of "inform Spectral LPM that p and q need to be
/// treated as if they have Manhattan distance 1" — and more so if repeated).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    laplacian: CsrMatrix,
    num_edges: usize,
}

/// A typed error for more vertices than a 32-bit id can name.
fn check_vertex_count(n: usize) -> Result<(), GraphError> {
    if n > MAX_DIM {
        return Err(GraphError::TooManyVertices { num_vertices: n });
    }
    Ok(())
}

/// The panic message of a [`Graph::from_edge_walk`] walk that does not
/// replay.
const REPLAY: &str = "the filling walk emitted other edges than the counting walk";

/// Check one edge: endpoints in range, no self-loop, a weight positive and
/// finite, in that order.
fn check_edge(n: usize, u: usize, v: usize, w: f64) -> Result<(), GraphError> {
    for vertex in [u, v] {
        if vertex >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex,
                num_vertices: n,
            });
        }
    }
    if u == v {
        return Err(GraphError::SelfLoop { vertex: u });
    }
    if !(w.is_finite() && w > 0.0) {
        return Err(GraphError::BadWeight { weight: w });
    }
    Ok(())
}

impl Graph {
    /// Build the graph on `n` vertices from undirected weighted edges
    /// `(u, v, w)` given in either orientation.
    ///
    /// Repeated pairs merge: their weights are summed from `0.0` in the
    /// order given, and each degree is the sum of its vertex's merged
    /// weights in ascending neighbour order. Errors on more than
    /// [`MAX_DIM`] vertices (before anything is allocated), an endpoint
    /// out of range, a self-loop, a weight that is not positive and
    /// finite, and a merged weight or degree that overflows to infinity.
    ///
    /// `edges` is walked once, into a buffer the build then reads twice;
    /// the crate's own builders walk their edges twice instead and hold no
    /// such buffer.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        check_vertex_count(n)?;
        let edges: Vec<(usize, usize, f64)> = edges.into_iter().collect();
        Graph::from_edge_walk(n, |emit| {
            for &(u, v, w) in &edges {
                emit(u, v, w);
            }
        })
    }

    /// Build the graph on `n` vertices from an edge source that `walk`
    /// replays: each call of `walk(emit)` must call `emit(u, v, w)` for the
    /// same edges in the same order. The first walk checks the edges and
    /// counts each row's entries, the second checks them again and fills
    /// the CSR arrays, so no edge list is ever held. Same result and errors
    /// as [`Graph::from_edges`] on those edges. Panics if the second walk
    /// emits other edges than the first.
    pub(crate) fn from_edge_walk<W>(n: usize, walk: W) -> Result<Graph, GraphError>
    where
        W: Fn(&mut dyn FnMut(usize, usize, f64)),
    {
        check_vertex_count(n)?;
        // Count each row's entries, one extra slot per row for its
        // diagonal. The first bad edge in walk order is the error.
        let mut row_ptr = vec![0usize; n + 1];
        let mut error = None;
        walk(&mut |u, v, w| {
            if error.is_none() {
                match check_edge(n, u, v, w) {
                    Ok(()) => {
                        row_ptr[u + 1] += 1;
                        row_ptr[v + 1] += 1;
                    }
                    Err(e) => error = Some(e),
                }
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i] + 1;
        }
        // Counting sort by row: each row holds its entries in walk order.
        // Every vertex id is below `n <= MAX_DIM`, so it fits in a `u32`.
        // The filling walk checks its edges again and never writes past a
        // row's counted slots, so a walk that does not replay (a weight
        // closure that changes between calls, say) cannot corrupt the rows.
        let mut row_end = row_ptr[..n].to_vec();
        let mut col_idx = vec![0u32; row_ptr[n]];
        let mut values = vec![0.0f64; row_ptr[n]];
        walk(&mut |u, v, w| {
            if error.is_some() {
                return;
            }
            if let Err(e) = check_edge(n, u, v, w) {
                error = Some(e);
                return;
            }
            for (row, col) in [(u, v), (v, u)] {
                let slot = row_end[row];
                assert!(slot + 1 < row_ptr[row + 1], "{REPLAY}");
                (col_idx[slot], values[slot]) = (col as u32, w);
                row_end[row] += 1;
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        assert!((0..n).all(|i| row_end[i] + 1 == row_ptr[i + 1]), "{REPLAY}");
        // Sort, merge and compact each row in place, writing `−w` and the
        // diagonal. A row never writes past its own slots, so the rows
        // after it are still intact when they are read.
        let mut row: Vec<(u32, f64)> = Vec::new();
        let (mut written, mut num_edges) = (0, 0);
        for i in 0..n {
            let start = row_ptr[i];
            row.clear();
            row.extend((start..row_end[i]).map(|k| (col_idx[k], values[k])));
            // Stable, so a repeated pair's weights add up in input order.
            row.sort_by_key(|&(col, _)| col);
            row.dedup_by(|later, kept| {
                later.0 == kept.0 && {
                    kept.1 += later.1;
                    true
                }
            });
            let mut degree = 0.0;
            for &(_, w) in &row {
                degree += w;
            }
            if !degree.is_finite() {
                return Err(GraphError::BadWeight { weight: degree });
            }
            let below = row.partition_point(|&(col, _)| (col as usize) < i);
            num_edges += row.len() - below;
            // The diagonal goes in as `−degree`, so one negation writes all.
            let diagonal = (!row.is_empty()).then_some((i as u32, -degree));
            row_ptr[i] = written;
            for &(col, w) in row[..below].iter().chain(&diagonal).chain(&row[below..]) {
                (col_idx[written], values[written]) = (col, -w);
                written += 1;
            }
        }
        row_ptr[n] = written;
        col_idx.truncate(written);
        values.truncate(written);
        let laplacian = CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
            .expect("rows are sorted, in range and finite by construction");
        Ok(Graph {
            laplacian,
            num_edges,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.laplacian.rows()
    }

    /// Number of (undirected, merged) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Weight of edge `(u, v)` (0 when absent).
    pub fn edge_weight(&self, u: usize, v: usize) -> f64 {
        if u == v || u.max(v) >= self.num_vertices() {
            return 0.0;
        }
        // `0 − (−w)` is `w` exactly, and an absent entry gives `+0`.
        0.0 - self.laplacian.get(u, v)
    }

    /// True if `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_weight(u, v) > 0.0
    }

    /// Iterate over edges as `(u, v, w)` with `u < v`, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.laplacian
                .row_iter(u)
                .filter(move |&(v, _)| v > u)
                .map(move |(v, a)| (u, v, -a))
        })
    }

    /// The neighbours of `u`, ascending.
    pub(crate) fn neighbours(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.laplacian
            .row_iter(u)
            .map(|(v, _)| v)
            .filter(move |&v| v != u)
    }

    /// Weighted degree of every vertex (`d_i = Σ_j w_ij`).
    pub fn degrees(&self) -> Vec<f64> {
        (0..self.num_vertices())
            .map(|i| self.laplacian.get(i, i))
            .collect()
    }

    /// A copy of the combinatorial Laplacian `L = D − A` (paper step 2).
    pub fn laplacian(&self) -> CsrMatrix {
        self.laplacian.clone()
    }

    /// The Laplacian, without a copy.
    pub fn into_laplacian(self) -> CsrMatrix {
        self.laplacian
    }

    /// Induced subgraph on a set of vertices, numbered in the order given:
    /// its vertex `i` is `vertices[i]`. Only the listed vertices' rows are
    /// read. Duplicate vertices in `vertices` are rejected.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> Result<Graph, GraphError> {
        let n = self.num_vertices();
        let mut local = vec![u32::MAX; n];
        for (new, &old) in vertices.iter().enumerate() {
            if old >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: old,
                    num_vertices: n,
                });
            }
            if local[old] != u32::MAX {
                return Err(GraphError::DuplicateVertex { vertex: old });
            }
            // The vertices before `new` are distinct and below `n`, so
            // `new < n <= MAX_DIM`: it fits and is never the marker.
            local[old] = new as u32;
        }
        Graph::from_edge_walk(vertices.len(), |emit| {
            for (i, &old) in vertices.iter().enumerate() {
                for (col, a) in self.laplacian.row_iter(old) {
                    let j = local[col];
                    // Each retained edge once, from its lower local
                    // endpoint (the diagonal maps to `j == i`, skipped).
                    if j != u32::MAX && i < j as usize {
                        emit(i, j as usize, -a);
                    }
                }
            }
        })
    }

    /// Require connectivity, returning a typed error otherwise.
    pub fn require_connected(&self) -> Result<(), GraphError> {
        let count = crate::traversal::num_components(self);
        if self.num_vertices() > 0 && count != 1 {
            return Err(GraphError::Disconnected { components: count });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A walk whose filling pass emits `second` instead of `first`.
    fn changing_walk(
        first: &'static [(usize, usize)],
        second: &'static [(usize, usize)],
    ) -> Result<Graph, GraphError> {
        let walks = std::cell::Cell::new(0);
        Graph::from_edge_walk(4, |emit| {
            walks.set(walks.get() + 1);
            let edges = if walks.get() == 1 { first } else { second };
            for &(u, v) in edges {
                emit(u, v, 1.0);
            }
        })
    }

    #[test]
    #[should_panic(expected = "other edges than the counting walk")]
    fn a_filling_walk_with_an_extra_edge_panics() {
        let _ = changing_walk(&[(0, 1), (1, 2)], &[(0, 1), (1, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "other edges than the counting walk")]
    fn a_filling_walk_with_a_missing_edge_panics() {
        let _ = changing_walk(&[(0, 1), (1, 2)], &[(0, 1)]);
    }

    #[test]
    fn a_filling_walk_with_a_bad_edge_is_an_error() {
        assert_eq!(
            changing_walk(&[(0, 1)], &[(0, 0)]).unwrap_err(),
            GraphError::SelfLoop { vertex: 0 }
        );
    }

    fn unit(edges: &[(usize, usize)]) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        edges.iter().map(|&(u, v)| (u, v, 1.0))
    }

    fn triangle() -> Graph {
        Graph::from_edges(3, unit(&[(0, 1), (1, 2), (2, 0)])).unwrap()
    }

    #[test]
    fn counts_and_membership() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn duplicate_edges_sum_weights() {
        let g = Graph::from_edges(2, [(0, 1, 1.5), (1, 0, 2.5)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 4.0);
        assert_eq!(g.edge_weight(1, 0), 4.0);
    }

    #[test]
    fn rejects_bad_edges() {
        let build = |e: (usize, usize, f64)| Graph::from_edges(2, [(0, 1, 1.0), e]);
        assert!(matches!(
            build((0, 2, 1.0)),
            Err(GraphError::VertexOutOfRange { vertex: 2, .. })
        ));
        assert!(matches!(
            build((1, 1, 1.0)),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                build((0, 1, w)),
                Err(GraphError::BadWeight { .. })
            ));
        }
    }

    #[test]
    fn overflowing_merged_weight_or_degree_is_a_bad_weight() {
        // Two finite weights on one pair sum past f64::MAX.
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, 1e308), (1, 0, 1e308)]),
            Err(GraphError::BadWeight { weight }) if weight == f64::INFINITY
        ));
        // Two distinct edges meeting at vertex 1 overflow its degree.
        assert!(matches!(
            Graph::from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)]),
            Err(GraphError::BadWeight { weight }) if weight == f64::INFINITY
        ));
    }

    #[test]
    fn vertex_counts_above_the_32_bit_limit_are_typed_errors() {
        // Rejected before any array is sized by `n` (which would ask for
        // 32 GiB here), for one-shot and walked sources alike.
        let n = MAX_DIM + 1;
        let too_many = GraphError::TooManyVertices { num_vertices: n };
        assert_eq!(Graph::from_edges(n, [(0, 1, 1.0)]), Err(too_many.clone()));
        assert_eq!(
            Graph::from_edge_walk(n, |emit| emit(0, 1, 1.0)),
            Err(too_many.clone())
        );
        assert!(too_many.to_string().contains("4294967296"));
    }

    #[test]
    fn degrees_of_triangle() {
        assert_eq!(triangle().degrees(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn neighbours_are_sorted() {
        let g = Graph::from_edges(4, unit(&[(3, 0), (0, 1)])).unwrap();
        assert_eq!(g.neighbours(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(g.neighbours(2).count(), 0);
    }

    #[test]
    fn laplacian_matches_definition() {
        // Paper Figure 3c shows the Laplacian of a 3×3 grid; here we verify
        // the definition L = D − A on the triangle.
        let g = triangle();
        let l = g.laplacian();
        assert_eq!(l.get(0, 0), 2.0);
        assert_eq!(l.get(0, 1), -1.0);
        assert_eq!(l.get(1, 2), -1.0);
        for s in l.row_sums() {
            assert!(s.abs() < 1e-15);
        }
        l.require_symmetric(0.0).unwrap();
    }

    #[test]
    fn laplacian_equals_d_minus_a() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.5), (0, 2, 0.5), (2, 3, 4.0)]).unwrap();
        let l = g.laplacian().to_dense();
        let deg = g.degrees();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { deg[i] } else { 0.0 } - g.edge_weight(i, j);
                assert_eq!(l.get(i, j), expect);
            }
        }
        assert_eq!(g.clone().into_laplacian(), g.laplacian());
    }

    #[test]
    fn weighted_laplacian() {
        let l = Graph::from_edges(2, [(0, 1, 3.0)]).unwrap().laplacian();
        assert_eq!(l.get(0, 0), 3.0);
        assert_eq!(l.get(0, 1), -3.0);
    }

    #[test]
    fn connectivity_check() {
        triangle().require_connected().unwrap();
        let g = Graph::from_edges(4, unit(&[(0, 1), (2, 3)])).unwrap();
        assert!(matches!(
            g.require_connected(),
            Err(GraphError::Disconnected { components: 2 })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.num_vertices(), 0);
        g.require_connected().unwrap(); // vacuously connected
        let l = g.laplacian();
        assert_eq!(l.rows(), 0);
    }

    #[test]
    fn isolated_vertices_graph_is_disconnected() {
        let g = Graph::from_edges(3, []).unwrap();
        assert!(g.require_connected().is_err());
        // An isolated vertex stores no diagonal entry; its degree reads 0.
        assert_eq!(g.laplacian().row_iter(1).count(), 0);
        assert_eq!(g.degrees(), vec![0.0; 3]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = Graph::from_edges(3, unit(&[(2, 1), (1, 0)])).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 1.0)]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)]).unwrap();
        let sub = g.induced_subgraph(&[2, 1, 0]).unwrap();
        assert_eq!(sub.num_vertices(), 3);
        // Edge (1,2) maps to new ids (1,0) with weight 2; edge (0,1) → (2,1).
        assert_eq!(sub.edge_weight(0, 1), 2.0);
        assert_eq!(sub.edge_weight(1, 2), 1.0);
        assert!(!sub.has_edge(0, 2));
        // Degrees count only the retained edges.
        assert_eq!(sub.degrees(), vec![2.0, 3.0, 1.0]);
        let tail = g.induced_subgraph(&[4, 0]).unwrap();
        assert_eq!(tail.num_edges(), 0);
    }

    #[test]
    fn induced_subgraph_rejects_bad_input() {
        let g = Graph::from_edges(3, []).unwrap();
        assert!(matches!(
            g.induced_subgraph(&[0, 5]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.induced_subgraph(&[1, 1]),
            Err(GraphError::DuplicateVertex { vertex: 1 })
        ));
    }

    #[test]
    fn display_of_errors() {
        let e = GraphError::Disconnected { components: 3 };
        assert!(e.to_string().contains("3 components"));
    }
}
