//! Breadth-first traversal and connectivity analysis.
//!
//! Spectral LPM is only defined on connected graphs (λ₂ > 0 iff connected —
//! Fiedler's theorem). The graph layer uses BFS to verify that before any
//! eigenwork starts, and the query simulator uses BFS distances to build
//! distance-bounded pair workloads.

use crate::graph::Graph;

/// Breadth-first search from `source`, returning hop distances
/// (`usize::MAX` for unreachable vertices).
pub fn bfs_distances(g: &Graph, source: usize) -> Vec<usize> {
    assert!(source < g.num_vertices(), "BFS source out of range");
    let mut dist = vec![usize::MAX; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbours(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Label every vertex with a component id in `0..num_components`, assigned in
/// order of first discovery.
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbours(u) {
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Number of connected components.
pub fn num_components(g: &Graph) -> usize {
    connected_components(g)
        .into_iter()
        .max()
        .map_or(0, |m| m + 1)
}

/// True when the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.num_vertices() == 0 || num_components(g) == 1
}

/// Graph diameter in hops (exact, all-pairs BFS — intended for the small
/// worked-example graphs, O(V·E)). Returns `None` for disconnected or empty
/// graphs.
pub fn diameter(g: &Graph) -> Option<usize> {
    let n = g.num_vertices();
    if n == 0 || !is_connected(g) {
        return None;
    }
    let mut best = 0usize;
    for s in 0..n {
        let d = bfs_distances(g, s);
        for &v in &d {
            if v != usize::MAX {
                best = best.max(v);
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Connectivity, GridSpec};

    fn graph(n: usize, edges: &[(usize, usize)]) -> Graph {
        Graph::from_edges(n, edges.iter().map(|&(u, v)| (u, v, 1.0))).unwrap()
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (i - 1, i, 1.0))).unwrap()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = graph(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_bad_source_panics() {
        bfs_distances(&path(3), 5);
    }

    #[test]
    fn components_of_two_paths() {
        let g = graph(5, &[(0, 1), (3, 4)]);
        let c = connected_components(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[2]);
        assert_ne!(c[0], c[3]);
        assert_eq!(num_components(&g), 3);
        assert!(!is_connected(&g));
    }

    #[test]
    fn grid_bfs_matches_manhattan() {
        // On an orthogonal grid graph, hop distance == Manhattan distance.
        let spec = GridSpec::new(&[4, 4]);
        let g = spec.graph(Connectivity::Orthogonal);
        let d = bfs_distances(&g, spec.index_of(&[0, 0]));
        for p in spec.iter_points() {
            assert_eq!(d[spec.index_of(&p)], GridSpec::manhattan(&[0, 0], &p));
        }
    }

    #[test]
    fn grid_full_bfs_matches_chebyshev() {
        let spec = GridSpec::new(&[4, 4]);
        let g = spec.graph(Connectivity::Full);
        let d = bfs_distances(&g, spec.index_of(&[0, 0]));
        for p in spec.iter_points() {
            assert_eq!(d[spec.index_of(&p)], GridSpec::chebyshev(&[0, 0], &p));
        }
    }

    #[test]
    fn diameter_of_path_and_grid() {
        assert_eq!(diameter(&path(6)), Some(5));
        let spec = GridSpec::new(&[3, 3]);
        assert_eq!(diameter(&spec.graph(Connectivity::Orthogonal)), Some(4));
        assert_eq!(diameter(&spec.graph(Connectivity::Full)), Some(2));
    }

    #[test]
    fn diameter_of_disconnected_is_none() {
        let g = graph(3, &[]);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = graph(0, &[]);
        assert!(is_connected(&g));
        assert_eq!(num_components(&g), 0);
    }
}
