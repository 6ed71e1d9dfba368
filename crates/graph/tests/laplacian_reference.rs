//! Differential test of the CSR graph against the edge-map builder it
//! replaced: a `BTreeMap<(min, max), w>` edge store whose Laplacian went
//! through triplets and `CsrMatrix::from_triplets`. Every Laplacian entry,
//! edge weight and degree must agree bit for bit, so every order, λ₂ and
//! digest computed from a graph keeps its bits.
//!
//! The reference graphs get their edges by brute force over all vertex
//! pairs, not from the builders under test.

use proptest::prelude::*;
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_graph::Graph;
use slpm_linalg::CsrMatrix;
use std::collections::BTreeMap;

/// The edge-map graph: repeated pairs sum their weights in insertion order.
struct Reference {
    n: usize,
    edges: BTreeMap<(usize, usize), f64>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            n,
            edges: BTreeMap::new(),
        }
    }

    fn add(&mut self, u: usize, v: usize, w: f64) {
        *self.edges.entry((u.min(v), u.max(v))).or_insert(0.0) += w;
    }

    /// All pairs `i < j` for which `weight` gives `Some`.
    fn from_pairs(n: usize, weight: impl Fn(usize, usize) -> Option<f64>) -> Self {
        let mut r = Reference::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if let Some(w) = weight(i, j) {
                    r.add(i, j, w);
                }
            }
        }
        r
    }

    fn degrees(&self) -> Vec<f64> {
        let mut deg = vec![0.0; self.n];
        for (&(u, v), &w) in &self.edges {
            deg[u] += w;
            deg[v] += w;
        }
        deg
    }

    fn laplacian(&self) -> CsrMatrix {
        let mut t = Vec::with_capacity(2 * self.edges.len() + self.n);
        for (&(u, v), &w) in &self.edges {
            t.push((u, v, -w));
            t.push((v, u, -w));
        }
        for (i, d) in self.degrees().into_iter().enumerate() {
            if d != 0.0 {
                t.push((i, i, d));
            }
        }
        CsrMatrix::from_triplets(self.n, self.n, &t).unwrap()
    }

    fn induced_subgraph(&self, vertices: &[usize]) -> Reference {
        let new_id: BTreeMap<usize, usize> =
            vertices.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut sub = Reference::new(vertices.len());
        for (&(u, v), &w) in &self.edges {
            if let (Some(&nu), Some(&nv)) = (new_id.get(&u), new_id.get(&v)) {
                sub.add(nu, nv, w);
            }
        }
        sub
    }
}

fn bits(row: impl Iterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
    row.map(|(c, v)| (c, v.to_bits())).collect()
}

fn assert_bitwise_equal(g: &Graph, r: &Reference, what: &str) {
    assert_eq!(g.num_vertices(), r.n, "{what}: vertices");
    assert_eq!(g.num_edges(), r.edges.len(), "{what}: edges");
    let (lap, reference) = (g.laplacian(), r.laplacian());
    for i in 0..r.n {
        assert_eq!(
            bits(lap.row_iter(i)),
            bits(reference.row_iter(i)),
            "{what}: Laplacian row {i}"
        );
    }
    let edges: Vec<_> = g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
    let expect: Vec<_> = r
        .edges
        .iter()
        .map(|(&(u, v), w)| (u, v, w.to_bits()))
        .collect();
    assert_eq!(edges, expect, "{what}: edges()");
    let degrees: Vec<u64> = g.degrees().iter().map(|d| d.to_bits()).collect();
    let expect: Vec<u64> = r.degrees().iter().map(|d| d.to_bits()).collect();
    assert_eq!(degrees, expect, "{what}: degrees()");
}

fn unit_if(adjacent: bool) -> Option<f64> {
    adjacent.then_some(1.0)
}

/// A 2-D set with holes: a `w × h` block minus a diagonal lattice of
/// points and one disc, so rows and columns break at irregular places.
fn holey(w: i64, h: i64) -> PointSet {
    let pts = (0..w)
        .flat_map(|x| (0..h).map(move |y| vec![x, y]))
        .filter(|p| (p[0] * 7 + p[1] * 3) % 11 != 0)
        .filter(|p| (p[0] - w / 2).pow(2) + (p[1] - h / 3).pow(2) > 4)
        .collect();
    PointSet::new(pts).unwrap()
}

fn block_3d() -> PointSet {
    let pts = (-2..2)
        .flat_map(|x| (0..3).flat_map(move |y| (-1..4).map(move |z| vec![x, y, z])))
        .collect();
    PointSet::new(pts).unwrap()
}

#[test]
fn grid_graphs_match_the_edge_map() {
    for dims in [vec![5, 7], vec![3, 4, 5], vec![9]] {
        let spec = GridSpec::new(&dims);
        let n = spec.num_points();
        let c = |i| spec.coords_of(i);
        let orthogonal =
            Reference::from_pairs(n, |i, j| unit_if(GridSpec::manhattan(&c(i), &c(j)) == 1));
        let full = Reference::from_pairs(n, |i, j| unit_if(GridSpec::chebyshev(&c(i), &c(j)) == 1));
        assert_bitwise_equal(&spec.graph(Connectivity::Orthogonal), &orthogonal, "4-conn");
        assert_bitwise_equal(&spec.graph(Connectivity::Full), &full, "8-conn");

        let weight = |a: &[usize], b: &[usize]| {
            1.0 / (1.0 + a[0] as f64 * 0.3 + b[b.len() - 1] as f64 / 7.0)
        };
        for connectivity in [Connectivity::Orthogonal, Connectivity::Full] {
            let adjacent = |a: &[usize], b: &[usize]| match connectivity {
                Connectivity::Orthogonal => GridSpec::manhattan(a, b) == 1,
                Connectivity::Full => GridSpec::chebyshev(a, b) == 1,
            };
            let reference = Reference::from_pairs(n, |i, j| {
                let (a, b) = (c(i), c(j));
                adjacent(&a, &b).then(|| weight(&a, &b))
            });
            let g = spec.weighted_graph(connectivity, weight);
            assert_bitwise_equal(&g, &reference, "weighted_graph");
        }
    }
}

#[test]
fn torus_matches_the_edge_map() {
    for dims in [vec![4, 5], vec![2, 3], vec![6], vec![3, 3, 3]] {
        let spec = GridSpec::new(&dims);
        let reference = Reference::from_pairs(spec.num_points(), |i, j| {
            let (a, b) = (spec.coords_of(i), spec.coords_of(j));
            let steps: Vec<usize> = (0..dims.len()).map(|d| a[d].abs_diff(b[d])).collect();
            let moved: Vec<usize> = (0..dims.len()).filter(|&d| steps[d] != 0).collect();
            let d = moved[0];
            unit_if(moved.len() == 1 && (steps[d] == 1 || (dims[d] > 2 && steps[d] == dims[d] - 1)))
        });
        assert_bitwise_equal(&spec.torus_graph(), &reference, "torus");
    }
}

#[test]
fn point_set_graphs_match_the_edge_map() {
    for (name, ps) in [
        ("holey 2-D", holey(13, 9)),
        ("holey 2-D wide", holey(21, 4)),
        ("3-D block", block_3d()),
    ] {
        let n = ps.len();
        let orthogonal = Reference::from_pairs(n, |i, j| unit_if(ps.manhattan(i, j) == 1));
        let full = Reference::from_pairs(n, |i, j| unit_if(ps.chebyshev(i, j) == 1));
        assert_bitwise_equal(
            &ps.neighbourhood_graph(Connectivity::Orthogonal),
            &orthogonal,
            name,
        );
        assert_bitwise_equal(&ps.neighbourhood_graph(Connectivity::Full), &full, name);
        assert_bitwise_equal(&ps.manhattan_graph(), &orthogonal, name);

        let reference = Reference::from_pairs(n, |i, j| {
            let d = ps.manhattan(i, j);
            (d <= 3).then(|| 1.0 / d as f64)
        });
        assert_bitwise_equal(
            &ps.inverse_distance_graph(3),
            &reference,
            "inverse_distance_graph",
        );
    }
}

/// Affinity edges (non-integer weights, both orientations, repeats, some
/// on existing edges) appended to a neighbourhood graph's edges, the way
/// the mapper's `apply_affinity` builds its extended graph.
fn affinity(n: usize) -> Vec<(usize, usize, f64)> {
    (0..3 * n)
        .map(|k| {
            let u = (k * 7 + 3) % n;
            let v = (u + 1 + (k * 13) % 5) % n;
            (u, v, 0.1 + (k % 9) as f64 / 3.0)
        })
        .filter(|&(u, v, _)| u != v)
        .collect()
}

fn extended(ps: &PointSet) -> (Graph, Reference) {
    let base = ps.manhattan_graph();
    let mut reference = Reference::from_pairs(ps.len(), |i, j| unit_if(ps.manhattan(i, j) == 1));
    let extra = affinity(ps.len());
    for &(u, v, w) in &extra {
        reference.add(u, v, w);
    }
    let g = Graph::from_edges(ps.len(), base.edges().chain(extra)).unwrap();
    (g, reference)
}

#[test]
fn affinity_extended_graph_matches_the_edge_map() {
    let (g, reference) = extended(&holey(13, 9));
    assert_bitwise_equal(&g, &reference, "affinity-extended");
}

#[test]
fn induced_subgraph_matches_the_edge_map() {
    let (g, reference) = extended(&holey(13, 9));
    let n = g.num_vertices();
    // An unsorted, duplicate-free list of about two thirds of the vertices.
    let vertices: Vec<usize> = (0..n)
        .map(|k| (k * 37 + 11) % n)
        .filter(|v| v % 3 != 1)
        .collect();
    assert!(vertices.windows(2).any(|w| w[0] > w[1]));
    let sub = g.induced_subgraph(&vertices).unwrap();
    assert_bitwise_equal(
        &sub,
        &reference.induced_subgraph(&vertices),
        "induced_subgraph",
    );
}

/// Random edge lists on few vertices, so pairs repeat often, with rows
/// long enough (up to ~240 entries) that an unstable row sort would
/// reorder repeated pairs and change their sums.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..=12).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.01f64..10.0);
        proptest::collection::vec(edge, 0..240).prop_map(move |edges| {
            let edges = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            (n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_edge_lists_match_the_edge_map((n, edges) in edge_list()) {
        let mut reference = Reference::new(n);
        for &(u, v, w) in &edges {
            reference.add(u, v, w);
        }
        let g = Graph::from_edges(n, edges).unwrap();
        assert_bitwise_equal(&g, &reference, "random edge list");
        let vertices: Vec<usize> = (0..n).rev().step_by(2).collect();
        let sub = g.induced_subgraph(&vertices).unwrap();
        assert_bitwise_equal(&sub, &reference.induced_subgraph(&vertices), "random induced");
    }
}
