//! Differential test of the Galerkin coarsening against the triplet remap
//! it replaced: every fine entry `(i, j, v)` moved to
//! `(parent[i], parent[j])` and the list handed to
//! `CsrMatrix::from_triplets`, whose stable sort sums repeated coordinates
//! in row order. `coarsen_laplacian` builds the coarse rows directly; every
//! coarse entry must agree bit for bit, level after level.
//!
//! Integer weights sum exactly in any order, so the non-integer inputs —
//! weighted grids, inverse-distance graphs and random weighted graphs —
//! are the ones that pin the summation order.

use proptest::prelude::*;
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::points::PointSet;
use slpm_graph::Graph;
use slpm_linalg::multilevel::coarsen_laplacian;
use slpm_linalg::{with_threads, CsrMatrix, Hierarchy, MultilevelOptions, Pool};

/// The coarse operator by the triplet remap.
fn remapped(fine: &CsrMatrix, parent: &[u32]) -> CsrMatrix {
    let parent: Vec<usize> = parent.iter().map(|&p| p as usize).collect();
    let nc = parent.iter().max().map_or(0, |&p| p + 1);
    let parent = &parent;
    let triplets: Vec<(usize, usize, f64)> = (0..fine.rows())
        .flat_map(|i| {
            fine.row_iter(i)
                .map(move |(j, v)| (parent[i], parent[j], v))
        })
        .collect();
    CsrMatrix::from_triplets(nc, nc, &triplets).unwrap()
}

fn bits(m: &CsrMatrix) -> Vec<Vec<(usize, u64)>> {
    (0..m.rows())
        .map(|i| m.row_iter(i).map(|(j, v)| (j, v.to_bits())).collect())
        .collect()
}

/// Coarsen `graph`'s Laplacian down to a few vertices on `pool` and check
/// every level against the remap of the level above; returns the number
/// of levels.
fn check_levels(graph: &Graph, what: &str, pool: &Pool<'_>) -> usize {
    let fine = graph.laplacian();
    let opts = MultilevelOptions {
        coarsest_size: 8,
        ..Default::default()
    };
    let hierarchy = Hierarchy::build(&fine, 3, &opts, pool).unwrap();
    let mut above = &fine;
    for (depth, level) in hierarchy.levels.iter().enumerate() {
        assert_eq!(
            bits(&level.coarse),
            bits(&remapped(above, &level.parent)),
            "{what}: level {}",
            depth + 1
        );
        above = &level.coarse;
    }
    hierarchy.levels.len()
}

/// A `w × h` grid with a disc hole in every 10 × 10 cell.
fn holey(w: i64, h: i64) -> PointSet {
    let pts = (0..w)
        .flat_map(|x| (0..h).map(move |y| (x, y)))
        .filter(|&(x, y)| (x % 10 - 5).pow(2) + (y % 10 - 5).pow(2) > 6)
        .map(|(x, y)| vec![x, y])
        .collect();
    PointSet::new(pts).unwrap()
}

/// Non-integer weights that vary from edge to edge.
fn uneven(a: &[usize], b: &[usize]) -> f64 {
    let key: usize = a.iter().chain(b).fold(0, |k, &c| k * 31 + c);
    0.3 + (key % 17) as f64 / 7.0
}

#[test]
fn coarse_levels_equal_the_triplet_remap() {
    let serial = Pool::serial();
    let cases: Vec<(&str, Graph)> = vec![
        (
            "unit grid 60x50",
            GridSpec::new(&[60, 50]).graph(Connectivity::Orthogonal),
        ),
        (
            "unit grid 3-D",
            GridSpec::new(&[12, 10, 8]).graph(Connectivity::Full),
        ),
        ("holey set", holey(70, 40).manhattan_graph()),
        (
            "weighted grid 60x50",
            GridSpec::new(&[60, 50]).weighted_graph(Connectivity::Orthogonal, uneven),
        ),
        (
            "weighted grid 3-D",
            GridSpec::new(&[9, 8, 7]).weighted_graph(Connectivity::Full, uneven),
        ),
        (
            "inverse distance",
            PointSet::from_grid(&GridSpec::new(&[20, 15])).inverse_distance_graph(3),
        ),
        (
            "inverse distance, holey",
            holey(24, 18).inverse_distance_graph(2),
        ),
    ];
    for (what, graph) in &cases {
        let levels = check_levels(graph, what, &serial);
        assert!(levels >= 3, "{what}: only {levels} levels");
    }
}

#[test]
fn pooled_coarse_rows_equal_the_triplet_remap() {
    // Above the pool's engagement threshold, so the coarse rows are built
    // in chunks on several workers.
    let graph = GridSpec::new(&[200, 180]).weighted_graph(Connectivity::Orthogonal, uneven);
    let fine = graph.laplacian();
    let serial = coarsen_laplacian(&fine, &Pool::serial()).unwrap();
    assert_eq!(bits(&serial.coarse), bits(&remapped(&fine, &serial.parent)));
    for threads in [2, 3] {
        let pooled = with_threads(Some(threads), |pool| coarsen_laplacian(&fine, pool)).unwrap();
        assert_eq!(pooled.parent, serial.parent, "{threads} threads");
        assert_eq!(
            bits(&pooled.coarse),
            bits(&serial.coarse),
            "{threads} threads"
        );
    }
}

/// Random weighted graphs: a spanning path keeps them connected, extra
/// edges repeat pairs, and the weights are arbitrary positive reals.
fn weighted_graph() -> impl Strategy<Value = Graph> {
    (20usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.01f64..100.0, n - 1),
            proptest::collection::vec((0..n, 0..n, 0.01f64..100.0), 0..4 * n),
        )
            .prop_map(move |(path, extra)| {
                let edges = path
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| (i, i + 1, w))
                    .chain(extra.into_iter().filter(|&(u, v, _)| u != v));
                Graph::from_edges(n, edges).unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_weighted_graphs_coarsen_like_the_triplet_remap(graph in weighted_graph()) {
        check_levels(&graph, "random weighted graph", &Pool::serial());
    }
}
