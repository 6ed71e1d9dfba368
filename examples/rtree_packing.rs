//! R-tree packing — and the limits of spectral optimality.
//!
//! The paper lists R-tree packing among the applications where Spectral
//! LPM could replace fractal curves. This example packs R-trees by Sweep,
//! Hilbert and Spectral orders and reports packing quality and query cost —
//! an *honest* demonstration: Hilbert wins this application (its quadrant
//! recursion tiles leaves perfectly), which is precisely why Hilbert-packed
//! R-trees became the standard. Optimality for the spectral relaxation is
//! not optimality for every downstream cost model.
//!
//! Run with: `cargo run --release --example rtree_packing`

use slpm_querysim::mappings::curve_order;
use slpm_storage::{Mbr, PackedRTree};
use spectral_lpm_repro::prelude::*;

fn main() {
    let side = 16usize;
    let spec = GridSpec::cube(side, 2);
    let points: Vec<Vec<i64>> = spec
        .iter_points()
        .map(|c| c.into_iter().map(|x| x as i64).collect())
        .collect();

    let sweep = curve_order(&spec, &SweepCurve::new(&[16, 16]).unwrap());
    let hilbert = curve_order(&spec, &HilbertCurve::from_side(2, 16).unwrap());
    let spectral = SpectralMapper::new(SpectralConfig::default())
        .map_grid_on(&spec, &Pool::default())
        .expect("grid connected")
        .order;

    println!("Packing {} points into R-trees (fanout 8):\n", points.len());
    println!(
        "{:>10}  {:>12}  {:>12}  {:>8}  {:>14}",
        "order", "leaf volume", "leaf margin", "height", "nodes visited"
    );
    for (name, order) in [
        ("Sweep", &sweep),
        ("Hilbert", &hilbert),
        ("Spectral", &spectral),
    ] {
        let tree = PackedRTree::pack(&points, order, 8);
        // Query workload: every 4×4 window.
        let mut visited = 0usize;
        for x in 0..=side - 4 {
            for y in 0..=side - 4 {
                let q = Mbr {
                    lo: vec![x as i64, y as i64],
                    hi: vec![(x + 3) as i64, (y + 3) as i64],
                };
                let (results, cost) = tree.range_query(&q);
                assert_eq!(results.len(), 16, "every 4x4 window holds 16 points");
                visited += cost.nodes_visited;
            }
        }
        println!(
            "{:>10}  {:>12}  {:>12}  {:>8}  {:>14}",
            name,
            tree.total_leaf_volume(),
            tree.total_leaf_margin(),
            tree.height(),
            visited
        );
    }

    println!(
        "\nHilbert's recursive tiles give the tightest leaves and the fewest node\n\
         visits; the spectral order's diagonal level-sets pack poorly here.\n\
         Compare with `slpm experiment knn`, where the roles flip."
    );
}
