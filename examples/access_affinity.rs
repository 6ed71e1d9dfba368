//! Section 4's extensibility scenario: access-affinity edges.
//!
//! "Whenever point p is accessed, point q will be accessed soon
//! afterwards." We simulate such a correlated access trace, mine affinity
//! edges from it, feed them to Spectral LPM, and show that the hot pair
//! moves together in the 1-D order — at a measurable (small) cost to
//! everyone else.
//!
//! Run with: `cargo run --release --example access_affinity`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spectral_lpm::affinity::{affinity_from_trace, apply_affinity};
use spectral_lpm::objective;
use spectral_lpm_repro::prelude::*;

fn main() {
    let side = 8usize;
    let spec = GridSpec::cube(side, 2);
    let base = spec.graph(Connectivity::Orthogonal);
    let n = spec.num_points();

    // The hot pair: two far-apart points that an application always
    // accesses back to back (say, a junction and its overview tile).
    let p = spec.index_of(&[1, 1]);
    let q = spec.index_of(&[6, 6]);

    // Simulate an access trace: mostly uniform, but p is followed by q
    // (and vice versa) 30% of the time.
    let mut rng = StdRng::seed_from_u64(42);
    let mut trace = Vec::with_capacity(4000);
    while trace.len() < 4000 {
        let v = rng.gen_range(0..n);
        trace.push(v);
        if v == p && rng.gen_bool(0.9) {
            trace.push(q);
        } else if v == q && rng.gen_bool(0.9) {
            trace.push(p);
        }
    }

    // Mine affinity edges from the trace (window 1 = immediate successor).
    let mut edges = affinity_from_trace(n, &trace, 1);
    // Keep only significant correlations. A specific random pair appears
    // ~|trace| · 2/n² ≈ 2 times; the planted pair appears ~60 times, so a
    // threshold at 15 isolates real correlations from noise.
    edges.retain(|e| e.weight >= 15.0);
    println!(
        "Mined {} significant affinity edge(s) from a {}-access trace:",
        edges.len(),
        trace.len()
    );
    for e in &edges {
        println!(
            "  {:?} <-> {:?}  weight {:.1}",
            spec.coords_of(e.u),
            spec.coords_of(e.v),
            e.weight
        );
    }

    // Map without and with affinity.
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let plain = mapper
        .map_graph_on(&base, &Pool::default())
        .expect("connected");
    let affine = mapper
        .map_graph_with_affinity(&base, &edges, &Pool::default())
        .expect("connected");

    let extended = apply_affinity(&base, &edges).expect("edges validated");
    println!(
        "\nGraph: {} base edges, {} with affinity",
        base.num_edges(),
        extended.num_edges()
    );
    println!(
        "\n1-D distance of the hot pair {:?} <-> {:?}:",
        spec.coords_of(p),
        spec.coords_of(q)
    );
    println!("  without affinity: {}", plain.order.distance(p, q));
    println!("  with affinity:    {}", affine.order.distance(p, q));
    println!(
        "\nArrangement cost on the *base* grid (2-sum, lower = better locality for everyone):"
    );
    println!(
        "  without affinity: {:.1}",
        objective::two_sum_cost(&base, &plain.order)
    );
    println!(
        "  with affinity:    {:.1}",
        objective::two_sum_cost(&base, &affine.order)
    );
    println!(
        "\nThe affinity edge buys the hot pair proximity at a global cost to the\n\
         rest of the arrangement — the trade Section 4 of the paper describes.\n\
         The heavier the edge (or the more edges mined), the stronger the pull\n\
         and the higher the cost; see `slpm experiment ablations` for the full\n\
         weight sweep."
    );
}
