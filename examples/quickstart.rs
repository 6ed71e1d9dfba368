//! Quickstart: map an 8×8 grid with Spectral LPM and compare it against the
//! Hilbert curve on the paper's basic locality question.
//!
//! Run with: `cargo run --release --example quickstart`

use spectral_lpm_repro::prelude::*;

fn main() {
    // 1. The multi-dimensional space: an 8×8 grid of points.
    let spec = GridSpec::cube(8, 2);

    // 2. Spectral LPM (paper Figure 2): graph → Laplacian → Fiedler vector
    //    → linear order.
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let mapping = mapper
        .map_grid_on(&spec, &Pool::default())
        .expect("grid is connected");
    println!(
        "Spectral LPM on the 8x8 grid: lambda_2 = {:.6}, eigen-residual = {:.2e}",
        mapping.fiedler.lambda2, mapping.fiedler.residual
    );

    // 3. A fractal competitor: the Hilbert curve.
    let hilbert = HilbertCurve::from_side(2, 8).expect("8 is a power of two");
    let hilbert_order = slpm_querysim::mappings::curve_order(&spec, &hilbert);

    // 4. Show both orders as rank grids.
    for (name, order) in [("Spectral", &mapping.order), ("Hilbert", &hilbert_order)] {
        println!("\n{name} order (rank of each grid cell):");
        for x in 0..8 {
            let row: Vec<String> = (0..8)
                .map(|y| format!("{:>3}", order.rank_of(spec.index_of(&[x, y]))))
                .collect();
            println!("  {}", row.join(" "));
        }
    }

    // 5. The paper's basic question: how far apart can two adjacent points
    //    land in 1-D?
    println!();
    for (name, order) in [("Spectral", &mapping.order), ("Hilbert", &hilbert_order)] {
        let stats = slpm_querysim::metrics::pair_distance_stats(&spec, order, 1);
        println!(
            "{name:>8}: adjacent pairs land max {} / mean {:.2} positions apart",
            stats.max, stats.mean
        );
    }
    println!("\nLower is better — the spectral order avoids the fractal boundary effect.");
}
