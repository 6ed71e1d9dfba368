//! Scaling study: Fiedler computation cost versus grid size.
//!
//! Demonstrates that the shift-invert path handles production-sized point
//! sets: square grids from 16x16 up to 256x256 (65 536 vertices). Prints
//! wall time, lambda_2 against the closed form, and the residual.
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::{fiedler_pair_on, FiedlerOptions};
use slpm_linalg::Pool;
use std::time::Instant;

fn main() {
    println!(
        "{:>9}  {:>8}  {:>12}  {:>12}  {:>9}  {:>9}",
        "grid", "vertices", "lambda2", "closed form", "residual", "time"
    );
    for side in [16usize, 32, 64, 128, 256] {
        let spec = GridSpec::cube(side, 2);
        let lap = spec.graph(Connectivity::Orthogonal).laplacian();
        let t = Instant::now();
        let pair = fiedler_pair_on(&lap, &FiedlerOptions::default(), &Pool::default())
            .expect("connected grid");
        let elapsed = t.elapsed();
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * side as f64)).sin().powi(2);
        println!(
            "{:>6}^2  {:>8}  {:>12.3e}  {:>12.3e}  {:>9.1e}  {:>8.2?}",
            side,
            spec.num_points(),
            pair.lambda2,
            expect,
            pair.residual,
            elapsed
        );
    }
}
