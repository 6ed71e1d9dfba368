//! Figure 3 — the paper's worked 3×3 example.
//!
//! The paper walks the whole algorithm on a 3×3 grid: the graph (3b), its
//! Laplacian (3c), λ₂ = 1 with Fiedler vector
//! X = (−0.01, −0.29, −0.57, 0.28, 0, −0.28, 0.57, 0.29, 0.01) and the
//! resulting spectral order S = (2, 1, 5, 0, 4, 8, 3, 7, 6) (3d/3e).
//!
//! λ₂ of the 3×3 grid has **multiplicity two** (the x- and y-modes are
//! degenerate), so the Fiedler vector — and hence S — is not unique: the
//! paper's X is one representative from the 2-dimensional eigenspace, and a
//! correct implementation may return a different one. What this runner
//! verifies is everything that *is* well-defined: the Laplacian matrix
//! entries, λ₂ = 1, the eigen-residual, and that the produced order is an
//! optimal-relaxation representative (its generating vector attains λ₂).

use serde::Serialize;
use slpm_graph::grid::GridSpec;
use slpm_linalg::Pool;
use spectral_lpm::{objective, SpectralConfig, SpectralMapper};

/// Result of re-running the paper's worked example.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Result {
    /// The 9×9 Laplacian, dense row-major (matches Figure 3c up to vertex
    /// numbering).
    pub laplacian: Vec<Vec<f64>>,
    /// λ₂ (paper: 1).
    pub lambda2: f64,
    /// The computed Fiedler vector (one valid representative).
    pub fiedler_vector: Vec<f64>,
    /// The spectral order as a visit sequence (vertex ids by ascending
    /// Fiedler value) — the paper's S.
    pub visit_sequence: Vec<usize>,
    /// Eigen-residual ‖Lv − λ₂v‖.
    pub residual: f64,
    /// σ(G, v) — must equal λ₂ (Theorems 1–3).
    pub objective_value: f64,
}

impl Fig3Result {
    /// Render the worked example like the paper's panels.
    pub fn render(&self) -> String {
        let mut s = String::from("== Figure 3: Spectral LPM on the 3×3 grid ==\n");
        s.push_str("Laplacian L(G):\n");
        for row in &self.laplacian {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:>3.0}")).collect();
            s.push_str(&format!("  [{}]\n", cells.join(" ")));
        }
        s.push_str(&format!("lambda_2 = {:.6}\n", self.lambda2));
        let xs: Vec<String> = self
            .fiedler_vector
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect();
        s.push_str(&format!("X = ({})\n", xs.join(", ")));
        s.push_str(&format!("S = {:?}\n", self.visit_sequence));
        s.push_str(&format!(
            "residual = {:.2e}, objective sigma(G, X) = {:.6}\n",
            self.residual, self.objective_value
        ));
        s
    }
}

/// Run the 3×3 worked example.
pub fn run() -> Fig3Result {
    let spec = GridSpec::new(&[3, 3]);
    let graph = spec.graph(Default::default());
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let mapping = mapper
        .map_graph_on(&graph, &Pool::default())
        .expect("3×3 grid is connected");

    let lap = graph.laplacian();
    let laplacian: Vec<Vec<f64>> = (0..9)
        .map(|i| (0..9).map(|j| lap.get(i, j)).collect())
        .collect();

    let objective_value = objective::quadratic_form(&graph, &mapping.fiedler.vector);

    Fig3Result {
        laplacian,
        lambda2: mapping.fiedler.lambda2,
        fiedler_vector: mapping.fiedler.vector.clone(),
        visit_sequence: mapping.order.permutation().to_vec(),
        residual: mapping.fiedler.residual,
        objective_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda2_is_one() {
        let r = run();
        assert!((r.lambda2 - 1.0).abs() < 1e-7, "λ₂ = {}", r.lambda2);
        assert!(r.residual < 1e-6);
    }

    #[test]
    fn laplacian_matches_figure_3c() {
        // Figure 3c (vertex ids row-major: 0..2 top row, 3..5 middle, 6..8
        // bottom — our ids are row-major too, so entries must match the
        // grid Laplacian: corners degree 2, edges 3, centre 4.
        let r = run();
        let l = &r.laplacian;
        assert_eq!(l[0][0], 2.0);
        assert_eq!(l[1][1], 3.0);
        assert_eq!(l[4][4], 4.0);
        assert_eq!(l[0][1], -1.0);
        assert_eq!(l[0][3], -1.0);
        assert_eq!(l[0][4], 0.0);
        // Symmetric with zero row sums.
        for i in 0..9 {
            assert!((l[i].iter().sum::<f64>()).abs() < 1e-12);
            for j in 0..9 {
                assert_eq!(l[i][j], l[j][i]);
            }
        }
    }

    #[test]
    fn objective_attains_lambda2() {
        let r = run();
        assert!(
            (r.objective_value - r.lambda2).abs() < 1e-7,
            "σ = {} vs λ₂ = {}",
            r.objective_value,
            r.lambda2
        );
    }

    #[test]
    fn visit_sequence_is_permutation_of_nine() {
        let r = run();
        let mut s = r.visit_sequence.clone();
        s.sort_unstable();
        assert_eq!(s, (0..9).collect::<Vec<usize>>());
    }

    #[test]
    fn fiedler_vector_in_lambda2_eigenspace() {
        // L v = v (λ₂ = 1): check component-wise.
        let spec = GridSpec::new(&[3, 3]);
        let lap = spec.graph(Default::default()).laplacian();
        let r = run();
        let lv = lap.matvec(&r.fiedler_vector).unwrap();
        for i in 0..9 {
            assert!(
                (lv[i] - r.fiedler_vector[i]).abs() < 1e-6,
                "component {i}: {} vs {}",
                lv[i],
                r.fiedler_vector[i]
            );
        }
    }

    #[test]
    fn paper_vector_is_also_valid() {
        // The paper's X must be (numerically, to its 2-decimal printing) an
        // eigenvector for λ₂ = 1 as well — confirming that the discrepancy
        // with our representative is pure eigenspace rotation.
        let spec = GridSpec::new(&[3, 3]);
        let lap = spec.graph(Default::default()).laplacian();
        let x = [-0.01, -0.29, -0.57, 0.28, 0.0, -0.28, 0.57, 0.29, 0.01];
        let lx = lap.matvec(&x).unwrap();
        for i in 0..9 {
            // Generous tolerance: the paper prints 2 decimals.
            assert!(
                (lx[i] - x[i]).abs() < 0.06,
                "paper vector violates L x = x at {i}: {} vs {}",
                lx[i],
                x[i]
            );
        }
    }

    #[test]
    fn render_shows_key_quantities() {
        let s = run().render();
        assert!(s.contains("lambda_2 = 1.0000"));
        assert!(s.contains("Laplacian"));
        assert!(s.contains("S = "));
    }
}
