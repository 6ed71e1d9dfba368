//! Figure 4 — Spectral LPM variations: 4- vs 8-connectivity on a 4×4 grid.
//!
//! Section 4 shows that the graph model is a free parameter: the same 4×4
//! point set mapped under four-connectivity (Figures 4a/4b) and
//! eight-connectivity (4c/4d) yields different — both optimal for their
//! graph — spectral orders. This runner reproduces both orders and their
//! eigen diagnostics.

use serde::Serialize;
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::Pool;
use spectral_lpm::{objective, SpectralConfig, SpectralMapper};

/// One connectivity variant's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct VariantResult {
    /// "4-connectivity" or "8-connectivity".
    pub name: String,
    /// λ₂ of the variant's Laplacian.
    pub lambda2: f64,
    /// Rank of each vertex, laid out as grid rows (row-major).
    pub rank_grid: Vec<Vec<usize>>,
    /// 2-sum arrangement cost of the produced order on the variant graph.
    pub two_sum: f64,
    /// Arrangement bandwidth on the variant graph.
    pub bandwidth: usize,
}

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Result {
    /// Grid side (paper: 4).
    pub side: usize,
    /// The two variants.
    pub variants: Vec<VariantResult>,
}

impl Fig4Result {
    /// Render both variants as rank grids.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== Figure 4: spectral order variants on the {0}×{0} grid ==\n",
            self.side
        );
        for v in &self.variants {
            s.push_str(&format!(
                "\n{} (lambda_2 = {:.4}, 2-sum = {:.0}, bandwidth = {}):\n",
                v.name, v.lambda2, v.two_sum, v.bandwidth
            ));
            for row in &v.rank_grid {
                let cells: Vec<String> = row.iter().map(|r| format!("{r:>3}")).collect();
                s.push_str(&format!("  {}\n", cells.join(" ")));
            }
        }
        s
    }
}

/// Run both connectivity variants on a `side × side` grid.
pub fn run(side: usize) -> Fig4Result {
    let spec = GridSpec::cube(side, 2);
    let variants = [
        ("4-connectivity", Connectivity::Orthogonal),
        ("8-connectivity", Connectivity::Full),
    ]
    .into_iter()
    .map(|(name, conn)| {
        let graph = spec.graph(conn);
        let mapper = SpectralMapper::new(SpectralConfig {
            connectivity: conn,
            ..Default::default()
        });
        let mapping = mapper
            .map_graph_on(&graph, &Pool::default())
            .expect("grid is connected");
        let rank_grid: Vec<Vec<usize>> = (0..side)
            .map(|r| {
                (0..side)
                    .map(|c| mapping.order.rank_of(spec.index_of(&[r, c])))
                    .collect()
            })
            .collect();
        VariantResult {
            name: name.to_string(),
            lambda2: mapping.fiedler.lambda2,
            two_sum: objective::two_sum_cost(&graph, &mapping.order),
            bandwidth: objective::bandwidth(&graph, &mapping.order),
            rank_grid,
        }
    })
    .collect();
    Fig4Result { side, variants }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_variants_produced() {
        let r = run(4);
        assert_eq!(r.variants.len(), 2);
        assert_eq!(r.variants[0].name, "4-connectivity");
        assert_eq!(r.variants[1].name, "8-connectivity");
    }

    #[test]
    fn rank_grids_are_permutations() {
        let r = run(4);
        for v in &r.variants {
            let mut all: Vec<usize> = v.rank_grid.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..16).collect::<Vec<usize>>(), "{}", v.name);
        }
    }

    #[test]
    fn variants_differ() {
        let r = run(4);
        assert_ne!(r.variants[0].rank_grid, r.variants[1].rank_grid);
    }

    #[test]
    fn eight_connectivity_has_larger_lambda2() {
        // More edges ⇒ better algebraic connectivity.
        let r = run(4);
        assert!(r.variants[1].lambda2 > r.variants[0].lambda2);
    }

    #[test]
    fn render_shows_grids() {
        let s = run(4).render();
        assert!(s.contains("4-connectivity"));
        assert!(s.contains("8-connectivity"));
        assert!(s.contains("lambda_2"));
    }
}
