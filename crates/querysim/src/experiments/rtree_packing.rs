//! R-tree packing experiment — one of the applications the paper lists.
//!
//! Pack a static R-tree (Kamel–Faloutsos style) by each linear order and
//! measure (a) packing quality — total leaf MBR volume and margin — and
//! (b) query performance — node/leaf accesses over an exhaustive range-
//! query workload.
//!
//! Measured outcome (see EXPERIMENTS.md): this application *reverses* the
//! paper's story. R-tree packing rewards tiling — leaves should be compact
//! boxes — and the fractal curves' quadrant recursion produces exactly
//! that, while the spectral order's Fiedler level-sets form overlapping
//! diagonal bands with fat MBRs. A useful reminder that "optimal for the
//! 2-sum relaxation" is not "optimal for every downstream cost model".

use crate::mappings::MappingSet;
use crate::workloads;
use serde::Serialize;
use slpm_graph::grid::GridSpec;
use slpm_storage::{Mbr, PackedRTree, PlanScratch};

/// Configuration of the R-tree packing experiment.
#[derive(Debug, Clone, Serialize)]
pub struct RtreeConfig {
    /// Grid side (power of two).
    pub side: usize,
    /// Dimensionality.
    pub ndim: usize,
    /// Leaf/internal fanout.
    pub fanout: usize,
    /// Query box side in cells.
    pub query_side: usize,
}

impl Default for RtreeConfig {
    fn default() -> Self {
        RtreeConfig {
            side: 16,
            ndim: 2,
            fanout: 8,
            query_side: 4,
        }
    }
}

impl RtreeConfig {
    /// Reduced configuration for tests.
    pub fn quick() -> Self {
        RtreeConfig {
            side: 8,
            ndim: 2,
            fanout: 4,
            query_side: 2,
        }
    }
}

/// One mapping's packing summary.
#[derive(Debug, Clone, Serialize)]
pub struct RtreeRow {
    /// Mapping name.
    pub mapping: String,
    /// Sum of leaf MBR volumes (lower = tighter packing).
    pub leaf_volume: u128,
    /// Sum of leaf MBR margins.
    pub leaf_margin: i64,
    /// Total node accesses over the query workload.
    pub nodes_visited: usize,
    /// Total leaf accesses over the query workload.
    pub leaves_visited: usize,
    /// Total results returned (identical for every mapping — correctness
    /// cross-check).
    pub results: usize,
}

/// Run the packing experiment over every placement of a
/// `query_side`-hypercube.
pub fn run(cfg: &RtreeConfig) -> Vec<RtreeRow> {
    let spec = GridSpec::cube(cfg.side, cfg.ndim);
    let set = MappingSet::paper_set(&spec).expect("power-of-two grid");
    let points: Vec<Vec<i64>> = spec
        .iter_points()
        .map(|c| c.into_iter().map(|x| x as i64).collect())
        .collect();
    let sides = vec![cfg.query_side; cfg.ndim];

    set.iter()
        .map(|(label, order)| {
            let tree = PackedRTree::pack(&points, order, cfg.fanout);
            let mut nodes = 0usize;
            let mut leaves = 0usize;
            let mut results = 0usize;
            let mut scratch = PlanScratch::default();
            workloads::for_each_box(&spec, &sides, |b| {
                let q = Mbr {
                    lo: b.lo.iter().map(|&x| x as i64).collect(),
                    hi: b.hi.iter().map(|&x| x as i64).collect(),
                };
                let (_, cost) = tree.range_query(&q, &mut scratch);
                nodes += cost.nodes_visited;
                leaves += cost.leaves_visited;
                results += cost.results;
            });
            RtreeRow {
                mapping: label.to_string(),
                leaf_volume: tree.total_leaf_volume(),
                leaf_margin: tree.total_leaf_margin(),
                nodes_visited: nodes,
                leaves_visited: leaves,
                results,
            }
        })
        .collect()
}

/// Render the rows as a text table.
pub fn render(rows: &[RtreeRow], cfg: &RtreeConfig) -> String {
    let mut t = crate::table::TextTable::new([
        "mapping",
        "leaf volume",
        "leaf margin",
        "nodes visited",
        "leaves visited",
    ]);
    for r in rows {
        t.push_row([
            r.mapping.clone(),
            r.leaf_volume.to_string(),
            r.leaf_margin.to_string(),
            r.nodes_visited.to_string(),
            r.leaves_visited.to_string(),
        ]);
    }
    format!(
        "== R-tree packing: {0}^{1} grid, fanout {2}, {3}-cube queries ==\n{4}",
        cfg.side,
        cfg.ndim,
        cfg.fanout,
        cfg.query_side,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_mappings_return_identical_results() {
        let rows = run(&RtreeConfig::quick());
        assert_eq!(rows.len(), 5);
        let expect = rows[0].results;
        for r in &rows {
            assert_eq!(
                r.results, expect,
                "{} returned different results",
                r.mapping
            );
        }
    }

    #[test]
    fn spatial_orders_pack_tighter_than_sweep_row_runs() {
        // With fanout 4 on an 8×8 grid, Sweep leaves are half-rows (volume
        // 4 each, total 64); Hilbert's leaves are 2×2 squares (volume 4,
        // total 64) — equal volume but Hilbert has lower margin (squares
        // beat 1×4 strips).
        let rows = run(&RtreeConfig::quick());
        let get = |name: &str| rows.iter().find(|r| r.mapping == name).unwrap();
        assert!(get("Hilbert").leaf_margin <= get("Sweep").leaf_margin);
    }

    #[test]
    fn fractals_pack_tighter_than_spectral() {
        // The honest counterpoint to the paper's universal-superiority
        // claim (documented in EXPERIMENTS.md): R-tree packing rewards
        // *tiling* quality, and the quadrant recursion of the fractal
        // curves produces perfectly tiled square leaves, while the spectral
        // order's level-set bands overlap — Kamel–Faloutsos were right to
        // pick Hilbert for this application.
        let rows = run(&RtreeConfig::quick());
        let get = |name: &str| rows.iter().find(|r| r.mapping == name).unwrap();
        assert!(get("Hilbert").leaf_volume <= get("Spectral").leaf_volume);
        assert!(get("Hilbert").leaves_visited <= get("Spectral").leaves_visited);
    }

    #[test]
    fn render_contains_mappings() {
        let cfg = RtreeConfig::quick();
        let s = render(&run(&cfg), &cfg);
        for name in ["Sweep", "Peano", "Gray", "Hilbert", "Spectral"] {
            assert!(s.contains(name));
        }
    }
}
