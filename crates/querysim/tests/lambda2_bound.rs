//! The λ₂ bound as an oracle that needs no second solver: λ₂ is the
//! minimum of σ over the feasible set (Theorems 1–3), so every order's
//! `optimality_gap` (σ / λ₂) must be at least 1. A gap under 1 means λ₂
//! was overestimated.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::Pool;
use slpm_querysim::mappings::MappingSet;
use spectral_lpm::{OrderReport, SpectralConfig};

#[test]
fn every_extended_set_order_respects_the_lambda2_bound() {
    let config = SpectralConfig::default();
    let pool = Pool::default();
    for dims in [vec![8, 8], vec![16, 16], vec![4, 4, 4]] {
        let spec = GridSpec::new(&dims);
        let set = MappingSet::extended_set(&spec).unwrap();
        for connectivity in [Connectivity::Orthogonal, Connectivity::Full] {
            let graph = spec.graph(connectivity);
            let mut lambda2 = None;
            for (label, order) in set.iter() {
                let report = OrderReport::compute(&graph, order, lambda2, &config, &pool).unwrap();
                lambda2 = Some(report.lambda2);
                assert!(
                    report.optimality_gap() >= 1.0 - 1e-9,
                    "{dims:?} {connectivity:?} {label}: σ/λ₂ = {}",
                    report.optimality_gap()
                );
            }
        }
    }
}
