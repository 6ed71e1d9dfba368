//! Workspace smoke test: the `prelude` facade exports resolve and the
//! quickstart pipeline (GridSpec → Graph → SpectralMapper → LinearOrder)
//! runs end to end on a small grid. Guards against facade regressions —
//! a re-export dropped from `spectral_lpm_repro::prelude` fails this file
//! at compile time.

use spectral_lpm_repro::prelude::*;

#[test]
fn prelude_pipeline_runs_on_4x4_grid() {
    // Step 1: the multi-dimensional space and its neighbourhood graph.
    let spec = GridSpec::cube(4, 2);
    let graph: Graph = spec.graph(Connectivity::Orthogonal);
    assert_eq!(graph.num_vertices(), 16);
    assert_eq!(graph.num_edges(), 24);

    // Steps 2–5: Laplacian → Fiedler pair → linear order.
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let mapping = mapper
        .map_grid_on(&spec, &Pool::default())
        .expect("4x4 grid is connected");
    assert!(mapping.fiedler.lambda2 > 0.0, "connected graph has λ₂ > 0");
    assert!(mapping.fiedler.residual < 1e-6);

    // The order is a permutation of the 16 vertices.
    let order: &LinearOrder = &mapping.order;
    assert_eq!(order.len(), 16);
    let mut ranks: Vec<usize> = (0..16).map(|v| order.rank_of(v)).collect();
    ranks.sort_unstable();
    assert_eq!(ranks, (0..16).collect::<Vec<_>>());
}

#[test]
fn prelude_exports_cover_curves_and_storage() {
    // Space-filling-curve exports.
    let hilbert = HilbertCurve::from_side(2, 4).expect("4 is a power of two");
    let sweep = SweepCurve::new(&[4, 4]).expect("valid extents");
    assert_eq!(hilbert.num_points(), 16);
    assert_eq!(sweep.num_points(), 16);
    let coords = hilbert.decode(5);
    assert_eq!(hilbert.encode(&coords), 5);

    // Fiedler solver options are re-exported.
    let _ = FiedlerOptions {
        method: FiedlerMethod::Dense,
        ..Default::default()
    };

    // Storage exports: page placement over an order.
    let order = LinearOrder::identity(16);
    let pages = PageMapper::new(&order, PageLayout::new(4));
    assert_eq!(pages.num_pages(), 4);
}
