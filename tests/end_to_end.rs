//! End-to-end integration: grid → graph → eigensolver → order → metrics →
//! storage, across every workspace crate.

use slpm_querysim::mappings::{curve_order, MappingSet};
use slpm_querysim::workloads::RangeBox;
use slpm_querysim::{metrics, workloads};
use slpm_storage::decluster::{query_response_time, Declustering};
use slpm_storage::{cluster_count, IoModel, PageLayout, PageMapper, RoundRobin};
use spectral_lpm_repro::prelude::*;

#[test]
fn full_pipeline_on_8x8_grid() {
    // Map.
    let spec = GridSpec::cube(8, 2);
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let mapping = mapper
        .map_grid_on(&spec, &Pool::default())
        .expect("connected grid");
    assert_eq!(mapping.order.len(), 64);
    assert!(mapping.fiedler.lambda2 > 0.0);
    assert!(mapping.fiedler.residual < 1e-6);

    // Measure.
    let adj = metrics::pair_distance_stats(&spec, &mapping.order, 1);
    assert!(adj.max >= 1);
    assert!(adj.count > 0);

    // Store.
    let pages = PageMapper::new(&mapping.order, PageLayout::new(8));
    assert_eq!(pages.num_pages(), 8);
    let q = RangeBox {
        lo: vec![2, 2],
        hi: vec![4, 4],
    };
    let vertices: Vec<usize> = q.indices(&spec).collect();
    assert_eq!(vertices.len(), 9);
    let io = IoModel::default().query_cost(&pages, vertices.iter().copied());
    assert!(io.pages >= 1 && io.pages <= 9);
    assert!(io.runs >= 1 && io.runs <= io.pages);

    // Decluster.
    let rr = RoundRobin::new(4);
    let rt = query_response_time(&pages, &rr, vertices.iter().copied());
    assert!(rt >= 1 && rt <= io.pages);
    assert!(rt >= io.pages.div_ceil(rr.num_disks()));
}

#[test]
fn lambda2_lower_bounds_every_mapping_objective() {
    // Theorems 1–3 across crates: the Fiedler relaxation value λ₂ is a
    // lower bound for the normalised 2-sum of every curve's integer order.
    use spectral_lpm::objective;
    let spec = GridSpec::cube(4, 2);
    let graph = spec.graph(Connectivity::Orthogonal);
    let mapping = SpectralMapper::new(SpectralConfig::default())
        .map_graph_on(&graph, &Pool::default())
        .unwrap();
    let lambda2 = mapping.fiedler.lambda2;
    let set = MappingSet::extended_set(&spec).unwrap();
    for (label, order) in set.iter() {
        let sigma = objective::order_quadratic_form(&graph, order);
        assert!(
            sigma >= lambda2 - 1e-9,
            "{label}: σ = {sigma} < λ₂ = {lambda2}"
        );
    }
}

#[test]
fn spectral_beats_fractals_on_worst_adjacent_distance_16x16() {
    let spec = GridSpec::cube(16, 2);
    let set = MappingSet::paper_set(&spec).unwrap();
    let worst = |label: &str| {
        let order = set
            .iter()
            .find(|(l, _)| l.to_string() == label)
            .map(|(_, o)| o)
            .unwrap();
        metrics::pair_distance_stats(&spec, order, 1).max
    };
    let spectral = worst("Spectral");
    for fractal in ["Peano", "Gray", "Hilbert"] {
        assert!(
            spectral < worst(fractal),
            "Spectral {spectral} not better than {fractal} {}",
            worst(fractal)
        );
    }
}

#[test]
fn hilbert_curve_and_graph_agree_on_adjacency() {
    // Cross-crate consistency: consecutive Hilbert ranks are grid-graph
    // neighbours (curve steps are edges of the orthogonal grid graph).
    let spec = GridSpec::cube(8, 2);
    let g = spec.graph(Connectivity::Orthogonal);
    let order = curve_order(&spec, &HilbertCurve::from_side(2, 8).unwrap());
    for p in 1..order.len() {
        let u = order.vertex_at(p - 1);
        let v = order.vertex_at(p);
        assert!(g.has_edge(u, v), "rank step {p} is not a grid edge");
    }
}

#[test]
fn snake_orders_have_unit_steps_and_single_cluster_rows() {
    let spec = GridSpec::cube(8, 2);
    let order = curve_order(&spec, &SnakeCurve::new(&[8, 8]).unwrap());
    // Each full row of the grid is one cluster (contiguous ranks).
    for x in 0..8 {
        let row: Vec<usize> = (0..8).map(|y| spec.index_of(&[x, y])).collect();
        assert_eq!(cluster_count(&order, row), 1, "row {x}");
    }
}

#[test]
fn point_set_and_grid_pipelines_agree() {
    use slpm_graph::points::PointSet;
    let spec = GridSpec::new(&[4, 5]);
    let mapper = SpectralMapper::new(SpectralConfig::default());
    let via_grid = mapper.map_grid_on(&spec, &Pool::default()).unwrap();
    let via_points = mapper
        .map_points_on(&PointSet::from_grid(&spec), &Pool::default())
        .unwrap();
    assert_eq!(via_grid.order.ranks(), via_points.order.ranks());
    assert!((via_grid.fiedler.lambda2 - via_points.fiedler.lambda2).abs() < 1e-12);
}

#[test]
fn workload_generators_consistent_with_metrics() {
    let spec = GridSpec::cube(4, 3);
    let set = MappingSet::paper_set(&spec).unwrap();
    let (_, order) = set.iter().next().unwrap();
    // The max over explicitly generated pairs equals the stats max.
    let mut explicit_max = 0usize;
    workloads::for_each_pair_at_distance(&spec, 2, |i, j| {
        explicit_max = explicit_max.max(order.distance(i, j));
    });
    let stats = metrics::pair_distance_stats(&spec, order, 2);
    assert_eq!(stats.max, explicit_max);
}

#[test]
fn disconnected_point_set_is_rejected_end_to_end() {
    use slpm_graph::points::PointSet;
    let pts = PointSet::new(vec![vec![0, 0], vec![5, 5]]).unwrap();
    let err = SpectralMapper::new(SpectralConfig::default())
        .map_points_on(&pts, &Pool::default())
        .unwrap_err();
    assert!(err.to_string().contains("disconnected"));
}
