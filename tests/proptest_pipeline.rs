//! Cross-crate property tests: invariants that must hold for every grid
//! shape and every mapping the workspace can produce.

use proptest::prelude::*;
use slpm_querysim::mappings::MappingSet;
use slpm_querysim::metrics;
use slpm_storage::{cluster_count, PageLayout, PageMapper};
use spectral_lpm::objective;
use spectral_lpm_repro::prelude::*;

/// Power-of-two hypercube specs small enough for exhaustive checks.
fn cube_spec() -> impl Strategy<Value = GridSpec> {
    prop_oneof![
        Just(GridSpec::cube(2, 2)),
        Just(GridSpec::cube(4, 2)),
        Just(GridSpec::cube(8, 2)),
        Just(GridSpec::cube(2, 3)),
        Just(GridSpec::cube(4, 3)),
        Just(GridSpec::cube(2, 4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_mapping_is_a_bijection(spec in cube_spec()) {
        let set = MappingSet::extended_set(&spec).unwrap();
        let n = spec.num_points();
        for (label, order) in set.iter() {
            let mut seen = vec![false; n];
            for v in 0..n {
                let r = order.rank_of(v);
                prop_assert!(r < n, "{label}");
                prop_assert!(!seen[r], "{label}: duplicate rank {r}");
                seen[r] = true;
                prop_assert_eq!(order.vertex_at(r), v, "{}", label);
            }
        }
    }

    #[test]
    fn lambda2_bounds_all_integer_orders(spec in cube_spec()) {
        let graph = spec.graph(Connectivity::Orthogonal);
        let mapping = SpectralMapper::new(SpectralConfig::default())
            .map_graph_on(&graph, &Pool::default())
            .unwrap();
        let set = MappingSet::extended_set(&spec).unwrap();
        for (label, order) in set.iter() {
            let sigma = objective::order_quadratic_form(&graph, order);
            prop_assert!(
                sigma >= mapping.fiedler.lambda2 - 1e-8,
                "{label}: σ {sigma} < λ₂ {}", mapping.fiedler.lambda2
            );
        }
    }

    #[test]
    fn span_bounds_distance_for_contained_pairs(spec in cube_spec()) {
        // For any two vertices inside a range box, their 1-D distance is at
        // most the box's span.
        let set = MappingSet::paper_set(&spec).unwrap();
        let sides: Vec<usize> = spec.dims().iter().map(|&d| (d / 2).max(1)).collect();
        for (label, order) in set.iter() {
            slpm_querysim::workloads::for_each_box(&spec, &sides, |b| {
                let idx: Vec<usize> = b.indices(&spec).collect();
                let span = metrics::range_span(&spec, order, b);
                for w in idx.windows(2) {
                    assert!(
                        order.distance(w[0], w[1]) <= span,
                        "{label}: pair distance exceeds span"
                    );
                }
            });
        }
    }

    #[test]
    fn cluster_count_at_most_page_count_at_most_volume(spec in cube_spec()) {
        let set = MappingSet::paper_set(&spec).unwrap();
        let sides: Vec<usize> = spec.dims().iter().map(|&d| (d / 2).max(1)).collect();
        for (_, order) in set.iter() {
            let mapper = PageMapper::new(order, PageLayout::new(4));
            slpm_querysim::workloads::for_each_box(&spec, &sides, |b| {
                let idx: Vec<usize> = b.indices(&spec).collect();
                let clusters = cluster_count(order, idx.iter().copied());
                let pages = mapper.page_count(idx.iter().copied());
                let runs = mapper.page_runs(idx.iter().copied());
                assert!(clusters >= 1);
                assert!(clusters <= idx.len());
                assert!(pages <= idx.len());
                assert!(runs <= pages);
                // Page runs can't exceed rank clusters (pages merge ranks).
                assert!(runs <= clusters);
            });
        }
    }

    #[test]
    fn boundary_stretch_is_bandwidth(spec in cube_spec()) {
        // metrics::boundary_stretch (pair workload) must equal the
        // objective::bandwidth (graph edges) on the orthogonal grid graph.
        let graph = spec.graph(Connectivity::Orthogonal);
        let set = MappingSet::paper_set(&spec).unwrap();
        for (label, order) in set.iter() {
            let a = metrics::boundary_stretch(&spec, order);
            let b = objective::bandwidth(&graph, order);
            prop_assert_eq!(a, b, "{}", label);
        }
    }

    #[test]
    fn reversal_preserves_all_paper_metrics(spec in cube_spec()) {
        // The spectral order's reversal (eigenvector sign flip) must have
        // identical locality metrics — the canonical symmetry.
        let mapping = SpectralMapper::new(SpectralConfig::default())
            .map_grid_on(&spec, &Pool::default())
            .unwrap();
        let fwd = &mapping.order;
        let rev = fwd.reversed();
        let s_f = metrics::pair_distance_stats(&spec, fwd, 1);
        let s_r = metrics::pair_distance_stats(&spec, &rev, 1);
        prop_assert_eq!(s_f.max, s_r.max);
        prop_assert!((s_f.mean - s_r.mean).abs() < 1e-9);
        let graph = spec.graph(Connectivity::Orthogonal);
        prop_assert!(
            (objective::two_sum_cost(&graph, fwd) - objective::two_sum_cost(&graph, &rev)).abs()
                < 1e-9
        );
    }
}
