//! Ablation bench: ordering strategies built on the same spectral machinery
//! (direct Fiedler vs recursive spectral bisection vs multi-vector).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::Pool;
use spectral_lpm::recursive::{multi_vector_order_on, rsb_order_on, RsbOptions};
use spectral_lpm::{SpectralConfig, SpectralMapper};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ordering");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for side in [8usize, 16] {
        let spec = GridSpec::cube(side, 2);
        let graph = spec.graph(Connectivity::Orthogonal);
        g.bench_with_input(BenchmarkId::new("direct", side), &graph, |b, graph| {
            let mapper = SpectralMapper::new(SpectralConfig::default());
            b.iter(|| {
                mapper
                    .map_graph_on(std::hint::black_box(graph), &Pool::default())
                    .unwrap()
            });
        });
        g.bench_with_input(BenchmarkId::new("rsb", side), &graph, |b, graph| {
            b.iter(|| {
                rsb_order_on(
                    std::hint::black_box(graph),
                    &RsbOptions::default(),
                    &Pool::default(),
                )
                .unwrap()
            });
        });
        g.bench_with_input(
            BenchmarkId::new("multi_vector", side),
            &graph,
            |b, graph| {
                b.iter(|| {
                    multi_vector_order_on(
                        std::hint::black_box(graph),
                        3,
                        1e-8,
                        &SpectralConfig::default(),
                        &Pool::default(),
                    )
                    .unwrap()
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
