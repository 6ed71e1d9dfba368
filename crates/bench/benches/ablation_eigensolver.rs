//! Ablation bench: cost of the multilevel solver against the dense path as
//! the grid grows. Multilevel solves up to 256 vertices with the dense path
//! itself, so every size here is above that; dense is cubic.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::{fiedler_pair_on, FiedlerMethod, FiedlerOptions};
use slpm_linalg::Pool;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_eigensolver");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for side in [20usize, 24, 28] {
        let spec = GridSpec::cube(side, 2);
        let lap = spec.graph(Connectivity::Orthogonal).laplacian();
        for method in [FiedlerMethod::Multilevel, FiedlerMethod::Dense] {
            g.bench_with_input(
                BenchmarkId::new(method.to_string(), side * side),
                &lap,
                |b, lap| {
                    let opts = FiedlerOptions {
                        method: Some(method),
                        ..Default::default()
                    };
                    b.iter(|| {
                        fiedler_pair_on(std::hint::black_box(lap), &opts, &Pool::default()).unwrap()
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
