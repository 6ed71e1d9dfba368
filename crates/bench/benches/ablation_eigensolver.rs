//! Ablation bench: cost of shift-invert Lanczos against the dense path as
//! the grid grows. Shift-invert does few, expensive (CG) iterations; dense
//! is cubic.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::{fiedler_pair_on, FiedlerMethod, FiedlerOptions};
use slpm_linalg::Pool;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_eigensolver");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for side in [8usize, 16, 24] {
        let spec = GridSpec::cube(side, 2);
        let lap = spec.graph(Connectivity::Orthogonal).laplacian();
        for method in [FiedlerMethod::ShiftInvert, FiedlerMethod::Dense] {
            // Dense at 24^2=576 is already slow-ish but fine for n=10.
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
