//! Property tests for the streaming admission loop: whatever the arrival
//! process, micro-batch knobs and admission policy, the sequence of
//! queries a stream executes must produce **bitwise-identical**
//! `digest_outcomes` to a one-shot batch `run` of that same sequence —
//! streaming moves *when* work happens, never *what* it answers.

use proptest::prelude::*;
use slpm_graph::grid::GridSpec;
use slpm_serve::arrival::{ArrivalConfig, ArrivalShape};
use slpm_serve::engine::{EngineConfig, ServeEngine};
use slpm_serve::stream::{stream_serve, AdmissionPolicy, StreamConfig};
use slpm_serve::workload::{grid_points, mixed_workload_labeled, WorkloadConfig};
use spectral_lpm::LinearOrder;

/// One full streaming scenario: workload shape, arrival process, and the
/// admission knobs, all drawn together.
#[derive(Debug, Clone)]
struct Scenario {
    queries: usize,
    workload_seed: u64,
    knn_every: usize,
    shape: ArrivalShape,
    rate_qps: f64,
    arrival_seed: u64,
    batch_delay_us: f64,
    max_batch: usize,
    queue_depth: usize,
    policy: AdmissionPolicy,
    shards: usize,
    threads: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (8usize..=48, 0u64..u64::MAX, 0usize..=5),
        (0usize..4, 1_000.0f64..500_000.0, 0u64..u64::MAX),
        (0.0f64..500.0, 1usize..=16, 1usize..=8),
        0u8..2,
        (1usize..=3, 1usize..=3),
    )
        .prop_map(
            |(
                (queries, workload_seed, knn_every),
                (shape_idx, rate_qps, arrival_seed),
                (batch_delay_us, max_batch, queue_depth),
                block,
                (shards, threads),
            )| Scenario {
                queries,
                workload_seed,
                knn_every,
                shape: ArrivalShape::ALL[shape_idx],
                rate_qps,
                arrival_seed,
                batch_delay_us,
                max_batch,
                queue_depth,
                policy: if block == 1 {
                    AdmissionPolicy::Block
                } else {
                    AdmissionPolicy::Shed
                },
                shards,
                threads,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_digest_equals_one_shot_run_of_the_admitted_sequence(s in scenario()) {
        let spec = GridSpec::cube(12, 2);
        let points = grid_points(&spec);
        let order = LinearOrder::identity(points.len());
        let engine = ServeEngine::new(
            &points,
            &order,
            EngineConfig {
                records_per_page: 4,
                fanout: 4,
                buffer_pages: 8,
                shards: s.shards,
                threads: s.threads,
                ..Default::default()
            },
        );
        let labeled = mixed_workload_labeled(
            &spec,
            &WorkloadConfig {
                queries: s.queries,
                seed: s.workload_seed,
                knn_every: s.knn_every,
                k: 8,
            },
        );
        let (queries, labels): (Vec<_>, Vec<_>) = labeled.into_iter().unzip();
        let cfg = StreamConfig {
            arrival: ArrivalConfig::new(s.shape, s.rate_qps, s.arrival_seed),
            batch_delay_us: s.batch_delay_us,
            max_batch: s.max_batch,
            queue_depth: s.queue_depth,
            policy: s.policy,
            ..Default::default()
        };
        let report = stream_serve(&engine, &queries, &labels, &cfg).expect("no replay panic");
        // Accounting closes: offered = admitted + shed, and block mode
        // never sheds.
        prop_assert_eq!(report.slo.offered, s.queries);
        prop_assert_eq!(report.slo.admitted + report.slo.shed, report.slo.offered);
        if s.policy == AdmissionPolicy::Block {
            prop_assert_eq!(report.slo.shed, 0);
        }
        prop_assert!(report.slo.max_queue_depth <= s.queue_depth.max(1));
        // The core property: replaying the admitted subsequence as one
        // batch yields the identical digest, bit for bit.
        let admitted: Vec<_> = report
            .admitted_idx
            .iter()
            .map(|&q| queries[q].clone())
            .collect();
        let one_shot = engine.run(&admitted).expect("no replay panic");
        prop_assert_eq!(report.batch.digest, one_shot.digest);
        prop_assert_eq!(report.batch.outcomes.len(), one_shot.outcomes.len());
        for (a, b) in report.batch.outcomes.iter().zip(&one_shot.outcomes) {
            prop_assert_eq!(&a.results, &b.results);
            prop_assert_eq!(a.pages, b.pages);
            prop_assert_eq!(a.runs, b.runs);
        }
        // And the engine's queues are fully drained afterwards.
        prop_assert!(engine.queue_depths().iter().all(|&d| d == 0));
    }
}
