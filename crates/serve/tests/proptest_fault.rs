//! Property tests for the fault plane: whatever seeded `FaultPlan`,
//! admission policy, shard count or thread count, (a) every fault-free
//! query's outcome is **bitwise identical** to the same stream run with
//! no faults injected (faults degrade coverage, never answers), and
//! (b) the degraded digest is a deterministic function of the plan —
//! identical across thread counts and repeat runs.

use proptest::prelude::*;
use slpm_graph::grid::GridSpec;
use slpm_serve::arrival::{ArrivalConfig, ArrivalShape};
use slpm_serve::engine::{EngineConfig, ServeEngine};
use slpm_serve::fault::FaultPlan;
use slpm_serve::health::BreakerState;
use slpm_serve::stream::{stream_serve, AdmissionPolicy, StreamConfig};
use slpm_serve::testing::with_watchdog;
use slpm_serve::workload::{grid_points, mixed_workload_labeled, WorkloadConfig};
use spectral_lpm::LinearOrder;

#[derive(Debug, Clone)]
struct Scenario {
    queries: usize,
    workload_seed: u64,
    fault_seed: u64,
    policy: AdmissionPolicy,
    shards: usize,
    threads: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (8usize..=40, 0u64..u64::MAX, 0u64..u64::MAX),
        0u8..2,
        (1usize..=3, 1usize..=3),
    )
        .prop_map(
            |((queries, workload_seed, fault_seed), block, (shards, threads))| Scenario {
                queries,
                workload_seed,
                fault_seed,
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

fn stream_cfg(policy: AdmissionPolicy) -> StreamConfig {
    StreamConfig {
        arrival: ArrivalConfig::new(ArrivalShape::Poisson, 50_000.0, 7),
        queue_depth: 8,
        batch_delay_us: 50.0,
        policy,
        ..Default::default()
    }
}

fn engine_cfg(shards: usize, threads: usize) -> EngineConfig {
    EngineConfig {
        records_per_page: 4,
        fanout: 4,
        buffer_pages: 8,
        shards,
        threads,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fault_free_queries_are_bitwise_identical_to_an_unfaulted_run(s in scenario()) {
        let spec = GridSpec::cube(12, 2);
        let points = grid_points(&spec);
        let order = LinearOrder::identity(points.len());
        let labeled = mixed_workload_labeled(
            &spec,
            &WorkloadConfig {
                queries: s.queries,
                seed: s.workload_seed,
                knn_every: 4,
                k: 8,
            },
        );
        let (queries, labels): (Vec<_>, Vec<_>) = labeled.into_iter().unzip();
        let cfg = stream_cfg(s.policy);
        let plan = FaultPlan::seeded(s.fault_seed, s.shards);

        let clean = {
            let engine = ServeEngine::new(&points, &order, engine_cfg(s.shards, s.threads));
            stream_serve(&engine, &queries, &labels, &cfg).expect("no replay panic")
        };
        // Each faulted run also returns its fleet's trips per shard.
        let trips = |engine: &ServeEngine| -> Vec<u32> {
            engine.health_snapshot().iter().map(|b| b.trips).collect()
        };
        let (faulted, faulted_trips) = {
            let engine = ServeEngine::new(&points, &order, engine_cfg(s.shards, s.threads));
            engine.inject_faults(plan.clone());
            let report = stream_serve(&engine, &queries, &labels, &cfg)
                .expect("injected faults degrade, not error");
            (report, trips(&engine))
        };

        // Fault penalties never touch admission: the admitted sequence is
        // identical, so the runs are outcome-aligned.
        prop_assert_eq!(&clean.admitted_idx, &faulted.admitted_idx);
        prop_assert_eq!(clean.slo.shed, faulted.slo.shed);
        // (a) Every fault-free query answers bitwise identically to the
        // clean run — the same (results, pages, runs) triple the digest
        // folds. (Buffer hit/miss splits may differ: degraded units skip
        // replay, so pool state legitimately diverges on a faulted shard.)
        let mut saw_degraded = 0usize;
        for (a, b) in faulted.batch.outcomes.iter().zip(&clean.batch.outcomes) {
            if a.degraded_pages > 0 {
                saw_degraded += 1;
                continue;
            }
            prop_assert_eq!(&a.results, &b.results);
            prop_assert_eq!(a.pages, b.pages);
            prop_assert_eq!(a.runs, b.runs);
        }
        prop_assert_eq!(saw_degraded, faulted.slo.degraded);
        if faulted.batch.coverage.is_clean() {
            prop_assert_eq!(faulted.batch.digest, clean.batch.digest);
            prop_assert_eq!(faulted.batch.degraded_digest(), clean.batch.digest);
        }

        // (b) The degraded digest is deterministic for a fixed plan:
        // a repeat run on a differently-threaded engine agrees bitwise.
        let other_threads = if s.threads == 1 { 3 } else { 1 };
        let (repeat, repeat_trips) = {
            let engine = ServeEngine::new(&points, &order, engine_cfg(s.shards, other_threads));
            engine.inject_faults(plan);
            let report = stream_serve(&engine, &queries, &labels, &cfg)
                .expect("injected faults degrade, not error");
            (report, trips(&engine))
        };
        prop_assert_eq!(repeat.batch.degraded_digest(), faulted.batch.degraded_digest());
        prop_assert_eq!(&repeat.batch.coverage, &faulted.batch.coverage);
        prop_assert_eq!(repeat_trips, faulted_trips);
        prop_assert_eq!(repeat.slo, faulted.slo);
    }
}

#[test]
fn permanently_failed_shard_trips_within_threshold_and_the_rest_keep_serving() {
    with_watchdog(
        std::time::Duration::from_secs(60),
        "breaker trip under permanent failure",
        || {
            let spec = GridSpec::cube(12, 2);
            let points = grid_points(&spec);
            let order = LinearOrder::identity(points.len());
            let labeled = mixed_workload_labeled(
                &spec,
                &WorkloadConfig {
                    queries: 160,
                    seed: 11,
                    knn_every: 4,
                    k: 8,
                },
            );
            let (queries, labels): (Vec<_>, Vec<_>) = labeled.into_iter().unzip();
            let engine = ServeEngine::new(&points, &order, engine_cfg(4, 2));
            engine.inject_faults(FaultPlan::parse("kill!:0@0").unwrap());
            let cfg = stream_cfg(AdmissionPolicy::Shed);
            let report =
                stream_serve(&engine, &queries, &labels, &cfg).expect("degrades, not errors");

            // The breaker tripped (within its threshold: the snapshot's
            // consecutive-failure count never exceeds it), failover
            // swapped epochs, and shard 0 is the only degraded source.
            let snap = engine.health_snapshot();
            assert!(snap[0].trips >= 1, "{snap:?}");
            assert!(
                snap[0].state == BreakerState::Open || snap[0].state == BreakerState::HalfOpen,
                "a permanently dead shard cannot close its breaker: {snap:?}"
            );
            let threshold = engine.config().recovery.breaker_threshold;
            for b in &snap {
                assert!(b.consecutive_failures < threshold, "{snap:?}");
            }
            assert!(engine.epoch() >= 1, "failover must swap epochs");
            assert!(report.slo.degraded > 0);
            assert!(
                report
                    .batch
                    .coverage
                    .degraded_units
                    .iter()
                    .all(|d| d.shard == 0 && !d.rank_ranges.is_empty()),
                "only the killed shard may degrade"
            );
            // The surviving shards keep answering: some queries are
            // entirely fault-free, and they dominate the admitted set
            // (shard 0 owns ~1/4 of the pages).
            assert!(report.slo.admitted - report.slo.degraded > report.slo.degraded);
            // Health of the untouched shards is pristine.
            for b in &snap[1..] {
                assert_eq!(b.trips, 0);
                assert_eq!(b.state, BreakerState::Closed);
            }
        },
    );
}
