//! Exhaustive schedule exploration of the serving stack's concurrency
//! (see `crossbeam::model` for the checker itself).
//!
//! The channel and `run_scoped` tests explore the shim's primitives
//! directly. Every other test builds a tiny **real** [`ServeEngine`]
//! inside each explored run — its pool, shard queues, breakers and
//! epoch swaps all run on the `crossbeam::sync` facade, so under the
//! `model` feature every lock, condvar wait, atomic and spawn is a
//! scheduling point — and asserts properties that must hold on every
//! schedule: no deadlock or lost wakeup, schedule-invariant digests and
//! coverage, and panics that never wedge a waiter. Debug builds (the
//! tier-1 `cargo test -q` gate) explore a reduced schedule budget; CI
//! runs the full budget via `cargo test -p slpm_check --release`.

use crossbeam::model::{explore, ModelOptions, Report};
use slpm_graph::grid::GridSpec;
use slpm_serve::testing::with_quiet_panics;
use slpm_serve::{
    digest_outcomes, grid_points, BatchReport, BreakerState, EngineConfig, FaultPlan, Query,
    RecoveryConfig, ServeEngine,
};
use spectral_lpm::LinearOrder;
use std::panic::catch_unwind;
use std::sync::{Arc as StdArc, OnceLock};

/// Schedule budget: keep the debug-mode tier-1 run fast, explore wide in
/// release (CI's model-checker job).
const MAX_SCHEDULES: usize = if cfg!(debug_assertions) {
    3_000
} else {
    60_000
};

/// The shim's primitives are small enough to explore two preemptions
/// deep.
fn opts(max_threads: usize) -> ModelOptions {
    ModelOptions {
        preemption_bound: Some(2),
        max_schedules: MAX_SCHEDULES,
        max_threads,
        max_steps: 100_000,
    }
}

/// A real engine has far more scheduling points. With one preemption
/// most scenario trees are small enough to exhaust; the depth-first
/// search varies late decisions first, so a capped two-preemption search
/// would never get back to the early admission races that a
/// one-preemption search covers completely.
fn engine_opts(max_threads: usize) -> ModelOptions {
    ModelOptions {
        preemption_bound: Some(1),
        ..opts(max_threads)
    }
}

/// Every real-engine scenario tree holds well over this many schedules
/// (the smallest, zero-query, exhausts at ~1,500), and the debug budget
/// reaches it. A smaller count means the scenario stopped exercising the
/// engine's concurrency, e.g. no pool was built under the model.
const MIN_SCHEDULES: usize = 1_000;

/// Prints the one line per real-engine scenario CI's model-check job
/// greps, then fails a scenario that explored fewer than
/// [`MIN_SCHEDULES`] schedules.
fn report_line(scenario: &str, report: &Report) {
    eprintln!(
        "real-engine {scenario}: explored {} schedules (exhausted: {})",
        report.schedules, report.exhausted
    );
    assert!(
        report.schedules >= MIN_SCHEDULES,
        "{scenario}: exploration too shallow, only {} schedules ({report:?})",
        report.schedules
    );
}

/// The data every real-engine scenario serves: an 8×8 grid in
/// row-major order. With [`engine`]'s 4 records per page that is 16
/// pages, two per row, and 2 contiguous shards — shard 0 holds rows 0–3,
/// shard 1 rows 4–7. Static, so engines built inside explored runs and
/// shared with spawned submitters can borrow it.
fn fixture() -> &'static (Vec<Vec<i64>>, LinearOrder) {
    static FIXTURE: OnceLock<(Vec<Vec<i64>>, LinearOrder)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        (
            grid_points(&GridSpec::cube(8, 2)),
            LinearOrder::identity(64),
        )
    })
}

/// A fresh engine over [`fixture`].
fn engine(threads: usize, recovery: RecoveryConfig) -> ServeEngine<'static> {
    let (points, order) = fixture();
    let cfg = EngineConfig {
        records_per_page: 4,
        fanout: 4,
        shards: 2,
        threads,
        recovery,
        ..Default::default()
    };
    ServeEngine::new(points, order, cfg)
}

/// A low breaker threshold so two doomed units trip, and a one-unit
/// cooldown so the unit after a trip fast-fails and the next one probes.
fn twitchy() -> RecoveryConfig {
    RecoveryConfig {
        breaker_threshold: 2,
        probe_cooldown: 1,
        ..Default::default()
    }
}

fn knn(x: i64, y: i64, k: usize) -> Query {
    Query::Knn {
        center: vec![x, y],
        k,
    }
}

/// Reaches rows 1–5: one replay unit on each shard.
fn both_shards() -> Query {
    knn(3, 3, 20)
}

/// Rows 0–2: shard 0 only.
fn shard0() -> Query {
    knn(1, 1, 4)
}

/// Rows 5–7: shard 1 only.
fn shard1() -> Query {
    knn(6, 4, 6)
}

/// Everything about a report that must not depend on the schedule:
/// results, pages and runs (the digest), degraded coverage, and each
/// query's simulated fault penalty.
fn fingerprint(report: &BatchReport) -> (u64, Vec<u64>) {
    (
        report.degraded_digest(),
        report
            .outcomes
            .iter()
            .map(|o| o.fault_us.to_bits())
            .collect(),
    )
}

/// Serve `batches` one after another on a serial engine (threads: 1,
/// outside the model) with `plan` armed: the reference every schedule of
/// the same admission sequence must reproduce.
fn serial_reference(
    batches: &[Vec<Query>],
    recovery: RecoveryConfig,
    plan: &str,
) -> Vec<BatchReport> {
    let engine = engine(1, recovery);
    engine.inject_faults(FaultPlan::parse(plan).expect("valid fault plan"));
    batches
        .iter()
        .map(|b| engine.run(b).expect("no replay panic"))
        .collect()
}

/// Admit every batch, planning each just before its admission, then wait
/// on each in admission order, so all of them are in flight at once.
fn serve_concurrently(engine: &ServeEngine<'_>, batches: &[Vec<Query>]) -> Vec<BatchReport> {
    let handles: Vec<_> = batches
        .iter()
        .map(|b| engine.submit_planned(engine.plan_batch(b)))
        .collect();
    handles
        .into_iter()
        .map(|h| h.wait().expect("faults degrade, never error"))
        .collect()
}

#[test]
fn routing_preconditions_hold() {
    // The scenarios below lean on where these queries land; check it
    // once, outside the model.
    let engine = engine(1, RecoveryConfig::default());
    let planned = engine.plan_batch(&[both_shards(), shard0(), shard1()]);
    let shards_of = |q: usize| -> Vec<usize> {
        planned
            .shard_loads(q)
            .iter()
            .map(|&(shard, _, _)| shard)
            .collect()
    };
    assert_eq!(shards_of(0), vec![0, 1]);
    assert_eq!(shards_of(1), vec![0]);
    assert_eq!(shards_of(2), vec![1]);
}

#[test]
fn channel_delivers_every_message_exactly_once_on_every_schedule() {
    let report = explore(opts(4), || {
        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        let tx2 = tx.clone();
        let p1 = crossbeam::sync::thread::spawn(move || {
            tx.send(10).unwrap();
            tx.send(11).unwrap();
        });
        let p2 = crossbeam::sync::thread::spawn(move || {
            tx2.send(20).unwrap();
        });
        // The root is the sole consumer: drain exactly three messages,
        // then observe disconnect once both producers are done.
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap(), rx.recv().unwrap()];
        p1.join().unwrap();
        p2.join().unwrap();
        assert_eq!(rx.recv(), Err(crossbeam::channel::RecvError));
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 20], "a message was lost or duplicated");
    });
    assert!(report.schedules > 0);
    eprintln!("channel exactly-once: {report:?}");
}

#[test]
fn last_sender_drop_wakes_every_blocked_receiver_on_every_schedule() {
    // Two receivers race a single in-flight message against disconnect:
    // on every schedule exactly one receives the message and the other
    // observes RecvError — no schedule may leave either blocked forever.
    let report = explore(opts(4), || {
        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        let rx2 = rx.clone();
        let c1 = crossbeam::sync::thread::spawn(move || rx.recv());
        let c2 = crossbeam::sync::thread::spawn(move || rx2.recv());
        tx.send(42).unwrap();
        drop(tx); // last sender: every still-blocked receiver must wake
        let results = [c1.join().unwrap(), c2.join().unwrap()];
        let oks = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(oks, 1, "exactly one receiver gets the message: {results:?}");
        assert!(
            results.contains(&Ok(42)),
            "the in-flight message must still be delivered: {results:?}"
        );
    });
    eprintln!("last-sender-drop wake-all: {report:?}");
}

#[test]
fn run_scoped_latch_settles_on_every_schedule() {
    // The lifetime-erasure latch under the model: borrowed jobs are
    // handed to a worker thread that already exists; on every schedule
    // run_scoped must block until both jobs ran, and the latch's
    // settled-flags invariant must hold (it asserts internally).
    let report = explore(opts(4), || {
        let mut data = [0usize; 2];
        let (tx, rx) = crossbeam::channel::unbounded::<Box<dyn FnOnce() + Send>>();
        let worker = crossbeam::sync::thread::spawn(move || {
            for job in rx.iter() {
                job();
            }
        });
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i + 1) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        crossbeam::thread::run_scoped(jobs, &mut |job| tx.send(job).expect("worker alive"));
        // Both borrowed writes are visible the moment run_scoped returns.
        assert_eq!(data, [1, 2]);
        drop(tx);
        worker.join().unwrap();
    });
    eprintln!("run_scoped latch: {report:?}");
}

#[test]
fn pool_digest_is_invariant_across_more_than_1000_schedules() {
    // 2 workers × 2 shards × 2 in-flight batches: planning on the pool,
    // per-shard FIFO queues, round-robin rotation across batches and the
    // running-flag handoff must give every schedule the digest of a
    // serial engine serving the same queries.
    let batches = vec![vec![both_shards(), shard1()], vec![shard0(), both_shards()]];
    let all: Vec<Query> = batches.concat();
    let reference = serial_reference(&[all], RecoveryConfig::default(), "")[0].digest;
    let report = explore(engine_opts(3), move || {
        let engine = engine(2, RecoveryConfig::default());
        let reports = serve_concurrently(&engine, &batches);
        let digest = digest_outcomes(reports.iter().flat_map(|r| &r.outcomes));
        assert_eq!(digest, reference, "digest_outcomes is schedule-dependent");
    });
    report_line("digest-invariance", &report);
}

#[test]
fn bounded_admission_never_deadlocks_and_digest_is_invariant() {
    // A rival submitter races a depth-1 bounded admission against the
    // root's two back-to-back bounded admissions, while the runners
    // drain and notify. The root's second batch meets its first batch's
    // queued units and must sleep on the shard's `space` condvar until a
    // runner's pop-and-notify: no schedule may deadlock or lose that
    // wakeup, and every batch answers as a serial engine does.
    let batches = vec![
        vec![both_shards(), shard0()],
        vec![shard0(), shard1()],
        vec![shard1(), both_shards()],
    ];
    let reference: Vec<u64> = serial_reference(&batches, RecoveryConfig::default(), "")
        .iter()
        .map(|r| r.digest)
        .collect();
    let report = explore(engine_opts(4), move || {
        let engine = StdArc::new(engine(2, RecoveryConfig::default()));
        // Plan up front so the race is between the admissions and the
        // runners draining them.
        let mut planned: Vec<_> = batches.iter().map(|b| engine.plan_batch(b)).collect();
        let theirs = planned.pop().expect("three batches");
        let rival = StdArc::clone(&engine);
        let other = crossbeam::sync::thread::spawn(move || {
            let report = rival.submit_planned_bounded(theirs, 1).wait();
            report.expect("no replay panic").digest
        });
        let mine: Vec<_> = planned
            .into_iter()
            .map(|p| engine.submit_planned_bounded(p, 1))
            .collect();
        let mut digests: Vec<u64> = mine
            .into_iter()
            .map(|h| h.wait().expect("no replay panic").digest)
            .collect();
        digests.push(other.join().expect("rival submitter"));
        assert_eq!(
            digests, reference,
            "bounded admission is schedule-dependent"
        );
    });
    report_line("bounded-admission", &report);
}

#[test]
fn bounded_and_unbounded_admission_answer_identically_on_every_schedule() {
    // Depth bounds move *when* units enter a shard queue, never what a
    // batch answers: the same queries admitted unbounded and then under a
    // depth-1 bound, both in flight at once, digest alike on every
    // schedule.
    let queries = vec![both_shards(), shard0(), shard1()];
    let reference = serial_reference(
        std::slice::from_ref(&queries),
        RecoveryConfig::default(),
        "",
    )[0]
    .digest;
    let report = explore(engine_opts(3), move || {
        let engine = engine(2, RecoveryConfig::default());
        // Both planned first, so the bounded admission meets the
        // unbounded batch's queued units and must wait for the runners.
        let (first, second) = (engine.plan_batch(&queries), engine.plan_batch(&queries));
        let unbounded = engine.submit_planned(first);
        let bounded = engine.submit_planned_bounded(second, 1);
        let bounded = bounded.wait().expect("no replay panic").digest;
        let unbounded = unbounded.wait().expect("no replay panic").digest;
        assert_eq!(bounded, unbounded, "bounded admission changed answers");
        assert_eq!(bounded, reference);
    });
    report_line("bounded-vs-unbounded", &report);
}

#[test]
fn breaker_trips_while_epoch_swaps_and_inflight_batches_drain_their_pinned_slices() {
    // Fail-while-swapping: batch A's two shard-0 units are doomed by a
    // first-incarnation kill and trip shard 0's breaker (threshold 2).
    // Batch B's admission installs the rebuilt slice — bumping the epoch
    // — while A may still be draining on the epoch it pinned, and B's
    // shard-0 unit burns the one-unit cooldown as a fast-fail. Every
    // fault and breaker decision is stamped at admission, so coverage,
    // penalties and digests equal a serial engine's on every schedule.
    let plan = "kill:0@0";
    let batches = vec![vec![both_shards(), shard0()], vec![both_shards(), shard1()]];
    let serial = serial_reference(&batches, twitchy(), plan);
    assert_eq!(
        serial[1].coverage.degraded_units.len(),
        1,
        "the open breaker fast-fails B's shard-0 unit"
    );
    let reference: Vec<_> = serial.iter().map(fingerprint).collect();
    let unfaulted: Vec<u64> = serial_reference(&batches, twitchy(), "")
        .iter()
        .map(|r| r.digest)
        .collect();
    let report = explore(engine_opts(3), move || {
        let engine = engine(2, twitchy());
        engine.inject_faults(FaultPlan::parse(plan).expect("valid fault plan"));
        let reports = serve_concurrently(&engine, &batches);
        assert_eq!(engine.epoch(), 1, "B's admission installs the rebuild");
        let health = engine.health_snapshot();
        assert_eq!((health[0].trips, health[0].incarnation), (1, 1));
        assert_eq!(health[0].state, BreakerState::Open);
        assert_eq!(health[1].trips, 0);
        for ((got, want), clean) in reports.iter().zip(&reference).zip(&unfaulted) {
            assert_eq!(fingerprint(got), *want);
            // Faults cost coverage and time, never answers: results,
            // pages and runs match the unfaulted run.
            assert_eq!(got.digest, *clean);
        }
    });
    report_line("fail-while-swapping", &report);
}

#[test]
fn probe_racing_a_rival_trip_settles_to_one_trip_and_a_closed_breaker() {
    // Two submitters race identical batches of two shard-0 units under a
    // first-incarnation kill. Stamping is atomic per admission under the
    // fleet lock, so whichever batch is admitted first trips the breaker
    // with both units; the other burns the cooldown with one fast-fail
    // and closes the breaker with a probe that serves (the rebuilt
    // incarnation escapes the kill). Which batch plays which role depends
    // on the schedule — the settled totals and breaker state do not.
    let batch = vec![shard0(), shard0()];
    let probe_pages = serial_reference(&[vec![shard0()]], twitchy(), "")[0].outcomes[0].pages;
    let report = explore(engine_opts(4), move || {
        let engine = StdArc::new(engine(2, twitchy()));
        engine.inject_faults(FaultPlan::parse("kill:0@0").expect("valid fault plan"));
        let planned = engine.plan_batch(&batch);
        let rival = StdArc::clone(&engine);
        let other = crossbeam::sync::thread::spawn(move || {
            rival
                .submit_planned(planned)
                .wait()
                .expect("no replay panic")
        });
        let mine = engine.submit_planned(engine.plan_batch(&batch));
        let mine = mine.wait().expect("no replay panic");
        let theirs = other.join().expect("rival submitter");
        let degraded = mine.coverage.degraded_units.len() + theirs.coverage.degraded_units.len();
        assert_eq!(degraded, 3, "two tripping units plus one fast-fail");
        let served: usize = mine
            .outcomes
            .iter()
            .chain(&theirs.outcomes)
            .filter(|o| o.degraded_pages == 0)
            .map(|o| o.pages)
            .sum();
        assert_eq!(served, probe_pages, "the successful probe serves its unit");
        let health = engine.health_snapshot();
        assert_eq!(health[0].trips, 1, "a racing probe must not re-trip");
        assert_eq!(health[0].incarnation, 1);
        assert_eq!(health[0].state, BreakerState::Closed, "the probe closes it");
        // The next admission has the rebuild installed (by now or by the
        // losing batch) and serves cleanly.
        let next = engine.run(&[shard0()]).expect("no replay panic");
        assert!(next.coverage.is_clean());
        assert_eq!(engine.epoch(), 1);
    });
    report_line("probe-racing-trip", &report);
}

#[test]
fn units_stamped_before_a_trip_keep_serving_through_the_swap() {
    // Drain-vs-admit: batch A is stamped healthy (shard 0 dies only from
    // its third admitted unit) before batch B's two doomed units trip the
    // breaker and batch C's admission swaps the epoch. A must drain to
    // completion on its pinned epoch-0 slices on every schedule —
    // failover never claws back admitted work — while a flaky shard 1
    // pays one retry per unit and still serves.
    let plan = "kill:0@2,flaky:1@0";
    let batches = vec![
        vec![both_shards(), shard0()],
        vec![shard0(), shard0()],
        vec![both_shards()],
    ];
    let serial = serial_reference(&batches, twitchy(), plan);
    let degraded: Vec<usize> = serial
        .iter()
        .map(|r| r.coverage.degraded_units.len())
        .collect();
    assert_eq!(degraded, vec![0, 2, 1], "A clean, B trips, C fast-fails");
    let reference: Vec<_> = serial.iter().map(fingerprint).collect();
    let report = explore(engine_opts(3), move || {
        let engine = engine(2, twitchy());
        engine.inject_faults(FaultPlan::parse(plan).expect("valid fault plan"));
        let reports = serve_concurrently(&engine, &batches);
        let got: Vec<_> = reports.iter().map(fingerprint).collect();
        assert_eq!(got, reference);
        assert_eq!(engine.epoch(), 1, "C's admission installs the rebuild");
        assert_eq!(engine.health_snapshot()[0].trips, 1);
    });
    report_line("drain-vs-admit", &report);
}

#[test]
fn panic_in_replay_unit_never_wedges_wait_on_any_schedule() {
    // An injected `panic:0@0` unwinds for real through the replay seam's
    // `catch_unwind` on every attempt, then degrades; a concurrently
    // admitted batch keeps serving, and neither `wait()` ever wedges.
    let plan = "panic:0@0";
    let batches = vec![vec![both_shards(), shard1()], vec![shard0()]];
    let serial = serial_reference(&batches, RecoveryConfig::default(), plan);
    assert_eq!(serial[0].coverage.degraded_units.len(), 1);
    assert!(serial[1].coverage.is_clean());
    let reference: Vec<_> = serial.iter().map(fingerprint).collect();
    let report = explore(engine_opts(3), move || {
        let engine = engine(2, RecoveryConfig::default());
        engine.inject_faults(FaultPlan::parse(plan).expect("valid fault plan"));
        let reports = serve_concurrently(&engine, &batches);
        let got: Vec<_> = reports.iter().map(fingerprint).collect();
        assert_eq!(got, reference);
    });
    report_line("injected-panic", &report);
}

#[test]
fn zero_unit_batch_waits_return_on_every_schedule() {
    // A zero-query batch admits no units and schedules no runner; its
    // wait must return on every schedule, even with a busy batch in
    // flight beside it.
    let reference =
        serial_reference(&[vec![both_shards()]], RecoveryConfig::default(), "")[0].digest;
    let report = explore(engine_opts(3), move || {
        let engine = engine(2, RecoveryConfig::default());
        let reports = serve_concurrently(&engine, &[vec![], vec![both_shards()]]);
        assert!(reports[0].outcomes.is_empty());
        assert_eq!(reports[1].digest, reference);
    });
    report_line("zero-query", &report);
}

#[test]
fn seeded_lost_wakeup_is_detected() {
    // Sanity check that the checker actually *finds* bugs: the classic
    // check-then-wait race (test a flag without holding the mutex, then
    // lock and wait) loses the notification when the notifier runs
    // between the check and the wait. Some explored schedule must end
    // with the waiter blocked forever, which the checker reports as a
    // deadlock/lost wakeup.
    let caught = with_quiet_panics(|| {
        catch_unwind(|| {
            explore(opts(3), || {
                use crossbeam::sync::atomic::{AtomicBool, Ordering};
                use crossbeam::sync::{Arc, Condvar, Mutex};
                let flag = Arc::new(AtomicBool::new(false));
                let pair = Arc::new((Mutex::new(()), Condvar::new()));
                let (flag2, pair2) = (Arc::clone(&flag), Arc::clone(&pair));
                let notifier = crossbeam::sync::thread::spawn(move || {
                    flag2.store(true, Ordering::SeqCst);
                    pair2.1.notify_one();
                });
                // BUG (seeded): the flag check happens outside the mutex,
                // so the store+notify can land in between — and the wait
                // below then sleeps forever.
                if !flag.load(Ordering::SeqCst) {
                    let guard = pair.0.lock().expect("model lock");
                    let _guard = pair.1.wait(guard).expect("model lock");
                }
                notifier.join().unwrap();
            });
        })
    });
    let payload = caught.expect_err("the checker must catch the seeded lost wakeup");
    let msg = payload
        .downcast_ref::<String>()
        .expect("checker panic carries a rendered trace");
    assert!(
        msg.contains("deadlock or lost wakeup"),
        "unexpected checker report: {msg}"
    );
}
