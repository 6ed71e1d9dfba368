//! The untraced run: the end-to-end metrics.
//!
//! A run sets the pipeline up (order, then pack on the disk tier, then
//! engine build), serves closed-loop batches from one client for
//! `--seconds` and at least [`MIN_BATCHES`] batches, and sets up again at
//! even steps of the serving time, [`SETUPS`] times in all. Every check
//! runs outside the timed phases.
//!
//! Times are the CPU time of the one thread that does all the work: the
//! order is solved on `Pool::serial()` and the engine serves inline. On a
//! dedicated host that equals wall time; on a shared one it leaves out
//! the bursts of tens of milliseconds in which the hypervisor takes the
//! vCPU away, which doubled the wall-clock p99 of disk batches in some
//! runs. Other tenants also slow all CPU work by up to 1.6× for minutes
//! at a time, so each time is then scaled by the host's speed, measured
//! during the run by a fixed reference kernel ([`crate::calibrate`]).
//! The context line carries the unscaled and wall-clock figures, and a
//! run whose thread sat off-CPU for over half of a phase fails, since
//! CPU time would then miss work.

use crate::calibrate::{Reference, NOMINAL_ROUND_S};
use crate::workload::{self, Inputs, Tier, Workload, BATCH, MIN_BATCHES, POOL_BATCHES, SETUPS};
use crate::{metric, sys, Outcome};
use slpm_linalg::{dispatch_counters, Pool};
use spectral_lpm::{SpectralConfig, SpectralMapper, SpectralMapping};
use std::path::Path;
use std::time::Instant;

/// Least share of a phase's wall time its thread must spend on-CPU.
const MIN_CPU_PER_WALL: f64 = 0.5;
/// Reference rounds timed before each set-up.
const SETUP_ROUNDS: usize = 10;
/// Reference rounds timed every [`SAMPLE_EVERY`] batches. Under 1 % of
/// batches follow a sample, so the kernel's cache traffic stays out of
/// the p99.
const SERVE_ROUNDS: usize = 8;
const SAMPLE_EVERY: usize = 256;

/// The median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of a sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Batches per throughput window. The host's speed drifts by up to 2×
/// over seconds when its other tenants are busy; the median window's
/// throughput ignores such stretches while they cover under half a run.
const WINDOW_BATCHES: usize = 64;

/// Queries per second in the median window of [`WINDOW_BATCHES`] batches.
fn median_window_qps(latencies: &[f64]) -> f64 {
    let rates: Vec<f64> = latencies
        .chunks_exact(WINDOW_BATCHES)
        .map(|w| (WINDOW_BATCHES * BATCH) as f64 / w.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// The p99 over the pool's batches of each batch's median latency across
/// the run's passes. Every pass serves the same batches, so a batch's
/// median is its cost with the host's bursts of contention, which strike
/// different batches in each pass, left out.
fn p99_of_batch_medians(latencies: &[f64]) -> f64 {
    let per_batch: Vec<f64> = (0..POOL_BATCHES.min(latencies.len()))
        .map(|b| {
            let samples: Vec<f64> = latencies[b..]
                .iter()
                .step_by(POOL_BATCHES)
                .copied()
                .collect();
            median(&samples)
        })
        .collect();
    quantile(&per_batch, 0.99)
}

/// What must repeat bit for bit between set-ups (and runs) of one seed.
#[derive(PartialEq)]
struct SolveFingerprint {
    ranks: Vec<usize>,
    lambda2_bits: u64,
    two_sum: f64,
    dispatch: (u64, u64, u64),
}

/// One set-up: points → order → (page file) → engine.
struct SetUp {
    mapping: SpectralMapping,
    /// Thread CPU seconds of the ordering, and of the whole set-up.
    order_s: f64,
    setup_s: f64,
    wall_s: f64,
    fingerprint: SolveFingerprint,
}

fn set_up(wl: &Workload, inputs: &Inputs, path: &Path) -> Result<SetUp, String> {
    let before = dispatch_counters();
    let wall = Instant::now();
    let cpu = sys::thread_cpu_s();
    let mapping = SpectralMapper::new(SpectralConfig::auto())
        .map_points_on(&inputs.set, &Pool::serial())
        .map_err(|e| format!("map_points_on: {e}"))?;
    let order_s = sys::thread_cpu_s() - cpu;
    let dispatch = dispatch_counters().since(&before);
    if wl.tier == Tier::Disk {
        workload::pack(&mapping.order, path)?;
    }
    let engine = workload::build_engine(inputs.set.points(), &mapping.order, wl.tier, path)?;
    let setup_s = sys::thread_cpu_s() - cpu;
    let wall_s = wall.elapsed().as_secs_f64();
    drop(engine);
    let fingerprint = SolveFingerprint {
        ranks: mapping.order.ranks().to_vec(),
        lambda2_bits: mapping.fiedler.lambda2.to_bits(),
        two_sum: workload::two_sum(inputs, &mapping.order),
        dispatch: (
            dispatch.scope_entries,
            dispatch.jobs_submitted,
            dispatch.chunks_executed,
        ),
    };
    Ok(SetUp {
        mapping,
        order_s,
        setup_s,
        wall_s,
        fingerprint,
    })
}

pub fn run(wl: &Workload, seed: u64, seconds: f64, program: u64) -> Result<Outcome, String> {
    let inputs = Inputs::generate(wl, seed);
    let points = inputs.set.points();
    let scratch = sys::ScratchDir::new(wl.name).map_err(|e| format!("scratch dir: {e}"))?;
    let page_file = scratch.path("pages.slpm");
    // Later set-ups pack their own file: the serving engine reads the first.
    let setup_file = scratch.path("setup-pages.slpm");

    let mut attempted = 1u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut host = Reference::new();
    host.sample(SETUP_ROUNDS);
    let first = set_up(wl, &inputs, &page_file)?;
    if let Err(e) = workload::check_order(&first.mapping, &inputs) {
        failed += 1;
        errors.push(e);
    }
    let mut order_s = vec![first.order_s];
    let mut setup_s = vec![first.setup_s];
    let mut setup_wall_s = first.wall_s;
    let solve = &first.fingerprint;
    let order = &first.mapping.order;

    // --- Serving: one closed-loop client, 64-query batches. The other
    // set-ups run at even steps of the serving time, so that set-up is
    // timed across the run rather than in one stretch of host speed. ---
    let engine = workload::build_engine(points, order, wl.tier, &page_file)?;
    let pool_len = inputs.batches.len();
    let mut latencies = Vec::new();
    let mut wall_latencies = Vec::new();
    let mut digests = Vec::new();
    let (mut pages, mut misses, mut prefetched) = (0usize, 0usize, 0usize);
    let mut serve_wall_s = 0.0;
    let mut peak_rss_mb = None;
    while latencies.len() < MIN_BATCHES || serve_wall_s < seconds {
        let due = seconds * setup_s.len() as f64 / SETUPS as f64;
        if setup_s.len() < SETUPS && serve_wall_s >= due {
            // The peak of the user's pipeline: one set-up, then serving.
            peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
            host.sample(SETUP_ROUNDS);
            let again = set_up(wl, &inputs, &setup_file)?;
            order_s.push(again.order_s);
            setup_s.push(again.setup_s);
            setup_wall_s += again.wall_s;
            attempted += 1;
            if again.fingerprint != *solve
                || workload::check_order(&again.mapping, &inputs).is_err()
            {
                failed += 1;
                errors.push(
                    "order, λ₂, 2-sum or dispatch counts differ between set-ups of one seed".into(),
                );
            }
        }
        let i = latencies.len();
        if i % SAMPLE_EVERY == SAMPLE_EVERY / 2 {
            host.sample(SERVE_ROUNDS);
        }
        let wall = Instant::now();
        let cpu = sys::thread_cpu_s();
        let report = engine.run(&inputs.batches[i % pool_len]);
        latencies.push(sys::thread_cpu_s() - cpu);
        wall_latencies.push(wall.elapsed().as_secs_f64());
        serve_wall_s += wall_latencies[i];
        match report {
            Ok(r) => {
                if i < MIN_BATCHES {
                    pages += r.total_pages();
                    misses += r.total_misses();
                    prefetched += r.buffer_stats().prefetched;
                }
                digests.push(Some(r.digest));
            }
            Err(e) => {
                errors.push(format!("batch {i}: {e}"));
                digests.push(None);
            }
        }
    }
    let batches = latencies.len();
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(sys::peak_rss_mb);

    // --- Checks (untimed). ---
    let served = &inputs.batches[..batches.min(pool_len)];
    let reference = workload::reference_digests(points, order, served)?;
    let wrong = (0..batches)
        .filter(|&i| digests[i] != Some(reference[i % pool_len]))
        .count();
    attempted += batches as u64;
    failed += wrong as u64;
    if wrong > 0 {
        errors.push(format!(
            "{wrong} batch digests differ from the reference engine's"
        ));
    }
    let mismatches = workload::brute_force_mismatches(&engine, points, order, &inputs.sample)?;
    attempted += inputs.sample.len() as u64;
    failed += mismatches as u64;
    if mismatches > 0 {
        errors.push(format!(
            "{mismatches} sample queries differ from a brute-force scan"
        ));
    }
    let serve_cpu_per_wall = latencies.iter().sum::<f64>() / serve_wall_s;
    let setup_cpu_per_wall = setup_s.iter().sum::<f64>() / setup_wall_s;
    for (phase, ratio) in [
        ("serving", serve_cpu_per_wall),
        ("set-up", setup_cpu_per_wall),
    ] {
        if ratio < MIN_CPU_PER_WALL {
            errors.push(format!(
                "the {phase} thread ran on-CPU for only {ratio:.2} of its wall time"
            ));
        }
    }
    let fingerprint = format!(
        "lambda2={:016x} two_sum={} dispatch={:?} pages={pages} misses={misses} prefetched={prefetched}",
        solve.lambda2_bits, solve.two_sum, solve.dispatch
    );
    if let Err(e) = sys::check_fingerprint(&format!("{}-{seed}", wl.name), program, &fingerprint) {
        errors.push(e);
    }
    drop(engine);
    drop(scratch);

    let ok_frac = (attempted - failed) as f64 / attempted as f64;
    // Scale every time to the host at its nominal speed.
    let speed = NOMINAL_ROUND_S / host.median_round_s();
    Ok(Outcome {
        metrics: vec![
            metric("order_s", median(&order_s) * speed, "s"),
            metric("order_2sum", solve.two_sum, "count"),
            metric("setup_s", median(&setup_s) * speed, "s"),
            metric("serve_qps", median_window_qps(&latencies) / speed, "1/s"),
            metric(
                "batch_p50_ms",
                quantile(&latencies, 0.50) * 1e3 * speed,
                "ms",
            ),
            metric(
                "batch_p99_ms",
                p99_of_batch_medians(&latencies) * 1e3 * speed,
                "ms",
            ),
            metric("ok_frac", ok_frac, "ratio"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
        attempted,
        failed,
        errors,
        context: vec![
            ("points", inputs.set.len().to_string()),
            ("edges", inputs.graph.num_edges().to_string()),
            ("batches", batches.to_string()),
            ("host_speed", speed.to_string()),
            ("cpu_serve_qps", median_window_qps(&latencies).to_string()),
            (
                "cpu_batch_p50_ms",
                (quantile(&latencies, 0.50) * 1e3).to_string(),
            ),
            (
                "cpu_batch_p99_ms",
                (p99_of_batch_medians(&latencies) * 1e3).to_string(),
            ),
            ("order_s_all", format!("{order_s:?}")),
            ("setup_s_all", format!("{setup_s:?}")),
            ("setup_cpu_per_wall", setup_cpu_per_wall.to_string()),
            ("serve_cpu_per_wall", serve_cpu_per_wall.to_string()),
            (
                "wall_serve_qps",
                median_window_qps(&wall_latencies).to_string(),
            ),
            (
                "wall_batch_p50_ms",
                (quantile(&wall_latencies, 0.50) * 1e3).to_string(),
            ),
            (
                "wall_batch_p99_ms",
                (p99_of_batch_medians(&wall_latencies) * 1e3).to_string(),
            ),
            ("fingerprint", format!("\"{fingerprint}\"")),
        ],
    })
}
