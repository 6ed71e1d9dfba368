//! The serving bench: one reproducible mixed range/kNN workload through
//! the sharded engine, measured in four sections and written to one JSON
//! file (schema `slpm.serve.v7`).
//!
//! 1. **matrix** — the {1, S} shards × {1, T} threads × {1, B} in-flight
//!    batches matrix: queries/sec, pages-per-query quantiles, per-class
//!    latency quantiles, cold and warm hit ratios, shard balance and the
//!    batch digest of each entry. The best-first kNN planner's R-tree
//!    cost over the workload is recorded in the `knn` object.
//! 2. **stream** — streaming admission (`slpm_serve::stream`) for every
//!    arrival shape at a **headroom** rate (20% of the capacity the
//!    workload's simulated service cost allows) and an **overload** rate
//!    (3× capacity) under the shed policy, plus one block-policy overload
//!    point.
//! 3. **faults** — the headroom stream through fresh engines under a
//!    permanent shard-killing plan (`--fault-plan`, default `kill!:0@12`)
//!    and a transient flaky plan.
//! 4. **storage** — the workload served from a page file on disk
//!    (`--page-file`, else a temp file packed in-process) against the
//!    in-memory engine, an ordered full-domain sweep through a buffer
//!    pool capped at ~10% of the file, with and without readahead, and
//!    the workload's misses, prefetches and page reads per query through
//!    pools holding 1/16 of each shard's pages with readahead 8, served
//!    in 64-query batches and one query at a time.
//!
//! The run **fails** (nonzero exit) unless every gate holds; all four
//! are deterministic counter or simulated-clock arithmetic:
//!
//! * `parity` — every matrix entry answers with the digest of one plain
//!   batch run, and every stream entry's digest equals a one-shot batch
//!   run of its admitted subsequence;
//! * `slo_gate` — every headroom stream entry meets its SLO and sheds
//!   nothing;
//! * `fault_gate` — the permanent plan trips the breaker, swaps slice
//!   epochs and degrades some queries while every fault-free query stays
//!   bitwise identical to the unfaulted run with its p99 inside the SLO
//!   (a user-supplied plan is held to the last two only); the transient
//!   plan recovers inside the retry budget to the clean digest;
//! * `storage_gate` — disk answers equal memory bitwise (cold and warm
//!   pool), and readahead cuts demand misses on the ordered sweep.
//!
//! Every engine the bench builds reads the page file when `--page-file`
//! is given (it must match `--grid`/`--mapping` and the default page
//! geometry), and every engine uses the `--readahead` window; the storage
//! sweep compares that window against none. Wall-clock fields are
//! observables only.
//!
//! The flags and their defaults, which are the CI configuration, are the
//! `FLAGS` table (`slpm_cli::flags`); an unknown flag or a bad value
//! prints them and exits with code 2. `--json` writes the results to the
//! `--out` path; CI uploads that file as a build artifact. The JSON
//! stamps `host_parallelism`: on a single-core host the pooled matrix
//! entries measure scheduling overhead, not speedup.

use slpm_cli::args::{fault_plan, partition};
use slpm_cli::flags::{self, Flag, Kind::*};
use slpm_graph::grid::GridSpec;
use slpm_querysim::mappings::curve_order_by_name;
use slpm_serve::arrival::{ArrivalConfig, ArrivalShape};
use slpm_serve::engine::{BatchReport, EngineConfig, LatencySummary, Query, ServeEngine};
use slpm_serve::stream::{stream_serve, AdmissionPolicy, ServiceModel, StreamConfig};
use slpm_serve::workload::{grid_points, mixed_workload_labeled, WorkloadConfig, CLASS_LABELS};
use slpm_serve::FaultPlan;
use slpm_storage::{write_page_file, BufferStats, Mbr, PageLayout, PageMapper};
use spectral_lpm::LinearOrder;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// The command line, in the library's configurations where it has them.
#[derive(Default)]
struct Flags {
    side: usize,
    /// Shards, threads, placement and readahead of every engine.
    engine: EngineConfig,
    /// The query count.
    workload: WorkloadConfig,
    mapping: String,
    repeats: usize,
    inflight: usize,
    shapes: Vec<ArrivalShape>,
    /// Micro-batch window, queue bound and SLO of every stream.
    stream: StreamConfig,
    fault_plan: Option<String>,
    page_file: Option<String>,
    /// The storage section's capped pool; `None` sizes it at ~10% of the
    /// file.
    buffer_pages: Option<usize>,
    json: bool,
    out: String,
}

/// The flags and their defaults, which are the CI configuration.
#[rustfmt::skip]
const FLAGS: &[Flag<Flags>] = &[
    ("--grid", Preset("64"), |f, a| a.int(4).map(|n| f.side = n)),
    ("--shards", Preset("2"), |f, a| a.int(1).map(|n| f.engine.shards = n)),
    ("--threads", Preset("2"), |f, a| a.int(1).map(|n| f.engine.threads = n)),
    ("--queries", Preset("400"), |f, a| a.int(1).map(|n| f.workload.queries = n)),
    ("--mapping", Preset("hilbert"), |f, a| a.string().map(|s| f.mapping = s)),
    ("--partition", Preset("contiguous"), |f, a| partition(a).map(|p| f.engine.partition = p)),
    ("--repeats", Preset("3"), |f, a| a.int(1).map(|n| f.repeats = n)),
    ("--inflight", Preset("4"), |f, a| a.int(1).map(|n| f.inflight = n)),
    ("--shapes", Preset("deterministic,poisson,bursty,diurnal"), |f, a| {
        let names = "a comma-separated list of deterministic, poisson, bursty, diurnal";
        let shapes = |v: &str| v.split(',').map(|s| ArrivalShape::parse(s.trim())).collect();
        a.name("arrival shapes", names, shapes).map(|s| f.shapes = s)
    }),
    ("--queue-depth", Preset("64"), |f, a| a.int(1).map(|n| f.stream.queue_depth = n)),
    ("--batch-delay-us", Preset("200"), |f, a| a.float(0).map(|n| f.stream.batch_delay_us = n)),
    ("--slo-us", Preset("2000"), |f, a| a.float(1).map(|n| f.stream.slo_us = n)),
    ("--fault-plan", Optional("SPEC"), |f, a| fault_plan(a).map(|(_, s)| f.fault_plan = Some(s))),
    ("--page-file", Optional("PATH"), |f, a| a.string().map(|s| f.page_file = Some(s))),
    ("--readahead", Preset("8"), |f, a| a.int(1).map(|n| f.engine.readahead = n)),
    ("--buffer-pages", Optional("N"), |f, a| a.int(1).map(|n| f.buffer_pages = Some(n))),
    ("--json", Switch, |f, _| { f.json = true; Ok(()) }),
    ("--out", Preset("BENCH_serve.json"), |f, a| a.string().map(|s| f.out = s)),
];

/// Print why the run could not be measured and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("FAILED: {msg}");
    exit(1);
}

/// What every section shares: one grid, order, point set and labelled
/// workload, and the engine configuration the flags describe.
struct Bench {
    flags: Flags,
    order: LinearOrder,
    points: Vec<Vec<i64>>,
    workload: Vec<Query>,
    labels: Vec<&'static str>,
}

impl Bench {
    /// An engine under `cfg`: memory-resident, or reading the page file
    /// when one is given.
    fn engine(&self, cfg: EngineConfig) -> ServeEngine<'_> {
        match &self.flags.page_file {
            None => ServeEngine::new(&self.points, &self.order, cfg),
            Some(path) => self.disk_engine(cfg, Path::new(path)),
        }
    }

    fn disk_engine(&self, cfg: EngineConfig, path: &Path) -> ServeEngine<'_> {
        ServeEngine::with_page_file(&self.points, &self.order, cfg, path.to_path_buf())
            .unwrap_or_else(|e| {
                fail(&format!(
                    "cannot open page file {} (geometry/order must match this run's \
                     --grid/--mapping): {e}",
                    path.display()
                ))
            })
    }

    /// The stream configuration of one (shape, rate, policy) point.
    fn stream_config(
        &self,
        shape: ArrivalShape,
        rate_qps: f64,
        policy: AdmissionPolicy,
    ) -> StreamConfig {
        StreamConfig {
            arrival: ArrivalConfig::new(shape, rate_qps, 42),
            policy,
            ..self.flags.stream
        }
    }
}

/// The per-query latencies (µs) of one class.
fn class_latency_us(report: &BatchReport, labels: &[&'static str], class: &str) -> LatencySummary {
    let lats = report
        .outcomes
        .iter()
        .zip(labels)
        .filter(|(_, l)| **l == class)
        .map(|(o, _)| o.seconds * 1e6)
        .collect();
    LatencySummary::new(lats)
}

/// Section 1, the serving matrix. Returns its JSON entries and whether
/// every replay answered with `digest`.
fn matrix(b: &Bench, digest: u64) -> (Vec<String>, bool) {
    let f = &b.flags;
    println!(
        "{:>7} {:>8} {:>9} {:>10} {:>10} {:>9} {:>9} {:>8} {:>10} {:>10} {:>18}",
        "shards",
        "threads",
        "inflight",
        "seconds",
        "q/s",
        "pages p50",
        "pages p99",
        "balance",
        "hit cold",
        "hit warm",
        "digest"
    );
    let mut combos = vec![
        (1, 1),
        (f.engine.shards, 1),
        (1, f.engine.threads),
        (f.engine.shards, f.engine.threads),
    ];
    combos.sort_unstable();
    combos.dedup();
    let mut flights = vec![1usize, f.inflight];
    flights.dedup();
    let mut entries = Vec::new();
    let mut parity = true;
    for (shards, threads) in combos {
        let cfg = EngineConfig {
            shards,
            threads,
            ..b.flags.engine
        };
        // One engine per in-flight count (buffer pools persist across
        // repeats: the first replay is cold, the last is steady-state),
        // with the admission modes' repeats interleaved so both see the
        // same thermal/frequency drift.
        let engines: Vec<ServeEngine> = flights.iter().map(|_| b.engine(cfg)).collect();
        let mut seconds = vec![0.0f64; flights.len()];
        let mut runs: Vec<Vec<BatchReport>> = vec![Vec::new(); flights.len()];
        for _ in 0..f.repeats {
            for (slot, (&inflight, engine)) in flights.iter().zip(&engines).enumerate() {
                let start = Instant::now();
                let report = engine
                    .run_inflight(&b.workload, inflight)
                    .expect("no replay panic");
                seconds[slot] += start.elapsed().as_secs_f64();
                runs[slot].push(report);
            }
        }
        for ((&inflight, seconds), runs) in flights.iter().zip(seconds).zip(&runs) {
            parity &= runs.iter().all(|r| r.digest == digest);
            let (cold, warm) = (&runs[0], &runs[runs.len() - 1]);
            let qps = (f.workload.queries * f.repeats) as f64 / seconds;
            let latency: Vec<String> = CLASS_LABELS
                .iter()
                .map(|&class| {
                    let lats = class_latency_us(warm, &b.labels, class);
                    format!(
                        "{{\"class\": \"{class}\", \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
                        lats.quantile(0.5),
                        lats.quantile(0.99)
                    )
                })
                .collect();
            let (hit_cold, hit_warm) = (
                cold.buffer_stats().hit_ratio(),
                warm.buffer_stats().hit_ratio(),
            );
            println!(
                "{shards:>7} {threads:>8} {inflight:>9} {seconds:>9.4}s {qps:>10.0} {:>9} {:>9} \
                 {:>8.2} {hit_cold:>10.4} {hit_warm:>10.4} {:>18}",
                warm.page_quantile(0.5),
                warm.page_quantile(0.99),
                warm.shard_balance(),
                format!("{:016x}", warm.digest),
            );
            entries.push(format!(
                "{{\"shards\": {shards}, \"threads\": {threads}, \"inflight\": {inflight}, \
                 \"mode\": \"{}\", \"seconds_total\": {seconds:.6}, \"qps\": {qps:.1}, \
                 \"pages_p50\": {}, \"pages_p99\": {}, \"shard_balance\": {:.3}, \
                 \"hit_ratio_cold\": {hit_cold:.4}, \"storage_reads_cold\": {}, \
                 \"hit_ratio_warm\": {hit_warm:.4}, \"storage_reads_warm\": {}, \
                 \"latency\": [{}], \"digest\": \"{:016x}\"}}",
                if threads > 1 { "pooled" } else { "serial" },
                warm.page_quantile(0.5),
                warm.page_quantile(0.99),
                warm.shard_balance(),
                cold.total_misses(),
                warm.total_misses(),
                latency.join(", "),
                warm.digest,
            ));
        }
    }
    (entries, parity)
}

/// Section 2, streaming admission. Returns the section's JSON, the
/// streamed-vs-batch parity, the SLO gate and the headroom rate.
fn stream(b: &Bench, engine: &ServeEngine) -> (String, bool, bool, f64) {
    let f = &b.flags;
    // Calibrate the offered rates from the workload's *simulated* service
    // cost so the headroom point sits at a fixed utilisation on every
    // machine: capacity = shards / mean per-shard service time. Headroom
    // runs at 20% of capacity (bursty's 4x on-phase peak and diurnal's
    // 1.5x crest both stay below saturation); overload at 3x capacity.
    let service = ServiceModel::default();
    let planned = engine.plan_batch(&b.workload);
    let total_service_us: f64 = (0..planned.len())
        .map(|q| {
            planned
                .shard_loads(q)
                .iter()
                .map(|&(_, pages, runs)| service.unit_us(pages, runs))
                // xtask:allow(float-reduce): serial fold in query order over a fixed plan — deterministic, and only calibrates the offered rate
                .sum::<f64>()
        })
        .sum();
    let capacity_qps = f.engine.shards as f64 * f.workload.queries as f64 * 1e6 / total_service_us;
    let (base_rate, overload_rate) = (0.2 * capacity_qps, 3.0 * capacity_qps);
    println!(
        "\ncalibration: mean service {:.1}us/query, capacity {capacity_qps:.0} q/s, \
         headroom {base_rate:.0} q/s, overload {overload_rate:.0} q/s",
        total_service_us / f.workload.queries as f64,
    );
    println!(
        "{:>14} {:>9} {:>10} {:>6} {:>9} {:>5} {:>9} {:>9} {:>9} {:>7} {:>6} {:>7}",
        "shape",
        "rate",
        "q/s",
        "policy",
        "admitted",
        "shed",
        "p50us",
        "p99us",
        "p999us",
        "viol%",
        "depth",
        "parity"
    );
    let mut points: Vec<(ArrivalShape, &str, f64, AdmissionPolicy)> = Vec::new();
    for &shape in &f.shapes {
        points.push((shape, "headroom", base_rate, AdmissionPolicy::Shed));
        points.push((shape, "overload", overload_rate, AdmissionPolicy::Shed));
    }
    // One block-policy overload point: everything admitted, stalls paid
    // in latency instead of shed work.
    points.push((
        f.shapes[0],
        "overload",
        overload_rate,
        AdmissionPolicy::Block,
    ));
    let (mut entries, mut parity, mut slo_gate, mut overload_sheds) =
        (Vec::new(), true, true, true);
    for (shape, rate, rate_qps, policy) in points {
        let report = stream_serve(
            engine,
            &b.workload,
            &b.labels,
            &b.stream_config(shape, rate_qps, policy),
        )
        .expect("the fault-free stream has no replay panics");
        // The parity contract, checked for every entry: a one-shot batch
        // run of the admitted subsequence produces the identical digest.
        let admitted: Vec<Query> = report
            .admitted_idx
            .iter()
            .map(|&q| b.workload[q].clone())
            .collect();
        let same = engine
            .run(&admitted)
            .expect("the fault-free stream has no replay panics")
            .digest
            == report.batch.digest;
        let slo = &report.slo;
        parity &= same;
        if rate == "headroom" {
            slo_gate &= slo.slo_met && slo.shed == 0;
        } else if policy == AdmissionPolicy::Shed {
            overload_sheds &= slo.shed > 0;
        }
        println!(
            "{:>14} {rate:>9} {rate_qps:>10.0} {:>6} {:>9} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>6.2}% {:>6} {:>7}",
            shape.to_string(),
            policy.to_string(),
            slo.admitted,
            slo.shed,
            slo.p50_us,
            slo.p99_us,
            slo.p999_us,
            slo.violation_pct,
            slo.max_queue_depth,
            if same { "ok" } else { "FAIL" },
        );
        let shed_by_class: Vec<String> = slo
            .shed_by_class
            .iter()
            .map(|(class, shed)| format!("{{\"class\": \"{class}\", \"shed\": {shed}}}"))
            .collect();
        entries.push(format!(
            "{{\"shape\": \"{shape}\", \"rate\": \"{rate}\", \"rate_qps\": {rate_qps:.0}, \
             \"policy\": \"{policy}\", \"offered\": {}, \"admitted\": {}, \"shed\": {}, \
             \"shed_by_class\": [{}], \"blocked_batches\": {}, \"blocked_us\": {:.1}, \
             \"micro_batches\": {}, \"max_queue_depth\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {:.1}, \
             \"violations\": {}, \"violation_pct\": {:.2}, \"slo_met\": {}, \
             \"sim_makespan_us\": {:.1}, \"wall_qps\": {:.1}, \
             \"digest\": \"{:016x}\", \"parity\": {same}}}",
            slo.offered,
            slo.admitted,
            slo.shed,
            shed_by_class.join(", "),
            slo.blocked_batches,
            slo.blocked_us,
            report.micro_batches,
            slo.max_queue_depth,
            slo.p50_us,
            slo.p99_us,
            slo.p999_us,
            slo.max_us,
            slo.violations,
            slo.violation_pct,
            slo.slo_met,
            report.sim_makespan_us,
            report.batch.queries_per_second(),
            report.batch.digest,
        ));
    }
    if !parity {
        eprintln!("FAILED: a streamed digest diverges from one-shot batch execution");
    }
    if !slo_gate {
        eprintln!("FAILED: a headroom entry missed its SLO or shed work");
    }
    if !overload_sheds {
        // Informational: a too-generous queue bound hides the
        // backpressure path this section exists to exercise.
        eprintln!("note: an overload entry shed nothing; consider a smaller --queue-depth");
    }
    let cfg = b.stream_config(f.shapes[0], base_rate, AdmissionPolicy::Shed);
    let json = format!(
        "{{\"service_model\": {{\"per_page_us\": {}, \"per_seek_us\": {}, \"per_unit_us\": {}}}, \
         \"batch_delay_us\": {}, \"max_batch\": {}, \"queue_depth\": {}, \"slo_target_us\": {}, \
         \"base_rate_qps\": {base_rate:.0}, \"overload_rate_qps\": {overload_rate:.0}, \
         \"entries\": [\n{}\n  ]}}",
        service.per_page_us,
        service.per_seek_us,
        service.per_unit_us,
        cfg.batch_delay_us,
        cfg.max_batch,
        cfg.queue_depth,
        cfg.slo_us,
        json_lines(&entries),
    );
    (json, parity, slo_gate, base_rate)
}

/// Section 3, the fault sweep: the headroom stream through fresh engines
/// under each plan, scored against the unfaulted stream on `engine`.
/// Returns the JSON entries and the fault gate.
fn faults(b: &Bench, engine: &ServeEngine, base_rate: f64) -> (Vec<String>, bool) {
    let f = &b.flags;
    let cfg = b.stream_config(f.shapes[0], base_rate, AdmissionPolicy::Shed);
    let baseline = stream_serve(engine, &b.workload, &b.labels, &cfg)
        .expect("the unfaulted baseline has no replay panics");
    let permanent = f.fault_plan.clone().unwrap_or_else(|| "kill!:0@12".into());
    let transient = format!("flaky:{}@0+2", 1.min(f.engine.shards - 1));
    let (mut entries, mut gate) = (Vec::new(), true);
    for (label, plan) in [("permanent", permanent), ("transient", transient)] {
        let faulted = b.engine(b.flags.engine);
        faulted.inject_faults(FaultPlan::parse(&plan).expect("plans are pre-validated"));
        let report = stream_serve(&faulted, &b.workload, &b.labels, &cfg)
            .unwrap_or_else(|e| fail(&format!("fault sweep '{label}' errored: {e}")));
        // Fault-free bitwise identity: penalties never reach admission,
        // so the admitted sequence must match, and every non-degraded
        // query must answer with the identical (results, pages, runs).
        let (trips, epoch): (usize, u64) = (
            faulted
                .health_snapshot()
                .iter()
                .map(|b| b.trips as usize)
                .sum(),
            faulted.epoch(),
        );
        let identical = report.admitted_idx == baseline.admitted_idx
            && report
                .batch
                .outcomes
                .iter()
                .zip(&baseline.batch.outcomes)
                .filter(|(got, _)| got.degraded_pages == 0)
                .all(|(got, want)| {
                    got.results == want.results && got.pages == want.pages && got.runs == want.runs
                });
        let slo = &report.slo;
        let slo_met = slo.fault_free_p99_us <= slo.target_us;
        let recovered =
            report.batch.coverage.is_clean() && report.batch.digest == baseline.batch.digest;
        let pass = match label {
            "transient" => identical && recovered,
            // A user-supplied plan has unknown degradation; gate on the
            // universal contracts only.
            _ if f.fault_plan.is_some() => identical && slo_met,
            _ => identical && slo_met && trips >= 1 && epoch >= 1 && slo.degraded > 0,
        };
        gate &= pass;
        println!(
            "fault sweep [{label}] plan {plan}: admitted {} degraded {} trips {} epoch {} \
             fault-free p99 {:.1}us identical {identical} recovered {recovered} -> {}",
            slo.admitted,
            slo.degraded,
            trips,
            epoch,
            slo.fault_free_p99_us,
            if pass { "pass" } else { "FAIL" },
        );
        entries.push(format!(
            "{{\"label\": \"{label}\", \"plan\": \"{plan}\", \"offered\": {}, \"admitted\": {}, \
             \"degraded\": {}, \"trips\": {}, \"epoch\": {}, \"fault_free_p99_us\": {:.1}, \
             \"fault_free_identical\": {identical}, \"fault_slo_met\": {slo_met}, \
             \"recovered\": {recovered}, \"degraded_digest\": \"{:016x}\", \"pass\": {pass}}}",
            slo.offered,
            slo.admitted,
            slo.degraded,
            trips,
            epoch,
            slo.fault_free_p99_us,
            report.batch.degraded_digest(),
        ));
    }
    if !gate {
        eprintln!("FAILED: the fault sweep missed its chaos gate");
    }
    (entries, gate)
}

/// Section 4, out-of-core serving. Returns the section's JSON and the
/// storage gate.
fn storage(b: &Bench) -> (String, bool) {
    let f = &b.flags;
    let mapper = PageMapper::new(&b.order, PageLayout::new(b.flags.engine.records_per_page));
    let pages = mapper.num_pages();
    // Auto pool: ~10% of the file, floored so the prefetch budget (which
    // never evicts the demand page, so caps at capacity - 1) stays open.
    let pool = f
        .buffer_pages
        .unwrap_or((pages / 10).max(f.engine.readahead + 2));
    let path = match &f.page_file {
        Some(p) => PathBuf::from(p),
        None => {
            let p =
                std::env::temp_dir().join(format!("slpm-serve-bench-{}.pages", std::process::id()));
            write_page_file(&p, &mapper, b.flags.engine.record_size)
                .unwrap_or_else(|e| fail(&format!("cannot write page file {}: {e}", p.display())));
            p
        }
    };
    let disk = |readahead: usize| {
        let cfg = EngineConfig {
            buffer_pages: pool,
            readahead,
            ..b.flags.engine
        };
        b.disk_engine(cfg, &path)
    };
    let memory_digest = ServeEngine::new(&b.points, &b.order, b.flags.engine)
        .run(&b.workload)
        .expect("no replay panic")
        .digest;
    let oocore = disk(f.engine.readahead);
    let t0 = Instant::now();
    let cold = oocore.run(&b.workload).expect("no replay panic");
    let cold_qps = f.workload.queries as f64 / t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = oocore.run(&b.workload).expect("no replay panic");
    let warm_qps = f.workload.queries as f64 / t1.elapsed().as_secs_f64();
    // The ordered sweep: two full-domain ranges in one batch, so each
    // shard sweeps every page it owns once and serves both queries from
    // it. Without readahead every page is its own read; with it, runs of
    // up to `1 + readahead` pages are.
    let side = f.side as i64;
    let sweep: Vec<Query> = (0..2)
        .map(|_| {
            Query::Range(Mbr {
                lo: vec![0, 0],
                hi: vec![side - 1, side - 1],
            })
        })
        .collect();
    let ahead = disk(f.engine.readahead)
        .run(&sweep)
        .expect("no replay panic");
    let plain = disk(0).run(&sweep).expect("no replay panic");
    let (ra, pl) = (ahead.buffer_stats(), plain.buffer_stats());
    // The random workload in 64-query batches through pools holding 1/16
    // of each shard's pages with readahead 8 (the acceptance benchmark's
    // serve-disk geometry), and the same queries one per batch, where
    // each sweep serves one query.
    let shard_pool = pages.div_ceil(f.engine.shards).div_ceil(16);
    let random_batches = |batch: usize| {
        let engine = b.disk_engine(
            EngineConfig {
                buffer_pages: shard_pool,
                readahead: 8,
                ..b.flags.engine
            },
            &path,
        );
        let mut stats = BufferStats::default();
        for queries in b.workload.chunks(batch) {
            stats.merge(&engine.run(queries).expect("no replay panic").buffer_stats());
        }
        stats
    };
    let (batched, single) = (random_batches(64), random_batches(1));
    if f.page_file.is_none() {
        // xtask:allow(fs-only-in-storage): removes its own temp page file
        let _ = std::fs::remove_file(&path);
    }
    let parity = cold.digest == memory_digest
        && warm.digest == memory_digest
        && ahead.digest == plain.digest;
    let readahead_cut = ra.misses < pl.misses && ra.prefetch_hits > 0;
    let gate = parity && readahead_cut;
    let per_query = |n: usize| n as f64 / f.workload.queries as f64;
    println!(
        "out-of-core: {pages} pages, pool {pool}, readahead {}: cold {cold_qps:.0} q/s, \
         warm {warm_qps:.0} q/s, sweep misses {} (readahead) vs {} (none), \
         prefetched {} ({} hit) -> {}",
        f.engine.readahead,
        ra.misses,
        pl.misses,
        ra.prefetched,
        ra.prefetch_hits,
        if gate { "pass" } else { "FAIL" },
    );
    println!(
        "random batches (pool {shard_pool} per shard, readahead 8): {:.2} misses and {:.2} reads \
         per query in 64-query batches, {:.2} and {:.2} one query at a time",
        per_query(batched.misses),
        per_query(batched.misses + batched.prefetched),
        per_query(single.misses),
        per_query(single.misses + single.prefetched),
    );
    if !parity {
        eprintln!("FAILED: disk-backed serving diverged from the in-memory engine");
    }
    if !readahead_cut {
        eprintln!("FAILED: readahead did not cut demand misses on the ordered sweep");
    }
    let json = format!(
        "{{\"page_file\": \"{}\", \"pages\": {pages}, \"buffer_pages\": {pool}, \
         \"readahead\": {}, \"cold_wall_qps\": {cold_qps:.1}, \"warm_wall_qps\": {warm_qps:.1}, \
         \"memory_digest\": \"{memory_digest:016x}\", \"cold_digest\": \"{:016x}\", \
         \"warm_digest\": \"{:016x}\", \"sweep_plain_misses\": {}, \
         \"sweep_readahead_misses\": {}, \"sweep_prefetched\": {}, \
         \"sweep_prefetch_hits\": {}, \"random_batches\": {{\"buffer_pages\": {shard_pool}, \
         \"readahead\": 8, \"batch\": 64, \"misses\": {}, \"prefetched\": {}, \
         \"misses_per_query\": {:.4}, \"reads_per_query\": {:.4}, \"single_misses\": {}, \
         \"single_prefetched\": {}, \"single_misses_per_query\": {:.4}, \
         \"single_reads_per_query\": {:.4}}}}}",
        f.page_file.as_deref().unwrap_or("(temp)"),
        f.engine.readahead,
        cold.digest,
        warm.digest,
        pl.misses,
        ra.misses,
        ra.prefetched,
        ra.prefetch_hits,
        batched.misses,
        batched.prefetched,
        per_query(batched.misses),
        per_query(batched.misses + batched.prefetched),
        single.misses,
        single.prefetched,
        per_query(single.misses),
        per_query(single.misses + single.prefetched),
    );
    (json, gate)
}

/// JSON array items, one per line.
fn json_lines(items: &[String]) -> String {
    items
        .iter()
        .map(|item| format!("    {item}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = flags::parse("serve_bench", FLAGS, &args).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", flags::usage("usage: serve_bench ", FLAGS));
        exit(2)
    });
    let spec = GridSpec::cube(flags.side, 2);
    let order = curve_order_by_name(&spec, &flags.mapping).unwrap_or_else(|msg| fail(&msg));
    let (workload, labels) = mixed_workload_labeled(&spec, &flags.workload)
        .into_iter()
        .unzip();
    let b = Bench {
        flags,
        order,
        points: grid_points(&spec),
        workload,
        labels,
    };
    let f = &b.flags;

    // The engine the stream and fault sections share, and one plain batch
    // run on it: the digest every matrix entry must reproduce, and the
    // best-first planner's R-tree cost (a function of the workload and
    // the order alone, whatever the shards, threads or backing).
    let engine = b.engine(b.flags.engine);
    let reference = engine.run(&b.workload).expect("no replay panic");
    let (mut knn_nodes, mut knn_leaves, mut total_nodes) = (0usize, 0usize, 0usize);
    for (outcome, query) in reference.outcomes.iter().zip(&b.workload) {
        total_nodes += outcome.tree.nodes_visited;
        if matches!(query, Query::Knn { .. }) {
            knn_nodes += outcome.tree.nodes_visited;
            knn_leaves += outcome.tree.leaves_visited;
        }
    }
    println!("knn (best-first): nodes {knn_nodes}, leaves {knn_leaves}; all queries: nodes {total_nodes}\n");

    let (matrix_entries, matrix_parity) = matrix(&b, reference.digest);
    if !matrix_parity {
        eprintln!("FAILED: digests diverge across shard/thread/inflight configurations");
    }
    let (stream_json, stream_parity, slo_gate, base_rate) = stream(&b, &engine);
    let (fault_entries, fault_gate) = faults(&b, &engine, base_rate);
    let (storage_json, storage_gate) = storage(&b);
    let parity = matrix_parity && stream_parity;
    let gates = format!(
        "{{\"parity\": {parity}, \"slo_gate\": {slo_gate}, \"fault_gate\": {fault_gate}, \
         \"storage_gate\": {storage_gate}}}"
    );
    println!("gates: {gates}");
    if f.json {
        let body = format!(
            "{{\n  \"schema\": \"slpm.serve.v7\",\n  \
             \"description\": \"One mixed range/kNN workload through the serving engine: matrix, stream, faults, storage\",\n  \
             \"grid\": [{side}, {side}],\n  \"mapping\": \"{}\",\n  \"queries\": {},\n  \
             \"shards\": {},\n  \"threads\": {},\n  \"partition\": \"{}\",\n  \
             \"records_per_page\": {},\n  \"buffer_pages\": {},\n  \"page_file\": {},\n  \
             \"readahead\": {},\n  \"host_parallelism\": {},\n  \"gates\": {gates},\n  \
             \"knn\": {{\"knn_nodes\": {knn_nodes}, \"knn_leaves\": {knn_leaves}, \"total_nodes\": {total_nodes}}},\n  \
             \"matrix\": {{\"repeats\": {}, \"inflight\": {}, \"entries\": [\n{}\n  ]}},\n  \
             \"stream\": {stream_json},\n  \
             \"faults\": {{\"entries\": [\n{}\n  ]}},\n  \
             \"storage\": {storage_json}\n}}\n",
            f.mapping,
            f.workload.queries,
            f.engine.shards,
            f.engine.threads,
            f.engine.partition,
            b.flags.engine.records_per_page,
            b.flags.engine.buffer_pages,
            f.page_file.as_ref().map_or("null".into(), |p| format!("\"{p}\"")),
            f.engine.readahead,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            f.repeats,
            f.inflight,
            json_lines(&matrix_entries),
            json_lines(&fault_entries),
            side = f.side,
        );
        // xtask:allow(fs-only-in-storage): benches persist their JSON artifacts
        if let Err(e) = std::fs::write(&f.out, body) {
            fail(&format!("cannot write {}: {e}", f.out));
        }
        println!("\nwrote {}", f.out);
    }
    if !(parity && slo_gate && fault_gate && storage_gate) {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_serve::shard::Partition;

    fn parse(args: &[&str]) -> Result<Flags, flags::ParseError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        flags::parse("serve_bench", FLAGS, &args)
    }

    #[test]
    fn the_presets_are_the_ci_configuration() {
        let f = parse(&[]).expect("the presets parse");
        let e = f.engine;
        assert_eq!(
            (f.side, e.shards, e.threads, f.workload.queries),
            (64, 2, 2, 400)
        );
        assert_eq!(
            (f.mapping.as_str(), e.partition),
            ("hilbert", Partition::Contiguous)
        );
        assert_eq!(
            (f.repeats, f.inflight, f.shapes),
            (3, 4, ArrivalShape::ALL.to_vec())
        );
        let s = f.stream;
        assert_eq!(
            (s.queue_depth, s.batch_delay_us, s.slo_us),
            (64, 200.0, 2_000.0)
        );
        assert_eq!(
            (f.fault_plan, f.page_file, f.buffer_pages),
            (None, None, None)
        );
        assert_eq!(
            (e.readahead, f.json, f.out.as_str()),
            (8, false, "BENCH_serve.json")
        );
    }

    #[test]
    fn every_flag_rejects_a_missing_or_bad_value_with_its_name() {
        for &(flag, kind, _) in FLAGS {
            match parse(&[flag]) {
                Ok(_) => assert_eq!(kind, Switch, "{flag}"),
                Err(e) => assert_eq!(e.0, format!("{flag} requires a value")),
            }
            for junk in ["", "0", "-1", "x", "3", "kill!:9@x", "poisson,"] {
                if let Err(e) = parse(&[flag, junk]) {
                    assert!(e.0.contains(flag) || e.0.starts_with("unknown"), "{e}");
                }
            }
        }
        assert!(parse(&["--grid", "3"]).is_err());
        assert!(parse(&["--readahead", "0"]).is_err());
        assert!(parse(&["--fault-plan", "zap:0@1"]).is_err());
    }
}
