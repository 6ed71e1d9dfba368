//! Streaming admission under load: arrival shapes × offered rates, with
//! per-entry SLO scorecards and an in-process streamed-vs-batch parity
//! check.
//!
//! Replays one reproducible mixed range/kNN workload through
//! `slpm_serve::stream::stream_serve` for every requested arrival shape
//! at two offered rates:
//!
//! * **headroom** — a base rate calibrated from the workload's simulated
//!   service cost (a fixed fraction of aggregate shard capacity), where
//!   the SLO must hold for every shape, and
//! * **overload** — a multiple of capacity, where the shed policy must
//!   drop work at the queue bound (and one block-policy entry shows the
//!   stall-instead-of-shed alternative).
//!
//! Because arrivals, queueing and the SLO clock all live on the
//! simulated clock, every number that feeds a gate is machine-
//! independent; wall-clock throughput is recorded as an observable only.
//! The run **fails** (nonzero exit) if
//!
//! * any entry's streamed digest differs from a one-shot batch run of
//!   its admitted subsequence (the streamed-vs-batch parity contract), or
//! * any headroom entry misses its SLO or sheds work (the `slo_gate`
//!   CI's `stream-smoke` job asserts), or
//! * the **fault sweep** fails its chaos gate (`fault_gate`, the CI
//!   `chaos-smoke` job asserts): a canned plan permanently killing one
//!   shard mid-stream must trip the breaker, swap slice epochs, keep
//!   every fault-free query bitwise identical to the unfaulted baseline
//!   and keep the fault-free p99 inside the SLO, and a transient flaky
//!   plan must recover inside the retry budget with zero degradation.
//!   `--fault-plan SPEC` replaces the canned permanent plan, or
//! * the **out-of-core sweep** fails its storage gate (`storage_gate`,
//!   the CI `oocore-smoke` job asserts): the same engine geometry served
//!   from a real page file on disk — `--page-file PATH` to reuse a
//!   `slpm pack` artifact, else a temp file packed in-process — must
//!   answer the whole workload bitwise identically to the in-memory
//!   engine (cold pool and warm pool), and on an ordered full-domain
//!   sweep with the buffer pool capped at ~10% of the file,
//!   linear-order readahead (`--readahead`, default 8) must cut demand
//!   misses versus the identical sweep without it. Cold-vs-warm wall
//!   throughput is recorded as an observable only.
//!
//! Usage:
//!   stream_throughput [--grid N] [--shards S] [--threads T]
//!                     [--queries Q] [--shapes a,b,..] [--mapping M]
//!                     [--queue-depth D] [--batch-delay-us U]
//!                     [--slo-us U] [--fault-plan SPEC]
//!                     [--page-file PATH] [--readahead N]
//!                     [--buffer-pages N] [--json] [--out PATH]
//!
//! `--json` writes the machine-readable results (schema
//! `slpm.serve_throughput.v5`) to PATH (default BENCH_serve_stream.json,
//! so it never overwrites `serve_throughput`'s BENCH_serve.json); the
//! CI `stream-smoke` and `oocore-smoke` jobs upload that file as a
//! build artifact.

use slpm_graph::grid::GridSpec;
use slpm_querysim::mappings::curve_order_by_name;
use slpm_serve::arrival::{ArrivalConfig, ArrivalShape};
use slpm_serve::engine::{EngineConfig, Query, ServeEngine};
use slpm_serve::stream::{stream_serve, AdmissionPolicy, ServiceModel, StreamConfig, StreamReport};
use slpm_serve::workload::{grid_points, mixed_workload_labeled, WorkloadConfig};
use slpm_serve::FaultPlan;
use slpm_storage::{write_page_file, Mbr, PageLayout, PageMapper};
use std::path::PathBuf;
use std::time::Instant;

struct Entry {
    shape: ArrivalShape,
    rate_label: &'static str,
    rate_qps: f64,
    policy: AdmissionPolicy,
    report: StreamReport,
    parity: bool,
}

/// One fault-sweep run: a seeded plan streamed through a fresh engine,
/// scored against the unfaulted baseline of the same configuration.
struct FaultEntry {
    label: &'static str,
    plan: String,
    report: StreamReport,
    /// Every fault-free query answered bitwise identically (results,
    /// pages, runs) to the unfaulted baseline run.
    fault_free_identical: bool,
    /// Fault-free p99 stayed inside the SLO target.
    fault_slo_met: bool,
    /// Coverage came back clean and the digest matches the baseline
    /// (the expectation for transient plans inside the retry budget).
    recovered: bool,
    pass: bool,
}

/// The out-of-core sweep: the workload and an ordered full-domain scan
/// served from a real on-disk page file through a capped buffer pool.
struct StorageSweep {
    page_file: String,
    pages: usize,
    buffer_pages: usize,
    readahead: usize,
    cold_wall_qps: f64,
    warm_wall_qps: f64,
    memory_digest: u64,
    cold_digest: u64,
    warm_digest: u64,
    sweep_plain_misses: usize,
    sweep_readahead_misses: usize,
    sweep_prefetched: usize,
    sweep_prefetch_hits: usize,
    /// Disk == memory bitwise (cold and warm) and readahead cut demand
    /// misses on the ordered sweep. Pure counter arithmetic — identical
    /// on every machine; the wall qps fields are observables only.
    storage_gate: bool,
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    side: usize,
    mapping: &str,
    queries: usize,
    shards: usize,
    threads: usize,
    cfg: &StreamConfig,
    base_rate: f64,
    overload_rate: f64,
    slo_gate: bool,
    parity: bool,
    fault_gate: bool,
    entries: &[Entry],
    fault_entries: &[FaultEntry],
    storage: &StorageSweep,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"slpm.serve_throughput.v5\",\n");
    out.push_str(
        "  \"description\": \"Streaming admission: arrival shapes x rates, SLO scorecards, shed/block accounting\",\n",
    );
    out.push_str(&format!("  \"grid\": [{side}, {side}],\n"));
    out.push_str(&format!("  \"mapping\": \"{mapping}\",\n"));
    out.push_str(&format!("  \"queries\": {queries},\n"));
    out.push_str(&format!("  \"shards\": {shards},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let m = &cfg.service;
    out.push_str(&format!(
        "  \"service_model\": {{\"per_page_us\": {}, \"per_seek_us\": {}, \"per_unit_us\": {}}},\n",
        m.per_page_us, m.per_seek_us, m.per_unit_us
    ));
    out.push_str(&format!(
        "  \"batch_delay_us\": {}, \"max_batch\": {}, \"queue_depth\": {}, \"slo_target_us\": {},\n",
        cfg.batch_delay_us, cfg.max_batch, cfg.queue_depth, cfg.slo_us
    ));
    out.push_str(&format!(
        "  \"base_rate_qps\": {base_rate:.0},\n  \"overload_rate_qps\": {overload_rate:.0},\n"
    ));
    out.push_str(&format!("  \"slo_gate\": {slo_gate},\n"));
    out.push_str(&format!("  \"parity\": {parity},\n"));
    out.push_str(&format!("  \"fault_gate\": {fault_gate},\n"));
    out.push_str(&format!(
        "  \"storage\": {{\"page_file\": \"{}\", \"pages\": {}, \"buffer_pages\": {}, \
         \"readahead\": {}, \"cold_wall_qps\": {:.1}, \"warm_wall_qps\": {:.1}, \
         \"memory_digest\": \"{:016x}\", \"cold_digest\": \"{:016x}\", \
         \"warm_digest\": \"{:016x}\", \"sweep_plain_misses\": {}, \
         \"sweep_readahead_misses\": {}, \"sweep_prefetched\": {}, \
         \"sweep_prefetch_hits\": {}, \"storage_gate\": {}}},\n",
        storage.page_file,
        storage.pages,
        storage.buffer_pages,
        storage.readahead,
        storage.cold_wall_qps,
        storage.warm_wall_qps,
        storage.memory_digest,
        storage.cold_digest,
        storage.warm_digest,
        storage.sweep_plain_misses,
        storage.sweep_readahead_misses,
        storage.sweep_prefetched,
        storage.sweep_prefetch_hits,
        storage.storage_gate,
    ));
    out.push_str("  \"fault_entries\": [\n");
    for (i, e) in fault_entries.iter().enumerate() {
        let slo = &e.report.slo;
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"plan\": \"{}\", \"offered\": {}, \"admitted\": {}, \
             \"degraded\": {}, \"trips\": {}, \"epoch\": {}, \
             \"fault_free_p99_us\": {:.1}, \"fault_free_identical\": {}, \
             \"fault_slo_met\": {}, \"recovered\": {}, \
             \"degraded_digest\": \"{:016x}\", \"pass\": {}}}{}\n",
            e.label,
            e.plan,
            slo.offered,
            slo.admitted,
            slo.degraded,
            e.report.trips,
            e.report.epoch,
            slo.fault_free_p99_us,
            e.fault_free_identical,
            e.fault_slo_met,
            e.recovered,
            e.report.degraded_digest(),
            e.pass,
            if i + 1 == fault_entries.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let slo = &e.report.slo;
        let shed_by_class: Vec<String> = slo
            .shed_by_class
            .iter()
            .map(|(class, shed)| format!("{{\"class\": \"{class}\", \"shed\": {shed}}}"))
            .collect();
        out.push_str(&format!(
            "    {{\"shape\": \"{}\", \"rate\": \"{}\", \"rate_qps\": {:.0}, \
             \"policy\": \"{}\", \"offered\": {}, \"admitted\": {}, \"shed\": {}, \
             \"shed_by_class\": [{}], \"blocked_batches\": {}, \"blocked_us\": {:.1}, \
             \"micro_batches\": {}, \"max_queue_depth\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {:.1}, \
             \"violations\": {}, \"violation_pct\": {:.2}, \"slo_met\": {}, \
             \"sim_makespan_us\": {:.1}, \"wall_qps\": {:.1}, \
             \"digest\": \"{:016x}\", \"parity\": {}}}{}\n",
            e.shape,
            e.rate_label,
            e.rate_qps,
            e.policy,
            slo.offered,
            slo.admitted,
            slo.shed,
            shed_by_class.join(", "),
            slo.blocked_batches,
            slo.blocked_us,
            e.report.micro_batches,
            slo.max_queue_depth,
            slo.p50_us,
            slo.p99_us,
            slo.p999_us,
            slo.max_us,
            slo.violations,
            slo.violation_pct,
            slo.slo_met,
            e.report.sim_makespan_us,
            e.report.queries_per_second(),
            e.report.digest,
            e.parity,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut side = 128usize;
    let mut shards = 4usize;
    let mut threads = 2usize;
    let mut queries = 400usize;
    let mut mapping = String::from("hilbert");
    let mut shapes: Vec<ArrivalShape> = ArrivalShape::ALL.to_vec();
    let mut queue_depth = 64usize;
    let mut batch_delay_us = 200u64;
    let mut slo_us = 2_000u64;
    let mut json = false;
    let mut fault_plan: Option<String> = None;
    let mut page_file: Option<String> = None;
    let mut readahead = 8usize;
    let mut buffer_pages = 0usize; // 0 = auto: ~10% of the file's pages
    let mut out_path = String::from("BENCH_serve_stream.json");
    let mut i = 0;
    let bad = |flag: &str| -> ! {
        eprintln!("{flag} requires a positive integer");
        std::process::exit(2);
    };
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--grid" => {
                i += 1;
                side = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 4)
                    .unwrap_or_else(|| bad("--grid (side >= 4)"));
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--shards"));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--threads"));
            }
            "--queries" => {
                i += 1;
                queries = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--queries"));
            }
            "--queue-depth" => {
                i += 1;
                queue_depth = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--queue-depth"));
            }
            "--batch-delay-us" => {
                i += 1;
                batch_delay_us = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad("--batch-delay-us"));
            }
            "--slo-us" => {
                i += 1;
                slo_us = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--slo-us"));
            }
            "--shapes" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--shapes requires a comma-separated list");
                    std::process::exit(2);
                });
                shapes = spec
                    .split(',')
                    .map(|s| {
                        ArrivalShape::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!(
                                "unknown arrival shape '{s}' \
                                 (deterministic, poisson, bursty, diurnal)"
                            );
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if shapes.is_empty() {
                    eprintln!("--shapes requires at least one shape");
                    std::process::exit(2);
                }
            }
            "--mapping" => {
                i += 1;
                mapping = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--mapping requires a name");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--fault-plan" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--fault-plan requires a plan spec (e.g. kill!:0@12)");
                    std::process::exit(2);
                });
                if let Err(e) = FaultPlan::parse(&spec) {
                    eprintln!("invalid --fault-plan: {e}");
                    std::process::exit(2);
                }
                fault_plan = Some(spec);
            }
            "--page-file" => {
                i += 1;
                page_file = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--page-file requires a path (e.g. from `slpm pack`)");
                    std::process::exit(2);
                }));
            }
            "--readahead" => {
                i += 1;
                readahead = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--readahead"));
            }
            "--buffer-pages" => {
                i += 1;
                buffer_pages = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| bad("--buffer-pages"));
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (try --grid N, --shards S, --threads T, \
                     --queries Q, --shapes a,b, --mapping M, --queue-depth D, \
                     --batch-delay-us U, --slo-us U, --fault-plan SPEC, \
                     --page-file PATH, --readahead N, --buffer-pages N, --json, \
                     --out PATH)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let spec = GridSpec::cube(side, 2);
    let order = match curve_order_by_name(&spec, &mapping) {
        Ok(order) => order,
        Err(msg) => {
            eprintln!("FAILED: {msg}");
            std::process::exit(1);
        }
    };
    let points = grid_points(&spec);
    let labeled = mixed_workload_labeled(
        &spec,
        &WorkloadConfig {
            queries,
            ..Default::default()
        },
    );
    let workload: Vec<Query> = labeled.iter().map(|(q, _)| q.clone()).collect();
    let labels: Vec<&'static str> = labeled.iter().map(|(_, l)| *l).collect();
    let engine = ServeEngine::new(
        &points,
        &order,
        EngineConfig {
            shards,
            threads,
            ..Default::default()
        },
    );

    // Calibrate the offered rates from the workload's *simulated* service
    // cost so the headroom point sits at a fixed utilisation on every
    // machine: capacity = shards / mean per-shard service time. Headroom
    // runs at 20% of capacity (bursty's 4x on-phase peak and diurnal's
    // 1.5x crest both stay below saturation); overload at 3x capacity.
    let service = ServiceModel::default();
    let planned = engine.plan_batch(&workload);
    let total_service_us: f64 = (0..planned.len())
        .map(|q| {
            planned
                .shard_loads(q)
                .iter()
                .map(|&(_, pages, runs)| {
                    service.per_unit_us
                        + runs as f64 * service.per_seek_us
                        + pages as f64 * service.per_page_us
                })
                // xtask:allow(float-reduce): serial fold in query order over a fixed plan — deterministic, and only calibrates the offered rate
                .sum::<f64>()
        })
        .sum();
    let capacity_qps = shards as f64 * queries as f64 * 1e6 / total_service_us;
    let base_rate = 0.2 * capacity_qps;
    let overload_rate = 3.0 * capacity_qps;
    println!(
        "calibration: mean service {:.1}us/query, capacity {:.0} q/s, \
         headroom {:.0} q/s, overload {:.0} q/s",
        total_service_us / queries as f64,
        capacity_qps,
        base_rate,
        overload_rate,
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
    let mut entries: Vec<Entry> = Vec::new();
    let mut plan: Vec<(ArrivalShape, &'static str, f64, AdmissionPolicy)> = Vec::new();
    for &shape in &shapes {
        plan.push((shape, "headroom", base_rate, AdmissionPolicy::Shed));
        plan.push((shape, "overload", overload_rate, AdmissionPolicy::Shed));
    }
    // One block-policy overload point: everything admitted, stalls paid
    // in latency instead of shed work.
    plan.push((shapes[0], "overload", overload_rate, AdmissionPolicy::Block));
    for (shape, rate_label, rate_qps, policy) in plan {
        let cfg = StreamConfig {
            arrival: ArrivalConfig::new(shape, rate_qps, 42),
            batch_delay_us: batch_delay_us as f64,
            queue_depth,
            policy,
            slo_us: slo_us as f64,
            service,
            ..Default::default()
        };
        let report = stream_serve(&engine, &workload, &labels, &cfg)
            .expect("the fault-free sweep has no replay panics");
        // The parity contract, checked in-process for every entry: a
        // one-shot batch run of the admitted subsequence must produce
        // the identical digest.
        let admitted: Vec<Query> = report
            .admitted_idx
            .iter()
            .map(|&q| workload[q].clone())
            .collect();
        let parity = engine
            .run(&admitted)
            .expect("the fault-free sweep has no replay panics")
            .digest
            == report.digest;
        let slo = &report.slo;
        println!(
            "{:>14} {:>9} {:>10.0} {:>6} {:>9} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>6.2}% {:>6} {:>7}",
            shape.to_string(),
            rate_label,
            rate_qps,
            policy.to_string(),
            slo.admitted,
            slo.shed,
            slo.p50_us,
            slo.p99_us,
            slo.p999_us,
            slo.violation_pct,
            slo.max_queue_depth,
            if parity { "ok" } else { "FAIL" },
        );
        entries.push(Entry {
            shape,
            rate_label,
            rate_qps,
            policy,
            report,
            parity,
        });
    }

    let parity = entries.iter().all(|e| e.parity);
    if !parity {
        eprintln!("FAILED: streamed digest diverges from one-shot batch execution");
    }
    // The SLO gate: at the calibrated headroom rate, every arrival shape
    // must meet the latency target without shedding anything. Purely
    // simulated-clock arithmetic — identical on every machine.
    let slo_gate = entries
        .iter()
        .filter(|e| e.rate_label == "headroom")
        .all(|e| e.report.slo.slo_met && e.report.slo.shed == 0);
    if !slo_gate {
        eprintln!("FAILED: a headroom entry missed its SLO or shed work");
    }
    let overload_sheds = entries
        .iter()
        .filter(|e| e.rate_label == "overload" && e.policy == AdmissionPolicy::Shed)
        .all(|e| e.report.slo.shed > 0);
    if !overload_sheds {
        // Informational: a too-generous queue bound hides the backpressure
        // path this bench exists to exercise.
        eprintln!("note: an overload entry shed nothing; consider a smaller --queue-depth");
    }
    println!(
        "slo gate (headroom, all shapes): {}  parity: {}",
        if slo_gate { "met" } else { "MISSED" },
        if parity { "ok" } else { "FAIL" },
    );

    // ---- Fault sweep (chaos gate) ----------------------------------
    // Stream the same workload at the headroom rate through fresh
    // engines: once clean (the baseline), then once per fault plan. The
    // canned permanent plan kills one of the shards mid-stream; the
    // transient plan must recover inside the retry budget. All scoring
    // is simulated-clock arithmetic, identical on every machine.
    let fault_cfg = StreamConfig {
        arrival: ArrivalConfig::new(shapes[0], base_rate, 42),
        batch_delay_us: batch_delay_us as f64,
        queue_depth,
        slo_us: slo_us as f64,
        service,
        ..Default::default()
    };
    let fresh_engine = || {
        ServeEngine::new(
            &points,
            &order,
            EngineConfig {
                shards,
                threads,
                ..Default::default()
            },
        )
    };
    let baseline = stream_serve(&fresh_engine(), &workload, &labels, &fault_cfg)
        .expect("the unfaulted baseline has no replay panics");
    let flaky_shard = 1.min(shards - 1);
    let plans: Vec<(&'static str, String)> = vec![
        (
            "permanent",
            fault_plan
                .clone()
                .unwrap_or_else(|| "kill!:0@12".to_string()),
        ),
        ("transient", format!("flaky:{flaky_shard}@0+2")),
    ];
    let mut fault_entries: Vec<FaultEntry> = Vec::new();
    for (label, plan) in plans {
        let engine = fresh_engine();
        engine.inject_faults(FaultPlan::parse(&plan).expect("plans are pre-validated"));
        let report = match stream_serve(&engine, &workload, &labels, &fault_cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAILED: fault sweep '{label}' errored: {e}");
                std::process::exit(1);
            }
        };
        // Fault-free bitwise identity: penalties never reach admission,
        // so the admitted sequence must match, and every non-degraded
        // query must answer with the identical (results, pages, runs).
        let mut fault_free_identical = report.admitted_idx == baseline.admitted_idx;
        if fault_free_identical {
            for (a, b) in report.outcomes.iter().zip(&baseline.outcomes) {
                if a.degraded_pages > 0 {
                    continue;
                }
                if a.results != b.results || a.pages != b.pages || a.runs != b.runs {
                    fault_free_identical = false;
                    break;
                }
            }
        }
        let fault_slo_met = report.slo.fault_free_p99_us <= report.slo.target_us;
        let recovered = report.coverage.is_clean() && report.digest == baseline.digest;
        let pass = match label {
            "transient" => fault_free_identical && recovered,
            // A user-supplied plan has unknown degradation; gate on the
            // universal contracts only.
            _ if fault_plan.is_some() => fault_free_identical && fault_slo_met,
            _ => {
                fault_free_identical
                    && fault_slo_met
                    && report.trips >= 1
                    && report.epoch >= 1
                    && report.slo.degraded > 0
            }
        };
        println!(
            "fault sweep [{label}] plan {plan}: admitted {} degraded {} trips {} \
             epoch {} fault-free p99 {:.1}us identical {} recovered {} -> {}",
            report.slo.admitted,
            report.slo.degraded,
            report.trips,
            report.epoch,
            report.slo.fault_free_p99_us,
            fault_free_identical,
            recovered,
            if pass { "pass" } else { "FAIL" },
        );
        fault_entries.push(FaultEntry {
            label,
            plan,
            report,
            fault_free_identical,
            fault_slo_met,
            recovered,
            pass,
        });
    }
    let fault_gate = fault_entries.iter().all(|e| e.pass);
    if !fault_gate {
        eprintln!("FAILED: the fault sweep missed its chaos gate");
    }
    println!(
        "fault gate (degraded serving): {}",
        if fault_gate { "met" } else { "MISSED" },
    );

    // ---- Out-of-core sweep (storage gate) --------------------------
    // The same engine geometry served from a real page file on disk,
    // through a buffer pool capped well under the file size. Two
    // deterministic contracts gate; wall throughput is an observable.
    let ecfg = EngineConfig {
        shards,
        threads,
        ..Default::default()
    };
    let mapper = PageMapper::new(&order, PageLayout::new(ecfg.records_per_page));
    let num_pages = mapper.num_pages();
    // Auto pool: ~10% of the file, floored so the prefetch budget (which
    // never evicts the demand page, so caps at capacity - 1) stays open.
    let pool = if buffer_pages > 0 {
        buffer_pages
    } else {
        (num_pages / 10).max(readahead + 2)
    };
    let (pf_path, temp_file) = match &page_file {
        Some(p) => (PathBuf::from(p), false),
        None => {
            let p = std::env::temp_dir().join(format!("slpm-stream-{}.pages", std::process::id()));
            if let Err(e) = write_page_file(&p, &mapper, ecfg.record_size) {
                eprintln!("FAILED: cannot write page file {}: {e}", p.display());
                std::process::exit(1);
            }
            (p, true)
        }
    };
    let disk_engine = |ra: usize| -> ServeEngine {
        ServeEngine::with_page_file(
            &points,
            &order,
            EngineConfig {
                buffer_pages: pool,
                readahead: ra,
                ..ecfg
            },
            pf_path.clone(),
        )
        .unwrap_or_else(|e| {
            eprintln!(
                "FAILED: cannot open page file {} (geometry/order must match \
                 this run's --grid/--mapping): {e}",
                pf_path.display()
            );
            std::process::exit(1);
        })
    };
    let memory_digest = engine.run(&workload).expect("no replay panic").digest;
    let oocore = disk_engine(readahead);
    let t0 = Instant::now();
    let cold = oocore.run(&workload).expect("no replay panic");
    let cold_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = oocore.run(&workload).expect("no replay panic");
    let warm_secs = t1.elapsed().as_secs_f64();
    // The ordered sweep: each full-domain range is one monotone pass over
    // every page in linear order; with the pool capped at ~10% of the
    // file, the second pass re-faults everything the first evicted, so
    // demand misses stay high unless readahead hides them.
    let sweep: Vec<Query> = (0..2)
        .map(|_| {
            Query::Range(Mbr {
                lo: vec![0, 0],
                hi: vec![side as i64 - 1, side as i64 - 1],
            })
        })
        .collect();
    let ra_report = disk_engine(readahead).run(&sweep).expect("no replay panic");
    let plain_report = disk_engine(0).run(&sweep).expect("no replay panic");
    let ra_stats = ra_report.buffer_stats();
    let plain_stats = plain_report.buffer_stats();
    if temp_file {
        // xtask:allow(fs-only-in-storage): removes its own temp page file
        let _ = std::fs::remove_file(&pf_path);
    }
    let parity_ok = cold.digest == memory_digest
        && warm.digest == memory_digest
        && ra_report.digest == plain_report.digest;
    let readahead_ok = ra_stats.misses < plain_stats.misses && ra_stats.prefetch_hits > 0;
    let storage_gate = parity_ok && readahead_ok;
    println!(
        "out-of-core: {} pages, pool {pool}, readahead {readahead}: cold {:.0} q/s, \
         warm {:.0} q/s, sweep misses {} (readahead) vs {} (none), \
         prefetched {} ({} hit) -> {}",
        num_pages,
        queries as f64 / cold_secs,
        queries as f64 / warm_secs,
        ra_stats.misses,
        plain_stats.misses,
        ra_stats.prefetched,
        ra_stats.prefetch_hits,
        if storage_gate { "pass" } else { "FAIL" },
    );
    if !parity_ok {
        eprintln!("FAILED: disk-backed serving diverged from the in-memory engine");
    }
    if !readahead_ok {
        eprintln!("FAILED: readahead did not cut demand misses on the ordered sweep");
    }
    println!(
        "storage gate (out-of-core parity + readahead): {}",
        if storage_gate { "met" } else { "MISSED" },
    );
    let storage = StorageSweep {
        page_file: page_file.unwrap_or_else(|| "(temp)".to_string()),
        pages: num_pages,
        buffer_pages: pool,
        readahead,
        cold_wall_qps: queries as f64 / cold_secs,
        warm_wall_qps: queries as f64 / warm_secs,
        memory_digest,
        cold_digest: cold.digest,
        warm_digest: warm.digest,
        sweep_plain_misses: plain_stats.misses,
        sweep_readahead_misses: ra_stats.misses,
        sweep_prefetched: ra_stats.prefetched,
        sweep_prefetch_hits: ra_stats.prefetch_hits,
        storage_gate,
    };

    if json {
        let cfg = StreamConfig {
            arrival: ArrivalConfig::new(shapes[0], base_rate, 42),
            batch_delay_us: batch_delay_us as f64,
            queue_depth,
            slo_us: slo_us as f64,
            service,
            ..Default::default()
        };
        let body = to_json(
            side,
            &mapping,
            queries,
            shards,
            threads,
            &cfg,
            base_rate,
            overload_rate,
            slo_gate,
            parity,
            fault_gate,
            &entries,
            &fault_entries,
            &storage,
        );
        // xtask:allow(fs-only-in-storage): benches persist their JSON artifacts
        if let Err(e) = std::fs::write(&out_path, &body) {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {out_path}");
    }
    if !parity || !slo_gate || !fault_gate || !storage_gate {
        std::process::exit(1);
    }
}
