//! Command execution for the `slpm` binary.

use crate::args::{Command, MappingChoice, ParseError, Serve};
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::{fiedler_pair_on, FiedlerOptions};
use slpm_linalg::with_threads;
use slpm_querysim::experiments::{
    ablation, declustering, fig1, fig3, fig4, fig5, fig6, knn, point_cloud, rtree_packing,
    storage_io,
};
use slpm_querysim::mappings::{curve_order, curve_order_by_name};
use slpm_serve::engine::ServeEngine;
use slpm_serve::stream::stream_serve;
use slpm_serve::workload::{grid_points, mixed_workload, mixed_workload_labeled};
use slpm_serve::BatchReport;
use slpm_sfc::TruePeanoCurve;
use slpm_storage::{write_page_file, PageLayout, PageMapper};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper};
use std::path::PathBuf;

/// Build the requested order over the grid. `threads` pins the spectral
/// eigensolver's worker count (ignored by the curve mappings). Alongside
/// the order comes λ₂ of the 4-connected grid Laplacian when building the
/// order solved it (`--mapping spectral`), so `slpm report` reuses it.
fn build_order(
    dims: &[usize],
    mapping: MappingChoice,
    threads: Option<usize>,
) -> Result<(LinearOrder, Option<f64>), ParseError> {
    let spec = GridSpec::new(dims);
    let err = |e: String| ParseError(e);
    let side = dims[0] as u64;
    let uniform = dims.iter().all(|&d| d as u64 == side);
    let k = dims.len();
    match mapping {
        // The curve mappings share one name → order dispatch with every
        // other `--mapping` consumer (e.g. the serve_bench binary).
        MappingChoice::Sweep
        | MappingChoice::Snake
        | MappingChoice::Peano
        | MappingChoice::Gray
        | MappingChoice::Hilbert => curve_order_by_name(&spec, &mapping.to_string())
            .map(|order| (order, None))
            .map_err(err),
        MappingChoice::TruePeano => {
            if !uniform {
                return Err(ParseError("truepeano requires a hypercube grid".into()));
            }
            Ok((
                curve_order(
                    &spec,
                    &TruePeanoCurve::from_side(k, side).map_err(|e| err(e.to_string()))?,
                ),
                None,
            ))
        }
        MappingChoice::Spectral | MappingChoice::Spectral8 => {
            let connectivity = if mapping == MappingChoice::Spectral {
                Connectivity::Orthogonal
            } else {
                Connectivity::Full
            };
            // The default eigensolver policy picks dense on tiny grids and
            // multilevel above 96 points, so `slpm order --mapping
            // spectral` stays fast from 3x3 up to production-sized grids.
            let mapper = SpectralMapper::new(SpectralConfig {
                connectivity,
                ..Default::default()
            });
            let mapped = with_threads(threads, |pool| mapper.map_grid_on(&spec, pool))
                .map_err(|e| err(e.to_string()))?;
            let lambda2 =
                (connectivity == Connectivity::Orthogonal).then_some(mapped.fiedler.lambda2);
            Ok((mapped.order, lambda2))
        }
    }
}

/// Printed under Figure 1's table: the pairs the paper draws depend on
/// each curve's orientation, so only the boundary effect itself is
/// compared.
const FIG1_NOTE: &str = "\
Paper's drawn-pair values (orientation-specific): Peano 14, Gray 9, Hilbert 5.
Our curve orientations give the worst adjacent stretches above; the
boundary-effect phenomenon (fractals ≫ non-fractals) is the reproduced claim.
";

/// Figure 6a: the cubic-query worst case, then its partial-query variant.
fn fig6a(cfg: &fig6::Fig6Config) -> String {
    format!(
        "{}\n{}",
        fig6::run_worst_case(cfg).render(),
        fig6::run_worst_case_partial(cfg).render()
    )
}

/// A named runner. `slpm figure` and `slpm experiment` check their
/// argument against these tables, run the entry it names, and list the
/// names in the help text.
pub type Runner = (&'static str, fn() -> String);

/// The tables behind the paper's figures.
#[rustfmt::skip]
pub const FIGURES: &[Runner] = &[
    ("fig1", || format!("{}\n{FIG1_NOTE}", fig1::run(4).render())),
    ("fig3", || fig3::run().render()),
    ("fig4", || fig4::run(4).render()),
    ("fig5a", || fig5::run_worst_case(&fig5::Fig5Config::default()).render()),
    ("fig5b", || fig5::run_fairness(&fig5::Fig5Config::default()).render()),
    ("fig6a", || fig6a(&fig6::Fig6Config::default())),
    ("fig6b", || fig6::run_fairness(&fig6::Fig6Config::default()).render()),
];

/// The ablations and the experiments beyond the paper.
pub const EXPERIMENTS: &[Runner] = &[
    ("knn", || knn::run(&knn::KnnConfig::default()).render()),
    ("storage", || {
        let cfg = storage_io::StorageIoConfig::default();
        storage_io::render(&storage_io::run(&cfg), &cfg)
    }),
    ("rtree", || {
        let cfg = rtree_packing::RtreeConfig::default();
        rtree_packing::render(&rtree_packing::run(&cfg), &cfg)
    }),
    ("decluster", || {
        let cfg = declustering::DeclusterConfig::default();
        declustering::render(&declustering::run(&cfg), &cfg)
    }),
    ("pointcloud", || {
        let cfg = point_cloud::PointCloudConfig::default();
        point_cloud::render(&point_cloud::run(&cfg), &cfg)
    }),
    ("ablations", ablation::render),
];

/// Run the entry of `table` called `name`.
fn run_named(table: &[Runner], name: &str) -> Result<String, ParseError> {
    let runner = table.iter().find(|r| r.0 == name);
    runner
        .map(|r| r.1())
        .ok_or_else(|| ParseError(format!("unknown name '{name}'")))
}

/// Render the fault-plane section shared by the batch and stream paths:
/// the active plan, per-query coverage with the degraded rank ranges,
/// breaker health per shard, the slice epoch and the degraded digest.
fn render_fault_section(out: &mut String, plan: &str, report: &BatchReport, engine: &ServeEngine) {
    let coverage = &report.coverage;
    out.push_str(&format!("fault plan: {plan}\n"));
    out.push_str(&format!(
        "coverage: {} queries, {} fault-free, {} degraded\n",
        coverage.queries,
        coverage.fault_free,
        coverage.degraded_queries(),
    ));
    const MAX_UNIT_LINES: usize = 8;
    for d in coverage.degraded_units.iter().take(MAX_UNIT_LINES) {
        out.push_str(&format!("  degraded: {d}\n"));
    }
    if coverage.degraded_units.len() > MAX_UNIT_LINES {
        out.push_str(&format!(
            "  ... and {} more degraded unit(s)\n",
            coverage.degraded_units.len() - MAX_UNIT_LINES
        ));
    }
    for b in engine.health_snapshot() {
        out.push_str(&format!(
            "  breaker[{}]: {} trips: {} incarnation: {} failed rebuilds: {}\n",
            b.shard, b.state, b.trips, b.incarnation, b.failed_rebuilds,
        ));
    }
    out.push_str(&format!(
        "epoch: {}  degraded digest: {:016x}\n",
        engine.epoch(),
        report.degraded_digest(),
    ));
}

/// Run the streaming admission loop for `slpm serve --stream` and render
/// its SLO scorecard. The in-process parity line replays the admitted
/// subsequence as one batch and compares digests, so every streamed
/// invocation doubles as a correctness check (skipped under a fault
/// plan, whose stamp cursors are consumed by the streamed run).
fn serve_stream(engine: &ServeEngine, spec: &GridSpec, s: &Serve) -> Result<String, ParseError> {
    let (workload, labels): (Vec<_>, Vec<_>) = mixed_workload_labeled(spec, &s.workload)
        .into_iter()
        .unzip();
    let cfg = &s.stream;
    let report = stream_serve(engine, &workload, &labels, cfg)
        .map_err(|e| ParseError(format!("stream failed: {e}")))?;
    let slo = &report.slo;
    let mut out = String::new();
    out.push_str(&format!(
        "streaming {} queries over a {:?} grid ({} mapping)\n\
         arrival: {} @ {} q/s  batch delay: {}us  max batch: {}  \
         queue depth: {}  admission: {}\n",
        s.workload.queries,
        s.dims,
        s.mapping,
        cfg.arrival.shape,
        cfg.arrival.rate_qps,
        cfg.batch_delay_us,
        cfg.max_batch,
        cfg.queue_depth,
        cfg.policy,
    ));
    out.push_str(&format!(
        "offered: {}  admitted: {}  shed: {}  micro-batches: {}  \
         blocked batches: {} ({:.0}us stalled)\n",
        slo.offered,
        slo.admitted,
        slo.shed,
        report.micro_batches,
        slo.blocked_batches,
        slo.blocked_us,
    ));
    for (class, shed) in &slo.shed_by_class {
        out.push_str(&format!("  shed[{class}]: {shed}\n"));
    }
    out.push_str(&format!(
        "latency p50: {:.1}us  p99: {:.1}us  p999: {:.1}us  max: {:.1}us (simulated)\n",
        slo.p50_us, slo.p99_us, slo.p999_us, slo.max_us,
    ));
    out.push_str(&format!(
        "slo target: {}us  violations: {} ({:.2}%)  max queue depth: {}  slo met: {}\n",
        slo.target_us,
        slo.violations,
        slo.violation_pct,
        slo.max_queue_depth,
        if slo.slo_met { "yes" } else { "no" },
    ));
    out.push_str(&format!(
        "sim makespan: {:.0}us  wall elapsed: {:.3}s  throughput: {:.0} q/s\n",
        report.sim_makespan_us,
        report.batch.elapsed_seconds,
        report.batch.queries_per_second(),
    ));
    if let Some((_, plan)) = &s.fault_plan {
        let trips: u32 = engine.health_snapshot().iter().map(|b| b.trips).sum();
        out.push_str(&format!(
            "degraded: {}  fault-free p99: {:.1}us  breaker trips: {trips}\n",
            slo.degraded, slo.fault_free_p99_us,
        ));
        render_fault_section(&mut out, plan, &report.batch, engine);
        out.push_str(&format!(
            "digest: {:016x}\nparity (stream vs batch): skipped (fault plan active)\n",
            report.batch.digest,
        ));
        return Ok(out);
    }
    // In-process parity witness: the streamed digest must equal a one-shot
    // batch run of the admitted subsequence, bit for bit.
    let admitted: Vec<_> = report
        .admitted_idx
        .iter()
        .map(|&q| workload[q].clone())
        .collect();
    let one_shot = engine
        .run(&admitted)
        .map_err(|e| ParseError(format!("parity replay failed: {e}")))?;
    out.push_str(&format!(
        "digest: {:016x}\nparity (stream vs batch): {}\n",
        report.batch.digest,
        if report.batch.digest == one_shot.digest {
            "ok"
        } else {
            "MISMATCH"
        },
    ));
    Ok(out)
}

/// `slpm serve`: build the engine the command's configuration describes,
/// then serve the workload as batches or as a stream.
fn serve(s: &Serve) -> Result<String, ParseError> {
    let spec = GridSpec::new(&s.dims);
    let (order, _) = build_order(&s.dims, s.mapping, None)?;
    let points = grid_points(&spec);
    let engine = match &s.page_file {
        // Out-of-core: shard slices fault pages off the packed file; a
        // geometry/order mismatch fails here, up front.
        Some(path) => ServeEngine::with_page_file(&points, &order, s.engine, PathBuf::from(path))
            .map_err(|e| ParseError(format!("cannot open page file '{path}': {e}")))?,
        None => ServeEngine::new(&points, &order, s.engine),
    };
    if let Some((plan, _)) = &s.fault_plan {
        engine.inject_faults(plan.clone());
    }
    if s.streaming {
        return serve_stream(&engine, &spec, s);
    }
    let workload = mixed_workload(&spec, &s.workload);
    let report = engine
        .run_inflight(&workload, s.inflight)
        .map_err(|e| ParseError(format!("serve failed: {e}")))?;
    let buffer = report.buffer_stats();
    let cfg = &s.engine;
    let mut out = String::new();
    out.push_str(&format!(
        "serving {} queries over a {:?} grid ({} mapping)\n\
         shards: {}  threads: {}  partition: {}  pages: {}  \
         buffer: {} frames/shard  page: {} records\n\
         in-flight batches: {}\n",
        s.workload.queries,
        s.dims,
        s.mapping,
        cfg.shards,
        cfg.threads,
        cfg.partition,
        engine.num_pages(),
        cfg.buffer_pages,
        cfg.records_per_page,
        s.inflight,
    ));
    if let Some(path) = &s.page_file {
        out.push_str(&format!(
            "storage: page file {path} (readahead {})\n",
            cfg.readahead
        ));
    }
    out.push_str(&format!(
        "results: {}  pages touched: {}  storage reads: {}  hit ratio: {:.3}\n",
        report.total_results(),
        report.total_pages(),
        report.total_misses(),
        buffer.hit_ratio(),
    ));
    out.push_str(&format!(
        "pages/query p50: {}  p99: {}  elapsed: {:.3}s  throughput: {:.0} q/s\n",
        report.page_quantile(0.5),
        report.page_quantile(0.99),
        report.elapsed_seconds,
        report.queries_per_second(),
    ));
    let latency = report.latency_summary();
    out.push_str(&format!(
        "latency/query p50: {:.1}us  p99: {:.1}us  shard balance (max/mean pages): {:.2}\n",
        latency.quantile(0.5) * 1e6,
        latency.quantile(0.99) * 1e6,
        report.shard_balance(),
    ));
    for shard in &report.shards {
        out.push_str(&format!(
            "  shard {}: {} queries, {} pages routed, {} runs, hit ratio {:.3}\n",
            shard.shard,
            shard.queries,
            shard.pages_routed,
            shard.runs,
            shard.buffer.hit_ratio(),
        ));
    }
    if let Some((_, plan)) = &s.fault_plan {
        render_fault_section(&mut out, plan, &report, &engine);
    }
    // The parity witness: identical for every --shards/--threads.
    out.push_str(&format!("digest: {:016x}\n", report.digest));
    Ok(out)
}

/// Execute a parsed command, returning its stdout text.
///
/// # Errors
/// What the command's library call reports, as a printable message.
pub fn execute(cmd: &Command) -> Result<String, ParseError> {
    match cmd {
        Command::Help => Ok(crate::args::help()),
        Command::Order(o) => {
            let dims = &o.dims;
            let spec = GridSpec::new(dims);
            let (order, _) = build_order(dims, o.mapping, o.threads)?;
            let mut out = String::new();
            if o.csv {
                // point coordinates, then rank.
                let header: Vec<String> = (0..dims.len()).map(|d| format!("x{d}")).collect();
                out.push_str(&header.join(","));
                out.push_str(",rank\n");
                for (i, coords) in spec.iter_points().enumerate() {
                    let cells: Vec<String> = coords.iter().map(usize::to_string).collect();
                    out.push_str(&cells.join(","));
                    out.push_str(&format!(",{}\n", order.rank_of(i)));
                }
            } else if dims.len() == 2 {
                out.push_str(&format!(
                    "{} order on a {}x{} grid:\n",
                    o.mapping, dims[0], dims[1]
                ));
                for x in 0..dims[0] {
                    let row: Vec<String> = (0..dims[1])
                        .map(|y| format!("{:>4}", order.rank_of(spec.index_of(&[x, y]))))
                        .collect();
                    out.push_str(&row.join(""));
                    out.push('\n');
                }
            } else {
                out.push_str(&format!(
                    "{} order ({} points):\n",
                    o.mapping,
                    spec.num_points()
                ));
                for (i, coords) in spec.iter_points().enumerate() {
                    out.push_str(&format!("{:?} -> {}\n", coords, order.rank_of(i)));
                }
            }
            Ok(out)
        }
        Command::Fiedler(f) => {
            let spec = GridSpec::new(&f.dims);
            let lap = spec.graph(Connectivity::Orthogonal).laplacian();
            let options = FiedlerOptions {
                method: f.method,
                ..Default::default()
            };
            let pair = with_threads(f.threads, |pool| fiedler_pair_on(&lap, &options, pool))
                .map_err(|e| ParseError(e.to_string()))?;
            let comps: Vec<String> = pair.vector.iter().map(|v| format!("{v:.4}")).collect();
            Ok(format!(
                "grid {:?}  method {}\nlambda_2 = {:.8}\nresidual = {:.2e}\nfiedler vector = [{}]\n",
                f.dims,
                pair.method,
                pair.lambda2,
                pair.residual,
                comps.join(", ")
            ))
        }
        Command::Figure { id } => run_named(FIGURES, id),
        Command::Experiment { name } => run_named(EXPERIMENTS, name),
        Command::Pack(p) => {
            let (order, _) = build_order(&p.dims, p.mapping, None)?;
            let mapper = PageMapper::new(&order, PageLayout::new(p.page_records));
            let header = write_page_file(PathBuf::from(&p.out).as_path(), &mapper, p.record_size)
                .map_err(|e| ParseError(format!("pack failed: {e}")))?;
            Ok(format!(
                "packed {:?} grid ({} mapping) -> {}\n\
                 records: {}  pages: {}  page: {} records x {} bytes\n\
                 file: {} bytes  format v{}  order digest: {:016x}\n",
                p.dims,
                p.mapping,
                p.out,
                header.num_records,
                header.num_pages,
                p.page_records,
                p.record_size,
                header.file_len(),
                header.version,
                header.order_digest,
            ))
        }
        Command::Serve(s) => serve(s),
        Command::Report(r) => {
            let spec = GridSpec::new(&r.dims);
            let graph = spec.graph(Connectivity::Orthogonal);
            let (order, lambda2) = build_order(&r.dims, r.mapping, None)?;
            let report = with_threads(None, |pool| {
                spectral_lpm::OrderReport::compute(
                    &graph,
                    &order,
                    lambda2,
                    &SpectralConfig::default(),
                    pool,
                )
            })
            .map_err(|e| ParseError(e.to_string()))?;
            Ok(report.render(&r.mapping.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    fn run(parts: &[&str]) -> Result<String, ParseError> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        execute(&args::parse(&argv)?)
    }

    #[test]
    fn order_grid_output() {
        let out = run(&["order", "--grid", "4x4", "--mapping", "hilbert"]).unwrap();
        assert!(out.contains("hilbert order on a 4x4 grid"));
        // Contains every rank 0..15.
        for r in 0..16 {
            assert!(out.contains(&format!("{r:>4}")), "missing rank {r}");
        }
    }

    #[test]
    fn order_csv_output() {
        let out = run(&["order", "--grid", "2x2", "--mapping", "sweep", "--csv"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "x0,x1,rank");
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1], "0,0,0");
        assert_eq!(lines[4], "1,1,3");
    }

    #[test]
    fn order_spectral_any_extent() {
        let out = run(&["order", "--grid", "3x5", "--mapping", "spectral", "--csv"]).unwrap();
        assert_eq!(out.lines().count(), 16);
    }

    #[test]
    fn order_rejects_non_cube_for_curves() {
        assert!(run(&["order", "--grid", "4x8", "--mapping", "hilbert"]).is_err());
        assert!(run(&["order", "--grid", "6x6", "--mapping", "hilbert"]).is_err());
        // True Peano needs powers of three.
        assert!(run(&["order", "--grid", "9x9", "--mapping", "truepeano"]).is_ok());
        assert!(run(&["order", "--grid", "8x8", "--mapping", "truepeano"]).is_err());
    }

    #[test]
    fn fiedler_command_reports_lambda2() {
        let out = run(&["fiedler", "--grid", "3x3", "--method", "dense"]).unwrap();
        assert!(out.contains("lambda_2 = 1.000000"), "{out}");
        assert!(out.contains("fiedler vector"));
    }

    #[test]
    fn fiedler_multilevel_and_auto_methods_run() {
        // Small grids route multilevel through its exact dense fallback, so
        // λ₂ matches the closed form tightly.
        let out = run(&["fiedler", "--grid", "3x3", "--method", "multilevel"]).unwrap();
        assert!(out.contains("method multilevel"), "{out}");
        assert!(out.contains("lambda_2 = 1.000000"), "{out}");
        // Without --method the size policy chooses, and the output names
        // the method that ran, not a flag string.
        // The policy's boundary: dense at 96 points, multilevel from 97 on.
        for (grid, method) in [
            ("8x8", "dense"),
            ("8x12", "dense"),
            ("97", "multilevel"),
            ("32x32", "multilevel"),
            ("64x64", "multilevel"),
        ] {
            let out = run(&["fiedler", "--grid", grid]).unwrap();
            assert!(out.contains(&format!("method {method}")), "{grid}: {out}");
        }
        assert!(matches!(
            run(&["fiedler", "--grid", "8x8", "--method", "auto"]),
            Err(ParseError(_))
        ));
    }

    #[test]
    fn figure_command_renders() {
        let out = run(&["figure", "fig3"]).unwrap();
        assert!(out.contains("lambda_2"));
        let out = run(&["figure", "fig1"]).unwrap();
        assert!(out.contains("Spectral"));
        assert!(out.ends_with("fractals ≫ non-fractals) is the reproduced claim.\n"));
        assert!(out.contains("\n\nPaper's drawn-pair values (orientation-specific)"));
        // Figure 6a at paper scale takes over a minute in debug builds; the
        // reduced configuration renders the same two sections.
        let out = fig6a(&fig6::Fig6Config::quick());
        assert!(out.starts_with("== Range-query worst case (cubic queries)"));
        assert!(out.contains("\n\n== Range-query worst case (partial queries)"));
    }

    #[test]
    fn help_lists_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn report_command_renders_metrics() {
        let out = run(&["report", "--grid", "4x4", "--mapping", "hilbert"]).unwrap();
        assert!(out.contains("lambda2"), "{out}");
        assert!(out.contains("bandwidth"));
        assert!(run(&["report", "--grid", "4x4"]).is_err());
    }

    #[test]
    fn serve_command_reports_and_is_shard_thread_invariant() {
        let digest_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("digest:"))
                .expect("digest line")
                .to_string()
        };
        let base = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--shards",
            "1",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(base.contains("serving 40 queries"));
        assert!(base.contains("hit ratio"));
        assert!(base.contains("shard 0:"));
        let reference = digest_line(&base);
        for (shards, threads) in [("4", "1"), ("1", "4"), ("4", "4")] {
            let out = run(&[
                "serve",
                "--grid",
                "16x16",
                "--queries",
                "40",
                "--shards",
                shards,
                "--threads",
                threads,
            ])
            .unwrap();
            assert_eq!(digest_line(&out), reference, "S={shards} T={threads}");
        }
        // Round-robin placement moves reads, never answers.
        let rr = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--shards",
            "4",
            "--partition",
            "round-robin",
        ])
        .unwrap();
        assert_eq!(digest_line(&rr), reference);
        // Concurrent admission and threading move work, never answers.
        for extra in [["--inflight", "4"], ["--threads", "4"]] {
            let mut argv = vec![
                "serve",
                "--grid",
                "16x16",
                "--queries",
                "40",
                "--inflight",
                "2",
            ];
            argv.extend(extra);
            let out = run(&argv).unwrap();
            assert_eq!(digest_line(&out), reference, "extra {extra:?}");
            assert!(out.contains("shard balance"));
            assert!(out.contains("latency/query"));
        }
        // A different seed is a different workload.
        let other = run(&["serve", "--grid", "16x16", "--queries", "40", "--seed", "7"]).unwrap();
        assert_ne!(digest_line(&other), reference);
    }

    #[test]
    fn serve_with_a_pool_larger_than_memory_answers_like_the_default() {
        // A billion frames per shard is far more than any host could
        // pre-size; the pool only grows with the pages it admits, so the
        // run answers, reads and hits exactly as the default pool does
        // (both hold every page of this grid).
        let grid = ["serve", "--grid", "16x16", "--queries", "10"];
        let report = |out: &str, prefix: &str| {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no {prefix:?} line"))
                .to_string()
        };
        let huge = run(&[&grid[..], &["--buffer-pages", "1000000000"]].concat()).unwrap();
        assert!(huge.contains("buffer: 1000000000 frames/shard"));
        let default = run(&grid).unwrap();
        assert_eq!(report(&huge, "digest:"), report(&default, "digest:"));
        assert_eq!(report(&huge, "results:"), report(&default, "results:"));
    }

    #[test]
    fn serve_stream_reports_slo_and_parity() {
        let digest_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("digest:"))
                .expect("digest line")
                .to_string()
        };
        // Uncontended stream: everything is admitted and the streamed
        // digest matches the one-shot batch run of the same workload.
        let out = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--stream",
            "--rate",
            "5000",
            "--arrival",
            "poisson",
        ])
        .unwrap();
        assert!(out.contains("streaming 40 queries"));
        assert!(out.contains("arrival: poisson @ 5000 q/s"));
        assert!(out.contains("offered: 40  admitted: 40  shed: 0"));
        assert!(out.contains("slo target: 2000us"));
        assert!(out.contains("parity (stream vs batch): ok"));
        let batch = run(&["serve", "--grid", "16x16", "--queries", "40"]).unwrap();
        assert_eq!(digest_line(&out), digest_line(&batch));
        // The simulated clock makes the stream thread-invariant too.
        let threaded = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--stream",
            "--rate",
            "5000",
            "--arrival",
            "poisson",
            "--shards",
            "4",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(digest_line(&threaded), digest_line(&out));
        // Overload with a tiny queue sheds under the default policy but
        // still passes the parity check on the admitted subsequence.
        let shed = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "60",
            "--stream",
            "--rate",
            "400000",
            "--arrival",
            "bursty",
            "--queue-depth",
            "1",
            "--batch-delay-us",
            "0",
        ])
        .unwrap();
        assert!(
            shed.contains("shed["),
            "expected per-class shed lines:\n{shed}"
        );
        assert!(shed.contains("parity (stream vs batch): ok"));
        // Block mode admits everything instead.
        let block = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "60",
            "--stream",
            "--rate",
            "400000",
            "--arrival",
            "bursty",
            "--queue-depth",
            "1",
            "--admission",
            "block",
        ])
        .unwrap();
        assert!(block.contains("offered: 60  admitted: 60  shed: 0"));
        assert!(block.contains("parity (stream vs batch): ok"));
    }

    #[test]
    fn serve_fault_plan_reports_degraded_coverage_and_breakers() {
        // Batch mode: a permanent kill on shard 0 of 2 degrades some
        // queries, trips the breaker and swaps the epoch; the report
        // names the rank ranges left unserved.
        let out = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--shards",
            "2",
            "--fault-plan",
            "kill!:0@0",
            "--breaker-threshold",
            "2",
        ])
        .unwrap();
        assert!(out.contains("fault plan: kill!:0@0"), "{out}");
        assert!(out.contains("degraded"), "{out}");
        assert!(
            out.contains("ranks"),
            "degraded lines name rank ranges:\n{out}"
        );
        assert!(out.contains("breaker[0]:"), "{out}");
        assert!(out.contains("trips: 1"), "{out}");
        assert!(out.contains("degraded digest:"), "{out}");
        // Stream mode reports the degraded/SLO split and skips the
        // parity witness (the fault cursors were consumed by the run).
        let out = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--shards",
            "2",
            "--stream",
            "--rate",
            "5000",
            "--fault-plan",
            "flaky:0@1+2",
        ])
        .unwrap();
        assert!(out.contains("fault plan: flaky:0@1+2"), "{out}");
        assert!(out.contains("fault-free p99:"), "{out}");
        assert!(
            out.contains("parity (stream vs batch): skipped (fault plan active)"),
            "{out}"
        );
        // A transient fault inside the retry budget degrades nothing.
        assert!(out.contains("40 fault-free, 0 degraded"), "{out}");
    }

    #[test]
    fn pack_then_serve_page_file_matches_in_memory_digest() {
        let digest_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("digest:"))
                .expect("digest line")
                .to_string()
        };
        let path = std::env::temp_dir().join(format!("slpm-cli-{}.pages", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path");
        let packed = run(&["pack", "--grid", "16x16", "--out", path_str]).unwrap();
        assert!(packed.contains("records: 256"), "{packed}");
        assert!(packed.contains("pages: 4"), "{packed}");
        assert!(packed.contains("format v3"), "{packed}");
        // Same grid, mapping and geometry: the out-of-core serve run is
        // bitwise identical to the in-memory one — with and without
        // readahead, across a tiny buffer pool.
        let mem = run(&["serve", "--grid", "16x16", "--queries", "40"]).unwrap();
        let disk = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--page-file",
            path_str,
        ])
        .unwrap();
        assert!(disk.contains(&format!("storage: page file {path_str} (readahead 0)")));
        assert_eq!(digest_line(&disk), digest_line(&mem));
        let ra = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--page-file",
            path_str,
            "--readahead",
            "4",
            "--buffer-pages",
            "2",
        ])
        .unwrap();
        assert_eq!(digest_line(&ra), digest_line(&mem));
        // A geometry mismatch is a typed CLI error, not a panic.
        let err = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--page-file",
            path_str,
            "--page-records",
            "32",
        ])
        .expect_err("wrong page geometry");
        assert!(err.0.contains("cannot open page file"), "{err}");
        // A different mapping packs a different order: also rejected.
        let err = run(&[
            "serve",
            "--grid",
            "16x16",
            "--queries",
            "40",
            "--mapping",
            "snake",
            "--page-file",
            path_str,
        ])
        .expect_err("wrong order");
        assert!(err.0.contains("cannot open page file"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pack_requires_grid_and_out() {
        assert!(run(&["pack", "--grid", "8x8"]).is_err());
        assert!(run(&["pack", "--out", "/tmp/x.pages"]).is_err());
    }

    #[test]
    fn experiment_ablations_smoke() {
        let out = run(&["experiment", "ablations"]).unwrap();
        let sections: Vec<&str> = out.split("\n\n").collect();
        assert_eq!(sections.len(), 4, "{out}");
        for (section, (title, row)) in sections.iter().zip([
            ("eigensolver strategies (20x20 grid)", "multilevel"),
            ("graph connectivity (8x8 grid)", "full (8-connectivity)"),
            ("affinity edge weight (8x8 grid, corner pair)", "8.0"),
            ("ordering strategies (16x16 grid)", "direct Fiedler (paper)"),
        ]) {
            assert!(
                section.starts_with(&format!("== Ablation: {title} ==\n")),
                "{section}"
            );
            assert!(section.contains(row), "{section}");
        }
    }
}
