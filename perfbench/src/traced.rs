//! The traced run: per-layer metrics.
//!
//! The run first repeats the untraced pipeline once (order with
//! `map_points_on`, pack on the disk tier, engine build, then
//! [`TRACE_BATCHES`] batches), then runs the same pipeline again with
//! spans around each layer's public calls — the ordering decomposed into
//! the calls `map_points_on` makes on these inputs. The traced order and
//! digests must equal the untraced ones, and the difference in wall time
//! is the tracing overhead. Spans are written to `perfbench/out/`.

use crate::trace::Tracer;
use crate::workload::{self, Inputs, Tier, Workload, PROBE_THREADS, RECORDS_PER_PAGE};
use crate::{metric, sys, Outcome};
use slpm_graph::grid::Connectivity;
use slpm_linalg::multilevel::smallest_nonzero_eigenpairs_on_hierarchy;
use slpm_linalg::{dispatch_counters, vector, Hierarchy, LinearOperator, Pool};
use slpm_serve::{BatchReport, WorkerPool};
use slpm_storage::{BufferStats, PackedRTree};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper};
use std::time::Instant;

/// Batches served by each of the two passes.
pub const TRACE_BATCHES: usize = 256;
/// Eigenpairs the degeneracy probe of `fiedler_pair_balanced_on` asks
/// for first; on inputs with a simple λ₂ it is the only solve.
const PROBE_PAIRS: usize = 3;
/// Least share of a root span its layer spans must cover.
const MIN_COVERAGE: f64 = 0.9;

/// Serving totals over one pass; equal between passes by the serving
/// contract (one serving thread, same batches, fresh engines).
#[derive(Default, PartialEq)]
struct ServeCounts {
    queries: usize,
    pages: usize,
    runs: usize,
    tree_nodes: usize,
    misses: usize,
    buffer: BufferStats,
    digests: Vec<u64>,
}

impl ServeCounts {
    fn add(&mut self, r: &BatchReport) {
        self.queries += r.outcomes.len();
        self.pages += r.total_pages();
        self.misses += r.total_misses();
        for o in &r.outcomes {
            self.runs += o.runs;
            self.tree_nodes += o.tree.nodes_visited;
        }
        self.buffer.merge(&r.buffer_stats());
        self.digests.push(r.digest);
    }
}

pub fn run(wl: &Workload, seed: u64, program: u64) -> Result<Outcome, String> {
    let inputs = Inputs::generate(wl, seed);
    let points = inputs.set.points();
    let batches = &inputs.batches[..TRACE_BATCHES];
    let pool = Pool::serial();
    let scratch = sys::ScratchDir::new(wl.name).map_err(|e| format!("scratch dir: {e}"))?;
    let page_file = scratch.path("pages.slpm");
    let config = SpectralConfig::auto();

    // --- Untraced pass. ---
    let start = Instant::now();
    let before = dispatch_counters();
    let mapping = SpectralMapper::new(config.clone())
        .map_points_on(&inputs.set, &pool)
        .map_err(|e| format!("map_points_on: {e}"))?;
    let plain_dispatch = dispatch_counters().since(&before);
    if wl.tier == Tier::Disk {
        workload::pack(&mapping.order, &page_file)?;
    }
    let engine = workload::build_engine(points, &mapping.order, wl.tier, &page_file)?;
    let plain_setup_s = start.elapsed().as_secs_f64();
    let mut plain = ServeCounts::default();
    let start = Instant::now();
    for b in batches {
        plain.add(&engine.run(b).map_err(|e| format!("untraced batch: {e}"))?);
    }
    let plain_serve_s = start.elapsed().as_secs_f64();
    drop(engine);

    // --- Traced pass: the same pipeline, one span per layer call. ---
    let n = inputs.set.len();
    let opts = config.resolved_fiedler(n);
    let ml = &opts.multilevel;
    let coarsest = ml.coarsest_size.max(PROBE_PAIRS + 2);
    if n <= coarsest {
        return Err(format!(
            "{n} points take the dense path, not the multilevel one"
        ));
    }
    let block = (PROBE_PAIRS + ml.guard_vectors).min(coarsest - 1);

    let mut tr = Tracer::new();
    let setup = tr.begin("setup");
    let (graph, _) = tr.span("graph.neighbourhood", || {
        inputs.set.neighbourhood_graph(Connectivity::Orthogonal)
    });
    let (lap, _) = tr.span("graph.laplacian", || graph.laplacian());
    let before = dispatch_counters();
    let (hierarchy, hierarchy_s) = tr.span("linalg.hierarchy", || {
        Hierarchy::build(&lap, block, ml, &pool)
    });
    let hierarchy = hierarchy.map_err(|e| format!("Hierarchy::build: {e}"))?;
    let (pairs, solve_s) = tr.span("linalg.solve", || {
        smallest_nonzero_eigenpairs_on_hierarchy(
            &lap,
            &hierarchy,
            PROBE_PAIRS,
            opts.tolerance,
            opts.seed,
            ml,
            &pool,
        )
    });
    let traced_dispatch = dispatch_counters().since(&before);
    let mut pairs = pairs.map_err(|e| format!("eigensolve: {e}"))?;
    // `fiedler_pair_balanced_on` stops after this probe only when λ₃ is
    // clear of λ₂ (its 1e-6 degeneracy test); otherwise the calls differ.
    if pairs[1].0 <= pairs[0].0 * (1.0 + 1e-6) + 1e-12 {
        return Err("λ₂ is degenerate on this input".into());
    }
    let v = pairs.swap_remove(0).1;
    let ((lambda2, residual), _) = tr.span("linalg.residual", || {
        let lambda2 = lap.rayleigh_quotient(&v);
        let mut r = lap.matvec(&v).expect("the Laplacian is square");
        vector::axpy(-lambda2, &v, &mut r);
        (lambda2, vector::norm2(&r))
    });
    let (order, _) = tr.span("core.sort", || {
        let max_abs = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        LinearOrder::from_keys_snapped(&v, max_abs * 1e-7)
    });
    let order = order.map_err(|e| format!("from_keys_snapped: {e}"))?;
    let mut file_bytes = 0;
    if wl.tier == Tier::Disk {
        file_bytes = tr
            .span("storage.pack", || workload::pack(&order, &page_file))
            .0?;
    }
    let (engine, _) = tr.span("serve.engine_build", || {
        workload::build_engine(points, &order, wl.tier, &page_file)
    });
    let engine = engine?;
    tr.end(setup);

    let serve = tr.begin("serve");
    let mut traced = ServeCounts::default();
    for b in batches {
        let (plan, _) = tr.span("serve.plan", || engine.plan_batch(b));
        let (report, _) = tr.span("serve.replay", || engine.submit_planned(plan).wait());
        traced.add(&report.map_err(|e| format!("traced batch: {e}"))?);
    }
    tr.end(serve);
    drop(engine);

    // --- Layer probes off the user's path. ---
    let (_, rtree_pack_s) = tr.span("storage.rtree_pack", || {
        PackedRTree::pack(points, &order, RECORDS_PER_PAGE)
    });
    if wl.tier == Tier::Memory {
        file_bytes = tr
            .span("storage.pack", || workload::pack(&order, &page_file))
            .0?;
    }
    // The same solve on a 2-thread pool: its time, CPU use and dispatch
    // counts, and the library's promise of bitwise-identical results.
    let workers = WorkerPool::new(PROBE_THREADS);
    let cpu_before = sys::process_cpu_s();
    let before = dispatch_counters();
    let (pooled, solve_2t_s) = tr.span("linalg.solve_2threads", || {
        smallest_nonzero_eigenpairs_on_hierarchy(
            &lap,
            &hierarchy,
            PROBE_PAIRS,
            opts.tolerance,
            opts.seed,
            ml,
            &workers.linalg_pool(),
        )
    });
    let dispatch = dispatch_counters().since(&before);
    let cpu_per_wall = (sys::process_cpu_s() - cpu_before) / solve_2t_s;
    let pooled = pooled.map_err(|e| format!("2-thread eigensolve: {e}"))?;
    drop(workers);
    drop(scratch);

    // --- Checks: each is one operation of the run. ---
    let setup_cov = tr.child_coverage("setup");
    let serve_cov = tr.child_coverage("serve");
    let checks = [
        (
            "untraced order is a permutation within the residual target",
            workload::check_order(&mapping, &inputs).is_ok(),
        ),
        (
            "traced order equals the untraced order",
            order.ranks() == mapping.order.ranks(),
        ),
        (
            "traced λ₂ bits equal the untraced λ₂",
            lambda2.to_bits() == mapping.fiedler.lambda2.to_bits(),
        ),
        (
            "traced dispatch counts equal the untraced ones",
            traced_dispatch == plain_dispatch,
        ),
        ("2-thread solve equals the serial one", pooled[0].1 == v),
        (
            "traced digests and page, miss and prefetch counts equal the untraced ones",
            traced == plain,
        ),
        ("layer spans cover 90% of set-up", setup_cov >= MIN_COVERAGE),
        (
            "layer spans cover 90% of serving",
            serve_cov >= MIN_COVERAGE,
        ),
    ];
    let mut errors: Vec<String> = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| format!("not so: {what}"))
        .collect();
    let failed = errors.len() as u64;
    let fingerprint = format!(
        "lambda2={:016x} dispatch_2threads={:?} pages={} misses={} prefetched={}",
        lambda2.to_bits(),
        (
            dispatch.scope_entries,
            dispatch.jobs_submitted,
            dispatch.chunks_executed
        ),
        traced.pages,
        traced.misses,
        traced.buffer.prefetched
    );
    let key = format!("{}-{seed}-traced", wl.name);
    if let Err(e) = sys::check_fingerprint(&key, program, &fingerprint) {
        errors.push(e);
    }

    let traced_setup_s = tr.total("setup");
    let traced_serve_s = tr.total("serve");
    let overhead = (traced_setup_s + traced_serve_s) / (plain_setup_s + plain_serve_s) - 1.0;
    let path = std::path::Path::new(sys::OUT_DIR).join(format!("trace-{}-{seed}.json", wl.name));
    std::fs::create_dir_all(sys::OUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let q = traced.queries as f64;
    let buffer = traced.buffer;
    Ok(Outcome {
        metrics: vec![
            metric(
                "graph.neighbourhood_s",
                tr.total("graph.neighbourhood"),
                "s",
            ),
            metric("graph.laplacian_s", tr.total("graph.laplacian"), "s"),
            metric("graph.edges", graph.num_edges() as f64, "count"),
            metric("linalg.hierarchy_s", hierarchy_s, "s"),
            metric("linalg.solve_s", solve_s, "s"),
            metric("linalg.levels", hierarchy.levels.len() as f64, "count"),
            metric(
                "linalg.coarsest_n",
                hierarchy.coarsest(&lap).rows() as f64,
                "count",
            ),
            metric("linalg.cpu_per_wall", cpu_per_wall, "ratio"),
            metric(
                "linalg.jobs_submitted",
                dispatch.jobs_submitted as f64,
                "count",
            ),
            metric(
                "linalg.chunks_executed",
                dispatch.chunks_executed as f64,
                "count",
            ),
            metric(
                "linalg.scope_entries",
                dispatch.scope_entries as f64,
                "count",
            ),
            metric("linalg.solve_2threads_s", solve_2t_s, "s"),
            metric("linalg.lambda2", lambda2, "1"),
            metric("linalg.residual", residual, "1"),
            metric("core.sort_s", tr.total("core.sort"), "s"),
            metric("storage.pack_s", tr.total("storage.pack"), "s"),
            metric("storage.file_bytes", file_bytes as f64, "B"),
            metric("storage.rtree_pack_s", rtree_pack_s, "s"),
            metric("storage.pages_per_query", traced.pages as f64 / q, "count"),
            metric("storage.runs_per_query", traced.runs as f64 / q, "count"),
            metric(
                "storage.tree_nodes_per_query",
                traced.tree_nodes as f64 / q,
                "count",
            ),
            metric("storage.hit_ratio", buffer.hit_ratio(), "ratio"),
            metric(
                "storage.misses_per_query",
                traced.misses as f64 / q,
                "count",
            ),
            metric("storage.prefetched", buffer.prefetched as f64, "count"),
            metric(
                "storage.prefetch_accuracy",
                buffer.prefetch_accuracy(),
                "ratio",
            ),
            metric("serve.engine_build_s", tr.total("serve.engine_build"), "s"),
            metric(
                "serve.plan_us_per_query",
                tr.total("serve.plan") * 1e6 / q,
                "us",
            ),
            metric(
                "serve.replay_us_per_query",
                tr.total("serve.replay") * 1e6 / q,
                "us",
            ),
            metric("trace.overhead_frac", overhead, "ratio"),
            metric("trace.coverage", setup_cov.min(serve_cov), "ratio"),
        ],
        attempted: checks.len() as u64,
        failed,
        errors,
        context: vec![
            ("points", n.to_string()),
            ("batches", batches.len().to_string()),
            ("untraced_setup_s", plain_setup_s.to_string()),
            ("untraced_serve_s", plain_serve_s.to_string()),
            ("traced_setup_s", traced_setup_s.to_string()),
            ("traced_serve_s", traced_serve_s.to_string()),
            ("spans", format!("\"{}\"", path.display())),
        ],
    })
}
