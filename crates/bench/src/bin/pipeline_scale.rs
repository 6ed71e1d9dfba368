//! End-to-end pipeline scaling: dense QL vs the multilevel solver, 32x32
//! up to 1024x1024 (1,048,576 points).
//!
//! This runs the whole Spectral LPM pipeline per method — grid graph,
//! Laplacian, degeneracy-aware Fiedler solve, linear order — so the
//! numbers are what a user of `SpectralMapper` actually pays. Dense is
//! O(n^3), so it only runs at 32x32; the multilevel path covers every
//! size.
//!
//! The flags and their defaults are the `FLAGS` table (`slpm_cli::flags`);
//! an unknown flag or a bad value prints them and exits with code 2.
//!
//! `--threads N` (N > 1) additionally runs the multilevel path on N worker
//! threads at every size and **verifies in-process that the threaded
//! `LinearOrder` is identical to the serial one** (the parallel kernels
//! use fixed-chunk deterministic reductions, so any divergence is a bug
//! and fails the run). Baseline methods always run single-threaded so the
//! trajectory stays comparable across machines. Threaded runs execute on
//! a persistent `WorkerPool` chosen by `slpm_linalg::with_threads` — the
//! same rule the CLI uses — and their dispatch-cost counters (parallel
//! engagements, pool jobs, chunk-grid cells) are recorded per entry.
//! Two gates ride on them: `dispatch_gate` requires the threaded jobs-
//! submitted count to stay strictly below the pre-chunk-plan baseline at
//! every gated side (the counters are machine-independent, so this holds
//! on any host), and `speedup_gate` applies at the sides where the
//! threaded run engaged workers (`jobs_submitted > 0`): there serial and
//! threaded runs are timed 3 more times each, alternating, and the
//! threaded median must beat the serial median by 1.05×. Each side's
//! verdict is its `side_gate` in `thread_speedups`: `"n/a"` where no worker
//! engaged. The whole gate reads `"n/a"` on a single-core host or when no
//! side engaged workers.
//!
//! Every entry also records the multilevel solver's counters
//! (`slpm_linalg::solver_counters`): the finest level's inner correction
//! solves and their PCG iterations, plus the fallbacks taken (V-cycle
//! solves retried with Jacobi-PCG, coarse solves of stalled hierarchies). The
//! `iteration_gate` requires the serial multilevel path's PCG iterations
//! per finest-level solve at the largest recorded side to stay within
//! 1.25× of those at the smallest side ≥ 64 — the V-cycle preconditioner's
//! promise that inner solves do not get harder as the grid grows
//! (`"n/a"` when fewer than two such sides ran).
//!
//! `--bisection SIDE` additionally runs the **recursive-bisection stage**
//! on a non-square SIDE × (3·SIDE/2) grid (leaf size 64): the RSB order
//! once serially and once on `--threads` workers. It records both wall
//! times, the thread speedup, the solver fallbacks taken (V-cycle
//! retries, coarse fallbacks) and `order_digest`, an FNV-1a digest of the
//! order's ranks. `bisection_gate` is the determinism contract: the two
//! orders must be rank-for-rank identical.
//!
//! `--oocore SIDE` additionally runs the **out-of-core stage**: pack a
//! SIDE×SIDE grid's Hilbert order into an on-disk page file (at 2048 that
//! is 4,194,304 records — well past what the in-memory tier should hold)
//! and stream the whole file twice through a buffer pool capped at ~10%
//! of its pages, cold then warm, with and without readahead. The stage
//! uses the curve order rather than the spectral pipeline because its
//! subject is the storage tier at scale, not the eigensolver; it gates
//! (nonzero exit) on disk-read determinism (cold digest == warm digest ==
//! readahead-off digest) and on readahead cutting demand misses.
//!
//! `--graph` first runs the **graph stage**, before anything else in
//! the process: the 2048×2048 grid's point set, its 4-connected
//! neighbourhood graph and the Laplacian taken from it with
//! `into_laplacian` — the ordering path's set-up. It records the build's
//! seconds and the process's peak RSS (`VmHWM`, Linux; `null` elsewhere),
//! which, since the stage runs first, is the build's own peak.
//!
//! `--json` additionally writes the machine-readable benchmark trajectory
//! (schema `slpm.pipeline_scale.v7`) to PATH (default BENCH_pipeline.json);
//! CI uploads that file as a build artifact on every push. The process
//! exits nonzero if any attempted solver path fails, a threaded run
//! diverges from serial, or the out-of-core, dispatch, speedup, iteration
//! or bisection gate misses.

use slpm_cli::flags::{self, Flag, Kind::*};
use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_graph::PointSet;
use slpm_linalg::fiedler::{FiedlerMethod, FiedlerOptions};
use slpm_linalg::parallel::{dispatch_counters, DispatchCounters};
use slpm_linalg::{solver_counters, with_threads, SolverCounters};
use slpm_querysim::mappings::curve_order_by_name;
use slpm_serve::engine::{EngineConfig, Query, ServeEngine};
use slpm_serve::workload::grid_points;
use slpm_storage::diskfile::order_digest;
use slpm_storage::{write_page_file, Mbr, PageLayout, PageMapper};
use spectral_lpm::{
    objective, rsb_order_on, LinearOrder, RsbOptions, SpectralConfig, SpectralMapper,
};
use std::time::Instant;

/// Grid sides exercised (squares, 4-connectivity).
const SIDES: [usize; 6] = [32, 64, 128, 256, 512, 1024];
/// Dense QL is O(n^3): cap it at 32x32.
const DENSE_MAX_VERTICES: usize = 1_100;
/// Backend jobs the 2-thread multilevel run submitted per side *before*
/// the chunk-plan dispatcher (recorded on this trajectory's own
/// instrumentation; one job per engagement). The counters depend only on
/// the problem-size sequence and the thread count, never on the host, so
/// `dispatch_gate` can require every threaded run to land strictly below
/// these on any machine. Sides under 128 never engaged the parallel path
/// (all kernels below the spawn thresholds) and are ungated.
const DISPATCH_BASELINE_JOBS: [(usize, u64); 4] =
    [(128, 15_652), (256, 26_418), (512, 35_798), (1024, 64_552)];
/// Alternating serial/threaded timing pairs per side the speedup gate
/// applies at.
const SPEEDUP_REPEATS: usize = 3;
/// The factor by which the threaded median must beat the serial median.
const SPEEDUP_MARGIN: f64 = 1.05;
/// Grid side of the graph stage (4,194,304 points).
const GRAPH_SIDE: usize = 2048;

struct Entry {
    side: usize,
    vertices: usize,
    edges: usize,
    method: FiedlerMethod,
    threads: usize,
    seconds: f64,
    lambda2: f64,
    residual: f64,
    two_sum: f64,
    /// For threaded multilevel runs: rank-for-rank identical to the serial
    /// order at the same side (always true for serial entries).
    order_matches_serial: bool,
    /// Dispatch-cost counters accumulated during this run (parallel
    /// engagements, backend jobs, chunk-grid cells) — all zero for serial
    /// runs, machine-independent for a given (side, threads).
    dispatch: DispatchCounters,
    /// Multilevel solver counters accumulated during this run: finest-
    /// level inner solves and PCG iterations, and fallbacks taken.
    solver: SolverCounters,
}

impl Entry {
    /// PCG iterations per finest-level inner solve (0 without solves).
    fn iterations_per_solve(&self) -> f64 {
        if self.solver.finest_solves == 0 {
            0.0
        } else {
            self.solver.finest_iterations as f64 / self.solver.finest_solves as f64
        }
    }
}

/// Smallest side the `iteration_gate` compares against: below it the
/// hierarchy is too shallow for iteration counts to say anything.
const ITERATION_GATE_MIN_SIDE: usize = 64;
/// Largest allowed ratio, either way, between PCG iterations per
/// finest-level solve at the smallest gated side and the largest one.
const ITERATION_GATE_RATIO: f64 = 1.25;

fn run_one(
    spec: &GridSpec,
    method: FiedlerMethod,
    threads: usize,
) -> Result<(Entry, LinearOrder), String> {
    let mapper = SpectralMapper::new(SpectralConfig {
        fiedler: FiedlerOptions {
            method: Some(method),
            ..Default::default()
        },
        ..Default::default()
    });
    let graph = spec.graph(Connectivity::Orthogonal);
    let before = dispatch_counters();
    let solver_before = solver_counters();
    let start = Instant::now();
    let mapping = with_threads(Some(threads), |pool| mapper.map_grid_on(spec, pool))
        .map_err(|e| format!("{method} on {:?}: {e}", spec.dims()))?;
    let seconds = start.elapsed().as_secs_f64();
    let dispatch = dispatch_counters().since(&before);
    let solver = solver_counters().since(&solver_before);
    let entry = Entry {
        side: spec.dim(0),
        vertices: spec.num_points(),
        edges: mapping.num_edges,
        method,
        threads,
        seconds,
        lambda2: mapping.fiedler.lambda2,
        residual: mapping.fiedler.residual,
        two_sum: objective::two_sum_cost(&graph, &mapping.order),
        order_matches_serial: true,
        dispatch,
        solver,
    };
    Ok((entry, mapping.order))
}

/// The graph stage: the ordering path's set-up at one grid side.
struct GraphStage {
    side: usize,
    vertices: usize,
    edges: usize,
    /// Building the point set.
    points_seconds: f64,
    /// Building the neighbourhood graph and taking its Laplacian.
    seconds: f64,
    /// The process's peak resident set after the stage, in MiB.
    peak_rss_mb: Option<f64>,
}

/// Build `side`²'s point set, its neighbourhood graph and Laplacian.
fn run_graph(side: usize) -> GraphStage {
    let start = Instant::now();
    let points = PointSet::from_grid(&GridSpec::cube(side, 2));
    let points_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let graph = points.neighbourhood_graph(Connectivity::Orthogonal);
    let edges = graph.num_edges();
    let laplacian = graph.into_laplacian();
    let seconds = start.elapsed().as_secs_f64();
    let stage = GraphStage {
        side,
        vertices: laplacian.rows(),
        edges,
        points_seconds,
        seconds,
        peak_rss_mb: peak_rss_mb(),
    };
    println!(
        "graph: {side}x{side} points {points_seconds:.2}s, graph + Laplacian {seconds:.2}s \
         ({} vertices, {edges} edges), peak RSS {}",
        stage.vertices,
        stage
            .peak_rss_mb
            .map_or_else(|| "unknown".to_string(), |mb| format!("{mb:.1} MiB")),
    );
    stage
}

/// The process's peak resident set size (`VmHWM`) in MiB, where the OS
/// reports it.
fn peak_rss_mb() -> Option<f64> {
    // xtask:allow(fs-only-in-storage): reads the process's own memory report
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The out-of-core stage: a page file bigger than its buffer pool,
/// streamed end to end. All gate inputs are page/miss counters and
/// digests — deterministic; the wall-clock fields are observables.
struct Oocore {
    side: usize,
    records: usize,
    pages: usize,
    file_bytes: u64,
    buffer_pages: usize,
    readahead: usize,
    pack_seconds: f64,
    cold_seconds: f64,
    warm_seconds: f64,
    digest: u64,
    cold_misses: usize,
    warm_misses: usize,
    plain_misses: usize,
    prefetched: usize,
    gate: bool,
}

/// Pack `side`²'s Hilbert order into a temp page file and stream the
/// whole file through a pool capped at ~10% of its pages: cold, warm,
/// and readahead-off passes.
fn run_oocore(side: usize) -> Result<Oocore, String> {
    let spec = GridSpec::cube(side, 2);
    let order = curve_order_by_name(&spec, "hilbert")?;
    let ecfg = EngineConfig {
        shards: 4,
        ..Default::default()
    };
    let mapper = PageMapper::new(&order, PageLayout::new(ecfg.records_per_page));
    let pages = mapper.num_pages();
    let readahead = 8usize;
    let pool = (pages / 10).max(readahead + 2);
    let path = std::env::temp_dir().join(format!("slpm-oocore-{}.pages", std::process::id()));
    let t = Instant::now();
    let header =
        write_page_file(&path, &mapper, ecfg.record_size).map_err(|e| format!("pack: {e}"))?;
    let pack_seconds = t.elapsed().as_secs_f64();
    println!(
        "oocore: packed {side}x{side} ({} records) -> {} pages, {} bytes, pool {pool} \
         ({:.1}% of file), {pack_seconds:.2}s",
        order.len(),
        pages,
        header.file_len(),
        100.0 * pool as f64 / pages as f64,
    );

    let points = grid_points(&spec);
    let sweep = vec![Query::Range(Mbr {
        lo: vec![0, 0],
        hi: vec![side as i64 - 1, side as i64 - 1],
    })];
    let mk = |ra: usize| {
        ServeEngine::with_page_file(
            &points,
            &order,
            EngineConfig {
                buffer_pages: pool,
                readahead: ra,
                ..ecfg
            },
            path.clone(),
        )
        .map_err(|e| format!("open: {e}"))
    };
    let engine = mk(readahead)?;
    let t = Instant::now();
    let cold = engine.run(&sweep).map_err(|e| format!("cold sweep: {e}"))?;
    let cold_seconds = t.elapsed().as_secs_f64();
    let cold_misses = cold.buffer_stats().misses;
    let t = Instant::now();
    let warm = engine.run(&sweep).map_err(|e| format!("warm sweep: {e}"))?;
    let warm_seconds = t.elapsed().as_secs_f64();
    let warm_misses = warm.buffer_stats().misses;
    let plain = mk(0)?
        .run(&sweep)
        .map_err(|e| format!("readahead-off sweep: {e}"))?;
    // xtask:allow(fs-only-in-storage): removes its own temp page file
    let _ = std::fs::remove_file(&path);
    let prefetched = cold.buffer_stats().prefetched;
    let gate = cold.digest == warm.digest
        && cold.digest == plain.digest
        && cold_misses < plain.buffer_stats().misses
        && prefetched > 0;
    println!(
        "oocore: cold {cold_seconds:.2}s ({cold_misses} misses), warm {warm_seconds:.2}s \
         ({warm_misses} misses), readahead-off {} misses, prefetched {prefetched} -> {}",
        plain.buffer_stats().misses,
        if gate { "pass" } else { "FAIL" },
    );
    Ok(Oocore {
        side,
        records: order.len(),
        pages,
        file_bytes: header.file_len(),
        buffer_pages: pool,
        readahead,
        pack_seconds,
        cold_seconds,
        warm_seconds,
        digest: cold.digest,
        cold_misses,
        warm_misses,
        plain_misses: plain.buffer_stats().misses,
        prefetched,
        gate,
    })
}

/// The recursive-bisection stage: one RSB order computed serially and on
/// the threaded pool.
struct Bisection {
    dims: [usize; 2],
    vertices: usize,
    threads: usize,
    serial_seconds: f64,
    threaded_seconds: f64,
    /// FNV-1a digest of the serial order's ranks.
    order_digest: u64,
    /// Solver counters of the serial run (fallbacks among them).
    solver: SolverCounters,
    /// The threaded order equals the serial one rank for rank.
    gate: bool,
}

/// RSB on a non-square `side x (3*side/2)` grid (λ₂ simple, so the order
/// is solver-independent), serially and on `threads` workers.
fn run_bisection(side: usize, threads: usize) -> Result<Bisection, String> {
    let dims = [side, side * 3 / 2];
    let spec = GridSpec::new(&dims);
    let graph = spec.graph(Connectivity::Orthogonal);
    let opts = RsbOptions {
        leaf_size: 64,
        config: SpectralConfig {
            fiedler: FiedlerOptions {
                method: Some(FiedlerMethod::Multilevel),
                ..Default::default()
            },
            ..Default::default()
        },
    };
    let run = |threads: usize| -> Result<(f64, LinearOrder, SolverCounters), String> {
        let before = solver_counters();
        let start = Instant::now();
        let order = with_threads(Some(threads), |pool| rsb_order_on(&graph, &opts, pool))
            .map_err(|e| format!("rsb ({threads} threads) on {dims:?}: {e}"))?;
        let seconds = start.elapsed().as_secs_f64();
        Ok((seconds, order, solver_counters().since(&before)))
    };
    let (serial_seconds, serial_order, solver) = run(1)?;
    let (threaded_seconds, threaded_order, _) = run(threads)?;
    let gate = serial_order.ranks() == threaded_order.ranks();
    let order_digest = order_digest(serial_order.ranks());
    println!(
        "bisection: {}x{} rsb serial {serial_seconds:.2}s vs {threads} threads \
         {threaded_seconds:.2}s ({:.2}x), order {order_digest:016x}, threaded order {} -> {}; \
         {} v-cycle retries, {} coarse fallbacks",
        dims[0],
        dims[1],
        serial_seconds / threaded_seconds,
        if gate { "matches" } else { "DIVERGES" },
        if gate { "pass" } else { "FAIL" },
        solver.vcycle_retries,
        solver.coarse_fallbacks,
    );
    Ok(Bisection {
        dims,
        vertices: spec.num_points(),
        threads,
        serial_seconds,
        threaded_seconds,
        order_digest,
        solver,
        gate,
    })
}

/// `dispatch_gate`: every threaded multilevel entry at a side with a
/// recorded pre-chunk-plan baseline must have submitted strictly fewer
/// backend jobs than that baseline. Counter-based, so host-independent;
/// vacuously true when no threaded entries were recorded.
fn dispatch_gate(entries: &[Entry]) -> bool {
    entries
        .iter()
        .filter(|e| e.method == FiedlerMethod::Multilevel && e.threads > 1)
        .all(|e| {
            DISPATCH_BASELINE_JOBS
                .iter()
                .find(|(side, _)| *side == e.side)
                .is_none_or(|(_, baseline)| e.dispatch.jobs_submitted < *baseline)
        })
}

/// The speedup gate's timing at one side: median serial and threaded
/// wall times over [`SPEEDUP_REPEATS`] alternating runs each.
struct SpeedupCheck {
    side: usize,
    serial_median: f64,
    threaded_median: f64,
}

impl SpeedupCheck {
    fn pass(&self) -> bool {
        self.serial_median >= SPEEDUP_MARGIN * self.threaded_median
    }
}

/// Median of a few wall times.
fn median(mut seconds: Vec<f64>) -> f64 {
    seconds.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    seconds[seconds.len() / 2]
}

/// Time serial and threaded multilevel runs at every side where the
/// threaded entry engaged workers: a side where none engaged runs the
/// serial code on both, so its timings could only compare noise. Nothing
/// is timed on a single-core host, where the pool time-slices.
fn speedup_checks(
    entries: &[Entry],
    threads: usize,
    host_parallelism: usize,
) -> Result<Vec<SpeedupCheck>, String> {
    if host_parallelism < 2 {
        return Ok(Vec::new());
    }
    let engaged = entries.iter().filter(|e| {
        e.method == FiedlerMethod::Multilevel && e.threads > 1 && e.dispatch.jobs_submitted > 0
    });
    let mut checks = Vec::new();
    for side in engaged.map(|e| e.side) {
        let spec = GridSpec::cube(side, 2);
        let time = |t| run_one(&spec, FiedlerMethod::Multilevel, t).map(|(e, _)| e.seconds);
        let (mut serial, mut threaded) = (Vec::new(), Vec::new());
        for _ in 0..SPEEDUP_REPEATS {
            serial.push(time(1)?);
            threaded.push(time(threads)?);
        }
        let check = SpeedupCheck {
            side,
            serial_median: median(serial),
            threaded_median: median(threaded),
        };
        println!(
            "speedup: {side}^2 median serial {:.4}s vs {threads} threads {:.4}s ({:.2}x, \
             need {SPEEDUP_MARGIN}x) -> {}",
            check.serial_median,
            check.threaded_median,
            check.serial_median / check.threaded_median,
            if check.pass() { "pass" } else { "FAIL" },
        );
        checks.push(check);
    }
    Ok(checks)
}

/// `speedup_gate`: every timed side passes its check; `None` (recorded
/// as `"n/a"`) when no side was timed.
fn speedup_gate(checks: &[SpeedupCheck]) -> Option<bool> {
    (!checks.is_empty()).then(|| checks.iter().all(SpeedupCheck::pass))
}

/// `iteration_gate`: PCG iterations per finest-level inner solve of the
/// serial multilevel path at the largest recorded side, against the
/// smallest recorded side ≥ [`ITERATION_GATE_MIN_SIDE`]. Counter-based, so
/// host-independent. `None` (recorded as `"n/a"`) when fewer than two
/// such sides ran.
fn iteration_gate(entries: &[Entry]) -> Option<bool> {
    let gated: Vec<&Entry> = entries
        .iter()
        .filter(|e| e.method == FiedlerMethod::Multilevel && e.threads == 1)
        .filter(|e| e.side >= ITERATION_GATE_MIN_SIDE)
        .collect();
    let smallest = gated.iter().min_by_key(|e| e.side)?;
    let largest = gated.iter().max_by_key(|e| e.side)?;
    if smallest.side == largest.side {
        return None;
    }
    let (lo, hi) = (
        smallest.iterations_per_solve(),
        largest.iterations_per_solve(),
    );
    Some(lo > 0.0 && hi <= ITERATION_GATE_RATIO * lo && lo <= ITERATION_GATE_RATIO * hi)
}

/// A gate verdict as JSON: `true`/`false`, or `"n/a"` where the gate
/// cannot apply.
fn gate_json(verdict: Option<bool>) -> String {
    verdict.map_or_else(|| "\"n/a\"".to_string(), |v| v.to_string())
}

fn to_json(
    max_side: usize,
    threads: usize,
    entries: &[Entry],
    speedups: &[SpeedupCheck],
    stages: (Option<&GraphStage>, Option<&Oocore>, Option<&Bisection>),
) -> String {
    let (graph, oocore, bisection) = stages;
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"slpm.pipeline_scale.v7\",\n");
    out.push_str(
        "  \"description\": \"End-to-end Spectral LPM pipeline wall time per eigensolver\",\n",
    );
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("  \"max_side\": {max_side},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    match graph {
        None => out.push_str("  \"graph\": null,\n"),
        Some(g) => out.push_str(&format!(
            "  \"graph\": {{\"side\": {}, \"vertices\": {}, \"edges\": {}, \
             \"points_seconds\": {:.3}, \"seconds\": {:.3}, \"peak_rss_mb\": {}}},\n",
            g.side,
            g.vertices,
            g.edges,
            g.points_seconds,
            g.seconds,
            g.peak_rss_mb
                .map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}")),
        )),
    }
    match bisection {
        None => out.push_str("  \"bisection\": null,\n"),
        Some(b) => out.push_str(&format!(
            "  \"bisection\": {{\"dims\": [{}, {}], \"vertices\": {}, \"threads\": {}, \
             \"serial_seconds\": {:.3}, \"threaded_seconds\": {:.3}, \"speedup\": {:.2}, \
             \"order_digest\": \"{:016x}\", \"vcycle_retries\": {}, \"coarse_fallbacks\": {}, \
             \"bisection_gate\": {}}},\n",
            b.dims[0],
            b.dims[1],
            b.vertices,
            b.threads,
            b.serial_seconds,
            b.threaded_seconds,
            b.serial_seconds / b.threaded_seconds,
            b.order_digest,
            b.solver.vcycle_retries,
            b.solver.coarse_fallbacks,
            b.gate,
        )),
    }
    match oocore {
        None => out.push_str("  \"oocore\": null,\n"),
        Some(o) => out.push_str(&format!(
            "  \"oocore\": {{\"side\": {}, \"records\": {}, \"pages\": {}, \
             \"file_bytes\": {}, \"buffer_pages\": {}, \"readahead\": {}, \
             \"pack_seconds\": {:.3}, \"cold_seconds\": {:.3}, \"warm_seconds\": {:.3}, \
             \"digest\": \"{:016x}\", \"cold_misses\": {}, \"warm_misses\": {}, \
             \"plain_misses\": {}, \"prefetched\": {}, \"oocore_gate\": {}}},\n",
            o.side,
            o.records,
            o.pages,
            o.file_bytes,
            o.buffer_pages,
            o.readahead,
            o.pack_seconds,
            o.cold_seconds,
            o.warm_seconds,
            o.digest,
            o.cold_misses,
            o.warm_misses,
            o.plain_misses,
            o.prefetched,
            o.gate,
        )),
    }
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"side\": {}, \"vertices\": {}, \"edges\": {}, \"method\": \"{}\", \
             \"threads\": {}, \"seconds\": {:.6}, \"lambda2\": {:.9e}, \"residual\": {:.3e}, \
             \"two_sum\": {:.1}, \"order_matches_serial\": {}, \
             \"scope_entries\": {}, \"jobs_submitted\": {}, \"chunks_executed\": {}, \
             \"finest_solves\": {}, \"finest_iterations\": {}, \
             \"vcycle_retries\": {}, \"coarse_fallbacks\": {}}}{}\n",
            e.side,
            e.vertices,
            e.edges,
            e.method,
            e.threads,
            e.seconds,
            e.lambda2,
            e.residual,
            e.two_sum,
            e.order_matches_serial,
            e.dispatch.scope_entries,
            e.dispatch.jobs_submitted,
            e.dispatch.chunks_executed,
            e.solver.finest_solves,
            e.solver.finest_iterations,
            e.solver.vcycle_retries,
            e.solver.coarse_fallbacks,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // Headline speedup: serial multilevel vs the best other serial path.
    out.push_str("  \"speedups\": [\n");
    let mut lines = Vec::new();
    for &side in SIDES.iter().filter(|&&s| s <= max_side) {
        let ml = entries
            .iter()
            .find(|e| e.side == side && e.method == FiedlerMethod::Multilevel && e.threads == 1);
        let best_other = entries
            .iter()
            .filter(|e| e.side == side && e.method != FiedlerMethod::Multilevel)
            .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite times"));
        if let (Some(ml), Some(other)) = (ml, best_other) {
            lines.push(format!(
                "    {{\"side\": {side}, \"baseline\": \"{}\", \"baseline_seconds\": {:.6}, \
                 \"multilevel_seconds\": {:.6}, \"speedup\": {:.2}}}",
                other.method,
                other.seconds,
                ml.seconds,
                other.seconds / ml.seconds
            ));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ],\n");
    // Threading speedup: serial vs threaded multilevel, per side.
    out.push_str("  \"thread_speedups\": [\n");
    let mut lines = Vec::new();
    for &side in SIDES.iter().filter(|&&s| s <= max_side) {
        let serial = entries
            .iter()
            .find(|e| e.side == side && e.method == FiedlerMethod::Multilevel && e.threads == 1);
        let threaded = entries
            .iter()
            .find(|e| e.side == side && e.method == FiedlerMethod::Multilevel && e.threads > 1);
        if let (Some(s1), Some(st)) = (serial, threaded) {
            let check = speedups.iter().find(|c| c.side == side);
            let medians = check.map_or_else(String::new, |c| {
                format!(
                    "\"serial_median_seconds\": {:.6}, \"threaded_median_seconds\": {:.6}, \
                     \"median_speedup\": {:.2}, ",
                    c.serial_median,
                    c.threaded_median,
                    c.serial_median / c.threaded_median
                )
            });
            lines.push(format!(
                "    {{\"side\": {side}, \"threads\": {}, \"serial_seconds\": {:.6}, \
                 \"threaded_seconds\": {:.6}, \"speedup\": {:.2}, {medians}\
                 \"side_gate\": {}, \"order_matches_serial\": {}}}",
                st.threads,
                s1.seconds,
                st.seconds,
                s1.seconds / st.seconds,
                gate_json(check.map(SpeedupCheck::pass)),
                st.order_matches_serial
            ));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"dispatch_gate\": {},\n",
        dispatch_gate(entries)
    ));
    out.push_str(&format!(
        "  \"speedup_gate\": {},\n",
        gate_json(speedup_gate(speedups))
    ));
    out.push_str(&format!(
        "  \"iteration_gate\": {}\n",
        gate_json(iteration_gate(entries))
    ));
    out.push_str("}\n");
    out
}

/// The command line.
#[derive(Default)]
struct Flags {
    max_side: usize,
    threads: usize,
    /// Run the graph stage.
    graph: bool,
    /// Side of the out-of-core stage; `None` = stage off.
    oocore: Option<usize>,
    /// Side of the recursive-bisection stage; `None` = stage off.
    bisection: Option<usize>,
    json: bool,
    out: String,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Flags>] = &[
    // A --max-side below the smallest side would record an empty trajectory
    // and exit 0: the silent success the CI perf-smoke job must not produce.
    ("--max-side", Preset("1024"), |f, a| a.int(SIDES[0]).map(|n| f.max_side = n)),
    ("--threads", Preset("1"), |f, a| a.int(1).map(|n| f.threads = n)),
    ("--graph", Switch, |f, _| { f.graph = true; Ok(()) }),
    ("--oocore", Optional("SIDE"), |f, a| a.int(16).map(|n| f.oocore = Some(n))),
    ("--bisection", Optional("SIDE"), |f, a| a.int(16).map(|n| f.bisection = Some(n))),
    ("--json", Switch, |f, _| { f.json = true; Ok(()) }),
    ("--out", Preset("BENCH_pipeline.json"), |f, a| a.string().map(|s| f.out = s)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Flags {
        max_side,
        threads,
        graph,
        oocore,
        bisection,
        json,
        out: out_path,
    } = flags::parse("pipeline_scale", FLAGS, &args).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", flags::usage("usage: pipeline_scale ", FLAGS));
        std::process::exit(2)
    });

    // ---- Graph stage: first, so the peak RSS is its own -------------
    let graph = graph.then(|| run_graph(GRAPH_SIDE));

    println!(
        "{:>6}  {:>8}  {:>14}  {:>7}  {:>10}  {:>12}  {:>9}  {:>14}",
        "grid", "vertices", "method", "threads", "time", "lambda2", "residual", "2-sum"
    );
    let mut entries: Vec<Entry> = Vec::new();
    let mut failed = false;
    let print_entry = |e: &Entry| {
        println!(
            "{:>4}^2  {:>8}  {:>14}  {:>7}  {:>9.3}s  {:>12.4e}  {:>9.1e}  {:>14.0}",
            e.side, e.vertices, e.method, e.threads, e.seconds, e.lambda2, e.residual, e.two_sum
        );
        if e.solver.finest_solves > 0 {
            println!(
                "        finest level: {} inner solves, {} PCG iterations ({:.1} per solve)",
                e.solver.finest_solves,
                e.solver.finest_iterations,
                e.iterations_per_solve()
            );
        }
        if e.dispatch.scope_entries > 0 {
            println!(
                "        dispatch: {} engagements, {} jobs, {} chunks",
                e.dispatch.scope_entries, e.dispatch.jobs_submitted, e.dispatch.chunks_executed
            );
        }
    };
    for &side in SIDES.iter().filter(|&&s| s <= max_side) {
        let spec = GridSpec::cube(side, 2);
        let n = spec.num_points();
        if n <= DENSE_MAX_VERTICES {
            match run_one(&spec, FiedlerMethod::Dense, 1) {
                Ok((e, _)) => {
                    print_entry(&e);
                    entries.push(e);
                }
                Err(msg) => {
                    eprintln!("FAILED: {msg}");
                    failed = true;
                }
            }
        }
        // Multilevel: serial always; threaded additionally when requested,
        // with an order-parity check against the serial run.
        let serial_order = match run_one(&spec, FiedlerMethod::Multilevel, 1) {
            Ok((e, order)) => {
                print_entry(&e);
                entries.push(e);
                Some(order)
            }
            Err(msg) => {
                eprintln!("FAILED: {msg}");
                failed = true;
                None
            }
        };
        // Without a serial order there is nothing to compare against (the
        // serial failure was already reported); skip rather than record a
        // bogus parity verdict for a run whose order never diverged.
        if threads > 1 {
            if let Some(serial_order) = &serial_order {
                match run_one(&spec, FiedlerMethod::Multilevel, threads) {
                    Ok((mut e, order)) => {
                        e.order_matches_serial = serial_order.ranks() == order.ranks();
                        if !e.order_matches_serial {
                            eprintln!(
                                "FAILED: threaded ({threads}) multilevel order diverges from \
                                 serial at {side}x{side}"
                            );
                            failed = true;
                        }
                        print_entry(&e);
                        entries.push(e);
                    }
                    Err(msg) => {
                        eprintln!("FAILED: {msg}");
                        failed = true;
                    }
                }
            } else {
                eprintln!(
                    "skipping threaded ({threads}) multilevel at {side}x{side}: \
                     no serial order to verify against"
                );
            }
        }
    }

    // ---- Out-of-core stage ------------------------------------------
    let oocore = if let Some(side) = oocore {
        match run_oocore(side) {
            Ok(o) => {
                if !o.gate {
                    eprintln!("FAILED: the out-of-core stage missed its gate");
                    failed = true;
                }
                Some(o)
            }
            Err(msg) => {
                eprintln!("FAILED: {msg}");
                failed = true;
                None
            }
        }
    } else {
        None
    };

    // ---- Recursive-bisection stage ----------------------------------
    let bisection = if let Some(side) = bisection {
        match run_bisection(side, threads) {
            Ok(b) => {
                if !b.gate {
                    eprintln!(
                        "FAILED: the threaded recursive-bisection order diverges from serial"
                    );
                    failed = true;
                }
                Some(b)
            }
            Err(msg) => {
                eprintln!("FAILED: {msg}");
                failed = true;
                None
            }
        }
    } else {
        None
    };

    // ---- Dispatch / speedup gates -----------------------------------
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedups = speedup_checks(&entries, threads, host_parallelism).unwrap_or_else(|msg| {
        eprintln!("FAILED: {msg}");
        failed = true;
        Vec::new()
    });
    if !dispatch_gate(&entries) {
        eprintln!(
            "FAILED: dispatch_gate — a threaded run submitted at least as many backend jobs \
             as the pre-chunk-plan baseline"
        );
        failed = true;
    }
    if speedup_gate(&speedups) == Some(false) {
        eprintln!(
            "FAILED: speedup_gate — where workers engaged, the threaded multilevel median is \
             not {SPEEDUP_MARGIN}x faster than serial on a {host_parallelism}-core host"
        );
        failed = true;
    }
    if iteration_gate(&entries) == Some(false) {
        eprintln!(
            "FAILED: iteration_gate — PCG iterations per finest-level solve moved by more than \
             {ITERATION_GATE_RATIO}x from the smallest gated side to the largest"
        );
        failed = true;
    }

    if json {
        let body = to_json(
            max_side,
            threads,
            &entries,
            &speedups,
            (graph.as_ref(), oocore.as_ref(), bisection.as_ref()),
        );
        // xtask:allow(fs-only-in-storage): benches persist their JSON artifacts
        if let Err(e) = std::fs::write(&out_path, &body) {
            eprintln!("cannot write {out_path}: {e}");
            failed = true;
        } else {
            println!("\nwrote {out_path}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, flags::ParseError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        flags::parse("pipeline_scale", FLAGS, &args)
    }

    #[test]
    fn presets_and_stage_sides() {
        let f = parse(&[]).expect("the presets parse");
        assert_eq!(
            (f.max_side, f.threads, f.graph, f.oocore, f.bisection),
            (1024, 1, false, None, None)
        );
        assert_eq!((f.json, f.out.as_str()), (false, "BENCH_pipeline.json"));
        let f = parse(&["--oocore", "16", "--bisection", "64", "--max-side", "32"]).unwrap();
        assert_eq!(
            (f.oocore, f.bisection, f.max_side),
            (Some(16), Some(64), 32)
        );
        assert!(parse(&["--graph"]).unwrap().graph);
        assert!(parse(&["--max-side", "31"]).is_err(), "selects no grid");
        assert!(parse(&["--oocore", "15"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
    }

    #[test]
    fn speedup_gate_needs_timed_sides_and_the_margin() {
        let check = |serial_median, threaded_median| SpeedupCheck {
            side: 128,
            serial_median,
            threaded_median,
        };
        assert_eq!(speedup_gate(&[]), None, "no side engaged workers");
        assert_eq!(speedup_gate(&[check(1.06, 1.0)]), Some(true));
        assert_eq!(
            speedup_gate(&[check(1.06, 1.0), check(1.04, 1.0)]),
            Some(false)
        );
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn every_flag_rejects_a_missing_or_bad_value_with_its_name() {
        for &(flag, kind, _) in FLAGS {
            match parse(&[flag]) {
                Ok(_) => assert_eq!(kind, Switch, "{flag}"),
                Err(e) => assert_eq!(e.0, format!("{flag} requires a value")),
            }
            for junk in ["", "0", "-1", "x", "15", "18446744073709551616"] {
                if let Err(e) = parse(&[flag, junk]) {
                    assert!(e.0.contains(flag) || e.0.starts_with("unknown"), "{e}");
                }
            }
        }
    }
}
