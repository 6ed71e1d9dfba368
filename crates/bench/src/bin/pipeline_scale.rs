//! End-to-end pipeline scaling: dense QL vs shift-invert Lanczos vs the
//! multilevel solver, 32x32 up to 1024x1024 (1,048,576 points).
//!
//! This runs the whole Spectral LPM pipeline per method — grid graph,
//! Laplacian, degeneracy-aware Fiedler solve, linear order — so the
//! numbers are what a user of `SpectralMapper` actually pays. Each method
//! only runs up to the size it is sensible at (dense is O(n^3); Lanczos
//! shift-invert re-solves the full graph every iteration); the multilevel
//! path covers every size.
//!
//! Usage:
//!   pipeline_scale [--max-side N] [--threads N] [--oocore SIDE]
//!                  [--bisection SIDE] [--json] [--out PATH]
//!
//! `--threads N` (N > 1) additionally runs the multilevel path on N worker
//! threads at every size and **verifies in-process that the threaded
//! `LinearOrder` is identical to the serial one** (the parallel kernels
//! use fixed-chunk deterministic reductions, so any divergence is a bug
//! and fails the run). Baseline methods always run single-threaded so the
//! trajectory stays comparable across machines. Threaded runs execute on
//! a persistent `WorkerPool` through the `ScopeExecutor` seam — the same
//! path the CLI uses — and their dispatch-cost counters (parallel
//! engagements, backend jobs, chunk-grid cells) are recorded per entry.
//! Two gates ride on them: `dispatch_gate` requires the threaded jobs-
//! submitted count to stay strictly below the pre-chunk-plan baseline at
//! every gated side (the counters are machine-independent, so this holds
//! on any host), and `speedup_gate` requires threaded wall time to beat
//! serial per side whenever the host has ≥ 2 cores (recorded as `"n/a"`
//! on a single-core host, where threading can only add overhead).
//!
//! Every entry also records the multilevel solver's counters
//! (`slpm_linalg::solver_counters`): the finest level's inner correction
//! solves and their PCG iterations, plus the fallbacks taken (V-cycle
//! solves retried with Jacobi-PCG, coarse shift-invert fallbacks). The
//! `iteration_gate` requires the serial multilevel path's PCG iterations
//! per finest-level solve at the largest recorded side to stay within
//! 1.25× of those at the smallest side ≥ 64 — the V-cycle preconditioner's
//! promise that inner solves do not get harder as the grid grows
//! (`"n/a"` when fewer than two such sides ran).
//!
//! `--bisection SIDE` additionally runs the **recursive-bisection stage**
//! on a non-square SIDE × (3·SIDE/2) grid: the RSB order once with the
//! root coarsening hierarchy restricted to each half
//! (`reuse_hierarchy: true`) and once re-coarsening every fragment from
//! scratch. It gates on the two orders being rank-for-rank identical and
//! on the reuse run being faster, and records the reuse run's solver
//! fallbacks (failed warm starts, V-cycle retries, coarse fallbacks).
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
//! `--json` additionally writes the machine-readable benchmark trajectory
//! (schema `slpm.pipeline_scale.v5`) to PATH (default BENCH_pipeline.json);
//! CI uploads that file as a build artifact on every push. The process
//! exits nonzero if any attempted solver path fails, a threaded run
//! diverges from serial, or the out-of-core, dispatch, speedup, iteration
//! or bisection gate misses.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::fiedler::{FiedlerMethod, FiedlerOptions};
use slpm_linalg::parallel::{dispatch_counters, DispatchCounters};
use slpm_linalg::{solver_counters, Pool, SolverCounters};
use slpm_querysim::mappings::curve_order_by_name;
use slpm_serve::engine::{EngineConfig, Query, ServeEngine};
use slpm_serve::workload::grid_points;
use slpm_serve::WorkerPool;
use slpm_storage::{write_page_file, Mbr, PageLayout, PageMapper};
use spectral_lpm::{
    objective, rsb_order_on, LinearOrder, RsbOptions, SpectralConfig, SpectralMapper,
};
use std::time::Instant;

/// Grid sides exercised (squares, 4-connectivity).
const SIDES: [usize; 6] = [32, 64, 128, 256, 512, 1024];
/// Dense QL is O(n^3): cap it at 32x32.
const DENSE_MAX_VERTICES: usize = 1_100;
/// Shift-invert Lanczos iterates full-graph CG solves: cap at 256x256.
const LANCZOS_MAX_VERTICES: usize = 66_000;
/// Backend jobs the 2-thread multilevel run submitted per side *before*
/// the chunk-plan dispatcher (recorded on this trajectory's own
/// instrumentation; one job per engagement). The counters depend only on
/// the problem-size sequence and the thread count, never on the host, so
/// `dispatch_gate` can require every threaded run to land strictly below
/// these on any machine. Sides under 128 never engaged the parallel path
/// (all kernels below the spawn thresholds) and are ungated.
const DISPATCH_BASELINE_JOBS: [(usize, u64); 4] =
    [(128, 15_652), (256, 26_418), (512, 35_798), (1024, 64_552)];

/// Run `f` on the executor the requested thread count implies: a
/// persistent [`WorkerPool`] via the `ScopeExecutor` seam when threaded
/// (the pool outlives every kernel call of the solve), the serial pool
/// otherwise.
fn with_pool<T>(threads: usize, f: impl FnOnce(&Pool<'_>) -> T) -> T {
    if threads > 1 {
        let workers = WorkerPool::new(threads);
        f(&workers.linalg_pool())
    } else {
        f(&Pool::serial())
    }
}

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
    let mapping = with_pool(threads, |pool| mapper.map_grid_on(spec, pool))
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

/// The recursive-bisection stage: the same RSB order computed with the
/// root hierarchy restricted per half vs re-coarsened per fragment.
struct Bisection {
    dims: [usize; 2],
    vertices: usize,
    threads: usize,
    reuse_seconds: f64,
    scratch_seconds: f64,
    orders_match: bool,
    /// Solver counters of the reuse run (warm-start failures among them).
    reuse_solver: SolverCounters,
    gate: bool,
}

/// RSB on a non-square `side x (3*side/2)` grid (λ₂ simple, so the order
/// is solver-independent), once with hierarchy reuse and once without.
/// Both runs share the leaf size and eigensolver configuration; only the
/// coarsening strategy differs, so the orders must agree rank for rank.
fn run_bisection(side: usize, threads: usize) -> Result<Bisection, String> {
    let dims = [side, side * 3 / 2];
    let spec = GridSpec::new(&dims);
    let graph = spec.graph(Connectivity::Orthogonal);
    let config = SpectralConfig {
        fiedler: FiedlerOptions {
            method: Some(FiedlerMethod::Multilevel),
            ..Default::default()
        },
        ..Default::default()
    };
    let run = |reuse: bool| -> Result<(f64, LinearOrder, SolverCounters), String> {
        let opts = RsbOptions {
            leaf_size: 64,
            config: config.clone(),
            reuse_hierarchy: reuse,
        };
        let before = solver_counters();
        let start = Instant::now();
        let order = with_pool(threads, |pool| rsb_order_on(&graph, &opts, pool))
            .map_err(|e| format!("rsb (reuse={reuse}) on {dims:?}: {e}"))?;
        let seconds = start.elapsed().as_secs_f64();
        Ok((seconds, order, solver_counters().since(&before)))
    };
    let (reuse_seconds, reuse_order, reuse_solver) = run(true)?;
    let (scratch_seconds, scratch_order, _) = run(false)?;
    let orders_match = reuse_order.ranks() == scratch_order.ranks();
    let gate = orders_match && reuse_seconds < scratch_seconds;
    println!(
        "bisection: {}x{} rsb reuse {reuse_seconds:.2}s vs re-coarsen {scratch_seconds:.2}s \
         ({:.2}x), orders {} -> {}; reuse run: {} warm-start failures, {} v-cycle retries, \
         {} coarse fallbacks",
        dims[0],
        dims[1],
        scratch_seconds / reuse_seconds,
        if orders_match { "match" } else { "DIVERGE" },
        if gate { "pass" } else { "FAIL" },
        reuse_solver.warm_start_failures,
        reuse_solver.vcycle_retries,
        reuse_solver.coarse_fallbacks,
    );
    Ok(Bisection {
        dims,
        vertices: spec.num_points(),
        threads,
        reuse_seconds,
        scratch_seconds,
        orders_match,
        reuse_solver,
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

/// `speedup_gate`: threaded multilevel wall time beats serial at every
/// side — demanded only when the host actually has ≥ 2 cores to run the
/// workers on. Single-core hosts time-slice the pool, where threading can
/// only break even at best; there the gate does not apply (`None`,
/// recorded as `"n/a"`).
fn speedup_gate(entries: &[Entry], host_parallelism: usize) -> Option<bool> {
    if host_parallelism < 2 {
        return None;
    }
    Some(SIDES.iter().all(|&side| {
        let serial = entries
            .iter()
            .find(|e| e.side == side && e.method == FiedlerMethod::Multilevel && e.threads == 1);
        let threaded = entries
            .iter()
            .find(|e| e.side == side && e.method == FiedlerMethod::Multilevel && e.threads > 1);
        match (serial, threaded) {
            (Some(s), Some(t)) => t.seconds < s.seconds,
            _ => true,
        }
    }))
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
    oocore: Option<&Oocore>,
    bisection: Option<&Bisection>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"slpm.pipeline_scale.v5\",\n");
    out.push_str(
        "  \"description\": \"End-to-end Spectral LPM pipeline wall time per eigensolver\",\n",
    );
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("  \"max_side\": {max_side},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    match bisection {
        None => out.push_str("  \"bisection\": null,\n"),
        Some(b) => out.push_str(&format!(
            "  \"bisection\": {{\"dims\": [{}, {}], \"vertices\": {}, \"threads\": {}, \
             \"reuse_seconds\": {:.3}, \"scratch_seconds\": {:.3}, \
             \"orders_match\": {}, \"warm_start_failures\": {}, \"vcycle_retries\": {}, \
             \"coarse_fallbacks\": {}, \"bisection_gate\": {}}},\n",
            b.dims[0],
            b.dims[1],
            b.vertices,
            b.threads,
            b.reuse_seconds,
            b.scratch_seconds,
            b.orders_match,
            b.reuse_solver.warm_start_failures,
            b.reuse_solver.vcycle_retries,
            b.reuse_solver.coarse_fallbacks,
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
            lines.push(format!(
                "    {{\"side\": {side}, \"threads\": {}, \"serial_seconds\": {:.6}, \
                 \"threaded_seconds\": {:.6}, \"speedup\": {:.2}, \
                 \"order_matches_serial\": {}}}",
                st.threads,
                s1.seconds,
                st.seconds,
                s1.seconds / st.seconds,
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
        gate_json(speedup_gate(entries, host_parallelism))
    ));
    out.push_str(&format!(
        "  \"iteration_gate\": {}\n",
        gate_json(iteration_gate(entries))
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_side = 1024usize;
    let mut threads = 1usize;
    let mut oocore_side = 0usize; // 0 = stage off
    let mut bisection_side = 0usize; // 0 = stage off
    let mut json = false;
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--max-side" => {
                i += 1;
                max_side = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--max-side requires a positive integer");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads requires a positive integer");
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
            "--oocore" => {
                i += 1;
                oocore_side = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 16)
                    .unwrap_or_else(|| {
                        eprintln!("--oocore requires a grid side >= 16");
                        std::process::exit(2);
                    });
            }
            "--bisection" => {
                i += 1;
                bisection_side = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 16)
                    .unwrap_or_else(|| {
                        eprintln!("--bisection requires a grid side >= 16");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (try --max-side N, --threads N, --oocore SIDE, \
                     --bisection SIDE, --json, --out PATH)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if !SIDES.iter().any(|&s| s <= max_side) {
        // A too-small (or zero) --max-side would otherwise record an empty
        // trajectory and exit 0 — exactly the silent success the CI
        // perf-smoke job must not produce.
        eprintln!(
            "--max-side {max_side} selects no grids (smallest is {}x{})",
            SIDES[0], SIDES[0]
        );
        std::process::exit(2);
    }

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
        let mut methods = Vec::new();
        if n <= DENSE_MAX_VERTICES {
            methods.push(FiedlerMethod::Dense);
        }
        if n <= LANCZOS_MAX_VERTICES {
            methods.push(FiedlerMethod::ShiftInvert);
        }
        for method in methods {
            match run_one(&spec, method, 1) {
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
    let oocore = if oocore_side > 0 {
        match run_oocore(oocore_side) {
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
    let bisection = if bisection_side > 0 {
        match run_bisection(bisection_side, threads) {
            Ok(b) => {
                if !b.gate {
                    eprintln!("FAILED: the recursive-bisection stage missed its gate");
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
    if !dispatch_gate(&entries) {
        eprintln!(
            "FAILED: dispatch_gate — a threaded run submitted at least as many backend jobs \
             as the pre-chunk-plan baseline"
        );
        failed = true;
    }
    if speedup_gate(&entries, host_parallelism) == Some(false) {
        eprintln!(
            "FAILED: speedup_gate — threaded multilevel slower than serial on a \
             {host_parallelism}-core host"
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
            oocore.as_ref(),
            bisection.as_ref(),
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
