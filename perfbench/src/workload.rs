//! The workloads and the pieces of the user-facing pipeline they
//! share: points → spectral order → (page file) → engine → queries.

use crate::inputs;
use slpm_graph::grid::Connectivity;
use slpm_graph::points::PointSet;
use slpm_graph::Graph;
use slpm_serve::engine::{EngineConfig, Query, ServeEngine};
use slpm_storage::{write_page_file, PageLayout, PageMapper};
use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapping};
use std::path::Path;

/// Worker threads of the probe that times the eigensolve on a pool
/// (traced runs only). The ordering itself runs on `Pool::serial()`: on
/// a 2-core host shared with other work, a 2-thread pool took 1.26–5.17 s
/// for a grid solve that took 1.37–1.66 s serially.
pub const PROBE_THREADS: usize = 2;
/// Shards of every engine.
pub const SHARDS: usize = 2;
/// Serving threads. One: with two, five runs on a 2-core host served
/// 42k–57k q/s, and the calling thread's CPU time, which the end-to-end
/// times are, no longer covers the work.
pub const SERVE_THREADS: usize = 1;
pub const RECORDS_PER_PAGE: usize = 64;
pub const RECORD_SIZE: usize = 64;
/// Queries per closed-loop batch.
pub const BATCH: usize = 64;
/// Distinct batches generated per run; longer runs cycle through them.
pub const POOL_BATCHES: usize = 1024;
/// Fewest batches a run serves: one full pass over the pool, so that p99
/// has ten samples beyond it.
pub const MIN_BATCHES: usize = POOL_BATCHES;
/// Queries checked against a brute-force scan per run.
pub const SAMPLE_QUERIES: usize = 64;
/// Full set-ups (order, pack, engine build) per run; their median is
/// reported.
pub const SETUPS: usize = 5;

pub enum Points {
    /// A `w × h` grid with a disc hole in each cell of a `cols × rows`
    /// lattice, laid out by `layout` rather than by the run's seed: over
    /// seeded layouts the 2-sum spread by a fifth and the serving rate by
    /// 18 %, more than any bound could absorb. The seed still draws every
    /// query.
    Holey {
        w: usize,
        h: usize,
        cols: usize,
        rows: usize,
        layout: u64,
    },
    /// Every point of a `w × h` grid.
    Grid { w: usize, h: usize },
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Pages materialised in memory; every page fits the buffer pools.
    Memory,
    /// Pages read from a page file through pools holding 1/16 of each
    /// shard's pages, with run readahead of 8 pages.
    Disk,
}

pub struct Workload {
    pub name: &'static str,
    pub points: Points,
    pub tier: Tier,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "order-irregular",
        points: Points::Holey {
            w: 240,
            h: 180,
            cols: 8,
            rows: 6,
            layout: 14,
        },
        tier: Tier::Memory,
    },
    Workload {
        name: "serve-disk",
        points: Points::Grid { w: 256, h: 192 },
        tier: Tier::Disk,
    },
];

impl Points {
    fn extent(&self) -> (usize, usize) {
        match *self {
            Points::Holey { w, h, .. } | Points::Grid { w, h } => (w, h),
        }
    }
}

/// Everything a run needs, generated from the seed before any timing.
pub struct Inputs {
    pub set: PointSet,
    /// The neighbourhood graph the order is optimised over (for the 2-sum).
    pub graph: Graph,
    /// The solver's residual target, `tolerance · max(gershgorin, 1)`.
    pub residual_target: f64,
    pub batches: Vec<Vec<Query>>,
    /// A seeded sample of the batches' queries, checked by brute force.
    pub sample: Vec<Query>,
}

impl Inputs {
    pub fn generate(wl: &Workload, seed: u64) -> Inputs {
        let set = match wl.points {
            Points::Holey {
                w,
                h,
                cols,
                rows,
                layout,
            } => inputs::holey_points(w, h, cols, rows, layout),
            Points::Grid { w, h } => inputs::grid_points(w, h),
        };
        let graph = set.neighbourhood_graph(Connectivity::Orthogonal);
        let tolerance = SpectralConfig::auto().resolved_fiedler(set.len()).tolerance;
        let residual_target = tolerance * graph.laplacian().gershgorin_upper_bound().max(1.0);
        let (w, h) = wl.points.extent();
        let batches = inputs::query_batches(w, h, POOL_BATCHES, BATCH, seed);
        let mut rng = inputs::Rng::new(seed ^ 0x5A3F_1E00);
        let sample = (0..SAMPLE_QUERIES)
            .map(|_| {
                let b = &batches[rng.range(0, POOL_BATCHES as i64 - 1) as usize];
                b[rng.range(0, BATCH as i64 - 1) as usize].clone()
            })
            .collect();
        Inputs {
            set,
            graph,
            residual_target,
            batches,
            sample,
        }
    }
}

/// The engine geometry of `tier` over `num_pages` pages.
pub fn engine_config(tier: Tier, num_pages: usize) -> EngineConfig {
    let shard_pages = num_pages.div_ceil(SHARDS);
    let (buffer_pages, readahead) = match tier {
        Tier::Memory => (shard_pages, 0),
        Tier::Disk => (shard_pages.div_ceil(16), 8),
    };
    EngineConfig {
        records_per_page: RECORDS_PER_PAGE,
        record_size: RECORD_SIZE,
        fanout: RECORDS_PER_PAGE,
        shards: SHARDS,
        threads: SERVE_THREADS,
        buffer_pages,
        readahead,
        ..EngineConfig::default()
    }
}

pub fn num_pages(order: &LinearOrder) -> usize {
    PageMapper::new(order, PageLayout::new(RECORDS_PER_PAGE)).num_pages()
}

/// Pack `order` into a page file at `path`; returns the file's size.
pub fn pack(order: &LinearOrder, path: &Path) -> Result<u64, String> {
    let mapper = PageMapper::new(order, PageLayout::new(RECORDS_PER_PAGE));
    let header = write_page_file(path, &mapper, RECORD_SIZE).map_err(|e| format!("pack: {e}"))?;
    Ok(header.file_len())
}

/// Build the engine of `tier` (the disk tier reads the file at `path`).
pub fn build_engine<'a>(
    points: &'a [Vec<i64>],
    order: &'a LinearOrder,
    tier: Tier,
    path: &Path,
) -> Result<ServeEngine<'a>, String> {
    let cfg = engine_config(tier, num_pages(order));
    match tier {
        Tier::Memory => Ok(ServeEngine::new(points, order, cfg)),
        Tier::Disk => ServeEngine::with_page_file(points, order, cfg, path.to_path_buf())
            .map_err(|e| format!("open page file: {e}")),
    }
}

/// The order is a permutation of every point and its residual is within
/// the solver's target `tolerance · max(gershgorin, 1)`.
pub fn check_order(mapping: &SpectralMapping, inputs: &Inputs) -> Result<(), String> {
    let n = inputs.set.len();
    let mut seen = vec![false; n];
    for &r in mapping.order.ranks() {
        if r >= n || std::mem::replace(&mut seen[r], true) {
            return Err("order is not a permutation of the points".into());
        }
    }
    if mapping.order.len() != n {
        return Err("order does not cover every point".into());
    }
    let residual = mapping.fiedler.residual;
    if residual.is_nan() || residual > inputs.residual_target {
        return Err(format!(
            "residual {residual:e} above the solver target {:e}",
            inputs.residual_target
        ));
    }
    Ok(())
}

/// The 2-sum of `order` over the graph's edges.
pub fn two_sum(inputs: &Inputs, order: &LinearOrder) -> f64 {
    spectral_lpm::objective::two_sum_cost(&inputs.graph, order)
}

/// Per-batch digests of `batches` from a reference engine: one
/// shard, in memory, default geometry — independent of the tier and
/// sharding under test.
pub fn reference_digests(
    points: &[Vec<i64>],
    order: &LinearOrder,
    batches: &[Vec<Query>],
) -> Result<Vec<u64>, String> {
    let engine = ServeEngine::new(points, order, EngineConfig::default());
    batches
        .iter()
        .map(|b| {
            engine
                .run(b)
                .map(|r| r.digest)
                .map_err(|e| format!("reference engine: {e}"))
        })
        .collect()
}

/// Number of sample queries whose engine answer differs from a full scan.
pub fn brute_force_mismatches(
    engine: &ServeEngine<'_>,
    points: &[Vec<i64>],
    order: &LinearOrder,
    sample: &[Query],
) -> Result<usize, String> {
    let report = engine
        .run(sample)
        .map_err(|e| format!("sample batch: {e}"))?;
    Ok(sample
        .iter()
        .zip(&report.outcomes)
        .filter(|(q, o)| o.results != inputs::brute_force(points, order, q))
        .count())
}
