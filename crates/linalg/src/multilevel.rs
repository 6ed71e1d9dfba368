//! Multilevel (coarsen → project → refine) Fiedler solver.
//!
//! The dense QL path is O(n³), which makes step 3 of the paper's pipeline
//! the scalability bottleneck. This module implements the classic
//! multilevel scheme from the same relaxation lineage the paper
//! cites (Hall 1970 / Fiedler 1973; popularised for spectral partitioning
//! by Barnard & Simon):
//!
//! 1. **Coarsen** — contract the Laplacian by heavy-edge matching
//!    ([`coarsen_laplacian`]) until the graph has at most
//!    [`MultilevelOptions::coarsest_size`] vertices. The coarse operator is
//!    the Galerkin product `PᵀLP` for the piecewise-constant prolongation
//!    `P`, which is again a combinatorial Laplacian of a weighted graph —
//!    exactly the Section 4 weighted-graph extension. It is built row by
//!    row without a global sort, and every coarse entry sums its fine
//!    entries in one fixed order: members of the aggregate in ascending
//!    fine order, each row in stored order, from the first value — the
//!    order [`CsrMatrix::from_triplets`] sums the remapped fine triplets in.
//! 2. **Solve** — compute the bottom eigenpairs of the coarsest Laplacian
//!    with the existing dense Householder + QL path.
//! 3. **Prolong + refine** — interpolate each eigenvector back up one level
//!    and refine it with block inverse iteration plus a Rayleigh–Ritz
//!    projection per step. The inverse-iteration correction solves are
//!    PCG ([`crate::pcg`]) preconditioned by a symmetric aggregation
//!    V-cycle on the hierarchy built in step 1: one weighted-Jacobi sweep
//!    before and after each coarse correction, restriction by `Pᵀ`,
//!    over-corrected piecewise-constant prolongation by `P`, and the
//!    coarsest level's mean-deflated dense pseudo-inverse, formed once per
//!    solve from the eigendecomposition step 2 already computed. Its
//!    iteration count stays flat as the graph grows, where Jacobi-PCG's
//!    grows with the grid's side (Vaněk, Mandel & Brezina's aggregation
//!    AMG, used as in Urschel, Xu, Hu & Zikatanov's multigrid Fiedler
//!    solver).
//!
//! Only a handful of loosely-converged solves ever touch the finest graph,
//! which is what makes spectral ordering at 10⁵–10⁶ points practical.
//!
//! The walk keeps its block of eigenvector estimates interleaved — entry
//! `(i, c)` at `i·b + c`, the layout of [`pcg::solve_on`] — so every
//! operator application reads the matrix once for the whole block: the
//! smoothing passes, the Rayleigh–Ritz product `LV`, and the sweep's
//! inverse-iteration corrections, which run as one batched PCG solve
//! through a block V-cycle. The rest of a sweep reads the block once per
//! step too: the Gram matrix `VᵀLV`, the Ritz rotation and the residual
//! norms in one pass each, and each modified Gram–Schmidt update fused with
//! the dot product that reads it (the `block` module). The bitwise rule of
//! [`crate::pcg`] holds throughout: each column's floating-point operations
//! happen in the order of a one-vector solve, so every order, eigenvalue
//! and solver counter is what one column at a time would give, at any
//! thread count.
//!
//! [`crate::fiedler::smallest_nonzero_eigenpairs_on`] solves inputs of at
//! most `coarsest_size` vertices densely, and otherwise builds the
//! [`Hierarchy`] and calls [`smallest_nonzero_eigenpairs_on_hierarchy`].
//!
//! Every fallback the solver takes is counted in [`solver_counters`]: a
//! coarsest level too big for the dense path (block inverse iteration from
//! a random start on that level, Jacobi-PCG inner solves) and a failed
//! V-cycle solve retried with Jacobi-PCG.

use crate::block::{self, Block};
use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::parallel::{tree_fold, Pool, LIGHT_SPAWN_MIN, REDUCE_CHUNK, SPAWN_MIN};
use crate::pcg::{self, CgOptions};
use crate::sparse::CsrMatrix;
use crate::tql;
use crate::vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for the multilevel solver (carried inside
/// [`crate::fiedler::FiedlerOptions::multilevel`]).
#[derive(Debug, Clone)]
pub struct MultilevelOptions {
    /// Stop coarsening once a level has at most this many vertices; the
    /// coarsest level is handed to the dense eigensolver.
    pub coarsest_size: usize,
    /// Extra "guard" vectors refined alongside the requested eigenpairs.
    /// A block of `k + guard_vectors` widens the spectral gap the block
    /// iteration contracts with (λ_k / λ_{k+guard+1} instead of
    /// λ_k / λ_{k+1}), which matters on grids whose low eigenvalues
    /// cluster.
    pub guard_vectors: usize,
    /// Refinement sweeps on the **finest** level before giving up.
    pub max_refine_steps: usize,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            coarsest_size: 256,
            guard_vectors: 2,
            max_refine_steps: 40,
        }
    }
}

/// Refinement sweeps on each intermediate level (prolongation error
/// dominates there, so a couple of sweeps suffice).
const INTERMEDIATE_STEPS: usize = 3;
/// Weighted-Jacobi smoothing passes applied to each vector right after
/// prolongation: interpolation leaves high-frequency error, which a
/// smoother damps at the cost of one matvec per pass — far cheaper than an
/// extra inverse-iteration sweep.
const SMOOTHING_PASSES: usize = 3;
/// Relative tolerance of each inner PCG correction solve. Loose on
/// purpose: inverse iteration converges with inexact solves, and the
/// correction form keeps the effective accuracy improving as the
/// eigenvector does.
const INNER_TOLERANCE: f64 = 0.15;
/// Abort coarsening when a level shrinks by less than this factor
/// (pathological graphs — stars, cliques — defeat matching; the hierarchy
/// then just stops early and the coarse solve is bigger).
const MIN_SHRINK: f64 = 0.95;

static VCYCLE_RETRIES: AtomicU64 = AtomicU64::new(0);
static COARSE_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static FINEST_SOLVES: AtomicU64 = AtomicU64::new(0);
static FINEST_ITERATIONS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide multilevel solver counters (relaxed
/// atomics). Every fallback the solver takes is counted here, none is
/// silent; like [`crate::parallel::DispatchCounters`], the totals are a
/// pure function of the inputs, so they can be diffed and gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverCounters {
    /// V-cycle-preconditioned inner solves that failed
    /// (`NotPositiveDefinite` or `NoConvergence`) and were retried with
    /// Jacobi-PCG.
    pub vcycle_retries: u64,
    /// Hierarchy solves whose coarsest level exceeded the dense cap: the
    /// coarse pairs came from Jacobi-PCG block inverse iteration on that
    /// level, started from a seeded random block, and the walk's inner
    /// solves ran on Jacobi-PCG too for want of a coarse pseudo-inverse. A
    /// failure there is an error of the solve.
    pub coarse_fallbacks: u64,
    /// Inner correction solves on the finest level of a solve.
    pub finest_solves: u64,
    /// PCG iterations of those finest-level solves.
    pub finest_iterations: u64,
}

impl SolverCounters {
    /// The counter deltas accumulated since `earlier` was snapshot.
    pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            vcycle_retries: self.vcycle_retries - earlier.vcycle_retries,
            coarse_fallbacks: self.coarse_fallbacks - earlier.coarse_fallbacks,
            finest_solves: self.finest_solves - earlier.finest_solves,
            finest_iterations: self.finest_iterations - earlier.finest_iterations,
        }
    }
}

/// Snapshot the process-wide solver counters.
pub fn solver_counters() -> SolverCounters {
    SolverCounters {
        vcycle_retries: VCYCLE_RETRIES.load(Ordering::Relaxed),
        coarse_fallbacks: COARSE_FALLBACKS.load(Ordering::Relaxed),
        finest_solves: FINEST_SOLVES.load(Ordering::Relaxed),
        finest_iterations: FINEST_ITERATIONS.load(Ordering::Relaxed),
    }
}

/// One coarsening step: the Galerkin-contracted Laplacian plus the
/// fine-vertex → coarse-vertex map that defines the prolongation.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// The coarse Laplacian `PᵀLP` (a combinatorial Laplacian of the
    /// contracted weighted graph).
    pub coarse: CsrMatrix,
    /// `parent[v]` is the coarse vertex that fine vertex `v` was merged
    /// into. Prolongation is `x_fine[v] = x_coarse[parent[v]]`.
    pub parent: Vec<u32>,
}

/// A full coarsening hierarchy for one Laplacian: the sequence of
/// [`Coarsening`] steps the multilevel solver walks down and back up.
///
/// Building the hierarchy (greedy matching + Galerkin contraction per
/// level) is a fixed cost independent of how many eigensolves run on it,
/// so it is built once and [`smallest_nonzero_eigenpairs_on_hierarchy`]
/// can solve on it any number of times.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// Fine-to-coarse steps, finest first; `levels[i].coarse` is the
    /// operator level `i + 1` lives on.
    pub levels: Vec<Coarsening>,
}

impl Hierarchy {
    /// Coarsen `laplacian` by heavy-edge matching until a level has at
    /// most `opts.coarsest_size.max(floor + 2)` vertices, matching stalls
    /// (shrink factor below 0.95), or a level would not be strictly larger
    /// than `floor`. The eigensolver builds its hierarchy with this, the
    /// block width as `floor`.
    pub fn build(
        laplacian: &CsrMatrix,
        floor: usize,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<Hierarchy, LinalgError> {
        let mut levels: Vec<Coarsening> = Vec::new();
        let mut current = laplacian;
        while current.rows() > opts.coarsest_size.max(floor + 2) {
            let step = coarsen_laplacian(current, pool)?;
            let shrunk = step.coarse.rows() < (current.rows() as f64 * MIN_SHRINK) as usize;
            if !shrunk || step.coarse.rows() <= floor {
                break;
            }
            levels.push(step);
            current = &levels.last().expect("just pushed").coarse;
        }
        Ok(Hierarchy { levels })
    }

    /// The coarsest operator of the hierarchy, or `fallback` (the finest
    /// operator) when no level was built.
    pub fn coarsest<'a>(&'a self, fallback: &'a CsrMatrix) -> &'a CsrMatrix {
        self.levels.last().map_or(fallback, |c| &c.coarse)
    }
}

/// Contract a Laplacian one level by heavy-edge matching.
///
/// Edges are visited in order of **decreasing weight** (ties broken by the
/// smaller endpoint pair, so the result is deterministic); an edge whose
/// endpoints are both unmatched contracts them into one coarse vertex —
/// the classic greedy ½-approximation of the maximum-weight matching.
/// Vertices left unmatched become singletons. The contracted operator is
/// the Galerkin product `PᵀLP`, built row by row in CSR form: coarse row
/// `a` sums the entries of its members' rows at columns `parent[j]`,
/// repeats in ascending fine row order, then stored order, from the first
/// value — exactly what [`CsrMatrix::from_triplets`] gives for the fine
/// triplets remapped to `(parent[i], parent[j])`. Merged-pair internal
/// edges cancel into the diagonal and parallel coarse edges sum their
/// weights, preserving Laplacian structure (symmetry and zero row sums).
///
/// The edge-rating pass (collecting and weighting every undirected edge
/// for the greedy matching) and the coarse rows both run row-chunked on
/// `pool`; the matching itself is inherently sequential and stays serial.
/// Chunk order is fixed, so the result is identical for every thread
/// count.
pub fn coarsen_laplacian(laplacian: &CsrMatrix, pool: &Pool) -> Result<Coarsening, LinalgError> {
    let n = laplacian.rows();
    if laplacian.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "coarsen_laplacian: matrix not square",
            expected: n,
            found: laplacian.cols(),
        });
    }
    // Off-diagonal Laplacian entries are −w for edge weight w > 0; collect
    // each undirected edge once from the upper triangle (the edge-rating
    // pass, row-chunked on the pool).
    // Vertex ids are below `n <= sparse::MAX_DIM`, so 32 bits hold them.
    let mut edges: Vec<(f64, u32, u32)> = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for u in lo..hi {
                for (v, entry) in laplacian.row_iter(u) {
                    if v > u && -entry > 0.0 {
                        local.push((-entry, u as u32, v as u32));
                    }
                }
            }
            local
        })
        .concat();
    edges.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite weights by CSR invariant")
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });

    // No vertex id reaches `u32::MAX`, which marks an unmatched vertex.
    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &(_, u, v) in &edges {
        let (u, v) = (u as usize, v as usize);
        if mate[u] == UNMATCHED && mate[v] == UNMATCHED {
            mate[u] = v as u32;
            mate[v] = u as u32;
        }
    }
    drop(edges); // matched: free the list before the coarse rows are built
    for (u, m) in mate.iter_mut().enumerate() {
        if *m == UNMATCHED {
            *m = u as u32; // singleton
        }
    }

    // Assign coarse ids in order of each pair's smaller endpoint.
    let mut parent = vec![UNMATCHED; n];
    let mut next = 0u32;
    for u in 0..n {
        if parent[u] != UNMATCHED {
            continue;
        }
        parent[u] = next;
        let m = mate[u] as usize;
        if m != u {
            parent[m] = next;
        }
        next += 1;
    }
    let next = next as usize;

    // Galerkin product PᵀLP, one coarse row per aggregate: its members'
    // rows, in ascending fine order, give `(parent[j], v)` for every
    // nonzero `v`; a stable sort by column keeps repeats in that order, and
    // they are summed from the first value, as `from_triplets` sums the
    // fine triplets in row order. Coarse ids follow each aggregate's first
    // member, so the aggregates a chunk of fine rows starts are a
    // contiguous run of coarse rows: row-chunked on the pool, the chunks
    // concatenated in order.
    let chunks = pool.map_chunks(n, |lo, hi| {
        let (mut counts, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for u in lo..hi {
            let m = mate[u] as usize;
            if m < u {
                continue; // the row of its first member
            }
            entries.clear();
            for member in std::iter::once(u).chain((m != u).then_some(m)) {
                for (j, v) in laplacian.row_iter(member) {
                    if v != 0.0 {
                        entries.push((parent[j], v));
                    }
                }
            }
            entries.sort_by_key(|e| e.0);
            let start = cols.len();
            for &(c, v) in &entries {
                if cols.len() > start && cols.last() == Some(&c) {
                    *vals.last_mut().expect("a repeat follows its first value") += v;
                } else {
                    cols.push(c);
                    vals.push(v);
                }
            }
            counts.push(cols.len() - start);
        }
        (counts, cols, vals)
    });
    let nnz: usize = chunks.iter().map(|c| c.1.len()).sum();
    let mut row_ptr = Vec::with_capacity(next + 1);
    row_ptr.push(0);
    let (mut col_idx, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for (counts, cols, vals) in chunks {
        for count in counts {
            row_ptr.push(row_ptr.last().expect("starts at 0") + count);
        }
        col_idx.extend(cols);
        values.extend(vals);
    }
    let coarse = CsrMatrix::from_parts(next, next, row_ptr, col_idx, values)?;
    Ok(Coarsening { coarse, parent })
}

/// The largest Laplacian the multilevel driver solves for `k` pairs with
/// the exact dense path: `coarsest_size`, but at least `k + 2` vertices.
fn dense_limit(k: usize, opts: &MultilevelOptions) -> usize {
    opts.coarsest_size.max(k + 2)
}

/// The block width of a multilevel solve for `k` pairs of an `n`-vertex
/// Laplacian, and the floor its [`Hierarchy`] is built with: `k` plus the
/// guard vectors, capped so the coarsest dense solve can supply them all.
/// `None` when `n` is within [`dense_limit`] (the exact dense path).
pub(crate) fn block_width(n: usize, k: usize, opts: &MultilevelOptions) -> Option<usize> {
    let dense = dense_limit(k, opts);
    (n > dense).then(|| (k + opts.guard_vectors).min(dense - 1))
}

/// The `k` smallest **nonzero** eigenpairs of a connected Laplacian by the
/// multilevel scheme on a prebuilt [`Hierarchy`], ascending, in the
/// canonical form of the dense path with Ritz values as eigenvalues: the
/// coarsest-level solve, then the prolong + smooth + refine walk back up.
/// [`crate::fiedler::smallest_nonzero_eigenpairs_on`] builds the hierarchy
/// (floor: the block width) and calls this; callers that time or reuse the
/// hierarchy apart from the solve call it directly. Small problems
/// (`n ≤ coarsest_size`) take the exact dense path regardless.
///
/// The Laplacian must be one of a **connected** graph (the caller's check,
/// see [`crate::fiedler::fiedler_pair_on`]). The hierarchy is checked
/// first, in O(levels): a parent map whose length is not the row count of
/// the level above (a hierarchy of another Laplacian) is a
/// [`LinalgError::DimensionMismatch`], and a coarsest level of at most
/// block-width rows a [`LinalgError::ProblemTooSmall`]. The convergence
/// target is `‖Lv − λv‖ ≤ tolerance · max(gershgorin, 1)`. Every kernel
/// schedules onto `pool`, which alone decides the thread count.
pub fn smallest_nonzero_eigenpairs_on_hierarchy(
    laplacian: &CsrMatrix,
    hierarchy: &Hierarchy,
    k: usize,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let n = laplacian.rows();
    if n < k + 1 {
        return Err(LinalgError::ProblemTooSmall {
            dimension: n,
            minimum: k + 1,
        });
    }
    if k == 0 {
        return Ok(vec![]);
    }
    let Some(block) = block_width(n, k, opts) else {
        return dense_smallest(laplacian, k);
    };
    let levels = &hierarchy.levels;
    let mut rows = n;
    for step in levels {
        if step.parent.len() != rows {
            return Err(LinalgError::DimensionMismatch {
                context: "hierarchy: parent map against the level above",
                expected: rows,
                found: step.parent.len(),
            });
        }
        rows = step.coarse.rows();
    }
    if rows <= block {
        return Err(LinalgError::ProblemTooSmall {
            dimension: rows,
            minimum: block + 1,
        });
    }

    // --- Solve the coarsest level. ---
    // Matching can stall far above `coarsest_size` (hub/clique-like graphs
    // defeat edge matching); materialising such a level densely would cost
    // O(n²) memory, so past a small multiple of the intended coarsest size
    // the bottom pairs come from block inverse iteration on that level
    // instead, started from a seeded random block of `block` plus guard
    // vectors (at most the level's rows − 1) with Jacobi-PCG inner solves.
    //
    // The dense path's full eigendecomposition also yields the coarsest
    // pseudo-inverse the V-cycle preconditioner bottoms out in, built once
    // here for every level's inner solves. Without it (the fallback
    // branch) the walk's inner solves run on Jacobi-PCG too, counted in
    // [`SolverCounters::coarse_fallbacks`].
    let coarsest = hierarchy.coarsest(laplacian);
    let (coarse_pairs, vcycle) = if coarsest.rows() <= dense_limit(k, opts).saturating_mul(4) {
        let eig = tql::symmetric_eigen(&coarsest.to_dense())?;
        let pairs = canonical_pairs(&eig, block)?;
        (
            pairs,
            Some(VCycleSetup::new(laplacian, hierarchy, &eig, pool)),
        )
    } else {
        COARSE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        let m = coarsest.rows();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_AA3A_5E00_0001);
        let columns: Vec<Vec<f64>> = (0..(block + opts.guard_vectors).min(m - 1))
            .map(|_| {
                let mut v = vec![0.0; m];
                vector::fill_random(&mut rng, &mut v);
                v
            })
            .collect();
        let random = Block::from_columns(&columns);
        drop(columns);
        let pairs = refine_to_target(
            coarsest,
            random,
            block,
            tolerance,
            opts,
            None,
            &mut Vec::new(),
            &mut rng,
            pool,
            "multilevel coarse fallback",
        )?;
        (pairs, None)
    };
    if levels.is_empty() {
        // Matching stalled immediately: the coarse solve already ran on
        // the input itself.
        return Ok(coarse_pairs.into_iter().take(k).collect());
    }
    let mut lambdas: Vec<f64> = coarse_pairs.iter().map(|(l, _)| *l).collect();
    let columns: Vec<Vec<f64>> = coarse_pairs.into_iter().map(|(_, v)| v).collect();
    let mut vectors = Block::from_columns(&columns);
    drop(columns);
    let mut scratch = Vec::new();

    // --- Walk back up: prolong and smooth into every level, refine. ---
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C0A2_5E00_0000);
    for depth in (0..levels.len()).rev() {
        let fine = if depth == 0 {
            laplacian
        } else {
            &levels[depth - 1].coarse
        };
        vectors = prolong_block(fine, &levels[depth], &vectors, pool);
        smooth_block(
            fine,
            &mut vectors,
            &lambdas,
            SMOOTHING_PASSES,
            &mut scratch,
            pool,
        );
        if depth > 0 {
            // Intermediate levels only chase prolongation error.
            let mut level_vcycle = vcycle.as_ref().map(|setup| setup.at(depth, *pool));
            lambdas = refine_block(
                fine,
                &mut vectors,
                k,
                f64::INFINITY,
                INTERMEDIATE_STEPS,
                level_vcycle.as_mut(),
                &mut scratch,
                &mut rng,
                pool,
            )?;
        }
    }
    // The finest level must actually hit the convergence target.
    let mut finest_vcycle = vcycle.as_ref().map(|setup| setup.at(0, *pool));
    refine_to_target(
        laplacian,
        vectors,
        k,
        tolerance,
        opts,
        finest_vcycle.as_mut(),
        &mut scratch,
        &mut rng,
        pool,
        "multilevel",
    )
}

/// The last step of a solve, on the finest level of a hierarchy walk or on
/// a stalled hierarchy's coarsest level: refine `vectors` for up to
/// [`MultilevelOptions::max_refine_steps`] sweeps ([`refine_block`]) towards
/// the target `tolerance · max(gershgorin, 1)`, fail with
/// [`LinalgError::NoConvergence`] of `solver` when the worst of the first
/// `k` residuals misses it, and return those `k` columns in canonical
/// form, paired with their Ritz values.
#[allow(clippy::too_many_arguments)]
fn refine_to_target(
    laplacian: &CsrMatrix,
    mut vectors: Block,
    k: usize,
    tolerance: f64,
    opts: &MultilevelOptions,
    vcycle: Option<&mut VCycle<'_, '_>>,
    scratch: &mut Vec<f64>,
    rng: &mut StdRng,
    pool: &Pool,
    solver: &'static str,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    let target = tolerance * laplacian.gershgorin_upper_bound().max(1.0);
    let sweeps = opts.max_refine_steps;
    let lambdas = refine_block(
        laplacian,
        &mut vectors,
        k,
        target,
        sweeps,
        vcycle,
        scratch,
        rng,
        pool,
    )?;
    let worst = worst_residual(laplacian, &vectors, &lambdas, k, pool);
    if worst > target {
        return Err(LinalgError::NoConvergence {
            solver,
            iterations: sweeps,
            residual: worst,
            tolerance: target,
        });
    }
    (0..k)
        .map(|c| Ok((lambdas[c], canonical(vectors.column(c))?)))
        .collect()
}

/// Exact bottom-of-spectrum solve via the dense Householder + QL path, in
/// the crate's canonical form (centred, unit, sign-canonical, ascending):
/// the one dense path of every solve, whether the method is dense or the
/// multilevel driver's input is within its coarsest size.
pub(crate) fn dense_smallest(
    laplacian: &CsrMatrix,
    k: usize,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    canonical_pairs(&tql::symmetric_eigen(&laplacian.to_dense())?, k)
}

/// Eigenpairs `1..=k` of a full Laplacian eigendecomposition in the
/// canonical form of [`dense_smallest`].
fn canonical_pairs(
    eig: &tql::SymmetricEigen,
    k: usize,
) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
    (1..=k)
        .map(|i| Ok((eig.eigenvalues[i], canonical(eig.eigenvector(i))?)))
        .collect()
}

/// An eigenvector in the crate's canonical form: mean-centred, unit-norm
/// and sign-canonicalised ([`vector::canonicalize_sign`]).
fn canonical(mut v: Vec<f64>) -> Result<Vec<f64>, LinalgError> {
    vector::center(&mut v);
    if vector::normalize(&mut v) == 0.0 {
        return Err(LinalgError::NonFiniteInput {
            context: "eigenvector collapsed (disconnected graph?)",
        });
    }
    vector::canonicalize_sign(&mut v);
    Ok(v)
}

/// Interpolate a block of coarse-level vectors to the fine level on the
/// pool by edge-weight-scaled interpolation: each fine vertex takes the
/// weighted average of its neighbours' aggregate values,
/// `x[v] = Σ_j w_vj · x_c[parent[j]] / Σ_j w_vj`. The injected error is far
/// smoother than piecewise-constant blocks `x_c[parent[v]]`, which cuts
/// the refinement sweeps the finest levels need.
///
/// `fine` is the matrix of the level being prolonged **to** (its row count
/// equals `step.parent.len()`). Elementwise per fine vertex and column, in
/// windows of at most [`pcg::LOCKSTEP_MAX`] columns, so bitwise identical
/// for every thread count and block width.
fn prolong_block(fine: &CsrMatrix, step: &Coarsening, coarse: &Block, pool: &Pool) -> Block {
    let parent = &step.parent;
    debug_assert_eq!(fine.rows(), parent.len());
    let w = coarse.width;
    let cv = &coarse.data;
    let mut out = vec![0.0; parent.len() * w];
    pool.block_rows(w, SPAWN_MIN, &mut out, |row0, span| {
        for c0 in (0..w).step_by(pcg::LOCKSTEP_MAX) {
            block::with_width!((w - c0).min(pcg::LOCKSTEP_MAX), W => {
                let at = |u: usize| parent[u] as usize * w + c0;
                for (j, o) in span.chunks_exact_mut(w).enumerate() {
                    let v = row0 + j;
                    let mut num = [0.0; W];
                    let mut den = 0.0;
                    for (u, entry) in fine.row_iter(v) {
                        if u != v && entry < 0.0 {
                            let cu = &cv[at(u)..at(u) + W];
                            for c in 0..W {
                                num[c] += -entry * cu[c];
                            }
                            den += -entry;
                        }
                    }
                    let o = &mut o[c0..c0 + W];
                    // Isolated vertices (no edges) fall back to injection.
                    if den > 0.0 {
                        for c in 0..W {
                            o[c] = num[c] / den;
                        }
                    } else {
                        o.copy_from_slice(&cv[at(v)..at(v) + W]);
                    }
                }
            });
        }
    });
    Block {
        data: out,
        width: w,
    }
}

/// Worst residual `‖Lvᵢ − λᵢvᵢ‖` over the first `k` block vectors.
fn worst_residual(
    laplacian: &CsrMatrix,
    vectors: &Block,
    lambdas: &[f64],
    k: usize,
    pool: &Pool,
) -> f64 {
    let w = vectors.width;
    let v = &vectors.data;
    let mut lv = vec![0.0; v.len()];
    block::spmm(pool, laplacian, v, &mut lv, w);
    block::residual_norms(pool, v, &lv, lambdas, w, k)
        .into_iter()
        .fold(0.0f64, f64::max)
}

/// Damp the high-frequency component of freshly-prolonged vectors with a
/// few weighted-Jacobi passes on `(L − θI)v`: eigencomponents near θ are
/// preserved while the blocky interpolation error (which lives at the top
/// of the spectrum) shrinks by a constant factor per pass, at one matvec
/// each. Every column takes its passes in lockstep with the others, each
/// with its own θ; row-parallel on the pool, and thread count never
/// changes the result.
///
/// A pass writes `v − ω D⁻¹((L v) + (−θ) v)` row by row into `scratch`
/// and swaps it in, rounding each residual entry as a stored residual
/// would be: one read of the matrix and the block, windows of at most
/// [`pcg::LOCKSTEP_MAX`] columns.
fn smooth_block(
    laplacian: &CsrMatrix,
    vectors: &mut Block,
    lambdas: &[f64],
    passes: usize,
    scratch: &mut Vec<f64>,
    pool: &Pool,
) {
    if passes == 0 {
        return;
    }
    let n = laplacian.rows();
    let w = vectors.width;
    let inv_diag = laplacian.damped_inverse_diagonal(1.0, pool);
    const OMEGA: f64 = 0.7;
    scratch.resize(n * w, 0.0);
    for _ in 0..passes {
        let v = &vectors.data;
        pool.block_rows(w, SPAWN_MIN, scratch, |row0, span| {
            for c0 in (0..w).step_by(pcg::LOCKSTEP_MAX) {
                block::with_width!((w - c0).min(pcg::LOCKSTEP_MAX), W => {
                    let neg: [f64; W] = std::array::from_fn(|c| -lambdas[c0 + c]);
                    for (j, out) in span.chunks_exact_mut(w).enumerate() {
                        let i = row0 + j;
                        let lv = laplacian.row_times::<W>(i, v, w, c0);
                        let vi = &v[i * w + c0..i * w + c0 + W];
                        for c in 0..W {
                            let r = lv[c] + neg[c] * vi[c];
                            out[c0 + c] = vi[c] - OMEGA * r * inv_diag[i];
                        }
                    }
                });
            }
        });
        std::mem::swap(&mut vectors.data, scratch);
    }
}

/// Weighted-Jacobi damping of the V-cycle's smoothing sweeps. A
/// Laplacian's `D⁻¹L` has spectral radius at most 2, so `ω < 1` keeps
/// each sweep a contraction and the V-cycle positive definite.
const VCYCLE_OMEGA: f64 = 0.67;

/// Over-correction applied to every coarse-grid correction of the
/// V-cycle. Unsmoothed pairwise aggregation makes the coarse correction
/// too short on smooth error; scaling it by a fixed factor is the usual
/// remedy, and 1.5 keeps PCG at 2.0–2.2 iterations per finest-level solve
/// from 64² to 1024² grids. The factor leaves the V-cycle symmetric and
/// positive; only convergence depends on it.
const VCYCLE_OVERCORRECTION: f64 = 1.5;

/// The per-solve part of the aggregation V-cycle preconditioner, shared
/// by the inner solves of every level of one hierarchy walk.
///
/// Level `l`'s operator is `A_l` (`A_0` the input Laplacian, `A_{l+1}`
/// the Galerkin product `PᵀA_lP` of [`Coarsening`] `l`), and `P` is the
/// piecewise-constant prolongation through [`Coarsening::parent`] — the
/// same `P` that defines the coarse operators. Restriction by `Pᵀ` adds
/// each fine residual to its aggregate in ascending vertex order, so every
/// coarse entry is summed in one fixed order at any thread count.
struct VCycleSetup<'a> {
    /// `A_l` for every level, finest first, the coarsest last.
    operators: Vec<&'a CsrMatrix>,
    /// Per non-coarsest level: `ω / diag(A_l)` (zero on empty rows).
    damped_inv_diag: Vec<Vec<f64>>,
    /// The hierarchy's coarsenings: level `l`'s fine → coarse map is
    /// `levels[l].parent`.
    levels: &'a [Coarsening],
    /// Mean-deflated pseudo-inverse of the coarsest operator, dense and
    /// row-major.
    coarse_pinv: Vec<f64>,
}

impl<'a> VCycleSetup<'a> {
    /// Gather the transfer and smoothing data of every level and form the
    /// coarsest pseudo-inverse `Σ_{k≥1} v_k v_kᵀ / λ_k` from `eig`, the
    /// full eigendecomposition of the coarsest operator.
    fn new(
        laplacian: &'a CsrMatrix,
        hierarchy: &'a Hierarchy,
        eig: &tql::SymmetricEigen,
        pool: &Pool,
    ) -> Self {
        let mut operators = vec![laplacian];
        operators.extend(hierarchy.levels.iter().map(|c| &c.coarse));
        let fine_levels = &operators[..hierarchy.levels.len()];
        let damped_inv_diag = fine_levels
            .iter()
            .map(|a| a.damped_inverse_diagonal(VCYCLE_OMEGA, pool))
            .collect();
        VCycleSetup {
            operators,
            damped_inv_diag,
            levels: &hierarchy.levels,
            coarse_pinv: deflated_pseudo_inverse(eig),
        }
    }

    /// The V-cycle preconditioner for level `depth`'s operator, with a
    /// workspace for blocks of up to [`pcg::LOCKSTEP_MAX`] columns: one
    /// correction slot per level below, or the root's post-smoothing
    /// residual, whichever is larger.
    fn at<'s, 'p>(&'s self, depth: usize, pool: Pool<'p>) -> VCycle<'s, 'p> {
        let below: usize = self.operators[depth + 1..].iter().map(|a| a.rows()).sum();
        let rows = below.max(self.operators[depth].rows());
        VCycle {
            setup: self,
            depth,
            arena: vec![0.0; rows * pcg::LOCKSTEP_MAX],
            pool,
        }
    }

    /// `x ← B_l rhs` for every column of the `n_l × W` blocks, for the
    /// V-cycle `B_l` rooted at `level`; `rhs` is left as it was. `arena`
    /// holds the levels below, then serves as the post-smoothing residual.
    fn cycle<const W: usize>(
        &self,
        level: usize,
        rhs: &[f64],
        x: &mut [f64],
        arena: &mut [f64],
        pool: &Pool,
    ) {
        if level == self.levels.len() {
            return self.coarse_solve::<W>(rhs, x, pool);
        }
        self.descend::<W>(level, rhs, x, arena, pool);
        let residual = &mut arena[..rhs.len()];
        let a = self.operators[level];
        pool.block_rows(W, SPAWN_MIN, residual, |row0, span| {
            for (j, o) in span.chunks_exact_mut(W).enumerate() {
                let i = row0 + j;
                let ax = a.row_times::<W>(i, x, W, 0);
                for c in 0..W {
                    o[c] = rhs[i * W + c] - ax[c];
                }
            }
        });
        self.post_smooth::<W>(level, residual, x, pool);
    }

    /// [`VCycleSetup::cycle`] for a level below the root, whose `rhs` (the
    /// level above's restricted residual) is dead once this returns: the
    /// post-smoothing residual overwrites it in place.
    fn cycle_in_place<const W: usize>(
        &self,
        level: usize,
        rhs: &mut [f64],
        x: &mut [f64],
        arena: &mut [f64],
        pool: &Pool,
    ) {
        if level == self.levels.len() {
            return self.coarse_solve::<W>(rhs, x, pool);
        }
        self.descend::<W>(level, rhs, x, arena, pool);
        let a = self.operators[level];
        let x_ref = &*x;
        pool.block_rows(W, SPAWN_MIN, rhs, |row0, span| {
            for (j, b) in span.chunks_exact_mut(W).enumerate() {
                let ax = a.row_times::<W>(row0 + j, x_ref, W, 0);
                for c in 0..W {
                    b[c] -= ax[c];
                }
            }
        });
        self.post_smooth::<W>(level, rhs, x, pool);
    }

    /// Pre-smoothing from a zero guess, restriction, the next level's cycle
    /// and the over-corrected prolongation of its correction.
    ///
    /// The pre-smoothed `x = ωD⁻¹ rhs` is never stored: the restriction
    /// forms each `A x` term from `rhs` on the spot, and the prolongation
    /// writes `x = ωD⁻¹ rhs + γ P x_c`, the same two roundings the stored
    /// form would take. Until then `x`'s slot holds the restricted residual
    /// (the next level's right-hand side), and the next level's correction
    /// takes the front of `arena`.
    fn descend<const W: usize>(
        &self,
        level: usize,
        rhs: &[f64],
        x: &mut [f64],
        arena: &mut [f64],
        pool: &Pool,
    ) {
        let a = self.operators[level];
        let d = &self.damped_inv_diag[level];
        let parent = &self.levels[level].parent;
        let nc = self.operators[level + 1].rows();
        let (coarse_x, deeper) = arena.split_at_mut(nc * W);
        let coarse_rhs = &mut x[..nc * W];
        // Restriction Pᵀ(rhs − A x): each fine residual, computed on the
        // spot, is added to its aggregate's sum in ascending vertex order.
        // Every engaged worker owns a range of aggregates and scans the fine
        // vertices for their members; engaged by the size of the fine
        // level, whose rows it reads.
        let workers = pool
            .workers_for_min(a.rows(), SPAWN_MIN)
            .min(nc.div_ceil(REDUCE_CHUNK));
        pool.split_run(workers, REDUCE_CHUNK * W, coarse_rhs, |off, span| {
            let (first, end) = (off / W, (off + span.len()) / W);
            span.fill(vector::empty_sum());
            for (v, &agg) in parent.iter().enumerate() {
                let agg = agg as usize;
                if !(first..end).contains(&agg) {
                    continue;
                }
                let ax = a.row_times_scaled::<W>(v, d, rhs);
                let sum = &mut span[(agg - first) * W..(agg - first + 1) * W];
                for c in 0..W {
                    sum[c] += rhs[v * W + c] - ax[c];
                }
            }
        });
        self.cycle_in_place::<W>(level + 1, coarse_rhs, coarse_x, deeper, pool);
        // x = ωD⁻¹ rhs + γ P x_c: pre-smoothing plus over-corrected
        // prolongation.
        let coarse_x = &*coarse_x;
        pool.block_rows(W, LIGHT_SPAWN_MIN, x, |row0, span| {
            for (j, xr) in span.chunks_exact_mut(W).enumerate() {
                let i = row0 + j;
                let p = parent[i] as usize;
                let xc = &coarse_x[p * W..(p + 1) * W];
                let b = &rhs[i * W..(i + 1) * W];
                for c in 0..W {
                    xr[c] = d[i] * b[c] + VCYCLE_OVERCORRECTION * xc[c];
                }
            }
        });
    }

    /// Post-smoothing `x += ωD⁻¹ residual`.
    fn post_smooth<const W: usize>(
        &self,
        level: usize,
        residual: &[f64],
        x: &mut [f64],
        pool: &Pool,
    ) {
        let d = &self.damped_inv_diag[level];
        pool.block_rows(W, LIGHT_SPAWN_MIN, x, |row0, span| {
            for (j, xr) in span.chunks_exact_mut(W).enumerate() {
                let i = row0 + j;
                let r = &residual[i * W..(i + 1) * W];
                for c in 0..W {
                    xr[c] += d[i] * r[c];
                }
            }
        });
    }

    /// The coarsest level: `x = Pinv rhs`, each entry the crate's chunked
    /// dot product ([`vector::dot`]) of a pseudo-inverse row with a column
    /// of `rhs`.
    fn coarse_solve<const W: usize>(&self, rhs: &[f64], x: &mut [f64], pool: &Pool) {
        let n = rhs.len() / W;
        let pinv = &self.coarse_pinv;
        pool.block_rows(W, SPAWN_MIN, x, |row0, span| {
            let mut partials = vec![[0.0; W]; n.div_ceil(REDUCE_CHUNK).max(1)];
            let mut fold = vec![0.0; partials.len()];
            // The pseudo-inverse row broadcast across the block's columns.
            let mut row = vec![0.0; REDUCE_CHUNK.min(n) * W];
            for (j, xr) in span.chunks_exact_mut(W).enumerate() {
                let prow = &pinv[(row0 + j) * n..(row0 + j + 1) * n];
                for (k, part) in partials.iter_mut().enumerate() {
                    let lo = k * REDUCE_CHUNK;
                    let hi = (lo + REDUCE_CHUNK).min(n);
                    let row = &mut row[..(hi - lo) * W];
                    for (r, &p) in row.chunks_exact_mut(W).zip(&prow[lo..hi]) {
                        r.fill(p);
                    }
                    *part = block::dot_kernel_block::<W>(row, &rhs[lo * W..hi * W]);
                }
                for c in 0..W {
                    for (f, part) in fold.iter_mut().zip(&partials) {
                        *f = part[c];
                    }
                    xr[c] = tree_fold(&mut fold);
                }
            }
        });
    }
}

/// The mean-deflated pseudo-inverse `Σ_{k≥1} v_k v_kᵀ / λ_k` of a
/// connected Laplacian from its full eigendecomposition (ascending, so
/// `k = 0` is the constant null vector), dense and row-major. Each entry
/// is computed once and mirrored, so the result is exactly symmetric.
fn deflated_pseudo_inverse(eig: &tql::SymmetricEigen) -> Vec<f64> {
    let n = eig.eigenvalues.len();
    // Row i of W holds v_k[i] / √λ_k for the kept k; Pinv = W Wᵀ.
    let kept: Vec<usize> = (1..n).filter(|&k| eig.eigenvalues[k] > 0.0).collect();
    let mut w = vec![0.0; n * kept.len()];
    for i in 0..n {
        for (c, &k) in kept.iter().enumerate() {
            w[i * kept.len() + c] = eig.eigenvectors.get(i, k) / eig.eigenvalues[k].sqrt();
        }
    }
    let mut pinv = vec![0.0; n * n];
    for i in 0..n {
        let wi = &w[i * kept.len()..(i + 1) * kept.len()];
        for j in i..n {
            let wj = &w[j * kept.len()..(j + 1) * kept.len()];
            let e = vector::dot(wi, wj);
            pinv[i * n + j] = e;
            pinv[j * n + i] = e;
        }
    }
    pinv
}

/// The symmetric aggregation V-cycle rooted at one level of a
/// [`VCycleSetup`]: per level one weighted-Jacobi pre- and post-smoothing
/// sweep around an over-corrected coarse correction, and the dense
/// pseudo-inverse on the coarsest level. As a linear map it is
/// `2S − SAS + γ(I − SA)P B_c Pᵀ(I − AS)` with `S = ωD⁻¹` and `B_c` the
/// next level's cycle — symmetric, and positive definite because
/// `ω·ρ(D⁻¹A) < 2`.
///
/// It runs on a whole block at once: every smoothing pass, residual and
/// `Pᵀ` gather reads each matrix row once for all columns, and each column
/// comes out bitwise as it would alone.
struct VCycle<'s, 'p> {
    setup: &'s VCycleSetup<'s>,
    depth: usize,
    /// The levels' coarse right-hand sides and corrections, stacked.
    arena: Vec<f64>,
    pool: Pool<'p>,
}

impl pcg::Preconditioner for VCycle<'_, '_> {
    fn apply(&mut self, w: usize, r: &[f64], z: &mut [f64]) {
        let (setup, depth, pool) = (self.setup, self.depth, &self.pool);
        let arena = &mut self.arena;
        block::with_width!(w, W => setup.cycle::<W>(depth, r, z, arena, pool))
    }
}

/// Block inverse iteration with per-sweep Rayleigh–Ritz projection.
///
/// Refines the block `vectors` in place towards the bottom nonzero
/// eigenspace of `laplacian` and returns the Ritz values (ascending,
/// aligned with the block's columns). Stops early once the first `k`
/// residuals are below `target`.
///
/// Each sweep: (a) centre + orthonormalise the block, (b) Rayleigh–Ritz on
/// the b-dimensional subspace (one SpMM for `LV`, the rotation applied to
/// `V` and `LV` in place), (c) one warm-started inverse-iteration
/// correction per unlocked vector — solve `L d = v − Lv/θ` with PCG and set
/// `v ← v/θ + d`, which equals the inverse-iteration update `L⁻¹v` but
/// hands the solver a right-hand side that shrinks with the eigen-residual.
/// The corrections of one sweep are one batched solve ([`pcg::solve_on`])
/// whose right-hand sides are built inside the `LV` buffer.
///
/// The inner solves are preconditioned by `vcycle`, or by Jacobi without
/// one (walks whose coarsest level was too big for a dense
/// pseudo-inverse). A V-cycle solve that
/// fails with [`LinalgError::NotPositiveDefinite`] or
/// [`LinalgError::NoConvergence`] is retried alone with Jacobi-PCG and
/// counted in [`SolverCounters::vcycle_retries`]. A finite `target` marks
/// the finest level, whose inner solves and PCG iterations are counted
/// too. Counters and errors are taken column by column in block order, so
/// they are those of one solve after another.
#[allow(clippy::too_many_arguments)]
fn refine_block(
    laplacian: &CsrMatrix,
    vectors: &mut Block,
    k: usize,
    target: f64,
    sweeps: usize,
    mut vcycle: Option<&mut VCycle<'_, '_>>,
    lv: &mut Vec<f64>,
    rng: &mut StdRng,
    pool: &Pool,
) -> Result<Vec<f64>, LinalgError> {
    let n = laplacian.rows();
    let b = vectors.width;
    let cg_opts = CgOptions {
        tolerance: INNER_TOLERANCE,
        max_iterations: None,
        deflate_mean: true,
    };
    let mut lambdas = vec![0.0; b];
    let mut jacobi: Option<pcg::Jacobi<'_>> = None;
    let mut workspace = pcg::Workspace::default();
    for sweep in 0..sweeps.max(1) {
        orthonormalize(vectors, rng, pool);
        let v = &mut vectors.data;

        // Rayleigh–Ritz: T = VᵀLV, rotate V and LV by T's eigenbasis.
        lv.resize(n * b, 0.0);
        block::spmm(pool, laplacian, v, lv, b);
        let t = DenseMatrix::from_vec(b, b, block::gram(pool, v, lv, b))?;
        let ritz = tql::symmetric_eigen(&t)?;
        let y = ritz.eigenvectors.as_slice();
        block::rotate(pool, v, y, b);
        block::rotate(pool, lv, y, b);
        lambdas.copy_from_slice(&ritz.eigenvalues);

        // Residuals of the whole block (we have LV for free); convergence
        // is gated on the k wanted pairs only.
        let residuals = block::residual_norms(pool, v, lv, &lambdas, b, b);
        let worst = residuals[..k].iter().cloned().fold(0.0f64, f64::max);
        // With a finite target this is a convergence check; on intermediate
        // levels (infinite target) every sweep but the last runs its
        // correction, and the trailing Rayleigh–Ritz still leaves the block
        // orthonormal for prolongation.
        if (target.is_finite() && worst <= target) || sweep + 1 == sweeps {
            break;
        }

        // Inverse-iteration corrections, skipping (locking) vectors already
        // well below the convergence target — typically the wanted pairs,
        // whose spectral gaps are widest, leaving only the guard vectors to
        // pay for solves in late sweeps. A non-positive Ritz value is an
        // error once the vectors before it have had their corrections.
        let lock_below = if target.is_finite() {
            0.3 * target
        } else {
            0.0
        };
        let mut unlocked = Vec::with_capacity(b);
        let mut bad_theta = None;
        for (i, (&res, &theta)) in residuals.iter().zip(&lambdas).enumerate() {
            if res <= lock_below {
                continue;
            }
            if !(theta.is_finite() && theta > 0.0) {
                bad_theta = Some(theta);
                break;
            }
            unlocked.push(i);
        }
        if !unlocked.is_empty() {
            correct(
                laplacian,
                v,
                lv,
                b,
                &unlocked,
                &lambdas,
                target,
                &cg_opts,
                &mut vcycle,
                &mut jacobi,
                &mut workspace,
                pool,
            )?;
        }
        if let Some(theta) = bad_theta {
            return Err(LinalgError::NotPositiveDefinite { curvature: theta });
        }
    }
    Ok(lambdas)
}

/// One sweep's inverse-iteration corrections for the `unlocked` columns of
/// the `n × b` block `v`, whose rotated `L v` is in `lv`: `lv` is compacted
/// to the unlocked columns and each becomes its right-hand side
/// `v − Lv/θ`, all are solved in one batched PCG call, and each solution
/// `d` updates its column to `v/θ + d`. Failed V-cycle columns are retried
/// with Jacobi-PCG afterwards, in column order, from the right-hand sides
/// the batched solve left untouched. The batched solve runs in the
/// level's `workspace`, reused from sweep to sweep.
#[allow(clippy::too_many_arguments)]
fn correct<'p>(
    laplacian: &CsrMatrix,
    v: &mut [f64],
    lv: &mut Vec<f64>,
    b: usize,
    unlocked: &[usize],
    lambdas: &[f64],
    target: f64,
    cg_opts: &CgOptions,
    vcycle: &mut Option<&mut VCycle<'_, '_>>,
    jacobi: &mut Option<pcg::Jacobi<'p>>,
    workspace: &mut pcg::Workspace,
    pool: &Pool<'p>,
) -> Result<(), LinalgError> {
    let n = laplacian.rows();
    let mut keep = vec![false; b];
    for &i in unlocked {
        keep[i] = true;
    }
    let u = block::compact(lv, b, &keep);
    // rhs = v − Lv/θ has norm ‖residual‖/θ, so the relative PCG tolerance
    // tightens automatically as the pair converges.
    let scales: Vec<f64> = unlocked.iter().map(|&i| -1.0 / lambdas[i]).collect();
    let vr = &*v;
    block::for_rows(pool, lv, u, |r, row| {
        for ((e, &i), &s) in row.iter_mut().zip(unlocked).zip(&scales) {
            let scaled = *e * s;
            *e = scaled + 1.0 * vr[r * b + i];
        }
    });
    // v ← d + v/θ for a solved column.
    let update = |v: &mut [f64], i: usize, d: &(dyn Fn(usize) -> f64 + Sync)| {
        let inv = 1.0 / lambdas[i];
        block::for_rows(pool, v, b, |r, row| row[i] = d(r) + inv * row[i]);
    };
    let precond: &mut dyn pcg::Preconditioner = match vcycle.as_deref_mut() {
        Some(vcycle) => vcycle,
        None => match jacobi {
            Some(jacobi) => jacobi,
            None => jacobi.insert(pcg::Jacobi::new(laplacian, *pool)?),
        },
    };
    let mut outcomes: Vec<Option<Result<usize, LinalgError>>> = vec![None; u];
    pcg::solve_on(
        workspace,
        laplacian,
        lv,
        u,
        cg_opts,
        precond,
        *pool,
        &mut |j, result| {
            outcomes[j] = Some(result.map(|solved| {
                update(v, unlocked[j], &|r| solved.get(r));
                solved.iterations
            }));
        },
    )?;
    for (j, outcome) in outcomes.into_iter().enumerate() {
        let iterations = match outcome.expect("every column reports") {
            Ok(iterations) => iterations,
            Err(LinalgError::NotPositiveDefinite { .. } | LinalgError::NoConvergence { .. })
                if vcycle.is_some() =>
            {
                VCYCLE_RETRIES.fetch_add(1, Ordering::Relaxed);
                let rhs: Vec<f64> = (0..n).map(|r| lv[r * u + j]).collect();
                let retry = pcg::solve_jacobi_on(laplacian, &rhs, cg_opts, *pool)?;
                update(v, unlocked[j], &|r| retry.solution[r]);
                retry.iterations
            }
            Err(e) => return Err(e),
        };
        if target.is_finite() {
            FINEST_SOLVES.fetch_add(1, Ordering::Relaxed);
            FINEST_ITERATIONS.fetch_add(iterations as u64, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// Centre every column of the block and orthonormalise the columns with
/// modified Gram–Schmidt, replacing any collapsed column by a fresh seeded
/// random direction. Bitwise equal to the same steps on separate vectors:
/// centre, project out each earlier column, normalise.
///
/// Each pass over the block fuses an update with the reduction that reads
/// its result: the centring of column `i` with its first dot product (or
/// its norm, for column 0), each `v_i += c·v_q` with the next dot product
/// or the norm, and the scaling of column `i` with the sum of column
/// `i + 1` that its centring needs.
fn orthonormalize(vectors: &mut Block, rng: &mut StdRng, pool: &Pool) {
    let b = vectors.width;
    let rows = vectors.rows();
    let v = &mut vectors.data;
    let mut sum = block::update_sum(pool, v, b, |row| row[0]);
    for i in 0..b {
        let mut attempts = 0;
        loop {
            // Column q's coefficient is −⟨v_q, v_i⟩; after the last one,
            // ⟨v_i, v_i⟩ is the squared norm.
            let partner = |q: usize| if q < i { q } else { i };
            let mean = sum / rows as f64;
            let mut d = block::update_dot(pool, v, b, |row| {
                row[i] -= mean;
                row[partner(0)] * row[i]
            });
            for q in 0..i {
                let c = -d;
                d = block::update_dot(pool, v, b, |row| {
                    row[i] += c * row[q];
                    row[partner(q + 1)] * row[i]
                });
            }
            let norm = d.sqrt();
            if norm > 1e-10 || attempts >= 4 {
                let inv = 1.0 / norm;
                let scale = norm > 0.0;
                if i + 1 < b {
                    sum = block::update_sum(pool, v, b, |row| {
                        if scale {
                            row[i] *= inv;
                        }
                        row[i + 1]
                    });
                } else if scale {
                    block::for_rows(pool, v, b, |_, row| row[i] *= inv);
                }
                break;
            }
            for row in v.chunks_exact_mut(b) {
                row[i] = rng.gen_range(-1.0..1.0);
            }
            attempts += 1;
            sum = block::update_sum(pool, v, b, |row| row[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiedler::{self, FiedlerMethod, FiedlerOptions};
    use crate::parallel::with_threads;

    /// The `k` smallest nonzero pairs by the multilevel method, through the
    /// one solve entry point.
    fn ml_pairs(
        lap: &CsrMatrix,
        k: usize,
        tolerance: f64,
        seed: u64,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<Vec<(f64, Vec<f64>)>, LinalgError> {
        let opts = FiedlerOptions {
            method: Some(FiedlerMethod::Multilevel),
            tolerance,
            seed,
            multilevel: opts.clone(),
        };
        fiedler::smallest_nonzero_eigenpairs_on(lap, k, &opts, pool)
    }

    /// The Fiedler pair by the multilevel method.
    fn ml_fiedler(
        lap: &CsrMatrix,
        tolerance: f64,
        seed: u64,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<(f64, Vec<f64>), LinalgError> {
        Ok(ml_pairs(lap, 1, tolerance, seed, opts, pool)?.swap_remove(0))
    }

    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            t.push((i, i, deg));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn grid_laplacian(w: usize, h: usize) -> CsrMatrix {
        let idx = |x: usize, y: usize| x * h + y;
        let mut t = Vec::new();
        let mut deg = vec![0.0; w * h];
        let edge = |t: &mut Vec<(usize, usize, f64)>, deg: &mut Vec<f64>, a: usize, b: usize| {
            t.push((a, b, -1.0));
            t.push((b, a, -1.0));
            deg[a] += 1.0;
            deg[b] += 1.0;
        };
        for x in 0..w {
            for y in 0..h {
                if x + 1 < w {
                    edge(&mut t, &mut deg, idx(x, y), idx(x + 1, y));
                }
                if y + 1 < h {
                    edge(&mut t, &mut deg, idx(x, y), idx(x, y + 1));
                }
            }
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        CsrMatrix::from_triplets(w * h, w * h, &t).unwrap()
    }

    #[test]
    fn coarsening_preserves_laplacian_structure() {
        let lap = grid_laplacian(8, 8);
        let c = coarsen_laplacian(&lap, &Pool::default()).unwrap();
        // Roughly halves the vertex count on a grid.
        assert!(c.coarse.rows() <= 40, "coarse size {}", c.coarse.rows());
        assert!(c.coarse.rows() >= 16);
        // Still symmetric with zero row sums.
        c.coarse.require_symmetric(1e-12).unwrap();
        for s in c.coarse.row_sums() {
            assert!(s.abs() < 1e-12);
        }
        // Every fine vertex has a parent in range; groups have size ≤ 2.
        let mut count = vec![0usize; c.coarse.rows()];
        for &p in &c.parent {
            count[p as usize] += 1;
        }
        assert!(count.iter().all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn coarsening_is_galerkin_product() {
        // The contracted operator must satisfy (PᵀLP)x = Pᵀ(L(Px)) for any
        // coarse vector x. The 4-cycle matches into two pairs joined by two
        // parallel edges, whose weights must add up (coarse entry −2); the
        // edgeless graph has nothing to match and stays all singletons.
        let cycle = CsrMatrix::from_triplets(
            4,
            4,
            &(0..4)
                .flat_map(|i| {
                    let j = (i + 1) % 4;
                    [(i, i, 2.0), (i, j, -1.0), (j, i, -1.0)]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let edgeless = CsrMatrix::from_triplets(5, 5, &[]).unwrap();
        for (name, lap, expected) in [
            ("5x4 grid", grid_laplacian(5, 4), None),
            ("4-cycle", cycle, Some((2, -2.0))),
            ("edgeless", edgeless, Some((5, 0.0))),
        ] {
            let c = coarsen_laplacian(&lap, &Pool::default()).unwrap();
            let nc = c.coarse.rows();
            if let Some((len, weight)) = expected {
                assert_eq!(nc, len, "{name}");
                assert_eq!(c.coarse.get(0, 1), weight, "{name}");
            }
            let x: Vec<f64> = (0..nc).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
            let px: Vec<f64> = c.parent.iter().map(|&p| x[p as usize]).collect();
            let lpx = lap.matvec(&px).unwrap();
            let mut ptlpx = vec![0.0; nc];
            for (v, &p) in c.parent.iter().enumerate() {
                ptlpx[p as usize] += lpx[v];
            }
            let direct = c.coarse.matvec(&x).unwrap();
            for i in 0..nc {
                assert!(
                    (ptlpx[i] - direct[i]).abs() < 1e-10,
                    "{name}, coarse row {i}: {} vs {}",
                    ptlpx[i],
                    direct[i]
                );
            }
        }
    }

    #[test]
    fn coarsening_prefers_heavy_edges() {
        // Path 0-1-2-3 with a heavy middle edge: matching must contract
        // (1,2) first, leaving 0 and 3 as singletons.
        let t = [
            (0usize, 1usize, -1.0),
            (1, 0, -1.0),
            (1, 2, -10.0),
            (2, 1, -10.0),
            (2, 3, -1.0),
            (3, 2, -1.0),
            (0, 0, 1.0),
            (1, 1, 11.0),
            (2, 2, 11.0),
            (3, 3, 11.0 - 10.0),
        ];
        let lap = CsrMatrix::from_triplets(4, 4, &t).unwrap();
        let c = coarsen_laplacian(&lap, &Pool::default()).unwrap();
        assert_eq!(c.parent[1], c.parent[2]);
        assert_ne!(c.parent[0], c.parent[1]);
        assert_ne!(c.parent[3], c.parent[1]);
    }

    #[test]
    fn small_problem_is_exact_dense() {
        // n below coarsest_size: multilevel must agree with dense QL to
        // machine precision.
        let n = 20;
        let lap = path_laplacian(n);
        let opts = MultilevelOptions::default();
        let (lambda, v) = ml_fiedler(&lap, 1e-9, 7, &opts, &Pool::default()).unwrap();
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        assert!((lambda - expect).abs() < 1e-10, "{lambda} vs {expect}");
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        assert!(vector::norm2(&r) < 1e-10);
    }

    #[test]
    fn multilevel_matches_closed_form_on_long_path() {
        // n = 1200 forces a real hierarchy (coarsest_size 256 → ~3 levels).
        let n = 1200;
        let lap = path_laplacian(n);
        let opts = MultilevelOptions::default();
        let (lambda, v) = ml_fiedler(&lap, 1e-9, 7, &opts, &Pool::default()).unwrap();
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        assert!(
            (lambda - expect).abs() < 1e-9 * expect.max(1e-3),
            "{lambda} vs {expect}"
        );
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        assert!(vector::norm2(&r) < 1e-8, "residual {}", vector::norm2(&r));
        // The path's Fiedler vector is monotone.
        let inc = v.windows(2).all(|w| w[1] > w[0]);
        let dec = v.windows(2).all(|w| w[1] < w[0]);
        assert!(inc || dec);
    }

    #[test]
    fn multilevel_k_pairs_match_dense_on_grid() {
        // 24×18 grid (n = 432 > coarsest floor when shrunk): compare the
        // three smallest nonzero eigenvalues against the dense reference.
        let lap = grid_laplacian(24, 18);
        let opts = MultilevelOptions {
            coarsest_size: 64, // force a real hierarchy at this size
            ..Default::default()
        };
        let ml = ml_pairs(&lap, 3, 1e-10, 1, &opts, &Pool::default()).unwrap();
        let eig = tql::symmetric_eigen(&lap.to_dense()).unwrap();
        for i in 0..3 {
            let expect = eig.eigenvalues[i + 1];
            assert!(
                (ml[i].0 - expect).abs() < 1e-7 * expect.max(1.0),
                "pair {i}: {} vs {expect}",
                ml[i].0
            );
            // Genuine eigenpair.
            let mut r = lap.matvec(&ml[i].1).unwrap();
            vector::axpy(-ml[i].0, &ml[i].1, &mut r);
            assert!(vector::norm2(&r) < 1e-8);
        }
        assert!(ml[0].0 <= ml[1].0 && ml[1].0 <= ml[2].0);
    }

    #[test]
    fn weighted_graph_converges() {
        // Weights spanning six orders of magnitude: the scaled convergence
        // target and the V-cycle's Jacobi smoothing must still deliver a
        // pair.
        let n = 600;
        let mut t = Vec::new();
        let mut deg = vec![0.0; n];
        for i in 0..n - 1 {
            let w = if i % 3 == 0 { 1e6 } else { 1.0 };
            t.push((i, i + 1, -w));
            t.push((i + 1, i, -w));
            deg[i] += w;
            deg[i + 1] += w;
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let (lambda, v) = ml_fiedler(
            &lap,
            1e-9,
            3,
            &MultilevelOptions::default(),
            &Pool::default(),
        )
        .unwrap();
        assert!(lambda > 0.0);
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        let scale = lap.gershgorin_upper_bound();
        assert!(
            vector::norm2(&r) <= 1e-8 * scale,
            "residual {} vs scale {scale}",
            vector::norm2(&r)
        );
    }

    #[test]
    fn matching_stall_falls_back_to_iterative_coarse_solve() {
        // Star K_{1,n-1}: edge matching contracts exactly one pair per
        // level, so the hierarchy stalls at the input itself. The solver
        // must solve that level by block inverse iteration from a random
        // start instead of materialising an O(n²) dense matrix. λ₂ of a
        // star is 1, with multiplicity n − 2.
        let n = 1500; // > 4 × default coarsest_size
        let mut t = Vec::new();
        for i in 1..n {
            t.push((0, i, -1.0));
            t.push((i, 0, -1.0));
            t.push((i, i, 1.0));
        }
        t.push((0, 0, (n - 1) as f64));
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let (lambda, v) = ml_fiedler(
            &lap,
            1e-9,
            5,
            &MultilevelOptions::default(),
            &Pool::default(),
        )
        .unwrap();
        assert!((lambda - 1.0).abs() < 1e-6, "star λ₂ {lambda}");
        let mut r = lap.matvec(&v).unwrap();
        vector::axpy(-lambda, &v, &mut r);
        assert!(vector::norm2(&r) < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let lap = grid_laplacian(20, 20);
        let opts = MultilevelOptions {
            coarsest_size: 64,
            ..Default::default()
        };
        let a = ml_pairs(&lap, 2, 1e-10, 42, &opts, &Pool::default()).unwrap();
        let b = ml_pairs(&lap, 2, 1e-10, 42, &opts, &Pool::default()).unwrap();
        for ((la, va), (lb, vb)) in a.iter().zip(&b) {
            assert_eq!(la, lb);
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn threaded_solve_bitwise_identical_to_serial() {
        // The whole multilevel path — pooled coarsening, prolongation,
        // Jacobi smoothing, block refinement with V-cycle PCG — must
        // return bit-identical eigenpairs for 1, 2, and 4 workers.
        let lap = grid_laplacian(200, 180); // 36,000 vertices > SPAWN_MIN
        let run = |threads: usize| {
            let opts = MultilevelOptions::default();
            with_threads(Some(threads), |pool| {
                ml_pairs(&lap, 2, 1e-8, 11, &opts, pool).unwrap()
            })
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            for ((ls, vs), (lp, vp)) in serial.iter().zip(&par) {
                assert_eq!(ls.to_bits(), lp.to_bits(), "threads={threads}");
                assert_eq!(vs, vp, "threads={threads}");
            }
        }
    }

    #[test]
    fn coarsening_identical_across_thread_counts() {
        let lap = grid_laplacian(200, 200); // 40,000 vertices > SPAWN_MIN
        let serial = coarsen_laplacian(&lap, &Pool::serial()).unwrap();
        for threads in [2usize, 4] {
            let par = with_threads(Some(threads), |pool| coarsen_laplacian(&lap, pool)).unwrap();
            assert_eq!(par.parent, serial.parent, "threads={threads}");
            assert_eq!(par.coarse, serial.coarse, "threads={threads}");
        }
    }

    #[test]
    fn weighted_prolongation_injects_smoother_error() {
        // The motivation for the weighted transfer: right after
        // prolongation (before any smoothing/refinement) the Rayleigh
        // quotient of the interpolated Fiedler guess must not be worse
        // than piecewise-constant injection's — the blocky injected error
        // lives at the top of the spectrum and inflates the quotient.
        let lap = grid_laplacian(30, 30);
        let step = coarsen_laplacian(&lap, &Pool::default()).unwrap();
        // Exact Fiedler vector of the coarse operator as the coarse guess.
        let coarse_pairs = dense_smallest(&step.coarse, 1).unwrap();
        let coarse_v = &coarse_pairs[0].1;
        let rq = |v: &[f64]| {
            let mut lv = vec![0.0; v.len()];
            lap.matvec_into(v, &mut lv);
            vector::dot(v, &lv) / vector::dot(v, v)
        };
        let mut pc: Vec<f64> = step.parent.iter().map(|&c| coarse_v[c as usize]).collect();
        let coarse = Block::from_columns(std::slice::from_ref(coarse_v));
        let mut wt = prolong_block(&lap, &step, &coarse, &Pool::serial()).column(0);
        vector::center(&mut pc);
        vector::center(&mut wt);
        let (rq_pc, rq_wt) = (rq(&pc), rq(&wt));
        assert!(
            rq_wt <= rq_pc * 1.0001,
            "weighted transfer worse: {rq_wt} vs {rq_pc}"
        );
    }

    /// 4-neighbour Laplacian of a `w × h` grid with one disc hole of
    /// radius `r` centred in every `cell × cell` block — holes never
    /// touch, so the point set stays connected.
    fn holey_grid_laplacian(w: usize, h: usize, cell: usize, r: usize) -> CsrMatrix {
        let in_hole = |x: usize, y: usize| {
            let (cx, cy) = (x / cell * cell + cell / 2, y / cell * cell + cell / 2);
            let (dx, dy) = (x.abs_diff(cx), y.abs_diff(cy));
            dx * dx + dy * dy < r * r
        };
        let mut id = vec![usize::MAX; w * h];
        let mut n = 0;
        for x in 0..w {
            for y in 0..h {
                if !in_hole(x, y) {
                    id[x * h + y] = n;
                    n += 1;
                }
            }
        }
        let mut t = Vec::new();
        let mut deg = vec![0.0; n];
        for x in 0..w {
            for y in 0..h {
                let a = id[x * h + y];
                for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                    if a == usize::MAX || nx >= w || ny >= h {
                        continue;
                    }
                    let b = id[nx * h + ny];
                    if b != usize::MAX {
                        t.push((a, b, -1.0));
                        t.push((b, a, -1.0));
                        deg[a] += 1.0;
                        deg[b] += 1.0;
                    }
                }
            }
        }
        for (i, d) in deg.into_iter().enumerate() {
            t.push((i, i, d));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    /// The two inputs every V-cycle test runs on: a plain grid and a holey
    /// point set, both above `SPAWN_MIN` so threaded pools really split.
    fn vcycle_inputs() -> Vec<(&'static str, CsrMatrix)> {
        vec![
            ("grid 240x160", grid_laplacian(240, 160)),
            ("holey 256x192", holey_grid_laplacian(256, 192, 16, 5)),
        ]
    }

    /// Apply the finest-level V-cycle of `lap`'s default hierarchy to each
    /// of `inputs` on `pool`.
    fn apply_vcycle(lap: &CsrMatrix, inputs: &[Vec<f64>], pool: Pool<'_>) -> Vec<Vec<f64>> {
        let hierarchy = Hierarchy::build(lap, 3, &MultilevelOptions::default(), &pool).unwrap();
        assert!(hierarchy.levels.len() >= 3, "a real hierarchy");
        let eig = tql::symmetric_eigen(&hierarchy.coarsest(lap).to_dense()).unwrap();
        let setup = VCycleSetup::new(lap, &hierarchy, &eig, &pool);
        let mut vcycle = setup.at(0, pool);
        inputs
            .iter()
            .map(|r| {
                let mut z = vec![0.0; r.len()];
                pcg::Preconditioner::apply(&mut vcycle, 1, r, &mut z);
                z
            })
            .collect()
    }

    fn random_vectors(n: usize, count: usize, seed: u64, mean_free: bool) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut v = vec![0.0; n];
                vector::fill_random(&mut rng, &mut v);
                if mean_free {
                    vector::center(&mut v);
                }
                v
            })
            .collect()
    }

    #[test]
    fn vcycle_is_symmetric() {
        for (name, lap) in vcycle_inputs() {
            let xs = random_vectors(lap.rows(), 4, 21, false);
            let mx = apply_vcycle(&lap, &xs, Pool::serial());
            for i in 0..xs.len() {
                for j in i + 1..xs.len() {
                    let a = vector::dot(&mx[i], &xs[j]);
                    let b = vector::dot(&xs[i], &mx[j]);
                    let scale = vector::norm2(&mx[i]) * vector::norm2(&xs[j]);
                    assert!(
                        (a - b).abs() <= 1e-12 * scale,
                        "{name}: <Mx{i},x{j}> = {a} vs <x{i},Mx{j}> = {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn vcycle_is_positive_on_mean_free_vectors() {
        for (name, lap) in vcycle_inputs() {
            let xs = random_vectors(lap.rows(), 6, 22, true);
            // The smoothest mean-free direction too: the Fiedler-like
            // coordinate ramp, which only the coarse levels can resolve.
            let mut ramp: Vec<f64> = (0..lap.rows()).map(|i| i as f64).collect();
            vector::center(&mut ramp);
            let xs: Vec<Vec<f64>> = xs.into_iter().chain([ramp]).collect();
            let mx = apply_vcycle(&lap, &xs, Pool::serial());
            for (i, (x, m)) in xs.iter().zip(&mx).enumerate() {
                let q = vector::dot(x, m);
                assert!(q > 0.0, "{name}: <Mx,x> = {q} for vector {i}");
            }
        }
    }

    #[test]
    fn vcycle_bitwise_identical_across_thread_counts() {
        for (name, lap) in vcycle_inputs() {
            let xs = random_vectors(lap.rows(), 2, 23, true);
            let serial = apply_vcycle(&lap, &xs, Pool::serial());
            for threads in [2usize, 4] {
                let par = with_threads(Some(threads), |pool| apply_vcycle(&lap, &xs, *pool));
                assert_eq!(par, serial, "{name}: threads={threads}");
            }
        }
    }

    #[test]
    fn block_vcycle_equals_one_column_cycles() {
        // One application to an n × w block gives each column the bits of
        // its own width-1 application, at every width and thread count.
        for (name, lap) in vcycle_inputs() {
            let xs = random_vectors(lap.rows(), pcg::LOCKSTEP_MAX, 25, true);
            let solo = apply_vcycle(&lap, &xs, Pool::serial());
            for threads in [1usize, 2] {
                with_threads(Some(threads), |pool| {
                    let hierarchy =
                        Hierarchy::build(&lap, 3, &MultilevelOptions::default(), pool).unwrap();
                    let eig = tql::symmetric_eigen(&hierarchy.coarsest(&lap).to_dense()).unwrap();
                    let setup = VCycleSetup::new(&lap, &hierarchy, &eig, pool);
                    let mut vcycle = setup.at(0, *pool);
                    for w in 1..=pcg::LOCKSTEP_MAX {
                        let r = Block::from_columns(&xs[..w]);
                        let mut z = vec![0.0; r.data.len()];
                        pcg::Preconditioner::apply(&mut vcycle, w, &r.data, &mut z);
                        let z = Block { data: z, width: w };
                        for (c, expect) in solo.iter().take(w).enumerate() {
                            assert_eq!(
                                &z.column(c),
                                expect,
                                "{name}: w={w} column {c} threads={threads}"
                            );
                        }
                    }
                });
            }
        }
    }

    /// Every column's outcome: solution, iterations and residual bits, or
    /// the error.
    type Outcomes = Vec<Result<(Vec<f64>, usize, u64), LinalgError>>;

    /// Solve the columns of `rhs` in one batched call.
    fn batched(
        lap: &CsrMatrix,
        rhs: &[Vec<f64>],
        opts: &CgOptions,
        precond: &mut dyn pcg::Preconditioner,
        pool: Pool<'_>,
    ) -> Outcomes {
        let block = Block::from_columns(rhs);
        let mut out: Vec<Option<_>> = vec![None; rhs.len()];
        pcg::solve_on(
            &mut pcg::Workspace::default(),
            lap,
            &block.data,
            rhs.len(),
            opts,
            precond,
            pool,
            &mut |c, result| {
                out[c] =
                    Some(result.map(|s| (s.to_vec(), s.iterations, s.relative_residual.to_bits())));
            },
        )
        .unwrap();
        out.into_iter()
            .map(|o| o.expect("every column reports"))
            .collect()
    }

    /// Solve each column of `rhs` alone, at width 1.
    fn one_by_one(
        lap: &CsrMatrix,
        rhs: &[Vec<f64>],
        opts: &CgOptions,
        precond: &mut dyn pcg::Preconditioner,
        pool: Pool<'_>,
    ) -> Outcomes {
        rhs.iter()
            .flat_map(|b| batched(lap, std::slice::from_ref(b), opts, precond, pool))
            .collect()
    }

    #[test]
    fn batched_solves_equal_one_column_solves() {
        // More columns than LOCKSTEP_MAX, so later columns join the
        // lockstep set as earlier ones finish: random and smooth columns
        // that converge on different iterations, a zero column, and
        // failing columns among them.
        for (name, lap) in vcycle_inputs() {
            let n = lap.rows();
            let mut rhs = random_vectors(n, 4, 26, true);
            let mut ramp: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            vector::center(&mut ramp);
            let wiggle: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            rhs.insert(1, vec![0.0; n]);
            rhs.insert(3, ramp);
            rhs.push(wiggle);
            // Jacobi without mean deflation on the singular Laplacian: the
            // degree vector's preconditioned residual is the constant
            // vector, whose curvature is zero.
            let degrees: Vec<f64> = (0..n).map(|i| lap.get(i, i)).collect();
            let mut jacobi_rhs = rhs.clone();
            jacobi_rhs.insert(2, degrees);
            let jacobi_opts = CgOptions {
                tolerance: 1e-1,
                max_iterations: Some(60),
                deflate_mean: false,
            };
            // V-cycle with deflation, capped so slow columns fail with
            // `NoConvergence`, and a non-finite column.
            let mut vcycle_rhs = rhs.clone();
            let mut bad = vec![1.0; n];
            bad[n / 2] = f64::NAN;
            vcycle_rhs.insert(4, bad);
            let mut vcycle_opts = CgOptions {
                tolerance: 1e-9,
                max_iterations: None,
                deflate_mean: true,
            };
            let pool = Pool::serial();
            let hierarchy =
                Hierarchy::build(&lap, 3, &MultilevelOptions::default(), &pool).unwrap();
            let eig = tql::symmetric_eigen(&hierarchy.coarsest(&lap).to_dense()).unwrap();
            let setup = VCycleSetup::new(&lap, &hierarchy, &eig, &pool);
            let uncapped = one_by_one(
                &lap,
                &vcycle_rhs,
                &vcycle_opts,
                &mut setup.at(0, pool),
                pool,
            );
            let slowest = uncapped
                .iter()
                .filter_map(|o| o.as_ref().ok())
                .map(|s| s.1)
                .max();
            vcycle_opts.max_iterations = Some(slowest.unwrap() - 1);
            let mut reference = None;
            for threads in [1usize, 2] {
                let (jacobi, vcycle) = with_threads(Some(threads), |pool| {
                    let mut jacobi = pcg::Jacobi::new(&lap, *pool).unwrap();
                    let jacobi_out = batched(&lap, &jacobi_rhs, &jacobi_opts, &mut jacobi, *pool);
                    let alone = one_by_one(&lap, &jacobi_rhs, &jacobi_opts, &mut jacobi, *pool);
                    assert_eq!(jacobi_out, alone, "{name}: jacobi, threads={threads}");
                    let mut vc = setup.at(0, *pool);
                    let vcycle_out = batched(&lap, &vcycle_rhs, &vcycle_opts, &mut vc, *pool);
                    let alone = one_by_one(&lap, &vcycle_rhs, &vcycle_opts, &mut vc, *pool);
                    assert_eq!(vcycle_out, alone, "{name}: v-cycle, threads={threads}");
                    (jacobi_out, vcycle_out)
                });
                let reference = reference.get_or_insert_with(|| (jacobi.clone(), vcycle.clone()));
                assert_eq!(reference, &(jacobi, vcycle), "{name}: threads={threads}");
            }
            let (jacobi, vcycle) = reference.unwrap();
            // The zero column returns at once, the others leave the
            // lockstep set on different iterations, and each failure is
            // its own.
            let iterations = |outcomes: &Outcomes| -> Vec<usize> {
                outcomes
                    .iter()
                    .filter_map(|o| o.as_ref().ok().map(|s| s.1))
                    .filter(|&i| i > 0)
                    .collect()
            };
            assert_eq!(jacobi[1].as_ref().unwrap().1, 0, "{name}");
            assert_eq!(vcycle[1].as_ref().unwrap().1, 0, "{name}");
            assert!(
                matches!(jacobi[2], Err(LinalgError::NotPositiveDefinite { .. })),
                "{name}"
            );
            assert!(
                matches!(vcycle[4], Err(LinalgError::NonFiniteInput { .. })),
                "{name}"
            );
            let solved = iterations(&jacobi);
            assert!(solved.len() >= 5, "{name}: {solved:?}");
            assert!(solved.iter().any(|&i| i != solved[0]), "{name}: {solved:?}");
            assert!(!iterations(&vcycle).is_empty(), "{name}");
            assert!(
                vcycle
                    .iter()
                    .any(|o| matches!(o, Err(LinalgError::NoConvergence { .. }))),
                "{name}: no column hit the iteration cap"
            );
        }
    }

    #[test]
    fn vcycle_cuts_inner_iterations_against_jacobi() {
        // The point of the preconditioner: on the same mean-free
        // right-hand side, V-cycle PCG needs a small fraction of
        // Jacobi-PCG's iterations and reaches the same solution.
        for (name, lap) in vcycle_inputs() {
            let pool = Pool::serial();
            let b = &random_vectors(lap.rows(), 1, 24, true)[0];
            let opts = CgOptions {
                tolerance: 1e-8,
                deflate_mean: true,
                ..Default::default()
            };
            let hierarchy =
                Hierarchy::build(&lap, 3, &MultilevelOptions::default(), &pool).unwrap();
            let eig = tql::symmetric_eigen(&hierarchy.coarsest(&lap).to_dense()).unwrap();
            let setup = VCycleSetup::new(&lap, &hierarchy, &eig, &pool);
            let vc = batched(
                &lap,
                std::slice::from_ref(b),
                &opts,
                &mut setup.at(0, pool),
                pool,
            );
            let (vc_solution, vc_iterations, _) = vc[0].clone().unwrap();
            let jac = pcg::solve_jacobi_on(&lap, b, &opts, pool).unwrap();
            assert!(
                vc_iterations * 5 < jac.iterations,
                "{name}: v-cycle {vc_iterations} vs jacobi {} iterations",
                jac.iterations
            );
            let mut diff = vc_solution;
            vector::axpy(-1.0, &jac.solution, &mut diff);
            assert!(vector::norm2(&diff) <= 1e-6 * vector::norm2(&jac.solution));
        }
    }

    #[test]
    fn a_failed_vcycle_column_is_retried_with_jacobi_and_counted() {
        // One PCG iteration at an unreachable tolerance fails the V-cycle
        // solve, so `correct` retries the column alone with Jacobi-PCG under
        // the same options, which fails too: the error is the standalone
        // Jacobi solve's of that column's right-hand side.
        let lap = grid_laplacian(40, 30);
        let n = lap.rows();
        let pool = Pool::serial();
        let hierarchy = Hierarchy::build(&lap, 3, &MultilevelOptions::default(), &pool).unwrap();
        assert!(!hierarchy.levels.is_empty(), "a real hierarchy");
        let eig = tql::symmetric_eigen(&hierarchy.coarsest(&lap).to_dense()).unwrap();
        let setup = VCycleSetup::new(&lap, &hierarchy, &eig, &pool);
        let mut vcycle = setup.at(0, pool);
        let cg_opts = CgOptions {
            tolerance: 1e-14,
            max_iterations: Some(1),
            deflate_mean: true,
        };
        let b = 2;
        let mut v = Block::from_columns(&random_vectors(n, b, 27, true)).data;
        let mut lv = vec![0.0; n * b];
        block::spmm(&pool, &lap, &v, &mut lv, b);
        let lambdas = [0.5, 0.75];
        let (unlocked, i) = ([1], 1);
        let rhs: Vec<f64> = (0..n)
            .map(|r| lv[r * b + i] * (-1.0 / lambdas[i]) + 1.0 * v[r * b + i])
            .collect();
        let expect = pcg::solve_jacobi_on(&lap, &rhs, &cg_opts, pool).unwrap_err();
        assert!(matches!(expect, LinalgError::NoConvergence { .. }));

        let before = solver_counters();
        let got = correct(
            &lap,
            &mut v,
            &mut lv,
            b,
            &unlocked,
            &lambdas,
            f64::INFINITY,
            &cg_opts,
            &mut Some(&mut vcycle),
            &mut None,
            &mut pcg::Workspace::default(),
            &pool,
        );
        let retries = solver_counters().since(&before).vcycle_retries;
        assert_eq!(retries, 1);
        assert_eq!(got, Err(expect));
    }

    #[test]
    fn a_hierarchy_of_another_laplacian_is_a_dimension_mismatch() {
        let opts = MultilevelOptions::default();
        let pool = Pool::serial();
        let hierarchy = Hierarchy::build(&grid_laplacian(40, 30), 3, &opts, &pool).unwrap();
        let other = grid_laplacian(60, 50);
        let got =
            smallest_nonzero_eigenpairs_on_hierarchy(&other, &hierarchy, 1, 1e-9, 1, &opts, &pool);
        assert_eq!(
            got,
            Err(LinalgError::DimensionMismatch {
                context: "hierarchy: parent map against the level above",
                expected: 3000,
                found: 1200,
            })
        );
    }

    #[test]
    fn a_hierarchy_too_coarse_for_the_block_is_too_small() {
        // Coarsened to 4 vertices or fewer, with no floor: too few rows for
        // the 8 pairs and 2 guard vectors of a k = 8 solve.
        let lap = grid_laplacian(40, 30);
        let pool = Pool::serial();
        let tiny = MultilevelOptions {
            coarsest_size: 4,
            ..Default::default()
        };
        let hierarchy = Hierarchy::build(&lap, 0, &tiny, &pool).unwrap();
        let rows = hierarchy.coarsest(&lap).rows();
        assert!(rows <= 4, "coarsest level {rows} rows");
        let opts = MultilevelOptions::default();
        let got =
            smallest_nonzero_eigenpairs_on_hierarchy(&lap, &hierarchy, 8, 1e-9, 1, &opts, &pool);
        assert_eq!(
            got,
            Err(LinalgError::ProblemTooSmall {
                dimension: rows,
                minimum: 11,
            })
        );
    }

    #[test]
    fn rejects_tiny_problems_and_k_zero() {
        let lap = path_laplacian(3);
        assert!(matches!(
            ml_pairs(
                &lap,
                4,
                1e-9,
                0,
                &MultilevelOptions::default(),
                &Pool::default()
            ),
            Err(LinalgError::ProblemTooSmall { .. })
        ));
        assert!(ml_pairs(
            &lap,
            0,
            1e-9,
            0,
            &MultilevelOptions::default(),
            &Pool::default()
        )
        .unwrap()
        .is_empty());
    }
}

#[cfg(test)]
#[path = "kernel_parity.rs"]
mod kernel_parity;
