//! Multilevel (coarsen → project → refine) Fiedler solver.
//!
//! The dense QL path is O(n³) and even the Lanczos shift-invert path runs
//! every inner CG solve on the *full* graph, which makes step 3 of the
//! paper's pipeline the scalability bottleneck. This module implements the
//! classic multilevel scheme from the same relaxation lineage the paper
//! cites (Hall 1970 / Fiedler 1973; popularised for spectral partitioning
//! by Barnard & Simon):
//!
//! 1. **Coarsen** — contract the Laplacian by heavy-edge matching
//!    ([`coarsen_laplacian`]) until the graph has at most
//!    [`MultilevelOptions::coarsest_size`] vertices. The coarse operator is
//!    the Galerkin product `PᵀLP` for the piecewise-constant prolongation
//!    `P`, which is again a combinatorial Laplacian of a weighted graph —
//!    exactly the Section 4 weighted-graph extension.
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
//! Every fallback the solver takes is counted in [`solver_counters`]: a
//! coarsest level too big for the dense path (shift-invert coarse solve,
//! Jacobi-PCG inner solves), a failed V-cycle solve retried with
//! Jacobi-PCG, and a failed warm start.

use crate::cg::CgOptions;
use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::parallel::Pool;
use crate::pcg;
use crate::sparse::CsrMatrix;
use crate::tql;
use crate::vector;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
static WARM_START_FAILURES: AtomicU64 = AtomicU64::new(0);
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
    /// coarse pairs came from shift-invert Lanczos, and the walk's inner
    /// solves ran on Jacobi-PCG for want of a coarse pseudo-inverse.
    pub coarse_fallbacks: u64,
    /// Warm-started refinements ([`refine_warm_started_on`]) that failed;
    /// recursive bisection falls back to the hierarchy solve on each.
    pub warm_start_failures: u64,
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
            warm_start_failures: self.warm_start_failures - earlier.warm_start_failures,
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
        warm_start_failures: WARM_START_FAILURES.load(Ordering::Relaxed),
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
    pub parent: Vec<usize>,
}

/// A full coarsening hierarchy for one Laplacian: the sequence of
/// [`Coarsening`] steps the multilevel solver walks down and back up.
///
/// Building the hierarchy (greedy matching + Galerkin contraction per
/// level) is a fixed cost independent of how many eigensolves run on it.
/// Recursive spectral bisection exploits that through
/// [`Hierarchy::restrict`]: instead of re-matching each half from
/// scratch, the parent hierarchy is **restricted** to the half's vertex
/// set — every matched pair that survives inside the half stays merged,
/// pairs straddling the cut degrade to singletons, and each coarse
/// operator is the Galerkin contraction of the restricted fine operator,
/// so every level remains a genuine Laplacian.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// Fine-to-coarse steps, finest first; `levels[i].coarse` is the
    /// operator level `i + 1` lives on.
    pub levels: Vec<Coarsening>,
}

impl Hierarchy {
    /// Coarsen `laplacian` by heavy-edge matching until a level has at
    /// most `opts.coarsest_size.max(floor)` vertices, matching stalls
    /// (shrink factor below 0.95), or a level would not be
    /// strictly larger than `floor`. Identical, level for level, to what
    /// the eigensolver builds internally — the eigensolver simply calls
    /// this.
    pub fn build(
        laplacian: &CsrMatrix,
        floor: usize,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<Hierarchy, LinalgError> {
        let coarsest_size = opts.coarsest_size.max(floor + 2);
        let mut levels: Vec<Coarsening> = Vec::new();
        let mut current = laplacian;
        while current.rows() > coarsest_size {
            let step = coarsen_laplacian(current, pool)?;
            let shrunk = step.coarse_len() < (current.rows() as f64 * MIN_SHRINK) as usize;
            if !shrunk || step.coarse_len() <= floor {
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

    /// Restrict this hierarchy to an induced sub-problem.
    ///
    /// `vertices` are finest-level vertex indices of this hierarchy (in
    /// the order the sub-problem numbers them — the `ids` returned by
    /// `induced_subgraph`), and `sub` is the sub-problem's own Laplacian
    /// on that numbering. Per level, the parent map is compressed onto
    /// the surviving vertices (distinct coarse ids in ascending order, so
    /// the numbering is deterministic) and the coarse operator is the
    /// Galerkin contraction `PᵀLP` of the restricted fine operator. The
    /// walk stops exactly as [`Hierarchy::build`] does — insufficient
    /// shrink or small enough — and if the parent hierarchy runs out of
    /// levels while the sub-problem is still large, fresh heavy-edge
    /// coarsening extends it.
    ///
    /// Matched pairs are edges of the parent graph, so a pair inside the
    /// sub-problem is still an edge of `sub`; contraction by such pairs
    /// preserves connectivity, which keeps the solver's connected-input
    /// precondition intact for connected sub-problems.
    pub fn restrict(
        &self,
        vertices: &[usize],
        sub: &CsrMatrix,
        floor: usize,
        opts: &MultilevelOptions,
        pool: &Pool,
    ) -> Result<Hierarchy, LinalgError> {
        let coarsest_size = opts.coarsest_size.max(floor + 2);
        let mut levels: Vec<Coarsening> = Vec::new();
        // `ids[i]` = the parent-hierarchy vertex (at the current depth's
        // fine level) that local vertex `i` of the current operator is.
        let mut ids: Vec<usize> = vertices.to_vec();
        let mut current: CsrMatrix = sub.clone();
        for step in &self.levels {
            if current.rows() <= coarsest_size {
                break;
            }
            // Compress the parent map onto the surviving vertices:
            // distinct coarse ids, ascending, become the local numbering.
            let mut coarse_ids: Vec<usize> = ids.iter().map(|&v| step.parent[v]).collect();
            let mut sorted = coarse_ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let rank = |c: usize| sorted.binary_search(&c).expect("own coarse id");
            for c in coarse_ids.iter_mut() {
                *c = rank(*c);
            }
            let local_parent = coarse_ids;
            let coarse_len = sorted.len();
            let shrunk = coarse_len < (current.rows() as f64 * MIN_SHRINK) as usize;
            if !shrunk || coarse_len <= floor {
                break;
            }
            // Galerkin contraction of the *restricted* fine operator by
            // the restricted parent map — same triplet remap as
            // `coarsen_laplacian`, so the result is a Laplacian.
            let coarse = galerkin_contract(&current, &local_parent, coarse_len, pool)?;
            ids = sorted;
            current = coarse.clone();
            levels.push(Coarsening {
                coarse,
                parent: local_parent,
            });
        }
        // Parent hierarchy exhausted but the sub-problem is still big:
        // extend with fresh matching (rare — restricted levels shrink at
        // the parent's rate).
        while current.rows() > coarsest_size {
            let step = coarsen_laplacian(&current, pool)?;
            let shrunk = step.coarse_len() < (current.rows() as f64 * MIN_SHRINK) as usize;
            if !shrunk || step.coarse_len() <= floor {
                break;
            }
            current = step.coarse.clone();
            levels.push(step);
        }
        Ok(Hierarchy { levels })
    }
}

/// Galerkin contraction `PᵀLP` for a piecewise-constant prolongation given
/// by `parent`: every fine triplet `(i, j, v)` lands at
/// `(parent[i], parent[j])` and `from_triplets` sums duplicates, which
/// preserves symmetry and zero row sums exactly. Row-chunked on the pool.
fn galerkin_contract(
    fine: &CsrMatrix,
    parent: &[usize],
    coarse_len: usize,
    pool: &Pool,
) -> Result<CsrMatrix, LinalgError> {
    let n = fine.rows();
    debug_assert_eq!(parent.len(), n);
    let triplets = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for i in lo..hi {
                for (j, v) in fine.row_iter(i) {
                    local.push((parent[i], parent[j], v));
                }
            }
            local
        })
        .concat();
    CsrMatrix::from_triplets(coarse_len, coarse_len, &triplets)
}

impl Coarsening {
    /// Number of coarse vertices.
    pub fn coarse_len(&self) -> usize {
        self.coarse.rows()
    }

    /// Interpolate a coarse-level vector back to the fine level
    /// (piecewise-constant prolongation).
    pub fn prolong(&self, coarse_values: &[f64]) -> Vec<f64> {
        self.parent.iter().map(|&p| coarse_values[p]).collect()
    }
}

/// Contract a Laplacian one level by heavy-edge matching.
///
/// Edges are visited in order of **decreasing weight** (ties broken by the
/// smaller endpoint pair, so the result is deterministic); an edge whose
/// endpoints are both unmatched contracts them into one coarse vertex —
/// the classic greedy ½-approximation of the maximum-weight matching.
/// Vertices left unmatched become singletons. The contracted operator is
/// the Galerkin product `PᵀLP`, computed directly by re-mapping the fine
/// triplets — merged-pair internal edges cancel into the diagonal, and
/// parallel coarse edges sum their weights, preserving Laplacian structure
/// (symmetry and zero row sums) exactly.
///
/// The edge-rating pass (collecting and weighting every undirected edge
/// for the greedy matching) and the Galerkin triplet remap both run
/// row-chunked on `pool`; the matching itself is inherently sequential
/// and stays serial. Chunk order is fixed, so the result is identical for
/// every thread count.
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
    let mut edges: Vec<(f64, usize, usize)> = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for u in lo..hi {
                for (v, entry) in laplacian.row_iter(u) {
                    if v > u && -entry > 0.0 {
                        local.push((-entry, u, v));
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

    const UNMATCHED: usize = usize::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &(_, u, v) in &edges {
        if mate[u] == UNMATCHED && mate[v] == UNMATCHED {
            mate[u] = v;
            mate[v] = u;
        }
    }
    for (u, m) in mate.iter_mut().enumerate() {
        if *m == UNMATCHED {
            *m = u; // singleton
        }
    }

    // Assign coarse ids in order of each pair's smaller endpoint.
    let mut parent = vec![UNMATCHED; n];
    let mut next = 0usize;
    for u in 0..n {
        if parent[u] != UNMATCHED {
            continue;
        }
        parent[u] = next;
        let m = mate[u];
        if m != u {
            parent[m] = next;
        }
        next += 1;
    }

    // Galerkin triplets: every fine entry (i, j, v) lands at
    // (parent[i], parent[j]); from_triplets sums duplicates. Row-chunked
    // remap on the pool (the sort/merge inside from_triplets stays
    // serial).
    let parent_ref = &parent;
    let triplets = pool
        .map_chunks(n, |lo, hi| {
            let mut local = Vec::new();
            for i in lo..hi {
                for (j, v) in laplacian.row_iter(i) {
                    local.push((parent_ref[i], parent_ref[j], v));
                }
            }
            local
        })
        .concat();
    let coarse = CsrMatrix::from_triplets(next, next, &triplets)?;
    Ok(Coarsening { coarse, parent })
}

/// The `k` smallest **nonzero** eigenpairs of a connected Laplacian by the
/// multilevel scheme, ascending: `(λ₂, v₂), …, (λ_{k+1}, v_{k+1})`.
///
/// Each representative is mean-centred, unit-norm and sign-canonicalised,
/// with its eigenvalue refreshed as a Rayleigh quotient against the input
/// Laplacian — the same canonical form the dense and Lanczos paths return.
///
/// Preconditions are the caller's (see [`crate::fiedler::fiedler_pair_on`]):
/// the matrix must be an actual Laplacian of a **connected** graph. The
/// convergence target is `‖Lv − λv‖ ≤ tolerance · max(gershgorin, 1)`,
/// scaled to the matrix magnitude so large weighted graphs converge.
///
/// Every kernel down the call chain (coarsening, smoothing, PCG, matvec)
/// schedules onto `pool`, which alone decides the thread count.
pub fn smallest_nonzero_eigenpairs_on(
    laplacian: &CsrMatrix,
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

    // Small problems skip the hierarchy entirely: the coarse solver *is*
    // the exact dense path.
    let coarsest_size = opts.coarsest_size.max(k + 2);
    if n <= coarsest_size {
        return dense_smallest(laplacian, k);
    }

    // Block width: requested pairs plus guard vectors, capped so the
    // coarsest dense solve can supply them all.
    let block = (k + opts.guard_vectors).min(coarsest_size - 1);

    // --- 1. Coarsen until the graph is small (or matching stalls). ---
    let hierarchy = Hierarchy::build(laplacian, block, opts, pool)?;
    smallest_nonzero_eigenpairs_on_hierarchy(laplacian, &hierarchy, k, tolerance, seed, opts, pool)
}

/// The solve phase of [`smallest_nonzero_eigenpairs_on`] on a prebuilt
/// [`Hierarchy`]: coarsest-level solve, then the prolong + smooth +
/// refine walk back up. Recursive bisection calls this directly with
/// [`Hierarchy::restrict`]ed hierarchies so each half skips re-coarsening.
///
/// The hierarchy must belong to `laplacian` (its first level's parent map
/// is indexed by `laplacian`'s rows); small problems
/// (`n ≤ coarsest_size`) take the exact dense path regardless.
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
    let coarsest_size = opts.coarsest_size.max(k + 2);
    if n <= coarsest_size {
        return dense_smallest(laplacian, k);
    }
    let block = (k + opts.guard_vectors).min(coarsest_size - 1);
    let levels = &hierarchy.levels;

    // --- 2. Solve the coarsest level. ---
    // Matching can stall far above `coarsest_size` (hub/clique-like graphs
    // defeat edge matching); materialising such a level densely would cost
    // O(n²) memory, so past a small multiple of the intended coarsest size
    // the bottom pairs come from shift-invert Lanczos instead.
    //
    // The dense path's full eigendecomposition also yields the coarsest
    // pseudo-inverse the V-cycle preconditioner bottoms out in, built once
    // here for every level's inner solves. Without it (the shift-invert
    // branch) the walk's inner solves fall back to Jacobi-PCG, counted in
    // [`SolverCounters::coarse_fallbacks`].
    let coarsest = levels.last().map_or(laplacian, |c| &c.coarse);
    let dense_cap = coarsest_size.saturating_mul(4);
    let (coarse_pairs, vcycle) = if coarsest.rows() <= dense_cap {
        let eig = tql::symmetric_eigen(&coarsest.to_dense())?;
        let pairs = canonical_pairs(&eig, block)?;
        (
            pairs,
            Some(VCycleSetup::new(laplacian, hierarchy, &eig, pool)),
        )
    } else {
        COARSE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        let pairs = crate::fiedler::smallest_nonzero_eigenpairs_on(
            coarsest,
            block,
            &crate::fiedler::FiedlerOptions {
                // Pinned: the size policy could pick multilevel here and
                // recurse into this same fallback.
                method: Some(crate::fiedler::FiedlerMethod::ShiftInvert),
                tolerance,
                seed,
                ..Default::default()
            },
            pool,
        )?;
        (pairs, None)
    };
    if levels.is_empty() {
        // Matching stalled immediately: the coarse solve already ran on
        // the input itself.
        return Ok(coarse_pairs.into_iter().take(k).collect());
    }
    let mut lambdas: Vec<f64> = coarse_pairs.iter().map(|(l, _)| *l).collect();
    let mut vectors: Vec<Vec<f64>> = coarse_pairs.into_iter().map(|(_, v)| v).collect();

    // --- 3. Walk back up: prolong, then refine at every level. ---
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C0A2_5E00_0000);
    let scale = laplacian.gershgorin_upper_bound().max(1.0);
    let target = tolerance * scale;
    for depth in (0..levels.len()).rev() {
        let step = &levels[depth];
        let fine = if depth == 0 {
            laplacian
        } else {
            &levels[depth - 1].coarse
        };
        for v in &mut vectors {
            *v = prolong_pooled(fine, step, v, pool);
        }
        smooth_block(fine, &mut vectors, &lambdas, SMOOTHING_PASSES, pool);
        let finest = depth == 0;
        let sweeps = if finest {
            opts.max_refine_steps
        } else {
            INTERMEDIATE_STEPS
        };
        // Intermediate levels only chase prolongation error; the finest
        // level must actually hit the convergence target.
        let level_target = if finest { target } else { f64::INFINITY };
        let mut level_vcycle = vcycle.as_ref().map(|setup| setup.at(depth, *pool));
        lambdas = refine_block(
            fine,
            &mut vectors,
            k,
            level_target,
            sweeps,
            level_vcycle.as_mut(),
            &mut rng,
            pool,
        )?;
        if finest {
            let worst = worst_residual(fine, &vectors, &lambdas, k, pool)?;
            if worst > target {
                return Err(LinalgError::NoConvergence {
                    solver: "multilevel",
                    iterations: opts.max_refine_steps,
                    residual: worst,
                    tolerance: target,
                });
            }
        }
    }

    let mut out = Vec::with_capacity(k);
    for (lambda, mut v) in lambdas.into_iter().zip(vectors).take(k) {
        vector::center(&mut v);
        if vector::normalize(&mut v) == 0.0 {
            return Err(LinalgError::NonFiniteInput {
                context: "multilevel: refined eigenvector collapsed",
            });
        }
        vector::canonicalize_sign(&mut v);
        out.push((lambda, v));
    }
    Ok(out)
}

/// Refine the bottom `k` nonzero eigenpairs **directly at the fine
/// level** from caller-supplied warm-start vectors, skipping the coarse
/// hierarchy entirely.
///
/// Recursive bisection uses this to amortise the parent fragment's solve:
/// the parent's refined Fiedler vector restricted to a half is an
/// excellent starting block for the half's own eigenproblem, so the child
/// can skip the coarsest dense solve and the prolong/smooth walk-up. The
/// block is padded to `k + guard_vectors` with seeded random guards, and
/// the convergence target is identical to the hierarchy path's
/// (`tolerance · max(gershgorin, 1)`); if [`MultilevelOptions::max_refine_steps`]
/// sweeps cannot reach it from the supplied guess, the call returns
/// [`LinalgError::NoConvergence`] and the caller should fall back to a
/// full hierarchy solve. Every failure is counted in
/// [`SolverCounters::warm_start_failures`]. With no hierarchy at hand,
/// the inner solves are Jacobi-PCG.
pub fn refine_warm_started_on(
    laplacian: &CsrMatrix,
    warm: &[Vec<f64>],
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
    for w in warm {
        if w.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "multilevel warm start",
                expected: n,
                found: w.len(),
            });
        }
    }
    let block = (k + opts.guard_vectors).max(k).min(n - 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_AA3A_5E00_0001);
    let mut vectors: Vec<Vec<f64>> = warm.iter().take(block).cloned().collect();
    while vectors.len() < block {
        let mut v = vec![0.0; n];
        vector::fill_random(&mut rng, &mut v);
        vectors.push(v);
    }
    let scale = laplacian.gershgorin_upper_bound().max(1.0);
    let target = tolerance * scale;
    let refined = refine_block(
        laplacian,
        &mut vectors,
        k,
        target,
        opts.max_refine_steps,
        None,
        &mut rng,
        pool,
    )
    .and_then(|lambdas| {
        let worst = worst_residual(laplacian, &vectors, &lambdas, k, pool)?;
        if worst > target {
            return Err(LinalgError::NoConvergence {
                solver: "multilevel warm start",
                iterations: opts.max_refine_steps,
                residual: worst,
                tolerance: target,
            });
        }
        Ok(lambdas)
    });
    let lambdas = refined.inspect_err(|_| {
        WARM_START_FAILURES.fetch_add(1, Ordering::Relaxed);
    })?;
    let mut out = Vec::with_capacity(k);
    for (lambda, mut v) in lambdas.into_iter().zip(vectors).take(k) {
        vector::center(&mut v);
        if vector::normalize(&mut v) == 0.0 {
            return Err(LinalgError::NonFiniteInput {
                context: "multilevel warm start: refined eigenvector collapsed",
            });
        }
        vector::canonicalize_sign(&mut v);
        out.push((lambda, v));
    }
    Ok(out)
}

/// [`smallest_nonzero_eigenpairs_on`] specialised to the Fiedler pair.
pub fn fiedler_pair_on(
    laplacian: &CsrMatrix,
    tolerance: f64,
    seed: u64,
    opts: &MultilevelOptions,
    pool: &Pool,
) -> Result<(f64, Vec<f64>), LinalgError> {
    let mut pairs = smallest_nonzero_eigenpairs_on(laplacian, 1, tolerance, seed, opts, pool)?;
    let (lambda, v) = pairs.swap_remove(0);
    Ok((lambda, v))
}

/// Exact bottom-of-spectrum solve via the dense Householder + QL path, in
/// the crate's canonical form (centred, unit, sign-canonical, ascending).
/// Shared with [`crate::fiedler::smallest_nonzero_eigenpairs_on`]'s dense
/// branch so the canonical-form convention lives in exactly one place.
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
    let mut out = Vec::with_capacity(k);
    for i in 1..=k {
        let mut v = eig.eigenvector(i);
        vector::center(&mut v);
        if vector::normalize(&mut v) == 0.0 {
            return Err(LinalgError::NonFiniteInput {
                context: "dense eigensolve: eigenvector collapsed (disconnected graph?)",
            });
        }
        vector::canonicalize_sign(&mut v);
        out.push((eig.eigenvalues[i], v));
    }
    Ok(out)
}

/// Interpolate one coarse-level vector to the fine level on the pool by
/// edge-weight-scaled interpolation: each fine vertex takes the weighted
/// average of its neighbours' aggregate values,
/// `x[v] = Σ_j w_vj · x_c[parent[j]] / Σ_j w_vj`. The injected error is far
/// smoother than piecewise-constant blocks `x_c[parent[v]]`, which cuts
/// the refinement sweeps the finest levels need.
///
/// `fine` is the matrix of the level being prolonged **to** (its row count
/// equals `step.parent.len()`). Elementwise per fine vertex, so bitwise
/// identical for every thread count.
fn prolong_pooled(
    fine: &CsrMatrix,
    step: &Coarsening,
    coarse_values: &[f64],
    pool: &Pool,
) -> Vec<f64> {
    let parent = &step.parent;
    debug_assert_eq!(fine.rows(), parent.len());
    let mut out = vec![0.0; parent.len()];
    pool.for_each_chunk(&mut out, |off, chunk| {
        for (j, o) in chunk.iter_mut().enumerate() {
            let v = off + j;
            let mut num = 0.0;
            let mut den = 0.0;
            for (u, entry) in fine.row_iter(v) {
                if u != v && entry < 0.0 {
                    num += -entry * coarse_values[parent[u]];
                    den += -entry;
                }
            }
            // Isolated vertices (no edges) fall back to injection.
            *o = if den > 0.0 {
                num / den
            } else {
                coarse_values[parent[v]]
            };
        }
    });
    out
}

/// Worst residual `‖Lvᵢ − λᵢvᵢ‖` over the first `k` block vectors.
fn worst_residual(
    laplacian: &CsrMatrix,
    vectors: &[Vec<f64>],
    lambdas: &[f64],
    k: usize,
    pool: &Pool,
) -> Result<f64, LinalgError> {
    let n = laplacian.rows();
    let mut worst = 0.0f64;
    let mut r = vec![0.0; n];
    for i in 0..k {
        if vectors[i].len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "multilevel worst_residual",
                expected: n,
                found: vectors[i].len(),
            });
        }
        pool.matvec_into(laplacian, &vectors[i], &mut r);
        pool.axpy(-lambdas[i], &vectors[i], &mut r);
        worst = worst.max(pool.norm2(&r));
    }
    Ok(worst)
}

/// Damp the high-frequency component of freshly-prolonged vectors with a
/// few weighted-Jacobi passes on `(L − θI)v`: eigencomponents near θ are
/// preserved while the blocky interpolation error (which lives at the top
/// of the spectrum) shrinks by a constant factor per pass, at one matvec
/// each. Row-parallel on the pool; thread count never changes the result.
fn smooth_block(
    laplacian: &CsrMatrix,
    vectors: &mut [Vec<f64>],
    lambdas: &[f64],
    passes: usize,
    pool: &Pool,
) {
    if passes == 0 {
        return;
    }
    let n = laplacian.rows();
    let mut inv_diag = vec![0.0; n];
    pool.for_each_chunk(&mut inv_diag, |row0, chunk| {
        for (j, d) in chunk.iter_mut().enumerate() {
            let v = laplacian.get(row0 + j, row0 + j);
            *d = if v > 0.0 { 1.0 / v } else { 0.0 };
        }
    });
    const OMEGA: f64 = 0.7;
    let mut r = vec![0.0; n];
    for (v, &theta) in vectors.iter_mut().zip(lambdas) {
        for _ in 0..passes {
            pool.matvec_into(laplacian, v, &mut r);
            pool.axpy(-theta, v, &mut r);
            // Level-1 elementwise update — light engagement threshold.
            pool.for_each_chunk_light(v, |off, chunk| {
                for (j, vi) in chunk.iter_mut().enumerate() {
                    *vi -= OMEGA * r[off + j] * inv_diag[off + j];
                }
            });
        }
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
/// same `P` that defines the coarse operators. Restriction by `Pᵀ` is a
/// gather over each aggregate's members in ascending vertex order, so
/// every coarse entry is summed in one fixed order at any thread count.
struct VCycleSetup<'a> {
    /// `A_l` for every level, finest first, the coarsest last.
    operators: Vec<&'a CsrMatrix>,
    /// Per non-coarsest level: `ω / diag(A_l)` (zero on empty rows).
    damped_inv_diag: Vec<Vec<f64>>,
    /// The hierarchy's coarsenings: level `l`'s fine → coarse map is
    /// `levels[l].parent`.
    levels: &'a [Coarsening],
    /// Per non-coarsest level: aggregate `c`'s members are
    /// `members[start[c]..start[c + 1]]`, ascending.
    member_starts: Vec<Vec<usize>>,
    members: Vec<Vec<usize>>,
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
            .map(|a| {
                let mut d = vec![0.0; a.rows()];
                pool.for_each_chunk(&mut d, |row0, chunk| {
                    for (j, dj) in chunk.iter_mut().enumerate() {
                        let v = a.get(row0 + j, row0 + j);
                        *dj = if v > 0.0 { VCYCLE_OMEGA / v } else { 0.0 };
                    }
                });
                d
            })
            .collect();
        let (member_starts, members) = hierarchy
            .levels
            .iter()
            .map(|c| {
                // Counting sort by aggregate: stable, so members ascend.
                let mut start = vec![0usize; c.coarse_len() + 1];
                for &p in &c.parent {
                    start[p + 1] += 1;
                }
                for i in 0..c.coarse_len() {
                    start[i + 1] += start[i];
                }
                let mut next = start.clone();
                let mut members = vec![0usize; c.parent.len()];
                for (v, &p) in c.parent.iter().enumerate() {
                    members[next[p]] = v;
                    next[p] += 1;
                }
                (start, members)
            })
            .unzip();
        VCycleSetup {
            operators,
            damped_inv_diag,
            levels: &hierarchy.levels,
            member_starts,
            members,
            coarse_pinv: deflated_pseudo_inverse(eig),
        }
    }

    /// The V-cycle preconditioner for level `depth`'s operator, with one
    /// workspace per level below it.
    fn at<'s, 'p>(&'s self, depth: usize, pool: Pool<'p>) -> VCycle<'s, 'p> {
        let work = (depth..self.levels.len())
            .map(|l| {
                let coarse = self.operators[l + 1].rows();
                LevelWork {
                    residual: vec![0.0; self.operators[l].rows()],
                    coarse_rhs: vec![0.0; coarse],
                    coarse_x: vec![0.0; coarse],
                }
            })
            .collect();
        VCycle {
            setup: self,
            depth,
            work,
            pool,
        }
    }

    /// `x ← B_l rhs` for the V-cycle `B_l` rooted at `level`; `work` holds
    /// the workspaces of `level` and every level below it.
    fn cycle(&self, level: usize, rhs: &[f64], x: &mut [f64], work: &mut [LevelWork], pool: &Pool) {
        let Some((w, deeper)) = work.split_first_mut() else {
            let n = rhs.len();
            let pinv = &self.coarse_pinv;
            pool.for_each_chunk(x, |row0, chunk| {
                for (j, xi) in chunk.iter_mut().enumerate() {
                    *xi = vector::dot(&pinv[(row0 + j) * n..(row0 + j + 1) * n], rhs);
                }
            });
            return;
        };
        let a = self.operators[level];
        let d = &self.damped_inv_diag[level];
        let parent = &self.levels[level].parent;
        let (start, members) = (&self.member_starts[level], &self.members[level]);
        // Pre-smoothing from a zero guess: x = ωD⁻¹ rhs.
        pool.for_each_chunk_light(x, |off, chunk| {
            for (j, xi) in chunk.iter_mut().enumerate() {
                *xi = d[off + j] * rhs[off + j];
            }
        });
        residual_into(a, rhs, x, &mut w.residual, pool);
        // Restriction Pᵀ: gather each aggregate's residuals in member order.
        let residual = &w.residual;
        pool.for_each_chunk_light(&mut w.coarse_rhs, |off, chunk| {
            for (j, ci) in chunk.iter_mut().enumerate() {
                let c = off + j;
                // xtask:allow(float-reduce): serial fold over one aggregate's members, ascending
                *ci = members[start[c]..start[c + 1]]
                    .iter()
                    .map(|&v| residual[v])
                    .sum();
            }
        });
        self.cycle(level + 1, &w.coarse_rhs, &mut w.coarse_x, deeper, pool);
        // Over-corrected prolongation: x += γ P x_c.
        let coarse_x = &w.coarse_x;
        pool.for_each_chunk_light(x, |off, chunk| {
            for (j, xi) in chunk.iter_mut().enumerate() {
                *xi += VCYCLE_OVERCORRECTION * coarse_x[parent[off + j]];
            }
        });
        // Post-smoothing: x += ωD⁻¹ (rhs − A x).
        residual_into(a, rhs, x, &mut w.residual, pool);
        let residual = &w.residual;
        pool.for_each_chunk_light(x, |off, chunk| {
            for (j, xi) in chunk.iter_mut().enumerate() {
                *xi += d[off + j] * residual[off + j];
            }
        });
    }
}

/// `out = rhs − A x`, row-chunked on the pool (one fused pass per row).
fn residual_into(a: &CsrMatrix, rhs: &[f64], x: &[f64], out: &mut [f64], pool: &Pool) {
    pool.for_each_chunk(out, |row0, chunk| {
        a.matvec_rows_into(row0, x, chunk);
        for (j, o) in chunk.iter_mut().enumerate() {
            *o = rhs[row0 + j] - *o;
        }
    });
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

/// One level's V-cycle workspace: the fine residual plus the coarse
/// right-hand side and correction of the level below.
struct LevelWork {
    residual: Vec<f64>,
    coarse_rhs: Vec<f64>,
    coarse_x: Vec<f64>,
}

/// The symmetric aggregation V-cycle rooted at one level of a
/// [`VCycleSetup`]: per level one weighted-Jacobi pre- and post-smoothing
/// sweep around an over-corrected coarse correction, and the dense
/// pseudo-inverse on the coarsest level. As a linear map it is
/// `2S − SAS + γ(I − SA)P B_c Pᵀ(I − AS)` with `S = ωD⁻¹` and `B_c` the
/// next level's cycle — symmetric, and positive definite because
/// `ω·ρ(D⁻¹A) < 2`.
struct VCycle<'s, 'p> {
    setup: &'s VCycleSetup<'s>,
    depth: usize,
    work: Vec<LevelWork>,
    pool: Pool<'p>,
}

impl pcg::Preconditioner for VCycle<'_, '_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64]) {
        self.setup
            .cycle(self.depth, r, z, &mut self.work, &self.pool);
    }
}

/// Block inverse iteration with per-sweep Rayleigh–Ritz projection.
///
/// Refines `vectors` in place towards the bottom nonzero eigenspace of
/// `laplacian` and returns the Ritz values (ascending, aligned with the
/// block). Stops early once the first `k` residuals are below `target`.
///
/// Each sweep: (a) centre + orthonormalise the block, (b) Rayleigh–Ritz on
/// the b-dimensional subspace, (c) one warm-started inverse-iteration
/// correction per vector — solve `L d = v − Lv/θ` with PCG and set
/// `v ← v/θ + d`, which equals the inverse-iteration update `L⁻¹v` but
/// hands the solver a right-hand side that shrinks with the eigen-residual.
///
/// The inner solves are preconditioned by `vcycle`, or by Jacobi without
/// one (the warm start, which has no hierarchy, and walks whose coarsest
/// level was too big for a dense pseudo-inverse). A V-cycle solve that
/// fails with [`LinalgError::NotPositiveDefinite`] or
/// [`LinalgError::NoConvergence`] is retried with Jacobi-PCG and counted
/// in [`SolverCounters::vcycle_retries`]. A finite `target` marks the
/// finest level, whose inner solves and PCG iterations are counted too.
#[allow(clippy::too_many_arguments)]
fn refine_block(
    laplacian: &CsrMatrix,
    vectors: &mut [Vec<f64>],
    k: usize,
    target: f64,
    sweeps: usize,
    mut vcycle: Option<&mut VCycle<'_, '_>>,
    rng: &mut StdRng,
    pool: &Pool,
) -> Result<Vec<f64>, LinalgError> {
    let n = laplacian.rows();
    let b = vectors.len();
    let cg_opts = CgOptions {
        tolerance: INNER_TOLERANCE,
        max_iterations: None,
        deflate_mean: true,
    };
    let mut lambdas = vec![0.0; b];
    for sweep in 0..sweeps.max(1) {
        orthonormalize(vectors, rng, pool);

        // Rayleigh–Ritz: T = VᵀLV, rotate V by T's eigenbasis.
        let lv: Vec<Vec<f64>> = vectors
            .iter()
            .map(|v| {
                let mut y = vec![0.0; n];
                pool.matvec_into(laplacian, v, &mut y);
                y
            })
            .collect();
        let mut t = DenseMatrix::zeros(b, b);
        for i in 0..b {
            for j in i..b {
                let e = pool.dot(&vectors[i], &lv[j]);
                t.set(i, j, e);
                t.set(j, i, e);
            }
        }
        let ritz = tql::symmetric_eigen(&t)?;
        let rotated = rotate(vectors, &ritz, pool);
        let rotated_lv = rotate(&lv, &ritz, pool);
        for (dst, src) in vectors.iter_mut().zip(rotated) {
            *dst = src;
        }
        lambdas.copy_from_slice(&ritz.eigenvalues);

        // Residuals of the whole block (we have LV for free); convergence
        // is gated on the k wanted pairs only.
        let mut residuals = vec![0.0f64; b];
        for i in 0..b {
            let mut r = rotated_lv[i].clone();
            pool.axpy(-lambdas[i], &vectors[i], &mut r);
            residuals[i] = pool.norm2(&r);
        }
        let worst = residuals[..k].iter().cloned().fold(0.0f64, f64::max);
        // With a finite target this is a convergence check; on intermediate
        // levels (infinite target) every sweep but the last runs its
        // correction, and the trailing Rayleigh–Ritz still leaves the block
        // orthonormal for prolongation.
        if (target.is_finite() && worst <= target) || sweep + 1 == sweeps {
            break;
        }

        // Inverse-iteration correction per block vector, skipping (locking)
        // vectors already well below the convergence target — typically the
        // wanted pairs, whose spectral gaps are widest, leaving only the
        // guard vectors to pay for solves in late sweeps.
        let lock_below = if target.is_finite() {
            0.3 * target
        } else {
            0.0
        };
        for (i, v) in vectors.iter_mut().enumerate() {
            if residuals[i] <= lock_below {
                continue;
            }
            let theta = lambdas[i];
            if !(theta.is_finite() && theta > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { curvature: theta });
            }
            // rhs = v − Lv/θ has norm ‖residual‖/θ, so the relative PCG
            // tolerance tightens automatically as the pair converges.
            let mut rhs = rotated_lv[i].clone();
            pool.scale(-1.0 / theta, &mut rhs);
            pool.axpy(1.0, v, &mut rhs);
            // The inner solve inherits this pool — nested kernels must
            // never fall back to per-call scoped spawns.
            let correction = match vcycle.as_deref_mut() {
                Some(vcycle) => match pcg::solve_on(laplacian, &rhs, &cg_opts, vcycle, *pool) {
                    Ok(out) => out,
                    Err(
                        LinalgError::NotPositiveDefinite { .. } | LinalgError::NoConvergence { .. },
                    ) => {
                        VCYCLE_RETRIES.fetch_add(1, Ordering::Relaxed);
                        pcg::solve_jacobi_on(laplacian, &rhs, &cg_opts, *pool)?
                    }
                    Err(e) => return Err(e),
                },
                None => pcg::solve_jacobi_on(laplacian, &rhs, &cg_opts, *pool)?,
            };
            if target.is_finite() {
                FINEST_SOLVES.fetch_add(1, Ordering::Relaxed);
                FINEST_ITERATIONS.fetch_add(correction.iterations as u64, Ordering::Relaxed);
            }
            let mut x = correction.solution;
            pool.axpy(1.0 / theta, v, &mut x);
            *v = x;
        }
    }
    Ok(lambdas)
}

/// Centre every block vector and orthonormalise with modified Gram–Schmidt,
/// replacing any collapsed vector by a fresh seeded random direction.
/// Runs the dots/axpys on the pool (bitwise equal to serial).
fn orthonormalize(vectors: &mut [Vec<f64>], rng: &mut StdRng, pool: &Pool) {
    for i in 0..vectors.len() {
        let mut attempts = 0;
        loop {
            let (done, rest) = vectors.split_at_mut(i);
            let v = &mut rest[0];
            pool.center(v);
            for q in done.iter() {
                let c = pool.dot(q, v);
                pool.axpy(-c, q, v);
            }
            let norm = pool.norm2(v);
            if norm > 1e-10 {
                pool.scale(1.0 / norm, v);
                break;
            }
            if attempts >= 4 {
                if norm > 0.0 {
                    pool.scale(1.0 / norm, v);
                }
                break;
            }
            vector::fill_random(rng, v);
            attempts += 1;
        }
    }
}

/// `V · Y` for the Ritz rotation `Y` (eigenvectors of the projected
/// operator, ascending). Axpys run on the pool.
fn rotate(vectors: &[Vec<f64>], ritz: &tql::SymmetricEigen, pool: &Pool) -> Vec<Vec<f64>> {
    let b = vectors.len();
    let n = vectors[0].len();
    let mut out = vec![vec![0.0; n]; b];
    for (col, dst) in out.iter_mut().enumerate() {
        let y = ritz.eigenvector(col);
        for (j, vj) in vectors.iter().enumerate() {
            pool.axpy(y[j], vj, dst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(c.coarse_len() <= 40, "coarse size {}", c.coarse_len());
        assert!(c.coarse_len() >= 16);
        // Still symmetric with zero row sums.
        c.coarse.require_symmetric(1e-12).unwrap();
        for s in c.coarse.row_sums() {
            assert!(s.abs() < 1e-12);
        }
        // Every fine vertex has a parent in range; groups have size ≤ 2.
        let mut count = vec![0usize; c.coarse_len()];
        for &p in &c.parent {
            count[p] += 1;
        }
        assert!(count.iter().all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn coarsening_is_galerkin_product() {
        // The contracted operator must satisfy (PᵀLP)x = Pᵀ(L(Px)) for any
        // coarse vector x.
        let lap = grid_laplacian(5, 4);
        let c = coarsen_laplacian(&lap, &Pool::default()).unwrap();
        let nc = c.coarse_len();
        let x: Vec<f64> = (0..nc).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let px = c.prolong(&x);
        let lpx = lap.matvec(&px).unwrap();
        let mut ptlpx = vec![0.0; nc];
        for (v, &p) in c.parent.iter().enumerate() {
            ptlpx[p] += lpx[v];
        }
        let direct = c.coarse.matvec(&x).unwrap();
        for i in 0..nc {
            assert!(
                (ptlpx[i] - direct[i]).abs() < 1e-10,
                "coarse row {i}: {} vs {}",
                ptlpx[i],
                direct[i]
            );
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
        let (lambda, v) = fiedler_pair_on(&lap, 1e-9, 7, &opts, &Pool::default()).unwrap();
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
        let (lambda, v) = fiedler_pair_on(&lap, 1e-9, 7, &opts, &Pool::default()).unwrap();
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
        let ml =
            smallest_nonzero_eigenpairs_on(&lap, 3, 1e-10, 1, &opts, &Pool::default()).unwrap();
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
        let (lambda, v) = fiedler_pair_on(
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
        // must route the coarse solve through shift-invert Lanczos instead
        // of materialising an O(n²) dense matrix. λ₂ of a star is 1.
        let n = 1500; // > 4 × default coarsest_size
        let mut t = Vec::new();
        for i in 1..n {
            t.push((0, i, -1.0));
            t.push((i, 0, -1.0));
            t.push((i, i, 1.0));
        }
        t.push((0, 0, (n - 1) as f64));
        let lap = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let (lambda, v) = fiedler_pair_on(
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
        let a =
            smallest_nonzero_eigenpairs_on(&lap, 2, 1e-10, 42, &opts, &Pool::default()).unwrap();
        let b =
            smallest_nonzero_eigenpairs_on(&lap, 2, 1e-10, 42, &opts, &Pool::default()).unwrap();
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
        let lap = grid_laplacian(150, 140); // 21,000 vertices > SPAWN_MIN
        let run = |threads: usize| {
            let opts = MultilevelOptions::default();
            smallest_nonzero_eigenpairs_on(&lap, 2, 1e-8, 11, &opts, &Pool::new(Some(threads)))
                .unwrap()
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
        let lap = grid_laplacian(160, 160); // 25,600 vertices > SPAWN_MIN
        let serial = coarsen_laplacian(&lap, &Pool::serial()).unwrap();
        for threads in [2usize, 4] {
            let par = coarsen_laplacian(&lap, &Pool::new(Some(threads))).unwrap();
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
        let mut pc: Vec<f64> = step.parent.iter().map(|&c| coarse_v[c]).collect();
        let mut wt = prolong_pooled(&lap, &step, coarse_v, &Pool::serial());
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
            ("grid 160x120", grid_laplacian(160, 120)),
            ("holey 176x128", holey_grid_laplacian(176, 128, 16, 5)),
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
                pcg::Preconditioner::apply(&mut vcycle, r, &mut z);
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
                let par = apply_vcycle(&lap, &xs, Pool::new(Some(threads)));
                assert_eq!(par, serial, "{name}: threads={threads}");
            }
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
            let vc = pcg::solve_on(&lap, b, &opts, &mut setup.at(0, pool), pool).unwrap();
            let jac = pcg::solve_jacobi_on(&lap, b, &opts, pool).unwrap();
            assert!(
                vc.iterations * 5 < jac.iterations,
                "{name}: v-cycle {} vs jacobi {} iterations",
                vc.iterations,
                jac.iterations
            );
            let mut diff = vc.solution.clone();
            vector::axpy(-1.0, &jac.solution, &mut diff);
            assert!(vector::norm2(&diff) <= 1e-6 * vector::norm2(&jac.solution));
        }
    }

    #[test]
    fn rejects_tiny_problems_and_k_zero() {
        let lap = path_laplacian(3);
        assert!(matches!(
            smallest_nonzero_eigenpairs_on(
                &lap,
                4,
                1e-9,
                0,
                &MultilevelOptions::default(),
                &Pool::default()
            ),
            Err(LinalgError::ProblemTooSmall { .. })
        ));
        assert!(smallest_nonzero_eigenpairs_on(
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
