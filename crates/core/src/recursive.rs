//! Alternative spectral orderings: recursive spectral bisection and
//! multi-vector orders.
//!
//! The paper orders points by a *single* Fiedler vector. Two classic
//! refinements matter in practice and make good ablations:
//!
//! * **Recursive spectral bisection (RSB)** — split the vertex set at the
//!   Fiedler vector's median (the optimal-bisection result of Chan, Ciarlet
//!   & Szeto that the paper cites as \[1\]), lay out the two halves
//!   contiguously, and recurse within each half on its induced subgraph.
//!   This re-optimises *within* each half instead of trusting one global
//!   vector's fine structure.
//! * **Multi-vector order** — sort by `v₂`, break (near-)ties by `v₃`, then
//!   `v₄`, … On degenerate spaces (square grids!) λ₂ has multiplicity > 1
//!   and a single vector leaves whole hyperplanes tied, with the arbitrary
//!   index tie-break doing the real work; later eigenvectors resolve those
//!   ties spectrally.

use crate::mapper::{MappingError, SpectralConfig};
use crate::order::{for_each_snapped_group, LinearOrder};
use slpm_graph::{traversal, Graph};
use slpm_linalg::fiedler::{fiedler_pair_on, smallest_nonzero_eigenpairs_on, FiedlerMethod};
use slpm_linalg::{CsrMatrix, MultilevelOptions, Pool};

/// Options for recursive spectral bisection.
#[derive(Debug, Clone)]
pub struct RsbOptions {
    /// Stop recursing below this many vertices; the base case keeps the
    /// single-vector spectral order of the fragment.
    pub leaf_size: usize,
    /// Eigensolver configuration shared by all levels.
    pub config: SpectralConfig,
}

impl Default for RsbOptions {
    fn default() -> Self {
        RsbOptions {
            leaf_size: 8,
            config: SpectralConfig::default(),
        }
    }
}

/// Recursive-spectral-bisection order of a connected graph on `pool`:
/// every eigensolve of the recursion — and every kernel inside those
/// solves — schedules onto it.
pub fn rsb_order_on(
    graph: &Graph,
    opts: &RsbOptions,
    pool: &Pool<'_>,
) -> Result<LinearOrder, MappingError> {
    graph.require_connected()?;
    let n = graph.num_vertices();
    let mut rank = vec![0usize; n];
    let vertices: Vec<usize> = (0..n).collect();
    let mut next_position = 0usize;
    place(graph, &vertices, opts, pool, &mut rank, &mut next_position)?;
    debug_assert_eq!(next_position, n);
    Ok(LinearOrder::from_ranks(rank).expect("RSB assigns each position once"))
}

/// Residual tolerance floor for multilevel fragment solves (see
/// [`fragment_fiedler_vector`]): comfortably above the round-off floor of
/// the block refinement, and tight enough that the eigenvector mixture a
/// near-degenerate fragment leaves sits under the snap window of
/// [`fragment_order`], so the median membership is a property of the
/// eigenvector rather than of how far its solve went.
const RSB_FRAGMENT_TOLERANCE: f64 = 1e-11;

/// The block width every RSB multilevel solve uses: `k = 1` Fiedler pair
/// plus the guard vectors, exactly what
/// `multilevel::smallest_nonzero_eigenpairs_on` computes internally.
fn rsb_block(ml: &MultilevelOptions) -> usize {
    (1 + ml.guard_vectors).min(ml.coarsest_size.max(3) - 1)
}

/// The Fiedler vector of a connected fragment under the size policy, with
/// multilevel solves refined to [`RSB_FRAGMENT_TOLERANCE`] and fragments
/// the multilevel driver would solve densely handed to the size policy
/// directly.
fn fragment_fiedler_vector(
    sub_laplacian: &CsrMatrix,
    opts: &RsbOptions,
    pool: &Pool<'_>,
) -> Result<Vec<f64>, MappingError> {
    let mut fo = opts.config.resolved_fiedler(sub_laplacian.rows());
    if fo.method == Some(FiedlerMethod::Multilevel) {
        // RSB only consumes the *median membership* of each fragment
        // vector. At the default 1e-9 a near-degenerate fragment leaves an
        // eigenvector mixture of order residual/(λ₃−λ₂) that can flip
        // vertices across the median; refining well below it shrinks the
        // mixture under the snap window of `fragment_order`.
        fo.tolerance = fo.tolerance.min(RSB_FRAGMENT_TOLERANCE);
        // Fragments at or below the multilevel coarsest size are solved
        // exactly by the size policy: dense up to `DENSE_MAX` vertices,
        // and the multilevel driver's own dense path above it.
        let n = sub_laplacian.rows();
        let dense_cutoff = fo
            .multilevel
            .coarsest_size
            .max(rsb_block(&fo.multilevel) + 2);
        if n <= dense_cutoff {
            fo.method = Some(FiedlerMethod::for_size(n));
        }
    }
    Ok(fiedler_pair_on(sub_laplacian, &fo, pool)?.vector)
}

/// Snap a fragment's Fiedler values into a rank order the same way the
/// direct mapper does: values that agree up to solver round-off share a
/// key, so ties break by the documented vertex-index rule instead of by
/// noise, and changes to the solver below its convergence tolerance
/// leave the order as it is.
fn fragment_order(vector: &[f64]) -> LinearOrder {
    let max_abs = vector.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    LinearOrder::from_keys_snapped(vector, max_abs * 1e-7).expect("finite eigenvector")
}

/// Sign-stabilise a fragment vector before ordering. The solver's own
/// canonical sign keys off the first entry within `1e-9` of the maximum
/// magnitude — but fragment Fiedler vectors are near-antisymmetric, so
/// whole plateaus of *both* signs sit at ±max separated only by solver
/// round-off, and a sub-tolerance change to the refinement can flip which
/// plateau wins. A sign flip is not absorbed by [`orient`]: reversing a
/// snapped order keeps each tie group ascending by vertex index, so
/// `order(-v)` reversed is *not* `order(v)`. Keying the sign off the first
/// entry that clears a coarse threshold (`1e-3` of the max, far above
/// round-off, far below the plateau spacing) is invariant to those
/// perturbations, making the ordered direction a stable function of the
/// eigenvector's line rather than of solver noise.
fn stabilize_sign(v: &mut [f64]) {
    let max_abs = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if max_abs == 0.0 {
        return;
    }
    let threshold = max_abs * 1e-3;
    if let Some(first) = v.iter().find(|x| x.abs() >= threshold) {
        if *first < 0.0 {
            for x in v.iter_mut() {
                *x = -*x;
            }
        }
    }
}

/// Recursively lay out `vertices` (ids in the *original* graph) starting at
/// `*next_position`.
fn place(
    original: &Graph,
    vertices: &[usize],
    opts: &RsbOptions,
    pool: &Pool<'_>,
    rank: &mut [usize],
    next_position: &mut usize,
) -> Result<(), MappingError> {
    if vertices.is_empty() {
        return Ok(());
    }
    let sub = original
        .induced_subgraph(vertices)
        .expect("vertex lists are deduplicated by construction");

    // Disconnected fragments (possible after a median cut): lay out each
    // component in discovery order.
    let comps = traversal::connected_components(&sub);
    let num_comps = comps.iter().copied().max().map_or(0, |m| m + 1);
    if num_comps > 1 {
        for c in 0..num_comps {
            let part: Vec<usize> = vertices
                .iter()
                .zip(&comps)
                .filter(|&(_, &cc)| cc == c)
                .map(|(&v, _)| v)
                .collect();
            place(original, &part, opts, pool, rank, next_position)?;
        }
        return Ok(());
    }

    if vertices.len() <= opts.leaf_size.max(2) {
        // Base case: single-vector spectral order of the fragment (or the
        // trivial order for fragments the eigensolver is too small for).
        let local = if sub.num_vertices() >= 2 && sub.num_edges() >= 1 {
            let mut v = fragment_fiedler_vector(&sub.into_laplacian(), opts, pool)?;
            stabilize_sign(&mut v);
            orient(fragment_order(&v))
        } else {
            LinearOrder::identity(sub.num_vertices())
        };
        for p in 0..local.len() {
            rank[vertices[local.vertex_at(p)]] = *next_position;
            *next_position += 1;
        }
        return Ok(());
    }

    // Median cut on the Fiedler vector (Chan–Ciarlet–Szeto optimal
    // bisection point).
    let mut v = fragment_fiedler_vector(&sub.into_laplacian(), opts, pool)?;
    stabilize_sign(&mut v);
    let local = orient(fragment_order(&v));
    let half = vertices.len() / 2;
    let low: Vec<usize> = (0..half).map(|p| vertices[local.vertex_at(p)]).collect();
    let high: Vec<usize> = (half..vertices.len())
        .map(|p| vertices[local.vertex_at(p)])
        .collect();
    place(original, &low, opts, pool, rank, next_position)?;
    place(original, &high, opts, pool, rank, next_position)
}

/// Orient a fragment's local order to follow the direction its vertices
/// arrived in (the parent's order): eigenvectors are sign-ambiguous, and
/// without this each recursion level could flip direction, creating a jump
/// at every junction between siblings.
fn orient(local: LinearOrder) -> LinearOrder {
    let n = local.len() as f64;
    let mean = (n - 1.0) / 2.0;
    // Correlation of local rank against incoming index (0, 1, 2, …).
    let corr: f64 = (0..local.len())
        .map(|i| (i as f64 - mean) * (local.rank_of(i) as f64 - mean))
        .sum();
    if corr < 0.0 {
        local.reversed()
    } else {
        local
    }
}

/// Multi-vector spectral order: sort by `v₂`, breaking ties (within
/// `tie_epsilon`) by `v₃`, then `v₄`, … using `num_vectors` eigenvectors
/// computed on `pool`. Ties are groups anchored at their first key, as in
/// [`LinearOrder::from_keys_snapped`], so the result is a total order;
/// the last ties fall to vertex index.
pub fn multi_vector_order_on(
    graph: &Graph,
    num_vectors: usize,
    tie_epsilon: f64,
    config: &SpectralConfig,
    pool: &Pool<'_>,
) -> Result<LinearOrder, MappingError> {
    graph.require_connected()?;
    let pairs =
        smallest_nonzero_eigenpairs_on(&graph.laplacian(), num_vectors, &config.fiedler, pool)?;
    let n = graph.num_vertices();
    let vectors: Vec<&[f64]> = pairs.iter().map(|(_, v)| v.as_slice()).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    sort_snapped(&mut perm, &vectors, tie_epsilon);
    let mut rank = vec![0usize; n];
    for (p, &v) in perm.iter().enumerate() {
        rank[v] = p;
    }
    Ok(LinearOrder::from_ranks(rank).expect("permutation by construction"))
}

/// Sort `group` by the first of `vectors`, cut it into tie groups
/// anchored within `tie_epsilon` of each group's first key, and order each
/// group by the remaining vectors the same way; ties left after the last
/// vector fall to vertex index. Anchoring (rather than comparing pairs
/// within a tolerance, which is not transitive) keeps this a total order.
fn sort_snapped(group: &mut [usize], vectors: &[&[f64]], tie_epsilon: f64) {
    let Some((keys, rest)) = vectors.split_first() else {
        group.sort_unstable();
        return;
    };
    group.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
    for_each_snapped_group(group, keys, tie_epsilon, |tied| {
        sort_snapped(tied, rest, tie_epsilon)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective;
    use slpm_graph::grid::{Connectivity, GridSpec};

    fn grid(side: usize) -> (GridSpec, Graph) {
        let spec = GridSpec::cube(side, 2);
        let g = spec.graph(Connectivity::Orthogonal);
        (spec, g)
    }

    #[test]
    fn rsb_is_a_permutation() {
        let (_, g) = grid(6);
        let order = rsb_order_on(&g, &RsbOptions::default(), &Pool::default()).unwrap();
        let mut seen = [false; 36];
        for v in 0..36 {
            let p = order.rank_of(v);
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn rsb_on_path_recovers_path() {
        let g = Graph::from_edges(12, (1..12).map(|i| (i - 1, i, 1.0))).unwrap();
        let order = rsb_order_on(&g, &RsbOptions::default(), &Pool::default()).unwrap();
        let fwd: Vec<usize> = (0..12).collect();
        let bwd: Vec<usize> = (0..12).rev().collect();
        assert!(
            order.ranks() == fwd.as_slice() || order.ranks() == bwd.as_slice(),
            "got {:?}",
            order.ranks()
        );
    }

    #[test]
    fn rsb_rejects_disconnected() {
        let g = Graph::from_edges(4, []).unwrap();
        assert!(rsb_order_on(&g, &RsbOptions::default(), &Pool::default()).is_err());
    }

    #[test]
    fn rsb_quality_is_comparable_to_direct_spectral() {
        // RSB optimises *cuts* level by level, not the global 2-sum: the
        // contiguous layout of the two halves makes every cut edge span
        // ~n/2 positions, so its 2-sum is necessarily above the direct
        // spectral order's (which minimises the relaxation of exactly that
        // objective). It must still be within an order of magnitude, and
        // far below a pessimal scramble.
        let (_, g) = grid(8);
        let direct = crate::mapper::SpectralMapper::new(SpectralConfig::default())
            .map_graph_on(&g, &Pool::default())
            .unwrap()
            .order;
        let rsb = rsb_order_on(&g, &RsbOptions::default(), &Pool::default()).unwrap();
        let c_direct = objective::two_sum_cost(&g, &direct);
        let c_rsb = objective::two_sum_cost(&g, &rsb);
        assert!(
            c_rsb < 8.0 * c_direct,
            "RSB 2-sum {c_rsb} vs direct {c_direct}"
        );
        // Bit-interleave scramble as the pessimal comparison.
        let scramble =
            LinearOrder::from_ranks((0..64).map(|v: usize| (v * 37) % 64).collect()).unwrap();
        assert!(c_rsb < objective::two_sum_cost(&g, &scramble));
    }

    #[test]
    fn multi_vector_resolves_square_grid_ties() {
        // On a square grid the single-vector order has massive value ties;
        // v₃ resolves them. The multi-vector order must be a permutation
        // and must differ from the single-vector order's index tie-break.
        let (_, g) = grid(4);
        let single = crate::mapper::SpectralMapper::new(SpectralConfig::default())
            .map_graph_on(&g, &Pool::default())
            .unwrap()
            .order;
        let multi =
            multi_vector_order_on(&g, 3, 1e-8, &SpectralConfig::default(), &Pool::default())
                .unwrap();
        let mut seen = vec![false; 16];
        for v in 0..16 {
            seen[multi.rank_of(v)] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        // They need not be equal; on degenerate grids they usually differ.
        let _ = single;
    }

    #[test]
    fn multi_vector_with_one_vector_matches_fiedler_order_on_path() {
        let g = Graph::from_edges(9, (1..9).map(|i| (i - 1, i, 1.0))).unwrap();
        let single = crate::mapper::SpectralMapper::new(SpectralConfig::default())
            .map_graph_on(&g, &Pool::default())
            .unwrap()
            .order;
        let multi =
            multi_vector_order_on(&g, 1, 1e-12, &SpectralConfig::default(), &Pool::default())
                .unwrap();
        assert_eq!(single.ranks(), multi.ranks());
    }

    /// FNV-1a over the ranks, each hashed as a little-endian `u64`.
    fn rank_digest(order: &LinearOrder) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &r in order.ranks() {
            for b in (r as u64).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// A `w × h` grid with one disc hole (radius 2–4, centre drawn from
    /// `seed`) inside each quadrant, keeping a margin so the set stays
    /// 4-connected.
    fn holey_graph(w: i64, h: i64, seed: u64) -> Graph {
        let mut state = seed;
        let mut draw = |lo: i64, hi: i64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + ((state >> 33) % (hi - lo + 1) as u64) as i64
        };
        let holes: Vec<(i64, i64, i64)> = (0..4)
            .map(|q| {
                let (qx, qy) = ((q % 2) * w / 2, (q / 2) * h / 2);
                let r = draw(2, 4);
                let x = draw(qx + r + 1, qx + w / 2 - r - 2);
                let y = draw(qy + r + 1, qy + h / 2 - r - 2);
                (x, y, r)
            })
            .collect();
        let points = (0..w)
            .flat_map(|x| (0..h).map(move |y| (x, y)))
            .filter(|&(x, y)| {
                holes
                    .iter()
                    .all(|&(hx, hy, r)| (x - hx).pow(2) + (y - hy).pow(2) > r * r)
            })
            .map(|(x, y)| vec![x, y])
            .collect();
        slpm_graph::PointSet::new(points)
            .unwrap()
            .neighbourhood_graph(Connectivity::Orthogonal)
    }

    #[test]
    fn rsb_orders_match_their_recorded_digests() {
        // Multilevel RSB at leaf size 8 on a non-square grid (the root and
        // the first recursion levels build hierarchies; default
        // coarsest_size is 256) and on an irregular set. A change to either
        // digest is a change to RSB's output.
        let grid = GridSpec::new(&[36, 24]).graph(Connectivity::Orthogonal);
        let holey = holey_graph(40, 30, 7);
        assert_eq!(holey.num_vertices(), 1044);
        for (name, g, digest) in [
            ("36x24 grid", &grid, 0xf1f6_5e01_dcb9_fd49u64),
            ("holey 40x30 set", &holey, 0x8732_bf31_38e3_d4ad),
        ] {
            let order = rsb_order_on(g, &RsbOptions::default(), &Pool::default()).unwrap();
            let got = rank_digest(&order);
            assert_eq!(got, digest, "{name}: {got:016x}");
        }
    }

    #[test]
    fn rsb_leaf_size_one_is_fully_recursive() {
        let (_, g) = grid(4);
        let order = rsb_order_on(
            &g,
            &RsbOptions {
                leaf_size: 1,
                ..Default::default()
            },
            &Pool::default(),
        )
        .unwrap();
        assert_eq!(order.len(), 16);
    }
}
