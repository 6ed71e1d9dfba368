//! Property tests for the best-first kNN planner. On random point sets —
//! dimensions 1 to 3, up to 160 points, with duplicate points common, `k`
//! often at or beyond the point count and fanouts up to 130; 2-D sets
//! packed into tall column-shaped leaves with centres well outside the
//! data; and coordinates pinned against both ends of `i64` —
//! [`PackedRTree::knn_best_first`] must return
//! exactly the brute-force answer (score every point by its exact
//! Chebyshev distance, sort by `(distance, id)`, truncate to `k`), and
//! visit exactly the nodes and leaves the reference below visits.
//!
//! The reference is the planner as it ran before leaves gained a key
//! index: the same best-first walk over a tree rebuilt from the packing
//! rule, scoring every point of every leaf it visits.

mod common;

use common::{coord, fanout, reference_levels, tall_case};
use proptest::prelude::*;
use slpm_storage::{Mbr, PackedRTree, PlanScratch};
use spectral_lpm::LinearOrder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Exact Chebyshev distance: two `i64` points lie up to `u64::MAX` apart.
fn distance(a: &[i64], b: &[i64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x.abs_diff(y))
        .max()
        .unwrap_or(0)
}

/// Exact Chebyshev distance from `p` to the nearest point of `m`.
fn gap(m: &Mbr, p: &[i64]) -> u64 {
    p.iter()
        .zip(m.lo.iter().zip(&m.hi))
        .map(|(&c, (&lo, &hi))| {
            if c < lo {
                lo.abs_diff(c)
            } else if c > hi {
                c.abs_diff(hi)
            } else {
                0
            }
        })
        .max()
        .unwrap_or(0)
}

/// Brute force: the ids of the `k` lexicographically smallest
/// `(distance, id)` pairs.
fn brute_knn(points: &[Vec<i64>], center: &[i64], k: usize) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (distance(center, p), i))
        .collect();
    scored.sort_unstable();
    scored.truncate(k);
    scored.into_iter().map(|(_, id)| id).collect()
}

/// Best-first kNN with a heap frontier and a full scan of every visited
/// leaf: returns the ids and `(nodes, leaves)` visited. Node ids number
/// the leaves first, then each level up to the root, as the tree does,
/// so frontier ties break the same way.
fn reference_knn(
    points: &[Vec<i64>],
    order: &LinearOrder,
    fanout: usize,
    center: &[i64],
    k: usize,
) -> (Vec<usize>, usize, usize) {
    let levels = reference_levels(points, order, fanout);
    let k = k.min(points.len());
    if k == 0 {
        return (Vec::new(), 0, 0);
    }
    // `base[l]` is the id of the first node of level `l`.
    let base: Vec<usize> = levels
        .iter()
        .scan(0, |next, level| {
            let first = *next;
            *next += level.len();
            Some(first)
        })
        .collect();
    let locate = |id: usize| {
        let level = base.iter().rposition(|&b| b <= id).expect("a level");
        (level, id - base[level])
    };
    let top = levels.len() - 1;
    let mut frontier = BinaryHeap::new();
    frontier.push(Reverse((gap(&levels[top][0], center), base[top])));
    let mut best: BinaryHeap<(u64, usize)> = BinaryHeap::new();
    let (mut nodes, mut leaves) = (0, 0);
    while let Some(Reverse((bound, id))) = frontier.pop() {
        if best.len() == k && bound > best.peek().expect("k > 0").0 {
            break;
        }
        nodes += 1;
        let (level, index) = locate(id);
        if level == 0 {
            leaves += 1;
            for pos in index * fanout..((index + 1) * fanout).min(points.len()) {
                let pid = order.vertex_at(pos);
                let entry = (distance(center, &points[pid]), pid);
                if best.len() < k {
                    best.push(entry);
                } else if entry < *best.peek().expect("k > 0") {
                    best.pop();
                    best.push(entry);
                }
            }
        } else {
            let below = &levels[level - 1];
            for child in index * fanout..((index + 1) * fanout).min(below.len()) {
                let child_bound = gap(&below[child], center);
                if best.len() < k || child_bound <= best.peek().expect("k > 0").0 {
                    frontier.push(Reverse((child_bound, base[level - 1] + child)));
                }
            }
        }
    }
    let mut scored = best.into_vec();
    scored.sort_unstable();
    (
        scored.into_iter().map(|(_, id)| id).collect(),
        nodes,
        leaves,
    )
}

/// A kNN probe: `(center, k)`.
type Probe = (Vec<i64>, usize);

/// Check each probe against brute force and the reference.
fn check_probes(points: &[Vec<i64>], keys: &[u64], fanout: usize, probes: &[Probe]) {
    let order = LinearOrder::from_codes(keys);
    let tree = PackedRTree::pack(points, &order, fanout);
    for (center, k) in probes {
        let (got, cost) = tree.knn_best_first(center, *k, &mut PlanScratch::default());
        assert_eq!(got, brute_knn(points, center, *k), "{center:?} k={k}");
        assert_eq!(cost.results, got.len());
        let (reference, nodes, leaves) = reference_knn(points, &order, fanout, center, *k);
        assert_eq!(got, reference);
        assert_eq!(cost.nodes_visited, nodes, "nodes of {center:?} k={k}");
        assert_eq!(cost.leaves_visited, leaves, "leaves of {center:?} k={k}");
    }
}

/// `(points, order keys, fanout, probes)` in a shared dimension of 1 to 3.
/// `element` draws point coordinates and `centre` probe coordinates; keys
/// come from a small range, so the order is a random permutation.
fn knn_case<E, C>(
    element: fn() -> E,
    centre: fn() -> C,
) -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<u64>, usize, Vec<Probe>)>
where
    E: Strategy<Value = i64>,
    C: Strategy<Value = i64>,
{
    (1usize..=3, 1usize..=160).prop_flat_map(move |(dim, n)| {
        (
            proptest::collection::vec(proptest::collection::vec(element(), dim), n),
            proptest::collection::vec(0u64..=16, n),
            fanout(),
            proptest::collection::vec(
                (proptest::collection::vec(centre(), dim), 0usize..=n + 8),
                1..=6,
            ),
        )
    })
}

fn tight() -> std::ops::RangeInclusive<i64> {
    -5..=5
}

fn near_tight() -> std::ops::RangeInclusive<i64> {
    -8..=8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn best_first_knn_matches_brute_force(
        (points, keys, fanout, probes) in knn_case(tight, near_tight),
    ) {
        check_probes(&points, &keys, fanout, &probes);
    }

    #[test]
    fn best_first_knn_on_wide_coordinates_ranks_by_exact_distance(
        (points, keys, fanout, probes) in knn_case(coord, coord),
    ) {
        check_probes(&points, &keys, fanout, &probes);
    }

    #[test]
    fn best_first_knn_on_column_shaped_leaves_matches_brute_force_and_reference_counts(
        (points, keys, fanout) in tall_case(),
        probes in proptest::collection::vec(
            ((-40i64..=60, -300i64..=300).prop_map(|(x, y)| vec![x, y]), 0usize..=80),
            1..=8,
        ),
    ) {
        check_probes(&points, &keys, fanout, &probes);
    }

    #[test]
    fn best_first_knn_is_scrambled_order_invariant(
        (points, _keys, fanout, probes) in knn_case(tight, near_tight),
        stride in 1usize..=7,
    ) {
        // The answer is a property of the point set, not of the packing
        // order: a scrambled (coprime-stride) order must return the
        // identical result list, only at different node cost.
        let n = points.len();
        let order = LinearOrder::identity(n);
        let scramble = LinearOrder::from_ranks(
            (0..n).map(|v| (v * stride) % n).collect(),
        );
        // A non-coprime stride is not a permutation; skip those draws.
        if let Ok(scramble) = scramble {
            for (center, k) in &probes {
                let mut scratch = PlanScratch::default();
                let (a, _) = PackedRTree::pack(&points, &order, fanout)
                    .knn_best_first(center, *k, &mut scratch);
                let (b, _) = PackedRTree::pack(&points, &scramble, fanout)
                    .knn_best_first(center, *k, &mut scratch);
                prop_assert_eq!(a, b);
            }
        }
    }
}
