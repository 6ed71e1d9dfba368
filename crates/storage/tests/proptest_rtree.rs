//! Property tests for the packed R-tree's range queries: on random point
//! sets — dimensions 1 to 3, up to 160 points, coordinates drawn from a
//! tight range (so duplicate points are common) or pinned against
//! `i64::MIN`/`i64::MAX`, random packing orders and fanouts 2–130, so
//! leaves span one to three words of the planner's leaf bitset, the last
//! one often partial — and on 2-D sets packed into tall column-shaped
//! leaves, every query, inverted ones (`lo > hi` in one dimension)
//! included, must return exactly the points a brute-force scan finds and
//! visit exactly the nodes a reference tree built by the packing rule
//! says it intersects. Thin queries on the column-shaped leaves take the
//! key-slab scan, wide ones the whole-leaf scan.

mod common;

use common::{coord, fanout, reference_levels, tall_case};
use proptest::prelude::*;
use slpm_storage::{Mbr, PackedRTree, PlanScratch};
use spectral_lpm::LinearOrder;

/// A query: one `(a, b)` pair per dimension, made `lo <= hi`, and an
/// index that inverts that dimension when it is below the dimension.
type RawQuery = (Vec<(i64, i64)>, usize);

/// `(points, order keys, fanout, queries)` in a shared dimension of 1 to
/// 3. Keys come from a small range, so ties (broken by id) are common and
/// the order is a random permutation rather than the identity.
fn range_case() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<u64>, usize, Vec<RawQuery>)> {
    (1usize..=3, 1usize..=160).prop_flat_map(|(dim, n)| {
        (
            proptest::collection::vec(proptest::collection::vec(coord(), dim), n),
            proptest::collection::vec(0u64..=16, n),
            fanout(),
            proptest::collection::vec(
                (
                    proptest::collection::vec((coord(), coord()), dim),
                    0usize..=4 * dim,
                ),
                1..=8,
            ),
        )
    })
}

/// Queries over a [`tall_case`] set: a few columns wide, and either a
/// thin slab of the columns' height or most of it.
fn tall_queries() -> impl Strategy<Value = Vec<RawQuery>> {
    let x = (-2i64..=25, 0i64..=6).prop_map(|(a, len)| (a, a + len));
    let y = (-260i64..=250, prop_oneof![0i64..=12, 0i64..=400]).prop_map(|(a, len)| (a, a + len));
    proptest::collection::vec(((x, y).prop_map(|(x, y)| vec![x, y]), 0usize..=8), 1..=16)
}

/// Build the query box of a [`RawQuery`].
fn query_of((sides, invert): &RawQuery) -> Mbr {
    let mut q = Mbr {
        lo: sides.iter().map(|&(a, b)| a.min(b)).collect(),
        hi: sides.iter().map(|&(a, b)| a.max(b)).collect(),
    };
    if *invert < sides.len() {
        let d = *invert;
        if q.lo[d] == q.hi[d] {
            q.lo[d] = q.lo[d].saturating_add(1);
            q.hi[d] = q.hi[d].saturating_sub(1);
        } else {
            std::mem::swap(&mut q.lo[d], &mut q.hi[d]);
        }
    }
    q
}

fn contains(q: &Mbr, p: &[i64]) -> bool {
    (0..p.len()).all(|d| q.lo[d] <= p[d] && p[d] <= q.hi[d])
}

fn overlaps(m: &Mbr, q: &Mbr) -> bool {
    (0..m.lo.len()).all(|d| m.lo[d] <= q.hi[d] && q.lo[d] <= m.hi[d])
}

/// `(nodes, leaves)` a top-down walk visits: a node counts when its MBR
/// overlaps the query, and only then are its children looked at.
fn reference_cost(levels: &[Vec<Mbr>], fanout: usize, q: &Mbr) -> (usize, usize) {
    fn walk(
        levels: &[Vec<Mbr>],
        level: usize,
        node: usize,
        fanout: usize,
        q: &Mbr,
    ) -> (usize, usize) {
        if !overlaps(&levels[level][node], q) {
            return (0, 0);
        }
        if level == 0 {
            return (1, 1);
        }
        let below = levels[level - 1].len();
        (node * fanout..((node + 1) * fanout).min(below))
            .map(|child| walk(levels, level - 1, child, fanout, q))
            .fold((1, 0), |(n, l), (cn, cl)| (n + cn, l + cl))
    }
    walk(levels, levels.len() - 1, 0, fanout, q)
}

/// Check every query of a case against brute force and the reference
/// walk, and the tree's shape against the reference levels.
fn check_range_queries(points: &[Vec<i64>], keys: &[u64], fanout: usize, queries: &[RawQuery]) {
    let order = LinearOrder::from_codes(keys);
    let tree = PackedRTree::pack(points, &order, fanout);
    let levels = reference_levels(points, &order, fanout);
    assert_eq!(tree.height(), levels.len());
    assert_eq!(tree.num_leaves(), levels[0].len());
    assert_eq!(tree.num_nodes(), levels.iter().map(Vec::len).sum::<usize>());
    for raw in queries {
        let q = query_of(raw);
        let mut by_rank: Vec<usize> = (0..points.len())
            .filter(|&i| contains(&q, &points[i]))
            .collect();
        let by_id = by_rank.clone();
        by_rank.sort_unstable_by_key(|&i| order.rank_of(i));

        let (ordered, cost) = tree.range_query(&q, &mut PlanScratch::default());
        assert_eq!(&ordered, &by_rank, "ordered results of {q:?}");
        assert_eq!(cost.results, ordered.len());
        let (nodes, leaves) = reference_cost(&levels, fanout, &q);
        assert_eq!(cost.nodes_visited, nodes, "nodes of {q:?}");
        assert_eq!(cost.leaves_visited, leaves, "leaves of {q:?}");

        let mut sorted = ordered;
        sorted.sort_unstable();
        assert_eq!(&sorted, &by_id, "id-sorted results of {q:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_queries_match_brute_force_and_reference_counts(
        (points, keys, fanout, queries) in range_case(),
    ) {
        check_range_queries(&points, &keys, fanout, &queries);
    }

    #[test]
    fn range_queries_on_column_shaped_leaves_match_brute_force_and_reference_counts(
        (points, keys, fanout) in tall_case(),
        queries in tall_queries(),
    ) {
        check_range_queries(&points, &keys, fanout, &queries);
    }
}
