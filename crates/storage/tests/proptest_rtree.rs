//! Property tests for the packed R-tree's range queries: on random point
//! sets — dimensions 2 and 3, coordinates drawn from a tight range (so
//! duplicate points are common) or pinned against `i64::MIN`/`i64::MAX`,
//! random packing orders and fanouts 2–9 — every query, inverted ones
//! (`lo > hi` in one dimension) included, must return exactly the points
//! a brute-force scan finds and visit exactly the nodes a reference tree
//! built by the packing rule says it intersects.

use proptest::prelude::*;
use slpm_storage::{Mbr, PackedRTree};
use spectral_lpm::LinearOrder;

/// A coordinate: half the draws in `-4..=4`, the rest next to either end
/// of `i64`, so query spans cross the whole range and wrap when
/// subtracted.
fn coord() -> impl Strategy<Value = i64> {
    prop_oneof![
        -4i64..=4,
        -4i64..=4,
        i64::MIN..=i64::MIN + 3,
        i64::MAX - 3..=i64::MAX
    ]
}

/// A query: one `(a, b)` pair per dimension, made `lo <= hi`, and an
/// index that inverts that dimension when it is below the dimension.
type RawQuery = (Vec<(i64, i64)>, usize);

/// `(points, order keys, fanout, queries)` in a shared dimension of 2 or
/// 3. Keys come from a small range, so ties (broken by id) are common and
/// the order is a random permutation rather than the identity.
fn range_case() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<u64>, usize, Vec<RawQuery>)> {
    (2usize..=3, 1usize..=64).prop_flat_map(|(dim, n)| {
        (
            proptest::collection::vec(proptest::collection::vec(coord(), dim), n),
            proptest::collection::vec(0u64..=16, n),
            2usize..=9,
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

/// The packing rule, restated: leaf MBRs over consecutive runs of
/// `fanout` packed positions, then each level's MBRs over consecutive
/// runs of `fanout` MBRs of the level below, up to one root.
fn reference_levels(points: &[Vec<i64>], order: &LinearOrder, fanout: usize) -> Vec<Vec<Mbr>> {
    let n = points.len();
    let leaves: Vec<Mbr> = (0..n)
        .step_by(fanout)
        .map(|start| {
            Mbr::of_points(
                (start..(start + fanout).min(n)).map(|pos| points[order.vertex_at(pos)].as_slice()),
            )
        })
        .collect();
    let mut levels = vec![leaves];
    while levels.last().expect("a leaf level").len() > 1 {
        let up: Vec<Mbr> = levels
            .last()
            .expect("a leaf level")
            .chunks(fanout)
            .map(|run| Mbr::of_points(run.iter().flat_map(|m| [m.lo.as_slice(), m.hi.as_slice()])))
            .collect();
        levels.push(up);
    }
    levels
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_queries_match_brute_force_and_reference_counts(
        (points, keys, fanout, queries) in range_case(),
    ) {
        let order = LinearOrder::from_codes(&keys);
        let tree = PackedRTree::pack(&points, &order, fanout);
        let levels = reference_levels(&points, &order, fanout);
        prop_assert_eq!(tree.height(), levels.len());
        prop_assert_eq!(tree.num_leaves(), levels[0].len());
        prop_assert_eq!(tree.num_nodes(), levels.iter().map(Vec::len).sum::<usize>());
        for raw in &queries {
            let q = query_of(raw);
            let mut by_rank: Vec<usize> =
                (0..points.len()).filter(|&i| contains(&q, &points[i])).collect();
            let by_id = by_rank.clone();
            by_rank.sort_unstable_by_key(|&i| order.rank_of(i));

            let (ordered, cost) = tree.range_query_ordered(&q);
            prop_assert_eq!(&ordered, &by_rank, "ordered results of {:?}", q);
            prop_assert_eq!(cost.results, ordered.len());
            let (nodes, leaves) = reference_cost(&levels, fanout, &q);
            prop_assert_eq!(cost.nodes_visited, nodes, "nodes of {:?}", q);
            prop_assert_eq!(cost.leaves_visited, leaves, "leaves of {:?}", q);

            let (sorted, sorted_cost) = tree.range_query(&q);
            prop_assert_eq!(&sorted, &by_id, "id-sorted results of {:?}", q);
            prop_assert_eq!(sorted_cost, cost);
        }
    }
}
