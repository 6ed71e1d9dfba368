//! A packed (bulk-loaded) R-tree over a linear order.
//!
//! The paper lists *R-tree packing* among the applications of locality-
//! preserving mappings, after Kamel & Faloutsos' Hilbert-packed R-trees:
//! sort the data by a 1-D order, fill leaves with consecutive runs, and
//! build the index bottom-up. The better the order preserves spatial
//! locality, the tighter the leaf MBRs and the fewer nodes a range query
//! must visit. This module implements exactly that pipeline for *any*
//! [`LinearOrder`], so the spectral order can be compared against the
//! fractals on the application the paper only gestures at.
//!
//! The tree is a handful of flat arrays, built once by
//! [`PackedRTree::pack`]. Points are stored in packed order and
//! dimension-major, so a leaf is one contiguous slice per dimension and a
//! range query tests a leaf's points one dimension at a time, branch-free.
//! Nodes are numbered leaves first, then each internal level in turn; a
//! node's children (leaf: packed positions, internal: node ids) are one
//! consecutive range, so no node owns an allocation.
//!
//! Each leaf also carries a key index: its widest dimension (the key) and
//! its points sorted by their key coordinate. A leaf packed along a
//! locality-preserving order can still be a tall band (the spectral order
//! of a grid with holes packs column-high leaves), and a small query
//! meets only a thin slab of it. Both planners start from that slab,
//! found by binary search, so their cost per leaf follows what the leaf
//! returns, not how many points it holds:
//! - a range query tests only the points whose key lies inside the
//!   query, when they are at most half of the leaf, and the whole leaf
//!   otherwise. Matches are bits of a per-leaf bitset, one `u64` per 64
//!   positions, emitted in packed order one set bit at a time (see
//!   [`PackedRTree::range_query`]);
//! - a kNN query walks the key index outward from the centre's key,
//!   nearest key first, and leaves the leaf at the first key farther than
//!   the current k-th distance (see [`PackedRTree::knn_best_first`]).
//!
//! Neither changes which nodes are visited or what is returned. There is
//! one call per query type, and each takes the caller's [`PlanScratch`]:
//! a caller that plans many queries passes the same one to every call,
//! and a query then allocates only its result list.

use crate::mbr::{box_min_chebyshev, boxes_intersect, Mbr};
use serde::Serialize;
use spectral_lpm::LinearOrder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A packed R-tree: bulk-loaded, never updated (the classic static index).
///
/// Per point it owns 20 + 8·dim bytes, in flat arrays:
/// - one copy of the indexed coordinates, 8·dim bytes, dimension-major in
///   packed order (`coords[d * n + pos]`);
/// - the 8-byte point id of each packed position;
/// - the leaf key index, 12 bytes: the point's 4-byte offset within its
///   leaf and its 8-byte key coordinate, in key order.
///
/// Per node it holds two `usize`s (its child range) and 2·dim
/// coordinates (its MBR), and per leaf the `usize` key dimension. No node
/// or point owns a heap allocation. For 10⁶ 2-D points that is 16 MB of
/// coordinates, 8 MB of ids and 12 MB of key index, where a second
/// `Vec<Vec<i64>>` alone would be ~40 MB of small heap allocations.
#[derive(Debug, Clone)]
pub struct PackedRTree {
    /// Dimension shared by every point (at least 1).
    dim: usize,
    fanout: usize,
    height: usize,
    /// Nodes `0..num_leaves` are the leaves, in packed order.
    num_leaves: usize,
    /// Point id at each packed position (`order.vertex_at`).
    ids: Vec<usize>,
    /// Coordinates, dimension-major: `coords[d * ids.len() + pos]`.
    coords: Vec<i64>,
    /// Start of each node's child range: packed positions for a leaf,
    /// node ids for an internal node.
    first: Vec<usize>,
    /// End (exclusive) of each node's child range.
    end: Vec<usize>,
    /// `2 * dim` values per node: the MBR's `lo` corner, then its `hi`.
    bounds: Vec<i64>,
    /// Per leaf, the dimension of its widest extent: the leaf's key.
    key_dim: Vec<usize>,
    /// Per leaf, over the leaf's packed positions: its in-leaf offsets,
    /// sorted by `(key coordinate, offset)`.
    key_offsets: Vec<u32>,
    /// The key coordinate of each `key_offsets` entry, so ascending
    /// within each leaf.
    key_values: Vec<i64>,
}

/// A range query scans a leaf's key slab instead of the whole leaf when
/// the slab holds at most `1 / SLAB_SHARE` of the leaf's points. A slab
/// point costs a gather where the whole-leaf scan streams a column. On
/// the perfbench batches (seed 8, fanout 64, tree only, medians of 25
/// interleaved rounds) a half and a whole leaf were equal on both point
/// sets; a quarter was 3% faster on the holey set and 19% slower on the
/// 256×192 grid, so slabs between a quarter and a half of the grid's
/// column-shaped leaves pay off too.
const SLAB_SHARE: usize = 2;

/// Access counts of one range query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueryCost {
    /// Internal + leaf nodes whose MBR intersected the query.
    pub nodes_visited: usize,
    /// Leaf nodes visited (page reads in the classic model).
    pub leaves_visited: usize,
    /// Matching points returned.
    pub results: usize,
}

impl QueryCost {
    /// The all-zero cost: nothing visited, nothing returned.
    pub const ZERO: QueryCost = QueryCost {
        nodes_visited: 0,
        leaves_visited: 0,
        results: 0,
    };
}

/// Working memory of the planners, reused from query to query: the
/// range query's node stack and leaf bitset, and the kNN frontier and
/// candidate heaps. A fresh one is empty; the first queries grow it to
/// what the tree needs, and later ones allocate nothing in it.
#[derive(Debug, Default)]
pub struct PlanScratch {
    stack: Vec<usize>,
    bits: Vec<u64>,
    frontier: BinaryHeap<Reverse<u128>>,
    best: BinaryHeap<u128>,
}

/// A `(distance, id)` pair as one integer whose order is the pair's
/// lexicographic order, so a heap compares its entries in one step (on
/// the holey perfbench set this made kNN planning about 7% faster than
/// tuple entries).
fn rank_key(distance: u64, id: usize) -> u128 {
    (u128::from(distance) << 64) | id as u128
}

/// The `(distance, id)` pair of a [`rank_key`].
fn split_rank_key(key: u128) -> (u64, usize) {
    ((key >> 64) as u64, key as u64 as usize)
}

impl PackedRTree {
    /// Bulk-load a tree over `points`, packing leaves with `fanout`
    /// consecutive points of `order` (and internal levels with `fanout`
    /// consecutive children). The coordinates are copied once, into the
    /// tree's dimension-major array; the order is consumed through its
    /// position lookups only.
    ///
    /// # Panics
    /// Panics when `fanout < 2`, `points` is empty, `order.len()` differs
    /// from `points.len()`, the points have no coordinates, or two points
    /// differ in dimension — all caller bugs. Also panics when a leaf
    /// would hold more than `u32::MAX` points (both `fanout` and the point
    /// count above it), because in-leaf offsets are stored as `u32`.
    pub fn pack(points: &[Vec<i64>], order: &LinearOrder, fanout: usize) -> Self {
        assert!(fanout >= 2, "R-tree fanout must be at least 2");
        assert!(!points.is_empty(), "cannot pack an empty point set");
        assert_eq!(order.len(), points.len(), "order/point-set mismatch");
        assert!(
            u32::try_from(fanout.min(points.len())).is_ok(),
            "R-tree leaves hold at most u32::MAX points"
        );
        let dim = points[0].len();
        assert!(dim >= 1, "R-tree points need at least one dimension");
        assert!(
            points.iter().all(|p| p.len() == dim),
            "every point must have dimension {dim}, like the first"
        );

        let n = points.len();
        let ids: Vec<usize> = (0..n).map(|pos| order.vertex_at(pos)).collect();
        let mut coords = vec![0i64; dim * n];
        for (pos, &id) in ids.iter().enumerate() {
            for (d, &c) in points[id].iter().enumerate() {
                coords[d * n + pos] = c;
            }
        }

        let (mut first, mut end, mut bounds) = (Vec::new(), Vec::new(), Vec::new());
        // Leaf level: consecutive runs of the order.
        for start in (0..n).step_by(fanout) {
            let stop = (start + fanout).min(n);
            first.push(start);
            end.push(stop);
            let base = bounds.len();
            bounds.resize(base + 2 * dim, 0);
            for d in 0..dim {
                let column = &coords[d * n + start..d * n + stop];
                bounds[base + d] = *column.iter().min().expect("non-empty leaf");
                bounds[base + dim + d] = *column.iter().max().expect("non-empty leaf");
            }
        }
        let num_leaves = first.len();
        // Leaf key index: the widest dimension (the lowest on a tie), and
        // the leaf's offsets sorted by that coordinate.
        let mut key_dim = Vec::with_capacity(num_leaves);
        let mut key_offsets: Vec<u32> = Vec::with_capacity(n);
        let mut key_values = Vec::with_capacity(n);
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(fanout.min(n));
        for leaf in 0..num_leaves {
            let (lo, hi) = bounds[leaf * 2 * dim..(leaf + 1) * 2 * dim].split_at(dim);
            let key = (0..dim)
                .max_by_key(|&d| (hi[d].abs_diff(lo[d]), Reverse(d)))
                .expect("dim >= 1");
            key_dim.push(key);
            let column = &coords[key * n + first[leaf]..key * n + end[leaf]];
            keyed.clear();
            keyed.extend(column.iter().copied().zip(0u32..));
            keyed.sort_unstable();
            key_offsets.extend(keyed.iter().map(|&(_, o)| o));
            key_values.extend(keyed.iter().map(|&(v, _)| v));
        }
        let mut height = 1usize;
        // Internal levels: consecutive runs of the level below.
        let mut level = 0..num_leaves;
        while level.len() > 1 {
            let next = first.len();
            for start in level.clone().step_by(fanout) {
                let stop = (start + fanout).min(level.end);
                first.push(start);
                end.push(stop);
                let base = bounds.len();
                bounds.extend_from_within(start * 2 * dim..(start + 1) * 2 * dim);
                for child in start + 1..stop {
                    for d in 0..dim {
                        bounds[base + d] = bounds[base + d].min(bounds[child * 2 * dim + d]);
                        bounds[base + dim + d] =
                            bounds[base + dim + d].max(bounds[child * 2 * dim + dim + d]);
                    }
                }
            }
            level = next..first.len();
            height += 1;
        }

        PackedRTree {
            dim,
            fanout,
            height,
            num_leaves,
            ids,
            coords,
            first,
            end,
            bounds,
            key_dim,
            key_offsets,
            key_values,
        }
    }

    /// Number of nodes (all levels).
    pub fn num_nodes(&self) -> usize {
        self.first.len()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Tree height (leaf level = 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Leaf fanout used at pack time.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Sum of leaf MBR volumes — the classic packing-quality metric
    /// (smaller = tighter leaves = fewer false node visits).
    pub fn total_leaf_volume(&self) -> u128 {
        (0..self.num_leaves).map(|l| self.mbr(l).volume()).sum()
    }

    /// Sum of leaf MBR margins (the R*-tree quality proxy).
    pub fn total_leaf_margin(&self) -> i64 {
        (0..self.num_leaves).map(|l| self.mbr(l).margin()).sum()
    }

    /// The root: the last node built, alone on the top level.
    fn root(&self) -> usize {
        self.first.len() - 1
    }

    /// A node's MBR corners, `(lo, hi)`.
    fn corners(&self, node: usize) -> (&[i64], &[i64]) {
        self.bounds[node * 2 * self.dim..(node + 1) * 2 * self.dim].split_at(self.dim)
    }

    /// A node's MBR as an owned [`Mbr`].
    fn mbr(&self, node: usize) -> Mbr {
        let (lo, hi) = self.corners(node);
        Mbr {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    /// The `[a, b)` range of `leaf`'s key-ordered entries (relative to the
    /// leaf's first packed position) whose key lies in `lo..=hi`.
    fn key_slab(&self, leaf: usize, lo: i64, hi: i64) -> (usize, usize) {
        let keys = &self.key_values[self.first[leaf]..self.end[leaf]];
        (
            keys.partition_point(|&v| v < lo),
            keys.partition_point(|&v| v <= hi),
        )
    }

    /// The query-side half of the dimension contract.
    fn assert_query_dim(&self, query_dim: usize) {
        assert_eq!(
            query_dim, self.dim,
            "query dimension must equal the tree's point dimension"
        );
    }

    /// Answer a range query, counting node accesses, with matches in
    /// **packed (linear-order) sequence**: leaves hold consecutive runs
    /// of the order and are visited left-to-right, so result ranks — and
    /// therefore the page ids any [`crate::PageMapper`] over the same
    /// order derives from them — are monotonically non-decreasing. That
    /// turns the query's page reads into a forward-only sweep (sequential
    /// I/O), which is what the serving layer feeds to its shards. A
    /// caller that wants the matches by point id sorts them.
    ///
    /// A visited leaf marks its matches in a bitset, one `u64` word per 64
    /// of its positions, and emits the set bits in packed order, so the
    /// emit costs one step per result and per word, not per position. A
    /// dimension in which the leaf's extent lies inside the query's needs
    /// no test. The bits are set one of two ways:
    /// - *slab scan:* when at most half of the leaf's points have
    ///   their key coordinate inside the query's key span, only those
    ///   points (found by binary search in the leaf's key index) set
    ///   their bits, and only they are tested in the other dimensions;
    /// - *whole-leaf scan:* otherwise every point starts set, and each
    ///   dimension in turn clears the points outside the query's span.
    ///
    /// An inverted query (`lo > hi` in some dimension) matches no point,
    /// but still visits and counts every node its corners intersect.
    ///
    /// # Panics
    /// Panics when the query's dimension differs from the points'.
    pub fn range_query(&self, query: &Mbr, scratch: &mut PlanScratch) -> (Vec<usize>, QueryCost) {
        self.assert_query_dim(query.lo.len());
        self.assert_query_dim(query.hi.len());
        let n = self.ids.len();
        let inverted = query.lo.iter().zip(&query.hi).any(|(lo, hi)| lo > hi);
        let mut results = Vec::new();
        let mut cost = QueryCost::ZERO;
        let PlanScratch { stack, bits, .. } = scratch;
        // Bit `o % 64` of `bits[o / 64]` says whether the leaf's point at
        // offset `o` is still inside the query.
        bits.resize(self.fanout.min(n).div_ceil(64), 0);
        stack.clear();
        stack.push(self.root());
        while let Some(id) = stack.pop() {
            let (lo, hi) = self.corners(id);
            if !boxes_intersect(lo, hi, &query.lo, &query.hi) {
                continue;
            }
            cost.nodes_visited += 1;
            let (first, end) = (self.first[id], self.end[id]);
            if id >= self.num_leaves {
                // Children are packed left-to-right over the order; push
                // them reversed so the leftmost pops first and leaves are
                // visited in packed order.
                stack.extend((first..end).rev());
                continue;
            }
            cost.leaves_visited += 1;
            if inverted {
                continue;
            }
            let words = &mut bits[..(end - first).div_ceil(64)];
            // `qlo <= c <= qhi` as one unsigned compare, exact over the
            // whole i64 range once `qlo <= qhi`; `None` when the leaf lies
            // inside the query in dimension `d`.
            let span_test = |d: usize| {
                let (qlo, qhi) = (query.lo[d], query.hi[d]);
                let inside_leaf = qlo <= lo[d] && hi[d] <= qhi;
                (!inside_leaf).then(|| (d, qlo, qhi.wrapping_sub(qlo) as u64))
            };
            // The key slab, when the leaf is not inside the query's key
            // span and the slab is selective.
            let key = self.key_dim[id];
            let slab = span_test(key)
                .map(|_| self.key_slab(id, query.lo[key], query.hi[key]))
                .filter(|&(a, b)| (b - a) * SLAB_SHARE <= end - first);
            if let Some((a, b)) = slab {
                if a == b {
                    continue;
                }
                let slab = &self.key_offsets[first + a..first + b];
                words.fill(0);
                for &o in slab {
                    words[o as usize / 64] |= 1 << (o % 64);
                }
                for (d, qlo, span) in (0..self.dim).filter(|&d| d != key).filter_map(span_test) {
                    let column = &self.coords[d * n + first..d * n + end];
                    for &o in slab {
                        let out = column[o as usize].wrapping_sub(qlo) as u64 > span;
                        words[o as usize / 64] &= !(u64::from(out) << (o % 64));
                    }
                }
            } else {
                for (w, word) in words.iter_mut().enumerate() {
                    *word = u64::MAX >> (64 - (end - first - 64 * w).min(64));
                }
                for (d, qlo, span) in (0..self.dim).filter_map(span_test) {
                    let column = &self.coords[d * n + first..d * n + end];
                    for (word, chunk) in words.iter_mut().zip(column.chunks(64)) {
                        let keep = chunk.iter().enumerate().fold(0u64, |keep, (i, &c)| {
                            keep | u64::from(c.wrapping_sub(qlo) as u64 <= span) << i
                        });
                        *word &= keep;
                    }
                }
            }
            // Emit the set bits' ids, in packed order.
            for (w, &word) in words.iter().enumerate() {
                let ids = &self.ids[first + 64 * w..];
                if word == u64::MAX {
                    results.extend_from_slice(&ids[..64]);
                    continue;
                }
                let mut word = word;
                while word != 0 {
                    results.push(ids[word.trailing_zeros() as usize]);
                    word &= word - 1;
                }
            }
        }
        cost.results = results.len();
        (results, cost)
    }

    /// Exact k-nearest-neighbour search under the Chebyshev (L∞) metric,
    /// as a **best-first branch-and-bound** over the packed tree (the
    /// classic Hjaltason–Samet incremental search, specialised to a fixed
    /// `k`):
    ///
    /// * the frontier is a binary min-heap of tree nodes keyed by
    ///   `(`[`Mbr::min_chebyshev_dist`]` to the centre (exact, as a
    ///   u64), node id)` — the
    ///   node id tie-break makes the pop order, and therefore the
    ///   node-access counters, a pure function of the tree and query;
    /// * the current `k` best candidates live in a max-heap keyed by
    ///   `(distance, point id)`; a node is descended only while its
    ///   min-distance can still beat the worst candidate (strictly
    ///   greater prunes — an equal bound may still hide an equal-distance
    ///   point with a smaller id);
    /// * once the closest frontier node is strictly farther than the
    ///   worst of `k` candidates the search stops: every unvisited point
    ///   is at least that far away;
    /// * a visited leaf walks its key index outward from the centre's key
    ///   coordinate, the smaller key gap first. A point is at least its
    ///   key gap away, so once `k` candidates are held, the first gap
    ///   strictly greater than the worst candidate's distance ends the
    ///   leaf: no point beyond it could displace that candidate. The `k`
    ///   smallest `(distance, id)` pairs do not depend on the order points
    ///   arrive in, so the candidates after each leaf, and with them every
    ///   pruning decision, are those of a full scan of the leaf.
    ///
    /// Distances are exact: two `i64` points can lie up to `u64::MAX`
    /// apart, so ranks are by the `u64` distance, where [`crate::chebyshev`]
    /// saturates at `i64::MAX`.
    ///
    /// Results come back sorted ascending by `(distance, id)` — bitwise
    /// identical to brute force (score every point, sort, truncate), while
    /// visiting each node **at most once** — a doubling range probe would
    /// re-pay the root path on every round.
    ///
    /// `k` is clamped to the point count; `k == 0` returns nothing and
    /// touches nothing.
    ///
    /// # Panics
    /// Panics when `center`'s dimension differs from the points'.
    pub fn knn_best_first(
        &self,
        center: &[i64],
        k: usize,
        scratch: &mut PlanScratch,
    ) -> (Vec<usize>, QueryCost) {
        self.assert_query_dim(center.len());
        let mut cost = QueryCost::ZERO;
        let n = self.ids.len();
        let k = k.min(n);
        if k == 0 {
            return (Vec::new(), cost);
        }
        let bound_of = |node: usize| {
            let (lo, hi) = self.corners(node);
            box_min_chebyshev(lo, hi, center)
        };
        let PlanScratch { frontier, best, .. } = scratch;
        // Min-heap frontier of (lower bound, node id) and max-heap of the
        // best k candidates seen, keyed (distance, point id).
        frontier.clear();
        frontier.push(Reverse(rank_key(bound_of(self.root()), self.root())));
        best.clear();
        // The worst candidate's distance once k are held; until then
        // nothing is pruned.
        let mut worst = u64::MAX;
        while let Some(Reverse(top)) = frontier.pop() {
            let (bound, id) = split_rank_key(top);
            // The frontier pops in non-decreasing bound order, so the
            // first unbeatable bound ends the whole search.
            if bound > worst {
                break;
            }
            cost.nodes_visited += 1;
            let (first, end) = (self.first[id], self.end[id]);
            if id < self.num_leaves {
                cost.leaves_visited += 1;
                let key = self.key_dim[id];
                let c = center[key];
                let keys = &self.key_values[first..end];
                // Entries `below..above` have been taken; the walk grows
                // that window from the centre's key, one side at a time.
                let mut below = keys.partition_point(|&v| v < c);
                let mut above = below;
                loop {
                    let down = below.checked_sub(1).map(|i| (c.abs_diff(keys[i]), i));
                    let up = keys.get(above).map(|&v| (v.abs_diff(c), above));
                    let (gap, i) = match (down, up) {
                        (Some(d), Some(u)) => d.min(u),
                        (Some(next), None) | (None, Some(next)) => next,
                        (None, None) => break,
                    };
                    if gap > worst {
                        break;
                    }
                    if i == above {
                        above += 1;
                    } else {
                        below = i;
                    }
                    // The key gap is the distance in the key dimension.
                    let pos = first + self.key_offsets[first + i] as usize;
                    let far = center
                        .iter()
                        .enumerate()
                        .filter(|&(d, _)| d != key)
                        .map(|(d, &x)| x.abs_diff(self.coords[d * n + pos]))
                        .fold(gap, u64::max);
                    let entry = rank_key(far, self.ids[pos]);
                    if best.len() < k {
                        best.push(entry);
                    } else if let Some(mut top) = best.peek_mut().filter(|top| entry < **top) {
                        *top = entry;
                    } else {
                        continue;
                    }
                    if best.len() == k {
                        worst = split_rank_key(*best.peek().expect("k > 0 candidates")).0;
                    }
                }
            } else {
                for child in first..end {
                    let child_bound = bound_of(child);
                    // Prune only on a strictly worse bound: an equal one
                    // may hold an equal-distance point with a smaller id.
                    if child_bound <= worst {
                        frontier.push(Reverse(rank_key(child_bound, child)));
                    }
                }
            }
        }
        let mut scored = std::mem::take(best).into_vec();
        scored.sort_unstable();
        let results: Vec<usize> = scored.iter().map(|&e| split_rank_key(e).1).collect();
        scored.clear();
        *best = BinaryHeap::from(scored);
        cost.results = results.len();
        (results, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbr::chebyshev;

    /// A 4×4 grid of points, id = row-major index.
    fn grid_points(side: i64) -> Vec<Vec<i64>> {
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                pts.push(vec![x, y]);
            }
        }
        pts
    }

    #[test]
    fn pack_shapes() {
        let pts = grid_points(4);
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(16), 4);
        assert_eq!(t.num_leaves(), 4);
        assert_eq!(t.height(), 2);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.fanout(), 4);
    }

    #[test]
    fn uneven_last_leaf() {
        let pts = grid_points(3); // 9 points, fanout 4 → leaves 4+4+1
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(9), 4);
        assert_eq!(t.num_leaves(), 3);
    }

    #[test]
    fn range_query_returns_exact_results() {
        let pts = grid_points(4);
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(16), 4);
        let q = Mbr {
            lo: vec![1, 1],
            hi: vec![2, 2],
        };
        let (mut res, cost) = t.range_query(&q, &mut PlanScratch::default());
        res.sort_unstable();
        assert_eq!(cost.results, 4);
        assert_eq!(res.len(), 4);
        for &pid in &res {
            assert!(q.contains_point(&pts[pid]));
        }
        // And nothing outside was returned: brute force check.
        let brute: Vec<usize> = (0..16).filter(|&i| q.contains_point(&pts[i])).collect();
        assert_eq!(res, brute);
    }

    #[test]
    fn whole_space_query_visits_everything() {
        let pts = grid_points(4);
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(16), 4);
        let q = Mbr {
            lo: vec![0, 0],
            hi: vec![3, 3],
        };
        let (res, cost) = t.range_query(&q, &mut PlanScratch::default());
        assert_eq!(res.len(), 16);
        assert_eq!(cost.nodes_visited, t.num_nodes());
        assert_eq!(cost.leaves_visited, t.num_leaves());
    }

    #[test]
    fn empty_region_query_touches_root_only() {
        let pts = grid_points(4);
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(16), 4);
        let q = Mbr {
            lo: vec![10, 10],
            hi: vec![12, 12],
        };
        let (res, cost) = t.range_query(&q, &mut PlanScratch::default());
        assert!(res.is_empty());
        assert_eq!(cost.nodes_visited, 0); // root MBR doesn't intersect
    }

    #[test]
    fn better_order_gives_tighter_leaves() {
        // Row-major (identity) leaves on a 8×8 grid with fanout 8 are full
        // rows: volume 8 each, total 64. A scrambled order mixes far-apart
        // points into leaves, inflating total volume.
        let pts = grid_points(8);
        let good = PackedRTree::pack(&pts, &LinearOrder::identity(64), 8);
        let scramble =
            LinearOrder::from_ranks((0..64).map(|v: usize| (v * 37) % 64).collect()).unwrap();
        let bad = PackedRTree::pack(&pts, &scramble, 8);
        assert!(
            good.total_leaf_volume() < bad.total_leaf_volume(),
            "good {} vs bad {}",
            good.total_leaf_volume(),
            bad.total_leaf_volume()
        );
        assert!(good.total_leaf_margin() <= bad.total_leaf_margin());
    }

    #[test]
    fn ordered_query_yields_monotone_ranks_and_pages() {
        use crate::pages::{PageLayout, PageMapper};
        // A boustrophedon (snake) order on an 8×8 grid: nontrivial but
        // locality-preserving, so a box query spans several leaves.
        let side = 8usize;
        let pts = grid_points(side as i64);
        let ranks: Vec<usize> = (0..side * side)
            .map(|i| {
                let (x, y) = (i / side, i % side);
                x * side + if x % 2 == 1 { side - 1 - y } else { y }
            })
            .collect();
        let order = LinearOrder::from_ranks(ranks).unwrap();
        let t = PackedRTree::pack(&pts, &order, 4);
        let mapper = PageMapper::new(&order, PageLayout::new(4));
        let q = Mbr {
            lo: vec![1, 2],
            hi: vec![6, 5],
        };
        let (ordered, cost) = t.range_query(&q, &mut PlanScratch::default());
        assert!(!ordered.is_empty());
        assert_eq!(cost.results, ordered.len());
        // Ranks strictly increase along the ordered result stream, so the
        // derived page ids never move backwards: a forward-only sweep.
        for w in ordered.windows(2) {
            assert!(order.rank_of(w[0]) < order.rank_of(w[1]));
            assert!(mapper.page_of(w[0]) <= mapper.page_of(w[1]));
        }
        // Sorted by id, the stream is exactly the brute-force match set.
        let mut resorted = ordered.clone();
        resorted.sort_unstable();
        let brute: Vec<usize> = (0..pts.len())
            .filter(|&i| q.contains_point(&pts[i]))
            .collect();
        assert_eq!(resorted, brute);
    }

    /// Brute-force kNN reference: score, sort by (distance, id), truncate.
    fn brute_knn(points: &[Vec<i64>], center: &[i64], k: usize) -> Vec<usize> {
        let mut scored: Vec<(i64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (chebyshev(center, p), i))
            .collect();
        scored.sort_unstable();
        scored.truncate(k);
        scored.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn knn_best_first_matches_brute_force() {
        let pts = grid_points(8);
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(64), 4);
        for center in [[3i64, 3], [0, 0], [7, 7], [-2, 4], [10, 10]] {
            for k in [1usize, 2, 5, 17, 64] {
                let (got, cost) = t.knn_best_first(&center, k, &mut PlanScratch::default());
                assert_eq!(got, brute_knn(&pts, &center, k), "center {center:?} k {k}");
                assert_eq!(cost.results, k.min(64));
                // Best-first visits each node at most once.
                assert!(cost.nodes_visited <= t.num_nodes());
                assert!(cost.leaves_visited <= t.num_leaves());
            }
        }
    }

    #[test]
    fn knn_best_first_handles_duplicates_and_large_k() {
        // Duplicate points: ties on distance resolve by id.
        let pts = vec![
            vec![2i64, 2],
            vec![2, 2],
            vec![0, 0],
            vec![2, 2],
            vec![5, 5],
        ];
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(5), 2);
        let (got, _) = t.knn_best_first(&[2, 2], 3, &mut PlanScratch::default());
        assert_eq!(got, vec![0, 1, 3]);
        // k beyond the point count clamps; k == 0 touches nothing.
        let (all, _) = t.knn_best_first(&[2, 2], 100, &mut PlanScratch::default());
        assert_eq!(all, brute_knn(&pts, &[2, 2], 5));
        let (none, cost) = t.knn_best_first(&[2, 2], 0, &mut PlanScratch::default());
        assert!(none.is_empty());
        assert_eq!(cost, QueryCost::ZERO);
    }

    #[test]
    fn knn_best_first_prunes_far_subtrees() {
        // A query in one corner of a well-packed 16x16 grid must not
        // visit the whole tree for a small k.
        let pts = grid_points(16);
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(256), 4);
        let (res, cost) = t.knn_best_first(&[0, 0], 4, &mut PlanScratch::default());
        assert_eq!(res.len(), 4);
        assert!(
            cost.nodes_visited < t.num_nodes() / 2,
            "visited {} of {} nodes",
            cost.nodes_visited,
            t.num_nodes()
        );
    }

    #[test]
    fn knn_best_first_ranks_points_more_than_i64_max_apart_exactly() {
        // Distances from `i64::MAX` here are 0, i64::MAX, i64::MAX + 1 and
        // u64::MAX: an `i64` subtraction overflowed on the last two (a
        // panic in debug, a wrapped rank in release).
        let pts = vec![
            vec![i64::MIN, 0],
            vec![i64::MAX, 0],
            vec![0, 0],
            vec![-1, 0],
        ];
        for fanout in [2, 4] {
            let t = PackedRTree::pack(&pts, &LinearOrder::identity(4), fanout);
            for k in 1..=4 {
                let (got, _) = t.knn_best_first(&[i64::MAX, 0], k, &mut PlanScratch::default());
                assert_eq!(got, [1, 2, 3, 0][..k], "fanout {fanout}, k {k}");
            }
            let (got, _) = t.knn_best_first(&[i64::MIN, i64::MAX], 4, &mut PlanScratch::default());
            assert_eq!(got, [0, 3, 2, 1]);
        }
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_panics() {
        PackedRTree::pack(&grid_points(2), &LinearOrder::identity(4), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_points_panic() {
        PackedRTree::pack(&[], &LinearOrder::identity(0), 4);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimensional_points_panic() {
        PackedRTree::pack(&[vec![], vec![]], &LinearOrder::identity(2), 4);
    }

    #[test]
    #[should_panic(expected = "every point must have dimension 2")]
    fn mixed_dimension_points_panic() {
        let pts = vec![vec![0, 0], vec![1, 1, 1], vec![2, 2]];
        PackedRTree::pack(&pts, &LinearOrder::identity(3), 4);
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn range_query_dimension_mismatch_panics() {
        let t = PackedRTree::pack(&grid_points(4), &LinearOrder::identity(16), 4);
        t.range_query(
            &Mbr {
                lo: vec![0, 0, 0],
                hi: vec![3, 3, 3],
            },
            &mut PlanScratch::default(),
        );
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn knn_dimension_mismatch_panics() {
        let t = PackedRTree::pack(&grid_points(4), &LinearOrder::identity(16), 4);
        t.knn_best_first(&[1], 3, &mut PlanScratch::default());
    }

    #[test]
    fn single_point_tree() {
        let pts = [vec![5, 5]];
        let t = PackedRTree::pack(&pts, &LinearOrder::identity(1), 4);
        assert_eq!(t.height(), 1);
        let (res, _) = t.range_query(
            &Mbr {
                lo: vec![0, 0],
                hi: vec![9, 9],
            },
            &mut PlanScratch::default(),
        );
        assert_eq!(res, vec![0]);
    }
}
