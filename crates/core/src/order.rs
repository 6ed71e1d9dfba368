//! Linear orders (permutations) of a vertex/point set.
//!
//! Every locality-preserving mapping in this reproduction — spectral or
//! fractal — ultimately yields a [`LinearOrder`]: a bijection between
//! vertices `0..n` and positions `0..n`. The experiment layer consumes the
//! two lookup directions (`rank_of`, `vertex_at`) without caring where the
//! order came from.

use std::fmt;

/// Errors from order construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderError {
    /// The supplied ranks were not a permutation of `0..n`.
    NotAPermutation {
        /// First offending position or vertex.
        detail: String,
    },
    /// Value/key list length didn't match the expected vertex count.
    LengthMismatch {
        /// Expected number of vertices.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
}

impl fmt::Display for OrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderError::NotAPermutation { detail } => {
                write!(f, "ranks do not form a permutation: {detail}")
            }
            OrderError::LengthMismatch { expected, found } => {
                write!(f, "length mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for OrderError {}

/// A linear order of `n` vertices: a permutation with O(1) lookups in both
/// directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearOrder {
    /// `rank[v]` = position of vertex `v` in the order.
    rank: Vec<usize>,
    /// `perm[p]` = vertex at position `p`. Inverse of `rank`.
    perm: Vec<usize>,
}

impl LinearOrder {
    /// The identity order on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        LinearOrder {
            rank: v.clone(),
            perm: v,
        }
    }

    /// Build from a rank vector (`rank[v]` = position of vertex `v`).
    pub fn from_ranks(rank: Vec<usize>) -> Result<Self, OrderError> {
        let n = rank.len();
        let mut perm = vec![usize::MAX; n];
        for (v, &p) in rank.iter().enumerate() {
            if p >= n {
                return Err(OrderError::NotAPermutation {
                    detail: format!("vertex {v} has rank {p} ≥ n = {n}"),
                });
            }
            if perm[p] != usize::MAX {
                return Err(OrderError::NotAPermutation {
                    detail: format!("rank {p} assigned to both {} and {v}", perm[p]),
                });
            }
            perm[p] = v;
        }
        Ok(LinearOrder { rank, perm })
    }

    /// Build by sorting vertices on real-valued keys — the paper's step 5:
    /// "the linear order S of P is the order of the assigned values".
    ///
    /// Ties are broken by vertex index so the result is deterministic (the
    /// paper does not specify tie-breaking; any consistent rule preserves
    /// the optimality argument).
    ///
    /// Returns an error if any key is NaN (uncomparable).
    pub fn from_keys(keys: &[f64]) -> Result<Self, OrderError> {
        if keys.iter().any(|k| k.is_nan()) {
            return Err(OrderError::NotAPermutation {
                detail: "NaN key".to_string(),
            });
        }
        let n = keys.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by(|&a, &b| {
            keys[a]
                .partial_cmp(&keys[b])
                .expect("NaN ruled out above")
                .then(a.cmp(&b))
        });
        let mut rank = vec![0usize; n];
        for (p, &v) in perm.iter().enumerate() {
            rank[v] = p;
        }
        Ok(LinearOrder { rank, perm })
    }

    /// Like [`LinearOrder::from_keys`], but keys that differ by at most
    /// `tolerance` are treated as tied, so the vertex-index tie-break
    /// actually decides them. Plain `from_keys` only ties on *exact*
    /// equality, which lets eigensolver round-off (noise ~1e-10 on values
    /// that are equal in exact arithmetic, e.g. one grid row sharing one
    /// Fiedler value) scramble tied groups nondeterministically.
    ///
    /// Grouping walks the keys in sorted order, opening a group at the
    /// first ungrouped key and extending it while keys stay within
    /// `tolerance` **of the group's first key** (anchored, not chained —
    /// chaining would let a run of near-tolerance gaps merge keys whose
    /// total spread far exceeds the tolerance); each group is then ordered
    /// by vertex index.
    pub fn from_keys_snapped(keys: &[f64], tolerance: f64) -> Result<Self, OrderError> {
        let mut order = Self::from_keys(keys)?;
        for_each_snapped_group(&mut order.perm, keys, tolerance, <[usize]>::sort_unstable);
        for (p, &v) in order.perm.iter().enumerate() {
            order.rank[v] = p;
        }
        Ok(order)
    }

    /// Build by sorting vertices on integer codes (e.g. space-filling-curve
    /// ranks). Codes need not be dense; ties broken by vertex index.
    pub fn from_codes(codes: &[u64]) -> Self {
        let n = codes.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&v| (codes[v], v));
        let mut rank = vec![0usize; n];
        for (p, &v) in perm.iter().enumerate() {
            rank[v] = p;
        }
        LinearOrder { rank, perm }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True when the order is empty.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Position of vertex `v`.
    #[inline]
    pub fn rank_of(&self, v: usize) -> usize {
        self.rank[v]
    }

    /// Vertex at position `p`.
    #[inline]
    pub fn vertex_at(&self, p: usize) -> usize {
        self.perm[p]
    }

    /// The full rank vector (`rank[v]` = position).
    pub fn ranks(&self) -> &[usize] {
        &self.rank
    }

    /// The full permutation (`perm[p]` = vertex).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Absolute one-dimensional distance between two vertices in this order
    /// — the quantity Figure 5 measures.
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> usize {
        self.rank[u].abs_diff(self.rank[v])
    }

    /// The reversal of this order (equally optimal for every metric used in
    /// the paper; eigenvectors are sign-ambiguous so reversal is the
    /// canonical symmetry of spectral orders).
    pub fn reversed(&self) -> LinearOrder {
        let n = self.len();
        let rank: Vec<usize> = self.rank.iter().map(|&p| n - 1 - p).collect();
        let mut perm = vec![0usize; n];
        for (v, &p) in rank.iter().enumerate() {
            perm[p] = v;
        }
        LinearOrder { rank, perm }
    }
}

/// Cut `sorted` — vertex ids in ascending order of `keys` — into groups
/// anchored within `tolerance` of each group's first key (not chained:
/// see [`LinearOrder::from_keys_snapped`]) and hand each group to `f`.
pub(crate) fn for_each_snapped_group(
    sorted: &mut [usize],
    keys: &[f64],
    tolerance: f64,
    mut f: impl FnMut(&mut [usize]),
) {
    let mut i = 0;
    while i < sorted.len() {
        let anchor = keys[sorted[i]];
        let mut j = i + 1;
        while j < sorted.len() && keys[sorted[j]] - anchor <= tolerance {
            j += 1;
        }
        f(&mut sorted[i..j]);
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_order() {
        let o = LinearOrder::identity(4);
        for v in 0..4 {
            assert_eq!(o.rank_of(v), v);
            assert_eq!(o.vertex_at(v), v);
        }
        assert_eq!(o.len(), 4);
        assert!(!o.is_empty());
        assert!(LinearOrder::identity(0).is_empty());
    }

    #[test]
    fn from_ranks_valid() {
        let o = LinearOrder::from_ranks(vec![2, 0, 1]).unwrap();
        assert_eq!(o.vertex_at(0), 1);
        assert_eq!(o.vertex_at(1), 2);
        assert_eq!(o.vertex_at(2), 0);
        assert_eq!(o.rank_of(0), 2);
    }

    #[test]
    fn from_ranks_rejects_bad_input() {
        assert!(LinearOrder::from_ranks(vec![0, 0]).is_err());
        assert!(LinearOrder::from_ranks(vec![0, 5]).is_err());
    }

    #[test]
    fn from_keys_sorts_with_tiebreak() {
        // Paper Figure 3d: X = (−0.01, −0.29, −0.57, 0.28, 0, −0.28, 0.57,
        // 0.29, 0.01) yields S = (2, 1, 5, 0, 4, 8, 3, 7, 6) — vertex v's
        // rank is the position of its value in the sorted value list.
        let x = [-0.01, -0.29, -0.57, 0.28, 0.0, -0.28, 0.57, 0.29, 0.01];
        let o = LinearOrder::from_keys(&x).unwrap();
        let expected_ranks = [3, 1, 0, 6, 4, 2, 8, 7, 5];
        assert_eq!(o.ranks(), &expected_ranks);
        // Equivalently, reading positions: S in the paper lists the visit
        // sequence (vertex ids by ascending value).
        assert_eq!(o.permutation(), &[2, 1, 5, 0, 4, 8, 3, 7, 6]);
    }

    #[test]
    fn from_keys_ties_broken_by_index() {
        let o = LinearOrder::from_keys(&[1.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(o.permutation(), &[1, 3, 0, 2]);
    }

    #[test]
    fn from_keys_rejects_nan() {
        assert!(LinearOrder::from_keys(&[0.0, f64::NAN]).is_err());
    }

    #[test]
    fn from_keys_snapped_ties_near_values_by_index() {
        // Vertices 1 and 3 tie at ~0 (within tolerance), 0 and 2 at ~1;
        // round-off noise on the keys must not override the index order.
        let keys = [1.0, 1e-9, 1.0 - 1e-9, 0.0];
        let plain = LinearOrder::from_keys(&keys).unwrap();
        assert_eq!(plain.permutation(), &[3, 1, 2, 0]); // noise decides
        let snapped = LinearOrder::from_keys_snapped(&keys, 1e-7).unwrap();
        assert_eq!(snapped.permutation(), &[1, 3, 0, 2]); // index decides
        for (p, &v) in snapped.permutation().iter().enumerate() {
            assert_eq!(snapped.rank_of(v), p, "rank array rebuilt");
        }
    }

    #[test]
    fn from_keys_snapped_groups_are_anchored_not_chained() {
        // Sorted keys are 0 (v1), 0.6t (v2), 1.2t (v0): consecutive gaps
        // are each 0.6·tol, so *chained* grouping would merge all three and
        // index order would emit [0, 1, 2]. Anchored grouping merges only
        // [0, 0.6t] (1.2t is > tol from the anchor 0), keeping v0 last.
        let t = 1e-3;
        let keys = [1.2 * t, 0.0, 0.6 * t];
        let o = LinearOrder::from_keys_snapped(&keys, t).unwrap();
        assert_eq!(o.permutation(), &[1, 2, 0]);

        // Strictly within one tolerance of the anchor: all three merge and
        // index order wins.
        let keys = [0.9 * t, 0.0, 0.6 * t];
        let o = LinearOrder::from_keys_snapped(&keys, t).unwrap();
        assert_eq!(o.permutation(), &[0, 1, 2]);
    }

    #[test]
    fn from_keys_snapped_zero_tolerance_matches_from_keys() {
        let keys = [0.25, -1.0, 0.5, 0.25, 3.0];
        let a = LinearOrder::from_keys(&keys).unwrap();
        let b = LinearOrder::from_keys_snapped(&keys, 0.0).unwrap();
        assert_eq!(a.permutation(), b.permutation());
    }

    #[test]
    fn from_codes_sparse_codes() {
        let o = LinearOrder::from_codes(&[100, 3, 77]);
        assert_eq!(o.permutation(), &[1, 2, 0]);
    }

    #[test]
    fn distance_is_symmetric() {
        let o = LinearOrder::from_ranks(vec![0, 3, 1, 2]).unwrap();
        assert_eq!(o.distance(0, 1), 3);
        assert_eq!(o.distance(1, 0), 3);
        assert_eq!(o.distance(2, 3), 1);
        assert_eq!(o.distance(2, 2), 0);
    }

    #[test]
    fn reversed_inverts_positions() {
        let o = LinearOrder::from_ranks(vec![0, 1, 2]).unwrap();
        let r = o.reversed();
        assert_eq!(r.ranks(), &[2, 1, 0]);
        assert_eq!(r.reversed(), o);
        // Distances are invariant under reversal.
        assert_eq!(o.distance(0, 2), r.distance(0, 2));
    }

    #[test]
    fn rank_and_perm_are_inverse() {
        let o = LinearOrder::from_keys(&[0.3, -0.5, 0.1, 0.9]).unwrap();
        for v in 0..4 {
            assert_eq!(o.vertex_at(o.rank_of(v)), v);
        }
        for p in 0..4 {
            assert_eq!(o.rank_of(o.vertex_at(p)), p);
        }
    }
}
