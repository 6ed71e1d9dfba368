//! Minimum bounding rectangles (MBRs) for the packed R-tree.

use serde::Serialize;

/// An axis-aligned minimum bounding rectangle over integer coordinates,
/// inclusive on both ends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Mbr {
    /// Inclusive lower corner.
    pub lo: Vec<i64>,
    /// Inclusive upper corner.
    pub hi: Vec<i64>,
}

impl Mbr {
    /// The MBR of a single point.
    pub fn point(p: &[i64]) -> Self {
        Mbr {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// The MBR of a non-empty set of points.
    ///
    /// # Panics
    /// Panics on an empty iterator — an empty MBR has no meaning here.
    pub fn of_points<'a, I: IntoIterator<Item = &'a [i64]>>(points: I) -> Self {
        let mut it = points.into_iter();
        let first = it.next().expect("MBR needs at least one point");
        let mut m = Mbr::point(first);
        for p in it {
            m.expand_point(p);
        }
        m
    }

    /// Dimensionality.
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Grow to include a point.
    pub fn expand_point(&mut self, p: &[i64]) {
        debug_assert_eq!(p.len(), self.ndim());
        for d in 0..self.lo.len() {
            self.lo[d] = self.lo[d].min(p[d]);
            self.hi[d] = self.hi[d].max(p[d]);
        }
    }

    /// True when the two rectangles overlap (share at least one point).
    pub fn intersects(&self, other: &Mbr) -> bool {
        boxes_intersect(&self.lo, &self.hi, &other.lo, &other.hi)
    }

    /// True when `p` lies inside.
    pub fn contains_point(&self, p: &[i64]) -> bool {
        p.iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(&c, (&l, &h))| c >= l && c <= h)
    }

    /// Volume as a count of integer points (product of extents).
    pub fn volume(&self) -> u128 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| (h - l + 1) as u128)
            .product()
    }

    /// Hyper-surface measure: sum of extents (the margin the R*-tree
    /// literature minimises); used as a packing-quality diagnostic.
    pub fn margin(&self) -> i64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| h - l)
            .sum()
    }

    /// Chebyshev (L∞) distance from `p` to the nearest point of this MBR
    /// (`0` when `p` lies inside). This is the lower bound a best-first
    /// kNN search orders its frontier by: no point under a subtree can be
    /// closer to `p` than its node MBR. Like [`chebyshev`], a distance
    /// past `i64::MAX` saturates to `i64::MAX`.
    pub fn min_chebyshev_dist(&self, p: &[i64]) -> i64 {
        debug_assert_eq!(p.len(), self.ndim());
        saturate(box_min_chebyshev(&self.lo, &self.hi, p))
    }
}

/// [`Mbr::intersects`] over borrowed corners, so the packed R-tree can
/// test its flat per-node bounds without building an `Mbr`.
pub(crate) fn boxes_intersect(alo: &[i64], ahi: &[i64], blo: &[i64], bhi: &[i64]) -> bool {
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .all(|((&alo, &ahi), (&blo, &bhi))| alo <= bhi && blo <= ahi)
}

/// The exact [`Mbr::min_chebyshev_dist`] over borrowed corners: two
/// `i64`s can lie up to `u64::MAX` apart, so the gap is a `u64`.
pub(crate) fn box_min_chebyshev(lo: &[i64], hi: &[i64], p: &[i64]) -> u64 {
    p.iter()
        .zip(lo.iter().zip(hi))
        .map(|(&c, (&l, &h))| {
            if c < l {
                l.abs_diff(c)
            } else if c > h {
                c.abs_diff(h)
            } else {
                0
            }
        })
        .max()
        .unwrap_or(0)
}

/// Chebyshev (L∞) distance between two points — the metric every kNN
/// query of the serving layer ranks neighbours by.
///
/// Two `i64` coordinates can lie up to `u64::MAX` apart; a distance past
/// `i64::MAX` saturates to `i64::MAX`, so points that far away tie here.
/// [`crate::PackedRTree::knn_best_first`] ranks by the exact distance.
pub fn chebyshev(a: &[i64], b: &[i64]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    saturate(
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| x.abs_diff(y))
            .max()
            .unwrap_or(0),
    )
}

/// `d` as an `i64`, pinned at `i64::MAX`.
fn saturate(d: u64) -> i64 {
    i64::try_from(d).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mbr() {
        let m = Mbr::point(&[1, 2]);
        assert_eq!(m.lo, vec![1, 2]);
        assert_eq!(m.hi, vec![1, 2]);
        assert_eq!(m.volume(), 1);
        assert_eq!(m.margin(), 0);
        assert!(m.contains_point(&[1, 2]));
        assert!(!m.contains_point(&[1, 3]));
    }

    #[test]
    fn of_points_covers_all() {
        let pts: Vec<Vec<i64>> = vec![vec![0, 5], vec![3, 1], vec![2, 2]];
        let m = Mbr::of_points(pts.iter().map(|p| p.as_slice()));
        assert_eq!(m.lo, vec![0, 1]);
        assert_eq!(m.hi, vec![3, 5]);
        assert_eq!(m.volume(), 20);
        assert_eq!(m.margin(), 3 + 4);
        for p in &pts {
            assert!(m.contains_point(p));
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_mbr_panics() {
        let empty: Vec<&[i64]> = vec![];
        Mbr::of_points(empty);
    }

    #[test]
    fn intersection_cases() {
        let a = Mbr {
            lo: vec![0, 0],
            hi: vec![2, 2],
        };
        let b = Mbr {
            lo: vec![2, 2],
            hi: vec![4, 4],
        }; // corner touch counts
        let c = Mbr {
            lo: vec![3, 0],
            hi: vec![4, 1],
        };
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        // a and c overlap in y ([0,2]∩[0,1]) but not in x ([0,2]∩[3,4]).
        assert!(!a.intersects(&c));
        // b and c overlap in x ([2,4]∩[3,4]) but not in y ([2,4]∩[0,1]).
        assert!(!b.intersects(&c));
    }

    #[test]
    fn min_chebyshev_dist_cases() {
        let m = Mbr {
            lo: vec![2, 2],
            hi: vec![5, 4],
        };
        // Inside and on the boundary: distance zero.
        assert_eq!(m.min_chebyshev_dist(&[3, 3]), 0);
        assert_eq!(m.min_chebyshev_dist(&[2, 4]), 0);
        // Outside along one axis.
        assert_eq!(m.min_chebyshev_dist(&[0, 3]), 2);
        assert_eq!(m.min_chebyshev_dist(&[3, 7]), 3);
        // Outside along both: Chebyshev takes the larger gap.
        assert_eq!(m.min_chebyshev_dist(&[0, 7]), 3);
        // Consistency: the bound never exceeds the distance to any
        // contained point.
        for p in [[2i64, 2], [5, 4], [4, 3]] {
            assert!(m.min_chebyshev_dist(&[-3, 9]) <= chebyshev(&[-3, 9], &p));
        }
    }

    #[test]
    fn chebyshev_distance_cases() {
        assert_eq!(chebyshev(&[0, 0], &[3, -2]), 3);
        assert_eq!(chebyshev(&[1, 1, 1], &[1, 1, 1]), 0);
        assert_eq!(chebyshev(&[], &[]), 0);
    }

    #[test]
    fn distances_across_the_whole_i64_range_do_not_overflow() {
        // `i64::MAX - i64::MIN` overflows an `i64` subtraction: it wrapped
        // to 1 in release and panicked in debug.
        assert_eq!(chebyshev(&[i64::MAX, 0], &[i64::MIN, 0]), i64::MAX);
        assert_eq!(chebyshev(&[0, i64::MIN], &[0, i64::MAX]), i64::MAX);
        assert_eq!(chebyshev(&[i64::MAX, 0], &[-1, 0]), i64::MAX);
        assert_eq!(chebyshev(&[i64::MAX - 1, 0], &[-1, 0]), i64::MAX);
        assert_eq!(chebyshev(&[i64::MAX - 2, 0], &[-1, 0]), i64::MAX - 1);
        let far = Mbr::point(&[i64::MAX, i64::MAX]);
        assert_eq!(
            box_min_chebyshev(&far.lo, &far.hi, &[i64::MIN, 0]),
            u64::MAX
        );
        assert_eq!(far.min_chebyshev_dist(&[i64::MIN, 0]), i64::MAX);
        let wide = Mbr {
            lo: vec![i64::MIN, i64::MIN],
            hi: vec![i64::MAX, i64::MAX],
        };
        assert_eq!(wide.min_chebyshev_dist(&[0, i64::MAX]), 0);
    }

    #[test]
    fn expand_operations() {
        let mut m = Mbr::point(&[1, 1]);
        m.expand_point(&[-1, 3]);
        assert_eq!(m.lo, vec![-1, 1]);
        assert_eq!(m.hi, vec![1, 3]);
        m.expand_point(&[9, -5]);
        assert_eq!(m.lo, vec![-1, -5]);
        assert_eq!(m.hi, vec![9, 3]);
    }
}
