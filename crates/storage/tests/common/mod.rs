//! Shared pieces of the R-tree property tests: the packing rule restated
//! as levels of MBRs, a coordinate strategy that reaches both ends of
//! `i64`, and point sets whose packed leaves are tall columns, the shape
//! the leaf key index is built for.

use proptest::prelude::*;
use slpm_storage::Mbr;
use spectral_lpm::LinearOrder;

/// A coordinate: half the draws in `-4..=4`, the rest next to either end
/// of `i64`, so spans and distances cross the whole range and wrap when
/// subtracted.
pub fn coord() -> impl Strategy<Value = i64> {
    prop_oneof![
        -4i64..=4,
        -4i64..=4,
        i64::MIN..=i64::MIN + 3,
        i64::MAX - 3..=i64::MAX
    ]
}

/// The packing rule, restated: leaf MBRs over consecutive runs of
/// `fanout` packed positions, then each level's MBRs over consecutive
/// runs of `fanout` MBRs of the level below, up to one root.
pub fn reference_levels(points: &[Vec<i64>], order: &LinearOrder, fanout: usize) -> Vec<Vec<Mbr>> {
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

/// A fanout: small ones give deep trees, large ones (64 is the serving
/// default) give long leaves, and those above 64 give leaves that span
/// two or three `u64` words of the range planner's leaf bitset, the last
/// word often partial.
pub fn fanout() -> impl Strategy<Value = usize> {
    prop_oneof![2usize..=9, 10usize..=64, 65usize..=130]
}

/// `(points, order keys, fanout)` of a 2-D set packed column by column,
/// so its leaves are tall runs of one or two columns whose key is `y`:
/// - up to 256 points in 1–4 columns, `y` drawn from `-200..=200`, so a
///   column holds duplicates and its points are out of `y` order;
/// - or a `w × h` grid with up to three disc holes, swept by `x`.
pub fn tall_case() -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<u64>, usize)> {
    let columns = (1i64..=4, 1usize..=256).prop_flat_map(|(cols, n)| {
        (
            proptest::collection::vec((0..cols, -200i64..=200), n),
            fanout(),
        )
            .prop_map(|(xy, fanout)| {
                let keys = xy.iter().map(|&(x, _)| x as u64).collect();
                (
                    xy.into_iter().map(|(x, y)| vec![x, y]).collect(),
                    keys,
                    fanout,
                )
            })
    });
    let holey = (
        4i64..=24,
        8i64..=48,
        proptest::collection::vec((0i64..24, 0i64..48, 1i64..=4), 0..=3),
        fanout(),
    )
        .prop_map(|(w, h, holes, fanout)| {
            let points: Vec<Vec<i64>> = (0..w)
                .flat_map(|x| (0..h).map(move |y| vec![x, y]))
                .filter(|p| {
                    p == &[0, 0]
                        || holes
                            .iter()
                            .all(|&(cx, cy, r)| (p[0] - cx).pow(2) + (p[1] - cy).pow(2) > r * r)
                })
                .collect();
            let keys = points.iter().map(|p| (p[0] * h + p[1]) as u64).collect();
            (points, keys, fanout)
        });
    prop_oneof![columns, holey]
}
