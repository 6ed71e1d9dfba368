//! Building the comparison set of linear orders over one grid.
//!
//! Every experiment in the paper sweeps the same five mappings — Sweep,
//! Peano, Gray, Hilbert, Spectral — over one grid. [`MappingSet`] builds
//! them all as [`LinearOrder`]s keyed by row-major point index, so metric
//! code is completely mapping-agnostic.

use slpm_graph::grid::{Connectivity, GridSpec};
use slpm_linalg::Pool;
use slpm_sfc::{
    CurveError, CurveKind, GrayCurve, HilbertCurve, PeanoCurve, SnakeCurve, SpaceFillingCurve,
    SweepCurve,
};
use spectral_lpm::{LinearOrder, MappingError, SpectralConfig, SpectralMapper};
use std::fmt;

/// Label of one mapping in the comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingLabel {
    /// A space-filling curve (fractal or scan order).
    Curve(CurveKind),
    /// Spectral LPM under the given connectivity.
    Spectral(Connectivity),
}

impl fmt::Display for MappingLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingLabel::Curve(k) => write!(f, "{k}"),
            MappingLabel::Spectral(Connectivity::Orthogonal) => write!(f, "Spectral"),
            MappingLabel::Spectral(Connectivity::Full) => write!(f, "Spectral8"),
        }
    }
}

/// Errors when assembling a mapping set.
#[derive(Debug)]
pub enum MappingSetError {
    /// The grid is not a hypercube with power-of-two side (required by the
    /// recursive curves).
    Curve(CurveError),
    /// The spectral mapper failed.
    Spectral(MappingError),
}

impl fmt::Display for MappingSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingSetError::Curve(e) => write!(f, "curve construction: {e}"),
            MappingSetError::Spectral(e) => write!(f, "spectral mapping: {e}"),
        }
    }
}

impl std::error::Error for MappingSetError {}

impl From<CurveError> for MappingSetError {
    fn from(e: CurveError) -> Self {
        MappingSetError::Curve(e)
    }
}

impl From<MappingError> for MappingSetError {
    fn from(e: MappingError) -> Self {
        MappingSetError::Spectral(e)
    }
}

/// The comparison set: one [`LinearOrder`] per mapping over a common grid.
/// Orders are indexed by the grid's row-major point index.
pub struct MappingSet {
    spec: GridSpec,
    entries: Vec<(MappingLabel, LinearOrder)>,
}

impl MappingSet {
    /// Build the paper's five mappings (Sweep, Peano, Gray, Hilbert,
    /// Spectral-4conn) over a hypercube grid with power-of-two side.
    pub fn paper_set(spec: &GridSpec) -> Result<Self, MappingSetError> {
        let mut s = Self::curves_only(spec)?;
        let spectral = spectral_order(spec, SpectralConfig::default())?;
        s.entries
            .push((MappingLabel::Spectral(Connectivity::Orthogonal), spectral));
        Ok(s)
    }

    /// The four curve baselines only (no eigenwork) — used by benches that
    /// isolate curve cost.
    pub fn curves_only(spec: &GridSpec) -> Result<Self, MappingSetError> {
        let k = spec.ndim();
        let side = spec.dim(0) as u64;
        let uniform = spec.dims().iter().all(|&d| d as u64 == side);
        if !uniform {
            return Err(MappingSetError::Curve(CurveError::NotPowerOfTwo {
                side: 0,
            }));
        }
        let entries = vec![
            (
                MappingLabel::Curve(CurveKind::Sweep),
                curve_order(spec, &SweepCurve::new(&vec![side; k])?),
            ),
            (
                MappingLabel::Curve(CurveKind::Peano),
                curve_order(spec, &PeanoCurve::from_side(k, side)?),
            ),
            (
                MappingLabel::Curve(CurveKind::Gray),
                curve_order(spec, &GrayCurve::from_side(k, side)?),
            ),
            (
                MappingLabel::Curve(CurveKind::Hilbert),
                curve_order(spec, &HilbertCurve::from_side(k, side)?),
            ),
        ];
        Ok(MappingSet {
            spec: spec.clone(),
            entries,
        })
    }

    /// Paper set plus the Snake scan and Spectral under 8-connectivity —
    /// the extended set used by ablations.
    pub fn extended_set(spec: &GridSpec) -> Result<Self, MappingSetError> {
        let mut s = Self::paper_set(spec)?;
        let side = spec.dim(0) as u64;
        s.entries.push((
            MappingLabel::Curve(CurveKind::Snake),
            curve_order(spec, &SnakeCurve::new(&vec![side; spec.ndim()])?),
        ));
        let spectral8 = spectral_order(
            spec,
            SpectralConfig {
                connectivity: Connectivity::Full,
                ..Default::default()
            },
        )?;
        s.entries
            .push((MappingLabel::Spectral(Connectivity::Full), spectral8));
        Ok(s)
    }

    /// The grid all orders share.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Iterate over `(label, order)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MappingLabel, &LinearOrder)> {
        self.entries.iter().map(|(l, o)| (*l, o))
    }

    /// Number of mappings in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up one order by label.
    pub fn get(&self, label: MappingLabel) -> Option<&LinearOrder> {
        self.entries
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, o)| o)
    }
}

/// Evaluate a curve over every grid point, producing a [`LinearOrder`] on
/// row-major indices.
pub fn curve_order<C: SpaceFillingCurve + ?Sized>(spec: &GridSpec, curve: &C) -> LinearOrder {
    let n = spec.num_points();
    let mut codes = vec![0u64; n];
    for (i, coords) in spec.iter_points().enumerate() {
        let c32: Vec<u32> = coords.iter().map(|&c| c as u32).collect();
        codes[i] = curve.encode(&c32);
    }
    LinearOrder::from_codes(&codes)
}

/// Run Spectral LPM over the grid, producing its [`LinearOrder`].
pub fn spectral_order(
    spec: &GridSpec,
    config: SpectralConfig,
) -> Result<LinearOrder, MappingError> {
    let mapper = SpectralMapper::new(config);
    Ok(mapper.map_grid_on(spec, &Pool::default())?.order)
}

/// Build a curve order from its command-line name — the one dispatch table
/// shared by every binary that takes `--mapping` for a fractal/scan order
/// (`sweep`, `snake`, `peano`/`z`/`zorder`/`z-order`/`morton`, `gray`,
/// `hilbert`). Spectral mappings are not covered (they need a
/// [`SpectralConfig`]; see [`spectral_order`]).
pub fn curve_order_by_name(spec: &GridSpec, name: &str) -> Result<LinearOrder, String> {
    let side = spec.dim(0) as u64;
    let k = spec.ndim();
    let need_uniform = |name: &str| -> Result<(), String> {
        if spec.dims().iter().all(|&d| d as u64 == side) {
            Ok(())
        } else {
            Err(format!("{name} requires a hypercube grid"))
        }
    };
    match name.to_ascii_lowercase().as_str() {
        "sweep" => {
            let dims: Vec<u64> = spec.dims().iter().map(|&d| d as u64).collect();
            Ok(curve_order(
                spec,
                &SweepCurve::new(&dims).map_err(|e| e.to_string())?,
            ))
        }
        "snake" => {
            let dims: Vec<u64> = spec.dims().iter().map(|&d| d as u64).collect();
            Ok(curve_order(
                spec,
                &SnakeCurve::new(&dims).map_err(|e| e.to_string())?,
            ))
        }
        "peano" | "z" | "zorder" | "z-order" | "morton" => {
            need_uniform("peano")?;
            Ok(curve_order(
                spec,
                &PeanoCurve::from_side(k, side).map_err(|e| e.to_string())?,
            ))
        }
        "gray" => {
            need_uniform("gray")?;
            Ok(curve_order(
                spec,
                &GrayCurve::from_side(k, side).map_err(|e| e.to_string())?,
            ))
        }
        "hilbert" => {
            need_uniform("hilbert")?;
            Ok(curve_order(
                spec,
                &HilbertCurve::from_side(k, side).map_err(|e| e.to_string())?,
            ))
        }
        other => Err(format!(
            "unknown curve mapping '{other}' (sweep, snake, peano, gray, hilbert)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_order_by_name_matches_direct_construction() {
        let spec = GridSpec::cube(8, 2);
        let direct = curve_order(&spec, &HilbertCurve::from_side(2, 8).unwrap());
        assert_eq!(
            curve_order_by_name(&spec, "hilbert").unwrap().ranks(),
            direct.ranks()
        );
        // Aliases and case-insensitivity.
        assert_eq!(
            curve_order_by_name(&spec, "Morton").unwrap().ranks(),
            curve_order(&spec, &PeanoCurve::from_side(2, 8).unwrap()).ranks()
        );
        for name in ["sweep", "snake", "peano", "gray", "hilbert"] {
            assert!(curve_order_by_name(&spec, name).is_ok(), "{name}");
        }
        // Unknown names, non-cube grids and non-power-of-two sides error.
        assert!(curve_order_by_name(&spec, "spectral").is_err());
        assert!(curve_order_by_name(&GridSpec::new(&[4, 8]), "hilbert").is_err());
        assert!(curve_order_by_name(&GridSpec::cube(6, 2), "hilbert").is_err());
        // Scan orders accept any extents.
        assert!(curve_order_by_name(&GridSpec::new(&[4, 8]), "snake").is_ok());
    }

    #[test]
    fn paper_set_has_five_orders() {
        let spec = GridSpec::cube(4, 2);
        let set = MappingSet::paper_set(&spec).unwrap();
        assert_eq!(set.len(), 5);
        assert!(!set.is_empty());
        let labels: Vec<String> = set.iter().map(|(l, _)| l.to_string()).collect();
        assert_eq!(
            labels,
            vec!["Sweep", "Peano", "Gray", "Hilbert", "Spectral"]
        );
    }

    #[test]
    fn all_orders_are_permutations() {
        let spec = GridSpec::cube(4, 2);
        let set = MappingSet::extended_set(&spec).unwrap();
        assert_eq!(set.len(), 7);
        for (label, order) in set.iter() {
            assert_eq!(order.len(), 16, "{label}");
            let mut seen = [false; 16];
            for v in 0..16 {
                let p = order.rank_of(v);
                assert!(!seen[p], "{label}: position {p} duplicated");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn sweep_order_is_identity_on_row_major() {
        let spec = GridSpec::cube(4, 2);
        let set = MappingSet::paper_set(&spec).unwrap();
        let sweep = set.get(MappingLabel::Curve(CurveKind::Sweep)).unwrap();
        for v in 0..16 {
            assert_eq!(sweep.rank_of(v), v);
        }
    }

    #[test]
    fn non_power_of_two_rejected() {
        let spec = GridSpec::cube(6, 2);
        assert!(MappingSet::paper_set(&spec).is_err());
    }

    #[test]
    fn non_uniform_grid_rejected() {
        let spec = GridSpec::new(&[4, 8]);
        assert!(MappingSet::paper_set(&spec).is_err());
    }

    #[test]
    fn get_by_label() {
        let spec = GridSpec::cube(2, 2);
        let set = MappingSet::paper_set(&spec).unwrap();
        assert!(set
            .get(MappingLabel::Spectral(Connectivity::Orthogonal))
            .is_some());
        assert!(set.get(MappingLabel::Curve(CurveKind::Snake)).is_none());
    }

    #[test]
    fn hilbert_order_adjacent_ranks_adjacent_cells() {
        let spec = GridSpec::cube(4, 2);
        let set = MappingSet::paper_set(&spec).unwrap();
        let h = set.get(MappingLabel::Curve(CurveKind::Hilbert)).unwrap();
        for p in 1..16 {
            let a = spec.coords_of(h.vertex_at(p - 1));
            let b = spec.coords_of(h.vertex_at(p));
            assert_eq!(GridSpec::manhattan(&a, &b), 1);
        }
    }
}
