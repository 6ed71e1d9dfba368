//! Facade crate for the Spectral LPM reproduction.
//!
//! Re-exports every workspace crate under one roof so examples, integration
//! tests and downstream experiments can depend on a single name:
//!
//! ```
//! use spectral_lpm_repro::prelude::*;
//! ```
//!
//! The individual crates are:
//! * [`linalg`] — the Fiedler eigensolvers (dense QL for small graphs, the
//!   multilevel coarsen–project–refine scheme above 96 vertices);
//! * [`graph`] — CSR graphs, k-D grid builders, Laplacians;
//! * [`sfc`] — Sweep/Snake/Peano/Gray/Hilbert space-filling curves;
//! * [`core`] — the Spectral LPM algorithm itself;
//! * [`querysim`] — the paper's evaluation workloads and metrics;
//! * [`storage`] — page placement, clustering metric, declustering;
//! * [`serve`] — the sharded, batched query-serving engine.

pub use slpm_graph as graph;
pub use slpm_linalg as linalg;
pub use slpm_querysim as querysim;
pub use slpm_serve as serve;
pub use slpm_sfc as sfc;
pub use slpm_storage as storage;
pub use spectral_lpm as core;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use slpm_graph::grid::{Connectivity, GridSpec};
    pub use slpm_graph::Graph;
    pub use slpm_linalg::{FiedlerMethod, FiedlerOptions, Pool};
    pub use slpm_serve::{EngineConfig, Partition, Query, ServeEngine, WorkerPool};
    pub use slpm_sfc::{
        CurveKind, GrayCurve, HilbertCurve, PeanoCurve, SnakeCurve, SpaceFillingCurve, SweepCurve,
    };
    pub use slpm_storage::{PageLayout, PageMapper};
    pub use spectral_lpm::{LinearOrder, SpectralConfig, SpectralMapper};
}
