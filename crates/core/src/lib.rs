//! # Spectral LPM
//!
//! A from-scratch Rust implementation of the **Spectral Locality-Preserving
//! Mapping** algorithm of Mokbel, Aref and Grama (ICDE 2003): an optimal
//! (in the spectral-relaxation sense) mapping from multi-dimensional point
//! sets to a one-dimensional order, built on the Fiedler vector of the
//! point set's neighbourhood graph rather than on fractal space-filling
//! curves.
//!
//! ## The algorithm (paper Figure 2)
//!
//! 1. Model the point set `P` as a graph `G(V, E)`: a vertex per point, an
//!    edge between points at Manhattan distance 1.
//! 2. Form the Laplacian `L = D − A`.
//! 3. Compute the second-smallest eigenvalue λ₂ and its eigenvector `v₂`
//!    (the Fiedler vector).
//! 4. Assign `v₂[i]` to point `i`.
//! 5. The linear order of `P` is the sort order of those values.
//!
//! ## Quick start
//!
//! ```
//! use slpm_graph::grid::{Connectivity, GridSpec};
//! use slpm_linalg::Pool;
//! use spectral_lpm::{SpectralConfig, SpectralMapper};
//!
//! // The paper's Figure 3: a 3×3 grid, solved on the machine-default pool.
//! let spec = GridSpec::new(&[3, 3]);
//! let mapper = SpectralMapper::new(SpectralConfig::default());
//! let mapping = mapper.map_grid_on(&spec, &Pool::default()).unwrap();
//!
//! // λ₂ of the 3×3 grid graph is exactly 1 (Figure 3d).
//! assert!((mapping.fiedler.lambda2 - 1.0).abs() < 1e-6);
//! // The result is a permutation of the 9 vertices.
//! assert_eq!(mapping.order.len(), 9);
//! ```
//!
//! ## Extensibility (paper Section 4)
//!
//! * 8-connectivity or weighted neighbourhood graphs:
//!   [`SpectralConfig::connectivity`] / [`SpectralMapper::map_graph_on`];
//! * access-affinity edges ("whenever `p` is accessed, `q` follows"):
//!   [`affinity::AffinityEdge`] and [`SpectralMapper::map_graph_with_affinity`].
//!
//! ## Optimality (paper Theorems 1–3)
//!
//! The Fiedler vector minimises `Σ_{(i,j)∈E} w_ij (x_i − x_j)²` over unit
//! vectors orthogonal to 𝟙 (Fiedler 1973). [`objective`] provides both that
//! continuous objective and its integer (linear-arrangement) counterparts so
//! tests and benchmarks can verify the bound `λ₂ ≤ 2·OBJ(π)/(n·Var)` style
//! relations directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod diagnostics;
pub mod mapper;
pub mod objective;
pub mod order;
pub mod recursive;

pub use affinity::AffinityEdge;
pub use diagnostics::OrderReport;
pub use mapper::{MappingError, SpectralConfig, SpectralMapper, SpectralMapping};
pub use order::LinearOrder;
pub use recursive::{multi_vector_order_on, rsb_order_on, RsbOptions};
