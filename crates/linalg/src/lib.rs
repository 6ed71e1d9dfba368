//! Dense and sparse symmetric linear algebra for the Spectral LPM reproduction.
//!
//! The ICDE 2003 paper reduces locality-preserving mapping to one numerical
//! problem: *find the second-smallest eigenvalue λ₂ and its eigenvector (the
//! Fiedler vector) of a graph Laplacian*. Mature sparse eigensolver crates
//! are not available in this environment, so this crate implements the whole
//! numerical substrate from scratch:
//!
//! * [`vector`] — primitive kernels on `&[f64]` slices (dot, axpy, norms,
//!   projections) shared by every solver.
//! * [`dense`] — a row-major dense matrix with symmetric helpers.
//! * [`sparse`] — a compressed-sparse-row (CSR) symmetric matrix, the format
//!   in which graph Laplacians are materialised.
//! * [`operator`] — the [`operator::LinearOperator`] abstraction that lets
//!   Lanczos and CG run on dense matrices, CSR matrices, or composed
//!   operators (shifted, projected, inverted) without copies.
//! * [`householder`] + [`tql`] — the classic dense symmetric eigensolver
//!   pipeline (tridiagonalise, then implicit-shift QL), used directly for
//!   small problems and to solve the Lanczos Ritz problem.
//! * [`jacobi`] — a cyclic Jacobi eigensolver used as an independent
//!   cross-check in tests.
//! * [`cg`] — conjugate gradients for SPD (optionally deflated) systems.
//! * [`pcg`] — preconditioned CG on CSR matrices, with the preconditioner
//!   as an argument (Jacobi, or the multilevel V-cycle).
//! * [`lanczos`] — Lanczos iteration with full reorthogonalisation.
//! * [`multilevel`] — heavy-edge coarsening plus a coarsen–project–refine
//!   driver whose inner solves are preconditioned by an aggregation
//!   V-cycle on the same hierarchy, the path that scales the Fiedler
//!   computation to 10⁵–10⁶ vertices; also the solver's fallback
//!   counters ([`solver_counters`]).
//! * [`parallel`] — a scoped worker pool with chunked `par_for` and
//!   deterministic tree-reduction primitives; the hot kernels (CSR matvec,
//!   dot/axpy, Jacobi smoothing, PCG) run on it with results bitwise
//!   identical to the serial path for every thread count.
//! * [`fiedler`] — the high-level entry point: compute the Fiedler pair of a
//!   Laplacian by shift-invert Lanczos (default), shifted direct Lanczos,
//!   the dense path, or the multilevel scheme.
//!
//! All algorithms are deterministic given the caller-supplied RNG seed.
//!
//! ```
//! use slpm_linalg::sparse::CsrMatrix;
//! use slpm_linalg::fiedler::{fiedler_pair_on, FiedlerOptions};
//! use slpm_linalg::Pool;
//!
//! // Path graph 0—1—2 Laplacian; its Fiedler value is 1.
//! let lap = CsrMatrix::from_triplets(3, 3, &[
//!     (0, 0, 1.0), (0, 1, -1.0),
//!     (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
//!     (2, 1, -1.0), (2, 2, 1.0),
//! ]).unwrap();
//! let pair = fiedler_pair_on(&lap, &FiedlerOptions::default(), &Pool::default()).unwrap();
//! assert!((pair.lambda2 - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod dense;
pub mod error;
pub mod fiedler;
pub mod householder;
pub mod jacobi;
pub mod lanczos;
pub mod multilevel;
pub mod operator;
pub mod parallel;
pub mod pcg;
pub mod sparse;
pub mod tql;
pub mod vector;

pub use cg::{CgOptions, CgOutcome};
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use fiedler::{FiedlerMethod, FiedlerOptions, FiedlerPair};
pub use lanczos::{LanczosOptions, LanczosResult};
pub use multilevel::{
    solver_counters, Coarsening, Hierarchy, MultilevelOptions, Prolongation, SolverCounters,
};
pub use operator::LinearOperator;
pub use parallel::{dispatch_counters, DispatchCounters, Pool, ScopeExecutor};
pub use sparse::CsrMatrix;
