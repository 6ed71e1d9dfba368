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
//! * [`operator`] — the [`operator::LinearOperator`] abstraction (`y = A x`
//!   and the Rayleigh quotient) over dense and CSR matrices.
//! * [`householder`] + [`tql`] — the classic dense symmetric eigensolver
//!   pipeline (tridiagonalise, then implicit-shift QL), used directly for
//!   small problems, for the multilevel coarsest level and for each
//!   block iteration's Rayleigh–Ritz problem.
//! * [`pcg`] — preconditioned conjugate gradients on CSR matrices for SPD
//!   (optionally mean-deflated) systems, with the preconditioner as an
//!   argument (Jacobi, or the multilevel V-cycle); many right-hand sides
//!   step in lockstep through one interleaved block, each column bitwise
//!   as it would run alone.
//! * [`multilevel`] — heavy-edge coarsening plus a coarsen–project–refine
//!   driver whose inner solves are preconditioned by an aggregation
//!   V-cycle on the same hierarchy, the path that scales the Fiedler
//!   computation to 10⁵–10⁶ vertices; also the solver's fallback
//!   counters ([`solver_counters`]).
//! * [`pool`] — [`WorkerPool`], the persistent worker threads that run
//!   every parallel job in the workspace: the kernels below and the
//!   serving engine's batches alike.
//! * [`parallel`] — the [`Pool`] handle the kernels take, with chunked
//!   `par_for` and deterministic tree-reduction primitives; the hot
//!   kernels (CSR matvec, dot/axpy, Jacobi smoothing, PCG) run on it with
//!   results bitwise identical to the serial path for every thread count.
//! * [`fiedler`] — the entry points: one solve
//!   ([`fiedler::smallest_nonzero_eigenpairs_on`]) behind the Fiedler pair,
//!   by the dense path or the multilevel scheme, the method chosen once per
//!   input size ([`FiedlerMethod::for_size`]: dense up to 96 vertices) unless
//!   the caller names one; the multilevel driver itself solves densely up
//!   to its coarsest size (256 vertices).
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

mod block;
pub mod dense;
pub mod error;
pub mod fiedler;
pub mod householder;
pub mod multilevel;
pub mod operator;
pub mod parallel;
pub mod pcg;
pub mod pool;
pub mod sparse;
pub mod tql;
pub mod vector;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use fiedler::{FiedlerMethod, FiedlerOptions, FiedlerPair};
pub use multilevel::{solver_counters, Coarsening, Hierarchy, MultilevelOptions, SolverCounters};
pub use operator::LinearOperator;
pub use parallel::{dispatch_counters, with_threads, DispatchCounters, Pool};
pub use pcg::CgOptions;
pub use pool::WorkerPool;
pub use sparse::CsrMatrix;
