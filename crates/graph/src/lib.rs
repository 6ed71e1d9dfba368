//! Graph substrate for Spectral LPM.
//!
//! Step 1 of the paper's algorithm models a multi-dimensional point set as a
//! graph `G(V, E)`: one vertex per point, an edge wherever two points lie at
//! Manhattan distance 1. Section 4 generalises this to 8-connectivity
//! (Chebyshev distance 1), arbitrary *affinity* edges encoding access
//! correlations, and weighted graphs. This crate supplies all of those
//! graph models plus the Laplacian `L = D − A` that the eigensolver layer
//! consumes:
//!
//! * [`graph`] — the weighted undirected [`Graph`] type, stored as its own
//!   Laplacian in one CSR matrix and built by [`Graph::from_edges`]; edges,
//!   degrees and neighbours are read from that matrix.
//! * [`grid`] — k-dimensional grid specifications with index ⇄ coordinate
//!   conversion and grid-graph builders for every connectivity the paper
//!   uses.
//! * [`points`] — arbitrary (possibly sparse/non-grid) integer point sets
//!   and their neighbourhood graphs.
//! * [`traversal`] — BFS, connectivity and component analysis (Spectral LPM
//!   requires a connected graph; disconnected inputs are surfaced as typed
//!   errors upstream).
//!
//! ```
//! use slpm_graph::grid::{Connectivity, GridSpec};
//!
//! let spec = GridSpec::new(&[3, 3]);
//! let graph = spec.graph(Connectivity::Orthogonal); // paper step 1
//! let laplacian = graph.laplacian();                // paper step 2
//! assert_eq!(graph.num_edges(), 12);
//! assert_eq!(laplacian.get(4, 4), 4.0);             // centre degree
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod grid;
pub mod points;
pub mod traversal;

pub use graph::{Graph, GraphError};
pub use grid::{Connectivity, GridSpec};
pub use points::PointSet;
