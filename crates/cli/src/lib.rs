//! Command-line interface to the Spectral LPM reproduction.
//!
//! The `slpm` binary exposes the library to shell users:
//!
//! ```text
//! slpm order   --grid 8x8 --mapping spectral [--csv]   # rank per point
//! slpm fiedler --grid 8x8 [--method dense]             # λ₂ + vector
//! slpm figure  fig5a                                   # regenerate a figure
//! slpm experiment knn                                  # extra experiments
//! slpm help
//! ```
//!
//! [`flags`] is the one flag parser of the workspace (no CLI crates in the
//! dependency budget): every command, here and in the `serve_bench` and
//! `pipeline_scale` binaries, declares one table of `(flag, kind of value,
//! setter)` rows that it parses, fills its defaults and prints its usage
//! from. [`args`] holds the `slpm` tables, each filling the library's own
//! configuration (`slpm serve` fills `EngineConfig`, `WorkloadConfig` and
//! `StreamConfig`); [`commands`] executes a parsed command.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod flags;

pub use args::{Command, ParseError};
