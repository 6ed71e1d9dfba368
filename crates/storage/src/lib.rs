//! Page-based storage simulator for locality-preserving mappings.
//!
//! The paper's motivation (Section 1) is physical: place multi-dimensional
//! data on a one-dimensional medium — disk pages — so that spatially close
//! records share pages and queries touch few, mostly-contiguous pages.
//! This crate makes that motivation measurable:
//!
//! * [`pages`] — [`PageLayout`]/[`PageMapper`]: a linear order + page size
//!   give every point a page; queries are charged by pages touched.
//! * [`clustering`] — the **cluster count** of Moon, Jagadish, Faloutsos &
//!   Salz (the paper's reference \[4\]): the number of maximal runs of
//!   consecutive 1-D positions inside a query region, i.e. the number of
//!   sequential reads needed.
//! * [`io`] — a seek/transfer cost model turning pages + clusters into an
//!   I/O time estimate.
//! * [`decluster`] — round-robin declustering of pages over M parallel
//!   disks with per-query parallel response time.
//! * [`diskfile`] — the out-of-core tier: a checksummed page-file format
//!   laid out in linear-order sequence, with typed [`StorageError`]s and
//!   single-seek run reads (the readahead primitive). [`store::PageStore`]
//!   serves either backing — memory and disk are bitwise interchangeable.
//!
//! All structures operate on [`spectral_lpm::LinearOrder`], so every
//! mapping in the reproduction (spectral or fractal) can be evaluated
//! identically.
//!
//! ```
//! use slpm_storage::{cluster_count, IoModel, PageLayout, PageMapper};
//! use spectral_lpm::LinearOrder;
//!
//! let order = LinearOrder::identity(16);
//! let pages = PageMapper::new(&order, PageLayout::new(4));
//! let io = IoModel::default().query_cost(&pages, [0, 1, 2, 3]);
//! assert_eq!(io.pages, 1);                       // one page, one seek
//! assert_eq!(cluster_count(&order, [5, 6, 7]), 1); // contiguous ranks
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod clustering;
pub mod decluster;
pub mod diskfile;
pub mod io;
pub mod mbr;
pub mod pages;
pub mod rtree;
pub mod store;

pub use buffer::{BufferPool, BufferStats};
/// The page payload types of this crate's API, so callers that recycle
/// page buffers need no dependency of their own.
pub use bytes::{Bytes, BytesMut};
pub use clustering::cluster_count;
pub use decluster::{Declustering, RoundRobin};
pub use diskfile::{write_page_file, PageFile, PageFileHeader, StorageError};
pub use io::{IoCost, IoModel};
pub use mbr::{chebyshev, Mbr};
pub use pages::{PageLayout, PageMapper};
pub use rtree::{PackedRTree, PlanScratch, QueryCost};
pub use store::PageStore;
