//! A seek/transfer I/O cost model.
//!
//! Charges a query `seek_cost` per sequential run of pages plus
//! `transfer_cost` per page — the standard first-order disk model. With
//! `seek_cost ≫ transfer_cost` this rewards mappings that keep query
//! results contiguous (few clusters), which is precisely the paper's
//! locality argument stated in milliseconds.
//!
//! The model's two primitives map one-to-one onto the out-of-core tier
//! in [`crate::diskfile`]: a `seek` is starting one `PageFile::read_run`
//! (one positional read at the run's offset), a `transfer` is one page
//! frame read and checksum-verified inside that run. [`IoModel`]'s defaults keep
//! the paper's 2003-era spinning-disk ratio for cost *estimates*; the
//! serving stack's simulated-latency twin
//! (`slpm_serve::stream::ServiceModel`) instead calibrates its defaults
//! from measured `diskfile` read timings — same shape, different
//! coefficients, each documented where it lives.

use crate::pages::PageMapper;
use serde::Serialize;

/// Cost coefficients (arbitrary time units; defaults approximate a 2003-era
/// disk with ~10 ms seek and ~0.1 ms per 8 KiB page transfer, matching the
/// paper's publication context).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IoModel {
    /// Cost of starting a sequential run (seek + rotational latency).
    pub seek_cost: f64,
    /// Cost of transferring one page.
    pub transfer_cost: f64,
}

impl Default for IoModel {
    fn default() -> Self {
        IoModel {
            seek_cost: 10.0,
            transfer_cost: 0.1,
        }
    }
}

/// Broken-down cost of one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IoCost {
    /// Distinct pages read.
    pub pages: usize,
    /// Sequential runs (seeks).
    pub runs: usize,
    /// Total model cost `runs · seek + pages · transfer`.
    pub total: f64,
}

impl IoModel {
    /// Cost of reading the pages covering `vertices` under `mapper`.
    pub fn query_cost<I: IntoIterator<Item = usize> + Clone>(
        &self,
        mapper: &PageMapper,
        vertices: I,
    ) -> IoCost {
        let pages = mapper.page_count(vertices.clone());
        let runs = mapper.page_runs(vertices);
        IoCost {
            pages,
            runs,
            total: runs as f64 * self.seek_cost + pages as f64 * self.transfer_cost,
        }
    }

    /// Cost of a full sequential scan of `num_pages` pages (one seek).
    pub fn scan_cost(&self, num_pages: usize) -> f64 {
        if num_pages == 0 {
            0.0
        } else {
            self.seek_cost + num_pages as f64 * self.transfer_cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PageLayout;
    use spectral_lpm::LinearOrder;

    fn order16() -> LinearOrder {
        LinearOrder::identity(16)
    }

    #[test]
    fn contiguous_query_costs_one_seek() {
        let order = order16();
        let m = PageMapper::new(&order, PageLayout::new(2));
        let model = IoModel::default();
        let c = model.query_cost(&m, [0, 1, 2, 3]);
        assert_eq!(c.pages, 2);
        assert_eq!(c.runs, 1);
        assert!((c.total - (10.0 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn scattered_query_pays_per_run() {
        let order = order16();
        let m = PageMapper::new(&order, PageLayout::new(2));
        let model = IoModel::default();
        let c = model.query_cost(&m, [0, 6, 12]);
        assert_eq!(c.pages, 3);
        assert_eq!(c.runs, 3);
        assert!((c.total - (30.0 + 0.3)).abs() < 1e-12);
    }

    #[test]
    fn empty_query_is_free() {
        let order = order16();
        let m = PageMapper::new(&order, PageLayout::new(2));
        let c = IoModel::default().query_cost(&m, std::iter::empty());
        assert_eq!(c.pages, 0);
        assert_eq!(c.runs, 0);
        assert_eq!(c.total, 0.0);
    }

    #[test]
    fn scan_cost_is_single_seek() {
        let model = IoModel::default();
        assert!((model.scan_cost(100) - 20.0).abs() < 1e-12);
        assert_eq!(model.scan_cost(0), 0.0);
    }

    #[test]
    fn better_locality_costs_less() {
        // The same 4 vertices: contiguous under identity, scattered under a
        // permuted order.
        let contiguous_order = LinearOrder::identity(8);
        let contiguous = PageMapper::new(&contiguous_order, PageLayout::new(2));
        let scattered_order = LinearOrder::from_ranks(vec![0, 2, 4, 6, 1, 3, 5, 7]).unwrap();
        let scattered = PageMapper::new(&scattered_order, PageLayout::new(2));
        let model = IoModel::default();
        let q = [0usize, 1, 2, 3];
        assert!(model.query_cost(&contiguous, q).total < model.query_cost(&scattered, q).total);
    }
}
