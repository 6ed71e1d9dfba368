//! Host speed, measured by a fixed reference kernel during the run.
//!
//! The kernel is the benchmark's own code and never calls the program, so
//! a change to the program cannot move it; only the host can. Its median
//! thread CPU time per round, against [`NOMINAL_ROUND_S`], gives the
//! factor the end-to-end times are scaled by (see `perfbench/README.md`).

use crate::sys;
use std::hint::black_box;

/// CPU seconds one round takes on the host at its nominal speed: the
/// typical median on the 2-vCPU host the bounds were set on.
pub const NOMINAL_ROUND_S: f64 = 1.5e-3;

/// Side of the grid whose 5-point stencil the kernel multiplies by.
const SIDE: usize = 224;
/// Binary searches per round, each with a small allocation: the branchy,
/// allocating half of the mix, like query planning.
const PROBES: usize = 20_000;

pub struct Reference {
    /// CSR of the 5-point stencil on a `SIDE × SIDE` grid.
    offsets: Vec<usize>,
    cols: Vec<usize>,
    x: Vec<f64>,
    y: Vec<f64>,
    keys: Vec<u64>,
    rounds_s: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let n = SIDE * SIDE;
        let mut offsets = vec![0];
        let mut cols = Vec::with_capacity(5 * n);
        for r in 0..SIDE {
            for c in 0..SIDE {
                let v = r * SIDE + c;
                if r > 0 {
                    cols.push(v - SIDE);
                }
                if c > 0 {
                    cols.push(v - 1);
                }
                cols.push(v);
                if c + 1 < SIDE {
                    cols.push(v + 1);
                }
                if r + 1 < SIDE {
                    cols.push(v + SIDE);
                }
                offsets.push(cols.len());
            }
        }
        let mut keys: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> 7)
            .collect();
        keys.sort_unstable();
        Reference {
            offsets,
            cols,
            x: (0..n).map(|i| (i % 7) as f64 - 3.0).collect(),
            y: vec![0.0; n],
            keys,
            rounds_s: Vec::new(),
        }
    }

    /// Time `rounds` rounds of the kernel.
    pub fn sample(&mut self, rounds: usize) {
        for _ in 0..rounds {
            let cpu = sys::thread_cpu_s();
            self.round();
            self.rounds_s.push(sys::thread_cpu_s() - cpu);
        }
    }

    /// Median CPU seconds per round over every sample so far.
    pub fn median_round_s(&self) -> f64 {
        crate::untraced::median(&self.rounds_s)
    }

    fn round(&mut self) {
        for (row, y) in self.y.iter_mut().enumerate() {
            let (lo, hi) = (self.offsets[row], self.offsets[row + 1]);
            let sum: f64 = self.cols[lo..hi].iter().map(|&c| self.x[c]).sum();
            *y = 0.25 * sum - self.x[row];
        }
        std::mem::swap(&mut self.x, &mut self.y);
        let mut probe = 0x5EEDu64;
        let mut hits = 0usize;
        for _ in 0..PROBES {
            probe = probe
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            hits += usize::from(self.keys.binary_search(&(probe >> 40)).is_ok());
            let scratch: Vec<u64> = Vec::with_capacity(16 + (probe & 15) as usize);
            black_box(&scratch);
        }
        black_box((hits, &self.x));
    }
}
