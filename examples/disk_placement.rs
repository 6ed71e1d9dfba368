//! Disk placement for a synthetic GIS workload — the paper's motivating
//! application (Section 1).
//!
//! A city's points of interest cluster around a few hot spots. We place the
//! records on disk pages in three different linear orders (Sweep, Hilbert,
//! Spectral LPM), then run the same set of map-window (range) queries
//! against a simulated page store and compare real I/O: pages read, seeks,
//! and modelled latency.
//!
//! Run with: `cargo run --release --example disk_placement`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slpm_querysim::mappings::curve_order;
use slpm_querysim::workloads::RangeBox;
use slpm_storage::store::PageStore;
use slpm_storage::{IoModel, PageLayout, PageMapper};
use spectral_lpm_repro::prelude::*;

fn main() {
    let side = 16usize;
    let spec = GridSpec::cube(side, 2);
    let n = spec.num_points();

    // Three placements of the same record set.
    let sweep = SweepCurve::new(&[side as u64, side as u64]).unwrap();
    let hilbert = HilbertCurve::from_side(2, side as u64).unwrap();
    let spectral = SpectralMapper::new(SpectralConfig::default())
        .map_grid_on(&spec, &Pool::default())
        .expect("grid connected")
        .order;
    let orders: Vec<(&str, spectral_lpm::LinearOrder)> = vec![
        ("Sweep", curve_order(&spec, &sweep)),
        ("Hilbert", curve_order(&spec, &hilbert)),
        ("Spectral", spectral),
    ];

    // A seeded workload of map-window queries biased to a hot spot — the
    // "downtown" of our synthetic city.
    let mut rng = StdRng::seed_from_u64(2003);
    let mut queries: Vec<RangeBox> = Vec::new();
    for _ in 0..64 {
        let w = rng.gen_range(2usize..=5);
        let h = rng.gen_range(2usize..=5);
        // Bias the window towards the hot spot at (4, 4).
        let cx = (rng.gen_range(0..side - w) + 4) / 2;
        let cy = (rng.gen_range(0..side - h) + 4) / 2;
        queries.push(RangeBox {
            lo: vec![cx, cy],
            hi: vec![cx + w - 1, cy + h - 1],
        });
    }

    let layout = PageLayout::new(8);
    let model = IoModel::default();
    println!(
        "Disk placement of a {side}x{side} point grid, {} records, {} records/page\n",
        n, layout.records_per_page
    );

    // Workload 1: map-window (range) queries.
    println!(
        "Workload 1 — {} map-window queries (2..5 cells a side):",
        queries.len()
    );
    println!(
        "{:>10}  {:>11}  {:>9}  {:>12}  {:>12}",
        "placement", "pages read", "seeks", "model cost", "store reads"
    );
    for (name, order) in &orders {
        let mapper = PageMapper::new(order, layout);
        let all: Vec<usize> = (0..mapper.num_pages()).collect();
        let store = PageStore::in_memory(&mapper, 64, &all);
        let mut pages = 0usize;
        let mut seeks = 0usize;
        let mut cost = 0.0f64;
        for q in &queries {
            let vertices: Vec<usize> = q.indices(&spec).collect();
            let io = model.query_cost(&mapper, vertices.iter().copied());
            pages += io.pages;
            seeks += io.runs;
            cost += io.total;
            // Each distinct page of the window is read once.
            for page in mapper.pages_touched(vertices.iter().copied()) {
                store
                    .read_page(page, None)
                    .expect("the store owns every page");
            }
        }
        println!(
            "{:>10}  {:>11}  {:>9}  {:>12.1}  {:>12}",
            name,
            pages,
            seeks,
            cost,
            store.total_reads()
        );
    }

    // Workload 2: nearest-neighbour probes — fetch each point together with
    // its 4 grid neighbours (the access pattern of a spatial-join or kNN
    // expansion step).
    println!("\nWorkload 2 — neighbour probes (each point + its 4-neighbours):");
    println!(
        "{:>10}  {:>11}  {:>9}  {:>12}",
        "placement", "pages read", "seeks", "model cost"
    );
    for (name, order) in &orders {
        let mapper = PageMapper::new(order, layout);
        let mut pages = 0usize;
        let mut seeks = 0usize;
        let mut cost = 0.0f64;
        for p in spec.iter_points() {
            let mut q = vec![spec.index_of(&p)];
            for d in 0..2 {
                if p[d] > 0 {
                    let mut c = p.clone();
                    c[d] -= 1;
                    q.push(spec.index_of(&c));
                }
                if p[d] + 1 < side {
                    let mut c = p.clone();
                    c[d] += 1;
                    q.push(spec.index_of(&c));
                }
            }
            let io = model.query_cost(&mapper, q.iter().copied());
            pages += io.pages;
            seeks += io.runs;
            cost += io.total;
        }
        println!("{:>10}  {:>11}  {:>9}  {:>12.1}", name, pages, seeks, cost);
    }

    println!(
        "\nSeeks dominate the model (10 : 0.1 per page). On compact window queries\n\
         the Hilbert curve's square-tile recursion is hard to beat; on\n\
         neighbour-probe workloads the spectral order matches Hilbert's seeks\n\
         and roughly halves Sweep's cost — its global optimisation keeps every\n\
         adjacent pair close, which is exactly what probe workloads reward."
    );
}
