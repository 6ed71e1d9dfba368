//! The pool's dispatch counters ([`dispatch_counters`]).
//!
//! The counters are process-wide, so the check lives alone in this test
//! binary: no other test's parallel kernels can run concurrently and
//! bleed into the deltas.

use slpm_linalg::parallel::REDUCE_CHUNK;
use slpm_linalg::{dispatch_counters, CsrMatrix, DispatchCounters, WorkerPool};

#[test]
fn dispatch_counters_count_submitted_jobs() {
    // A heavy engagement at 4 threads submits workers - 1 jobs and covers
    // the whole chunk grid exactly once.
    let n = 24_000; // 6 chunks
    let path: Vec<_> = (1..n)
        .flat_map(|i| [(i - 1, i, -1.0), (i, i - 1, -1.0)])
        .collect();
    let lap = CsrMatrix::from_triplets(n, n, &path).unwrap();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let mut y = vec![0.0; n];
    let workers = WorkerPool::new(4);
    let before = dispatch_counters();
    workers
        .linalg_pool()
        .for_each_chunk(&mut y, |row0, span| lap.matvec_rows_into(row0, &x, span));
    let d = dispatch_counters().since(&before);
    let expect = DispatchCounters {
        scope_entries: 1,
        jobs_submitted: 3,
        chunks_executed: n.div_ceil(REDUCE_CHUNK) as u64,
    };
    assert_eq!(d, expect);
    assert_eq!(y, lap.matvec(&x).unwrap());
}
