//! A persistent worker pool: long-lived threads fed by an MPMC channel.
//!
//! The parallel kernels in `slpm_linalg::parallel` spawn *scoped* threads
//! per call; spawning costs a few tens of microseconds, which dominates
//! below ~64k work items — exactly the regime query serving lives in (a
//! batch fans out into a handful of per-shard replay tasks and per-chunk
//! planning tasks, each far smaller than an eigensolve). [`WorkerPool`]
//! amortises that cost: threads are spawned **once**, park on a shared
//! [`crossbeam::channel`] receiver (the MPMC clone-able receiver is why
//! the shim grew channel support), and execute boxed jobs until the pool
//! is dropped.
//!
//! Scheduling never influences results: [`WorkerPool::run_batch`] returns
//! results **in task order** regardless of which worker ran what when, so
//! any deterministic set of tasks yields a deterministic batch result for
//! every thread count.

use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::sync::atomic::{AtomicUsize, Ordering};
use crossbeam::sync::thread::{self, JoinHandle};
use crossbeam::sync::{is_model_abort, Arc};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of long-lived worker threads.
///
/// Dropping the pool closes the job channel and joins every worker.
pub struct WorkerPool {
    /// `None` only during drop (taken to disconnect the channel).
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Jobs submitted via [`WorkerPool::submit`] that panicked (batch
    /// tasks re-raise their panics in the caller instead).
    panicked: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = channel::unbounded();
        let panicked = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|_| {
                let rx = receiver.clone();
                let panicked = Arc::clone(&panicked);
                thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panicking job must not take the worker (and
                        // the pool's capacity) down with it; count it and
                        // keep serving. The model checker's teardown
                        // signal is not a job failure: re-raise it.
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                            if is_model_abort(&*payload) {
                                resume_unwind(payload);
                            }
                            panicked.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            panicked,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Fire-and-forget: queue a job for whichever worker frees up first.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.submit_boxed(Box::new(job));
    }

    /// [`WorkerPool::submit`] for an already-boxed job — the sink shape
    /// `crossbeam::thread::run_scoped` lends borrowed work through.
    pub fn submit_boxed(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool is live until drop")
            .send(job)
            .expect("pool workers outlive the sender");
    }

    /// Run a batch of **borrowing** jobs on the pool's persistent
    /// workers, blocking until all complete — the scoped-thread shape
    /// (`crossbeam::thread::scope`) without the per-call spawn cost.
    /// Panics if any job panicked. Do not call from inside a pool job
    /// (same capacity caveat as [`WorkerPool::run_batch`]).
    pub fn run_scoped(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        crossbeam::thread::run_scoped(jobs, &mut |job| self.submit_boxed(job));
    }

    /// [`WorkerPool::run_scoped`] with caller participation: `local` runs
    /// on the calling thread between job submission and the completion
    /// wait, so the caller computes one span itself instead of idling —
    /// the shape `slpm_linalg`'s chunk-plan dispatcher wants (it hands
    /// the pool `workers − 1` jobs and keeps the last span).
    pub fn run_scoped_with_local<'env, L>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        local: L,
    ) where
        L: FnOnce(),
    {
        crossbeam::thread::run_scoped_with_local(jobs, &mut |job| self.submit_boxed(job), local);
    }

    /// Borrow this pool as an eigensolver backend: the returned
    /// [`slpm_linalg::Pool`] schedules the sparse kernels' chunked work
    /// onto these persistent workers instead of spawning scoped threads
    /// per call — one pool abstraction for compute and serving. Results
    /// are bitwise identical to every other backend and thread count.
    pub fn linalg_pool(&self) -> slpm_linalg::Pool<'_> {
        slpm_linalg::Pool::with_executor(self.threads(), self)
    }

    /// Count of submitted (fire-and-forget) jobs that panicked.
    pub fn panicked_jobs(&self) -> usize {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Run a batch of tasks on the pool and return their results **in
    /// task order**. The calling thread blocks (it only collects; with a
    /// single worker this degenerates to serial execution on the worker).
    /// Do not call from *inside* a pool job: the job would block its own
    /// worker waiting for capacity it occupies (a single-worker pool
    /// deadlocks outright).
    ///
    /// A panicking task is re-raised here, after the rest of the batch
    /// has drained — the first panic in task order wins.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let (tx, rx) = channel::unbounded();
        for (index, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            self.submit(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
                    if is_model_abort(&*payload) {
                        resume_unwind(payload);
                    }
                    payload
                });
                // The collector may have unwound already; a dead receiver
                // just discards the result.
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<thread::Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (index, outcome) = rx.recv().expect("one result per task");
            slots[index] = Some(outcome);
        }
        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        for slot in slots {
            match slot.expect("every slot filled") {
                Ok(value) => results.push(value),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    }
}

impl slpm_linalg::ScopeExecutor for WorkerPool {
    /// Lend the pool's workers to `slpm_linalg`'s chunked kernels — the
    /// jobs borrow the eigensolver's buffers; `run_scoped` blocks until
    /// every one has completed, so no borrow outlives the call.
    fn run_jobs(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        self.run_scoped(jobs);
    }

    /// Caller participation, for real: the dispatcher's own span runs on
    /// the calling thread while the pool works the submitted jobs — one
    /// fewer queue handoff per engagement than the default caller-merging
    /// implementation.
    fn run_jobs_with_caller<'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        caller: Box<dyn FnOnce() + Send + 'env>,
    ) {
        self.run_scoped_with_local(jobs, caller);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel; workers drain remaining jobs, then exit.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn batch_results_arrive_in_task_order() {
        let pool = WorkerPool::new(4);
        // Reverse sleep times so completion order inverts task order.
        let tasks: Vec<_> = (0..8u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis((8 - i) * 3));
                    i * i
                }
            })
            .collect();
        let results = pool.run_batch(tasks);
        assert_eq!(results, (0..8u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool_is_serial_but_correct() {
        let pool = WorkerPool::new(1);
        let results = pool.run_batch((0..16).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(results, (1..17).collect::<Vec<i32>>());
        assert_eq!(pool.threads(), 1);
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        // The point of persistence: many small batches on the same
        // threads. Track distinct worker threads observed.
        let pool = WorkerPool::new(2);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for round in 0..10 {
            let tasks: Vec<_> = (0..4)
                .map(|i| {
                    let seen = Arc::clone(&seen);
                    move || {
                        seen.lock().unwrap().insert(std::thread::current().id());
                        round * 4 + i
                    }
                })
                .collect();
            let got = pool.run_batch(tasks);
            assert_eq!(got, (round * 4..round * 4 + 4).collect::<Vec<_>>());
        }
        // 40 tasks landed on at most 2 (long-lived) threads.
        assert!(seen.lock().unwrap().len() <= 2);
    }

    #[test]
    fn submit_runs_and_pool_drains_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins the workers after the queue drains.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn batch_panic_is_propagated_to_the_caller() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task exploded")),
            Box::new(|| 3),
        ];
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks)));
        assert!(outcome.is_err());
        // The pool survives the panic and keeps serving.
        let results = pool.run_batch(vec![
            Box::new(|| 7usize) as Box<dyn FnOnce() -> usize + Send>
        ]);
        assert_eq!(results, vec![7]);
    }

    #[test]
    fn run_scoped_borrows_caller_data_on_pool_workers() {
        let pool = WorkerPool::new(3);
        let mut data = [0usize; 24];
        for round in 1..=3usize {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(8)
                .map(|chunk| {
                    Box::new(move || {
                        for v in chunk.iter_mut() {
                            *v += round;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }
        assert!(data.iter().all(|&v| v == 6));
    }

    #[test]
    fn linalg_kernels_on_the_serving_pool_match_serial_bitwise() {
        // The one-pool-abstraction adapter: eigensolver kernels scheduled
        // on the serving engine's persistent workers answer bit-for-bit
        // like the serial and scoped backends.
        let pool = WorkerPool::new(4);
        let shared = pool.linalg_pool();
        assert_eq!(shared.threads(), 4);
        // Above the kernels' light-op engagement threshold, so the level-1
        // kernels genuinely schedule onto the pool's workers.
        let n = slpm_linalg::parallel::LIGHT_SPAWN_MIN + 12_345;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let serial = slpm_linalg::Pool::serial();
        assert_eq!(
            shared.dot(&x, &y).to_bits(),
            serial.dot(&x, &y).to_bits(),
            "pooled dot diverged from serial"
        );
        let mut a = y.clone();
        let mut b = y.clone();
        serial.axpy(1.25, &x, &mut a);
        shared.axpy(1.25, &x, &mut b);
        assert_eq!(a, b);
        serial.center(&mut a);
        shared.center(&mut b);
        assert_eq!(a, b);
        // The pool keeps serving ordinary batches afterwards.
        assert_eq!(pool.run_batch(vec![|| 5usize]), vec![5]);
    }

    #[test]
    fn submitted_panics_are_counted_not_fatal() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("fire-and-forget failure"));
        // A later batch still runs on the same worker.
        let results = pool.run_batch(vec![|| 11usize]);
        assert_eq!(results, vec![11]);
        assert_eq!(pool.panicked_jobs(), 1);
    }
}
