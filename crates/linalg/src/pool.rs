//! A persistent worker pool: long-lived threads fed by an MPMC channel.
//!
//! The workspace's one parallel backend. The chunked kernels in
//! [`crate::parallel`] run on it (through [`WorkerPool::linalg_pool`] or
//! the process-wide pool behind [`crate::Pool::default`]), and so does the
//! serving engine, whose batches fan out into per-shard replay tasks and
//! per-chunk planning tasks. Threads are spawned **once**, park on a
//! shared [`crossbeam::channel`] receiver (the MPMC clone-able receiver is
//! why the shim grew channel support), and execute boxed jobs until the
//! pool is dropped; a call costs a channel round-trip, not a thread spawn.
//!
//! The pool is written against the `crossbeam::sync` facade, so the model
//! checker explores the real pool wherever it explores code that builds
//! one.

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
    /// Jobs that panicked on a worker. A scoped job's panic is also
    /// re-raised in its caller.
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
    fn submit_boxed(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool is live until drop")
            .send(job)
            .expect("pool workers outlive the sender");
    }

    /// Run a batch of **borrowing** jobs on the pool's persistent
    /// workers, blocking until all complete. Panics (after every job has
    /// settled) if any job panicked; the workers keep serving. Do not
    /// call from *inside* a pool job: the job would block its own worker
    /// waiting for capacity it occupies (a single-worker pool deadlocks
    /// outright).
    pub fn run_scoped(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        crossbeam::thread::run_scoped(jobs, &mut |job| self.submit_boxed(job));
    }

    /// [`WorkerPool::run_scoped`] with caller participation: `local` runs
    /// on the calling thread between job submission and the completion
    /// wait, so the caller computes one span itself instead of idling —
    /// the shape the chunked kernels want (they hand the pool
    /// `workers − 1` jobs and keep the last span).
    pub(crate) fn run_scoped_with_local<'env, L>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        local: L,
    ) where
        L: FnOnce(),
    {
        crossbeam::thread::run_scoped_with_local(jobs, &mut |job| self.submit_boxed(job), local);
    }

    /// Count of jobs that panicked on a worker, submitted or scoped.
    pub fn panicked_jobs(&self) -> usize {
        self.panicked.load(Ordering::Relaxed)
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
    use std::sync::Mutex;

    /// Boxed scoped jobs that write `f(i)` into slot `i` of `slots`.
    fn fill_jobs<'a, T: Send>(
        slots: &'a mut [T],
        f: impl Fn(usize) -> T + Send + Sync + Copy + 'a,
    ) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
        slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = f(i)) as Box<dyn FnOnce() + Send + 'a>)
            .collect()
    }

    #[test]
    fn batch_results_arrive_in_task_order() {
        let pool = WorkerPool::new(4);
        // Reverse sleep times so completion order inverts task order;
        // each job writes its own slot, so results land in task order.
        let mut results = vec![0u64; 8];
        pool.run_scoped(fill_jobs(&mut results, |i| {
            let i = i as u64;
            std::thread::sleep(std::time::Duration::from_millis((8 - i) * 3));
            i * i
        }));
        assert_eq!(results, (0..8u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool_is_serial_but_correct() {
        let pool = WorkerPool::new(1);
        let mut results = vec![0i32; 16];
        pool.run_scoped(fill_jobs(&mut results, |i| i as i32 + 1));
        assert_eq!(results, (1..17).collect::<Vec<i32>>());
        assert_eq!(pool.threads(), 1);
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        // The point of persistence: many small batches on the same
        // threads. Track distinct worker threads observed.
        let pool = WorkerPool::new(2);
        let seen = Mutex::new(std::collections::HashSet::new());
        for round in 0..10 {
            let mut got = vec![0usize; 4];
            let seen = &seen;
            pool.run_scoped(fill_jobs(&mut got, move |i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                round * 4 + i
            }));
            assert_eq!(got, (round * 4..round * 4 + 4).collect::<Vec<_>>());
        }
        // 40 jobs landed on at most 2 (long-lived) threads.
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
        let mut done = [false; 3];
        let outcome = {
            let [a, b, c] = &mut done;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| *a = true),
                Box::new(|| {
                    *b = true;
                    panic!("task exploded")
                }),
                Box::new(|| *c = true),
            ];
            catch_unwind(AssertUnwindSafe(|| pool.run_scoped(jobs)))
        };
        assert!(outcome.is_err());
        // Every job settled before the panic reached the caller.
        assert_eq!(done, [true; 3]);
        // The pool survives the panic and keeps serving.
        let mut results = vec![0usize; 1];
        pool.run_scoped(fill_jobs(&mut results, |_| 7));
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
        // Eigensolver kernels scheduled on a pool's persistent workers
        // answer bit-for-bit like the serial pool.
        let pool = WorkerPool::new(4);
        let shared = pool.linalg_pool();
        assert_eq!(shared.threads(), 4);
        // Above the kernels' light-op engagement threshold, so the level-1
        // kernels genuinely schedule onto the pool's workers.
        let n = crate::parallel::LIGHT_SPAWN_MIN + 12_345;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let serial = crate::Pool::serial();
        assert_eq!(
            crate::block::dot(&shared, &x, &y, 1)[0].to_bits(),
            crate::block::dot(&serial, &x, &y, 1)[0].to_bits(),
            "pooled dot diverged from serial"
        );
        let mut a = y.clone();
        let mut b = y.clone();
        crate::block::col_center(&serial, &mut a, 1, 0);
        crate::block::col_center(&shared, &mut b, 1, 0);
        assert_eq!(a, b);
        // The pool keeps serving ordinary jobs afterwards.
        let mut results = vec![0usize; 1];
        pool.run_scoped(fill_jobs(&mut results, |_| 5));
        assert_eq!(results, vec![5]);
    }

    #[test]
    fn submitted_panics_are_counted_not_fatal() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("fire-and-forget failure"));
        // A later scoped job still runs on the same (only) worker, and
        // queues behind the panicked one, so the count is settled.
        let mut results = vec![0usize; 1];
        pool.run_scoped(fill_jobs(&mut results, |_| 11));
        assert_eq!(results, vec![11]);
        assert_eq!(pool.panicked_jobs(), 1);
    }
}
