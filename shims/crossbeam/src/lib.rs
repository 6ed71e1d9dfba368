//! Offline stand-in for the `crossbeam` crate.
//!
//! Two surfaces are provided, each only as wide as the tree needs:
//!
//! * [`thread`] — `run_scoped` / `run_scoped_with_local`: lend a batch of
//!   borrowing jobs to threads that already exist, blocking until every
//!   job has settled. The tree starts no threads per call; the persistent
//!   worker pool in `slpm_linalg` is the executor.
//! * [`channel`] — cloneable MPMC channels (`unbounded` / `bounded`,
//!   blocking `send`/`recv`, `try_recv`, `iter`) over `Mutex` + `Condvar`,
//!   feeding that worker pool.
//!
//! Both — and the worker pool and `slpm_serve`'s engine — are written
//! against the [`sync`] facade: normally a zero-cost re-export of
//! `std::sync`, but under the `model` feature the same names become
//! instrumented primitives driven by the deterministic schedule-exploring
//! checker in `crossbeam::model` — see `crates/check` for the tests that
//! explore the channel, the `run_scoped` latch and the real serving
//! engine over every bounded interleaving.

pub mod channel;
#[cfg(feature = "model")]
pub mod model;
pub mod sync;

/// Borrowing jobs lent to persistent executor threads.
pub mod thread {
    use crate::sync::{Arc, Condvar, Mutex};

    /// Tracks every lent wrapper until it settles.
    struct LatchState {
        /// Wrappers handed to `submit` whose `Guard` has not yet
        /// dropped. `wait_idle` returns only once this reaches 0.
        in_flight: usize,
        /// Jobs that did not complete normally (panicked, or were
        /// dropped by the executor without running).
        failed: usize,
        /// One flag per job, set under this lock when its guard
        /// settles. `wait_idle` asserts all of them afterwards: a
        /// clear flag at that point would mean a wrapper escaped
        /// accounting and could still touch `'env` borrows — the
        /// exact unsoundness the latch exists to rule out.
        settled: Vec<bool>,
    }
    struct Latch {
        state: Mutex<LatchState>,
        done: Condvar,
    }
    impl Latch {
        fn wait_idle(&self) -> usize {
            let mut state = self.state.lock().expect("latch lock");
            while state.in_flight > 0 {
                state = self.done.wait(state).expect("latch lock");
            }
            // No-escape invariant: `in_flight == 0` was observed
            // under the same lock each guard settles under, so every
            // flag set happens-before this read. A clear flag here is
            // a latch bug, and returning would be unsound — fail hard.
            assert!(
                state.settled.iter().all(|&s| s),
                "run_scoped latch: in_flight hit 0 with unsettled job(s) — \
                 a borrowed wrapper escaped accounting"
            );
            state.failed
        }
    }
    /// Settles slot `idx` of the latch when dropped; `completed` is
    /// set only after the wrapped job returned normally, so a panic
    /// or an unrun drop counts as a failure.
    struct Guard {
        latch: Arc<Latch>,
        idx: usize,
        completed: bool,
    }
    impl Guard {
        fn new(latch: &Arc<Latch>, idx: usize) -> Self {
            let mut state = latch.state.lock().expect("latch lock");
            state.in_flight += 1;
            assert!(
                state.in_flight <= state.settled.len(),
                "run_scoped latch: more guards than jobs"
            );
            Guard {
                latch: Arc::clone(latch),
                idx,
                completed: false,
            }
        }
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            let mut state = self.latch.state.lock().expect("latch lock");
            assert!(
                !state.settled[self.idx],
                "run_scoped latch: job {} settled twice",
                self.idx
            );
            state.settled[self.idx] = true;
            state.in_flight -= 1;
            if !self.completed {
                state.failed += 1;
            }
            if state.in_flight == 0 {
                self.latch.done.notify_all();
            }
        }
    }
    /// Blocks until the latch drains even when `submit` (or the caller's
    /// local span) unwinds — wrappers already queued on the executor may
    /// still be running and must not outlive the caller's borrows.
    struct WaitOnUnwind<'a>(&'a Latch);
    impl Drop for WaitOnUnwind<'_> {
        fn drop(&mut self) {
            self.0.wait_idle();
        }
    }

    /// Lend a batch of **borrowing** jobs to a persistent executor.
    ///
    /// For executors whose threads already exist (e.g. a long-lived
    /// worker pool): each job is re-packaged as a
    /// `'static` closure and handed to `submit`, which must arrange for it
    /// to run eventually (a dropped-unrun job is detected and reported,
    /// never leaked). `run_scoped` blocks until every submitted job has
    /// finished or been dropped — no borrow escapes the call, which is
    /// exactly the guarantee that makes handing borrowed closures to
    /// `'static` worker threads sound.
    ///
    /// # Panics
    /// Panics (after all jobs have settled) when any job panicked or was
    /// dropped without running.
    pub fn run_scoped<'env>(
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        submit: &mut dyn FnMut(Box<dyn FnOnce() + Send + 'static>),
    ) {
        run_scoped_with_local(jobs, submit, || {});
    }

    /// [`run_scoped`] with **caller participation**: after every job has
    /// been submitted, `local` runs on the *calling* thread, concurrently
    /// with the executor working the submitted jobs; only then does the
    /// call block until every lent wrapper has settled. A dispatcher that
    /// keeps one span of the work for itself thus hands the executor
    /// `workers − 1` jobs instead of `workers`, and the calling thread
    /// computes instead of idling in the latch wait.
    ///
    /// `local` runs strictly on the caller, so it needs no `Send` bound
    /// and no lifetime erasure. If it unwinds, the latch drain guard
    /// still blocks until all submitted jobs have settled before the
    /// panic propagates — no borrow escapes on any path.
    ///
    /// # Panics
    /// Panics when any submitted job panicked or was dropped unrun, and
    /// propagates a panic from `local` itself (after draining).
    pub fn run_scoped_with_local<'env, L>(
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        submit: &mut dyn FnMut(Box<dyn FnOnce() + Send + 'static>),
        local: L,
    ) where
        L: FnOnce(),
    {
        let latch = Arc::new(Latch {
            state: Mutex::new(LatchState {
                in_flight: 0,
                failed: 0,
                settled: vec![false; jobs.len()],
            }),
            done: Condvar::new(),
        });
        let drain = WaitOnUnwind(&latch);
        for (idx, job) in jobs.into_iter().enumerate() {
            let guard = Guard::new(&latch, idx);
            let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let mut guard = guard;
                job();
                guard.completed = true;
            });
            // SAFETY: lifetime erasure of `'env` borrows to `'static`,
            // sound because no erased borrow can be used after `'env`
            // ends. The argument, piece by piece:
            //
            // 1. Every borrow captured by `wrapper` (via `job`) is valid
            //    for `'env`, which outlives this call — the signature
            //    guarantees it.
            // 2. `wrapper` owns the only handle to those borrows, and the
            //    `Guard` it also owns settles its latch slot exactly once
            //    when the wrapper is dropped — whether the job ran to
            //    completion, panicked (the guard unwinds with it), or the
            //    executor dropped the box unrun. Rust's ownership rules
            //    make a drop the last event of the wrapper's life, so
            //    "slot settled" happens-after every use of the borrows.
            // 3. This function does not return, on any path, until
            //    `in_flight == 0`: the normal path calls
            //    `latch.wait_idle()`, and an unwind out of `submit` or
            //    out of the caller's `local` span hits `drain`'s `Drop`,
            //    which calls the same `wait_idle`.
            //    `wait_idle` additionally asserts that every per-job
            //    settled flag was set under the same lock, so a wrapper
            //    that somehow escaped accounting aborts the process
            //    instead of returning borrows to a dead frame.
            // 4. Therefore every wrapper has been dropped before control
            //    returns to the caller, and no erased borrow outlives
            //    `'env`. This is the lifetime-erasure contract
            //    crossbeam's own scoped threads are built on; the
            //    `crates/check` model harness `run_scoped` tests verify
            //    the latch protocol over every bounded interleaving.
            let wrapper = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'env>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(wrapper)
            };
            submit(wrapper);
        }
        // The caller's own span: runs here, on the calling thread, while
        // the executor works the submitted jobs. An unwind is safe — the
        // `drain` guard above blocks until every wrapper settles.
        local();
        let failed = latch.wait_idle();
        std::mem::forget(drain);
        if failed > 0 {
            panic!("{failed} scoped job(s) panicked or were dropped unrun");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::thread;

    #[test]
    fn run_scoped_runs_borrowing_jobs_on_external_threads() {
        let mut data = vec![0usize; 64];
        {
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send>>();
            let worker = std::thread::spawn(move || {
                for job in rx {
                    job();
                }
            });
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(16)
                .enumerate()
                .map(|(c, chunk)| {
                    Box::new(move || {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = c * 16 + i;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            thread::run_scoped(jobs, &mut |job| tx.send(job).expect("worker alive"));
            drop(tx);
            worker.join().unwrap();
        }
        // Every borrowed chunk was filled before run_scoped returned.
        assert_eq!(data, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_reports_panicked_and_dropped_jobs() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the workers
                                                // Executor that runs the first job (which panics, killing the
                                                // thread) and therefore drops the rest unrun.
        let caught = std::panic::catch_unwind(|| {
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send>>();
            let worker = std::thread::spawn(move || {
                for job in rx {
                    job();
                }
            });
            let jobs: Vec<Box<dyn FnOnce() + Send>> =
                vec![Box::new(|| panic!("job exploded")), Box::new(|| {})];
            thread::run_scoped(jobs, &mut |job| {
                let _ = tx.send(job);
            });
            worker.join().unwrap();
        });
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "failed jobs must surface as a panic");
    }

    #[test]
    fn run_scoped_blocks_until_a_dawdling_executor_finishes_borrowed_jobs() {
        // Regression for the lifetime-erasure contract: the executor
        // queues every job and only starts running them *after* a delay,
        // long after `run_scoped`'s loop has finished submitting. If
        // `run_scoped` returned before the last wrapper settled, the
        // borrow of `data` would end while a job still held an erased
        // `'static` alias to it — by construction that must be
        // impossible, i.e. every write below must be visible the moment
        // `run_scoped` returns.
        let mut data = vec![0usize; 32];
        {
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send>>();
            let worker = std::thread::spawn(move || {
                // Collect all four jobs first: none runs until run_scoped
                // is already blocked in wait_idle.
                let queued: Vec<_> = (0..4).map(|_| rx.recv().expect("4 jobs")).collect();
                std::thread::sleep(std::time::Duration::from_millis(50));
                for job in queued {
                    job();
                }
            });
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(8)
                .enumerate()
                .map(|(c, chunk)| {
                    Box::new(move || {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = c * 8 + i + 1;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            thread::run_scoped(jobs, &mut |job| tx.send(job).expect("worker alive"));
            drop(tx);
            worker.join().unwrap();
        }
        // Every borrowed chunk was written before run_scoped returned.
        assert_eq!(data, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_with_local_runs_caller_span_on_calling_thread() {
        let mut data = vec![0usize; 48];
        let caller_tid = std::thread::current().id();
        {
            let (first, second) = data.split_at_mut(16);
            let (second, third) = second.split_at_mut(16);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| first.iter_mut().enumerate().for_each(|(i, v)| *v = i + 1)),
                Box::new(|| second.iter_mut().enumerate().for_each(|(i, v)| *v = 17 + i)),
            ];
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send>>();
            let worker = std::thread::spawn(move || {
                for job in rx {
                    job();
                }
            });
            thread::run_scoped_with_local(
                jobs,
                &mut |job| tx.send(job).expect("worker alive"),
                || {
                    // The local span really runs on the calling thread.
                    assert_eq!(std::thread::current().id(), caller_tid);
                    third.iter_mut().enumerate().for_each(|(i, v)| *v = 33 + i);
                },
            );
            drop(tx);
            worker.join().unwrap();
        }
        // Jobs and the caller span all finished before the call returned.
        assert_eq!(data, (1..=48).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_with_local_drains_jobs_when_local_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut data = vec![0usize; 8];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send>>();
            let worker = std::thread::spawn(move || {
                for job in rx {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    job();
                }
            });
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
                data.iter_mut().enumerate().for_each(|(i, v)| *v = i + 1);
            })];
            thread::run_scoped_with_local(
                jobs,
                &mut |job| tx.send(job).expect("worker alive"),
                || panic!("local span failed"),
            );
            drop(tx);
            worker.join().unwrap();
        }));
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "local panic must propagate");
        // The borrowed job still completed before the unwind escaped —
        // the drain guard held the frame alive until it settled.
        assert_eq!(data, (1..=8).collect::<Vec<_>>());
    }
}
