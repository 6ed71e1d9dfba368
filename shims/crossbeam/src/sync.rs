//! The synchronisation facade the shim's own concurrency and
//! `slpm_serve`'s engine (pool, shard queues, shard slices) are written
//! against.
//!
//! Without the `model` feature every name here is a zero-cost re-export
//! of the `std::sync` / `std::thread` primitive — production builds pay
//! nothing. With the feature enabled the same names resolve to
//! *dual-mode* types: constructed inside a `crossbeam::model` exploration
//! session they report every operation to the deterministic scheduler
//! (so the model checker can enumerate interleavings); constructed
//! anywhere else they delegate straight to the real primitive. Code
//! written against this module therefore runs unchanged in production,
//! under plain tests, and under exhaustive schedule exploration.

#[cfg(not(feature = "model"))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Atomics facade (std re-export without the `model` feature).
#[cfg(not(feature = "model"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
}

/// Thread facade (std re-export without the `model` feature).
#[cfg(not(feature = "model"))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle, Result};
}

#[cfg(feature = "model")]
pub use instrumented::{atomic, thread, Condvar, Mutex, MutexGuard};

#[cfg(feature = "model")]
pub use std::sync::Arc;

/// True when a caught panic payload is the model checker's
/// session-teardown signal (always `false` without the `model`
/// feature). Code that swallows panics around a scheduling point (a
/// worker loop's or a replay seam's `catch_unwind`) must re-raise such a
/// payload with `resume_unwind`, or an aborting session cannot unwind
/// its threads.
pub fn is_model_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    #[cfg(feature = "model")]
    return crate::model::is_abort(payload);
    #[cfg(not(feature = "model"))]
    {
        let _ = payload;
        false
    }
}

/// Dual-mode primitives: model-instrumented inside an exploration
/// session, plain `std` everywhere else (see the module docs).
#[cfg(feature = "model")]
mod instrumented {
    use crate::model::{self, Session, Tid};
    use std::cell::UnsafeCell;
    use std::mem::ManuallyDrop;
    use std::ops::{Deref, DerefMut};
    use std::sync::{
        Arc as StdArc, Condvar as StdCondvar, LockResult, Mutex as StdMutex,
        MutexGuard as StdMutexGuard, PoisonError,
    };

    /// The current thread's session, or `None` outside the model.
    fn ctx() -> Option<(StdArc<Session>, Tid)> {
        model::current_session()
    }

    /// The session context, asserting the caller really is a model
    /// thread of `sess` (mixing sessions or escaping one is a harness
    /// bug worth failing loudly on).
    fn ctx_of(sess: &StdArc<Session>) -> Tid {
        let (cur, me) = ctx().expect(
            "model-mode primitive used from outside its exploration session \
             (create sync objects inside the explored closure)",
        );
        assert!(
            StdArc::ptr_eq(&cur, sess),
            "model-mode primitive used from a different exploration session"
        );
        me
    }

    /// Dual-mode mutual exclusion: `std::sync::Mutex` outside a model
    /// session, a scheduler-visible virtual mutex inside one.
    pub struct Mutex<T> {
        imp: MutexImp<T>,
    }

    enum MutexImp<T> {
        Real(StdMutex<T>),
        Model {
            sess: StdArc<Session>,
            id: usize,
            cell: UnsafeCell<T>,
        },
    }

    // SAFETY: the Real variant is std's Mutex (Send/Sync iff T: Send).
    // The Model variant's UnsafeCell is only dereferenced through a
    // guard obtained via the model scheduler's lock protocol, which
    // grants ownership to exactly one model thread at a time — and the
    // scheduler additionally serialises model threads (one runs at a
    // time, handoffs synchronise through real mutexes/condvars), so
    // accesses are both exclusive and properly ordered. Mirroring std,
    // we require T: Send only.
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: see the Send impl above — exclusive, scheduler-ordered
    // access makes sharing the handle across threads sound.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    impl<T> Mutex<T> {
        /// Create the mutex — model-instrumented when the calling thread
        /// is inside an exploration session.
        pub fn new(value: T) -> Mutex<T> {
            match ctx() {
                Some((sess, _)) => {
                    let id = model::register_mutex(&sess);
                    Mutex {
                        imp: MutexImp::Model {
                            sess,
                            id,
                            cell: UnsafeCell::new(value),
                        },
                    }
                }
                None => Mutex {
                    imp: MutexImp::Real(StdMutex::new(value)),
                },
            }
        }

        /// Acquire the lock (a scheduling point under the model). Model
        /// mode never poisons, so the result is always `Ok` there.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            match &self.imp {
                MutexImp::Real(m) => match m.lock() {
                    Ok(g) => Ok(MutexGuard {
                        imp: ManuallyDrop::new(GuardImp::Real(g)),
                    }),
                    Err(poison) => Err(PoisonError::new(MutexGuard {
                        imp: ManuallyDrop::new(GuardImp::Real(poison.into_inner())),
                    })),
                },
                MutexImp::Model { sess, id, .. } => {
                    let me = ctx_of(sess);
                    model::mutex_lock(sess, me, *id);
                    Ok(MutexGuard {
                        imp: ManuallyDrop::new(GuardImp::Model {
                            mutex: self,
                            sess: StdArc::clone(sess),
                            me,
                        }),
                    })
                }
            }
        }
    }

    enum GuardImp<'a, T> {
        Real(StdMutexGuard<'a, T>),
        Model {
            mutex: &'a Mutex<T>,
            sess: StdArc<Session>,
            me: Tid,
        },
    }

    /// RAII lock guard of the dual-mode [`Mutex`] (API-compatible with
    /// `std::sync::MutexGuard` as far as the tree uses it).
    pub struct MutexGuard<'a, T> {
        /// `ManuallyDrop` so [`Condvar::wait`] can take the variant out
        /// and release the lock through the condvar protocol instead of
        /// the plain-unlock path in `Drop`.
        imp: ManuallyDrop<GuardImp<'a, T>>,
    }

    impl<'a, T> MutexGuard<'a, T> {
        /// Consume the guard *without* running its unlock `Drop`,
        /// returning the raw variant (used by [`Condvar::wait`]).
        fn dismantle(self) -> GuardImp<'a, T> {
            let mut this = ManuallyDrop::new(self);
            // SAFETY: `this` is never dropped (ManuallyDrop) and `imp`
            // is read exactly once here, so no double-drop or use of a
            // moved-out field can occur.
            unsafe { ManuallyDrop::take(&mut this.imp) }
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            match &*self.imp {
                GuardImp::Real(g) => g,
                GuardImp::Model { mutex, .. } => match &mutex.imp {
                    // SAFETY: this guard proves the model scheduler
                    // granted the calling thread exclusive ownership of
                    // the virtual mutex; no other reference to the cell
                    // exists until the guard drops.
                    MutexImp::Model { cell, .. } => unsafe { &*cell.get() },
                    MutexImp::Real(_) => unreachable!("model guard on a real mutex"),
                },
            }
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            match &mut *self.imp {
                GuardImp::Real(g) => g,
                GuardImp::Model { mutex, .. } => match &mutex.imp {
                    // SAFETY: as in `Deref` — the guard is the unique
                    // licence to the cell while it lives.
                    MutexImp::Model { cell, .. } => unsafe { &mut *cell.get() },
                    MutexImp::Real(_) => unreachable!("model guard on a real mutex"),
                },
            }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // SAFETY: `imp` is taken exactly once; after this the guard
            // is inert (Drop runs once, and `dismantle` never lets the
            // guard reach Drop).
            let imp = unsafe { ManuallyDrop::take(&mut self.imp) };
            match imp {
                GuardImp::Real(g) => drop(g),
                GuardImp::Model { mutex, sess, me } => match &mutex.imp {
                    MutexImp::Model { id, .. } => model::mutex_unlock(&sess, me, *id),
                    MutexImp::Real(_) => unreachable!("model guard on a real mutex"),
                },
            }
        }
    }

    /// Dual-mode condition variable (see [`Mutex`]).
    pub struct Condvar {
        imp: CondvarImp,
    }

    enum CondvarImp {
        Real(StdCondvar),
        Model { sess: StdArc<Session>, id: usize },
    }

    impl Condvar {
        /// Create the condvar — model-instrumented inside a session.
        pub fn new() -> Condvar {
            match ctx() {
                Some((sess, _)) => {
                    let id = model::register_condvar(&sess);
                    Condvar {
                        imp: CondvarImp::Model { sess, id },
                    }
                }
                None => Condvar {
                    imp: CondvarImp::Real(StdCondvar::new()),
                },
            }
        }

        /// Release the guard's lock, wait to be notified, re-acquire.
        /// Model mode explores every legal wake/acquire ordering and
        /// never wakes spuriously.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            match (&self.imp, guard.dismantle()) {
                (CondvarImp::Real(cv), GuardImp::Real(g)) => match cv.wait(g) {
                    Ok(g) => Ok(MutexGuard {
                        imp: ManuallyDrop::new(GuardImp::Real(g)),
                    }),
                    Err(poison) => Err(PoisonError::new(MutexGuard {
                        imp: ManuallyDrop::new(GuardImp::Real(poison.into_inner())),
                    })),
                },
                (CondvarImp::Model { sess, id }, GuardImp::Model { mutex, me, .. }) => {
                    match &mutex.imp {
                        MutexImp::Model { id: mid, .. } => {
                            model::condvar_wait(sess, me, *id, *mid);
                            Ok(MutexGuard {
                                imp: ManuallyDrop::new(GuardImp::Model {
                                    mutex,
                                    sess: StdArc::clone(sess),
                                    me,
                                }),
                            })
                        }
                        MutexImp::Real(_) => unreachable!("model guard on a real mutex"),
                    }
                }
                _ => panic!("condvar and mutex guard are from different modes/sessions"),
            }
        }

        /// Wake one waiter (the longest-waiting, under the model).
        pub fn notify_one(&self) {
            match &self.imp {
                CondvarImp::Real(cv) => cv.notify_one(),
                CondvarImp::Model { sess, id } => {
                    let me = ctx_of(sess);
                    model::condvar_notify(sess, me, *id, false);
                }
            }
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            match &self.imp {
                CondvarImp::Real(cv) => cv.notify_all(),
                CondvarImp::Model { sess, id } => {
                    let me = ctx_of(sess);
                    model::condvar_notify(sess, me, *id, true);
                }
            }
        }
    }

    impl Default for Condvar {
        fn default() -> Condvar {
            Condvar::new()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    /// Dual-mode atomics: sequentially consistent scheduler-visible
    /// steps inside a session, std atomics outside.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use super::{ctx, ctx_of};
        use crate::model::{self, Session};
        use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicUsize as StdAtomicUsize};
        use std::sync::{Arc as StdArc, Mutex as StdMutex};

        macro_rules! dual_atomic {
            ($name:ident, $std:ident, $ty:ty) => {
                /// Dual-mode atomic (model steps are sequentially
                /// consistent regardless of the requested ordering).
                pub struct $name {
                    imp: AtomicImp<$std, $ty>,
                }

                impl $name {
                    /// Create the atomic — model-instrumented inside a
                    /// session.
                    pub fn new(value: $ty) -> $name {
                        match ctx() {
                            Some((sess, _)) => $name {
                                imp: AtomicImp::Model {
                                    sess,
                                    cell: StdMutex::new(value),
                                },
                            },
                            None => $name {
                                imp: AtomicImp::Real($std::new(value)),
                            },
                        }
                    }

                    /// Atomic read (a scheduling point under the model).
                    pub fn load(&self, order: Ordering) -> $ty {
                        match &self.imp {
                            AtomicImp::Real(a) => a.load(order),
                            AtomicImp::Model { sess, cell } => {
                                let me = ctx_of(sess);
                                model::atomic_step(sess, me, || {
                                    *cell.lock().expect("model atomic cell")
                                })
                            }
                        }
                    }

                    /// Atomic write (a scheduling point under the model).
                    pub fn store(&self, value: $ty, order: Ordering) {
                        match &self.imp {
                            AtomicImp::Real(a) => a.store(value, order),
                            AtomicImp::Model { sess, cell } => {
                                let me = ctx_of(sess);
                                model::atomic_step(sess, me, || {
                                    *cell.lock().expect("model atomic cell") = value;
                                })
                            }
                        }
                    }

                    /// Atomic swap (a scheduling point under the model).
                    pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                        match &self.imp {
                            AtomicImp::Real(a) => a.swap(value, order),
                            AtomicImp::Model { sess, cell } => {
                                let me = ctx_of(sess);
                                model::atomic_step(sess, me, || {
                                    let mut cell = cell.lock().expect("model atomic cell");
                                    std::mem::replace(&mut *cell, value)
                                })
                            }
                        }
                    }
                }
            };
        }

        enum AtomicImp<A, T> {
            Real(A),
            Model {
                sess: StdArc<Session>,
                cell: StdMutex<T>,
            },
        }

        dual_atomic!(AtomicUsize, StdAtomicUsize, usize);
        dual_atomic!(AtomicBool, StdAtomicBool, bool);

        impl AtomicUsize {
            /// Atomic add, returning the previous value (a scheduling
            /// point under the model).
            pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
                match &self.imp {
                    AtomicImp::Real(a) => a.fetch_add(value, order),
                    AtomicImp::Model { sess, cell } => {
                        let me = ctx_of(sess);
                        model::atomic_step(sess, me, || {
                            let mut cell = cell.lock().expect("model atomic cell");
                            let old = *cell;
                            *cell = old.wrapping_add(value);
                            old
                        })
                    }
                }
            }

            /// Atomic subtract, returning the previous value (a
            /// scheduling point under the model).
            pub fn fetch_sub(&self, value: usize, order: Ordering) -> usize {
                match &self.imp {
                    AtomicImp::Real(a) => a.fetch_sub(value, order),
                    AtomicImp::Model { sess, cell } => {
                        let me = ctx_of(sess);
                        model::atomic_step(sess, me, || {
                            let mut cell = cell.lock().expect("model atomic cell");
                            let old = *cell;
                            *cell = old.wrapping_sub(value);
                            old
                        })
                    }
                }
            }
        }
    }

    /// Dual-mode thread spawning: model threads inside a session, real
    /// OS threads outside.
    pub mod thread {
        use super::ctx;
        use crate::model::{self, Session, Tid};
        use std::sync::{Arc as StdArc, Mutex as StdMutex};

        pub use std::thread::Result;

        /// Dual-mode join handle.
        pub struct JoinHandle<T> {
            imp: JoinImp<T>,
        }

        enum JoinImp<T> {
            Real(std::thread::JoinHandle<T>),
            Model {
                sess: StdArc<Session>,
                target: Tid,
                result: StdArc<StdMutex<Option<Result<T>>>>,
            },
        }

        impl<T> JoinHandle<T> {
            pub(crate) fn model(
                sess: StdArc<Session>,
                target: Tid,
                result: StdArc<StdMutex<Option<Result<T>>>>,
            ) -> JoinHandle<T> {
                JoinHandle {
                    imp: JoinImp::Model {
                        sess,
                        target,
                        result,
                    },
                }
            }

            /// Wait for the thread to finish; a model join is a
            /// scheduling point (and a deadlock-detection edge).
            pub fn join(self) -> Result<T>
            where
                T: Send + 'static,
            {
                match self.imp {
                    JoinImp::Real(h) => h.join(),
                    JoinImp::Model {
                        sess,
                        target,
                        result,
                    } => {
                        let (cur, me) = model::current_session()
                            .expect("model join handle used from outside its exploration session");
                        assert!(
                            StdArc::ptr_eq(&cur, &sess),
                            "model join handle used from a different session"
                        );
                        model::join_model(&sess, me, target, &result)
                    }
                }
            }
        }

        /// Spawn a thread — a schedulable model thread inside a
        /// session, a plain `std::thread` outside.
        pub fn spawn<F, T>(f: F) -> JoinHandle<T>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            match ctx() {
                Some((sess, me)) => model::spawn_model(&sess, me, None, f),
                None => JoinHandle {
                    imp: JoinImp::Real(std::thread::spawn(f)),
                },
            }
        }

        /// Yield: a pure scheduling point under the model.
        pub fn yield_now() {
            match ctx() {
                Some((sess, me)) => model::yield_point(&sess, me),
                None => std::thread::yield_now(),
            }
        }
    }
}
