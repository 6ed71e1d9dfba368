//! A loom/CHESS-style deterministic concurrency model checker
//! (compiled only under the `model` feature).
//!
//! # What this is
//!
//! Every determinism claim the tree makes — bitwise-identical digests
//! across shards × threads × in-flight batches — rests on hand-rolled
//! concurrency: the Mutex+Condvar MPMC channels in this shim, the
//! lifetime-erasure latch in [`crate::thread::run_scoped`], and
//! `slpm_serve`'s worker pool / per-shard FIFO queues. "The tests passed
//! on the schedule the OS happened to pick" is not evidence of
//! correctness; this module makes scheduling a *controlled input* and
//! explores it exhaustively.
//!
//! # How it works
//!
//! [`explore`] runs a test closure many times. Each run is a *session*:
//! the closure and every thread it spawns become **model threads** — real
//! OS threads, but gated so that exactly one executes at a time. Every
//! synchronisation operation ([`crate::sync::Mutex::lock`],
//! [`crate::sync::Condvar::wait`]/notify, atomic ops, spawn/join, yield) is a
//! *scheduling point*: the running thread consults the scheduler, which
//! either lets it continue or hands control to another runnable thread.
//! Execution between scheduling points is invisible to other threads (it
//! touches only data the sync protocol protects), so enumerating the
//! scheduler's choices enumerates every observably distinct interleaving.
//!
//! Choices are recorded as a decision vector; the driver replays a prefix
//! and extends it depth-first until the tree is exhausted (or a schedule
//! cap is hit). A **bounded-preemption budget** (CHESS-style) keeps the
//! space tractable: switching away from a thread that could have
//! continued costs one unit of budget; forced switches (the running
//! thread blocked or finished) are free. Most real concurrency bugs
//! manifest within two preemptions.
//!
//! A run that reaches a state with unfinished threads and nothing
//! runnable is a **deadlock or lost wakeup**; [`explore`] panics with the
//! per-thread state and the schedule that produced it. A run whose
//! closure panics (a failed assertion on some schedule) re-raises that
//! panic. Memory is modelled as sequentially consistent; condition
//! variables do not wake spuriously (all tree code waits in `while`
//! loops, which subsumes spurious wakeups).
//!
//! # Scope
//!
//! Only primitives from [`crate::sync`] (`crossbeam::sync`) are
//! instrumented, and only when constructed *inside* a session. The same
//! types compile to the plain `std` primitives outside a session (and
//! the whole module compiles away without the `model` feature), so
//! production code pays nothing.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar as StdCondvar, Mutex as StdMutex};

/// Model-thread id within one session (0 is the root closure).
pub type Tid = usize;

/// Knobs bounding one [`explore`] call.
#[derive(Clone, Copy, Debug)]
pub struct ModelOptions {
    /// Maximum *preemptions* per schedule: switches away from a thread
    /// that could have continued. Forced switches (current thread blocked
    /// or finished) are always free. `None` removes the bound (full DFS —
    /// use only on tiny harnesses).
    pub preemption_bound: Option<usize>,
    /// Stop after this many schedules even if the tree is not exhausted
    /// (the [`Report`] says which happened).
    pub max_schedules: usize,
    /// Hard cap on live model threads per session (harness sanity bound).
    pub max_threads: usize,
    /// Per-run scheduling-point cap: a run exceeding it is reported as a
    /// livelock (something is spinning without making progress).
    pub max_steps: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            preemption_bound: Some(2),
            max_schedules: 10_000,
            max_threads: 8,
            max_steps: 100_000,
        }
    }
}

/// What one [`explore`] call covered.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Distinct schedules executed (every one ran the closure to
    /// completion with no deadlock).
    pub schedules: usize,
    /// True when the bounded-preemption schedule tree was explored
    /// completely; false when `max_schedules` cut exploration short.
    pub exhausted: bool,
    /// Deepest decision vector seen (an effort metric for reports).
    pub max_decisions: usize,
}

/// Panic payload used to unwind model threads when a session aborts
/// (deadlock found, or the driver tears the run down). Never escapes
/// [`explore`].
struct Abort;

/// Leave an aborting session: unwind the calling model thread with
/// [`Abort`]. A thread that is already unwinding — a destructor reached
/// a scheduling point during teardown, e.g. a pool's `Drop` joining its
/// workers — cannot panic again without aborting the whole process, so
/// it parks for good instead; the driver detaches the threads of an
/// aborted session rather than joining them.
fn abort_unwind() -> ! {
    if std::thread::panicking() {
        loop {
            std::thread::park();
        }
    }
    std::panic::panic_any(Abort)
}

/// True when a caught panic payload is the model's internal
/// session-teardown signal. Harness code that swallows panics (e.g. a
/// worker pool's per-job `catch_unwind`) MUST check this and re-raise
/// the payload with `resume_unwind` instead of recording it as a job
/// failure — otherwise an aborting session cannot unwind its threads.
pub fn is_abort(payload: &(dyn Any + 'static)) -> bool {
    payload.is::<Abort>()
}

/// Run state of one model thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// May be chosen by the scheduler.
    Runnable,
    /// Waiting on a mutex, condvar or join; not schedulable until a wake
    /// event moves it back to `Runnable`.
    Blocked,
    /// Returned or unwound; never schedulable again.
    Finished,
}

/// One-shot handoff gate: a deselected model thread parks here until the
/// scheduler picks it again.
struct Gate {
    go: StdMutex<bool>,
    cv: StdCondvar,
}

impl Gate {
    fn new() -> StdArc<Gate> {
        StdArc::new(Gate {
            go: StdMutex::new(false),
            cv: StdCondvar::new(),
        })
    }

    fn open(&self) {
        *self.go.lock().expect("gate lock") = true;
        self.cv.notify_one();
    }

    fn park(&self) {
        let mut go = self.go.lock().expect("gate lock");
        while !*go {
            go = self.cv.wait(go).expect("gate lock");
        }
        *go = false;
    }
}

/// Bookkeeping for one model thread.
struct ThreadSlot {
    state: ThreadState,
    gate: StdArc<Gate>,
    /// Threads blocked in `join` on this one.
    join_waiters: Vec<Tid>,
    /// Human-readable label for deadlock traces.
    name: String,
    /// What the thread is blocked on, for deadlock traces.
    blocked_on: Option<String>,
}

/// One scheduler choice: which of `alternatives` runnable threads ran.
#[derive(Clone, Copy)]
struct Decision {
    chosen: usize,
    alternatives: usize,
}

/// Virtual-mutex bookkeeping (the guarded data lives in the
/// [`sync::Mutex`] instance; only ownership lives here).
struct MutexRec {
    owner: Option<Tid>,
    waiters: Vec<Tid>,
}

/// Virtual-condvar bookkeeping: FIFO wait queue.
struct CondvarRec {
    waiters: VecDeque<Tid>,
}

/// Why a session ended.
enum Outcome {
    /// Every model thread finished.
    Complete,
    /// Unfinished threads with nothing runnable (deadlock / lost wakeup),
    /// or a livelock past `max_steps`; carries the rendered trace.
    Stuck(String),
}

/// Everything mutable about one session, under one lock. Model execution
/// is serialised (one thread runs at a time), so a single lock costs
/// nothing and removes lock-ordering hazards by construction.
struct Inner {
    threads: Vec<ThreadSlot>,
    current: Tid,
    /// Replayed decision prefix for this run.
    prefix: Vec<usize>,
    /// Next prefix slot to consume.
    cursor: usize,
    /// Decisions actually taken this run (≥ prefix, DFS extends it).
    decisions: Vec<Decision>,
    preemptions: usize,
    steps: usize,
    aborting: bool,
    outcome: Option<Outcome>,
    mutexes: Vec<MutexRec>,
    condvars: Vec<CondvarRec>,
    /// First uncaught panic from the root closure (re-raised by the
    /// driver so schedule-dependent assertion failures surface).
    root_panic: Option<Box<dyn Any + Send + 'static>>,
    /// Uncaught panics from non-root threads that nobody joined.
    unjoined_panics: usize,
    /// OS handles of every model thread, joined by the driver between
    /// runs.
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// One exploration run: the deterministic scheduler all instrumented
/// primitives of the run report to.
pub(crate) struct Session {
    inner: StdMutex<Inner>,
    /// Signalled when `outcome` is set; the driver waits here.
    done: StdCondvar,
    opts: ModelOptions,
}

thread_local! {
    /// The session and model-thread id of the current OS thread, when it
    /// is a model thread. Instrumented primitives check this to decide
    /// between model and real behaviour.
    static CURRENT: RefCell<Option<(StdArc<Session>, Tid)>> = const { RefCell::new(None) };
}

/// The current thread's session context, if it is a model thread.
pub(crate) fn current_session() -> Option<(StdArc<Session>, Tid)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// How the calling thread leaves a scheduling point.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// Still runnable: may be chosen to continue (a switch away from it
    /// is a preemption).
    Continue,
    /// Already marked `Blocked` by the caller: must be switched away
    /// from; parks until rescheduled.
    Block,
    /// Already marked `Finished`: hands off and returns for good.
    Finish,
}

impl Session {
    fn new(opts: ModelOptions, prefix: Vec<usize>) -> Session {
        Session {
            inner: StdMutex::new(Inner {
                threads: Vec::new(),
                current: 0,
                prefix,
                cursor: 0,
                decisions: Vec::new(),
                preemptions: 0,
                steps: 0,
                aborting: false,
                outcome: None,
                mutexes: Vec::new(),
                condvars: Vec::new(),
                root_panic: None,
                unjoined_panics: 0,
                os_handles: Vec::new(),
            }),
            done: StdCondvar::new(),
            opts,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("model session lock")
    }

    /// Abort the session: every parked thread is released and will
    /// unwind with [`Abort`] at its next scheduling point.
    fn abort_locked(g: &mut Inner) {
        g.aborting = true;
        for slot in &g.threads {
            slot.gate.open();
        }
    }

    /// Render per-thread states for a deadlock report.
    fn render_stuck(g: &Inner, why: &str) -> String {
        let mut out = format!("{why}; thread states:\n");
        for (tid, slot) in g.threads.iter().enumerate() {
            out.push_str(&format!(
                "  [{tid}] {:<12} {:?}{}\n",
                slot.name,
                slot.state,
                slot.blocked_on
                    .as_deref()
                    .map(|r| format!(" (waiting on {r})"))
                    .unwrap_or_default()
            ));
        }
        out.push_str(&format!(
            "  schedule: {} decisions, {} preemptions",
            g.decisions.len(),
            g.preemptions
        ));
        out
    }

    /// The heart of the checker: one scheduling point. Decides who runs
    /// next (consuming or extending the decision vector), detects
    /// deadlock/livelock, performs the gate handoff, and parks the caller
    /// when it was deselected.
    fn reschedule(self: &StdArc<Session>, me: Tid, disposition: Disposition) {
        let (park, my_gate) = {
            let mut g = self.lock();
            if g.aborting {
                if disposition == Disposition::Finish {
                    return;
                }
                drop(g);
                abort_unwind();
            }
            g.steps += 1;
            if g.steps > self.opts.max_steps {
                let trace = Session::render_stuck(
                    &g,
                    "livelock: schedule exceeded max_steps without finishing",
                );
                g.outcome = Some(Outcome::Stuck(trace));
                Session::abort_locked(&mut g);
                self.done.notify_all();
                if disposition == Disposition::Finish {
                    return;
                }
                drop(g);
                abort_unwind();
            }
            // Candidates, current thread first (so DFS's default choice 0
            // = "keep running" = the cheap no-handoff path), then by tid.
            let mut alts: Vec<Tid> = Vec::new();
            if disposition == Disposition::Continue {
                alts.push(me);
            }
            for tid in 0..g.threads.len() {
                if tid != me && g.threads[tid].state == ThreadState::Runnable {
                    alts.push(tid);
                }
            }
            if alts.is_empty() {
                let all_finished = g.threads.iter().all(|t| t.state == ThreadState::Finished);
                if all_finished {
                    g.outcome = Some(Outcome::Complete);
                    self.done.notify_all();
                    return;
                }
                let trace =
                    Session::render_stuck(&g, "deadlock or lost wakeup: no runnable thread");
                g.outcome = Some(Outcome::Stuck(trace));
                Session::abort_locked(&mut g);
                self.done.notify_all();
                if disposition == Disposition::Finish {
                    return;
                }
                drop(g);
                abort_unwind();
            }
            // Preemption budget: once spent, a runnable current thread
            // always continues (forced switches above are unaffected).
            let budget_left = self.opts.preemption_bound.is_none_or(|b| g.preemptions < b);
            let constrained = if disposition == Disposition::Continue && !budget_left {
                &alts[..1]
            } else {
                &alts[..]
            };
            let idx = if constrained.len() == 1 {
                0
            } else {
                let i = if g.cursor < g.prefix.len() {
                    g.prefix[g.cursor]
                } else {
                    0
                };
                assert!(
                    i < constrained.len(),
                    "model: replay diverged (prefix index {i} of {} alternatives) — \
                     the harness closure is not deterministic",
                    constrained.len()
                );
                g.cursor += 1;
                g.decisions.push(Decision {
                    chosen: i,
                    alternatives: constrained.len(),
                });
                i
            };
            let next = constrained[idx];
            if next != me && disposition == Disposition::Continue {
                g.preemptions += 1;
            }
            g.current = next;
            let park = next != me;
            if park {
                g.threads[next].gate.open();
            }
            (park && disposition != Disposition::Finish, {
                StdArc::clone(&g.threads[me].gate)
            })
        };
        if park {
            my_gate.park();
            if self.lock().aborting {
                abort_unwind();
            }
        }
    }

    /// Mark `me` blocked on `what` (trace label) under the session lock.
    fn block(&self, me: Tid, what: String) {
        let mut g = self.lock();
        g.threads[me].state = ThreadState::Blocked;
        g.threads[me].blocked_on = Some(what);
    }

    /// Mark `tid` runnable again (wake event).
    fn wake_locked(g: &mut Inner, tid: Tid) {
        debug_assert_ne!(g.threads[tid].state, ThreadState::Finished);
        g.threads[tid].state = ThreadState::Runnable;
        g.threads[tid].blocked_on = None;
    }
}

// ---------------------------------------------------------------------------
// Resource protocols (called from `sync` with a known session context).
// ---------------------------------------------------------------------------

pub(crate) fn register_mutex(sess: &StdArc<Session>) -> usize {
    let mut g = sess.lock();
    g.mutexes.push(MutexRec {
        owner: None,
        waiters: Vec::new(),
    });
    g.mutexes.len() - 1
}

pub(crate) fn register_condvar(sess: &StdArc<Session>) -> usize {
    let mut g = sess.lock();
    g.condvars.push(CondvarRec {
        waiters: VecDeque::new(),
    });
    g.condvars.len() - 1
}

/// Acquire virtual mutex `id`: schedule, then contend until ownership.
pub(crate) fn mutex_lock(sess: &StdArc<Session>, me: Tid, id: usize) {
    sess.reschedule(me, Disposition::Continue);
    loop {
        {
            let mut g = sess.lock();
            if g.aborting {
                drop(g);
                abort_unwind();
            }
            let rec = &mut g.mutexes[id];
            if rec.owner.is_none() {
                rec.owner = Some(me);
                return;
            }
            rec.waiters.push(me);
            drop(g);
            sess.block(me, format!("mutex #{id}"));
        }
        // Forced switch; resumed once the owner released and the
        // scheduler picked us — barge for the lock again (real mutexes
        // barge too, so this loses no real interleavings).
        sess.reschedule(me, Disposition::Block);
    }
}

/// Release virtual mutex `id`, waking every contender to re-barge.
pub(crate) fn mutex_unlock(sess: &StdArc<Session>, me: Tid, id: usize) {
    {
        let mut g = sess.lock();
        if g.aborting {
            // Unwinding drops guards; just release bookkeeping silently.
            g.mutexes[id].owner = None;
            return;
        }
        let rec = &mut g.mutexes[id];
        debug_assert_eq!(rec.owner, Some(me), "model mutex released by non-owner");
        rec.owner = None;
        let waiters = std::mem::take(&mut rec.waiters);
        for w in waiters {
            Session::wake_locked(&mut g, w);
        }
    }
    // Release is a scheduling point: a woken contender may grab the lock
    // before we proceed (the handoff race every lost-wakeup bug lives in).
    sess.reschedule(me, Disposition::Continue);
}

/// Condvar wait: atomically release mutex `mid`, enqueue on condvar
/// `cid`, block; on wakeup re-acquire `mid`.
pub(crate) fn condvar_wait(sess: &StdArc<Session>, me: Tid, cid: usize, mid: usize) {
    {
        let mut g = sess.lock();
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        g.condvars[cid].waiters.push_back(me);
        let rec = &mut g.mutexes[mid];
        debug_assert_eq!(rec.owner, Some(me), "condvar wait without the lock");
        rec.owner = None;
        let waiters = std::mem::take(&mut rec.waiters);
        for w in waiters {
            Session::wake_locked(&mut g, w);
        }
        g.threads[me].state = ThreadState::Blocked;
        g.threads[me].blocked_on = Some(format!("condvar #{cid}"));
    }
    sess.reschedule(me, Disposition::Block);
    // Notified (moved to Runnable) and scheduled: re-acquire the mutex.
    mutex_lock(sess, me, mid);
}

/// Wake the longest-waiting thread on condvar `cid`, if any.
pub(crate) fn condvar_notify(sess: &StdArc<Session>, me: Tid, cid: usize, all: bool) {
    {
        let mut g = sess.lock();
        if g.aborting {
            return;
        }
        if all {
            let waiters = std::mem::take(&mut g.condvars[cid].waiters);
            for w in waiters {
                Session::wake_locked(&mut g, w);
            }
        } else if let Some(w) = g.condvars[cid].waiters.pop_front() {
            Session::wake_locked(&mut g, w);
        }
        // A notify with no waiters is a no-op — exactly the hole lost
        // wakeups hide in; exploring schedules around this point is what
        // finds them.
    }
    sess.reschedule(me, Disposition::Continue);
}

/// A sequentially-consistent atomic step (the op runs under the session
/// lock, after a scheduling point).
pub(crate) fn atomic_step<R>(sess: &StdArc<Session>, me: Tid, op: impl FnOnce() -> R) -> R {
    sess.reschedule(me, Disposition::Continue);
    let _g = sess.lock();
    op()
}

/// Explicit yield: a pure scheduling point.
pub(crate) fn yield_point(sess: &StdArc<Session>, me: Tid) {
    sess.reschedule(me, Disposition::Continue);
}

/// Spawn a model thread running `f`; the new thread is immediately
/// schedulable (spawn is itself a scheduling point).
pub(crate) fn spawn_model<T, F>(
    sess: &StdArc<Session>,
    me: Tid,
    name: Option<String>,
    f: F,
) -> crate::sync::thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let result: StdArc<StdMutex<Option<std::thread::Result<T>>>> = StdArc::new(StdMutex::new(None));
    let tid = {
        let mut g = sess.lock();
        let tid = g.threads.len();
        assert!(
            tid < sess.opts.max_threads,
            "model: session exceeded max_threads ({}) — shrink the harness",
            sess.opts.max_threads
        );
        g.threads.push(ThreadSlot {
            state: ThreadState::Runnable,
            gate: Gate::new(),
            join_waiters: Vec::new(),
            name: name.unwrap_or_else(|| format!("t{tid}")),
            blocked_on: None,
        });
        tid
    };
    let os = {
        let sess2 = StdArc::clone(sess);
        let result2 = StdArc::clone(&result);
        std::thread::Builder::new()
            .name(format!("slpm-model-{tid}"))
            .spawn(move || run_model_thread(sess2, tid, result2, f))
            .expect("spawning a model thread failed")
    };
    sess.lock().os_handles.push(os);
    sess.reschedule(me, Disposition::Continue);
    crate::sync::thread::JoinHandle::model(StdArc::clone(sess), tid, result)
}

/// Body of every model OS thread: park until first scheduled, run the
/// closure, then retire through the finish protocol.
fn run_model_thread<T, F>(
    sess: StdArc<Session>,
    tid: Tid,
    result: StdArc<StdMutex<Option<std::thread::Result<T>>>>,
    f: F,
) where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    CURRENT.with(|c| *c.borrow_mut() = Some((StdArc::clone(&sess), tid)));
    let gate = StdArc::clone(&sess.lock().threads[tid].gate);
    gate.park();
    if sess.lock().aborting {
        finish_thread(&sess, tid, None);
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(f));
    match outcome {
        Ok(v) => {
            *result.lock().expect("model result slot") = Some(Ok(v));
            finish_thread(&sess, tid, None);
        }
        Err(payload) if payload.is::<Abort>() => {
            finish_thread(&sess, tid, None);
        }
        Err(payload) => {
            if tid == 0 {
                // The root closure's panic is the run's verdict; the
                // driver re-raises it.
                finish_thread(&sess, tid, Some(payload));
            } else {
                *result.lock().expect("model result slot") = Some(Err(payload));
                sess.lock().unjoined_panics += 1;
                finish_thread(&sess, tid, None);
            }
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Retire a model thread: record the root panic (if any), wake joiners,
/// and hand the schedule to whoever is next.
fn finish_thread(sess: &StdArc<Session>, tid: Tid, root_panic: Option<Box<dyn Any + Send>>) {
    {
        let mut g = sess.lock();
        if let Some(p) = root_panic {
            g.root_panic = Some(p);
        }
        g.threads[tid].state = ThreadState::Finished;
        g.threads[tid].blocked_on = None;
        let joiners = std::mem::take(&mut g.threads[tid].join_waiters);
        for j in joiners {
            Session::wake_locked(&mut g, j);
        }
    }
    sess.reschedule(tid, Disposition::Finish);
}

/// Block until model thread `target` finishes, then take its result.
pub(crate) fn join_model<T: Send + 'static>(
    sess: &StdArc<Session>,
    me: Tid,
    target: Tid,
    result: &StdArc<StdMutex<Option<std::thread::Result<T>>>>,
) -> std::thread::Result<T> {
    loop {
        {
            let mut g = sess.lock();
            if g.aborting {
                drop(g);
                abort_unwind();
            }
            if g.threads[target].state == ThreadState::Finished {
                drop(g);
                let taken = result
                    .lock()
                    .expect("model result slot")
                    .take()
                    .expect("model thread finished without storing a result");
                if taken.is_err() {
                    sess.lock().unjoined_panics -= 1;
                }
                return taken;
            }
            g.threads[target].join_waiters.push(me);
            g.threads[me].state = ThreadState::Blocked;
            g.threads[me].blocked_on = Some(format!("join of thread {target}"));
        }
        sess.reschedule(me, Disposition::Block);
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Exhaustively explore the interleavings of `f` (up to the options'
/// bounds), running it once per schedule.
///
/// `f` must be *deterministic modulo scheduling*: given the same
/// scheduler choices it must perform the same sequence of sync
/// operations (no wall-clock, no ambient randomness, no iteration over
/// randomly-seeded hash maps). Every sync object it uses must be created
/// inside the closure so each run starts fresh.
///
/// # Panics
/// Panics when any schedule deadlocks, loses a wakeup (a blocked thread
/// nobody will ever wake), livelocks past `max_steps`, or when the
/// closure itself panics on some schedule (that panic is re-raised, so
/// `assert!`s inside `f` become schedule-universal properties).
pub fn explore<F>(opts: ModelOptions, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        current_session().is_none(),
        "model: explore() must not be nested inside a session"
    );
    let f = StdArc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    let mut max_decisions = 0usize;
    loop {
        let sess = StdArc::new(Session::new(opts, std::mem::take(&mut prefix)));
        // Register and launch the root model thread (tid 0).
        {
            let mut g = sess.lock();
            g.threads.push(ThreadSlot {
                state: ThreadState::Runnable,
                gate: Gate::new(),
                join_waiters: Vec::new(),
                name: "root".to_string(),
                blocked_on: None,
            });
        }
        let root_result: StdArc<StdMutex<Option<std::thread::Result<()>>>> =
            StdArc::new(StdMutex::new(None));
        let os_root = {
            let sess2 = StdArc::clone(&sess);
            let result2 = StdArc::clone(&root_result);
            let f2 = StdArc::clone(&f);
            std::thread::Builder::new()
                .name("slpm-model-0".to_string())
                .spawn(move || run_model_thread(sess2, 0, result2, move || f2()))
                .expect("spawning the root model thread failed")
        };
        sess.lock().os_handles.push(os_root);
        // Kick the root and wait for the run's outcome.
        let root_gate = StdArc::clone(&sess.lock().threads[0].gate);
        root_gate.open();
        let (stuck, decisions, root_panic, unjoined) = {
            let mut g = sess.lock();
            while g.outcome.is_none() {
                g = sess.done.wait(g).expect("model session lock");
            }
            // Release every OS thread before joining (abort already did
            // under Stuck; Complete means they have all finished).
            let handles = std::mem::take(&mut g.os_handles);
            let stuck = match g.outcome.take() {
                Some(Outcome::Stuck(trace)) => Some(trace),
                _ => None,
            };
            let decisions = std::mem::take(&mut g.decisions);
            let root_panic = g.root_panic.take();
            let unjoined = g.unjoined_panics;
            drop(g);
            // An aborted session's threads may be parked for good (see
            // `abort_unwind`); only a completed one is joined.
            if stuck.is_none() {
                for h in handles {
                    let _ = h.join();
                }
            }
            (stuck, decisions, root_panic, unjoined)
        };
        if let Some(trace) = stuck {
            panic!("model checker: stuck schedule after {schedules} clean schedule(s)\n{trace}");
        }
        if let Some(payload) = root_panic {
            eprintln!(
                "model checker: closure panicked on schedule {schedules} \
                 ({} decisions deep)",
                decisions.len()
            );
            resume_unwind(payload);
        }
        assert!(
            unjoined == 0,
            "model checker: {unjoined} spawned thread(s) panicked and were never joined"
        );
        schedules += 1;
        max_decisions = max_decisions.max(decisions.len());
        if schedules >= opts.max_schedules {
            return Report {
                schedules,
                exhausted: false,
                max_decisions,
            };
        }
        // DFS advance: bump the deepest decision that still has an
        // unexplored alternative; drop everything after it.
        let mut next_prefix: Option<Vec<usize>> = None;
        for i in (0..decisions.len()).rev() {
            if decisions[i].chosen + 1 < decisions[i].alternatives {
                let mut p: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
                p.push(decisions[i].chosen + 1);
                next_prefix = Some(p);
                break;
            }
        }
        match next_prefix {
            Some(p) => prefix = p,
            None => {
                return Report {
                    schedules,
                    exhausted: true,
                    max_decisions,
                }
            }
        }
    }
}
