//! `slpm_check` — model-checked concurrency for the serving stack.
//!
//! Every determinism claim the tree makes rests on hand-rolled
//! concurrency: the `crossbeam` shim's MPMC channels, the
//! lifetime-erasure latch in `crossbeam::thread::run_scoped`, and
//! `slpm_serve`'s worker pool, per-shard FIFO queues, breakers, epoch
//! swaps and `BatchHandle`. All of it is written against the
//! `crossbeam::sync` facade, which this crate's tests compile in the
//! shim's `model` mode (a dev-dependency feature, so no plain build of
//! the engine carries it): objects created inside a
//! `crossbeam::model::explore` session report every lock, condvar wait,
//! atomic and spawn to a deterministic scheduler, which then enumerates
//! the bounded interleavings. The tests in `tests/model.rs` build a tiny **real**
//! `slpm_serve::ServeEngine` inside each explored run — no copy of the
//! engine exists — and assert, over every explored schedule:
//!
//! 1. no deadlock or lost wakeup,
//! 2. `slpm_serve::digest_outcomes`, degraded coverage and fault
//!    penalties equal a serial engine's (scheduling moves work, never
//!    answers), including across breaker trips and epoch swaps,
//! 3. a panic inside a replay unit never wedges `wait()`.
//!
//! Each real-engine scenario prints one
//! `real-engine <scenario>: explored N schedules (exhausted: B)` line
//! and fails if it explored fewer than 1,000 schedules.
//! Run the full exploration suite with `cargo test -p slpm_check
//! --release` (debug builds explore a smaller schedule budget so the
//! tier-1 `cargo test -q` gate stays fast). The crate has no library
//! items; everything lives in its tests.

#![forbid(unsafe_code)]
