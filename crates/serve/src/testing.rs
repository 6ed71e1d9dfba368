//! Test-support utilities for the serving stack.
//!
//! The engine's failure-mode tests assert things like "a panicking replay
//! unit surfaces at [`crate::BatchHandle::wait`] instead of hanging the
//! batch". A regression in that path looks like a test that never
//! returns, which a plain `#[test]` turns into a stuck CI job rather
//! than a red one. [`with_watchdog`] bounds such tests: the body runs on
//! a helper thread, and if it misses its deadline the watchdog fails the
//! test with a clear message while the hung thread is left detached.
//! Tests that seed intentional panics silence them with
//! [`with_quiet_panics`], which takes turns on the process-global panic
//! hook.

use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Run `f` with the global panic hook silenced, then restore the hook —
/// also when `f` panics, whose payload is re-raised afterwards. The hook
/// is process-global, so concurrent tests that seed intentional panics
/// take turns swapping it under one lock.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK_TURN: Mutex<()> = Mutex::new(());
    let _turn = HOOK_TURN
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Run `f` under a deadline: returns its value when it finishes in time,
/// re-raises its panic if it panics, and panics with
/// `watchdog: <name> did not finish within <timeout>` if it hangs.
///
/// The body runs on its own thread so a hang cannot wedge the caller;
/// on timeout that thread is abandoned (detached), which is fine for a
/// test process that is about to fail anyway.
pub fn with_watchdog<R, F>(timeout: Duration, name: &str, f: F) -> R
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    // xtask:allow(thread-spawn): the watchdog must outlive a hung test body
    let worker = std::thread::Builder::new()
        .name(format!("watchdog:{name}"))
        .spawn(move || {
            // A send can only fail if the watchdog already timed out and
            // dropped the receiver; the value is discarded either way.
            let _ = tx.send(f());
        })
        .expect("spawn watchdog worker thread");
    match rx.recv_timeout(timeout) {
        Ok(value) => {
            worker.join().expect("worker already sent its result");
            value
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: {name} did not finish within {timeout:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            // The sender only drops without sending when `f` unwound.
            Ok(()) => unreachable!("worker disconnected without panicking"),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_the_value_through() {
        let got = with_watchdog(Duration::from_secs(5), "value", || 7 * 6);
        assert_eq!(got, 42);
    }

    #[test]
    fn watchdog_reraises_the_body_panic() {
        let outcome = with_quiet_panics(|| {
            std::panic::catch_unwind(|| {
                with_watchdog(Duration::from_secs(5), "boom", || panic!("inner failure"))
            })
        });
        let payload = outcome.expect_err("body panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload is a &str");
        assert_eq!(msg, "inner failure");
    }

    #[test]
    fn watchdog_times_out_a_hung_body() {
        let outcome = with_quiet_panics(|| {
            std::panic::catch_unwind(|| {
                with_watchdog(Duration::from_millis(50), "hang", || {
                    std::thread::sleep(Duration::from_secs(60));
                })
            })
        });
        let payload = outcome.expect_err("hung body must trip the watchdog");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a String");
        assert!(
            msg.contains("watchdog: hang did not finish within"),
            "unexpected message: {msg}"
        );
    }
}
