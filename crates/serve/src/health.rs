//! Shard health: bounded retry/backoff, circuit breakers, and the
//! rebuild requests behind epoch-swapped failover.
//!
//! **The breaker rides the admission clock.** Transitions are driven by
//! the deterministic sequence of units admitted to a shard — never by
//! wall-clock time or runner scheduling. At admission the engine already
//! knows (from the fault stamp and the retry budget) whether a unit can
//! possibly succeed, so the breaker consumes that verdict in admission
//! order: `Closed` counts consecutive doomed units and **trips** at the
//! threshold (requesting an epoch swap and bumping the shard's
//! incarnation); `Open` fast-fails admitted units for `probe_cooldown`
//! units, then the next unit **probes** (`HalfOpen`): a succeeding probe
//! closes the breaker, a failing one re-opens it. Manifestation — the
//! actual bounded retry loop, backoff accrual, injected panics — still
//! happens physically at the replay seam; only the *decisions* are made
//! at admission, which is what keeps degraded coverage and digests
//! schedule-invariant.
//!
//! **Timeouts and backoff are simulated.** A replay attempt that stalls
//! to [`RecoveryConfig::timeout_us`] is abandoned there (the attempt
//! fails, charging the timeout); failed attempts wait
//! `backoff_us · 2^attempt` simulated microseconds before the next try.
//! The accumulated penalty lands in each query's `fault_us` and is
//! charged to its streaming latency — deterministic arithmetic, no
//! sleeping.

use crate::fault::UnitFault;
use std::fmt;

/// Retry, timeout and breaker knobs (all on the simulated clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Per-attempt timeout (simulated µs): an attempt stalling this long
    /// is abandoned and counted failed. Must be > 0.
    pub timeout_us: f64,
    /// Total attempts per unit (1 = no retry). Must be ≥ 1.
    pub max_attempts: u32,
    /// Base backoff between attempts (simulated µs), doubling per retry.
    /// Must be > 0.
    pub backoff_us: f64,
    /// Consecutive doomed units that trip a shard's breaker. Must be ≥ 1.
    pub breaker_threshold: u32,
    /// Admitted units an open breaker fast-fails before probing.
    pub probe_cooldown: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            timeout_us: 10_000.0,
            max_attempts: 3,
            backoff_us: 100.0,
            breaker_threshold: 3,
            probe_cooldown: 4,
        }
    }
}

impl RecoveryConfig {
    /// Reject nonsensical knobs with a message naming the offender.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeout_us.is_nan() || self.timeout_us <= 0.0 {
            return Err(format!("timeout_us must be > 0 (got {})", self.timeout_us));
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be >= 1 (0 would retry nothing)".to_string());
        }
        if self.backoff_us.is_nan() || self.backoff_us <= 0.0 {
            return Err(format!("backoff_us must be > 0 (got {})", self.backoff_us));
        }
        if self.breaker_threshold == 0 {
            return Err("breaker_threshold must be >= 1".to_string());
        }
        Ok(())
    }

    /// Simulated penalty of one *failed* attempt: the stall (capped at
    /// the timeout) plus the exponential backoff before the next try.
    pub(crate) fn failed_attempt_us(&self, stall_us: f64, attempt: u32, last: bool) -> f64 {
        let stall = stall_us.min(self.timeout_us);
        if last {
            stall
        } else {
            stall + self.backoff_us * (1u64 << attempt.min(20)) as f64
        }
    }
}

/// Circuit-breaker state of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally; consecutive doomed units count toward a trip.
    Closed,
    /// Tripped: admitted units fast-fail (degrade without retries) until
    /// the probe cooldown elapses.
    Open,
    /// Cooldown over: the next admitted unit is a probe.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// What admission decided for one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitDisposition {
    /// Run the bounded retry loop at the replay seam (the unit may still
    /// degrade there if its stamp dooms every attempt).
    Execute,
    /// Breaker open: degrade immediately, no attempts, no penalty.
    FastFail,
}

/// One shard's breaker plus its rebuild bookkeeping.
#[derive(Debug, Clone)]
pub struct ShardBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    trips: u32,
    /// Bumped at every trip; fault stamps match against it, so rebuilt
    /// slices escape incarnation-pinned faults.
    incarnation: u32,
    cooldown_left: u32,
    /// A trip (or an un-modeled panic) happened since the last swap; the
    /// engine rebuilds this shard's slice at the next admission boundary.
    rebuild_pending: bool,
    /// Rebuilds that could not build a fresh slice (the page file could
    /// not be reopened); each left the current slice serving.
    failed_rebuilds: u32,
}

impl Default for ShardBreaker {
    fn default() -> Self {
        ShardBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            incarnation: 0,
            cooldown_left: 0,
            rebuild_pending: false,
            failed_rebuilds: 0,
        }
    }
}

impl ShardBreaker {
    /// Feed one admitted unit through the state machine. `doomed` is the
    /// admission-time verdict: no retry budget can make this unit
    /// succeed. Returns how the replay seam should treat it.
    pub(crate) fn on_unit(&mut self, doomed: bool, cfg: &RecoveryConfig) -> UnitDisposition {
        match self.state {
            BreakerState::Closed => {
                if doomed {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= cfg.breaker_threshold {
                        self.trip(cfg);
                    }
                } else {
                    self.consecutive_failures = 0;
                }
                UnitDisposition::Execute
            }
            BreakerState::Open => {
                if self.cooldown_left > 0 {
                    self.cooldown_left -= 1;
                    UnitDisposition::FastFail
                } else {
                    self.state = BreakerState::HalfOpen;
                    self.probe(doomed, cfg)
                }
            }
            BreakerState::HalfOpen => self.probe(doomed, cfg),
        }
    }

    /// Resolve a probe unit: success closes the breaker, failure
    /// re-opens it (another cooldown, but no new trip/incarnation — the
    /// slice was already rebuilt; a persistent fault keeps it open).
    fn probe(&mut self, doomed: bool, cfg: &RecoveryConfig) -> UnitDisposition {
        if doomed {
            self.state = BreakerState::Open;
            self.cooldown_left = cfg.probe_cooldown;
        } else {
            self.state = BreakerState::Closed;
            self.consecutive_failures = 0;
        }
        UnitDisposition::Execute
    }

    /// Trip: open the breaker, request a slice rebuild, and bump the
    /// incarnation so units stamped after this point target the rebuilt
    /// slice's fault identity.
    fn trip(&mut self, cfg: &RecoveryConfig) {
        self.state = BreakerState::Open;
        self.trips += 1;
        self.incarnation += 1;
        self.cooldown_left = cfg.probe_cooldown;
        self.consecutive_failures = 0;
        self.rebuild_pending = true;
    }

    /// An un-modeled replay panic (outside the fault plan) was observed
    /// at the replay seam: the slice (and possibly its poisoned lock) is
    /// rebuilt at the next admission boundary. Does not touch the
    /// deterministic state machine — real bugs are not schedulable.
    pub(crate) fn note_unexpected_panic(&mut self) {
        self.rebuild_pending = true;
    }

    /// Take the pending-rebuild flag (true at most once per request).
    pub(crate) fn take_rebuild(&mut self) -> bool {
        std::mem::take(&mut self.rebuild_pending)
    }

    /// A taken rebuild could not build its slice: count it, and keep it
    /// pending so the next admission boundary tries again.
    pub(crate) fn rebuild_failed(&mut self) {
        self.failed_rebuilds += 1;
        self.rebuild_pending = true;
    }

    /// Incarnation the *next* stamped unit targets.
    pub(crate) fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Immutable snapshot for reporting.
    pub(crate) fn snapshot(&self, shard: usize) -> BreakerSnapshot {
        BreakerSnapshot {
            shard,
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            trips: self.trips,
            incarnation: self.incarnation,
            failed_rebuilds: self.failed_rebuilds,
        }
    }
}

/// A point-in-time view of one shard's breaker, for CLI/bench reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Shard id.
    pub shard: usize,
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive doomed units counted so far (closed state only).
    pub consecutive_failures: u32,
    /// Times this shard's breaker has tripped.
    pub trips: u32,
    /// Current slice incarnation (0 = the original build).
    pub incarnation: u32,
    /// Rebuilds that failed to reopen the page file and left the shard's
    /// current slice serving until a later admission rebuilt it.
    pub failed_rebuilds: u32,
}

/// The admission-time verdict for one unit, combining the fault stamp
/// with the breaker decision — what the engine enqueues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum UnitDirective {
    /// No fault stamped; replay normally.
    Serve,
    /// Run the bounded retry loop with this stamp.
    Faulted(UnitFault),
    /// Breaker open: record the unit as degraded without touching the
    /// shard.
    FastFail,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RecoveryConfig {
        RecoveryConfig {
            breaker_threshold: 2,
            probe_cooldown: 2,
            ..Default::default()
        }
    }

    #[test]
    fn validate_rejects_each_nonsensical_knob() {
        assert!(RecoveryConfig::default().validate().is_ok());
        for (bad, needle) in [
            (
                RecoveryConfig {
                    timeout_us: 0.0,
                    ..Default::default()
                },
                "timeout_us",
            ),
            (
                RecoveryConfig {
                    max_attempts: 0,
                    ..Default::default()
                },
                "max_attempts",
            ),
            (
                RecoveryConfig {
                    backoff_us: -1.0,
                    ..Default::default()
                },
                "backoff_us",
            ),
            (
                RecoveryConfig {
                    breaker_threshold: 0,
                    ..Default::default()
                },
                "breaker_threshold",
            ),
        ] {
            let err = bad.validate().expect_err("must reject");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn breaker_trips_opens_probes_and_closes() {
        let cfg = cfg();
        let mut b = ShardBreaker::default();
        // Two consecutive doomed units trip (threshold 2).
        assert_eq!(b.on_unit(true, &cfg), UnitDisposition::Execute);
        assert_eq!(b.snapshot(0).state, BreakerState::Closed);
        assert_eq!(b.on_unit(true, &cfg), UnitDisposition::Execute);
        let snap = b.snapshot(0);
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(snap.trips, 1);
        assert_eq!(snap.incarnation, 1);
        assert!(b.take_rebuild());
        assert!(!b.take_rebuild(), "rebuild request is one-shot");
        // Cooldown: two fast-fails.
        assert_eq!(b.on_unit(false, &cfg), UnitDisposition::FastFail);
        assert_eq!(b.on_unit(false, &cfg), UnitDisposition::FastFail);
        // Probe succeeds → closed, serving again.
        assert_eq!(b.on_unit(false, &cfg), UnitDisposition::Execute);
        assert_eq!(b.snapshot(0).state, BreakerState::Closed);
        assert_eq!(b.snapshot(0).trips, 1);
    }

    #[test]
    fn failed_probe_reopens_without_a_new_incarnation() {
        let cfg = RecoveryConfig {
            breaker_threshold: 1,
            probe_cooldown: 1,
            ..Default::default()
        };
        let mut b = ShardBreaker::default();
        assert_eq!(b.on_unit(true, &cfg), UnitDisposition::Execute); // trip
        assert_eq!(b.snapshot(0).incarnation, 1);
        assert_eq!(b.on_unit(true, &cfg), UnitDisposition::FastFail); // cooldown
        assert_eq!(b.on_unit(true, &cfg), UnitDisposition::Execute); // probe fails
        let snap = b.snapshot(0);
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(snap.trips, 1, "re-open is not a new trip");
        assert_eq!(snap.incarnation, 1, "no new incarnation on failed probe");
        // A later successful probe still closes it.
        assert_eq!(b.on_unit(false, &cfg), UnitDisposition::FastFail);
        assert_eq!(b.on_unit(false, &cfg), UnitDisposition::Execute);
        assert_eq!(b.snapshot(0).state, BreakerState::Closed);
    }

    #[test]
    fn interleaved_successes_reset_the_consecutive_count() {
        let cfg = cfg();
        let mut b = ShardBreaker::default();
        for _ in 0..8 {
            assert_eq!(b.on_unit(true, &cfg), UnitDisposition::Execute);
            assert_eq!(b.on_unit(false, &cfg), UnitDisposition::Execute);
        }
        assert_eq!(b.snapshot(0).state, BreakerState::Closed);
        assert_eq!(b.snapshot(0).trips, 0);
    }

    #[test]
    fn unexpected_panic_requests_rebuild_without_tripping() {
        let mut b = ShardBreaker::default();
        b.note_unexpected_panic();
        assert!(b.take_rebuild());
        let snap = b.snapshot(3);
        assert_eq!(snap.shard, 3);
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.trips, 0);
        assert_eq!(snap.incarnation, 0);
    }

    #[test]
    fn failed_attempt_penalty_caps_stall_and_doubles_backoff() {
        let cfg = RecoveryConfig {
            timeout_us: 100.0,
            backoff_us: 10.0,
            ..Default::default()
        };
        // Stall capped at the timeout; backoff doubles per attempt.
        assert_eq!(cfg.failed_attempt_us(500.0, 0, false), 100.0 + 10.0);
        assert_eq!(cfg.failed_attempt_us(500.0, 1, false), 100.0 + 20.0);
        assert_eq!(cfg.failed_attempt_us(40.0, 2, false), 40.0 + 40.0);
        // The final attempt pays no backoff (there is no next try).
        assert_eq!(cfg.failed_attempt_us(500.0, 2, true), 100.0);
    }
}
