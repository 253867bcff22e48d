//! Health tracking for a fault from outside the request: a small circuit
//! breaker.
//!
//! An [`EngineHealth`] guards a resource whose failures outlive the request
//! that saw them: a [`crate::service::Service`] session keeps one over its
//! storage (a failing disk). Repeated failures trip the breaker **open**
//! and its owner stops routing work to that resource; after a cooldown the
//! breaker admits one **half-open** probe, and the probe's outcome decides
//! whether the resource rejoins or trips again. The
//! [`crate::resilience::Dispatcher`] keeps none: the engines are
//! deterministic, so an engine failure there belongs to its request. The
//! [`crate::shard::ShardSupervisor`] keeps none either: every run launches
//! a fresh worker fleet, so a lost worker does not outlive its run. The
//! state machine:
//!
//! ```text
//!               failure × threshold                 cooldown elapses
//!   Closed ───────────────────────────▶ Open ───────────────────────▶ HalfOpen
//!     ▲                                  ▲                               │
//!     │            success               │            failure           │
//!     └──────────────────────────────────┴───────────────────────◀──────┘
//! ```
//!
//! Only *transient* failures ([`crate::MpError::is_transient`]: a lost
//! worker, a refused write or fsync) count against the resource;
//! input-validation errors say nothing about its health and are never
//! recorded.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Consecutive transient failures that trip a breaker open.
const FAILURE_THRESHOLD: u32 = 3;

/// How long an open breaker rejects requests before admitting a half-open
/// probe; also how long a probe may stay outstanding before its slot is
/// handed to another caller.
const COOLDOWN: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy)]
enum State {
    Closed {
        failures: u32,
    },
    Open {
        until: Instant,
    },
    /// Exactly one probe is outstanding; `probe_since` is when it was
    /// admitted, so a probe that never reports back (its thread died
    /// without reaching `on_success`/`on_failure`) can be reclaimed after
    /// another cooldown instead of wedging the breaker half-open forever.
    HalfOpen {
        probe_since: Instant,
    },
}

/// One circuit breaker. Interior-mutable and thread-safe; a service
/// session holds one over its storage.
#[derive(Debug)]
pub(crate) struct EngineHealth {
    state: Mutex<State>,
}

impl EngineHealth {
    /// A fresh, closed breaker.
    pub(crate) fn new() -> Self {
        EngineHealth {
            state: Mutex::new(State::Closed { failures: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoned lock means a panic elsewhere while holding it; the
        // state is a plain Copy enum, so the value is still coherent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// May a request be routed to this engine right now? An open breaker
    /// whose cooldown has elapsed transitions to half-open and admits the
    /// caller as **the** probe; every other caller is rejected until that
    /// probe reports its outcome. The single state transition and the
    /// admit decision happen under one lock, so concurrent callers racing
    /// the cooldown edge see exactly one winner. A probe outstanding
    /// longer than a full cooldown is presumed lost and its slot handed to
    /// the current caller.
    pub(crate) fn admit(&self) -> bool {
        let mut state = self.lock();
        let now = Instant::now();
        match *state {
            State::Closed { .. } => true,
            State::HalfOpen { probe_since } => {
                if now.saturating_duration_since(probe_since) >= COOLDOWN {
                    // The previous probe went dark; take over its slot.
                    *state = State::HalfOpen { probe_since: now };
                    true
                } else {
                    false
                }
            }
            State::Open { until } => {
                if now >= until {
                    *state = State::HalfOpen { probe_since: now };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful run: the breaker closes and the failure count
    /// resets.
    pub(crate) fn on_success(&self) {
        *self.lock() = State::Closed { failures: 0 };
    }

    /// Record a transient failure. A closed breaker trips open once the
    /// consecutive-failure threshold is reached; a half-open probe failure
    /// re-opens immediately.
    pub(crate) fn on_failure(&self) {
        let mut state = self.lock();
        *state = match *state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= FAILURE_THRESHOLD {
                    State::Open {
                        until: Instant::now() + COOLDOWN,
                    }
                } else {
                    State::Closed { failures }
                }
            }
            State::HalfOpen { .. } => State::Open {
                until: Instant::now() + COOLDOWN,
            },
            open @ State::Open { .. } => open,
        };
    }
}

/// The externally observable state of one breaker (read by tests).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CircuitState {
    /// Healthy: requests flow normally.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Probing: one request has been admitted after cooldown; its outcome
    /// re-closes or re-opens the breaker.
    HalfOpen,
}

#[cfg(test)]
impl EngineHealth {
    /// The current observable state (does not consume the half-open probe;
    /// an open breaker past its cooldown still reports `Open` until a
    /// request asks to be admitted).
    pub(crate) fn state(&self) -> CircuitState {
        match *self.lock() {
            State::Closed { .. } => CircuitState::Closed,
            State::Open { .. } => CircuitState::Open,
            State::HalfOpen { .. } => CircuitState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests run on the shipped values, written out so that a change
    // to either constant fails them: a threshold of three failures and a
    // 100 ms cooldown.

    /// Long enough past the 100 ms cooldown that a sleeping test wakes
    /// after it.
    const PAST_COOLDOWN: Duration = Duration::from_millis(120);

    /// A breaker tripped open by three consecutive failures.
    fn tripped() -> EngineHealth {
        let h = EngineHealth::new();
        for _ in 0..3 {
            h.on_failure();
        }
        h
    }

    #[test]
    fn stays_closed_below_threshold() {
        let h = EngineHealth::new();
        h.on_failure();
        h.on_failure();
        assert_eq!(h.state(), CircuitState::Closed);
        assert!(h.admit());
    }

    #[test]
    fn trips_open_at_threshold_and_rejects() {
        let h = tripped();
        assert_eq!(h.state(), CircuitState::Open);
        assert!(!h.admit());
    }

    #[test]
    fn success_resets_the_failure_count() {
        let h = EngineHealth::new();
        h.on_failure();
        h.on_failure();
        h.on_success();
        h.on_failure();
        h.on_failure();
        assert_eq!(h.state(), CircuitState::Closed);
    }

    #[test]
    fn cooldown_admits_a_half_open_probe() {
        let h = tripped();
        assert!(!h.admit());
        std::thread::sleep(PAST_COOLDOWN);
        assert!(h.admit());
        assert_eq!(h.state(), CircuitState::HalfOpen);
    }

    #[test]
    fn probe_success_closes() {
        let h = tripped();
        std::thread::sleep(PAST_COOLDOWN);
        assert!(h.admit());
        h.on_success();
        assert_eq!(h.state(), CircuitState::Closed);
        assert!(h.admit());
    }

    #[test]
    fn probe_failure_reopens() {
        let h = tripped();
        std::thread::sleep(PAST_COOLDOWN);
        assert!(h.admit());
        h.on_failure();
        assert_eq!(h.state(), CircuitState::Open);
        assert!(!h.admit());
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let h = tripped();
        std::thread::sleep(PAST_COOLDOWN);
        assert!(h.admit(), "first caller wins the probe slot");
        // Losers are rejected without disturbing the breaker state.
        for _ in 0..10 {
            assert!(!h.admit());
        }
        assert_eq!(h.state(), CircuitState::HalfOpen);
        // The probe's success still closes the breaker normally.
        h.on_success();
        assert_eq!(h.state(), CircuitState::Closed);
    }

    #[test]
    fn concurrent_probes_admit_exactly_one() {
        // Interleaving check for the race the single-probe rule exists
        // for: many threads hit admit() at the same instant right after
        // the cooldown; exactly one may win, and the losers must not
        // double-transition the breaker. The cooldown also bounds how long
        // an admitted probe holds its slot, so it must outlast the spread
        // of the threads' arrivals on a loaded host, or a late thread
        // reclaims the slot.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};

        for round in 0..20 {
            let h = Arc::new(tripped());
            assert_eq!(h.state(), CircuitState::Open);
            std::thread::sleep(PAST_COOLDOWN);

            let threads = 8;
            let barrier = Arc::new(Barrier::new(threads));
            let admitted = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let h = Arc::clone(&h);
                    let barrier = Arc::clone(&barrier);
                    let admitted = Arc::clone(&admitted);
                    std::thread::spawn(move || {
                        barrier.wait();
                        if h.admit() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            assert_eq!(
                admitted.load(Ordering::Relaxed),
                1,
                "round {round}: exactly one concurrent probe may be admitted"
            );
            assert_eq!(h.state(), CircuitState::HalfOpen);
        }
    }

    #[test]
    fn lost_probe_slot_is_reclaimed_after_a_cooldown() {
        let h = tripped();
        std::thread::sleep(PAST_COOLDOWN);
        assert!(h.admit(), "probe admitted");
        assert!(!h.admit(), "slot taken");
        // The probe never reports back; after another cooldown the slot is
        // handed to a new caller instead of wedging half-open forever.
        std::thread::sleep(PAST_COOLDOWN);
        assert!(h.admit(), "dark probe's slot reclaimed");
        assert_eq!(h.state(), CircuitState::HalfOpen);
    }
}
