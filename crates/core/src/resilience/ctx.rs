//! Deadlines, cooperative cancellation and the per-run context every
//! hardened engine threads through its loops.
//!
//! A [`RunContext`] carries three optional controls:
//!
//! * a [`Deadline`] — a wall-clock instant after which the run must stop;
//! * a [`CancelToken`] — a shared flag the caller (or another thread) can
//!   flip to abandon the run;
//! * a chaos hook ([`crate::resilience::ChaosState`]) — the fault-injection
//!   stream of the soak harness.
//!
//! Engines consult the context at **checkpoints**: once at entry, at every
//! phase boundary, and every [`CHECK_STRIDE`] iterations inside the
//! SPINETREE/ROWSUMS/SPINESUMS/MULTISUMS (and Figure-2 / chunk) loops. A
//! checkpoint that fails makes the engine unwind with a typed
//! [`MpError`] before any output buffer is returned — the caller observes
//! either a complete, correct result or an error, never a partial buffer.
//! An empty context's checkpoint is three `None` tests; the plain
//! (non-`try`) engines never checkpoint at all.

use crate::api::Engine;
use crate::error::MpError;
use crate::obs::{phase_key, Phase, Recorder, Span};
use crate::resilience::chaos::ChaosState;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many inner-loop iterations an engine may run between two context
/// checkpoints. Small enough that a cancel/deadline is honored promptly
/// (microseconds of work per stride), large enough that the per-element
/// cost of checkpointing is unmeasurable.
pub const CHECK_STRIDE: usize = 4096;

/// Test-only instrumentation: counts, per thread, how many times a
/// [`Deadline`] method read the wall clock. The shed-scan pin test uses it
/// to prove a full-lane victim scan performs no clock reads at all (it
/// compares stored absolute instants instead).
#[cfg(test)]
pub(crate) mod clock_probe {
    use std::cell::Cell;

    thread_local! {
        static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count() -> u64 {
        CLOCK_READS.with(Cell::get)
    }

    pub(super) fn record() {
        CLOCK_READS.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
fn probed_now() -> Instant {
    clock_probe::record();
    Instant::now()
}

#[cfg(not(test))]
#[inline(always)]
fn probed_now() -> Instant {
    Instant::now()
}

/// A wall-clock deadline for one run (or one dispatch attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline(Instant::now() + budget)
    }

    /// A deadline at an explicit instant.
    pub fn at(instant: Instant) -> Self {
        Deadline(instant)
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        probed_now() >= self.0
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.0.saturating_duration_since(probed_now())
    }

    /// The underlying instant.
    pub fn instant(&self) -> Instant {
        self.0
    }

    /// The earlier of two deadlines.
    pub fn min(self, other: Deadline) -> Deadline {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

struct TokenInner {
    cancelled: AtomicBool,
    /// Checkpoint fuse for deterministic testing: `u64::MAX` means "never
    /// auto-cancel"; any other value counts down one per poll and cancels
    /// when it reaches zero.
    fuse: AtomicU64,
}

/// A cooperative cancellation flag, shareable across threads.
///
/// Cloning yields another handle to the *same* flag; cancelling any handle
/// cancels every run holding one. Engines poll the token at checkpoints and
/// return [`MpError::Cancelled`], so cancellation is prompt (within one
/// [`CHECK_STRIDE`] of work) but never tears an output buffer.
///
/// ```
/// use multiprefix::resilience::CancelToken;
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                fuse: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// A token that cancels itself at the `n`-th engine checkpoint poll
    /// (`n = 0` cancels at the very first). This is the deterministic
    /// injection point of the cancellation-safety tests: it lets a test
    /// place the cancellation at *any* phase boundary or stride check
    /// without racing a second thread.
    pub fn cancel_after(n: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(n == 0),
                fuse: AtomicU64::new(n),
            }),
        }
    }

    /// Flip the flag: every subsequent checkpoint fails with
    /// [`MpError::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Current state (does not consume a fuse poll).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Checkpoint-time poll: burns one fuse count, then reports the flag.
    fn poll(&self) -> bool {
        let fuse = self.inner.fuse.load(Ordering::Relaxed);
        if fuse != u64::MAX {
            let prev = self
                .inner
                .fuse
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                    if f == u64::MAX || f == 0 {
                        None
                    } else {
                        Some(f - 1)
                    }
                });
            // `Ok(f)` burned one of the remaining allowed polls; only an
            // already-exhausted fuse (`Err(0)`) trips the cancellation.
            if prev == Err(0) {
                self.cancel();
            }
        }
        self.is_cancelled()
    }
}

/// Everything a hardened engine run needs to know about *when to stop*:
/// deadline, cancellation, and (in tests) fault injection.
///
/// `RunContext::default()` is the unbounded context — every checkpoint
/// passes — and is what the plain `try_*` entry points use. Build a bounded
/// one with the `with_*` methods and pass it to the `*_ctx` entry points
/// ([`crate::try_multiprefix_ctx`]) or let a
/// [`crate::resilience::Dispatcher`] construct one per attempt.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    chaos: Option<Arc<ChaosState>>,
    engine: Option<Engine>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl RunContext {
    /// The unbounded context: no deadline, no cancellation, no chaos.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the run by `deadline`.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bound the run by a fresh deadline `budget` from now.
    pub fn with_timeout(self, budget: Duration) -> Self {
        self.with_deadline(Deadline::after(budget))
    }

    /// Attach a cancellation token (cloned; the caller keeps its handle).
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Attach a chaos fault-injection stream (testing / soak harness).
    pub fn with_chaos(mut self, chaos: Arc<ChaosState>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Tag the context with the engine about to run it, so a targeted
    /// [`crate::resilience::ChaosPlan`] can fault one engine and spare the
    /// rest. The dispatcher sets this per attempt. [`Engine::Auto`] is
    /// tagged as the chunked engine it runs.
    pub fn for_engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine.resolve());
        self
    }

    /// Attach an observability [`Recorder`]: engines time their phases
    /// into it (see [`crate::obs`]). With none attached — the default —
    /// every instrumentation site reduces to one `None` test and **no
    /// clock is read**, so uninstrumented runs carry no overhead.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.recorder.as_deref()
    }

    /// A shared handle to the recorder, for components (the socket
    /// transport's reader threads) that outlive a single borrow of the
    /// context.
    pub(crate) fn recorder_arc(&self) -> Option<Arc<dyn Recorder>> {
        self.recorder.clone()
    }

    /// Start a [`Span`] timing `phase` of the context's engine (tagged via
    /// [`Self::for_engine`]). Inert — returns `None` without reading a
    /// clock — when no recorder is attached or the engine tag is unset.
    #[inline]
    pub fn phase_span(&self, phase: Phase) -> Option<Span<'_>> {
        match (self.recorder.as_deref(), self.engine) {
            (Some(rec), Some(engine)) => Span::begin(Some(rec), phase_key(engine, phase)),
            _ => None,
        }
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The attached chaos stream, if any — used by the chunked engine's
    /// local phase to fire per-chunk worker faults.
    pub(crate) fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_deref()
    }

    /// A shared handle to the chaos stream, for components (the shard
    /// transport) that outlive a single borrow of the context.
    pub(crate) fn chaos_arc(&self) -> Option<Arc<ChaosState>> {
        self.chaos.clone()
    }

    /// True when every checkpoint is a no-op (no deadline, cancel or chaos).
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.chaos.is_none()
    }

    /// One cooperative checkpoint: cancellation first (an explicit user
    /// intent outranks a timer), then the deadline, then chaos injection.
    ///
    /// Engines call this at entry, at phase boundaries, and every
    /// [`CHECK_STRIDE`] inner iterations; a failure propagates out as the
    /// run's result, with no partially-written output escaping.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), MpError> {
        if let Some(cancel) = &self.cancel {
            if cancel.poll() {
                return Err(MpError::Cancelled);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Err(MpError::DeadlineExceeded);
            }
        }
        if let Some(chaos) = &self.chaos {
            // The deadline rides along so an injected stall is clamped to
            // the attempt's remaining budget.
            chaos.inject(self.engine, self.deadline)?;
        }
        Ok(())
    }

    /// [`Self::checkpoint`] once every [`CHECK_STRIDE`] calls — the form
    /// the engines' inner loops use with their running element index.
    #[inline(always)]
    pub fn checkpoint_every(&self, i: usize) -> Result<(), MpError> {
        if i.is_multiple_of(CHECK_STRIDE) {
            self.checkpoint()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_context_always_passes() {
        let ctx = RunContext::new();
        assert!(ctx.is_unbounded());
        for i in 0..10_000 {
            assert!(ctx.checkpoint_every(i).is_ok());
        }
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let ctx = RunContext::new().with_cancel(&token);
        assert!(ctx.checkpoint().is_ok());
        token.cancel();
        assert_eq!(ctx.checkpoint(), Err(MpError::Cancelled));
        // Cancellation is sticky.
        assert_eq!(ctx.checkpoint(), Err(MpError::Cancelled));
    }

    #[test]
    fn cancel_after_fires_at_exact_poll() {
        for n in 0..5u64 {
            let ctx = RunContext::new().with_cancel(&CancelToken::cancel_after(n));
            for poll in 0..n {
                assert!(ctx.checkpoint().is_ok(), "poll {poll} of fuse {n}");
            }
            assert_eq!(ctx.checkpoint(), Err(MpError::Cancelled), "fuse {n}");
        }
    }

    #[test]
    fn expired_deadline_fails_immediately() {
        let ctx = RunContext::new().with_deadline(Deadline::at(Instant::now()));
        assert_eq!(ctx.checkpoint(), Err(MpError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_passes() {
        let ctx = RunContext::new().with_timeout(Duration::from_secs(3600));
        assert!(ctx.checkpoint().is_ok());
        assert!(ctx.deadline().is_some_and(|d| !d.expired()));
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let ctx = RunContext::new()
            .with_cancel(&CancelToken::cancel_after(0))
            .with_deadline(Deadline::at(Instant::now()));
        assert_eq!(ctx.checkpoint(), Err(MpError::Cancelled));
    }

    #[test]
    fn deadline_min_and_remaining() {
        let near = Deadline::after(Duration::from_millis(1));
        let far = Deadline::after(Duration::from_secs(100));
        assert_eq!(near.min(far), near);
        assert_eq!(far.min(near), near);
        assert!(far.remaining() > Duration::from_secs(50));
    }
}
