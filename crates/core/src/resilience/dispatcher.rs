//! The resilient dispatcher: a fallback chain over the hardened engines.
//!
//! The paper's central observation — serial, spinetree and
//! chunked/vectorized implementations compute the *same* operation — is
//! exactly the raw material for graceful degradation: if one implementation
//! is slow, wedged or failing, another can serve the identical request. A
//! [`Dispatcher`] packages that:
//!
//! * a configurable **fallback chain** of [`Engine`]s, tried in order
//!   (default `Chunked → Serial`: the engine `Engine::Auto` runs, then the
//!   Figure 2 loop);
//! * per-attempt and per-request **deadlines** and a caller-supplied
//!   [`crate::resilience::CancelToken`], threaded into every engine via
//!   [`crate::resilience::RunContext`] checkpoints;
//! * **one run per chain entry**: a transient failure
//!   ([`MpError::AllocationFailed`], [`MpError::EnginePanicked`], a blown
//!   attempt deadline) moves on to the next entry; a permanent error
//!   (validation, overflow, budgets) or [`MpError::Cancelled`] returns at
//!   once. The engines are deterministic, so a second run on the same
//!   engine could change only the outcome of a failed allocation or an
//!   injected chaos fault, and the next entry covers both.
//!
//! The dispatcher keeps no state across requests: a request whose own
//! operator panics gets [`MpError::EnginePanicked`] after one run per
//! entry, and no other request notices.
//!
//! Each attempt runs through the same engine tables as
//! [`crate::try_multiprefix_ctx`] and [`crate::try_multireduce_ctx`], so
//! an engine does here exactly what it does there; the dispatcher adds
//! only its own `Atomic` (`i64`) and `Sharded` arms.
//!
//! Every successful dispatch returns the canonical result: on integer
//! operators, bit-identical to the serial (Figure 2) oracle under the
//! configured [`crate::exec::OverflowPolicy`] no matter which engine
//! served it. On floats the bits are serial's when the serving engine
//! combines in serial order — the default chain's `Chunked` on one chunk,
//! or `Serial` — and otherwise that engine's grouping's (see
//! [`crate::try_multiprefix`]). A failed dispatch returns a typed
//! [`MpError`], and on an invalid input that error is
//! [`crate::validate`]'s. Wrong answers and hangs are not in the outcome
//! space: engines are checkpoint-bounded and the dispatcher contains their
//! panics.

use crate::api::{Call, Engine};
use crate::atomic::{
    try_multiprefix_atomic_cfg_ctx, try_multireduce_atomic_cfg_ctx, AtomicCombine,
};
use crate::error::MpError;
use crate::exec::{ExecConfig, TryEngineResult};
use crate::obs::{dispatch_keys, Recorder};
use crate::op::TryCombineOp;
use crate::problem::{Element, MultiprefixOutput};
use crate::resilience::chaos::ChaosState;
use crate::resilience::ctx::{CancelToken, Deadline, RunContext};
use crate::shard::{ShardConfig, ShardSupervisor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine selector under its former dispatcher name. [`Engine`] is
/// the one engine enum; the alias stays only because the end-to-end
/// benchmark package imports it, like [`crate::blocked`].
pub type EngineKind = Engine;

/// The `i64` entries' atomic-engine call, which the generic entries lack.
type AtomicCall<'a, R> = Option<&'a dyn Fn(&RunContext) -> TryEngineResult<R>>;

/// Full dispatcher configuration. The default chain is chunked → serial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatcherConfig {
    /// Engines to try, in order; later entries are fallbacks. Handles an
    /// engine that cannot take the element type (skipped) or that fails
    /// (the next entry runs). The default is `[Chunked, Serial]`: the
    /// chunked engine on one chunk, as [`Engine::Auto`] runs it, then the
    /// Figure 2 loop. Spinetree, atomic and sharded entries run only when
    /// named here.
    pub chain: Vec<Engine>,
    /// Hardened-execution config (overflow policy, budgets) applied to
    /// every attempt.
    pub exec: ExecConfig,
    /// Wall-clock budget for one engine attempt (`None` = unbounded).
    /// Handles a slow engine: an attempt that blows it falls through to the
    /// next entry. Spinetree, for one, took 10× serial's time at n = 10⁶ in
    /// the committed `BENCH_multiprefix.json`.
    pub attempt_timeout: Option<Duration>,
    /// Wall-clock budget for the whole dispatch, every chain entry included
    /// (`None` = unbounded). Handles the caller's budget: once it is spent
    /// the dispatch returns [`MpError::DeadlineExceeded`] before another
    /// entry runs.
    pub request_timeout: Option<Duration>,
    /// Opt-in sharded execution: when set, the dispatcher owns a
    /// [`ShardSupervisor`], whose per-shard breakers handle a lost shard
    /// worker across requests, and [`Engine::Sharded`] chain entries
    /// participate. When `None` (the default) sharded entries are skipped
    /// as unsupported, exactly like [`Engine::Atomic`] for non-`i64`
    /// dispatches.
    pub shard: Option<ShardConfig>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            chain: vec![Engine::Chunked, Engine::Serial],
            exec: ExecConfig::default(),
            attempt_timeout: None,
            request_timeout: None,
            shard: None,
        }
    }
}

/// Per-call options: cancellation, a per-request deadline, and (in tests)
/// chaos injection.
#[derive(Debug, Clone, Default)]
pub struct DispatchOpts {
    /// Cooperative cancellation handle for this request.
    pub cancel: Option<CancelToken>,
    /// A deadline for **this request** (combined, earliest-wins, with the
    /// dispatcher-wide [`DispatcherConfig::request_timeout`]). This is how
    /// a [`crate::service::Service`] propagates a caller's deadline through
    /// queueing: a request that spent its budget waiting is rejected at the
    /// first pre-attempt check — before any engine runs — rather than after
    /// a wasted execution.
    pub deadline: Option<Deadline>,
    /// Armed chaos plan faulting this request's engine checkpoints.
    pub chaos: Option<Arc<ChaosState>>,
}

/// A successful dispatch: the result plus how it was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOutcome<R> {
    /// The canonical result: the serial oracle's bits on integer operators
    /// and, on floats, whenever the serving engine combines in serial
    /// order (see [`crate::try_multiprefix`]).
    pub output: R,
    /// The engine that served the request ([`Engine::Chunked`] for an
    /// [`Engine::Auto`] chain entry).
    pub engine: Engine,
    /// Engine attempts actually executed (≥ 1): one per chain entry run.
    pub attempts: u32,
    /// Chain entries skipped or failed out before the serving engine.
    pub fallbacks: u32,
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<Deadline>, b: Option<Deadline>) -> Option<Deadline> {
    a.into_iter().chain(b).min()
}

/// The resilient dispatch runtime. See the module docs for the model.
///
/// ```
/// use multiprefix::op::Plus;
/// use multiprefix::resilience::{Dispatcher, DispatcherConfig, DispatchOpts};
///
/// let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
/// let outcome = dispatcher
///     .dispatch(&[1i64, 1, 1], &[0, 1, 0], 2, Plus, &DispatchOpts::default())
///     .unwrap();
/// assert_eq!(outcome.output.sums, vec![0, 0, 1]);
/// assert_eq!(outcome.output.reductions, vec![2, 1]);
/// ```
#[derive(Debug)]
pub struct Dispatcher {
    cfg: DispatcherConfig,
    recorder: Option<Arc<dyn Recorder>>,
    /// The sharded engine's orchestrator, present iff
    /// [`DispatcherConfig::shard`] is set. Owned here so shard breaker
    /// state and loss counters persist across requests.
    shard: Option<ShardSupervisor>,
}

impl Dispatcher {
    /// Build a dispatcher, rejecting configurations that could never serve
    /// a request ([`MpError::InvalidConfig`]).
    pub fn new(cfg: DispatcherConfig) -> Result<Self, MpError> {
        if cfg.chain.is_empty() {
            return Err(MpError::InvalidConfig {
                what: "fallback chain is empty",
            });
        }
        // Element-size-independent config checks; the per-call validation
        // re-runs with the real element size.
        cfg.exec.validate_for(1)?;
        let shard = cfg.shard.map(ShardSupervisor::new);
        Ok(Dispatcher {
            cfg,
            recorder: None,
            shard,
        })
    }

    /// Install an observability [`Recorder`] (see [`crate::obs`]). Per
    /// engine, the dispatcher records an attempt-latency histogram
    /// (`dispatch.<kind>.attempt_ns`) and an attempt counter
    /// (`dispatch.<kind>.attempts`); per request, the `dispatch.requests` /
    /// `dispatch.fallbacks` counters. The recorder is also threaded into
    /// each attempt's [`RunContext`], so engines time their phases into it.
    /// With no recorder — the default — none of this costs anything.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The installed recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DispatcherConfig {
        &self.cfg
    }

    /// The sharded engine's supervisor, when [`DispatcherConfig::shard`] is
    /// configured — exposes shard-loss/requeue/degradation counters and
    /// per-shard breaker states.
    pub fn shard_supervisor(&self) -> Option<&ShardSupervisor> {
        self.shard.as_ref()
    }
    /// Dispatch a multiprefix over any [`Element`] type. [`Engine::Atomic`]
    /// entries in the chain are skipped (the atomic engine is `i64`-only —
    /// use [`Self::dispatch_i64`] to include it).
    pub fn dispatch<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
    ) -> Result<DispatchOutcome<MultiprefixOutput<T>>, MpError> {
        let call = Call::new(values, labels, m, op, self.cfg.exec);
        self.prefix_chain(call, opts, None)
    }

    /// [`Self::dispatch`] for `i64` with a commutative [`AtomicCombine`]
    /// operator — the one combination the concurrent atomic engine
    /// supports, so [`Engine::Atomic`] chain entries participate.
    pub fn dispatch_i64<O: AtomicCombine + TryCombineOp<i64>>(
        &self,
        values: &[i64],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
    ) -> Result<DispatchOutcome<MultiprefixOutput<i64>>, MpError> {
        let call = Call::new(values, labels, m, op, self.cfg.exec);
        let atomic = |ctx: &RunContext| {
            try_multiprefix_atomic_cfg_ctx(values, labels, m, op, call.config, ctx)
        };
        self.prefix_chain(call, opts, Some(&atomic))
    }

    /// Dispatch a multireduce (per-label reductions only). As with
    /// [`crate::try_multireduce`], a checking overflow policy always
    /// evaluates serially — a reduce-only engine cannot certify the
    /// serial-order semantics.
    pub fn dispatch_reduce<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
    ) -> Result<DispatchOutcome<Vec<T>>, MpError> {
        let call = Call::new(values, labels, m, op, self.cfg.exec);
        self.reduce_chain(call, opts, None)
    }

    /// [`Self::dispatch_reduce`] for `i64` with an [`AtomicCombine`]
    /// operator, including [`Engine::Atomic`] chain entries.
    pub fn dispatch_reduce_i64<O: AtomicCombine + TryCombineOp<i64>>(
        &self,
        values: &[i64],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
    ) -> Result<DispatchOutcome<Vec<i64>>, MpError> {
        let call = Call::new(values, labels, m, op, self.cfg.exec);
        let atomic = |ctx: &RunContext| {
            try_multireduce_atomic_cfg_ctx(values, labels, m, op, call.config, ctx)
        };
        self.reduce_chain(call, opts, Some(&atomic))
    }

    /// Every prefix flavor: the shared prefix table, plus the dispatcher's
    /// own atomic (`i64` entries only) and sharded (when configured) arms.
    /// The request's checks are the API's: [`Call::admit`] up front, then
    /// each engine's own label check, and [`crate::validate`]'s error for
    /// any failure of an invalid input — also one that ends the dispatch
    /// before any engine runs.
    fn prefix_chain<T: Element, O: TryCombineOp<T>>(
        &self,
        call: Call<'_, T, O>,
        opts: &DispatchOpts,
        atomic: AtomicCall<'_, MultiprefixOutput<T>>,
    ) -> Result<DispatchOutcome<MultiprefixOutput<T>>, MpError> {
        call.admit()?;
        self.drive(
            opts,
            |kind| match kind {
                Engine::Atomic => atomic.is_some(),
                Engine::Sharded => self.shard.is_some(),
                _ => true,
            },
            |kind, ctx| match (kind, atomic, &self.shard) {
                (Engine::Atomic, Some(atomic), _) => call.run_prefix(kind, ctx, || atomic(ctx)),
                (Engine::Sharded, _, Some(sup)) => call.run_prefix(kind, ctx, || {
                    sup.try_multiprefix(call.values, call.labels, call.m, call.op, call.config, ctx)
                }),
                _ => call.prefix(kind, ctx),
            },
        )
        .map_err(|err| call.input_error_first(err))
    }

    /// Every reduce flavor, as [`Self::prefix_chain`]. Reduce dispatches
    /// have no sharded path (the sharded engine's value is distributing the
    /// three-phase prefix; a reduce is served fine by the single-node
    /// engines), so `Sharded` is skipped like any other unsupported engine.
    fn reduce_chain<T: Element, O: TryCombineOp<T>>(
        &self,
        call: Call<'_, T, O>,
        opts: &DispatchOpts,
        atomic: AtomicCall<'_, Vec<T>>,
    ) -> Result<DispatchOutcome<Vec<T>>, MpError> {
        call.admit()?;
        self.drive(
            opts,
            |kind| match kind {
                Engine::Atomic => atomic.is_some(),
                Engine::Sharded => false,
                _ => true,
            },
            |kind, ctx| match (kind, atomic) {
                (Engine::Atomic, Some(atomic)) => call.run_reduce(kind, ctx, || atomic(ctx)),
                _ => call.reduce(kind, ctx),
            },
        )
        .map_err(|err| call.input_error_first(err))
    }

    /// The attempt loop shared by every dispatch flavor: walk the chain,
    /// run each supported entry once, honor the deadlines, contain panics.
    fn drive<R>(
        &self,
        opts: &DispatchOpts,
        supports: impl Fn(Engine) -> bool,
        run: impl Fn(Engine, &RunContext) -> Result<R, MpError>,
    ) -> Result<DispatchOutcome<R>, MpError> {
        let request_deadline =
            earliest(self.cfg.request_timeout.map(Deadline::after), opts.deadline);
        let rec = self.recorder.as_deref();
        let count = |key: &str| {
            if let Some(rec) = rec {
                rec.counter(key, 1);
            }
        };
        count("dispatch.requests");
        let mut attempts = 0u32;
        let mut last_transient: Option<MpError> = None;

        // Every entry before the serving one was skipped or failed out, so
        // the serving entry's index is the fallback count.
        for (fallbacks, &entry) in self.cfg.chain.iter().enumerate() {
            // `Auto` runs, reports and is keyed as the chunked engine.
            let kind = entry.resolve();
            if supports(kind) {
                if request_deadline.is_some_and(|d| d.expired()) {
                    // The caller's budget, not the failure before it, ended
                    // the dispatch: report it as such (and let the service
                    // count it as `expired`).
                    return Err(MpError::DeadlineExceeded);
                }
                let [attempt_ns_key, attempts_key] = dispatch_keys(kind);
                attempts += 1;
                count(attempts_key);
                let ctx = self.attempt_ctx(kind, request_deadline, opts);
                // Contain panics from *any* engine (and from chaos
                // injection): AssertUnwindSafe is sound because `run`
                // captures only shared references to the inputs and every
                // partially built output dies inside the closure.
                let started = rec.map(|_| Instant::now());
                let result = catch_unwind(AssertUnwindSafe(|| run(kind, &ctx)))
                    .unwrap_or(Err(MpError::EnginePanicked));
                if let (Some(rec), Some(started)) = (rec, started) {
                    let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    rec.duration_ns(attempt_ns_key, nanos);
                }
                match result {
                    Ok(output) => {
                        return Ok(DispatchOutcome {
                            output,
                            engine: kind,
                            attempts,
                            fallbacks: fallbacks as u32,
                        })
                    }
                    // A failed allocation, a panic or a blown attempt
                    // deadline: the next entry gets its one run.
                    Err(err) if err.is_transient() => last_transient = Some(err),
                    // Permanent errors are properties of the request
                    // (validation, overflow, budget), and `Cancelled` is the
                    // caller's intent: no entry can change either.
                    Err(err) => return Err(err),
                }
            }
            // Unsupported or failed out: the next entry.
            count("dispatch.fallbacks");
        }
        Err(last_transient.unwrap_or(MpError::Unavailable))
    }

    fn attempt_ctx(
        &self,
        kind: Engine,
        request_deadline: Option<Deadline>,
        opts: &DispatchOpts,
    ) -> RunContext {
        let mut ctx = RunContext::new().for_engine(kind);
        if let Some(rec) = &self.recorder {
            ctx = ctx.with_recorder(Arc::clone(rec));
        }
        let attempt_deadline = self.cfg.attempt_timeout.map(Deadline::after);
        if let Some(d) = earliest(request_deadline, attempt_deadline) {
            ctx = ctx.with_deadline(d);
        }
        if let Some(cancel) = &opts.cancel {
            ctx = ctx.with_cancel(cancel);
        }
        if let Some(chaos) = &opts.chaos {
            ctx = ctx.with_chaos(Arc::clone(chaos));
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;
    use crate::resilience::chaos::ChaosPlan;
    use crate::serial::multiprefix_serial;

    fn problem(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
        let values = (0..n).map(|i| (i as i64 * 31 % 53) - 26).collect();
        let labels = (0..n).map(|i| (i * 7 + i / 5) % m).collect();
        (values, labels)
    }

    #[test]
    fn default_chain_serves_correctly() {
        let (values, labels) = problem(3000, 11);
        let d = Dispatcher::new(DispatcherConfig::default()).unwrap();
        let outcome = d
            .dispatch(&values, &labels, 11, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 11, Plus)
        );
        assert_eq!(outcome.engine, Engine::Chunked);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.fallbacks, 0);
    }

    #[test]
    fn auto_entry_runs_reports_and_is_keyed_as_chunked() {
        let (values, labels) = problem(3000, 11);
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = DispatcherConfig {
            chain: vec![Engine::Auto],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg)
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let outcome = d
            .dispatch(&values, &labels, 11, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, Engine::Chunked);
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);
        assert!(rec.histogram("engine.chunked.phase.local").is_some());
    }

    #[test]
    fn i64_chain_with_atomic_primary() {
        let (values, labels) = problem(2000, 7);
        let cfg = DispatcherConfig {
            chain: vec![Engine::Atomic, Engine::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let outcome = d
            .dispatch_i64(&values, &labels, 7, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, Engine::Atomic);
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 7, Plus)
        );
        // Generic dispatch must skip the atomic entry instead.
        let generic = d
            .dispatch(&values, &labels, 7, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(generic.engine, Engine::Serial);
        assert_eq!(generic.fallbacks, 1);
    }

    #[test]
    fn wedged_primary_falls_back_after_one_attempt() {
        let (values, labels) = problem(1500, 5);
        let expect = multiprefix_serial(&values, &labels, 5, Plus);
        let cfg = DispatcherConfig {
            chain: vec![Engine::Chunked, Engine::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        // Chaos: every chunked-engine checkpoint fails allocation; serial
        // is untouched.
        let chaos = ChaosPlan::seeded(11)
            .alloc_fail_ppm(1_000_000)
            .only(Engine::Chunked)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        // Each request runs each entry once; the dispatcher keeps no state
        // between them, so the second request tries chunked again.
        for _ in 0..2 {
            let outcome = d.dispatch(&values, &labels, 5, Plus, &opts).unwrap();
            assert_eq!(outcome.output, expect);
            assert_eq!(outcome.engine, Engine::Serial);
            assert_eq!(outcome.attempts, 2, "1 chunked attempt + 1 serial");
            assert_eq!(outcome.fallbacks, 1);
        }
    }

    #[test]
    fn permanent_errors_bypass_the_chain() {
        let rec = crate::obs::MemoryRecorder::shared();
        let d = Dispatcher::new(DispatcherConfig::default())
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let err = d
            .dispatch(&[1i64], &[2], 2, Plus, &DispatchOpts::default())
            .unwrap_err();
        assert!(matches!(err, MpError::LabelOutOfRange { .. }));
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);
        assert_eq!(rec.counter_value("dispatch.serial.attempts"), 0);
    }

    #[test]
    fn invalid_configs_rejected_at_construction() {
        let empty = DispatcherConfig {
            chain: vec![],
            ..Default::default()
        };
        assert_eq!(
            Dispatcher::new(empty).unwrap_err(),
            MpError::InvalidConfig {
                what: "fallback chain is empty"
            }
        );
        let zero_buckets = DispatcherConfig {
            exec: ExecConfig::default().max_buckets(0),
            ..Default::default()
        };
        assert!(matches!(
            Dispatcher::new(zero_buckets).unwrap_err(),
            MpError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn cancellation_stops_the_whole_dispatch() {
        let (values, labels) = problem(2000, 5);
        let d = Dispatcher::new(DispatcherConfig::default()).unwrap();
        let opts = DispatchOpts {
            cancel: Some(CancelToken::cancel_after(0)),
            ..Default::default()
        };
        assert_eq!(
            d.dispatch(&values, &labels, 5, Plus, &opts).unwrap_err(),
            MpError::Cancelled
        );
    }

    #[test]
    fn expired_request_deadline_rejected_before_any_engine_runs() {
        let (values, labels) = problem(2000, 5);
        let rec = crate::obs::MemoryRecorder::shared();
        let d = Dispatcher::new(DispatcherConfig::default())
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let opts = DispatchOpts {
            deadline: Some(Deadline::at(std::time::Instant::now())),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 5, Plus, &opts);
        assert_eq!(outcome.unwrap_err(), MpError::DeadlineExceeded);
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 0);
    }

    #[test]
    fn per_request_deadline_tightens_config_timeout() {
        let (values, labels) = problem(500, 3);
        // Generous config timeout, already-expired per-request deadline:
        // the earlier of the two governs.
        let cfg = DispatcherConfig {
            request_timeout: Some(Duration::from_secs(3600)),
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let opts = DispatchOpts {
            deadline: Some(Deadline::at(std::time::Instant::now())),
            ..Default::default()
        };
        assert_eq!(
            d.dispatch(&values, &labels, 3, Plus, &opts).unwrap_err(),
            MpError::DeadlineExceeded
        );
        // A generous per-request deadline does not loosen anything.
        let opts = DispatchOpts {
            deadline: Some(Deadline::after(Duration::from_secs(3600))),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 3, Plus, &opts).unwrap();
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 3, Plus)
        );
    }

    #[test]
    fn exhausted_chain_reports_last_transient() {
        let (values, labels) = problem(800, 3);
        let cfg = DispatcherConfig {
            chain: vec![Engine::Chunked],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let chaos = ChaosPlan::seeded(5).alloc_fail_ppm(1_000_000).arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        assert_eq!(
            d.dispatch(&values, &labels, 3, Plus, &opts).unwrap_err(),
            MpError::AllocationFailed { bytes: 0 }
        );
    }

    #[test]
    fn type_incapable_chain_is_unavailable() {
        // Atomic-only chain + a non-i64 dispatch: nothing can serve.
        let cfg = DispatcherConfig {
            chain: vec![Engine::Atomic],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let err = d
            .dispatch(&[1.0f64, 2.0], &[0, 1], 2, Plus, &DispatchOpts::default())
            .unwrap_err();
        assert_eq!(err, MpError::Unavailable);
    }

    #[test]
    fn expired_deadline_reported_as_deadline_not_last_transient() {
        // Regression: a request whose deadline expires during a failed
        // entry must settle `DeadlineExceeded` — the caller's budget ended
        // the dispatch — before the next entry runs.
        let (values, labels) = problem(400, 3);
        let rec = crate::obs::MemoryRecorder::shared();
        let d = Dispatcher::new(DispatcherConfig::default())
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        // The chunked engine's first checkpoint stalls, clamped to the
        // request's deadline; its next checkpoint sees the deadline spent.
        let chaos = ChaosPlan::seeded(5)
            .stall(1_000_000, Duration::from_secs(60))
            .only(Engine::Chunked)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos.clone()),
            deadline: Some(Deadline::after(Duration::from_millis(100))),
            ..Default::default()
        };
        let started = Instant::now();
        let err = d.dispatch(&values, &labels, 3, Plus, &opts).unwrap_err();
        assert_eq!(err, MpError::DeadlineExceeded);
        assert!(started.elapsed() < Duration::from_secs(30), "stall clamped");
        assert_eq!(chaos.stalls_injected(), 1);
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);
        assert_eq!(rec.counter_value("dispatch.serial.attempts"), 0);
    }

    #[test]
    fn recorder_sees_attempts_and_fallbacks() {
        let (values, labels) = problem(1500, 5);
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = DispatcherConfig {
            chain: vec![Engine::Chunked, Engine::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg)
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let chaos = ChaosPlan::seeded(11)
            .alloc_fail_ppm(1_000_000)
            .only(Engine::Chunked)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 5, Plus, &opts).unwrap();
        assert_eq!(outcome.engine, Engine::Serial);

        assert_eq!(rec.counter_value("dispatch.requests"), 1);
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);
        assert_eq!(rec.counter_value("dispatch.serial.attempts"), 1);
        assert_eq!(rec.counter_value("dispatch.fallbacks"), 1);
        // Attempt latency was histogrammed for both engines.
        assert_eq!(
            rec.histogram("dispatch.chunked.attempt_ns").unwrap().count,
            1
        );
        assert_eq!(
            rec.histogram("dispatch.serial.attempt_ns").unwrap().count,
            1
        );
        // The serial engine ran under a recorder-carrying context, so its
        // Figure 2 phase span landed too.
        assert_eq!(
            rec.histogram("engine.serial.phase.figure2").unwrap().count,
            1
        );
    }

    #[test]
    fn sharded_primary_serves_when_configured() {
        let (values, labels) = problem(3000, 11);
        let cfg = DispatcherConfig {
            chain: vec![Engine::Sharded, Engine::Serial],
            shard: Some(crate::shard::ShardConfig::default().shards(3)),
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let outcome = d
            .dispatch(&values, &labels, 11, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, Engine::Sharded);
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 11, Plus)
        );
        assert_eq!(d.shard_supervisor().unwrap().shards_lost(), 0);
        // Reduce dispatch has no sharded path: it skips to serial.
        let reduce = d
            .dispatch_reduce(&values, &labels, 11, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(reduce.engine, Engine::Serial);
    }

    #[test]
    fn unconfigured_sharded_entry_is_skipped_as_fallback() {
        let (values, labels) = problem(800, 5);
        let cfg = DispatcherConfig {
            chain: vec![Engine::Sharded, Engine::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        assert!(d.shard_supervisor().is_none());
        let outcome = d
            .dispatch(&values, &labels, 5, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, Engine::Serial);
        assert_eq!(outcome.fallbacks, 1);
    }

    #[test]
    fn sharded_dispatch_survives_injected_shard_loss() {
        let (values, labels) = problem(2000, 7);
        let cfg = DispatcherConfig {
            chain: vec![Engine::Sharded, Engine::Serial],
            shard: Some(
                crate::shard::ShardConfig::default()
                    .shards(3)
                    .task_timeout(Duration::from_millis(200)),
            ),
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let chaos = ChaosPlan::seeded(21)
            .shard_panic_ppm(1_000_000)
            .only_shard(0)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 7, Plus, &opts).unwrap();
        assert_eq!(outcome.engine, Engine::Sharded);
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 7, Plus)
        );
        let sup = d.shard_supervisor().unwrap();
        assert!(sup.shards_lost() >= 1);
        assert!(sup.requeues() >= 1);
    }

    #[test]
    fn serial_reduce_records_its_figure2_span() {
        let (values, labels) = problem(2500, 9);
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = DispatcherConfig {
            chain: vec![Engine::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg)
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let outcome = d
            .dispatch_reduce(&values, &labels, 9, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, Engine::Serial);
        assert_eq!(
            rec.histogram("engine.serial.phase.figure2").unwrap().count,
            1
        );
    }

    #[test]
    fn reduce_dispatch_matches_oracle() {
        let (values, labels) = problem(2500, 9);
        let d = Dispatcher::new(DispatcherConfig::default()).unwrap();
        let expect = crate::serial::multireduce_serial(&values, &labels, 9, Plus);
        let outcome = d
            .dispatch_reduce(&values, &labels, 9, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.output, expect);
        let outcome = d
            .dispatch_reduce_i64(&values, &labels, 9, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.output, expect);
    }
}
