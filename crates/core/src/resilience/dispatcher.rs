//! The resilient dispatcher: fallback chains, retries with jittered
//! backoff, and per-engine circuit breakers over the hardened engines.
//!
//! The paper's central observation — serial, spinetree and
//! chunked/vectorized implementations compute the *same* operation — is
//! exactly the raw material for graceful degradation: if one implementation
//! is slow, wedged or failing, another can serve the identical request. A
//! [`Dispatcher`] packages that:
//!
//! * a configurable **fallback chain** of [`EngineKind`]s, tried in order
//!   (default `Chunked → Spinetree → Serial`);
//! * per-attempt and per-request **deadlines** and a caller-supplied
//!   [`crate::resilience::CancelToken`], threaded into every engine via
//!   [`crate::resilience::RunContext`] checkpoints;
//! * **retry with jittered exponential backoff** for *transient* failures
//!   ([`MpError::AllocationFailed`], [`MpError::EnginePanicked`], injected
//!   chaos faults) — permanent errors (validation, overflow, budgets)
//!   return immediately;
//! * a per-engine **circuit breaker** ([`crate::resilience::EngineHealth`])
//!   that trips a repeatedly failing engine out of the chain and probes it
//!   back in after a cooldown.
//!
//! Every successful dispatch returns the canonical result — bit-identical
//! to the serial (Figure 2) oracle under the configured
//! [`crate::exec::OverflowPolicy`] — no matter which engine served it; a
//! failed dispatch returns a typed [`MpError`]. Wrong answers and hangs are
//! not in the outcome space: engines are checkpoint-bounded and the
//! dispatcher contains their panics.

use crate::atomic::{
    try_multiprefix_atomic_cfg_ctx, try_multireduce_atomic_cfg_ctx, AtomicCombine,
};
use crate::chunked::{
    try_multiprefix_chunked_cfg_ctx, try_multiprefix_chunked_ws_ctx,
    try_multireduce_chunked_cfg_ctx, try_multireduce_chunked_ws_ctx, ChunkedWorkspace,
};
use crate::error::MpError;
use crate::exec::{estimate_engine_mem, ExecConfig, TryEngineResult};
use crate::obs::Recorder;
use crate::op::TryCombineOp;
use crate::problem::{validate_slices, Element, MultiprefixOutput};
use crate::resilience::chaos::ChaosState;
use crate::resilience::ctx::{CancelToken, Deadline, RunContext};
use crate::resilience::health::{BreakerConfig, CircuitState, EngineHealth};
use crate::serial::{try_multiprefix_serial_ctx, try_multireduce_serial_ctx};
use crate::shard::{ShardConfig, ShardSupervisor};
use crate::spinetree::{try_multiprefix_spinetree_ctx, try_multireduce_spinetree_ctx};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engines a [`Dispatcher`] chain can name.
///
/// Unlike [`crate::Engine`] (the plain API's selector), this includes the
/// `i64`-only atomic engine: the dispatcher knows per-call whether the
/// element type supports it and silently skips it (counting a fallback)
/// when it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The genuinely concurrent CRCW-ARB engine ([`crate::atomic`];
    /// `i64` + commutative operators only).
    Atomic,
    /// The fault-tolerant sharded engine ([`crate::shard`]): chunked phases
    /// distributed across supervised shard workers with shard-loss
    /// recovery. Opt-in: skipped unless [`DispatcherConfig::shard`] is set.
    Sharded,
    /// The two-level local/combine/apply engine with reusable chunk
    /// tables ([`crate::chunked`]) — the default primary.
    Chunked,
    /// The paper's `O(√n)`-step spinetree engine ([`crate::spinetree`]).
    Spinetree,
    /// The Figure 2 reference loop ([`crate::serial`]) — the engine of last
    /// resort: no parallel runtime, no auxiliary structures.
    Serial,
}

impl EngineKind {
    /// All engine kinds, in default-chain preference order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Atomic,
        EngineKind::Sharded,
        EngineKind::Chunked,
        EngineKind::Spinetree,
        EngineKind::Serial,
    ];

    fn index(self) -> usize {
        match self {
            EngineKind::Atomic => 0,
            EngineKind::Sharded => 1,
            EngineKind::Chunked => 2,
            EngineKind::Spinetree => 3,
            EngineKind::Serial => 4,
        }
    }

    /// Static (allocation-free) instrument keys for this engine:
    /// `(attempt latency histogram, attempts counter, retries counter,
    /// breaker event stream)`.
    fn obs_keys(self) -> (&'static str, &'static str, &'static str, &'static str) {
        macro_rules! keys {
            ($name:literal) => {
                (
                    concat!("dispatch.", $name, ".attempt_ns"),
                    concat!("dispatch.", $name, ".attempts"),
                    concat!("dispatch.", $name, ".retries"),
                    concat!("dispatch.breaker.", $name),
                )
            };
        }
        match self {
            EngineKind::Atomic => keys!("atomic"),
            EngineKind::Sharded => keys!("shard"),
            EngineKind::Chunked => keys!("chunked"),
            EngineKind::Spinetree => keys!("spinetree"),
            EngineKind::Serial => keys!("serial"),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EngineKind::Atomic => "atomic",
            EngineKind::Sharded => "shard",
            EngineKind::Chunked => "chunked",
            EngineKind::Spinetree => "spinetree",
            EngineKind::Serial => "serial",
        };
        f.write_str(name)
    }
}

/// Retry discipline for transient failures within one engine of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per engine (including the first); must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream (each sleep lands uniformly
    /// in `[backoff/2, backoff]`). Fixed seed ⇒ reproducible schedules.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5EED,
        }
    }
}

/// Full dispatcher configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatcherConfig {
    /// Engines to try, in order. The first healthy, admitted, type-capable
    /// engine serves the request; later entries are fallbacks.
    pub chain: Vec<EngineKind>,
    /// Hardened-execution config (overflow policy, budgets) applied to
    /// every attempt.
    pub exec: ExecConfig,
    /// Wall-clock budget for a single engine attempt (`None` = unbounded).
    pub attempt_timeout: Option<Duration>,
    /// Wall-clock budget for the whole dispatch — all engines, retries and
    /// backoff sleeps included (`None` = unbounded).
    pub request_timeout: Option<Duration>,
    /// Retry discipline per engine.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning, shared by all engines in the chain.
    pub breaker: BreakerConfig,
    /// Opt-in sharded execution: when set, the dispatcher owns a
    /// [`ShardSupervisor`] (so per-shard breaker state persists across
    /// requests) and [`EngineKind::Sharded`] chain entries participate.
    /// When `None` (the default) sharded entries are skipped as
    /// unsupported, exactly like [`EngineKind::Atomic`] for non-`i64`
    /// dispatches.
    pub shard: Option<ShardConfig>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            chain: vec![
                EngineKind::Chunked,
                EngineKind::Spinetree,
                EngineKind::Serial,
            ],
            exec: ExecConfig::default(),
            attempt_timeout: None,
            request_timeout: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
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
    /// The canonical result (identical to the serial oracle's).
    pub output: R,
    /// The engine that served the request.
    pub engine: EngineKind,
    /// Engine attempts actually executed (≥ 1).
    pub attempts: u32,
    /// Chain entries skipped or exhausted before the serving engine
    /// (unsupported type, open breaker, or failed out).
    pub fallbacks: u32,
}

/// The `before->after` label of a circuit-breaker transition, as recorded
/// in `dispatch.breaker.<kind>` event streams.
fn transition_name(before: CircuitState, after: CircuitState) -> &'static str {
    use CircuitState::{Closed, HalfOpen, Open};
    match (before, after) {
        (Closed, Open) => "closed->open",
        (Closed, HalfOpen) => "closed->half_open",
        (Open, Closed) => "open->closed",
        (Open, HalfOpen) => "open->half_open",
        (HalfOpen, Closed) => "half_open->closed",
        (HalfOpen, Open) => "half_open->open",
        (Closed, Closed) | (Open, Open) | (HalfOpen, HalfOpen) => "no-op",
    }
}

/// Deterministic xorshift64* stream for backoff jitter — no OS entropy, so
/// a fixed [`RetryPolicy::jitter_seed`] reproduces the schedule exactly.
struct JitterRng(u64);

impl JitterRng {
    fn new(seed: u64) -> Self {
        JitterRng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
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
    health: [EngineHealth; 5],
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
        if cfg.retry.max_attempts == 0 {
            return Err(MpError::InvalidConfig {
                what: "retry max_attempts is zero",
            });
        }
        // Element-size-independent config checks; the per-call validation
        // re-runs with the real element size.
        cfg.exec.validate_for(1)?;
        let health = EngineKind::ALL.map(|_| EngineHealth::new(cfg.breaker));
        let shard = cfg.shard.map(ShardSupervisor::new);
        Ok(Dispatcher {
            cfg,
            health,
            recorder: None,
            shard,
        })
    }

    /// Install an observability [`Recorder`] (see [`crate::obs`]). Per
    /// engine, the dispatcher records an attempt-latency histogram
    /// (`dispatch.<kind>.attempt_ns`), attempt and retry counters, and
    /// circuit-breaker state transitions as events
    /// (`dispatch.breaker.<kind>`: `closed->open` etc.); per request, the
    /// `dispatch.requests` / `dispatch.fallbacks` counters. The recorder is
    /// also threaded into each attempt's [`RunContext`], so engines time
    /// their phases into it. With no recorder — the default — none of this
    /// costs anything.
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

    /// The circuit-breaker state of one engine.
    pub fn circuit_state(&self, kind: EngineKind) -> CircuitState {
        self.health_of(kind).state()
    }

    /// The sharded engine's supervisor, when [`DispatcherConfig::shard`] is
    /// configured — exposes shard-loss/requeue/degradation counters and
    /// per-shard breaker states.
    pub fn shard_supervisor(&self) -> Option<&ShardSupervisor> {
        self.shard.as_ref()
    }

    fn health_of(&self, kind: EngineKind) -> &EngineHealth {
        &self.health[kind.index()]
    }

    /// Dispatch a multiprefix over any [`Element`] type. [`EngineKind::Atomic`]
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
        self.dispatch_inner(values, labels, m, op, opts, None)
    }

    /// [`Self::dispatch`] running any [`EngineKind::Chunked`] attempt in
    /// the caller's [`ChunkedWorkspace`] instead of fresh scratch — the
    /// zero-steady-state-allocation path a [`crate::service::Service`] uses
    /// with its workspace pool. Other engines in the chain are unaffected.
    pub fn dispatch_pooled<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
        ws: &mut ChunkedWorkspace<T>,
    ) -> Result<DispatchOutcome<MultiprefixOutput<T>>, MpError> {
        self.dispatch_inner(values, labels, m, op, opts, Some(ws))
    }

    fn dispatch_inner<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
        ws: Option<&mut ChunkedWorkspace<T>>,
    ) -> Result<DispatchOutcome<MultiprefixOutput<T>>, MpError> {
        self.validate_request::<T>(values, labels, m)?;
        let policy = self.cfg.exec.overflow;
        let exec = self.cfg.exec;
        // RefCell, not &mut, because `drive` takes a Fn it may call once per
        // attempt; a retried attempt re-borrows after the previous borrow
        // (even one dropped mid-unwind) has ended.
        let ws_cell = ws.map(std::cell::RefCell::new);
        self.drive(
            opts,
            |kind| {
                kind != EngineKind::Atomic && (kind != EngineKind::Sharded || self.shard.is_some())
            },
            |kind, ctx| {
                let tried: TryEngineResult<MultiprefixOutput<T>> = match kind {
                    EngineKind::Serial => {
                        return try_multiprefix_serial_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Spinetree => {
                        try_multiprefix_spinetree_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Chunked => match &ws_cell {
                        Some(cell) => {
                            let mut ws = cell.borrow_mut();
                            try_multiprefix_chunked_ws_ctx(
                                values, labels, m, op, exec, &mut ws, ctx,
                            )
                        }
                        None => try_multiprefix_chunked_cfg_ctx(values, labels, m, op, exec, ctx),
                    },
                    EngineKind::Sharded => match &self.shard {
                        Some(sup) => sup.try_multiprefix(values, labels, m, op, exec, ctx),
                        None => unreachable!(
                            "invariant: Sharded is filtered out of dispatch when unconfigured"
                        ),
                    },
                    EngineKind::Atomic => unreachable!(
                        "invariant: Atomic is filtered out of generic dispatch by `supports`"
                    ),
                };
                match tried? {
                    Some(out) => Ok(out),
                    // A checked combine tripped: canonicalize via serial
                    // replay under the same policy and context.
                    None => try_multiprefix_serial_ctx(values, labels, m, op, policy, ctx),
                }
            },
        )
    }

    /// [`Self::dispatch`] for `i64` with a commutative [`AtomicCombine`]
    /// operator — the one combination the concurrent atomic engine
    /// supports, so [`EngineKind::Atomic`] chain entries participate.
    pub fn dispatch_i64<O: AtomicCombine + TryCombineOp<i64>>(
        &self,
        values: &[i64],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
    ) -> Result<DispatchOutcome<MultiprefixOutput<i64>>, MpError> {
        self.validate_request::<i64>(values, labels, m)?;
        let policy = self.cfg.exec.overflow;
        let exec = self.cfg.exec;
        self.drive(
            opts,
            |kind| kind != EngineKind::Sharded || self.shard.is_some(),
            |kind, ctx| {
                let tried: TryEngineResult<MultiprefixOutput<i64>> = match kind {
                    EngineKind::Serial => {
                        return try_multiprefix_serial_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Spinetree => {
                        try_multiprefix_spinetree_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Chunked => {
                        try_multiprefix_chunked_cfg_ctx(values, labels, m, op, exec, ctx)
                    }
                    EngineKind::Sharded => match &self.shard {
                        Some(sup) => sup.try_multiprefix(values, labels, m, op, exec, ctx),
                        None => unreachable!(
                            "invariant: Sharded is filtered out of dispatch when unconfigured"
                        ),
                    },
                    EngineKind::Atomic => {
                        try_multiprefix_atomic_cfg_ctx(values, labels, m, op, exec, ctx)
                    }
                };
                match tried? {
                    Some(out) => Ok(out),
                    None => try_multiprefix_serial_ctx(values, labels, m, op, policy, ctx),
                }
            },
        )
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
        self.dispatch_reduce_inner(values, labels, m, op, opts, None)
    }

    /// [`Self::dispatch_reduce`] running [`EngineKind::Chunked`] attempts
    /// in the caller's [`ChunkedWorkspace`] (see [`Self::dispatch_pooled`]).
    pub fn dispatch_reduce_pooled<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
        ws: &mut ChunkedWorkspace<T>,
    ) -> Result<DispatchOutcome<Vec<T>>, MpError> {
        self.dispatch_reduce_inner(values, labels, m, op, opts, Some(ws))
    }

    fn dispatch_reduce_inner<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
        ws: Option<&mut ChunkedWorkspace<T>>,
    ) -> Result<DispatchOutcome<Vec<T>>, MpError> {
        self.validate_request::<T>(values, labels, m)?;
        let policy = self.cfg.exec.overflow;
        let exec = self.cfg.exec;
        let checking = policy.needs_checking();
        let ws_cell = ws.map(std::cell::RefCell::new);
        // Reduce dispatches have no sharded path (the sharded engine's
        // value is distributing the three-phase prefix; a reduce is served
        // fine by the single-node engines), so Sharded is skipped like any
        // other unsupported kind.
        self.drive(
            opts,
            |kind| kind != EngineKind::Atomic && kind != EngineKind::Sharded,
            |kind, ctx| {
                let tried: TryEngineResult<Vec<T>> = match kind {
                    _ if checking => {
                        return try_multireduce_serial_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Serial => {
                        return try_multireduce_serial_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Spinetree => {
                        try_multireduce_spinetree_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Chunked => match &ws_cell {
                        Some(cell) => {
                            let mut ws = cell.borrow_mut();
                            try_multireduce_chunked_ws_ctx(
                                values, labels, m, op, exec, &mut ws, ctx,
                            )
                        }
                        None => try_multireduce_chunked_cfg_ctx(values, labels, m, op, exec, ctx),
                    },
                    EngineKind::Atomic | EngineKind::Sharded => unreachable!(
                        "invariant: Atomic and Sharded are filtered out of reduce dispatch by `supports`"
                    ),
                };
                match tried? {
                    Some(red) => Ok(red),
                    None => try_multireduce_serial_ctx(values, labels, m, op, policy, ctx),
                }
            },
        )
    }

    /// [`Self::dispatch_reduce`] for `i64` with an [`AtomicCombine`]
    /// operator, including [`EngineKind::Atomic`] chain entries.
    pub fn dispatch_reduce_i64<O: AtomicCombine + TryCombineOp<i64>>(
        &self,
        values: &[i64],
        labels: &[usize],
        m: usize,
        op: O,
        opts: &DispatchOpts,
    ) -> Result<DispatchOutcome<Vec<i64>>, MpError> {
        self.validate_request::<i64>(values, labels, m)?;
        let policy = self.cfg.exec.overflow;
        let exec = self.cfg.exec;
        let checking = policy.needs_checking();
        self.drive(
            opts,
            |kind| kind != EngineKind::Sharded,
            |kind, ctx| {
                let tried: TryEngineResult<Vec<i64>> = match kind {
                    _ if checking => {
                        return try_multireduce_serial_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Serial => {
                        return try_multireduce_serial_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Spinetree => {
                        try_multireduce_spinetree_ctx(values, labels, m, op, policy, ctx)
                    }
                    EngineKind::Chunked => {
                        try_multireduce_chunked_cfg_ctx(values, labels, m, op, exec, ctx)
                    }
                    EngineKind::Sharded => unreachable!(
                        "invariant: Sharded is filtered out of reduce dispatch by `supports`"
                    ),
                    EngineKind::Atomic => {
                        try_multireduce_atomic_cfg_ctx(values, labels, m, op, exec, ctx)
                    }
                };
                match tried? {
                    Some(red) => Ok(red),
                    None => try_multireduce_serial_ctx(values, labels, m, op, policy, ctx),
                }
            },
        )
    }

    /// Input validation and budget checks, once per request (these are
    /// permanent failures — they say nothing about engine health and bypass
    /// the chain entirely).
    fn validate_request<T>(&self, values: &[T], labels: &[usize], m: usize) -> Result<(), MpError> {
        validate_slices(values, labels, m)?;
        self.cfg.exec.validate_for(std::mem::size_of::<T>())?;
        self.cfg.exec.check_buckets(m)?;
        self.cfg.exec.check_mem(estimate_engine_mem(
            values.len(),
            m,
            std::mem::size_of::<T>(),
        ))
    }

    /// The attempt loop shared by every dispatch flavor: walk the chain,
    /// retry transient failures with jittered backoff, honor breakers and
    /// deadlines, contain panics.
    fn drive<R>(
        &self,
        opts: &DispatchOpts,
        supports: impl Fn(EngineKind) -> bool,
        run: impl Fn(EngineKind, &RunContext) -> Result<R, MpError>,
    ) -> Result<DispatchOutcome<R>, MpError> {
        let mut request_deadline = self.cfg.request_timeout.map(Deadline::after);
        if let Some(d) = opts.deadline {
            request_deadline = Some(match request_deadline {
                Some(r) => r.min(d),
                None => d,
            });
        }
        let rec = self.recorder.as_deref();
        if let Some(rec) = rec {
            rec.counter("dispatch.requests", 1);
        }
        let mut jitter = JitterRng::new(self.cfg.retry.jitter_seed);
        let mut attempts = 0u32;
        let mut fallbacks = 0u32;
        let mut last_transient: Option<MpError> = None;

        'chain: for &kind in &self.cfg.chain {
            let (attempt_ns_key, attempts_key, retries_key, breaker_key) = kind.obs_keys();
            // Breaker transitions (closed->open, open->half_open, ...) are
            // reported as events by diffing the state around each breaker
            // interaction — the breaker itself stays recorder-free.
            let breaker_event = |before: CircuitState| {
                if let Some(rec) = rec {
                    let after = self.health_of(kind).state();
                    if after != before {
                        rec.event(breaker_key, transition_name(before, after));
                    }
                }
            };
            let pre_admit = match rec {
                Some(_) => self.health_of(kind).state(),
                None => CircuitState::Closed,
            };
            if !supports(kind) || !self.health_of(kind).admit() {
                breaker_event(pre_admit);
                fallbacks += 1;
                if let Some(rec) = rec {
                    rec.counter("dispatch.fallbacks", 1);
                }
                continue;
            }
            breaker_event(pre_admit);
            let mut backoff = self.cfg.retry.base_backoff;
            for attempt in 0..self.cfg.retry.max_attempts {
                if let Some(d) = request_deadline {
                    if d.expired() {
                        // The *request* deadline has passed: whatever
                        // transient error preceded it, the caller's budget
                        // is what actually ended the dispatch — report it
                        // as such (and let the service count it as
                        // `expired`, not as the last engine's failure).
                        return Err(MpError::DeadlineExceeded);
                    }
                }
                attempts += 1;
                if let Some(rec) = rec {
                    rec.counter(attempts_key, 1);
                    if attempt > 0 {
                        rec.counter(retries_key, 1);
                    }
                }
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
                        let before = match rec {
                            Some(_) => self.health_of(kind).state(),
                            None => CircuitState::Closed,
                        };
                        self.health_of(kind).on_success();
                        breaker_event(before);
                        return Ok(DispatchOutcome {
                            output,
                            engine: kind,
                            attempts,
                            fallbacks,
                        });
                    }
                    // Explicit user intent: stop the whole dispatch, no
                    // fallback, no breaker bookkeeping.
                    Err(MpError::Cancelled) => return Err(MpError::Cancelled),
                    Err(err) if err.is_transient() => {
                        let before = match rec {
                            Some(_) => self.health_of(kind).state(),
                            None => CircuitState::Closed,
                        };
                        self.health_of(kind).on_failure();
                        breaker_event(before);
                        let blew_deadline = matches!(err, MpError::DeadlineExceeded);
                        last_transient = Some(err);
                        if blew_deadline {
                            // The same engine under the same budget would
                            // likely blow it again — move down the chain.
                            fallbacks += 1;
                            if let Some(rec) = rec {
                                rec.counter("dispatch.fallbacks", 1);
                            }
                            continue 'chain;
                        }
                        if attempt + 1 < self.cfg.retry.max_attempts {
                            self.backoff_sleep(backoff, &mut jitter, request_deadline);
                            if let Some(rec) = rec {
                                rec.counter("dispatch.backoff_sleeps", 1);
                            }
                            // Saturating: a huge `base_backoff` (or enough
                            // doublings) must clamp to `max_backoff`, not
                            // panic in `Duration` multiplication.
                            backoff = backoff.saturating_mul(2).min(self.cfg.retry.max_backoff);
                        }
                    }
                    // Permanent: validation, overflow, budget, verification
                    // failures are properties of the request, not the
                    // engine — no retry, no fallback.
                    Err(permanent) => return Err(permanent),
                }
            }
            fallbacks += 1;
            if let Some(rec) = rec {
                rec.counter("dispatch.fallbacks", 1);
            }
        }
        Err(last_transient.unwrap_or(MpError::Unavailable))
    }

    fn attempt_ctx(
        &self,
        kind: EngineKind,
        request_deadline: Option<Deadline>,
        opts: &DispatchOpts,
    ) -> RunContext {
        let mut ctx = RunContext::new().for_engine(kind);
        if let Some(rec) = &self.recorder {
            ctx = ctx.with_recorder(Arc::clone(rec));
        }
        let mut deadline = request_deadline;
        if let Some(budget) = self.cfg.attempt_timeout {
            let attempt_deadline = Deadline::after(budget);
            deadline = Some(match deadline {
                Some(d) => d.min(attempt_deadline),
                None => attempt_deadline,
            });
        }
        if let Some(d) = deadline {
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

    /// Sleep for a jittered backoff, clipped so the sleep itself cannot
    /// blow the request deadline.
    fn backoff_sleep(
        &self,
        backoff: Duration,
        jitter: &mut JitterRng,
        request_deadline: Option<Deadline>,
    ) {
        let nanos = backoff.as_nanos().min(u64::MAX as u128) as u64;
        let half = nanos / 2;
        let jittered = Duration::from_nanos(half + jitter.next() % (half + 1));
        let capped = match request_deadline {
            Some(d) => jittered.min(d.remaining()),
            None => jittered,
        };
        if !capped.is_zero() {
            std::thread::sleep(capped);
        }
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
        assert_eq!(outcome.engine, EngineKind::Chunked);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.fallbacks, 0);
    }

    #[test]
    fn pooled_dispatch_reuses_workspace_and_matches_oracle() {
        let (values, labels) = problem(3000, 11);
        let expect = multiprefix_serial(&values, &labels, 11, Plus);
        let d = Dispatcher::new(DispatcherConfig::default()).unwrap();
        let mut ws = ChunkedWorkspace::new();
        for _ in 0..3 {
            let outcome = d
                .dispatch_pooled(
                    &values,
                    &labels,
                    11,
                    Plus,
                    &DispatchOpts::default(),
                    &mut ws,
                )
                .unwrap();
            assert_eq!(outcome.engine, EngineKind::Chunked);
            assert_eq!(outcome.output, expect);
        }
        let reduce = d
            .dispatch_reduce_pooled(
                &values,
                &labels,
                11,
                Plus,
                &DispatchOpts::default(),
                &mut ws,
            )
            .unwrap();
        assert_eq!(reduce.engine, EngineKind::Chunked);
        assert_eq!(
            reduce.output,
            crate::serial::multireduce_serial(&values, &labels, 11, Plus)
        );
    }

    #[test]
    fn i64_chain_with_atomic_primary() {
        let (values, labels) = problem(2000, 7);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Atomic, EngineKind::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let outcome = d
            .dispatch_i64(&values, &labels, 7, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, EngineKind::Atomic);
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 7, Plus)
        );
        // Generic dispatch must skip the atomic entry instead.
        let generic = d
            .dispatch(&values, &labels, 7, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(generic.engine, EngineKind::Serial);
        assert_eq!(generic.fallbacks, 1);
    }

    #[test]
    fn wedged_primary_falls_back_and_trips_breaker() {
        let (values, labels) = problem(1500, 5);
        let expect = multiprefix_serial(&values, &labels, 5, Plus);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Chunked, EngineKind::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        // Chaos: every chunked-engine checkpoint fails allocation; serial
        // is untouched.
        let chaos = ChaosPlan::seeded(11)
            .alloc_fail_ppm(1_000_000)
            .only(EngineKind::Chunked)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 5, Plus, &opts).unwrap();
        assert_eq!(outcome.output, expect);
        assert_eq!(outcome.engine, EngineKind::Serial);
        assert_eq!(outcome.attempts, 4, "3 chunked attempts + 1 serial");
        assert_eq!(outcome.fallbacks, 1);
        // Three consecutive failures tripped the chunked breaker open...
        assert_eq!(d.circuit_state(EngineKind::Chunked), CircuitState::Open);
        // ...so the next request skips it without burning attempts.
        let outcome = d.dispatch(&values, &labels, 5, Plus, &opts).unwrap();
        assert_eq!(outcome.engine, EngineKind::Serial);
        assert_eq!(outcome.attempts, 1);
    }

    #[test]
    fn permanent_errors_bypass_the_chain() {
        let d = Dispatcher::new(DispatcherConfig::default()).unwrap();
        let err = d
            .dispatch(&[1i64], &[2], 2, Plus, &DispatchOpts::default())
            .unwrap_err();
        assert!(matches!(err, MpError::LabelOutOfRange { .. }));
        assert_eq!(d.circuit_state(EngineKind::Chunked), CircuitState::Closed);
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
        let zero_retry = DispatcherConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(
            Dispatcher::new(zero_retry).unwrap_err(),
            MpError::InvalidConfig {
                what: "retry max_attempts is zero"
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
        let d = Dispatcher::new(DispatcherConfig::default()).unwrap();
        let opts = DispatchOpts {
            deadline: Some(Deadline::at(std::time::Instant::now())),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 5, Plus, &opts);
        assert_eq!(outcome.unwrap_err(), MpError::DeadlineExceeded);
        // No attempt was charged to any engine's breaker.
        assert_eq!(d.circuit_state(EngineKind::Chunked), CircuitState::Closed);
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
            chain: vec![EngineKind::Chunked],
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
            chain: vec![EngineKind::Atomic],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let err = d
            .dispatch(&[1.0f64, 2.0], &[0, 1], 2, Plus, &DispatchOpts::default())
            .unwrap_err();
        assert_eq!(err, MpError::Unavailable);
    }

    #[test]
    fn huge_base_backoff_saturates_instead_of_panicking() {
        // Regression: `backoff * 2` overflows `Duration` for extreme
        // `base_backoff`; the doubling must saturate (and the clamped
        // sleep must respect the request deadline, not block for years).
        let (values, labels) = problem(400, 3);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Serial],
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::MAX,
                max_backoff: Duration::MAX,
                jitter_seed: 7,
            },
            request_timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let chaos = ChaosPlan::seeded(3).alloc_fail_ppm(1_000_000).arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        let started = Instant::now();
        let err = d.dispatch(&values, &labels, 3, Plus, &opts).unwrap_err();
        assert_eq!(err, MpError::DeadlineExceeded);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "backoff sleep must be clamped to the deadline budget"
        );
    }

    #[test]
    fn expired_deadline_reported_as_deadline_not_last_transient() {
        // Regression: a request whose deadline expires after a transient
        // failure must settle `DeadlineExceeded` — the caller's budget ended
        // the dispatch — not the incidental error that preceded it.
        let (values, labels) = problem(400, 3);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Chunked],
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(20),
                jitter_seed: 9,
            },
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let chaos = ChaosPlan::seeded(5).alloc_fail_ppm(1_000_000).arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            deadline: Some(Deadline::after(Duration::from_millis(10))),
            ..Default::default()
        };
        let err = d.dispatch(&values, &labels, 3, Plus, &opts).unwrap_err();
        assert_eq!(err, MpError::DeadlineExceeded);
    }

    #[test]
    fn recorder_sees_attempts_retries_and_breaker_transitions() {
        let (values, labels) = problem(1500, 5);
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Chunked, EngineKind::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg)
            .unwrap()
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let chaos = ChaosPlan::seeded(11)
            .alloc_fail_ppm(1_000_000)
            .only(EngineKind::Chunked)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..Default::default()
        };
        let outcome = d.dispatch(&values, &labels, 5, Plus, &opts).unwrap();
        assert_eq!(outcome.engine, EngineKind::Serial);

        assert_eq!(rec.counter_value("dispatch.requests"), 1);
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 3);
        assert_eq!(rec.counter_value("dispatch.chunked.retries"), 2);
        assert_eq!(rec.counter_value("dispatch.backoff_sleeps"), 2);
        assert_eq!(rec.counter_value("dispatch.serial.attempts"), 1);
        assert_eq!(rec.counter_value("dispatch.fallbacks"), 1);
        // Attempt latency was histogrammed for both engines.
        assert_eq!(
            rec.histogram("dispatch.chunked.attempt_ns").unwrap().count,
            3
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
        // Three consecutive chunked failures → breaker closed->open event.
        let snap = rec.snapshot();
        assert!(
            snap.events
                .iter()
                .any(|e| e.name == "dispatch.breaker.chunked" && e.detail == "closed->open"),
            "events: {:?}",
            snap.events
        );
    }

    #[test]
    fn sharded_primary_serves_when_configured() {
        let (values, labels) = problem(3000, 11);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Sharded, EngineKind::Serial],
            shard: Some(crate::shard::ShardConfig::default().shards(3)),
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        let outcome = d
            .dispatch(&values, &labels, 11, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, EngineKind::Sharded);
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 11, Plus)
        );
        assert_eq!(d.shard_supervisor().unwrap().shards_lost(), 0);
        // Reduce dispatch has no sharded path: it skips to serial.
        let reduce = d
            .dispatch_reduce(&values, &labels, 11, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(reduce.engine, EngineKind::Serial);
    }

    #[test]
    fn unconfigured_sharded_entry_is_skipped_as_fallback() {
        let (values, labels) = problem(800, 5);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Sharded, EngineKind::Serial],
            ..Default::default()
        };
        let d = Dispatcher::new(cfg).unwrap();
        assert!(d.shard_supervisor().is_none());
        let outcome = d
            .dispatch(&values, &labels, 5, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(outcome.engine, EngineKind::Serial);
        assert_eq!(outcome.fallbacks, 1);
    }

    #[test]
    fn sharded_dispatch_survives_injected_shard_loss() {
        let (values, labels) = problem(2000, 7);
        let cfg = DispatcherConfig {
            chain: vec![EngineKind::Sharded, EngineKind::Serial],
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
        assert_eq!(outcome.engine, EngineKind::Sharded);
        assert_eq!(
            outcome.output,
            multiprefix_serial(&values, &labels, 7, Plus)
        );
        let sup = d.shard_supervisor().unwrap();
        assert!(sup.shards_lost() >= 1);
        assert!(sup.requeues() >= 1);
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
