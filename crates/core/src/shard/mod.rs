//! # Fault-tolerant sharded multiprefix
//!
//! The chunked engine's three phases, distributed across shard workers
//! behind a message [`Transport`], with shard-loss recovery:
//!
//! 1. **local** — each worker's `Scan` task runs the chunked engine's
//!    local loop over its contiguous span, producing a [`ShardSummary`]
//!    (touched labels in first-touch order + per-label span totals);
//! 2. **exscan** — the supervisor runs `exscan::exscan_parts` (the same
//!    primitive the single-node chunked engine uses for its combine phase)
//!    over the summaries in span order, turning each summary into its
//!    exclusive per-label offsets and yielding the global reductions;
//! 3. **apply** — each worker's `Apply` task runs the same loop over its
//!    span from a table seeded with the offsets, writing the span's final
//!    prefix sums once into uninitialized capacity; the supervisor
//!    appends the parts in span order.
//!
//! The channel transport and the socket transport ([`net`]) share one run
//! path: validation, the empty input, the span layout and the degrade are
//! written once, and only the distributed attempt differs.
//!
//! ## Why losses are recoverable
//!
//! Both worker tasks are **pure functions of their span**: a summary or an
//! applied-sums block recomputed on any surviving worker is bit-identical
//! to the lost one, and the exscan is exclusive and order-indexed, so
//! stitching never depends on *which* worker produced a part — only on the
//! part's span position. The [`ShardSupervisor`] exploits this: tasks from
//! a crashed, stalled or silent shard are requeued onto surviving workers,
//! duplicated deliveries are deduplicated by span index (first reply wins;
//! later replies are identical anyway), and dropped messages surface as
//! attempt timeouts and requeue like a crash.
//!
//! Recovery is a property of one run. Every run launches a fresh worker
//! fleet, so a shard lost in one run says nothing about the next: the
//! supervisor keeps only counters across runs.
//!
//! ## Supervisor state machine (per task)
//!
//! ```text
//!             send ──────▶ Outstanding ───reply──▶ Done
//!               ▲            │      │
//!               │   timeout  │      │ worker crash / silent shard
//!               └────────────┴──────┘
//!                 requeue to the next live shard
//!                 (attempts capped)
//! ```
//!
//! When no shard is live (every worker lost) or a task exhausts its
//! retries, the run **degrades**: it re-runs
//! the request through the single-node chunked engine in the supervisor's
//! thread (timed under the `recover` phase). Never a wrong answer, never a
//! hang: every blocking wait is bounded by the heartbeat tick, attempt
//! deadlines, and the run context's own deadline, and the worker scope
//! broadcasts [`DownMsg::Shutdown`] even when the supervisor unwinds.

pub mod exscan;
pub mod net;
pub mod transport;

pub use exscan::{exscan_over_summaries, ShardSummary};
pub use transport::{ChannelTransport, DownMsg, RecvOutcome, ShardSpan, Transport, UpMsg};

use crate::chunked::{fold_space, run_prefix, use_direct, ChunkSpace, Comb, Input, PlainComb};
use crate::error::MpError;
use crate::exec::{try_filled_vec, try_with_capacity, CheckGuard, ExecConfig, TryEngineResult};
use crate::obs::Phase;
use crate::op::{CombineOp, TryCombineOp};
use crate::problem::{validate_slices, Element, MultiprefixOutput};
use crate::resilience::RunContext;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Recorder key for shards declared lost (crash or silence).
pub const COUNTER_SHARD_LOST: &str = "shard.supervisor.shard_lost";
/// Recorder key for task requeues (loss, timeout, or drop recovery).
pub const COUNTER_REQUEUED: &str = "shard.supervisor.requeued";
/// Recorder key for runs degraded to single-node execution.
pub const COUNTER_DEGRADED: &str = "shard.supervisor.degraded";
/// Recorder key for socket connections the supervisor's reader lost to
/// a frame that failed a check (magic, checksum, length or sequence).
/// Only worker → supervisor frames count here: a damaged supervisor →
/// worker frame fails the worker's check, the worker shuts the socket,
/// and the supervisor counts [`COUNTER_CONN_DEAD_CLOSED`].
pub const COUNTER_CONN_DEAD_DAMAGE: &str = "shard.net.conn_dead.damage";
/// Recorder key for socket connections the supervisor's reader dropped
/// because a verified frame failed to decode.
pub const COUNTER_CONN_DEAD_DECODE: &str = "shard.net.conn_dead.decode";
/// Recorder key for socket connections the supervisor's reader lost to
/// EOF or an I/O error — a crashed or killed worker, and also a worker
/// that failed a damaged supervisor → worker frame and shut the socket
/// (the supervisor cannot tell the two apart).
pub const COUNTER_CONN_DEAD_CLOSED: &str = "shard.net.conn_dead.closed";

/// Tuning knobs for a [`ShardSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker count (spans are split to match; at most one span per
    /// worker, so spare workers double as requeue targets).
    pub shards: usize,
    /// Per-task attempt deadline: a task not answered within this window
    /// is requeued on the next live shard.
    pub task_timeout: Duration,
    /// Idle workers send a heartbeat on this tick; a shard silent for
    /// several ticks with no task outstanding is declared lost.
    pub heartbeat_interval: Duration,
    /// Requeues allowed per task beyond its first attempt before the run
    /// degrades.
    pub max_task_retries: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            task_timeout: Duration::from_millis(500),
            heartbeat_interval: Duration::from_millis(25),
            max_task_retries: 3,
        }
    }
}

impl ShardConfig {
    /// Set the worker count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the per-task attempt deadline.
    pub fn task_timeout(mut self, timeout: Duration) -> Self {
        self.task_timeout = timeout;
        self
    }

    /// Set the idle heartbeat tick.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Set the per-task requeue budget.
    pub fn max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    fn normalized(mut self) -> Self {
        self.shards = self.shards.max(1);
        self.task_timeout = self.task_timeout.max(Duration::from_millis(1));
        self.heartbeat_interval = self.heartbeat_interval.max(Duration::from_millis(1));
        self
    }
}

/// One span's outstanding attempt.
struct Assign {
    shard: usize,
    deadline: Instant,
}

/// A phase reply, keyed by span index.
enum Payload<T> {
    Summary { touched: Vec<usize>, totals: Vec<T> },
    Sums(Vec<T>),
}

/// The shard orchestrator: spawns a worker fleet per run, recovers that
/// run's lost shards, stitches results with the shared exscan primitive,
/// and counts losses, requeues and degraded runs across runs.
///
/// Deliberately non-generic (no element or transport type parameters) so a
/// [`crate::resilience::Dispatcher`] can own one; each run builds its own
/// transport and worker fleet, and no shard state outlives the run.
#[derive(Debug)]
pub struct ShardSupervisor {
    cfg: ShardConfig,
    shard_lost: AtomicU64,
    requeued: AtomicU64,
    degraded: AtomicU64,
}

impl ShardSupervisor {
    /// A supervisor with `cfg` (normalized: at least one shard, timeouts
    /// of at least a millisecond).
    pub fn new(cfg: ShardConfig) -> Self {
        ShardSupervisor {
            cfg: cfg.normalized(),
            shard_lost: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// The normalized configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Shards declared lost (crash or prolonged silence) across all runs.
    pub fn shards_lost(&self) -> u64 {
        self.shard_lost.load(Ordering::Relaxed)
    }

    /// Task requeues across all runs.
    pub fn requeues(&self) -> u64 {
        self.requeued.load(Ordering::Relaxed)
    }

    /// Runs that fell back to single-node execution.
    pub fn degraded_runs(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Plain sharded multiprefix: validates, distributes, recovers; panics
    /// on typed failures (mirrors the other plain engine entries).
    pub fn multiprefix<T: Element, O: CombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
    ) -> MultiprefixOutput<T> {
        self.run_channel(values, labels, m, PlainComb(op), &RunContext::new())
            .expect("sharded multiprefix failed")
    }

    /// Hardened sharded multiprefix under an [`ExecConfig`] overflow
    /// policy and a [`RunContext`]. Same contract as
    /// [`crate::chunked::try_multiprefix_chunked_cfg_ctx`]: `Ok(None)`
    /// means a checked combine tripped and the caller must canonicalize
    /// with a serial replay.
    pub fn try_multiprefix<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        cfg: ExecConfig,
        ctx: &RunContext,
    ) -> TryEngineResult<MultiprefixOutput<T>> {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let tripped = AtomicBool::new(false);
            let guard = CheckGuard::new(op, cfg.overflow, &tripped);
            let out = self.run_channel(values, labels, m, guard, ctx)?;
            if tripped.load(Ordering::Relaxed) {
                Ok(None)
            } else {
                Ok(Some(out))
            }
        }));
        // AssertUnwindSafe is sound: partial outputs die inside the
        // closure, worker threads are joined by the scope before the
        // unwind escapes, and the supervisor's own state (its counters) is
        // interior-mutable and coherent at every step.
        caught.unwrap_or(Err(MpError::EnginePanicked))
    }

    /// The run path of both transports: validate, lay out the spans, make
    /// the transport's `distributed` attempt over `min(shards, n)` workers,
    /// and degrade to single-node chunked execution when its recovery is
    /// exhausted.
    fn run_sharded<T: Element, C: Comb<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        comb: C,
        ctx: &RunContext,
        distributed: impl FnOnce(usize, &[ShardSpan]) -> Result<MultiprefixOutput<T>, MpError>,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        ctx.checkpoint()?;
        // Up-front validation matters more here than in the single-node
        // engines: a bad label inside a worker would read as a shard crash
        // and be pointlessly retried on every surviving worker.
        validate_slices(values, labels, m)?;
        let n = values.len();
        if n == 0 {
            return Ok(MultiprefixOutput {
                sums: Vec::new(),
                reductions: try_filled_vec(comb.identity(), m)?,
            });
        }
        let nshards = self.cfg.shards.min(n);
        let span_len = n.div_ceil(nshards);
        let spans: Vec<ShardSpan> = (0..n.div_ceil(span_len))
            .map(|i| ShardSpan {
                index: i,
                start: i * span_len,
                end: ((i + 1) * span_len).min(n),
            })
            .collect();
        match distributed(nshards, &spans) {
            Err(MpError::Unavailable) => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = ctx.recorder() {
                    rec.counter(COUNTER_DEGRADED, 1);
                }
                let _span = ctx.phase_span(Phase::Recover);
                run_prefix(values, labels, m, comb, self.cfg.shards, ctx)
            }
            other => other,
        }
    }

    /// [`Self::run_sharded`] over the in-process channel transport: its
    /// attempt spawns the worker fleet as scoped threads, supervises the
    /// two worker phases around the supervisor-local exscan, and joins.
    fn run_channel<T: Element, C: Comb<T>>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        comb: C,
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        self.run_sharded(values, labels, m, comb, ctx, |nshards, spans| {
            let transport: ChannelTransport<T> = ChannelTransport::new(nshards, ctx.chaos_arc());
            std::thread::scope(|scope| {
                for shard in 0..nshards {
                    let t = &transport;
                    let hb = self.cfg.heartbeat_interval;
                    scope.spawn(move || worker_loop(t, shard, values, labels, m, comb, hb, ctx));
                }
                // Dropped on every exit from this closure — Ok, Err, or
                // unwind — so the workers always see Shutdown and the
                // scope's implicit join is bounded.
                let _guard = ShutdownGuard {
                    transport: &transport,
                    _elements: PhantomData,
                };
                self.supervise(&transport, spans, values.len(), m, comb, ctx)
            })
        })
    }

    /// The supervisor loop proper: local scans → exscan → apply.
    fn supervise<T: Element, C: Comb<T>, Tr: Transport<T>>(
        &self,
        transport: &Tr,
        spans: &[ShardSpan],
        n: usize,
        m: usize,
        comb: C,
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        let mut live = vec![true; transport.shards()];
        let mut next_task = 0u64;

        let scan_replies = {
            let _span = ctx.phase_span(Phase::Local);
            self.drive_phase(
                transport,
                ctx,
                &mut live,
                spans,
                &mut next_task,
                false,
                |span, task| DownMsg::Scan { task, span },
            )?
        };
        let mut summaries: Vec<ShardSummary<T>> = Vec::with_capacity(spans.len());
        for (i, reply) in scan_replies.into_iter().enumerate() {
            match reply {
                Payload::Summary { touched, totals } => summaries.push(ShardSummary {
                    shard: i,
                    touched,
                    totals,
                }),
                Payload::Sums(_) => unreachable!("scan phase only accepts summaries"),
            }
        }

        ctx.checkpoint()?;
        let mut reductions = try_filled_vec(comb.identity(), m)?;
        {
            let _span = ctx.phase_span(Phase::Exscan);
            exscan::exscan_parts(&mut summaries, &mut reductions, comb, ctx)?;
        }

        // The exscan replaced each summary's totals with its exclusive
        // offsets; ship them back per span for the apply phase.
        let offsets: Vec<Vec<(usize, T)>> = summaries
            .iter()
            .map(|s| {
                s.touched
                    .iter()
                    .copied()
                    .zip(s.totals.iter().copied())
                    .collect()
            })
            .collect();
        let apply_replies = {
            let _span = ctx.phase_span(Phase::Apply);
            self.drive_phase(
                transport,
                ctx,
                &mut live,
                spans,
                &mut next_task,
                true,
                |span, task| DownMsg::Apply {
                    task,
                    span,
                    offsets: offsets[span.index].clone(),
                },
            )?
        };
        // The spans tile `0..n` in order and `drive_phase` accepts only a
        // part as long as its span, so appending writes each slot once.
        let mut sums = try_with_capacity(n)?;
        for reply in apply_replies {
            match reply {
                Payload::Sums(part) => sums.extend_from_slice(&part),
                Payload::Summary { .. } => unreachable!("apply phase only accepts sums"),
            }
        }
        Ok(MultiprefixOutput { sums, reductions })
    }

    /// Drive one worker phase to completion: assign every span, collect
    /// replies (deduplicated by span index — replies are deterministic, so
    /// first-wins is also only-possible), and recover from crashes,
    /// timeouts and silence by requeueing onto live shards. Errors with
    /// [`MpError::Unavailable`] when recovery is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn drive_phase<T: Element, Tr: Transport<T>, F: Fn(ShardSpan, u64) -> DownMsg<T>>(
        &self,
        transport: &Tr,
        ctx: &RunContext,
        live: &mut [bool],
        spans: &[ShardSpan],
        next_task: &mut u64,
        want_sums: bool,
        mk: F,
    ) -> Result<Vec<Payload<T>>, MpError> {
        let nshards = live.len();
        let mut results: Vec<Option<Payload<T>>> = (0..spans.len()).map(|_| None).collect();
        let mut assigned: Vec<Option<Assign>> = (0..spans.len()).map(|_| None).collect();
        let mut attempts = vec![0u32; spans.len()];
        let mut last_seen = vec![Instant::now(); nshards];
        let mut pending = spans.len();
        let mut rr = 0usize;
        // Idle workers beacon every tick; give a few ticks of slack before
        // declaring silence (a dropped heartbeat is not a dead shard).
        let silence_budget = self.cfg.heartbeat_interval * 8;

        for (i, &span) in spans.iter().enumerate() {
            self.assign_span(
                transport,
                live,
                span,
                &mut assigned[i],
                &mut attempts[i],
                next_task,
                &mut rr,
                Some(i % nshards),
                &mk,
            )?;
        }

        while pending > 0 {
            ctx.checkpoint()?;
            if !live.contains(&true) {
                return Err(MpError::Unavailable);
            }

            let now = Instant::now();
            let mut wait = self.cfg.heartbeat_interval;
            for a in assigned.iter().flatten() {
                wait = wait.min(a.deadline.saturating_duration_since(now));
            }
            if let Some(d) = ctx.deadline() {
                wait = wait.min(d.remaining());
            }
            // A tiny floor keeps an expired deadline from busy-spinning;
            // the next checkpoint/timeout scan resolves it.
            let wait = wait.max(Duration::from_micros(200));

            let mut to_requeue: Vec<usize> = Vec::new();
            match transport.recv_up(wait) {
                RecvOutcome::Msg(UpMsg::Heartbeat { shard }) => {
                    if shard < nshards {
                        last_seen[shard] = Instant::now();
                        // A shard declared lost by silence may still be
                        // alive: any sign of life marks it live again.
                        live[shard] = true;
                    }
                }
                RecvOutcome::Msg(UpMsg::Crashed { shard }) => {
                    if shard < nshards && live[shard] {
                        self.note_shard_lost(ctx, shard, live);
                        for (i, slot) in assigned.iter_mut().enumerate() {
                            if matches!(slot, Some(a) if a.shard == shard) {
                                *slot = None;
                                to_requeue.push(i);
                            }
                        }
                    }
                }
                RecvOutcome::Msg(UpMsg::Summary {
                    shard,
                    span,
                    touched,
                    totals,
                    ..
                }) => {
                    if shard < nshards {
                        last_seen[shard] = Instant::now();
                        live[shard] = true;
                    }
                    let i = span.index;
                    if !want_sums && i < results.len() && results[i].is_none() {
                        results[i] = Some(Payload::Summary { touched, totals });
                        assigned[i] = None;
                        pending -= 1;
                    }
                }
                RecvOutcome::Msg(UpMsg::Applied {
                    shard, span, sums, ..
                }) => {
                    if shard < nshards {
                        last_seen[shard] = Instant::now();
                        live[shard] = true;
                    }
                    // The part's length is checked against the supervisor's
                    // own span, not the one the reply names.
                    let i = span.index;
                    if want_sums
                        && i < results.len()
                        && results[i].is_none()
                        && sums.len() == spans[i].len()
                    {
                        results[i] = Some(Payload::Sums(sums));
                        assigned[i] = None;
                        pending -= 1;
                    }
                }
                RecvOutcome::TimedOut => {}
                RecvOutcome::Disconnected => return Err(MpError::Unavailable),
            }

            // Attempt deadlines: a task unanswered past its window is
            // presumed lost in transit or stuck behind a stall; requeue it
            // elsewhere.
            let now = Instant::now();
            for (i, slot) in assigned.iter_mut().enumerate() {
                if matches!(&slot, Some(a) if now >= a.deadline) {
                    *slot = None;
                    to_requeue.push(i);
                }
            }

            // Silence detection: an *idle* shard heartbeats every tick, so
            // prolonged silence means the worker is gone or wedged. Busy
            // shards are covered by their task's attempt deadline instead.
            for (s, seen) in last_seen.iter().enumerate() {
                let busy = assigned.iter().flatten().any(|a| a.shard == s);
                if live[s] && !busy && now.saturating_duration_since(*seen) > silence_budget {
                    self.note_shard_lost(ctx, s, live);
                }
            }

            for i in to_requeue {
                self.requeued.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = ctx.recorder() {
                    rec.counter(COUNTER_REQUEUED, 1);
                }
                let _span = ctx.phase_span(Phase::Recover);
                self.assign_span(
                    transport,
                    live,
                    spans[i],
                    &mut assigned[i],
                    &mut attempts[i],
                    next_task,
                    &mut rr,
                    None,
                    &mk,
                )?;
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("pending reached zero"))
            .collect())
    }

    /// Send one task to the first live shard at or after the preferred
    /// slot (round-robin otherwise). Fails with
    /// [`MpError::Unavailable`] when the attempt budget is spent or no
    /// shard is assignable — the degradation trigger.
    #[allow(clippy::too_many_arguments)]
    fn assign_span<T: Element, Tr: Transport<T>, F: Fn(ShardSpan, u64) -> DownMsg<T>>(
        &self,
        transport: &Tr,
        live: &[bool],
        span: ShardSpan,
        slot: &mut Option<Assign>,
        attempts: &mut u32,
        next_task: &mut u64,
        rr: &mut usize,
        prefer: Option<usize>,
        mk: &F,
    ) -> Result<(), MpError> {
        if *attempts > self.cfg.max_task_retries {
            return Err(MpError::Unavailable);
        }
        let nshards = live.len();
        let start = prefer.unwrap_or(*rr) % nshards;
        for k in 0..nshards {
            let s = (start + k) % nshards;
            if live[s] {
                *attempts += 1;
                *next_task += 1;
                transport.send_down(s, mk(span, *next_task));
                *slot = Some(Assign {
                    shard: s,
                    deadline: Instant::now() + self.cfg.task_timeout,
                });
                *rr = (s + 1) % nshards;
                return Ok(());
            }
        }
        Err(MpError::Unavailable)
    }

    fn note_shard_lost(&self, ctx: &RunContext, shard: usize, live: &mut [bool]) {
        live[shard] = false;
        self.shard_lost.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = ctx.recorder() {
            rec.counter(COUNTER_SHARD_LOST, 1);
        }
    }
}

/// Broadcasts [`DownMsg::Shutdown`] on drop so the worker fleet always
/// terminates — including when the supervisor body unwinds from an
/// injected panic.
struct ShutdownGuard<'a, T: Element, Tr: Transport<T>> {
    transport: &'a Tr,
    _elements: PhantomData<T>,
}

impl<T: Element, Tr: Transport<T>> Drop for ShutdownGuard<'_, T, Tr> {
    fn drop(&mut self) {
        for shard in 0..self.transport.shards() {
            self.transport.send_down(shard, DownMsg::Shutdown);
        }
    }
}

/// One worker: a stateless task servant. Receives self-contained tasks,
/// recomputes them deterministically (duplicates are bit-identical),
/// beacons a heartbeat when idle, and converts any panic or checkpoint
/// failure into a [`UpMsg::Crashed`] exit instead of a hang.
///
/// Both tasks run the chunked engine's local loop ([`fold_space`]) over
/// the span, in a table laid out as a one-table chunked run's: a `Scan`
/// reduces the span into the table and ships its touched labels and
/// totals; an `Apply` seeds the table with the span's exscanned offsets,
/// so the loop's output is the span's final prefix sums, written once.
#[allow(clippy::too_many_arguments)]
fn worker_loop<T: Element, C: Comb<T>, Tr: Transport<T>>(
    transport: &Tr,
    shard: usize,
    values: &[T],
    labels: &[usize],
    m: usize,
    comb: C,
    heartbeat: Duration,
    ctx: &RunContext,
) {
    let mut space = ChunkSpace::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), MpError> {
        loop {
            let (task, span, offsets) = match transport.recv_down(shard, heartbeat) {
                RecvOutcome::Msg(DownMsg::Shutdown) | RecvOutcome::Disconnected => return Ok(()),
                RecvOutcome::TimedOut => {
                    transport.send_up(UpMsg::Heartbeat { shard });
                    continue;
                }
                RecvOutcome::Msg(DownMsg::Scan { task, span }) => (task, span, None),
                RecvOutcome::Msg(DownMsg::Apply {
                    task,
                    span,
                    offsets,
                }) => (task, span, Some(offsets)),
            };
            if let Some(chaos) = ctx.chaos() {
                chaos.inject_shard_worker(shard, ctx.deadline());
            }
            let input = Input {
                values: &values[span.start..span.end],
                labels: &labels[span.start..span.end],
                m,
                base: span.start,
            };
            let len = input.values.len();
            space.begin_use(m, len.min(m), use_direct(1, len, m), comb.identity())?;
            let Some(offsets) = offsets else {
                fold_space(&mut space, None, input, comb, ctx)?;
                let (touched, totals) = space.take_summary();
                transport.send_up(UpMsg::Summary {
                    shard,
                    task,
                    span,
                    touched,
                    totals,
                });
                continue;
            };
            for &(label, offset) in &offsets {
                let slot = space.slot_or_insert(label, offset);
                space.vals[slot] = offset;
            }
            let mut sums = try_with_capacity(len)?;
            let out = &mut sums.spare_capacity_mut()[..len];
            fold_space(&mut space, Some(out), input, comb, ctx)?;
            // SAFETY: `sums` has capacity `len`, and `out` is its first
            // `len` slots, as long as the span's `values` and `labels`
            // (both cut from `span.start..span.end`). `fold_space` returned
            // `Ok`, so it wrote every slot of `out`; an `Err` or a panic
            // leaves above with `sums` still at length 0.
            unsafe { sums.set_len(len) };
            transport.send_up(UpMsg::Applied {
                shard,
                task,
                span,
                sums,
            });
        }
    }));
    match outcome {
        Ok(Ok(())) => {}
        // A checkpoint failure (cancel/deadline/chaos) or a caught panic:
        // announce the death so the supervisor requeues, then exit. The
        // supervisor's own checkpoint reports the user-facing error.
        Ok(Err(_)) | Err(_) => transport.send_up(UpMsg::Crashed { shard }),
    }
}

/// Sharded multiprefix over an in-process worker fleet with default
/// recovery tuning. A convenience over [`ShardSupervisor`] for one-shot
/// runs:
///
/// ```
/// use multiprefix::op::Plus;
/// use multiprefix::shard::multiprefix_sharded;
///
/// let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
/// let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
/// let out = multiprefix_sharded(&values, &labels, 4, Plus, 3);
/// assert_eq!(out.sums, vec![0, 0, 1, 3, 3, 4, 4, 7]);
/// assert_eq!(out.reductions, vec![0, 8, 6, 0]);
/// ```
pub fn multiprefix_sharded<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    shards: usize,
) -> MultiprefixOutput<T> {
    ShardSupervisor::new(ShardConfig::default().shards(shards)).multiprefix(values, labels, m, op)
}

/// Hardened one-shot sharded multiprefix: a transient supervisor under an
/// explicit [`ShardConfig`] and [`RunContext`] (the bench harness's entry;
/// the dispatcher owns a persistent supervisor instead, whose counters
/// span its requests).
pub fn try_multiprefix_sharded_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
    shard_cfg: &ShardConfig,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<T>> {
    ShardSupervisor::new(*shard_cfg).try_multiprefix(values, labels, m, op, cfg, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Plus};
    use crate::resilience::ChaosPlan;

    fn problem(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
        let values: Vec<i64> = (0..n).map(|i| (i as i64 % 23) - 11).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + i / 3) % m).collect();
        (values, labels)
    }

    fn oracle(values: &[i64], labels: &[usize], m: usize) -> MultiprefixOutput<i64> {
        let mut buckets = vec![0i64; m];
        let mut sums = Vec::with_capacity(values.len());
        for (&v, &l) in values.iter().zip(labels) {
            sums.push(buckets[l]);
            buckets[l] = buckets[l].wrapping_add(v);
        }
        MultiprefixOutput {
            sums,
            reductions: buckets,
        }
    }

    #[test]
    fn sharded_matches_serial_oracle() {
        for &(n, m, shards) in &[
            (1usize, 1usize, 1usize),
            (200, 8, 3),
            (500, 3, 4),
            (64, 200, 2),
        ] {
            let (values, labels) = problem(n, m);
            let out = multiprefix_sharded(&values, &labels, m, Plus, shards);
            assert_eq!(
                out,
                oracle(&values, &labels, m),
                "n={n} m={m} shards={shards}"
            );
        }
    }

    #[test]
    fn noncommutative_op_preserves_element_order_across_shards() {
        let n = 300;
        let values: Vec<(i32, i32)> = (0..n).map(|i| (i as i32, i as i32)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let out = multiprefix_sharded(&values, &labels, 5, FirstLast, 4);
        let serial = crate::serial::multiprefix_serial(&values, &labels, 5, FirstLast);
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_input_yields_identity_reductions() {
        let out = multiprefix_sharded::<i64, _>(&[], &[], 3, Plus, 4);
        assert_eq!(out.sums, Vec::<i64>::new());
        assert_eq!(out.reductions, vec![0, 0, 0]);
    }

    #[test]
    fn more_shards_than_elements_still_correct() {
        let (values, labels) = problem(5, 2);
        let out = multiprefix_sharded(&values, &labels, 2, Plus, 16);
        assert_eq!(out, oracle(&values, &labels, 2));
    }

    #[test]
    fn lost_shard_recovers_bit_for_bit_on_survivors() {
        // Shard 0 panics on every task it receives; its span must requeue
        // onto a survivor and the answer must match the oracle exactly.
        let (values, labels) = problem(400, 7);
        let chaos = ChaosPlan::seeded(11)
            .shard_panic_ppm(1_000_000)
            .only_shard(0)
            .arm();
        let ctx = RunContext::new().with_chaos(chaos.clone());
        let sup = ShardSupervisor::new(
            ShardConfig::default()
                .shards(3)
                .task_timeout(Duration::from_millis(200)),
        );
        let out = sup
            .try_multiprefix(&values, &labels, 7, Plus, ExecConfig::default(), &ctx)
            .expect("recovers")
            .expect("no overflow policy armed");
        assert_eq!(out, oracle(&values, &labels, 7));
        assert!(sup.shards_lost() >= 1, "shard 0 must be declared lost");
        assert!(sup.requeues() >= 1, "its task must have been requeued");
        assert_eq!(sup.degraded_runs(), 0, "survivors suffice; no fallback");
        assert!(chaos.shard_panics_injected() >= 1);
    }

    #[test]
    fn losing_every_shard_degrades_to_single_node_with_exact_result() {
        let (values, labels) = problem(300, 5);
        let chaos = ChaosPlan::seeded(12).shard_panic_ppm(1_000_000).arm();
        let ctx = RunContext::new().with_chaos(chaos);
        let sup = ShardSupervisor::new(
            ShardConfig::default()
                .shards(2)
                .task_timeout(Duration::from_millis(100)),
        );
        let out = sup
            .try_multiprefix(&values, &labels, 5, Plus, ExecConfig::default(), &ctx)
            .expect("degrades, not errors")
            .expect("no overflow policy armed");
        assert_eq!(out, oracle(&values, &labels, 5));
        assert_eq!(sup.degraded_runs(), 1);
        assert!(sup.shards_lost() >= 1);
    }

    #[test]
    fn message_drops_recover_via_attempt_timeouts() {
        // Every fourth-ish data message is dropped; attempt deadlines must
        // requeue the silent tasks until the run completes exactly.
        let (values, labels) = problem(350, 6);
        let chaos = ChaosPlan::seeded(14).shard_drop_ppm(250_000).arm();
        let ctx = RunContext::new().with_chaos(chaos);
        let sup = ShardSupervisor::new(
            ShardConfig::default()
                .shards(3)
                .task_timeout(Duration::from_millis(40))
                .max_task_retries(30),
        );
        let out = sup
            .try_multiprefix(&values, &labels, 6, Plus, ExecConfig::default(), &ctx)
            .expect("drops are recoverable")
            .expect("no overflow policy armed");
        assert_eq!(out, oracle(&values, &labels, 6));
    }

    #[test]
    fn message_duplication_is_deduplicated_exactly() {
        let (values, labels) = problem(350, 6);
        let chaos = ChaosPlan::seeded(15).shard_dup_ppm(1_000_000).arm();
        let ctx = RunContext::new().with_chaos(chaos.clone());
        let sup = ShardSupervisor::new(ShardConfig::default().shards(3));
        let out = sup
            .try_multiprefix(&values, &labels, 6, Plus, ExecConfig::default(), &ctx)
            .expect("duplicates are benign")
            .expect("no overflow policy armed");
        assert_eq!(out, oracle(&values, &labels, 6));
        assert!(chaos.msg_dups_injected() >= 1);
    }

    #[test]
    fn checked_overflow_trips_to_replay_sentinel() {
        let values = vec![i64::MAX, 1, 5];
        let labels = vec![0usize, 0, 1];
        let sup = ShardSupervisor::new(ShardConfig::default().shards(2));
        let res = sup.try_multiprefix(
            &values,
            &labels,
            2,
            Plus,
            ExecConfig::default().overflow(crate::exec::OverflowPolicy::Checked),
            &RunContext::new(),
        );
        assert!(
            matches!(res, Ok(None)),
            "tripped combine → canonicalize serially"
        );
    }

    #[test]
    fn supervisor_counters_reach_the_recorder() {
        use crate::obs::MemoryRecorder;
        use std::sync::Arc;
        let (values, labels) = problem(200, 4);
        let chaos = ChaosPlan::seeded(16)
            .shard_panic_ppm(1_000_000)
            .only_shard(0)
            .arm();
        let rec = Arc::new(MemoryRecorder::new());
        let ctx = RunContext::new()
            .with_chaos(chaos)
            .with_recorder(rec.clone());
        let sup = ShardSupervisor::new(
            ShardConfig::default()
                .shards(3)
                .task_timeout(Duration::from_millis(200)),
        );
        let out = sup
            .try_multiprefix(&values, &labels, 4, Plus, ExecConfig::default(), &ctx)
            .expect("recovers")
            .expect("no overflow");
        assert_eq!(out, oracle(&values, &labels, 4));
        assert!(rec.counter_value(COUNTER_SHARD_LOST) >= 1);
        assert!(rec.counter_value(COUNTER_REQUEUED) >= 1);
    }

    /// Miri target (the CI job runs the `shard` unit tests): an `Apply`
    /// task writes its span's sums once into uninitialized capacity. A
    /// channel worker serves spans through the single-label loop
    /// (`m == 1`), a label-indexed table and a probed one (`m` ≫ the
    /// span), one of them a little over one `CHECK_STRIDE` block long and
    /// starting past 0. Every slot of each reply is read back against the
    /// serial oracle, where Miri reports any slot the loop skipped; a
    /// cancel at the second block ends the task with a crash notice.
    #[test]
    fn apply_tasks_write_every_slot_for_miri() {
        use crate::resilience::{CancelToken, CHECK_STRIDE};
        // One `Apply` task on a fresh worker, seeded with the span's
        // exclusive offsets: its sums, or `None` when the worker crashed.
        fn apply(
            values: &[i64],
            labels: &[usize],
            m: usize,
            span: ShardSpan,
            ctx: &RunContext,
        ) -> Option<Vec<i64>> {
            let before = oracle(&values[..span.start], &labels[..span.start], m).reductions;
            let mut seen = vec![false; m];
            let offsets = labels[span.start..span.end]
                .iter()
                .filter(|&&l| !std::mem::replace(&mut seen[l], true))
                .map(|&l| (l, before[l]))
                .collect();
            let transport = ChannelTransport::new(1, None);
            std::thread::scope(|scope| {
                let (t, hb) = (&transport, Duration::from_secs(60));
                scope.spawn(move || worker_loop(t, 0, values, labels, m, PlainComb(Plus), hb, ctx));
                let _guard = ShutdownGuard {
                    transport: t,
                    _elements: PhantomData,
                };
                t.send_down(
                    0,
                    DownMsg::Apply {
                        task: 1,
                        span,
                        offsets,
                    },
                );
                loop {
                    match t.recv_up(hb) {
                        RecvOutcome::Msg(UpMsg::Applied { sums, .. }) => return Some(sums),
                        RecvOutcome::Msg(UpMsg::Heartbeat { .. }) => {}
                        _ => return None,
                    }
                }
            })
        }
        let n = CHECK_STRIDE + 9;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 9 - 4).collect();
        for m in [1usize, 7, 50_000] {
            let labels: Vec<usize> = (0..n).map(|i| (i * 31_337) % m).collect();
            let expect = oracle(&values, &labels, m).sums;
            for (start, end) in [(0, 3), (3, n)] {
                let span = ShardSpan {
                    index: 0,
                    start,
                    end,
                };
                let got = apply(&values, &labels, m, span, &RunContext::new());
                assert_eq!(got.as_deref(), Some(&expect[start..end]), "m={m} {span:?}");
            }
            let span = ShardSpan {
                index: 0,
                start: 3,
                end: n,
            };
            let ctx = RunContext::new().with_cancel(&CancelToken::cancel_after(1));
            assert_eq!(
                apply(&values, &labels, m, span, &ctx),
                None,
                "m={m} cancelled"
            );
        }
    }

    #[test]
    fn bad_labels_are_rejected_before_distribution() {
        let res = ShardSupervisor::new(ShardConfig::default()).try_multiprefix(
            &[1i64, 2],
            &[0usize, 9],
            2,
            Plus,
            ExecConfig::default(),
            &RunContext::new(),
        );
        assert!(matches!(res, Err(MpError::LabelOutOfRange { .. })));
    }
}
