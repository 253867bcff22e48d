//! The supervised worker pool: dequeue, coalesce, execute, resolve — and
//! survive worker death.
//!
//! Supervision is structured around two drop guards rather than a separate
//! monitor thread, so there is no window where a dead worker goes
//! unnoticed:
//!
//! * [`InFlight`] owns the batch a worker is executing. Every entry it
//!   still holds when it drops *during a panic unwind* is resolved
//!   [`MpError::WorkerLost`] — a dying worker pays out its tickets on the
//!   way down, so no admitted request can leak no matter where the panic
//!   fired.
//! * [`DeathNotice`] is thread-level. When the worker thread unwinds, it
//!   spawns a replacement with the same index (unless the service is
//!   aborting) and wakes all sleepers so nobody waits on a corpse. Queued
//!   requests are untouched by the death — they simply get served by the
//!   replacement.
//!
//! The pool starts on first need, not in `Service::new`: the first
//! admission that enters the ingress queue spawns all `workers` once
//! ([`start_pool`]). Until then every request either runs on its
//! submitter's thread or is the one that starts the pool, so a service
//! that only ever sees small sequential requests spawns no thread at all.
//!
//! The worker checkpoint ([`ChaosState::inject_worker`]) sits between
//! dequeue and execution, *after* [`InFlight`] takes ownership: an injected
//! worker panic therefore exercises exactly the teardown path above.
//!
//! [`run_batch`] also runs off the pool, on the caller's thread: for the
//! shutdown path's leftover drain, and for a small request that finds the
//! service idle ([`try_run_inline`]). There the cost of a request at
//! n ≤ 512 is the dispatch itself, about 1–2 µs back to back (7 µs p50 for
//! a whole `try_submit`, recorder on, at 4 000 requests/s), instead of a
//! queue push, a worker wake-up and a ticket wake-up (the paper's §4.4
//! fixed term).
//! Such a run has no worker to supervise: it skips the worker checkpoint,
//! and a panic outside the dispatcher's `catch_unwind` resolves its ticket
//! [`MpError::WorkerLost`] through [`InFlight`] like a worker death would.

use crate::error::MpError;
use crate::op::TryCombineOp;
use crate::problem::Element;
use crate::resilience::dispatcher::{DispatchOpts, Dispatcher};
use crate::service::coalesce::{fuse, split};
use crate::service::ingress::Ingress;
use crate::service::queue::{Entry, JobKind, QueuePhase, Reply, Request};
use crate::service::{ServiceConfig, ServiceStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Worker index of a batch run on the caller's thread — a request run on
/// its submitter's thread, or the shutdown path's leftover drain. Such a
/// run skips worker-level chaos and can't meaningfully "die".
pub(crate) const INLINE_WORKER: usize = usize::MAX;

/// Everything the pool's threads share.
#[derive(Debug)]
pub(crate) struct Shared<T: Element, O> {
    /// The sharded submission front door: per-shard locks and waiters,
    /// global atomics for depth and phase (see [`Ingress`]).
    pub(crate) ingress: Ingress<T>,
    /// Join handles of every worker ever spawned (replacements included).
    pub(crate) handles: Mutex<Vec<JoinHandle<()>>>,
    /// Set once by [`start_pool`], before it spawns the workers.
    pub(crate) started: AtomicBool,
    /// Held by [`start_pool`] while it spawns; `Service::stop` takes it
    /// after flipping the phase and before joining the workers.
    pub(crate) start_lock: Mutex<()>,
    pub(crate) dispatcher: Dispatcher,
    pub(crate) op: O,
    pub(crate) cfg: ServiceConfig,
    pub(crate) stats: ServiceStats,
    /// Durable sessions opened on this service (see
    /// [`super::session_api`]). Batch traffic never touches this lock.
    pub(crate) sessions: Mutex<super::session_api::SessionRegistry<T, O>>,
    /// Set while a request runs on its submitter's thread
    /// ([`try_run_inline`]); at most one does at a time.
    pub(crate) inline_busy: AtomicBool,
}

impl<T: Element, O> Shared<T, O> {
    /// The submitter-run idle rule: nothing queued, and either the pool
    /// has not started or one of its workers is parked.
    pub(crate) fn is_idle(&self) -> bool {
        self.ingress.is_idle(self.started.load(Ordering::SeqCst))
    }

    /// Emit the `service.queue.depth` gauge. Callers emit it after every
    /// shard lock of the transition is released, so recorder work never
    /// runs inside a queue critical section.
    pub(crate) fn emit_depth_gauge(&self) {
        if let Some(rec) = self.stats.recorder() {
            rec.gauge("service.queue.depth", self.ingress.depth() as i64);
        }
    }
}

/// Start the pool: spawn all `workers` once. `Service::admit` calls this
/// after every admission that entered the queue; after the first it costs
/// one atomic load.
///
/// Shutdown: the start runs under `start_lock` and spawns nothing once the
/// phase has left `Accepting`, and `Service::stop` flips the phase, then
/// takes the lock before its join loop. So either the start pushed every
/// handle before that loop runs, or it sees the stopped phase and spawns
/// nothing, and the leftover drain resolves whatever was queued. A refused
/// spawn shrinks the pool (see [`spawn_worker`]); the drain covers that too.
pub(crate) fn start_pool<T, O>(shared: &Arc<Shared<T, O>>)
where
    T: Element,
    O: TryCombineOp<T>,
{
    if shared.started.load(Ordering::SeqCst) {
        return;
    }
    let _start = shared
        .start_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if shared.started.load(Ordering::SeqCst) || shared.ingress.phase() != QueuePhase::Accepting {
        return;
    }
    // Set before spawning: a panicking recorder below cannot make a later
    // admission spawn the same indices again.
    shared.started.store(true, Ordering::SeqCst);
    let spawned = (0..shared.cfg.workers())
        .filter(|&idx| spawn_worker(shared, idx))
        .count();
    shared.stats.bump_workers_started(spawned as u64);
}

/// Spawn the worker with index `idx` (pool start and respawn share this);
/// `false` if the spawn was refused.
fn spawn_worker<T, O>(shared: &Arc<Shared<T, O>>, idx: usize) -> bool
where
    T: Element,
    O: TryCombineOp<T>,
{
    let for_thread = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("mp-service-{idx}"))
        .spawn(move || {
            let _notice = DeathNotice {
                shared: Arc::clone(&for_thread),
                idx,
            };
            worker_loop(&for_thread, idx);
        });
    // A spawn refusal (resource exhaustion) shrinks the pool instead of
    // panicking — the remaining workers and the shutdown-time inline drain
    // still guarantee every ticket resolves.
    let Ok(handle) = spawned else {
        return false;
    };
    shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
    true
}

/// Thread-level supervision guard: respawns the worker if its thread dies
/// by panic.
struct DeathNotice<T: Element, O: TryCombineOp<T>> {
    shared: Arc<Shared<T, O>>,
    idx: usize,
}

impl<T: Element, O: TryCombineOp<T>> Drop for DeathNotice<T, O> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return; // normal exit (drain/abort): the pool is winding down
        }
        self.shared.stats.bump_worker_panics();
        let respawn = self.shared.ingress.phase() != QueuePhase::Aborting;
        if respawn {
            self.shared.stats.bump_respawns();
            spawn_worker(&self.shared, self.idx);
        }
        // Wake sleepers unconditionally: if this was the last worker, a
        // blocked submitter or drainer must re-evaluate rather than wait on
        // a corpse.
        self.shared.ingress.wake_all();
    }
}

/// The batch a worker currently owns. Dropping it mid-unwind resolves every
/// unresolved entry with [`MpError::WorkerLost`].
struct InFlight<'a, T> {
    slots: Vec<Option<Entry<T>>>,
    worker: usize,
    stats: &'a ServiceStats,
}

impl<T> InFlight<'_, T> {
    fn resolve(&mut self, i: usize, outcome: Result<Reply<T>, MpError>) {
        if let Some(entry) = self.slots[i].take() {
            entry.resolver.resolve(self.stats, outcome);
        }
    }

    fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

impl<T> Drop for InFlight<'_, T> {
    fn drop(&mut self) {
        let worker = self.worker;
        for slot in self.slots.iter_mut() {
            if let Some(entry) = slot.take() {
                entry
                    .resolver
                    .resolve(self.stats, Err(MpError::WorkerLost { worker }));
            }
        }
    }
}

fn worker_loop<T, O>(shared: &Arc<Shared<T, O>>, idx: usize)
where
    T: Element,
    O: TryCombineOp<T>,
{
    // The ingress handles sleeping, stealing and coalescing; the pool adds
    // the steal count and the depth gauge.
    while let Some((batch, stolen)) = shared.ingress.next_batch(idx, shared.cfg.coalesce.as_ref()) {
        if stolen {
            shared.stats.bump_steals();
        }
        shared.emit_depth_gauge();
        run_batch(shared, Some(idx), batch);
    }
}

/// Run `entry` on the calling submitter's thread when the service is idle,
/// and resolve its ticket before returning `Ok`. Idle means: coalescing is
/// configured and admits the request (`max_request_elements`), the chaos
/// plan arms no worker faults, nothing is queued, either the pool has not
/// started or a worker is parked ([`Shared::is_idle`]), and no other
/// request runs on a submitter. Anything else hands the entry back (`Err`)
/// for the worker path, which starts the pool if it has not started.
///
/// The parked-worker condition keeps the path off a saturated service,
/// where queued arrivals fuse in the coalescer instead. The one-at-a-time
/// flag does the same for a burst: concurrent arrivals queue behind it.
///
/// Shutdown: the flag is taken *before* the phase is re-checked (both
/// `SeqCst`), and `Service::stop` flips the phase before waiting for the
/// flag to clear ([`wait_inline_idle`]). So either this run sees the
/// stopped phase and hands the entry back, or `stop` waits for its
/// resolution before taking its final snapshot.
pub(crate) fn try_run_inline<T, O>(shared: &Shared<T, O>, entry: Entry<T>) -> Result<(), Entry<T>>
where
    T: Element,
    O: TryCombineOp<T>,
{
    let idle = shared
        .cfg
        .coalesce
        .is_some_and(|cc| cc.admits(&entry.request))
        && !shared
            .cfg
            .chaos
            .as_ref()
            .is_some_and(|chaos| chaos.arms_worker_faults())
        && shared.is_idle();
    if !idle
        || shared
            .inline_busy
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
    {
        return Err(entry);
    }
    let _flag = InlineFlag(&shared.inline_busy);
    if shared.ingress.phase() != QueuePhase::Accepting {
        return Err(entry);
    }
    shared.stats.bump_admitted();
    shared.stats.bump_inline();
    // The dispatcher contains engine and operator panics. One from outside
    // it (a user recorder, say) unwinds through run_batch's InFlight guard,
    // which resolves the ticket WorkerLost; the submitter gets that
    // resolved ticket, not the panic.
    let _ = catch_unwind(AssertUnwindSafe(|| run_batch(shared, None, vec![entry])));
    Ok(())
}

/// Clears [`Shared::inline_busy`] on every exit from [`try_run_inline`].
struct InlineFlag<'a>(&'a AtomicBool);

impl Drop for InlineFlag<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Wait until no request runs on a submitter's thread. `Service::stop`
/// calls this after flipping the phase, so no new run can start.
pub(crate) fn wait_inline_idle<T: Element, O>(shared: &Shared<T, O>) {
    while shared.inline_busy.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
}

/// Execute one batch and resolve every ticket in it. `worker` is `None`
/// when the batch runs on the caller's thread — a submitter-run or the
/// shutdown path's leftover drain — which has no worker chaos checkpoint.
pub(crate) fn run_batch<T, O>(shared: &Shared<T, O>, worker: Option<usize>, batch: Vec<Entry<T>>)
where
    T: Element,
    O: TryCombineOp<T>,
{
    let mut inflight = InFlight {
        slots: batch.into_iter().map(Some).collect(),
        worker: worker.unwrap_or(INLINE_WORKER),
        stats: &shared.stats,
    };
    // Queue-wait split: admitted→dequeued, measured before any chaos or
    // execution time is charged (and after InFlight owns the tickets, so
    // a panicking recorder cannot leak one). `admitted_at` is `Some`
    // exactly when a recorder is installed.
    if let Some(rec) = shared.stats.recorder() {
        let now = Instant::now();
        for entry in inflight.slots.iter().flatten() {
            if let Some(at) = entry.admitted_at {
                rec.duration_ns(
                    "service.queue.wait_ns",
                    now.saturating_duration_since(at).as_nanos() as u64,
                );
            }
        }
    }
    // The worker checkpoint: fires *after* InFlight owns the tickets, so an
    // injected panic here unwinds through the guard and every ticket in the
    // batch resolves WorkerLost — the supervised-teardown scenario. An
    // injected stall is clamped to the batch's earliest request deadline.
    if let (Some(idx), Some(chaos)) = (worker, &shared.cfg.chaos) {
        let nearest = inflight
            .slots
            .iter()
            .flatten()
            .filter_map(|entry| entry.request.deadline)
            .reduce(|a, b| a.min(b));
        chaos.inject_worker(idx, nearest);
    }
    // Pre-execution triage: requests that no longer need an engine are
    // settled for the cost of a flag/clock read. A deadline that expired
    // between dequeue and this point (e.g. across the worker checkpoint)
    // settles here, exactly once: `resolve` takes the entry out of its
    // slot, so no later path can touch the ticket again.
    for i in 0..inflight.slots.len() {
        let entry = inflight.slots[i].as_ref().expect("untouched slot");
        if entry.cancel.is_cancelled() {
            inflight.resolve(i, Err(MpError::Cancelled));
        } else if entry.request.deadline.is_some_and(|d| d.expired()) {
            inflight.resolve(i, Err(MpError::DeadlineExceeded));
        }
    }
    let live = inflight.live();
    if live.is_empty() {
        return;
    }
    let exec_started = shared.stats.recorder().map(|_| Instant::now());
    match live.as_slice() {
        [only] => run_single(shared, &mut inflight, *only),
        _ => run_fused(shared, &mut inflight, &live),
    }
    if let (Some(rec), Some(started)) = (shared.stats.recorder(), exec_started) {
        rec.duration_ns("service.exec_ns", started.elapsed().as_nanos() as u64);
    }
}

/// Run one request through the dispatcher with its own cancel token and
/// deadline, and resolve its ticket.
fn run_single<T, O>(shared: &Shared<T, O>, inflight: &mut InFlight<'_, T>, i: usize)
where
    T: Element,
    O: TryCombineOp<T>,
{
    let outcome = {
        let entry = inflight.slots[i].as_ref().expect("live slot");
        let opts = DispatchOpts {
            cancel: Some(entry.cancel.clone()),
            deadline: entry.request.deadline,
            chaos: shared.cfg.chaos.clone(),
        };
        let r = &entry.request;
        match r.kind {
            JobKind::Prefix => shared
                .dispatcher
                .dispatch(&r.values, &r.labels, r.m, shared.op, &opts)
                .map(|o| Reply::Prefix(o.output)),
            JobKind::Reduce => shared
                .dispatcher
                .dispatch_reduce(&r.values, &r.labels, r.m, shared.op, &opts)
                .map(|o| Reply::Reduce(o.output)),
        }
    };
    inflight.resolve(i, outcome);
}

/// Run `live` members as one fused multiprefix call. A fused failure (the
/// most urgent member's deadline, an exhausted chain, a fused-size budget)
/// must not take innocent members down with it, so on any error the members
/// fall back to individual execution.
fn run_fused<T, O>(shared: &Shared<T, O>, inflight: &mut InFlight<'_, T>, live: &[usize])
where
    T: Element,
    O: TryCombineOp<T>,
{
    let replies = {
        let members: Vec<&Request<T>> = live
            .iter()
            .map(|&i| &inflight.slots[i].as_ref().expect("live slot").request)
            .collect();
        let (values, labels, layout) = fuse(&members);
        let opts = DispatchOpts {
            cancel: None,
            // The batch runs under its most urgent member's deadline; a
            // blown fused deadline falls back to individual runs below,
            // where each member is judged by its own clock.
            deadline: members.iter().filter_map(|r| r.deadline).min(),
            chaos: shared.cfg.chaos.clone(),
        };
        shared
            .dispatcher
            .dispatch(&values, &labels, layout.m, shared.op, &opts)
            .map(|o| split(&members, &o.output, &layout))
    };
    match replies {
        Ok(replies) => {
            shared.stats.bump_coalesced(live.len());
            for (&i, reply) in live.iter().zip(replies) {
                inflight.resolve(i, Ok(reply));
            }
        }
        Err(_) => {
            for &i in live {
                // Re-triage: the fused attempt took time; a member may have
                // expired or been cancelled during it.
                let settled = {
                    let entry = inflight.slots[i].as_ref().expect("live slot");
                    if entry.cancel.is_cancelled() {
                        Some(Err(MpError::Cancelled))
                    } else if entry.request.deadline.is_some_and(|d| d.expired()) {
                        Some(Err(MpError::DeadlineExceeded))
                    } else {
                        None
                    }
                };
                match settled {
                    Some(outcome) => inflight.resolve(i, outcome),
                    None => run_single(shared, inflight, i),
                }
            }
        }
    }
}
