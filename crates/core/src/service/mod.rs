//! An overload-safe concurrent service layer over the resilient
//! [`Dispatcher`]: supervised worker pool,
//! admission control, backpressure, and opt-in micro-batching.
//!
//! A [`Service`] accepts concurrent multiprefix/multireduce submissions
//! from any number of threads and executes them on a pool of supervised
//! workers, each request flowing through the dispatcher's fallback chain
//! and deadlines. The layer adds the *service-level*
//! guarantees the dispatcher alone cannot give:
//!
//! * **Bounded queue + backpressure** — the submission queue holds at most
//!   [`ServiceConfig`]`::queue_capacity` requests. [`Service::try_submit`]
//!   fails fast with [`MpError::Overloaded`]; [`Service::submit`] blocks for
//!   space; [`Service::submit_within`] blocks with a deadline.
//! * **Admission control + load shedding** — two priority classes
//!   ([`Priority::Interactive`] is served before [`Priority::Batch`]). When
//!   the queue is full, an arriving interactive request sheds the batch
//!   entry with the earliest deadline (oldest first among deadline-less
//!   entries); the victim's ticket resolves [`MpError::Overloaded`], so
//!   nothing is silently dropped.
//! * **Worker supervision** — a worker that panics (including injected
//!   [`ChaosPlan`](crate::resilience::ChaosPlan) worker faults) resolves
//!   its in-flight tickets [`MpError::WorkerLost`] and is respawned;
//!   queued requests survive the death untouched. The pool starts on the
//!   first request that enters the queue, not in [`Service::new`].
//! * **Deadline propagation** — a request's deadline covers queue wait and
//!   execution: expired requests are failed cheaply before any engine runs,
//!   and the residue is enforced inside the engines via
//!   [`RunContext`](crate::resilience::RunContext) checkpoints.
//! * **Micro-batching** — with [`ServiceConfig::coalesce`] set, small
//!   same-op requests are fused into one multiprefix call with disjoint
//!   label ranges and split exactly afterwards (see [`CoalesceConfig`] for
//!   why the split is bit-for-bit equal to per-request execution).
//! * **Submitter-runs when idle** — with [`ServiceConfig::coalesce`] set, a
//!   request within [`CoalesceConfig::max_request_elements`] that finds
//!   nothing queued, and either no worker started or one parked, runs on
//!   its submitter's thread before the submit call returns (about 1–2 µs
//!   back to back at n ≤ 512; a 7 µs `try_submit` p50, recorder on, when
//!   requests of n = 64 arrive 4 000 times a second), through the same
//!   triage, dispatch and resolve path as the workers; its ticket is
//!   returned already resolved. At most one request runs this way at a
//!   time, and a chaos plan that arms worker faults disables the path.
//!   Every other request takes the queue. This is the paper's §4.4 fixed
//!   term again: at small `n` a hand-off to a worker (a queue push, a
//!   worker wake-up and a ticket wake-up) costs far more than the engine.
//!
//! The accounting invariant that ties it together: **every admitted request
//! resolves** — to a [`Reply`] or a typed [`MpError`] — through exactly one
//! code path, so `admitted == completed + errored` once the queue drains.
//! [`Service::metrics`] exposes the counters; the service tests and the
//! property harness assert the invariant under submit/cancel/chaos storms.

pub(crate) mod coalesce;
pub(crate) mod ingress;
pub(crate) mod pool;
pub(crate) mod queue;
pub(crate) mod session_api;
pub(crate) mod shed;

pub use coalesce::CoalesceConfig;
pub use queue::{Priority, Reply, Request, Ticket};
pub use session_api::SessionId;

use crate::error::MpError;
use crate::obs::Recorder;
use crate::op::TryCombineOp;
use crate::problem::{validate_slices, Element};
use crate::resilience::chaos::ChaosState;
use crate::resilience::ctx::{CancelToken, Deadline};
use crate::resilience::dispatcher::{Dispatcher, DispatcherConfig};
use ingress::{Admit, Ingress, ShedSwap};
use pool::{run_batch, start_pool, try_run_inline, wait_inline_idle, Shared};
use queue::{Entry, QueuePhase};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration for a [`Service`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads executing requests. Default 4. A cap reached on
    /// first need: the first request that enters the queue spawns all of
    /// them, and a service whose requests all run on their submitters'
    /// threads spawns none ([`ServiceMetrics::workers_started`]).
    pub workers: Option<usize>,
    /// Bound on queued (admitted but not yet executing) requests. Default
    /// 64. Submissions beyond it shed lower-priority work or exert
    /// backpressure.
    pub queue_capacity: Option<usize>,
    /// Ingress shard count. Default `workers.next_power_of_two()`: enough
    /// shards that submitters rarely contend pairwise, few enough that a
    /// worker's steal scan stays short. `Some(1)` reproduces the old
    /// single-mutex front door exactly (the benchmark baseline).
    pub ingress_shards: Option<usize>,
    /// The dispatcher every request executes through (fallback chain,
    /// execution config). A request's own deadline ([`Request::deadline`])
    /// reaches its engine through the dispatch. One dispatcher serves
    /// every worker and keeps no state between requests, so a request
    /// whose operator panics fails alone.
    pub dispatcher: DispatcherConfig,
    /// Enable micro-batch coalescing of small requests. Off by default.
    /// Setting it also lets a small request that finds the service idle
    /// run on its submitter's thread (see the module docs).
    pub coalesce: Option<CoalesceConfig>,
    /// Seeded fault injection, shared with the dispatcher layer. Worker
    /// faults ([`ChaosPlan::worker_panic_ppm`]) fire at the worker
    /// checkpoint, and a plan that arms them keeps every request on the
    /// pool; engine faults fire inside engines as before.
    ///
    /// [`ChaosPlan::worker_panic_ppm`]: crate::resilience::ChaosPlan::worker_panic_ppm
    pub chaos: Option<Arc<ChaosState>>,
    /// Metrics/tracing sink, threaded through every layer: the service
    /// mirrors its counters under `service.*` and times queue wait vs
    /// execution, the dispatcher reports attempts and fallbacks,
    /// and the engines report per-phase timings. `None` (the default) is
    /// the zero-overhead path — no clock reads, no instrument lookups.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl ServiceConfig {
    fn workers(&self) -> usize {
        self.workers.unwrap_or(4)
    }

    fn queue_capacity(&self) -> usize {
        self.queue_capacity.unwrap_or(64)
    }

    fn ingress_shards(&self) -> usize {
        self.ingress_shards
            .unwrap_or_else(|| self.workers().next_power_of_two())
    }
}

/// Monotonic service counters. Interior-mutable so workers and submitters
/// update them lock-free; snapshot with [`ServiceStats::metrics`].
///
/// The invariant-bearing counters (`admitted`, `completed`, `errored` and
/// the per-cause breakdown) move with `Release` and are read with
/// `Acquire`, in an order chosen so a concurrent snapshot can never
/// *overstate* a derived quantity — see [`ServiceStats::metrics`] for the
/// argument.
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    errored: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    worker_lost: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_requests: AtomicU64,
    worker_panics: AtomicU64,
    respawns: AtomicU64,
    steals: AtomicU64,
    inline: AtomicU64,
    workers_started: AtomicU64,
    /// Mirror sink: every counter movement is also forwarded here under
    /// `service.*` names, so an external observer sees the same accounting
    /// a [`ServiceMetrics`] snapshot reports.
    recorder: Option<Arc<dyn Recorder>>,
}

impl ServiceStats {
    pub(crate) fn recorder(&self) -> Option<&dyn Recorder> {
        self.recorder.as_deref()
    }

    fn mirror(&self, name: &str) {
        if let Some(rec) = &self.recorder {
            rec.counter(name, 1);
        }
    }

    /// Count one resolution. Called from exactly one place
    /// ([`queue::Resolver::resolve`]) so the accounting invariant is
    /// enforced structurally, not by discipline at call sites.
    ///
    /// Write order matters: `errored` moves *before* its cause counter,
    /// and [`ServiceStats::metrics`] reads the causes first, so no
    /// snapshot can show the causes summing past `errored`.
    pub(crate) fn record_resolution<T>(&self, outcome: &Result<Reply<T>, MpError>) {
        match outcome {
            Ok(_) => {
                self.completed.fetch_add(1, Ordering::Release);
                self.mirror("service.completed");
            }
            Err(err) => {
                self.errored.fetch_add(1, Ordering::Release);
                self.mirror("service.errored");
                match err {
                    MpError::Overloaded { .. } => {
                        self.shed.fetch_add(1, Ordering::Release);
                        self.mirror("service.shed");
                    }
                    MpError::Cancelled => {
                        self.cancelled.fetch_add(1, Ordering::Release);
                        self.mirror("service.cancelled");
                    }
                    MpError::DeadlineExceeded => {
                        self.expired.fetch_add(1, Ordering::Release);
                        self.mirror("service.expired");
                    }
                    MpError::WorkerLost { .. } => {
                        self.worker_lost.fetch_add(1, Ordering::Release);
                        self.mirror("service.worker_lost");
                    }
                    _ => {}
                }
            }
        }
    }

    pub(crate) fn bump_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Release);
        self.mirror("service.admitted");
    }

    pub(crate) fn bump_inline(&self) {
        self.inline.fetch_add(1, Ordering::Relaxed);
        self.mirror("service.inline");
    }

    pub(crate) fn bump_workers_started(&self, spawned: u64) {
        self.workers_started.fetch_add(spawned, Ordering::Relaxed);
        if let Some(rec) = &self.recorder {
            rec.counter("service.workers_started", spawned);
        }
    }

    pub(crate) fn bump_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.mirror("service.rejected");
    }

    pub(crate) fn bump_worker_panics(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        self.mirror("service.worker_panics");
    }

    pub(crate) fn bump_respawns(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
        self.mirror("service.respawns");
    }

    pub(crate) fn bump_steals(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        self.mirror("service.steals");
    }

    pub(crate) fn bump_coalesced(&self, members: usize) {
        self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced_requests
            .fetch_add(members as u64, Ordering::Relaxed);
        if let Some(rec) = &self.recorder {
            rec.counter("service.coalesced.batches", 1);
            rec.counter("service.coalesced.requests", members as u64);
        }
    }

    /// Snapshot the counters under a consistent partial order.
    ///
    /// The snapshot is not one atomic cut, but the load order guarantees
    /// the documented invariants can only be *under*-counted by a racing
    /// read, never violated:
    ///
    /// * the cause counters (`shed`, `cancelled`, `expired`,
    ///   `worker_lost`) are read before `errored` — paired with the writer
    ///   moving `errored` first in [`ServiceStats::record_resolution`] —
    ///   so `errored` ≥ their sum in every snapshot;
    /// * `admitted` is read last — paired with admission
    ///   happening-before resolution (the ticket travels through the queue
    ///   mutex) — so `admitted` ≥ `completed + errored` in every snapshot.
    ///
    /// The `Acquire` loads pair with the `Release` increments: observing a
    /// resolution makes the admission that preceded it (and the `errored`
    /// move that preceded a cause move) visible to the later loads. With
    /// all-`Relaxed` loads the compiler or a weakly-ordered machine could
    /// hoist the `admitted` load above the others and tear the invariant.
    pub(crate) fn metrics(&self) -> ServiceMetrics {
        let shed = self.shed.load(Ordering::Acquire);
        let cancelled = self.cancelled.load(Ordering::Acquire);
        let expired = self.expired.load(Ordering::Acquire);
        let worker_lost = self.worker_lost.load(Ordering::Acquire);
        let completed = self.completed.load(Ordering::Acquire);
        let errored = self.errored.load(Ordering::Acquire);
        let admitted = self.admitted.load(Ordering::Acquire);
        ServiceMetrics {
            admitted,
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            errored,
            shed,
            cancelled,
            expired,
            worker_lost,
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            workers_started: self.workers_started.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the service counters
/// ([`Service::metrics`]).
///
/// Once the service has quiesced (queue drained, no request in flight),
/// `admitted == completed + errored` — the no-leaked-tickets invariant —
/// and `errored == `(dispatch errors)` + shed + cancelled + expired +
/// worker_lost` where the four named counters break out the service-level
/// error causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceMetrics {
    /// Requests queued, or run on the submitter's thread (each owns
    /// exactly one ticket).
    pub admitted: u64,
    /// Submissions refused at the door (fail-fast overload, stopped
    /// service); these never got a ticket and are *not* part of the
    /// accounting invariant.
    pub rejected: u64,
    /// Tickets resolved with a [`Reply`].
    pub completed: u64,
    /// Tickets resolved with any [`MpError`].
    pub errored: u64,
    /// Errored with [`MpError::Overloaded`]: admitted, then evicted by the
    /// load shedder.
    pub shed: u64,
    /// Errored with [`MpError::Cancelled`].
    pub cancelled: u64,
    /// Errored with [`MpError::DeadlineExceeded`].
    pub expired: u64,
    /// Errored with [`MpError::WorkerLost`]: in flight on a worker that
    /// died.
    pub worker_lost: u64,
    /// Fused multi-request batches executed.
    pub coalesced_batches: u64,
    /// Requests served through a fused batch (≥ 2 per batch).
    pub coalesced_requests: u64,
    /// Worker threads that died by panic.
    pub worker_panics: u64,
    /// Replacement workers spawned by supervision.
    pub respawns: u64,
    /// Batches a worker took from a non-home ingress shard (work stealing;
    /// see the `ingress_shards` field of [`ServiceConfig`]).
    pub steals: u64,
    /// Admitted requests run on the submitter's thread because the service
    /// was idle (see the module docs), never queued. Such a request shows
    /// about zero queue wait in `service.queue.wait_ns`.
    pub inline: u64,
    /// Worker threads spawned when the first queued request started the
    /// pool: 0 until then, at most `workers` after. Replacements for dead
    /// workers count in `respawns` instead.
    pub workers_started: u64,
}

impl ServiceMetrics {
    /// Total tickets resolved so far (`completed + errored`).
    pub fn resolved(&self) -> u64 {
        self.completed + self.errored
    }
}

/// How long an admission attempt may wait for queue space.
#[derive(Clone, Copy)]
enum AdmissionWait {
    FailFast,
    Block,
    Until(Deadline),
}

/// A concurrent multiprefix/multireduce service: supervised workers over a
/// shared [`Dispatcher`], behind a bounded
/// two-priority queue. The workers start with the first request that
/// enters the queue.
///
/// ```
/// use multiprefix::op::Plus;
/// use multiprefix::service::{Request, Service, ServiceConfig};
///
/// let service = Service::new(Plus, ServiceConfig::default()).unwrap();
/// let ticket = service
///     .submit(Request::multiprefix(vec![1i64, 2, 3, 4], vec![0, 1, 0, 1], 2))
///     .unwrap();
/// let reply = ticket.wait().unwrap();
/// assert_eq!(reply.reductions(), &[4, 6]);
/// service.shutdown();
/// ```
#[derive(Debug)]
pub struct Service<T: Element, O: TryCombineOp<T>> {
    shared: Arc<Shared<T, O>>,
}

impl<T: Element, O: TryCombineOp<T>> Service<T, O> {
    /// Start the service: validate the configuration and build the
    /// dispatcher. No thread is spawned here; the first request that enters
    /// the queue starts the workers (see the `workers` field of
    /// [`ServiceConfig`]).
    pub fn new(op: O, cfg: ServiceConfig) -> Result<Self, MpError> {
        if cfg.workers() == 0 {
            return Err(MpError::InvalidConfig {
                what: "service worker count is zero",
            });
        }
        if cfg.queue_capacity() == 0 {
            return Err(MpError::InvalidConfig {
                what: "service queue capacity is zero",
            });
        }
        if let Some(cc) = cfg.coalesce {
            if cc.max_requests == 0 || cc.max_fused_elements == 0 {
                return Err(MpError::InvalidConfig {
                    what: "coalesce limits must be nonzero",
                });
            }
        }
        if cfg.ingress_shards() == 0 {
            return Err(MpError::InvalidConfig {
                what: "service ingress shard count is zero",
            });
        }
        let mut dispatcher = Dispatcher::new(cfg.dispatcher.clone())?;
        if let Some(rec) = &cfg.recorder {
            dispatcher = dispatcher.with_recorder(Arc::clone(rec));
        }
        let stats = ServiceStats {
            recorder: cfg.recorder.clone(),
            ..ServiceStats::default()
        };
        let shared = Arc::new(Shared {
            ingress: Ingress::new(cfg.ingress_shards(), cfg.queue_capacity()),
            handles: Mutex::new(Vec::new()),
            started: AtomicBool::new(false),
            start_lock: Mutex::new(()),
            dispatcher,
            op,
            cfg,
            stats,
            sessions: session_api::new_registry(),
            inline_busy: AtomicBool::new(false),
        });
        Ok(Service { shared })
    }

    /// Submit without waiting for queue space: admitted immediately
    /// (possibly by shedding lower-priority work), or refused with
    /// [`MpError::Overloaded`]. A small request at an idle coalescing
    /// service runs before this returns, in about 1–2 µs back to back at
    /// n ≤ 512, and its ticket comes back resolved (see the module docs).
    pub fn try_submit(&self, request: Request<T>) -> Result<Ticket<T>, MpError> {
        self.admit(request, AdmissionWait::FailFast)
    }

    /// Submit, blocking until the queue has room (backpressure). Like
    /// [`Service::try_submit`], a small request at an idle coalescing
    /// service runs before this returns.
    pub fn submit(&self, request: Request<T>) -> Result<Ticket<T>, MpError> {
        self.admit(request, AdmissionWait::Block)
    }

    /// Submit, blocking at most `wait` for room; refused with
    /// [`MpError::Overloaded`] if the queue is still full at the deadline.
    /// Like [`Service::try_submit`], a small request at an idle coalescing
    /// service runs before this returns.
    pub fn submit_within(&self, request: Request<T>, wait: Duration) -> Result<Ticket<T>, MpError> {
        self.admit(request, AdmissionWait::Until(Deadline::after(wait)))
    }

    /// Refuse `entry` at the door: it was never admitted, so its resolver
    /// is dropped uncounted and the refusal counts in `rejected`.
    fn refuse(&self, entry: Entry<T>, err: MpError) -> Result<Ticket<T>, MpError> {
        drop(entry);
        self.shared.stats.bump_rejected();
        Err(err)
    }

    fn admit(&self, request: Request<T>, wait: AdmissionWait) -> Result<Ticket<T>, MpError> {
        // Malformed requests fail at the submission site, not on a worker.
        validate_slices(&request.values, &request.labels, request.m)?;
        let stats = &self.shared.stats;
        let ing = &self.shared.ingress;
        let capacity = ing.capacity();
        let cancel = CancelToken::new();
        let (ticket, resolver) = queue::ticket::<T>(cancel.clone());
        // The admission timestamp is read here — before any lock is taken
        // (it used to be an `Instant::now()` inside the queue critical
        // section). `Some` exactly when a recorder is installed.
        let entry = Entry {
            request,
            cancel,
            resolver,
            seq: ing.alloc_seq(),
            admitted_at: stats.recorder().map(|_| Instant::now()),
        };
        // An idle service runs a small request right here: no queue push,
        // no worker wake-up, and the ticket is resolved on return.
        let mut entry = match try_run_inline(&self.shared, entry) {
            Ok(()) => return Ok(ticket),
            Err(entry) => entry,
        };
        let shard = ing.route(&entry.request);
        loop {
            entry = match ing.try_admit(shard, entry, || stats.bump_admitted()) {
                Admit::Admitted => {
                    start_pool(&self.shared);
                    self.shared.emit_depth_gauge();
                    return Ok(ticket);
                }
                Admit::Stopped { entry } => return self.refuse(entry, MpError::Unavailable),
                // Full queue: an interactive arrival may evict the globally
                // best batch victim and take its slot.
                Admit::Refused { entry } => {
                    match ing.try_shed_swap(shard, entry, || stats.bump_admitted()) {
                        ShedSwap::Swapped { victim } => {
                            start_pool(&self.shared);
                            // The depth is read at resolution time — not a
                            // value captured before the scan — so every
                            // victim of a multi-eviction sequence sees the
                            // queue state that actually held when its
                            // ticket settled.
                            victim.resolver.resolve(
                                stats,
                                Err(MpError::Overloaded {
                                    queue_depth: ing.depth(),
                                    capacity,
                                }),
                            );
                            self.shared.emit_depth_gauge();
                            return Ok(ticket);
                        }
                        ShedSwap::Stopped { entry } => {
                            return self.refuse(entry, MpError::Unavailable)
                        }
                        ShedSwap::NoVictim { entry } => entry,
                    }
                }
            };
            // No room and nothing sheddable: wait for space or refuse,
            // reporting the depth observed at refusal time.
            let room = match wait {
                AdmissionWait::FailFast => false,
                AdmissionWait::Block => ing.wait_for_space(shard, None),
                AdmissionWait::Until(deadline) => ing.wait_for_space(shard, Some(deadline)),
            };
            if !room {
                let queue_depth = ing.depth();
                return self.refuse(
                    entry,
                    MpError::Overloaded {
                        queue_depth,
                        capacity,
                    },
                );
            }
        }
    }

    /// Snapshot the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.stats.metrics()
    }

    /// Requests currently queued (admitted, not yet taken by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.ingress.depth()
    }

    /// Ingress shard count in effect (the `ingress_shards` field of
    /// [`ServiceConfig`], or its default).
    pub fn ingress_shards(&self) -> usize {
        self.shared.ingress.shard_count()
    }

    /// Graceful shutdown: refuse new submissions, finish every queued
    /// request, join the workers. Returns the final metrics snapshot.
    pub fn shutdown(&self) -> ServiceMetrics {
        self.stop(true)
    }

    /// Immediate shutdown: refuse new submissions, resolve every queued
    /// request [`MpError::Cancelled`] without executing it, join the
    /// workers. In-flight requests still finish (workers are never killed
    /// mid-request). Returns the final metrics snapshot.
    pub fn abort(&self) -> ServiceMetrics {
        self.stop(false)
    }

    fn stop(&self, graceful: bool) -> ServiceMetrics {
        let ing = &self.shared.ingress;
        let aborted = {
            let drained = ing.begin_stop(graceful);
            let aborted = !drained.is_empty() || ing.phase() == QueuePhase::Aborting;
            for entry in drained {
                entry
                    .resolver
                    .resolve(&self.shared.stats, Err(MpError::Cancelled));
            }
            aborted
        };
        if aborted {
            self.shared.emit_depth_gauge();
        }
        // A pool start in progress finishes pushing its handles before this
        // lock is ours; one that has not begun will see the stopped phase
        // and spawn nothing (see `pool::start_pool`).
        drop(
            self.shared
                .start_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        // Join the whole worker lineage. A replacement pushes its handle
        // before its predecessor's thread exits, so looping until the vec
        // is empty catches every respawn generation.
        loop {
            let handle = self
                .shared
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match handle {
                Some(h) => {
                    let _ = h.join(); // panics already handled by supervision
                }
                None => break,
            }
        }
        // A submitter that took the inline flag before the phase flipped is
        // still resolving its request; close the books after it.
        wait_inline_idle(&self.shared);
        // Defensive sweep: if the last worker died and its respawn failed
        // (spawn refusal under resource exhaustion), queued entries could
        // outlive the pool. Resolve them inline rather than leak tickets.
        let leftovers = ing.drain_all();
        if !leftovers.is_empty() {
            run_batch(&self.shared, None, leftovers);
        }
        self.shared.stats.metrics()
    }
}

impl<T: Element, O: TryCombineOp<T>> Drop for Service<T, O> {
    fn drop(&mut self) {
        // Idempotent: a no-op beyond joining if shutdown()/abort() already
        // ran. Default drop policy is abort — don't hold the caller hostage
        // to a deep backlog.
        self.stop(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;
    use crate::resilience::chaos::ChaosPlan;
    use crate::serial::{multiprefix_serial, multireduce_serial};

    fn small_cfg(workers: usize, capacity: usize) -> ServiceConfig {
        ServiceConfig {
            workers: Some(workers),
            queue_capacity: Some(capacity),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(matches!(
            Service::<i64, Plus>::new(Plus, small_cfg(0, 8)),
            Err(MpError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Service::<i64, Plus>::new(Plus, small_cfg(2, 0)),
            Err(MpError::InvalidConfig { .. })
        ));
        let bad_coalesce = ServiceConfig {
            coalesce: Some(CoalesceConfig {
                max_requests: 0,
                ..CoalesceConfig::default()
            }),
            ..ServiceConfig::default()
        };
        assert!(matches!(
            Service::<i64, Plus>::new(Plus, bad_coalesce),
            Err(MpError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn submissions_resolve_with_oracle_results() {
        let service = Service::new(Plus, small_cfg(2, 8)).unwrap();
        let values = vec![1i64, 3, 2, 1, 1, 2, 3, 1];
        let labels = vec![1usize, 2, 1, 1, 2, 2, 1, 1];
        let prefix = service
            .submit(Request::multiprefix(values.clone(), labels.clone(), 4))
            .unwrap();
        let reduce = service
            .submit(Request::multireduce(values.clone(), labels.clone(), 4))
            .unwrap();
        assert_eq!(
            prefix.wait().unwrap().into_prefix().unwrap(),
            multiprefix_serial(&values, &labels, 4, Plus)
        );
        assert_eq!(
            reduce.wait().unwrap(),
            Reply::Reduce(multireduce_serial(&values, &labels, 4, Plus))
        );
        let m = service.shutdown();
        assert_eq!(m.admitted, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.errored, 0);
    }

    #[test]
    fn invalid_requests_fail_at_the_submission_site() {
        let service = Service::new(Plus, small_cfg(1, 4)).unwrap();
        // Label out of range.
        let err = service
            .submit(Request::multiprefix(vec![1i64], vec![5], 2))
            .unwrap_err();
        assert!(matches!(err, MpError::LabelOutOfRange { .. }));
        let m = service.shutdown();
        assert_eq!(m.admitted, 0);
    }

    #[test]
    fn cancelled_before_execution_resolves_cancelled() {
        // One worker wedged on a stall keeps the queue backed up long
        // enough to cancel a queued request deterministically.
        let chaos = ChaosPlan::seeded(7)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(30))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(8),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let first = service
            .submit(Request::multiprefix(vec![1i64, 2], vec![0, 1], 2))
            .unwrap();
        let victim = service
            .submit(Request::multiprefix(vec![3i64, 4], vec![0, 1], 2))
            .unwrap();
        victim.cancel();
        assert_eq!(victim.wait(), Err(MpError::Cancelled));
        assert!(first.wait().is_ok());
        let m = service.shutdown();
        assert_eq!(m.admitted, m.completed + m.errored);
        assert_eq!(m.cancelled, 1);
    }

    #[test]
    fn try_submit_sheds_batch_work_for_interactive_arrivals() {
        // No workers draining: wedge the single worker with a long stall so
        // the queue state is fully under test control.
        let chaos = ChaosPlan::seeded(3)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(50))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(2),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        // First submission is grabbed by the (stalling) worker; the next
        // two fill the queue.
        let mut batch = Vec::new();
        for _ in 0..3 {
            batch.push(
                service
                    .submit(Request::multireduce(vec![1i64], vec![0], 1))
                    .unwrap(),
            );
        }
        // Queue full with batch work: a batch arrival is refused...
        let refused = service
            .try_submit(Request::multireduce(vec![1i64], vec![0], 1))
            .unwrap_err();
        assert!(matches!(refused, MpError::Overloaded { capacity: 2, .. }));
        // ...but an interactive arrival sheds a queued batch entry.
        let vip = service
            .try_submit(
                Request::multireduce(vec![2i64], vec![0], 1).priority(Priority::Interactive),
            )
            .unwrap();
        assert!(vip.wait().is_ok());
        let shed_count = batch
            .iter()
            .filter(|t| matches!(t.wait(), Err(MpError::Overloaded { .. })))
            .count();
        assert_eq!(shed_count, 1);
        let m = service.shutdown();
        assert_eq!(m.shed, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    #[test]
    fn worker_death_resolves_inflight_and_respawns() {
        // Worker 0 panics on every batch it picks up; the respawned
        // replacements keep panicking (same index), so every request
        // submitted resolves WorkerLost — and the service stays alive.
        let chaos = ChaosPlan::seeded(11)
            .worker_panic_ppm(1_000_000)
            .only_worker(0)
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(8),
            chaos: Some(chaos.clone()),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let t = service
            .submit(Request::multiprefix(vec![1i64, 2], vec![0, 0], 1))
            .unwrap();
        assert_eq!(t.wait(), Err(MpError::WorkerLost { worker: 0 }));
        // A second request can only be picked up by the *replacement*
        // worker, so its resolution proves the first death's supervision
        // (panic count, respawn) fully ran.
        let t2 = service
            .submit(Request::multiprefix(vec![3i64], vec![0], 1))
            .unwrap();
        assert_eq!(t2.wait(), Err(MpError::WorkerLost { worker: 0 }));
        let m = service.metrics();
        assert_eq!(m.worker_lost, 2);
        assert!(m.worker_panics >= 1);
        assert!(m.respawns >= 1);
        // After shutdown every worker thread is joined, so the chaos-side
        // and service-side panic counters must agree exactly.
        let final_m = service.shutdown();
        assert_eq!(final_m.admitted, final_m.completed + final_m.errored);
        assert_eq!(chaos.worker_panics_injected() as u64, final_m.worker_panics);
    }

    #[test]
    fn expired_queued_requests_fail_cheaply() {
        let chaos = ChaosPlan::seeded(5)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(25))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(8),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let _wedge = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1))
            .unwrap();
        let doomed = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1).timeout(Duration::ZERO))
            .unwrap();
        assert_eq!(doomed.wait(), Err(MpError::DeadlineExceeded));
        let m = service.shutdown();
        assert_eq!(m.expired, 1);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    #[test]
    fn coalescing_preserves_oracle_results() {
        // Wedge the single worker briefly so several small requests queue
        // up and get fused by the next dequeue.
        let chaos = ChaosPlan::seeded(13)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(20))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(32),
            coalesce: Some(CoalesceConfig::default()),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let mut expected = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..12i64 {
            let values = vec![i, i + 1, i + 2];
            let labels = vec![0usize, 1, (i as usize) % 2];
            let m = 2;
            expected.push(multiprefix_serial(&values, &labels, m, Plus));
            tickets.push(
                service
                    .submit(Request::multiprefix(values, labels, m))
                    .unwrap(),
            );
        }
        for (t, want) in tickets.into_iter().zip(expected) {
            assert_eq!(t.wait().unwrap().into_prefix().unwrap(), want);
        }
        let m = service.shutdown();
        assert_eq!(m.completed, 12);
        // The stall guarantees at least one dequeue saw a multi-entry
        // backlog to fuse.
        assert!(m.coalesced_batches >= 1, "metrics: {m:?}");
        assert!(m.coalesced_requests >= 2);
    }

    #[test]
    fn abort_cancels_backlog_and_submissions_after_stop_are_refused() {
        let chaos = ChaosPlan::seeded(17)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(25))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(8),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let mut tickets = Vec::new();
        for _ in 0..4 {
            tickets.push(
                service
                    .submit(Request::multireduce(vec![1i64], vec![0], 1))
                    .unwrap(),
            );
        }
        let m = service.abort();
        assert_eq!(m.admitted, 4);
        assert_eq!(m.admitted, m.completed + m.errored);
        for t in &tickets {
            assert!(t.is_resolved());
        }
        assert!(matches!(
            service.submit(Request::multireduce(vec![1i64], vec![0], 1)),
            Err(MpError::Unavailable)
        ));
    }

    #[test]
    fn expiry_between_dequeue_and_checkpoint_settles_exactly_once() {
        // The stall fires at the worker checkpoint — after dequeue, before
        // triage — so the deadline expires while a worker already owns the
        // ticket. It must settle DeadlineExceeded exactly once, be counted
        // in `expired`, and leave the accounting invariant intact.
        let chaos = ChaosPlan::seeded(23)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(30))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(4),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let doomed = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1).timeout(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(doomed.wait(), Err(MpError::DeadlineExceeded));
        let m = service.shutdown();
        assert_eq!(m.expired, 1);
        assert_eq!(m.errored, 1);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    #[test]
    fn request_deadline_reaches_the_engine() {
        // Every engine checkpoint stalls for four times the timeout (each
        // stall is clamped to the deadline the engine was handed), so the
        // request passes the worker's triage and the dispatcher's
        // pre-attempt check with budget left and its deadline lapses
        // inside the engine: the engine's next checkpoint must end the
        // run, which it can see only through the deadline the service
        // handed the dispatch. Without that deadline the run would sleep
        // out every stall and succeed. The timeout leaves room for the
        // submit-side validation and the worker's start-up, even under
        // Miri.
        let timeout = Duration::from_secs(1);
        let chaos = ChaosPlan::seeded(29).stall(1_000_000, 4 * timeout).arm();
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(4),
            chaos: Some(chaos.clone()),
            recorder: Some(rec.clone() as Arc<dyn Recorder>),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let n = 4 * crate::resilience::CHECK_STRIDE;
        let values = (0..n as i64).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        let doomed = service
            .submit(Request::multiprefix(values, labels, 3).timeout(timeout))
            .unwrap();
        assert_eq!(doomed.wait(), Err(MpError::DeadlineExceeded));
        let m = service.shutdown();
        assert_eq!(m.expired, 1);
        assert_eq!(m.admitted, m.completed + m.errored);
        // The chunked engine ran once and stopped at a checkpoint; the
        // dispatcher then refused the serial fallback on the spent budget.
        assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);
        assert_eq!(rec.counter_value("dispatch.serial.attempts"), 0);
        assert!(chaos.stalls_injected() >= 1);
    }

    #[test]
    fn metrics_snapshot_never_overstates_resolutions() {
        // A dedicated observer hammers `metrics()` while submitters and
        // workers race; no snapshot may show completed + errored > admitted
        // or the cause breakdown summing past errored (the torn reads the
        // Acquire/Release ordering in ServiceStats rules out).
        use std::sync::atomic::AtomicBool;
        let service = Arc::new(Service::new(Plus, small_cfg(4, 16)).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let observer = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut torn = 0u32;
                while !stop.load(Ordering::Acquire) {
                    let m = service.metrics();
                    if m.completed + m.errored > m.admitted {
                        torn += 1;
                    }
                    if m.shed + m.cancelled + m.expired + m.worker_lost > m.errored {
                        torn += 1;
                    }
                }
                torn
            })
        };
        let submitters: Vec<_> = (0..4i64)
            .map(|s| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let t = service
                            .submit(Request::multireduce(vec![s, i], vec![0, 0], 1))
                            .unwrap();
                        let _ = t.wait();
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        assert_eq!(observer.join().unwrap(), 0, "torn metrics snapshots seen");
        let m = service.shutdown();
        assert_eq!(m.admitted, 400);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    #[test]
    fn recorder_mirrors_service_metrics_and_times_the_pipeline() {
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = ServiceConfig {
            workers: Some(2),
            queue_capacity: Some(8),
            recorder: Some(rec.clone() as Arc<dyn Recorder>),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        for i in 0..6i64 {
            let t = service
                .submit(Request::multiprefix(vec![i, i + 1], vec![0, 1], 2))
                .unwrap();
            assert!(t.wait().is_ok());
        }
        let m = service.shutdown();
        assert_eq!(m.completed, 6);
        // The recorder's counters and the ServiceMetrics snapshot are two
        // views of the same accounting.
        assert_eq!(rec.counter_value("service.admitted"), m.admitted);
        assert_eq!(rec.counter_value("service.completed"), m.completed);
        assert_eq!(rec.counter_value("service.errored"), m.errored);
        assert_eq!(rec.counter_value("service.workers_started"), 2);
        assert_eq!(m.workers_started, 2);
        // Every request flowed through the (instrumented) dispatcher.
        assert_eq!(rec.counter_value("dispatch.requests"), m.admitted);
        // Queue-wait was timed for every admitted request; execution for
        // at least one dequeue.
        let wait = rec
            .histogram("service.queue.wait_ns")
            .expect("queue-wait histogram");
        assert_eq!(wait.count, m.admitted);
        let exec = rec.histogram("service.exec_ns").expect("exec histogram");
        assert!(exec.count >= 1 && exec.count <= m.admitted);
        // The depth gauge was maintained and ended at zero (queue drained).
        assert_eq!(rec.gauge_value("service.queue.depth"), Some(0));
    }

    #[test]
    fn shed_victims_see_resolution_time_depth_across_multi_eviction() {
        // Regression pin for the stale-depth bug: the old admission loop
        // captured `depth` once before shedding and stamped that snapshot
        // into every victim's `Overloaded{queue_depth}`. Two interactive
        // arrivals against the same full queue each evict one batch entry;
        // each victim must report the depth that actually held when its
        // ticket settled (the slot transfers, so that is the full capacity).
        let chaos = ChaosPlan::seeded(17)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(120))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(2),
            ingress_shards: Some(1),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        // First submission is taken by the (stalled) worker; give it time
        // to leave the queue so the next two fill it exactly.
        let first = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let batch: Vec<_> = (0..2)
            .map(|_| {
                service
                    .submit(Request::multireduce(vec![1i64], vec![0], 1))
                    .unwrap()
            })
            .collect();
        assert_eq!(service.queue_depth(), 2);
        let vips: Vec<_> = (0..2)
            .map(|_| {
                service
                    .try_submit(
                        Request::multireduce(vec![2i64], vec![0], 1)
                            .priority(Priority::Interactive),
                    )
                    .unwrap()
            })
            .collect();
        for victim in batch {
            match victim.wait() {
                Err(MpError::Overloaded {
                    queue_depth,
                    capacity,
                }) => {
                    assert_eq!(capacity, 2);
                    assert_eq!(
                        queue_depth, 2,
                        "victim must see the live depth at resolution time"
                    );
                }
                other => panic!("expected both batch entries shed, got {other:?}"),
            }
        }
        assert!(first.wait().is_ok());
        for vip in vips {
            assert!(vip.wait().is_ok());
        }
        let m = service.shutdown();
        assert_eq!(m.shed, 2);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    #[test]
    fn depth_gauge_is_emitted_on_every_transition_including_shed() {
        // Regression pin for the missing-gauge bug: the old shed path
        // resolved its victim without touching `service.queue.depth`, and
        // pushes emitted the gauge from inside the queue critical section.
        // Poisoning the gauge with a sentinel right before each transition
        // proves the transition itself re-emits it.
        let rec = crate::obs::MemoryRecorder::shared();
        let chaos = ChaosPlan::seeded(23)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(120))
            .arm();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(2),
            ingress_shards: Some(1),
            chaos: Some(chaos),
            recorder: Some(rec.clone() as Arc<dyn Recorder>),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        // Worker takes the first request and stalls mid-batch (it emits its
        // pop-side gauge before the stall), leaving the queue to the test.
        let first = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Push transitions: each admission re-emits the live depth.
        rec.gauge("service.queue.depth", -1);
        let _b1 = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1))
            .unwrap();
        assert_eq!(rec.gauge_value("service.queue.depth"), Some(1));
        let _b2 = service
            .submit(Request::multireduce(vec![1i64], vec![0], 1))
            .unwrap();
        assert_eq!(rec.gauge_value("service.queue.depth"), Some(2));
        // Shed transition: poison the gauge, then let an interactive
        // arrival evict a batch entry — the swap must re-emit it even
        // though the global depth is unchanged (slot transfer).
        rec.gauge("service.queue.depth", -1);
        let vip = service
            .try_submit(
                Request::multireduce(vec![2i64], vec![0], 1).priority(Priority::Interactive),
            )
            .unwrap();
        assert_eq!(
            rec.gauge_value("service.queue.depth"),
            Some(2),
            "shed must re-emit the global depth gauge"
        );
        assert!(first.wait().is_ok());
        assert!(vip.wait().is_ok());
        // Drain transitions: the workers' pops walk the gauge back to zero.
        let m = service.shutdown();
        assert_eq!(rec.gauge_value("service.queue.depth"), Some(0));
        assert_eq!(m.shed, 1);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    /// Submit `request()` until one runs on the submitter's thread, and
    /// return that ticket. Each attempt first waits for the idle rule to
    /// hold. Before the pool starts the first attempt runs inline; after,
    /// a worker waking from its park timeout can still race the check, and
    /// that attempt takes the pool.
    fn submit_inline<O: TryCombineOp<i64>>(
        service: &Service<i64, O>,
        request: impl Fn() -> Request<i64>,
    ) -> Ticket<i64> {
        loop {
            while !service.shared.is_idle() {
                std::thread::yield_now();
            }
            let before = service.metrics().inline;
            let ticket = service.try_submit(request()).unwrap();
            if service.metrics().inline > before {
                return ticket;
            }
            let _ = ticket.wait();
        }
    }

    #[test]
    fn idle_service_runs_a_small_request_on_the_submitter() {
        let rec = crate::obs::MemoryRecorder::shared();
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(4),
            coalesce: Some(CoalesceConfig::default()),
            recorder: Some(rec.clone() as Arc<dyn Recorder>),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let values = vec![1i64, 3, 2, 1, 1];
        let labels = vec![1usize, 0, 1, 1, 2];
        let ticket = submit_inline(&service, || {
            Request::multiprefix(values.clone(), labels.clone(), 3)
        });
        assert!(ticket.is_resolved(), "resolved before try_submit returned");
        assert_eq!(
            ticket.take().unwrap().into_prefix().unwrap(),
            multiprefix_serial(&values, &labels, 3, Plus)
        );
        let m = service.shutdown();
        assert_eq!(m.inline, 1);
        assert_eq!(m.completed, m.admitted);
        assert_eq!(rec.counter_value("service.inline"), m.inline);
        // Same books as the pool path: queue wait is timed for every
        // admitted request, and every request went through the dispatcher.
        let wait = rec.histogram("service.queue.wait_ns").unwrap();
        assert_eq!(wait.count, m.admitted);
        assert_eq!(rec.counter_value("dispatch.requests"), m.admitted);
    }

    fn coalescing_cfg(rec: &Arc<crate::obs::MemoryRecorder>) -> ServiceConfig {
        ServiceConfig {
            coalesce: Some(CoalesceConfig::default()),
            recorder: Some(rec.clone() as Arc<dyn Recorder>),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn sequential_small_requests_never_start_the_pool() {
        // The default service plus coalescing, fed one n = 64, m = 8
        // request at a time.
        let rec = crate::obs::MemoryRecorder::shared();
        let service = Service::new(Plus, coalescing_cfg(&rec)).unwrap();
        for i in 0..32i64 {
            let values: Vec<i64> = (0..64).map(|j| (i * j) % 17 - 8).collect();
            let labels: Vec<usize> = (0..64).map(|j| (j * 7 + i as usize) % 8).collect();
            let ticket = service
                .try_submit(Request::multiprefix(values.clone(), labels.clone(), 8))
                .unwrap();
            assert!(ticket.is_resolved(), "request {i} queued");
            assert_eq!(
                ticket.take().unwrap().into_prefix().unwrap(),
                multiprefix_serial(&values, &labels, 8, Plus)
            );
        }
        assert!(service.shared.handles.lock().unwrap().is_empty());
        let m = service.shutdown();
        assert_eq!((m.workers_started, m.inline, m.admitted), (0, 32, 32));
        assert_eq!(m.completed, m.admitted);
        assert_eq!(rec.counter_value("service.workers_started"), 0);
    }

    #[test]
    fn stopping_a_service_whose_pool_never_started_balances_the_books() {
        let values = vec![1i64, 3, 2, 1];
        let labels = vec![0usize, 1, 1, 0];
        let want = multiprefix_serial(&values, &labels, 2, Plus);
        let request = || Request::multiprefix(values.clone(), labels.clone(), 2);
        for how in ["shutdown", "abort", "drop"] {
            let rec = crate::obs::MemoryRecorder::shared();
            let service = Service::new(Plus, coalescing_cfg(&rec)).unwrap();
            let inline = service.try_submit(request()).unwrap();
            assert_eq!(inline.take().unwrap().into_prefix().unwrap(), want);
            // A start whose every spawn was refused: the next request is
            // queued, and no worker will ever take it.
            service.shared.started.store(true, Ordering::SeqCst);
            let queued = service.try_submit(request()).unwrap();
            assert_eq!(service.queue_depth(), 1, "{how}");
            match how {
                "shutdown" => {
                    service.shutdown();
                }
                "abort" => {
                    service.abort();
                }
                _ => drop(service),
            }
            // The graceful drain runs it; abort (drop's policy) cancels it.
            let outcome = queued.try_result().expect("resolved by the stop");
            match how {
                "shutdown" => assert_eq!(outcome.unwrap().into_prefix().unwrap(), want),
                _ => assert_eq!(outcome, Err(MpError::Cancelled), "{how}"),
            }
            // The recorder mirrors the final books, also for a drop.
            let admitted = rec.counter_value("service.admitted");
            assert_eq!(admitted, 2, "{how}");
            assert_eq!(
                admitted,
                rec.counter_value("service.completed") + rec.counter_value("service.errored"),
                "{how}"
            );
            assert_eq!(rec.counter_value("service.workers_started"), 0, "{how}");
        }
    }

    #[test]
    fn each_request_the_submitter_path_excludes_starts_the_pool_once() {
        let small = (vec![5i64, 6, 7], vec![0usize, 1, 1]);
        let n = CoalesceConfig::default().max_request_elements + 1;
        let large: (Vec<i64>, Vec<usize>) =
            ((0..n as i64).collect(), (0..n).map(|i| i % 3).collect());
        // A zero-length worker stall arms worker faults and changes nothing
        // else.
        let stall = ChaosPlan::seeded(29)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::ZERO)
            .arm();
        let cases = [
            ("no coalescing", None, None, &small),
            (
                "above max_request_elements",
                Some(CoalesceConfig::default()),
                None,
                &large,
            ),
            (
                "worker-fault chaos",
                Some(CoalesceConfig::default()),
                Some(stall),
                &small,
            ),
        ];
        for (case, coalesce, chaos, (values, labels)) in cases {
            let cfg = ServiceConfig {
                workers: Some(3),
                coalesce,
                chaos,
                ..ServiceConfig::default()
            };
            let service = Service::new(Plus, cfg).unwrap();
            assert_eq!(service.metrics().workers_started, 0, "{case}");
            for _ in 0..3 {
                let ticket = service
                    .try_submit(Request::multiprefix(values.clone(), labels.clone(), 3))
                    .unwrap();
                assert_eq!(
                    ticket.take().unwrap().into_prefix().unwrap(),
                    multiprefix_serial(values, labels, 3, Plus),
                    "{case}"
                );
            }
            let m = service.shutdown();
            assert_eq!(
                (m.workers_started, m.inline, m.respawns),
                (3, 0, 0),
                "{case}"
            );
        }
    }

    /// A recorder that panics when the service times a queue wait: a panic
    /// from outside the dispatcher's `catch_unwind`.
    #[derive(Debug)]
    struct PanicOnQueueWait(crate::obs::MemoryRecorder);

    impl Recorder for PanicOnQueueWait {
        fn counter(&self, name: &str, delta: u64) {
            self.0.counter(name, delta);
        }
        fn gauge(&self, name: &str, value: i64) {
            self.0.gauge(name, value);
        }
        fn duration_ns(&self, name: &str, nanos: u64) {
            assert_ne!(name, "service.queue.wait_ns", "recorder fault");
            self.0.duration_ns(name, nanos);
        }
    }

    #[test]
    fn panic_outside_the_dispatcher_resolves_the_submitter_run_worker_lost() {
        let cfg = ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(4),
            coalesce: Some(CoalesceConfig::default()),
            recorder: Some(Arc::new(PanicOnQueueWait(Default::default()))),
            ..ServiceConfig::default()
        };
        let service = Service::new(Plus, cfg).unwrap();
        let ticket = submit_inline(&service, || {
            Request::multireduce(vec![1i64, 2], vec![0, 0], 1)
        });
        assert_eq!(
            ticket.try_result(),
            Some(Err(MpError::WorkerLost {
                worker: pool::INLINE_WORKER
            }))
        );
        // The flag was released: the next idle request runs inline too.
        let again = submit_inline(&service, || Request::multireduce(vec![3i64], vec![0], 1));
        assert!(again.is_resolved());
        let m = service.shutdown();
        assert_eq!(m.inline, 2);
        assert_eq!(m.admitted, m.completed + m.errored);
    }

    #[test]
    fn graceful_shutdown_completes_the_backlog() {
        let service = Service::new(Plus, small_cfg(2, 16)).unwrap();
        let tickets: Vec<_> = (0..10i64)
            .map(|i| {
                service
                    .submit(Request::multireduce(vec![i, i], vec![0, 0], 1))
                    .unwrap()
            })
            .collect();
        let m = service.shutdown();
        assert_eq!(m.completed, 10);
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(
                t.try_result().unwrap().unwrap().reductions(),
                &[2 * i as i64]
            );
        }
    }
}
