//! The bounded two-priority submission queue and the ticket/resolver pair
//! that carries every request's outcome.
//!
//! Accounting is the load-bearing invariant of this module: each admitted
//! request owns exactly one [`Resolver`], every resolver is consumed by
//! value to deliver exactly one `Result`, and [`super::ServiceStats`]
//! counts at that single point — so `admitted == completed + errored` holds
//! by construction once the queue drains, and a leaked ticket would show up
//! as a counting gap rather than a silent hang.

use crate::error::MpError;
use crate::problem::MultiprefixOutput;
use crate::resilience::ctx::{CancelToken, Deadline};
use crate::service::ServiceStats;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Priority class of a submission. The queue serves all queued
/// [`Priority::Interactive`] work before any [`Priority::Batch`] work, and
/// the load shedder evicts batch work first (never the other way around).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: served first, shed last.
    Interactive,
    /// Throughput work: served after interactive, shed first, and the
    /// natural candidate for micro-batch coalescing.
    Batch,
}

/// Which operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// Full multiprefix: per-element exclusive sums + per-label reductions.
    Prefix,
    /// Multireduce: per-label reductions only.
    Reduce,
}

/// One multiprefix/multireduce submission, built with
/// [`Request::multiprefix`] / [`Request::multireduce`] and the chained
/// option setters.
///
/// ```
/// use multiprefix::service::{Priority, Request};
/// use std::time::Duration;
///
/// let req = Request::multiprefix(vec![1i64, 2, 3], vec![0, 1, 0], 2)
///     .priority(Priority::Interactive)
///     .timeout(Duration::from_millis(50));
/// assert_eq!(req.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Request<T> {
    pub(crate) values: Vec<T>,
    pub(crate) labels: Vec<usize>,
    pub(crate) m: usize,
    pub(crate) kind: JobKind,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Deadline>,
}

impl<T> Request<T> {
    /// A full multiprefix request (sums + reductions), batch priority by
    /// default.
    pub fn multiprefix(values: Vec<T>, labels: Vec<usize>, m: usize) -> Self {
        Request {
            values,
            labels,
            m,
            kind: JobKind::Prefix,
            priority: Priority::Batch,
            deadline: None,
        }
    }

    /// A multireduce request (per-label reductions only), batch priority by
    /// default.
    pub fn multireduce(values: Vec<T>, labels: Vec<usize>, m: usize) -> Self {
        Request {
            kind: JobKind::Reduce,
            ..Request::multiprefix(values, labels, m)
        }
    }

    /// Set the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Bound the request by `deadline` — covering queue wait *and*
    /// execution. A request still queued at expiry is failed cheaply with
    /// [`MpError::DeadlineExceeded`] before any engine runs.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// [`Request::deadline`] with a fresh deadline `budget` from now.
    pub fn timeout(self, budget: Duration) -> Self {
        self.deadline(Deadline::after(budget))
    }

    /// Number of elements in the request.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the request empty (zero elements)?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A successful service reply: what the request's job kind asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<T> {
    /// Reply to a [`Request::multiprefix`] submission.
    Prefix(MultiprefixOutput<T>),
    /// Reply to a [`Request::multireduce`] submission.
    Reduce(Vec<T>),
}

impl<T> Reply<T> {
    /// The full multiprefix output, if this was a multiprefix request.
    pub fn into_prefix(self) -> Option<MultiprefixOutput<T>> {
        match self {
            Reply::Prefix(out) => Some(out),
            Reply::Reduce(_) => None,
        }
    }

    /// The per-label reductions — present for both request kinds.
    pub fn reductions(&self) -> &[T] {
        match self {
            Reply::Prefix(out) => &out.reductions,
            Reply::Reduce(red) => red,
        }
    }
}

/// The state cell a [`Ticket`] waits on and a [`Resolver`] fills exactly
/// once.
#[derive(Debug)]
struct TicketShared<T> {
    outcome: Mutex<Option<Result<Reply<T>, MpError>>>,
    cond: Condvar,
}

fn lock_outcome<T>(
    shared: &TicketShared<T>,
) -> std::sync::MutexGuard<'_, Option<Result<Reply<T>, MpError>>> {
    // A poisoning panic can only have happened *outside* the short
    // store/clone critical sections; the Option value is still coherent.
    shared
        .outcome
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The caller's handle to one admitted request.
///
/// A ticket always resolves: to a [`Reply`] or to a typed [`MpError`]
/// (`Overloaded` if shed, `Cancelled`, `DeadlineExceeded`, `WorkerLost`, or
/// a dispatch error). Dropping a ticket does not cancel the request — use
/// [`Ticket::cancel`] for that.
#[derive(Debug)]
pub struct Ticket<T> {
    shared: Arc<TicketShared<T>>,
    cancel: CancelToken,
}

impl<T: Clone> Ticket<T> {
    /// Block until the request resolves.
    pub fn wait(&self) -> Result<Reply<T>, MpError> {
        let mut slot = lock_outcome(&self.shared);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self
                .shared
                .cond
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block for at most `budget`; `None` means still pending.
    pub fn wait_for(&self, budget: Duration) -> Option<Result<Reply<T>, MpError>> {
        let deadline = Deadline::after(budget);
        let mut slot = lock_outcome(&self.shared);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let left = deadline.remaining();
            if left.is_zero() {
                return None;
            }
            slot = self
                .shared
                .cond
                .wait_timeout(slot, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The outcome if already resolved, without blocking.
    pub fn try_result(&self) -> Option<Result<Reply<T>, MpError>> {
        lock_outcome(&self.shared).clone()
    }
}

impl<T> Ticket<T> {
    /// Block until the request resolves and move the outcome out,
    /// consuming the ticket.
    ///
    /// Unlike [`Ticket::wait`] this clones nothing: the reply's buffers
    /// are handed over as-is, so a steady-state caller pays zero
    /// allocations for retrieval (pinned by the `service_workspace_alloc`
    /// test). Requires neither `T: Clone` nor a resolved slot afterwards —
    /// the outcome can only be taken once, which consuming `self`
    /// guarantees statically.
    pub fn take(self) -> Result<Reply<T>, MpError> {
        let mut slot = lock_outcome(&self.shared);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .shared
                .cond
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Has the request resolved yet?
    pub fn is_resolved(&self) -> bool {
        lock_outcome(&self.shared).is_some()
    }

    /// Ask the service to abandon the request. Cooperative: a request still
    /// queued resolves [`MpError::Cancelled`] without executing; one already
    /// running is stopped at the next engine checkpoint; one that slips
    /// through (e.g. mid-coalesced-batch) may still resolve with its result.
    /// A request run on its submitter's thread (an idle coalescing service;
    /// see [`crate::service`]) is already resolved when its ticket is
    /// returned, so cancelling it changes nothing.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// The service's half of a ticket: consumed by value to deliver the one and
/// only outcome.
#[derive(Debug)]
pub(crate) struct Resolver<T> {
    shared: Arc<TicketShared<T>>,
}

impl<T> Resolver<T> {
    /// Deliver the outcome, wake all waiters, and count the resolution in
    /// `stats`. This is the *only* place a ticket is filled and the only
    /// place completed/errored counters move, which is what makes the
    /// `admitted == completed + errored` invariant auditable.
    pub(crate) fn resolve(self, stats: &ServiceStats, outcome: Result<Reply<T>, MpError>) {
        stats.record_resolution(&outcome);
        let mut slot = lock_outcome(&self.shared);
        debug_assert!(slot.is_none(), "invariant: a ticket resolves exactly once");
        *slot = Some(outcome);
        self.shared.cond.notify_all();
    }
}

/// Build a connected ticket/resolver pair around `cancel`.
pub(crate) fn ticket<T>(cancel: CancelToken) -> (Ticket<T>, Resolver<T>) {
    let shared = Arc::new(TicketShared {
        outcome: Mutex::new(None),
        cond: Condvar::new(),
    });
    (
        Ticket {
            shared: Arc::clone(&shared),
            cancel,
        },
        Resolver { shared },
    )
}

/// One admitted request as it sits in the queue: the job plus its control
/// surfaces and its resolver.
#[derive(Debug)]
pub(crate) struct Entry<T> {
    pub(crate) request: Request<T>,
    pub(crate) cancel: CancelToken,
    pub(crate) resolver: Resolver<T>,
    /// Admission order, for oldest-first tie-breaking in the shed policy.
    pub(crate) seq: u64,
    /// Admission instant, feeding the `service.queue.wait_ns` histogram.
    /// Captured only when a recorder is installed so the uninstrumented
    /// path stays clock-free.
    pub(crate) admitted_at: Option<Instant>,
}

/// Lifecycle phase of the service's ingress (and so of the whole service).
/// Stored as an atomic in [`super::ingress::Ingress`]; submitters re-check
/// it inside their shard lock so no push can race a shutdown drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueuePhase {
    /// Normal operation: submissions admitted, workers draining.
    Accepting,
    /// Graceful shutdown: no new submissions; workers finish the backlog.
    Draining,
    /// Immediate shutdown: no new submissions; the backlog is resolved
    /// [`MpError::Cancelled`] without executing.
    Aborting,
}

/// One ingress shard's queue state: two FIFO lanes under that shard's
/// mutex (held in [`super::ingress::Ingress`]). Phase and the admission
/// sequence counter are service-global atomics, not per-shard state.
#[derive(Debug)]
pub(crate) struct Lanes<T> {
    pub(crate) interactive: VecDeque<Entry<T>>,
    pub(crate) batch: VecDeque<Entry<T>>,
}

impl<T> Lanes<T> {
    pub(crate) fn new() -> Self {
        Lanes {
            interactive: VecDeque::new(),
            batch: VecDeque::new(),
        }
    }

    /// Total queued requests across both lanes.
    pub(crate) fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Push an admitted entry into its lane.
    pub(crate) fn push(&mut self, entry: Entry<T>) {
        match entry.request.priority {
            Priority::Interactive => self.interactive.push_back(entry),
            Priority::Batch => self.batch.push_back(entry),
        }
    }

    /// The next entry a worker would take, without removing it.
    pub(crate) fn peek(&self) -> Option<&Entry<T>> {
        self.interactive.front().or_else(|| self.batch.front())
    }

    /// Dequeue in service order: all interactive work before any batch work.
    pub(crate) fn pop(&mut self) -> Option<Entry<T>> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }

    /// Drain every queued entry (shutdown paths).
    pub(crate) fn drain_all(&mut self) -> Vec<Entry<T>> {
        self.interactive
            .drain(..)
            .chain(self.batch.drain(..))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceStats;

    fn stats() -> ServiceStats {
        ServiceStats::default()
    }

    fn entry(q: &mut Lanes<i64>, seq: &mut u64, priority: Priority) -> Ticket<i64> {
        let cancel = CancelToken::new();
        let (t, resolver) = ticket::<i64>(cancel.clone());
        let seq = {
            let s = *seq;
            *seq += 1;
            s
        };
        q.push(Entry {
            request: Request::multiprefix(vec![1], vec![0], 1).priority(priority),
            cancel,
            resolver,
            seq,
            admitted_at: None,
        });
        t
    }

    #[test]
    fn ticket_resolves_exactly_once_and_wakes_waiters() {
        let s = stats();
        let (t, r) = ticket::<i64>(CancelToken::new());
        assert!(!t.is_resolved());
        assert!(t.try_result().is_none());
        assert!(t.wait_for(Duration::from_millis(1)).is_none());
        r.resolve(&s, Ok(Reply::Reduce(vec![7])));
        assert!(t.is_resolved());
        assert_eq!(t.wait(), Ok(Reply::Reduce(vec![7])));
        // Waiting again returns the same settled outcome.
        assert_eq!(t.wait(), Ok(Reply::Reduce(vec![7])));
        let m = s.metrics();
        assert_eq!((m.completed, m.errored), (1, 0));
    }

    #[test]
    fn ticket_wait_blocks_across_threads() {
        let s = Arc::new(stats());
        let (t, r) = ticket::<i64>(CancelToken::new());
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            r.resolve(&s2, Err(MpError::Cancelled));
        });
        assert_eq!(t.wait(), Err(MpError::Cancelled));
        handle.join().unwrap();
        assert_eq!(s.metrics().cancelled, 1);
    }

    #[test]
    fn error_resolutions_are_counted_by_kind() {
        let s = stats();
        for err in [
            MpError::Overloaded {
                queue_depth: 1,
                capacity: 1,
            },
            MpError::Cancelled,
            MpError::DeadlineExceeded,
            MpError::WorkerLost { worker: 0 },
            MpError::EnginePanicked,
        ] {
            let (_t, r) = ticket::<i64>(CancelToken::new());
            r.resolve(&s, Err(err));
        }
        let m = s.metrics();
        assert_eq!(m.errored, 5);
        assert_eq!(m.shed, 1);
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.expired, 1);
        assert_eq!(m.worker_lost, 1);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn service_order_is_interactive_before_batch_fifo_within_class() {
        let mut q = Lanes::<i64>::new();
        let mut next_seq = 0u64;
        let _b0 = entry(&mut q, &mut next_seq, Priority::Batch);
        let _i0 = entry(&mut q, &mut next_seq, Priority::Interactive);
        let _b1 = entry(&mut q, &mut next_seq, Priority::Batch);
        let _i1 = entry(&mut q, &mut next_seq, Priority::Interactive);
        assert_eq!(q.depth(), 4);
        let order: Vec<(Priority, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.request.priority, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (Priority::Interactive, 1),
                (Priority::Interactive, 3),
                (Priority::Batch, 0),
                (Priority::Batch, 2),
            ]
        );
    }

    #[test]
    fn ticket_cancel_flips_the_shared_token() {
        let cancel = CancelToken::new();
        let (t, _r) = ticket::<i64>(cancel.clone());
        assert!(!cancel.is_cancelled());
        t.cancel();
        assert!(cancel.is_cancelled());
    }
}
