//! The sharded MPMC front door: N submission shards, label-affinity
//! routing, work-stealing pops and a one-pass shed, with no global queue
//! lock on the admission or pop path.
//!
//! The queue is split into [`Ingress::shard_count`] shards, each a
//! [`Lanes`] (two-priority FIFO pair) under its own mutex. The *global*
//! facts — total depth, queued-interactive count, lifecycle phase,
//! admission sequence — live in atomics:
//!
//! * **Routing** — [`Ingress::route`] hashes the request's dominant label
//!   (a Boyer–Moore majority vote over ≤8 sampled labels, mixed with `m`)
//!   so submissions touching the same label range land on the same shard
//!   and stay FIFO relative to each other; label-less requests round-robin.
//! * **Capacity** — a single `depth` atomic bounds admissions across all
//!   shards: a submitter reserves a slot with a CAS loop *before* locking
//!   its shard, so `queued ≤ capacity` holds globally without any lock.
//! * **Work stealing** — a worker pops from its home shard (`worker mod
//!   shards`) first and scans the others in ring order, so a hot shard
//!   never idles workers. Interactive work is drained from *any* shard
//!   before batch work from the home shard (a cheap `interactive_depth`
//!   atomic gates the extra pass).
//! * **Shed** — when the queue is full and an interactive request
//!   arrives, [`Ingress::try_shed_swap`] locks every shard in index order,
//!   evicts the globally best victim (earliest stored deadline instant,
//!   oldest first — zero clock reads, see [`super::shed`]) and pushes the
//!   arrival, in one pass. The victim's slot transfers directly to the
//!   arrival, so no concurrent submitter can take it.
//! * **Phase vs. push race** — shutdown stores the phase atomic *before*
//!   draining any shard, and submitters re-check the phase *inside* their
//!   shard lock before pushing; the shard mutex orders the two, so either
//!   the drain sees the pushed entry or the submitter sees the flipped
//!   phase. No entry can be pushed into an already-drained shard.
//!
//! Wake-ups are **per shard**: each shard keeps one [`Waiters`] set per
//! direction — workers homed there wait for work, submitters routed there
//! wait for space. A notifier starts at the shard it changed and
//! ring-scans the rest ([`Ingress::wake`]), so a notification reaches a
//! sleeper wherever one exists without waking every parked thread. DESIGN
//! §6.2 records the ablation that keeps the per-shard locks, the per-shard
//! wake-ups and the affinity routing.
//!
//! The accounting invariant is untouched by all of this: entries still
//! carry their [`super::queue::Resolver`] and every resolution still flows
//! through `Resolver::resolve`, the single counting point.
//!
//! A small request that finds the front door idle ([`Ingress::is_idle`])
//! never enters it: the service runs it on the submitter's thread (see
//! [`super::pool::try_run_inline`]). The workers this module parks and
//! wakes exist only once the first queued admission has started the pool
//! ([`super::pool::start_pool`]); before that no worker is ever registered
//! as waiting, and the front door counts as idle whenever nothing is
//! queued.

use crate::resilience::ctx::Deadline;
use crate::service::coalesce::CoalesceConfig;
use crate::service::queue::{Entry, Lanes, Priority, QueuePhase, Request};
use crate::service::shed::pick_victim;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Defensive park bound for every waiter: a missed wakeup (which the
/// protocol rules out, but cheap insurance survives refactors) costs at
/// most one park interval, never a hang.
const MAX_PARK: Duration = Duration::from_millis(50);

const PHASE_ACCEPTING: u8 = 0;
const PHASE_DRAINING: u8 = 1;
const PHASE_ABORTING: u8 = 2;

fn phase_of(raw: u8) -> QueuePhase {
    match raw {
        PHASE_ACCEPTING => QueuePhase::Accepting,
        PHASE_DRAINING => QueuePhase::Draining,
        _ => QueuePhase::Aborting,
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Critical sections are pure queue manipulation; a poisoning panic can
    // only have originated outside them. Stay robust regardless.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// splitmix64 finalizer: cheap, well-mixed, dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The dominant label of a request, by Boyer–Moore majority vote over at
/// most 8 evenly spaced samples — O(1) work per request regardless of
/// length, and exact whenever one label truly dominates the sample.
fn dominant_label(labels: &[usize]) -> Option<usize> {
    let first = *labels.first()?;
    let stride = (labels.len() / 8).max(1);
    let mut candidate = first;
    let mut votes = 0i32;
    let mut idx = 0;
    while idx < labels.len() {
        let label = labels[idx];
        if votes == 0 {
            candidate = label;
            votes = 1;
        } else if label == candidate {
            votes += 1;
        } else {
            votes -= 1;
        }
        idx += stride;
    }
    Some(candidate)
}

/// Outcome of a non-shedding admission attempt.
pub(crate) enum Admit<T> {
    /// Pushed into the routed shard.
    Admitted,
    /// Queue full; the entry is handed back (the caller reads depth at
    /// whatever moment it reports, never a stale pre-scan snapshot).
    Refused { entry: Entry<T> },
    /// The service is draining or aborting.
    Stopped { entry: Entry<T> },
}

/// Outcome of a shed-and-admit attempt.
pub(crate) enum ShedSwap<T> {
    /// `victim` was evicted and the incoming entry admitted in its slot.
    Swapped { victim: Entry<T> },
    /// Nothing sheddable; the entry is handed back.
    NoVictim { entry: Entry<T> },
    /// The service is draining or aborting; nothing was evicted.
    Stopped { entry: Entry<T> },
}

/// Threads parked on one condition, and the lost-wakeup protocol they
/// share. A waiter registers in `count` under `lock`, re-checks its
/// condition, and only then parks; a notifier changes the state the
/// condition reads first, then reads `count` (every access `SeqCst`).
/// Either the notifier sees the registration, or the waiter's re-check
/// sees the new state — never neither. A notifier that finds nobody
/// registered takes no lock and makes no syscall.
#[derive(Debug, Default)]
struct Waiters {
    count: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Waiters {
    /// Register, re-check `ready`, and park for at most `park` unless it
    /// held.
    fn park_unless(&self, park: Duration, ready: impl FnOnce() -> bool) {
        let guard = lock(&self.lock);
        self.count.fetch_add(1, Ordering::SeqCst);
        if !ready() {
            let _ = self.cv.wait_timeout(guard, park);
        }
        self.count.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake up to `budget` registered sleepers; returns the budget left.
    fn wake(&self, budget: usize) -> usize {
        let waiting = self.count.load(Ordering::SeqCst);
        if waiting == 0 {
            return budget;
        }
        let _guard = lock(&self.lock);
        if budget >= waiting {
            self.cv.notify_all();
            budget - waiting
        } else {
            (0..budget).for_each(|_| self.cv.notify_one());
            0
        }
    }
}

/// Which waiters a wake-up is for.
#[derive(Clone, Copy)]
enum Wait {
    /// Workers waiting for work.
    Work,
    /// Submitters waiting for queue space.
    Space,
}

/// One ingress shard: a two-lane FIFO under its own lock, and the shard's
/// own waiters in each direction, so a notification wakes only sleepers
/// that can use it instead of every parked thread in the process.
#[derive(Debug)]
struct Shard<T> {
    lanes: Mutex<Lanes<T>>,
    /// Workers homed on this shard.
    work: Waiters,
    /// Submitters routed to this shard.
    space: Waiters,
}

impl<T> Shard<T> {
    fn waiters(&self, dir: Wait) -> &Waiters {
        match dir {
            Wait::Work => &self.work,
            Wait::Space => &self.space,
        }
    }
}

/// The sharded submission front door. See the module docs for the
/// protocol; [`super::pool::Shared`] holds one per service.
#[derive(Debug)]
pub(crate) struct Ingress<T> {
    shards: Box<[Shard<T>]>,
    capacity: usize,
    /// Global queued-entry count, bounding admission across shards. A
    /// reservation (`fetch_add` before the shard push) counts here, so the
    /// value can briefly overstate the sum of shard depths — always in the
    /// safe (conservative) direction for the capacity bound.
    depth: AtomicUsize,
    /// Queued interactive entries, gating the workers' cross-shard
    /// interactive-first pass.
    interactive_depth: AtomicUsize,
    /// Admission order, global across shards (the shed tie-breaker).
    next_seq: AtomicU64,
    /// Round-robin cursor for label-less requests.
    rr: AtomicUsize,
    phase: AtomicU8,
}

impl<T> Ingress<T> {
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        Ingress {
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    lanes: Mutex::new(Lanes::new()),
                    work: Waiters::default(),
                    space: Waiters::default(),
                })
                .collect(),
            capacity,
            depth: AtomicUsize::new(0),
            interactive_depth: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            phase: AtomicU8::new(PHASE_ACCEPTING),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total queued entries (reservations included).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    pub(crate) fn phase(&self) -> QueuePhase {
        phase_of(self.phase.load(Ordering::SeqCst))
    }

    /// Allocate the next admission sequence number.
    pub(crate) fn alloc_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Nothing queued, and either the pool has not started
    /// (`pool_started` false) or at least one worker is parked: the state
    /// in which handing a request to a worker would cost a thread start or
    /// a wake-up, and running it on the submitter's thread competes with no
    /// coalescer. A few atomic loads; a worker counts as parked from its
    /// registration in [`Ingress::next_batch`] until it wakes.
    pub(crate) fn is_idle(&self, pool_started: bool) -> bool {
        self.depth.load(Ordering::SeqCst) == 0
            && (!pool_started
                || self
                    .shards
                    .iter()
                    .any(|sh| sh.work.count.load(Ordering::SeqCst) > 0))
    }

    /// Pick the shard for `request`: dominant-label affinity when the
    /// request has labels, round-robin otherwise.
    pub(crate) fn route(&self, request: &Request<T>) -> usize {
        let s = self.shards.len();
        if s == 1 {
            return 0;
        }
        match dominant_label(&request.labels) {
            Some(label) => (mix(label as u64 ^ ((request.m as u64) << 24)) % s as u64) as usize,
            None => self.rr.fetch_add(1, Ordering::Relaxed) % s,
        }
    }

    /// Wake up to `budget` sleepers in direction `dir`, those on `shard`
    /// (the shard whose change they wait for) first, then the other shards
    /// in ring order: capacity is global, so any freed slot can serve any
    /// submitter, and any worker can steal any entry.
    fn wake(&self, dir: Wait, shard: usize, mut budget: usize) {
        let s = self.shards.len();
        for k in 0..s {
            if budget == 0 {
                return;
            }
            budget = self.shards[(shard + k) % s].waiters(dir).wake(budget);
        }
    }

    /// Wake every sleeper on every shard, in both directions (shutdown,
    /// worker death).
    pub(crate) fn wake_all(&self) {
        self.wake(Wait::Work, 0, usize::MAX);
        self.wake(Wait::Space, 0, usize::MAX);
    }

    /// Reserve one queue slot against the global capacity.
    fn reserve(&self) -> Result<(), usize> {
        let mut current = self.depth.load(Ordering::SeqCst);
        loop {
            if current >= self.capacity {
                return Err(current);
            }
            match self.depth.compare_exchange_weak(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Ok(()),
                Err(now) => current = now,
            }
        }
    }

    /// Try to admit `entry` into `shard` without shedding: reserve a slot,
    /// then push under the shard lock (re-checking the phase there — see
    /// the module docs for why that closes the push-vs-drain race).
    ///
    /// `on_admit` runs just before the push, still under the shard lock:
    /// the service bumps its `admitted` counter there, so the bump is
    /// ordered before the entry can be popped — which is what lets a
    /// metrics snapshot never observe `completed + errored > admitted`.
    pub(crate) fn try_admit(
        &self,
        shard: usize,
        entry: Entry<T>,
        on_admit: impl FnOnce(),
    ) -> Admit<T> {
        if self.reserve().is_err() {
            return match self.phase() {
                QueuePhase::Accepting => Admit::Refused { entry },
                _ => Admit::Stopped { entry },
            };
        }
        let interactive = entry.request.priority == Priority::Interactive;
        {
            let mut lanes = lock(&self.shards[shard].lanes);
            if self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING {
                drop(lanes);
                // Give the reserved slot back.
                self.depth.fetch_sub(1, Ordering::SeqCst);
                self.wake(Wait::Space, shard, 1);
                return Admit::Stopped { entry };
            }
            on_admit();
            lanes.push(entry);
        }
        if interactive {
            self.interactive_depth.fetch_add(1, Ordering::SeqCst);
        }
        self.wake(Wait::Work, shard, 1);
        Admit::Admitted
    }

    /// Evict the globally best batch victim and admit `entry` into `shard`
    /// in its slot, in one pass under every shard's lock. Only meaningful
    /// for interactive arrivals against a full queue; anything else reports
    /// [`ShedSwap::NoVictim`]. `on_admit` is as in [`Ingress::try_admit`].
    pub(crate) fn try_shed_swap(
        &self,
        shard: usize,
        entry: Entry<T>,
        on_admit: impl FnOnce(),
    ) -> ShedSwap<T> {
        if entry.request.priority != Priority::Interactive {
            return ShedSwap::NoVictim { entry };
        }
        // Every shard's lock, taken in index order. No other path holds two
        // shard locks at once (pops, pushes and drains take one at a time),
        // so this order cannot deadlock.
        let mut all: Vec<_> = self.shards.iter().map(|sh| lock(&sh.lanes)).collect();
        // Checked before anything is evicted, under the same locks a
        // drain needs: a shed that meets a stop leaves the queue as it was.
        if self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING {
            return ShedSwap::Stopped { entry };
        }
        let best = all
            .iter()
            .enumerate()
            .filter_map(|(i, lanes)| {
                pick_victim(lanes, Priority::Interactive).map(|(pos, key)| (key, i, pos))
            })
            .min();
        let Some((_, victim_shard, pos)) = best else {
            return ShedSwap::NoVictim { entry };
        };
        let victim = all[victim_shard]
            .batch
            .remove(pos)
            .expect("invariant: pick_victim returns an index in range");
        // The victim's slot transfers to `entry`: the global depth is
        // deliberately left as it is, so no concurrent submitter can take
        // the freed capacity.
        on_admit();
        all[shard].push(entry);
        drop(all);
        self.interactive_depth.fetch_add(1, Ordering::SeqCst);
        self.wake(Wait::Work, shard, 1);
        ShedSwap::Swapped { victim }
    }

    /// Park the calling submitter on its routed shard until space may
    /// exist, the service stops, or `deadline` passes. Returns `false` only
    /// when the deadline has passed with the queue still full; `true`
    /// means "re-attempt admission".
    pub(crate) fn wait_for_space(&self, shard: usize, deadline: Option<Deadline>) -> bool {
        let room = || {
            self.depth.load(Ordering::SeqCst) < self.capacity
                || self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING
        };
        let park = deadline.map_or(MAX_PARK, |d| d.remaining().min(MAX_PARK));
        if park.is_zero() {
            return room();
        }
        self.shards[shard].space.park_unless(park, room);
        true
    }

    /// Block for the next unit of work for worker `worker`: one entry, or
    /// — when `coalesce` allows — a run of small entries from the same
    /// shard fused into one batch, and whether it came from a shard other
    /// than the worker's home. `None` means the service is stopping and
    /// the worker should exit.
    pub(crate) fn next_batch(
        &self,
        worker: usize,
        coalesce: Option<&CoalesceConfig>,
    ) -> Option<(Vec<Entry<T>>, bool)> {
        let home = &self.shards[worker % self.shards.len()].work;
        loop {
            match self.phase() {
                QueuePhase::Aborting => return None,
                QueuePhase::Draining if self.depth.load(Ordering::SeqCst) == 0 => return None,
                _ => {}
            }
            if self.depth.load(Ordering::SeqCst) > 0 {
                if let Some(found) = self.scan_pop(worker, coalesce) {
                    return Some(found);
                }
                // The observed entries were reservations not yet pushed, or
                // another worker drained them: fall through to the
                // registered rescan below. Spinning here burns the
                // timeslice the reserver needs to finish its push; yielding
                // sends us behind every runnable submitter. Parking (with
                // the rescan closing the race) does neither.
            }
            // Park on the home shard. The re-check is a rescan: a pusher
            // either sees this worker registered and wakes it, or pushed
            // before the rescan, which then finds the entry.
            let mut found = None;
            home.park_unless(MAX_PARK, || {
                self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING || {
                    found = self.scan_pop(worker, coalesce);
                    found.is_some()
                }
            });
            if found.is_some() {
                return found;
            }
        }
    }

    /// One scan over the shards in ring order from the worker's home
    /// shard: an interactive-first pass across all shards (gated by the
    /// cheap `interactive_depth` test), then an any-lane pass.
    fn scan_pop(
        &self,
        worker: usize,
        coalesce: Option<&CoalesceConfig>,
    ) -> Option<(Vec<Entry<T>>, bool)> {
        let s = self.shards.len();
        let home = worker % s;
        if self.interactive_depth.load(Ordering::SeqCst) > 0 {
            for k in 0..s {
                let i = (home + k) % s;
                let mut lanes = lock(&self.shards[i].lanes);
                if !lanes.interactive.is_empty() {
                    return Some((self.take(i, &mut lanes, coalesce), i != home));
                }
            }
        }
        for k in 0..s {
            let i = (home + k) % s;
            let mut lanes = lock(&self.shards[i].lanes);
            if lanes.depth() > 0 {
                return Some((self.take(i, &mut lanes, coalesce), i != home));
            }
        }
        None
    }

    /// Take the head of `lanes` (plus a coalesced run, §4.4) and do the
    /// global bookkeeping. Called with the shard lock held; the returned
    /// batch is fully owned by the caller once the guard drops.
    fn take(
        &self,
        shard: usize,
        lanes: &mut Lanes<T>,
        coalesce: Option<&CoalesceConfig>,
    ) -> Vec<Entry<T>> {
        let shard_depth = lanes.depth();
        let first = lanes.pop().expect("invariant: shard depth > 0 under lock");
        let mut batch = vec![first];
        if let Some(cc) = coalesce {
            if cc.admits(&batch[0].request) {
                // §4.4 adaptive batch sizing: the budget is derived from
                // the head's row length, the observed shard depth, and the
                // measured 0.749·√n sweet spot (see CoalesceConfig).
                let (max_requests, max_fused) = cc.take_budget(batch[0].request.len(), shard_depth);
                let mut fused_elems = batch[0].request.len();
                while batch.len() < max_requests {
                    let Some(next) = lanes.peek() else { break };
                    if !cc.admits(&next.request) || fused_elems + next.request.len() > max_fused {
                        break;
                    }
                    fused_elems += next.request.len();
                    batch.push(lanes.pop().expect("invariant: peeked entry exists"));
                }
            }
        }
        let interactive_taken = batch
            .iter()
            .filter(|e| e.request.priority == Priority::Interactive)
            .count();
        // Atomics while holding the shard lock are fine (no second shard
        // lock is taken), and doing them here keeps depth() an
        // overestimate only on the reservation side.
        self.depth.fetch_sub(batch.len(), Ordering::SeqCst);
        if interactive_taken > 0 {
            self.interactive_depth
                .fetch_sub(interactive_taken, Ordering::SeqCst);
        }
        self.wake(Wait::Space, shard, batch.len());
        batch
    }

    /// Advance the lifecycle phase (stores the phase *before* any drain —
    /// the ordering the push-vs-drain argument rests on) and return the
    /// drained backlog when the target phase is `Aborting`.
    pub(crate) fn begin_stop(&self, graceful: bool) -> Vec<Entry<T>> {
        let mut current = self.phase.load(Ordering::SeqCst);
        loop {
            let target = match (phase_of(current), graceful) {
                (QueuePhase::Accepting, true) => PHASE_DRAINING,
                (QueuePhase::Accepting, false) | (QueuePhase::Draining, false) => PHASE_ABORTING,
                _ => break, // already stopping at least as strongly
            };
            match self
                .phase
                .compare_exchange(current, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
        let drained = if self.phase() == QueuePhase::Aborting {
            self.drain_all()
        } else {
            Vec::new()
        };
        self.wake_all();
        drained
    }

    /// Drain every queued entry across all shards (shutdown paths),
    /// keeping the global counters consistent.
    pub(crate) fn drain_all(&self) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        for sh in self.shards.iter() {
            out.extend(lock(&sh.lanes).drain_all());
        }
        if !out.is_empty() {
            let interactive = out
                .iter()
                .filter(|e| e.request.priority == Priority::Interactive)
                .count();
            self.depth.fetch_sub(out.len(), Ordering::SeqCst);
            if interactive > 0 {
                self.interactive_depth
                    .fetch_sub(interactive, Ordering::SeqCst);
            }
            self.wake(Wait::Space, 0, out.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::ctx::CancelToken;
    use crate::service::queue::{ticket, Request, Ticket};
    use crate::service::ServiceStats;

    fn make_entry(
        ing: &Ingress<i64>,
        priority: Priority,
        labels: Vec<usize>,
        m: usize,
    ) -> (Entry<i64>, Ticket<i64>) {
        let cancel = CancelToken::new();
        let (t, resolver) = ticket::<i64>(cancel.clone());
        let values = vec![1i64; labels.len()];
        let entry = Entry {
            request: Request::multiprefix(values, labels, m).priority(priority),
            cancel,
            resolver,
            seq: ing.alloc_seq(),
            admitted_at: None,
        };
        (entry, t)
    }

    fn admit(ing: &Ingress<i64>, priority: Priority, labels: Vec<usize>, m: usize) -> Ticket<i64> {
        let (entry, t) = make_entry(ing, priority, labels, m);
        let shard = ing.route(&entry.request);
        match ing.try_admit(shard, entry, || {}) {
            Admit::Admitted => t,
            _ => panic!("admission refused in test setup"),
        }
    }

    /// Admit a batch entry into `shard`, whatever its labels route to,
    /// with `deadline` from now (`None`: no deadline). Returns its `seq`.
    fn admit_batch_to(
        ing: &Ingress<i64>,
        shard: usize,
        deadline: Option<Duration>,
        tickets: &mut Vec<Ticket<i64>>,
    ) -> u64 {
        let (mut entry, t) = make_entry(ing, Priority::Batch, vec![0], 1);
        entry.request.deadline = deadline.map(Deadline::after);
        let seq = entry.seq;
        tickets.push(t);
        assert!(matches!(
            ing.try_admit(shard, entry, || {}),
            Admit::Admitted
        ));
        seq
    }

    fn cancel_all(entries: Vec<Entry<i64>>, stats: &ServiceStats) {
        for e in entries {
            e.resolver.resolve(stats, Err(crate::MpError::Cancelled));
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let ing = Ingress::<i64>::new(8, 64);
        for m in 1..20usize {
            for label in 0..20usize {
                let req = Request::<i64>::multiprefix(vec![1; 4], vec![label % m; 4], m);
                let a = ing.route(&req);
                let b = ing.route(&req);
                assert_eq!(a, b, "routing must be deterministic");
                assert!(a < 8);
            }
        }
    }

    #[test]
    fn label_less_requests_round_robin_across_shards() {
        let ing = Ingress::<i64>::new(4, 64);
        let req = Request::<i64>::multiprefix(vec![], vec![], 0);
        let shards: Vec<usize> = (0..8).map(|_| ing.route(&req)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn dominant_label_majority_vote() {
        assert_eq!(dominant_label(&[]), None);
        assert_eq!(dominant_label(&[3]), Some(3));
        assert_eq!(dominant_label(&[7, 7, 7, 2, 7]), Some(7));
        // Long input: sampled at a stride, still O(1) comparisons.
        let long: Vec<usize> = (0..10_000).map(|_| 5).collect();
        assert_eq!(dominant_label(&long), Some(5));
    }

    #[test]
    fn capacity_is_a_global_bound_across_shards() {
        let ing = Ingress::<i64>::new(4, 3);
        let stats = ServiceStats::default();
        let _t1 = admit(&ing, Priority::Batch, vec![0], 1);
        let _t2 = admit(&ing, Priority::Batch, vec![1], 2);
        let _t3 = admit(&ing, Priority::Batch, vec![2], 3);
        assert_eq!(ing.depth(), 3);
        let (entry, _t4) = make_entry(&ing, Priority::Batch, vec![3], 4);
        let shard = ing.route(&entry.request);
        match ing.try_admit(shard, entry, || {}) {
            Admit::Refused { entry } => {
                assert_eq!(ing.depth(), 3, "refusal leaves the depth untouched");
                cancel_all(vec![entry], &stats);
            }
            _ => panic!("expected refusal at capacity"),
        }
        cancel_all(ing.drain_all(), &stats);
        assert_eq!(ing.depth(), 0);
    }

    #[test]
    fn per_lane_fifo_is_preserved_within_a_shard() {
        // Same labels → same shard; pops must observe per-lane FIFO order
        // (interactive first, then batch, seq order within each lane).
        let ing = Ingress::<i64>::new(4, 64);
        let stats = ServiceStats::default();
        let mut expect_interactive = Vec::new();
        let mut expect_batch = Vec::new();
        let mut tickets = Vec::new();
        let mut shard = 0;
        for i in 0..12u64 {
            let pr = if i % 3 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let (entry, t) = make_entry(&ing, pr, vec![5, 5, 5], 7);
            tickets.push(t);
            match pr {
                Priority::Interactive => expect_interactive.push(entry.seq),
                Priority::Batch => expect_batch.push(entry.seq),
            }
            shard = ing.route(&entry.request);
            assert!(matches!(
                ing.try_admit(shard, entry, || {}),
                Admit::Admitted
            ));
        }
        let expected: Vec<u64> = expect_interactive.into_iter().chain(expect_batch).collect();
        let mut got = Vec::new();
        while let Some((batch, stolen)) = ing.scan_pop(0, None) {
            assert_eq!(
                stolen,
                shard != 0,
                "stolen exactly when off worker 0's home"
            );
            got.extend(batch.iter().map(|e| e.seq));
            cancel_all(batch, &stats);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn shed_swap_transfers_the_slot() {
        let ing = Ingress::<i64>::new(2, 2);
        let stats = ServiceStats::default();
        let _b1 = admit(&ing, Priority::Batch, vec![0], 1);
        let _b2 = admit(&ing, Priority::Batch, vec![1], 2);
        assert_eq!(ing.depth(), 2);
        let (entry, vip) = make_entry(&ing, Priority::Interactive, vec![0], 1);
        let shard = ing.route(&entry.request);
        // Full queue: plain admission refuses...
        let entry = match ing.try_admit(shard, entry, || {}) {
            Admit::Refused { entry } => {
                assert_eq!(ing.depth(), 2, "refusal leaves the depth untouched");
                entry
            }
            _ => panic!("expected refusal at capacity"),
        };
        // ...and the swap evicts the oldest batch entry while keeping the
        // global depth constant (the slot is inherited).
        match ing.try_shed_swap(shard, entry, || {}) {
            ShedSwap::Swapped { victim } => {
                assert_eq!(victim.seq, 0, "oldest deadline-less batch entry");
                assert_eq!(ing.depth(), 2, "slot transferred, not freed");
                victim.resolver.resolve(
                    &stats,
                    Err(crate::MpError::Overloaded {
                        queue_depth: ing.depth(),
                        capacity: ing.capacity(),
                    }),
                );
            }
            _ => panic!("expected a successful swap"),
        }
        drop(vip);
        cancel_all(ing.drain_all(), &stats);
    }

    #[test]
    fn shed_evicts_the_earliest_deadline_on_any_shard() {
        let ing = Ingress::<i64>::new(4, 4);
        let stats = ServiceStats::default();
        let mut tickets = Vec::new();
        admit_batch_to(&ing, 0, Some(Duration::from_secs(500)), &mut tickets);
        admit_batch_to(&ing, 1, None, &mut tickets);
        let earliest = admit_batch_to(&ing, 2, Some(Duration::from_secs(5)), &mut tickets);
        admit_batch_to(&ing, 3, Some(Duration::from_secs(60)), &mut tickets);
        assert_eq!(ing.depth(), 4);
        // The arrival lands on shard 0; the victim sits on shard 2.
        let (entry, _vip) = make_entry(&ing, Priority::Interactive, vec![0], 1);
        let vip_seq = entry.seq;
        let mut admitted = 0;
        match ing.try_shed_swap(0, entry, || admitted += 1) {
            ShedSwap::Swapped { victim } => {
                assert_eq!(victim.seq, earliest, "earliest deadline, on shard 2");
                cancel_all(vec![victim], &stats);
            }
            _ => panic!("expected a successful swap"),
        }
        assert_eq!(admitted, 1);
        assert_eq!(ing.depth(), 4, "slot transferred, not freed");
        // Worker 2 (homed on the victim's shard) takes the arrival first,
        // stolen from shard 0 by the interactive pass, then the rest.
        let (batch, stolen) = ing.scan_pop(2, None).expect("queued work");
        assert_eq!((batch[0].seq, stolen), (vip_seq, true));
        cancel_all(batch, &stats);
        let rest = ing.drain_all();
        assert!(rest.iter().all(|e| e.seq != earliest));
        assert_eq!(rest.len(), 3);
        cancel_all(rest, &stats);
    }

    #[test]
    fn shed_after_stop_evicts_nothing() {
        let ing = Ingress::<i64>::new(2, 2);
        let stats = ServiceStats::default();
        let mut tickets = Vec::new();
        admit_batch_to(&ing, 0, Some(Duration::from_secs(5)), &mut tickets);
        admit_batch_to(&ing, 1, None, &mut tickets);
        assert!(
            ing.begin_stop(true).is_empty(),
            "a graceful stop drains nothing"
        );
        let (entry, _vip) = make_entry(&ing, Priority::Interactive, vec![0], 1);
        let vip_seq = entry.seq;
        let mut admitted = 0;
        match ing.try_shed_swap(0, entry, || admitted += 1) {
            ShedSwap::Stopped { entry } => assert_eq!(entry.seq, vip_seq),
            _ => panic!("expected Stopped after begin_stop"),
        }
        assert_eq!(admitted, 0);
        assert_eq!(ing.depth(), 2, "nothing evicted, nothing freed");
        let rest = ing.drain_all();
        assert_eq!(rest.len(), 2);
        cancel_all(rest, &stats);
    }

    #[test]
    fn begin_stop_refuses_new_pushes_and_drains_on_abort() {
        let ing = Ingress::<i64>::new(2, 8);
        let stats = ServiceStats::default();
        let _t = admit(&ing, Priority::Batch, vec![0], 1);
        let drained = ing.begin_stop(false);
        assert_eq!(drained.len(), 1);
        assert_eq!(ing.depth(), 0);
        cancel_all(drained, &stats);
        let (entry, _t2) = make_entry(&ing, Priority::Batch, vec![0], 1);
        assert!(matches!(
            ing.try_admit(0, entry, || {}),
            Admit::Stopped { .. }
        ));
        // Idempotent: a second abort drains nothing.
        assert!(ing.begin_stop(false).is_empty());
    }

    #[test]
    fn workers_exit_on_abort_and_after_drain() {
        let ing = Ingress::<i64>::new(2, 8);
        ing.begin_stop(true);
        assert_eq!(ing.phase(), QueuePhase::Draining);
        assert!(ing.next_batch(0, None).is_none(), "drained + empty → exit");
        ing.begin_stop(false);
        assert!(ing.next_batch(1, None).is_none(), "aborting → exit");
    }

    #[test]
    fn stealing_serves_a_hot_shard_from_any_worker() {
        let ing = Ingress::<i64>::new(4, 64);
        let stats = ServiceStats::default();
        // All traffic lands on one shard (same labels); workers homed on
        // other shards must steal it.
        let (probe, _t0) = make_entry(&ing, Priority::Batch, vec![9, 9], 11);
        let hot = ing.route(&probe.request);
        assert!(matches!(ing.try_admit(hot, probe, || {}), Admit::Admitted));
        for _ in 0..3 {
            let _t = admit(&ing, Priority::Batch, vec![9, 9], 11);
        }
        let far_worker = hot + 1; // homed on a different shard
        let mut taken = 0;
        while let Some((batch, stolen)) = ing.scan_pop(far_worker, None) {
            assert!(stolen);
            taken += batch.len();
            cancel_all(batch, &stats);
        }
        assert_eq!(taken, 4);
    }
}
