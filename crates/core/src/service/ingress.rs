//! The sharded MPMC front door: N submission shards, label-affinity
//! routing, work-stealing pops, and a two-phase shed protocol — no global
//! queue lock anywhere on the hot path.
//!
//! The old ingress was one `Mutex<QueueState>` plus one condvar pair; at
//! 64+ submitter threads the lock convoy dominated before any engine ran.
//! This module splits the queue into [`Ingress::shard_count`] shards, each
//! a [`Lanes`] (two-priority FIFO pair) under its own mutex, and keeps the
//! *global* facts — total depth, queued-interactive count, lifecycle
//! phase, admission sequence — in atomics:
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
//! * **Two-phase shed** — when the queue is full and an interactive
//!   request arrives, phase 1 scans the shards lock-by-lock for the
//!   globally best victim key (earliest stored deadline instant, oldest
//!   first — zero clock reads, see [`super::shed`]); phase 2 re-locks the
//!   winning shard and removes the victim by `seq`, re-scanning if a
//!   worker raced it away. The victim's reserved slot transfers directly
//!   to the incoming request, so no concurrent submitter can steal it.
//! * **Phase vs. push race** — shutdown stores the phase atomic *before*
//!   draining any shard, and submitters re-check the phase *inside* their
//!   shard lock before pushing; the shard mutex orders the two, so either
//!   the drain sees the pushed entry or the submitter sees the flipped
//!   phase. No entry can be pushed into an already-drained shard.
//!
//! Wakeups are **per shard**: each shard owns a sleep mutex + condvar pair
//! per direction (workers wait for work homed on their shard, submitters
//! wait for space homed on theirs), guarded by per-shard waiter counters so
//! the uncontended path performs no syscalls. A notifier prefers its own
//! shard's sleepers and falls back to scanning the others, so every
//! notification wakes at least one waiter whenever one exists anywhere —
//! but a busy shard's traffic never thunders the whole fleet awake the way
//! the old global condvar pair did. The waiter re-checks the (global)
//! condition *after* registering itself (both sides are SeqCst), which
//! rules out the lost-wakeup interleaving without putting either atomic
//! under a lock.
//!
//! The accounting invariant is untouched by all of this: entries still
//! carry their [`super::queue::Resolver`] and every resolution still flows
//! through `Resolver::resolve`, the single counting point.
//!
//! A small request that finds the front door idle ([`Ingress::is_idle`])
//! never enters it: the service runs it on the submitter's thread (see
//! [`super::pool::try_run_inline`]). The workers this module parks and
//! wakes exist only once the first queued admission has started the pool
//! ([`super::pool::start_pool`]); before that, every shard's
//! `idle_workers` counter reads 0 and the front door counts as idle
//! whenever nothing is queued.

use crate::resilience::ctx::Deadline;
use crate::service::coalesce::CoalesceConfig;
use crate::service::queue::{Entry, Lanes, Priority, QueuePhase, Request};
use crate::service::shed::{pick_victim, VictimKey};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Defensive park bound for both condvars: a missed wakeup (which the
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
    /// Pushed; `shard_depth` is the shard's depth just after the push (for
    /// the per-shard gauge — emitted by the caller, outside every lock).
    Admitted { shard: usize, shard_depth: usize },
    /// Queue full; the entry is handed back (the caller reads depth at
    /// whatever moment it reports, never a stale pre-scan snapshot).
    Refused { entry: Entry<T> },
    /// The service is draining or aborting.
    Stopped { entry: Entry<T> },
}

/// Outcome of a two-phase shed-and-admit attempt.
pub(crate) enum ShedSwap<T> {
    /// `victim` was evicted and the incoming entry admitted in its slot.
    Swapped {
        victim: Entry<T>,
        shard: usize,
        shard_depth: usize,
        victim_shard: usize,
        victim_shard_depth: usize,
    },
    /// Nothing sheddable (or the scan was contended away); entry returned.
    NoVictim { entry: Entry<T> },
    /// The service stopped between eviction and re-admission: the victim
    /// (if one was already removed) and the entry are both handed back.
    Stopped {
        victim: Option<Entry<T>>,
        entry: Entry<T>,
    },
}

/// What a worker dequeued, and from where.
pub(crate) struct BatchMeta {
    pub(crate) shard: usize,
    /// True when the batch came from a non-home shard.
    pub(crate) stolen: bool,
    /// The shard's depth just after the take (per-shard gauge).
    pub(crate) shard_depth: usize,
}

/// One ingress shard: a two-lane FIFO under its own lock, plus the
/// shard's own condvar pair (workers homed here park on `work`,
/// submitters routed here park on `space`). Keeping the sleep state per
/// shard means a notification wakes only the sleepers that can actually
/// use it instead of thundering every parked thread in the process.
#[derive(Debug)]
struct Shard<T> {
    lanes: Mutex<Lanes<T>>,
    /// Workers registered as sleeping on this shard's `work` condvar.
    idle_workers: AtomicUsize,
    sleep_lock: Mutex<()>,
    work: Condvar,
    /// Submitters registered as sleeping on this shard's `space` condvar.
    space_waiters: AtomicUsize,
    space_lock: Mutex<()>,
    space: Condvar,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Shard {
            lanes: Mutex::new(Lanes::new()),
            idle_workers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            work: Condvar::new(),
            space_waiters: AtomicUsize::new(0),
            space_lock: Mutex::new(()),
            space: Condvar::new(),
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
    /// Precomputed per-shard gauge names (`service.queue.shard.N.depth`),
    /// so gauge emission allocates nothing.
    gauge_names: Box<[String]>,
}

impl<T> Ingress<T> {
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        Ingress {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            capacity,
            depth: AtomicUsize::new(0),
            interactive_depth: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            phase: AtomicU8::new(PHASE_ACCEPTING),
            gauge_names: (0..shards)
                .map(|i| format!("service.queue.shard.{i}.depth"))
                .collect(),
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

    /// The per-shard depth gauge name for `shard`.
    pub(crate) fn shard_gauge_name(&self, shard: usize) -> &str {
        &self.gauge_names[shard]
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
                    .any(|sh| sh.idle_workers.load(Ordering::SeqCst) > 0))
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

    /// Wake one idle worker, preferring those homed on `shard` (the shard
    /// that just gained work) and falling back to a ring scan so the
    /// notification is never dropped while any worker anywhere sleeps.
    fn notify_work(&self, shard: usize) {
        let s = self.shards.len();
        for k in 0..s {
            let sh = &self.shards[(shard + k) % s];
            if sh.idle_workers.load(Ordering::SeqCst) > 0 {
                let _guard = lock(&sh.sleep_lock);
                sh.work.notify_one();
                return;
            }
        }
    }

    /// Wake up to `freed` parked submitters, preferring the ones parked on
    /// `shard` (the shard whose pop freed the slots) and ring-scanning the
    /// rest — capacity is global, so any release can satisfy any waiter,
    /// but a targeted wake avoids the notify-all herd the old global
    /// condvar paid on every release.
    fn notify_space(&self, shard: usize, freed: usize) {
        if freed == 0 {
            return;
        }
        let s = self.shards.len();
        let mut budget = freed;
        for k in 0..s {
            let sh = &self.shards[(shard + k) % s];
            let waiting = sh.space_waiters.load(Ordering::SeqCst);
            if waiting == 0 {
                continue;
            }
            let _guard = lock(&sh.space_lock);
            if budget >= waiting {
                sh.space.notify_all();
                budget -= waiting;
            } else {
                for _ in 0..budget {
                    sh.space.notify_one();
                }
                budget = 0;
            }
            if budget == 0 {
                return;
            }
        }
    }

    /// Wake every sleeper on every shard's condvars (shutdown, worker
    /// death).
    pub(crate) fn wake_all(&self) {
        for sh in self.shards.iter() {
            {
                let _guard = lock(&sh.sleep_lock);
                sh.work.notify_all();
            }
            let _guard = lock(&sh.space_lock);
            sh.space.notify_all();
        }
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

    /// Give a reserved (or inherited) slot back. `shard` is the shard the
    /// slot was destined for, used only as the wakeup starting point.
    fn release_slot(&self, shard: usize) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
        self.notify_space(shard, 1);
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
        let shard_depth = {
            let mut lanes = lock(&self.shards[shard].lanes);
            if self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING {
                drop(lanes);
                self.release_slot(shard);
                return Admit::Stopped { entry };
            }
            on_admit();
            lanes.push(entry);
            lanes.depth()
        };
        if interactive {
            self.interactive_depth.fetch_add(1, Ordering::SeqCst);
        }
        self.notify_work(shard);
        Admit::Admitted { shard, shard_depth }
    }

    /// Two-phase shed: evict the globally best batch victim and admit
    /// `entry` in its slot. Only meaningful for interactive arrivals
    /// against a full queue; anything else reports [`ShedSwap::NoVictim`].
    /// `on_admit` is as in [`Ingress::try_admit`].
    pub(crate) fn try_shed_swap(
        &self,
        shard: usize,
        entry: Entry<T>,
        mut on_admit: impl FnMut(),
    ) -> ShedSwap<T> {
        if entry.request.priority != Priority::Interactive {
            return ShedSwap::NoVictim { entry };
        }
        // Bounded retries: a candidate can be raced away by a worker or a
        // concurrent shedder; if that keeps happening the backlog is
        // moving, and the caller's admission loop will get another turn.
        for _ in 0..(2 * self.shards.len()).max(4) {
            // Phase 1: find the globally best victim key, one shard lock
            // at a time (zero clock reads — keys are stored instants).
            let mut best: Option<(usize, VictimKey)> = None;
            for (i, sh) in self.shards.iter().enumerate() {
                let lanes = lock(&sh.lanes);
                if let Some((_, key)) = pick_victim(&lanes, Priority::Interactive) {
                    if best.as_ref().is_none_or(|(_, k)| key < *k) {
                        best = Some((i, key));
                    }
                }
            }
            let Some((victim_shard, key)) = best else {
                return ShedSwap::NoVictim { entry };
            };
            // Phase 2: re-lock the winner and remove the victim by seq.
            let (victim, victim_shard_depth) = {
                let mut lanes = lock(&self.shards[victim_shard].lanes);
                match lanes.batch.iter().position(|e| e.seq == key.seq) {
                    Some(pos) => {
                        let victim = lanes
                            .batch
                            .remove(pos)
                            .expect("invariant: position() index is in range");
                        (victim, lanes.depth())
                    }
                    None => continue, // raced away; rescan
                }
            };
            // The victim's slot transfers to `entry`: the global depth is
            // deliberately not decremented, so no concurrent submitter can
            // take the freed capacity between eviction and re-admission.
            let shard_depth = {
                let mut lanes = lock(&self.shards[shard].lanes);
                if self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING {
                    drop(lanes);
                    self.release_slot(shard);
                    return ShedSwap::Stopped {
                        victim: Some(victim),
                        entry,
                    };
                }
                on_admit();
                lanes.push(entry);
                lanes.depth()
            };
            self.interactive_depth.fetch_add(1, Ordering::SeqCst);
            self.notify_work(shard);
            return ShedSwap::Swapped {
                victim,
                shard,
                shard_depth,
                victim_shard,
                victim_shard_depth,
            };
        }
        ShedSwap::NoVictim { entry }
    }

    /// Park the calling submitter on its routed shard's `space` condvar
    /// until space may exist (or `deadline` passes). Returns `false` only
    /// on a deadline expiry observed here; `true` means "re-attempt
    /// admission".
    pub(crate) fn wait_for_space(&self, shard: usize, deadline: Option<Deadline>) -> bool {
        let sh = &self.shards[shard];
        let guard = lock(&sh.space_lock);
        sh.space_waiters.fetch_add(1, Ordering::SeqCst);
        // Re-check after registering: pairs with notify_space()'s waiter
        // scan, closing the lost-wakeup window (the releaser decrements the
        // global depth before scanning the per-shard counters, so either it
        // sees us registered or we see its freed slot here).
        if self.depth.load(Ordering::SeqCst) < self.capacity
            || self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING
        {
            sh.space_waiters.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        let park = match deadline {
            Some(d) => {
                let left = d.remaining();
                if left.is_zero() {
                    sh.space_waiters.fetch_sub(1, Ordering::SeqCst);
                    return false;
                }
                left.min(MAX_PARK)
            }
            None => MAX_PARK,
        };
        let _ = sh.space.wait_timeout(guard, park);
        sh.space_waiters.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Block for the next unit of work for worker `worker`: one entry, or
    /// — when `coalesce` allows — a run of small entries from the same
    /// shard fused into one batch. `None` means the service is stopping
    /// and the worker should exit.
    pub(crate) fn next_batch(
        &self,
        worker: usize,
        coalesce: Option<&CoalesceConfig>,
    ) -> Option<(Vec<Entry<T>>, BatchMeta)> {
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
            // Sleep path: park on the home shard's condvar. Register as
            // idle *before* rescanning, so a pusher either sees us idle
            // (its ring scan finds this shard's counter and notifies) or
            // pushed before the rescan (and the rescan finds the entry) —
            // never neither.
            let home = &self.shards[worker % self.shards.len()];
            let guard = lock(&home.sleep_lock);
            home.idle_workers.fetch_add(1, Ordering::SeqCst);
            if self.phase.load(Ordering::SeqCst) != PHASE_ACCEPTING {
                home.idle_workers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if let Some(found) = self.scan_pop(worker, coalesce) {
                home.idle_workers.fetch_sub(1, Ordering::SeqCst);
                return Some(found);
            }
            let _ = home.work.wait_timeout(guard, MAX_PARK);
            home.idle_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One scan over the shards in ring order from the worker's home
    /// shard: an interactive-first pass across all shards (gated by the
    /// cheap `interactive_depth` test), then an any-lane pass.
    fn scan_pop(
        &self,
        worker: usize,
        coalesce: Option<&CoalesceConfig>,
    ) -> Option<(Vec<Entry<T>>, BatchMeta)> {
        let s = self.shards.len();
        let home = worker % s;
        if self.interactive_depth.load(Ordering::SeqCst) > 0 {
            for k in 0..s {
                let i = (home + k) % s;
                let mut lanes = lock(&self.shards[i].lanes);
                if !lanes.interactive.is_empty() {
                    return Some(self.finish_take(i, home, &mut lanes, coalesce));
                }
            }
        }
        for k in 0..s {
            let i = (home + k) % s;
            let mut lanes = lock(&self.shards[i].lanes);
            if lanes.depth() > 0 {
                return Some(self.finish_take(i, home, &mut lanes, coalesce));
            }
        }
        None
    }

    /// Take the head of `lanes` (plus a coalesced run, §4.4) and do the
    /// global bookkeeping. Called with the shard lock held; the returned
    /// batch is fully owned by the caller once the guard drops.
    fn finish_take(
        &self,
        shard: usize,
        home: usize,
        lanes: &mut Lanes<T>,
        coalesce: Option<&CoalesceConfig>,
    ) -> (Vec<Entry<T>>, BatchMeta) {
        let shard_depth_before = lanes.depth();
        let first = lanes.pop().expect("invariant: shard depth > 0 under lock");
        let mut batch = vec![first];
        if let Some(cc) = coalesce {
            if cc.admits(&batch[0].request) {
                // §4.4 adaptive batch sizing: the budget is derived from
                // the head's row length, the observed shard depth, and the
                // measured 0.749·√n sweet spot (see CoalesceConfig).
                let (max_requests, max_fused) =
                    cc.take_budget(batch[0].request.len(), shard_depth_before);
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
        let shard_depth = lanes.depth();
        let interactive_taken = batch
            .iter()
            .filter(|e| e.request.priority == Priority::Interactive)
            .count();
        // Atomics while holding the shard lock are fine (no second lock is
        // taken), and doing them here keeps depth() an overestimate only
        // on the reservation side.
        self.depth.fetch_sub(batch.len(), Ordering::SeqCst);
        if interactive_taken > 0 {
            self.interactive_depth
                .fetch_sub(interactive_taken, Ordering::SeqCst);
        }
        self.notify_space(shard, batch.len());
        (
            batch,
            BatchMeta {
                shard,
                stolen: shard != home,
                shard_depth,
            },
        )
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
            self.notify_space(0, out.len());
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
            Admit::Admitted { .. } => t,
            _ => panic!("admission refused in test setup"),
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
                entry
                    .resolver
                    .resolve(&stats, Err(crate::MpError::Cancelled));
            }
            _ => panic!("expected refusal at capacity"),
        }
        for e in ing.drain_all() {
            e.resolver.resolve(&stats, Err(crate::MpError::Cancelled));
        }
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
            let shard = ing.route(&entry.request);
            assert!(matches!(
                ing.try_admit(shard, entry, || {}),
                Admit::Admitted { .. }
            ));
        }
        let expected: Vec<u64> = expect_interactive.into_iter().chain(expect_batch).collect();
        let mut got = Vec::new();
        while let Some(found) = ing.scan_pop(0, None) {
            let (batch, meta) = found;
            assert!(!meta.stolen || meta.shard != 0);
            for e in batch {
                got.push(e.seq);
                e.resolver.resolve(&stats, Err(crate::MpError::Cancelled));
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn shed_swap_transfers_the_slot_and_reports_fresh_depths() {
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
        // ...and the two-phase swap evicts the oldest batch entry while
        // keeping the global depth constant (the slot is inherited).
        match ing.try_shed_swap(shard, entry, || {}) {
            ShedSwap::Swapped { victim, .. } => {
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
        for e in ing.drain_all() {
            e.resolver.resolve(&stats, Err(crate::MpError::Cancelled));
        }
    }

    #[test]
    fn begin_stop_refuses_new_pushes_and_drains_on_abort() {
        let ing = Ingress::<i64>::new(2, 8);
        let stats = ServiceStats::default();
        let _t = admit(&ing, Priority::Batch, vec![0], 1);
        let drained = ing.begin_stop(false);
        assert_eq!(drained.len(), 1);
        assert_eq!(ing.depth(), 0);
        for e in drained {
            e.resolver.resolve(&stats, Err(crate::MpError::Cancelled));
        }
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
        assert!(matches!(
            ing.try_admit(hot, probe, || {}),
            Admit::Admitted { .. }
        ));
        for _ in 0..3 {
            let _t = admit(&ing, Priority::Batch, vec![9, 9], 11);
        }
        let far_worker = hot + 1; // homed on a different shard
        let mut taken = 0;
        while let Some((batch, meta)) = ing.scan_pop(far_worker, None) {
            assert_eq!(meta.shard, hot);
            assert!(meta.stolen);
            for e in batch {
                taken += 1;
                e.resolver.resolve(&stats, Err(crate::MpError::Cancelled));
            }
        }
        assert_eq!(taken, 4);
    }
}
