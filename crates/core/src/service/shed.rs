//! Load shedding: who gets evicted when the queue is full and
//! higher-priority work arrives.
//!
//! The policy is deliberate and narrow:
//!
//! * a victim must be of **strictly lower priority** than the incoming
//!   request — the shedder never churns work to admit a peer (an incoming
//!   batch request against a full queue is simply refused);
//! * among candidates, the one with the **earliest deadline** goes first —
//!   under sustained overload it is the request most likely to miss its
//!   deadline anyway, so evicting it destroys the least expected value;
//!   deadline-less requests are "infinitely patient" and are only shed
//!   after every deadline-bearing candidate, oldest admission first;
//! * a shed request is **resolved**, not dropped: its ticket gets
//!   [`crate::MpError::Overloaded`] with the queue depth and capacity
//!   observed at resolution time, so the submitter can observe the shed
//!   and resubmit.
//!
//! The scan compares stored **absolute** deadline instants
//! ([`crate::resilience::Deadline::instant`]), never durations-remaining:
//! subtracting the same `now` from every candidate cannot change which
//! deadline is earliest, so a full-lane scan under a shard lock performs
//! **zero clock reads** (pinned by `full_scan_reads_the_clock_at_most_once`).
//! Across shards, [`super::ingress::Ingress::try_shed_swap`] runs the same
//! comparison once over every shard, holding all their locks, so the
//! policy is the single-queue one.

use crate::service::queue::{Entry, Lanes, Priority};
use std::time::Instant;

/// Total order over shed candidates: smallest is shed first. Earlier
/// absolute deadline first; deadline-less after every deadline-bearing
/// entry, oldest admission (`seq`) breaking ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct VictimKey {
    /// `Some(instant)` sorts before `None` via the `no_deadline` flag.
    no_deadline: bool,
    deadline: Option<Instant>,
    pub(crate) seq: u64,
}

impl VictimKey {
    fn for_entry<T>(entry: &Entry<T>) -> Self {
        let deadline = entry.request.deadline.map(|d| d.instant());
        VictimKey {
            no_deadline: deadline.is_none(),
            deadline,
            seq: entry.seq,
        }
    }
}

/// Index (into the batch lane) and sort key of the entry to evict so that
/// an `incoming` request can be admitted, or `None` if nothing may be shed
/// for it. Pure comparison of stored state: no clock is read.
pub(crate) fn pick_victim<T>(lanes: &Lanes<T>, incoming: Priority) -> Option<(usize, VictimKey)> {
    // Only interactive arrivals may shed, and only from the batch lane.
    if incoming != Priority::Interactive {
        return None;
    }
    let mut best: Option<(usize, VictimKey)> = None;
    for (i, entry) in lanes.batch.iter().enumerate() {
        let key = VictimKey::for_entry(entry);
        if best.as_ref().is_none_or(|(_, k)| key < *k) {
            best = Some((i, key));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::ctx::{clock_probe, CancelToken, Deadline};
    use crate::service::queue::{ticket, Entry, Request, Ticket};
    use std::time::Duration;

    fn push(
        q: &mut Lanes<i64>,
        next_seq: &mut u64,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Ticket<i64> {
        let cancel = CancelToken::new();
        let (t, resolver) = ticket::<i64>(cancel.clone());
        let mut request = Request::multiprefix(vec![1], vec![0], 1).priority(priority);
        if let Some(budget) = deadline {
            request = request.deadline(Deadline::after(budget));
        }
        let seq = *next_seq;
        *next_seq += 1;
        q.push(Entry {
            request,
            cancel,
            resolver,
            seq,
            admitted_at: None,
        });
        t
    }

    fn victim_index(lanes: &Lanes<i64>, incoming: Priority) -> Option<usize> {
        pick_victim(lanes, incoming).map(|(i, _)| i)
    }

    #[test]
    fn batch_arrivals_never_shed() {
        let mut q = Lanes::<i64>::new();
        let mut seq = 0;
        let _a = push(
            &mut q,
            &mut seq,
            Priority::Batch,
            Some(Duration::from_millis(1)),
        );
        assert_eq!(victim_index(&q, Priority::Batch), None);
    }

    #[test]
    fn interactive_work_is_never_a_victim() {
        let mut q = Lanes::<i64>::new();
        let mut seq = 0;
        let _a = push(
            &mut q,
            &mut seq,
            Priority::Interactive,
            Some(Duration::ZERO),
        );
        let _b = push(&mut q, &mut seq, Priority::Interactive, None);
        assert_eq!(victim_index(&q, Priority::Interactive), None);
    }

    #[test]
    fn earliest_deadline_goes_first() {
        let mut q = Lanes::<i64>::new();
        let mut seq = 0;
        let _far = push(
            &mut q,
            &mut seq,
            Priority::Batch,
            Some(Duration::from_secs(500)),
        );
        let _near = push(
            &mut q,
            &mut seq,
            Priority::Batch,
            Some(Duration::from_millis(1)),
        );
        let _none = push(&mut q, &mut seq, Priority::Batch, None);
        assert_eq!(victim_index(&q, Priority::Interactive), Some(1));
    }

    #[test]
    fn deadline_less_work_is_shed_last_oldest_first() {
        let mut q = Lanes::<i64>::new();
        let mut seq = 0;
        let _old = push(&mut q, &mut seq, Priority::Batch, None);
        let _new = push(&mut q, &mut seq, Priority::Batch, None);
        assert_eq!(victim_index(&q, Priority::Interactive), Some(0));
        let _dated = push(
            &mut q,
            &mut seq,
            Priority::Batch,
            Some(Duration::from_secs(900)),
        );
        // Any deadline at all outranks "infinitely patient".
        assert_eq!(victim_index(&q, Priority::Interactive), Some(2));
    }

    #[test]
    fn empty_batch_lane_means_no_victim() {
        let q = Lanes::<i64>::new();
        assert_eq!(victim_index(&q, Priority::Interactive), None);
    }

    #[test]
    fn full_scan_reads_the_clock_at_most_once() {
        // Regression pin: the old scan called `Deadline::remaining()` — an
        // `Instant::now()` — once per scanned entry while holding the queue
        // lock. The keyed scan compares stored absolute instants, so even a
        // long lane costs at most one clock read (in fact zero).
        let mut q = Lanes::<i64>::new();
        let mut seq = 0;
        for i in 0..256u64 {
            let budget = Duration::from_millis(500 + (i * 37) % 400);
            let dl = if i % 3 == 0 { None } else { Some(budget) };
            let _t = push(&mut q, &mut seq, Priority::Batch, dl);
        }
        let before = clock_probe::count();
        let picked = pick_victim(&q, Priority::Interactive);
        let reads = clock_probe::count() - before;
        assert!(picked.is_some());
        assert!(reads <= 1, "full-lane scan performed {reads} clock reads");
    }

    #[test]
    fn victim_key_orders_like_the_policy() {
        let now = Instant::now();
        let near = VictimKey {
            no_deadline: false,
            deadline: Some(now),
            seq: 9,
        };
        let far = VictimKey {
            no_deadline: false,
            deadline: Some(now + Duration::from_secs(5)),
            seq: 1,
        };
        let patient_old = VictimKey {
            no_deadline: true,
            deadline: None,
            seq: 0,
        };
        let patient_new = VictimKey {
            no_deadline: true,
            deadline: None,
            seq: 4,
        };
        assert!(near < far, "earlier deadline sheds first");
        assert!(far < patient_old, "any deadline outranks none");
        assert!(patient_old < patient_new, "oldest first among patient");
    }
}
