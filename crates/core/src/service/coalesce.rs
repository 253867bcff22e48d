//! Micro-batch coalescing: pack many small same-op requests into one fused
//! multiprefix call, then split the fused output back per request.
//!
//! This is the paper's §4.4 row-length economics applied to a service: the
//! engines' fixed costs (phase startup, spinetree build, chunk scheduling)
//! dominate at small `n`, so `k` requests of `n` elements each cost nearly
//! `k` full startups when run separately but only one when fused. Fusion is
//! exact, not approximate: member `i`'s labels are offset by the cumulative
//! bucket count of the members before it, so label spaces are disjoint and
//! the fused result *restricted to member `i`'s ranges* is bit-identical to
//! running member `i` alone —
//!
//! * `fused.sums[elem_range_i] == member_i.sums` (no cross-member element
//!   shares a label, so no cross-member prefix contaminates another), and
//! * `fused.reductions[label_range_i] == member_i.reductions`.
//!
//! The tests in this module and the service-level property tests hold that
//! equality against the serial (Figure 2) oracle bit-for-bit.

use crate::problem::MultiprefixOutput;
use crate::service::queue::{JobKind, Reply, Request};
use std::ops::Range;

/// The measured §4.4 sweet-spot coefficient: across the engine benchmarks
/// (`bench_report`'s row-length sweep) throughput peaks when the row
/// length sits near `0.749·√n` of the problem size — equivalently, a
/// problem of `(rows/0.749)²` elements is the smallest one that amortizes
/// the per-call fixed costs at that row length. The adaptive coalescer
/// inverts this to pick a fused-size target from the head request's size.
pub(crate) const ROW_SWEET_FACTOR: f64 = 0.749;

/// Cap on fused members per batch in adaptive mode. Higher than the static
/// default's 16: adaptive fusion only ever consumes already-queued
/// entries, so a deep backlog (exactly when fusion pays most) may drain in
/// bigger gulps without adding any latency for a shallow one.
const ADAPTIVE_MAX_REQUESTS: usize = 64;

/// Floor on the adaptive fused-element target. For very small heads the
/// `(n/0.749)²` inversion collapses toward the head's own size, but tiny
/// requests are precisely the ones whose fixed costs need amortizing —
/// so the target never drops below this (one quarter of the default
/// `max_fused_elements`).
const ADAPTIVE_MIN_FUSED: usize = 1024;

/// Tuning for the opt-in micro-batching coalescer
/// ([`super::ServiceConfig::coalesce`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Most requests fused into one call (static mode; adaptive mode
    /// derives its own member budget per dequeue).
    pub max_requests: usize,
    /// Ceiling on the fused element count (`Σ nᵢ`) in both modes.
    pub max_fused_elements: usize,
    /// Only requests with at most this many elements coalesce — larger
    /// requests already amortize the engines' fixed costs on their own.
    /// The same bound picks the requests that may run on their submitter's
    /// thread when the service is idle (see [`crate::service`]).
    pub max_request_elements: usize,
    /// §4.4 adaptive batch sizing (the default). Instead of the static
    /// `max_requests` limit, each dequeue derives its member/element
    /// budget from the observed shard depth and the measured `0.749·√n`
    /// sweet spot — fusing deeply when a backlog has formed, passing
    /// single requests through untouched when the queue is shallow. Set
    /// `false` to pin the static limits (benchmark baselines, exact-batch
    /// tests).
    pub adaptive: bool,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_requests: 16,
            // Past a few thousand elements the fixed costs are amortized
            // (§4.4: the vector loops approach their asymptotic clk/elt
            // rates); fusing bigger batches buys little and delays results.
            max_fused_elements: 4096,
            max_request_elements: 512,
            adaptive: true,
        }
    }
}

impl CoalesceConfig {
    /// May `request` participate in a fused batch at all?
    pub(crate) fn admits<T>(&self, request: &Request<T>) -> bool {
        request.values.len() <= self.max_request_elements
    }

    /// The (member, fused-element) budget for one dequeue whose head
    /// request has `head_len` elements, taken from a shard currently
    /// `shard_depth` deep (head included).
    ///
    /// Static mode returns the configured limits. Adaptive mode targets
    /// the fused size at which the head's row length sits at the measured
    /// `0.749·√n` sweet spot — `(head_len / 0.749)²` — clamped between
    /// [`ADAPTIVE_MIN_FUSED`] and `max_fused_elements`; the member budget
    /// is the observed shard depth (adaptive fusion never waits for future
    /// arrivals, so a depth-1 shard passes its head through unfused),
    /// capped at [`ADAPTIVE_MAX_REQUESTS`].
    pub(crate) fn take_budget(&self, head_len: usize, shard_depth: usize) -> (usize, usize) {
        if !self.adaptive {
            return (self.max_requests, self.max_fused_elements);
        }
        let head = head_len.max(1) as f64;
        let target = (head / ROW_SWEET_FACTOR).powi(2) as usize;
        let ceiling = self.max_fused_elements.max(1);
        let fused = target.clamp(ADAPTIVE_MIN_FUSED.min(ceiling), ceiling);
        let members = shard_depth.clamp(1, ADAPTIVE_MAX_REQUESTS);
        (members, fused)
    }
}

/// Where each member landed inside the fused problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FusedLayout {
    /// Member `i`'s slice of the fused value/label vectors.
    pub(crate) elem_ranges: Vec<Range<usize>>,
    /// Member `i`'s slice of the fused label space (its `m` buckets).
    pub(crate) label_ranges: Vec<Range<usize>>,
    /// Total fused bucket count (`Σ mᵢ`).
    pub(crate) m: usize,
}

/// Pack `requests` into one fused problem: concatenated values, labels
/// offset into disjoint per-member bucket ranges.
pub(crate) fn fuse<T: Copy>(requests: &[&Request<T>]) -> (Vec<T>, Vec<usize>, FusedLayout) {
    let total_elems: usize = requests.iter().map(|r| r.values.len()).sum();
    let mut values = Vec::with_capacity(total_elems);
    let mut labels = Vec::with_capacity(total_elems);
    let mut elem_ranges = Vec::with_capacity(requests.len());
    let mut label_ranges = Vec::with_capacity(requests.len());
    let mut m_off = 0usize;
    for request in requests {
        let elem_start = values.len();
        values.extend_from_slice(&request.values);
        labels.extend(request.labels.iter().map(|&l| l + m_off));
        elem_ranges.push(elem_start..values.len());
        label_ranges.push(m_off..m_off + request.m);
        m_off += request.m;
    }
    (
        values,
        labels,
        FusedLayout {
            elem_ranges,
            label_ranges,
            m: m_off,
        },
    )
}

/// Split a fused output back into per-member replies, honoring each
/// member's [`JobKind`].
pub(crate) fn split<T: Copy>(
    requests: &[&Request<T>],
    fused: &MultiprefixOutput<T>,
    layout: &FusedLayout,
) -> Vec<Reply<T>> {
    debug_assert_eq!(requests.len(), layout.elem_ranges.len());
    requests
        .iter()
        .zip(&layout.elem_ranges)
        .zip(&layout.label_ranges)
        .map(|((request, elems), buckets)| {
            let reductions = fused.reductions[buckets.clone()].to_vec();
            match request.kind {
                JobKind::Reduce => Reply::Reduce(reductions),
                JobKind::Prefix => Reply::Prefix(MultiprefixOutput {
                    sums: fused.sums[elems.clone()].to_vec(),
                    reductions,
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;
    use crate::serial::{multiprefix_serial, multireduce_serial};

    fn request(n: usize, m: usize, salt: u64, kind: usize) -> Request<i64> {
        let values = (0..n as u64)
            .map(|i| (i.wrapping_mul(salt | 1) % 97) as i64 - 48)
            .collect();
        let labels = (0..n as u64)
            .map(|i| (i.wrapping_mul(salt.wrapping_add(3)) % m.max(1) as u64) as usize)
            .collect();
        if kind.is_multiple_of(2) {
            Request::multiprefix(values, labels, m)
        } else {
            Request::multireduce(values, labels, m)
        }
    }

    #[test]
    fn fused_layout_is_disjoint_and_exhaustive() {
        let reqs: Vec<Request<i64>> = (0..5)
            .map(|i| request(10 + i, 3 + i, i as u64, i))
            .collect();
        let refs: Vec<&Request<i64>> = reqs.iter().collect();
        let (values, labels, layout) = fuse(&refs);
        assert_eq!(values.len(), reqs.iter().map(|r| r.len()).sum::<usize>());
        assert_eq!(labels.len(), values.len());
        assert_eq!(layout.m, reqs.iter().map(|r| r.m).sum::<usize>());
        // Every fused label lies inside its member's bucket range.
        for (i, elems) in layout.elem_ranges.iter().enumerate() {
            let buckets = &layout.label_ranges[i];
            assert_eq!(elems.len(), reqs[i].len());
            assert!(labels[elems.clone()].iter().all(|l| buckets.contains(l)));
        }
    }

    #[test]
    fn split_results_match_per_request_serial_oracle_bit_for_bit() {
        let reqs: Vec<Request<i64>> = (0..7)
            .map(|i| request(1 + 13 * i, 1 + (i * 2) % 5, 41 * i as u64 + 1, i))
            .collect();
        let refs: Vec<&Request<i64>> = reqs.iter().collect();
        let (values, labels, layout) = fuse(&refs);
        let fused = multiprefix_serial(&values, &labels, layout.m, Plus);
        let replies = split(&refs, &fused, &layout);
        for (req, reply) in reqs.iter().zip(replies) {
            match reply {
                Reply::Prefix(out) => {
                    assert_eq!(
                        out,
                        multiprefix_serial(&req.values, &req.labels, req.m, Plus)
                    );
                }
                Reply::Reduce(red) => {
                    assert_eq!(
                        red,
                        multireduce_serial(&req.values, &req.labels, req.m, Plus)
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_zero_bucket_members_fuse_cleanly() {
        let reqs = [
            Request::<i64>::multiprefix(vec![], vec![], 0),
            request(6, 2, 9, 0),
            Request::<i64>::multireduce(vec![], vec![], 3),
        ];
        let refs: Vec<&Request<i64>> = reqs.iter().collect();
        let (values, labels, layout) = fuse(&refs);
        let fused = multiprefix_serial(&values, &labels, layout.m, Plus);
        let replies = split(&refs, &fused, &layout);
        assert_eq!(
            replies[0],
            Reply::Prefix(multiprefix_serial::<i64, Plus>(&[], &[], 0, Plus))
        );
        assert_eq!(replies[2], Reply::Reduce(vec![0, 0, 0]));
    }

    #[test]
    fn admits_respects_the_size_gate() {
        let cfg = CoalesceConfig {
            max_request_elements: 4,
            ..CoalesceConfig::default()
        };
        assert!(cfg.admits(&request(4, 2, 1, 0)));
        assert!(!cfg.admits(&request(5, 2, 1, 0)));
    }

    #[test]
    fn adaptive_budget_tracks_depth_and_the_sweet_spot() {
        let cc = CoalesceConfig::default();
        // Static mode pins the configured limits regardless of depth.
        let fixed = CoalesceConfig {
            adaptive: false,
            ..cc
        };
        assert_eq!(fixed.take_budget(8, 100), (16, 4096));
        // A depth-1 shard passes its head through unfused; deeper shards
        // get a member budget equal to the depth, capped at 64.
        assert_eq!(cc.take_budget(64, 1).0, 1);
        assert_eq!(cc.take_budget(64, 9).0, 9);
        assert_eq!(cc.take_budget(64, 1000).0, 64);
        // Fused-element target: (n/0.749)² clamped into [1024, max_fused].
        assert_eq!(cc.take_budget(1, 10).1, 1024);
        assert_eq!(cc.take_budget(512, 10).1, 4096);
        let (_, mid) = cc.take_budget(48, 10);
        assert!((1024..=4096).contains(&mid), "mid-range target: {mid}");
    }
}
