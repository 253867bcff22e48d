//! Differential suite for the shard layer's exscan-over-summaries
//! primitive: for any problem, any contiguous span decomposition, and
//! both commutative and non-commutative operators, stitching span
//! summaries through [`exscan_over_summaries`] must reproduce the serial
//! reference bit for bit — and must keep doing so when a summary is
//! "lost" and recomputed from its span, the replay the shard recovery
//! protocol leans on. The whole sharded engine, over the channel and
//! Unix-domain-socket transports, runs the oracle harness's shard cells
//! (see `tests/oracle`).

mod oracle;

use multiprefix::op::{CombineOp, FirstLast, Plus};
use multiprefix::serial::multiprefix_serial;
use multiprefix::{exscan_over_summaries, ShardSummary};
use oracle::{fixed_shapes, Case, Invalid, Problem, Shape, BENIGN, FLOATS, PAIRS, WHOLE};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference summary of one contiguous span: distinct labels in
/// first-touch order with span-local totals — exactly what a shard
/// worker's scan phase reports.
fn span_summary<T, O>(shard: usize, values: &[T], labels: &[usize], op: O) -> ShardSummary<T>
where
    T: multiprefix::Element,
    O: CombineOp<T>,
{
    let mut touched = Vec::new();
    let mut totals: Vec<T> = Vec::new();
    let mut slot: HashMap<usize, usize> = HashMap::new();
    for (&v, &l) in values.iter().zip(labels) {
        let idx = *slot.entry(l).or_insert_with(|| {
            touched.push(l);
            totals.push(op.identity());
            touched.len() - 1
        });
        totals[idx] = op.combine(totals[idx], v);
    }
    ShardSummary {
        shard,
        touched,
        totals,
    }
}

/// Split `0..n` into `parts` contiguous spans (balanced like the
/// supervisor's span assignment) and return their boundaries.
fn span_bounds(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let chunk = n.div_ceil(parts).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push((start, end));
        start = end;
    }
    if out.is_empty() {
        out.push((0, 0));
    }
    out
}

/// Summaries → exscan: the reductions are serial's, and each span's
/// offset for a label it touches is serial's exclusive prefix at that
/// label's first element in the span — what the span's apply phase starts
/// from.
fn assert_stitching<T, O>(p: &Problem<T>, op: O, parts: usize) -> Result<(), TestCaseError>
where
    T: multiprefix::Element + PartialEq + std::fmt::Debug,
    O: CombineOp<T>,
{
    let (values, labels, m) = (&p.values[..], &p.labels[..], p.m);
    let serial = multiprefix_serial(values, labels, m, op);
    let bounds = span_bounds(values.len(), parts);
    let mut summaries: Vec<_> = bounds
        .iter()
        .enumerate()
        .map(|(k, &(s, e))| span_summary(k, &values[s..e], &labels[s..e], op))
        .collect();
    let reductions = exscan_over_summaries(&mut summaries, m, op).unwrap();
    prop_assert_eq!(reductions, serial.reductions);
    for (summary, &(start, end)) in summaries.iter().zip(&bounds) {
        for (&l, &offset) in summary.touched.iter().zip(&summary.totals) {
            let first = start + labels[start..end].iter().position(|&x| x == l).unwrap();
            prop_assert_eq!(
                offset,
                serial.sums[first],
                "span {} label {}",
                summary.shard,
                l
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exscan_stitching_matches_serial(seed: u64, parts in 1usize..9) {
        assert_stitching(&Problem::new(Shape::draw(seed), BENIGN), Plus, parts)?;
    }

    /// The order-indexed exclusive scan is what keeps the non-commutative
    /// FirstLast correct.
    #[test]
    fn exscan_stitching_is_noncommutative_safe(seed: u64, parts in 1usize..7) {
        assert_stitching(&Problem::new(Shape::draw(seed), PAIRS), FirstLast, parts)?;
    }

    /// Shard-loss replay determinism: drop one summary, recompute it from
    /// its span (as a surviving worker would), shuffle presentation
    /// order — the exscan result must be bit-identical.
    #[test]
    fn lost_summary_replay_is_bit_identical(seed: u64, parts in 2usize..9, lost_pick: u32) {
        let p = Problem::new(Shape::draw(seed), BENIGN);
        let (values, labels, m) = (&p.values, &p.labels, p.m);
        let bounds = span_bounds(values.len(), parts);
        let build = |k: usize, (s, e): (usize, usize)| span_summary(k, &values[s..e], &labels[s..e], Plus);
        let mut original: Vec<_> = bounds.iter().enumerate().map(|(k, &b)| build(k, b)).collect();
        let first_reds = exscan_over_summaries(&mut original, m, Plus).unwrap();

        // Rebuild from scratch, replacing one "lost" summary with a fresh
        // recomputation and reversing the order exscan receives them in.
        let lost = lost_pick as usize % bounds.len();
        let mut replayed: Vec<_> = bounds.iter().enumerate().map(|(k, &b)| build(k, b)).collect();
        replayed[lost] = build(lost, bounds[lost]);
        replayed.reverse();
        let second_reds = exscan_over_summaries(&mut replayed, m, Plus).unwrap();

        prop_assert_eq!(first_reds, second_reds);
        replayed.sort_by_key(|s| s.shard);
        prop_assert_eq!(original, replayed);
    }
}

/// The sharded engine over `transport`s on every fixed shape and value
/// family — every other run with a recorder — and on the invalid family.
fn sharded_matches_serial(uds: bool) {
    for (k, shape) in fixed_shapes().into_iter().enumerate() {
        let observe = k % 2 == 1;
        Case::new(shape, BENIGN, Plus).shard(uds, observe);
        Case::new(shape, PAIRS, FirstLast).shard(uds, !observe);
        Case::new(shape, FLOATS, Plus).shard(uds, observe);
        Case::new(shape, WHOLE, Plus).shard(uds, !observe);
    }
    for seed in 0..12 {
        Invalid::draw(seed).shard(uds);
    }
}

/// End-to-end: the full sharded engine (workers, exscan, apply) over the
/// channel transport.
#[test]
fn sharded_engine_matches_serial() {
    sharded_matches_serial(false);
}

/// The same over Unix-domain sockets.
#[test]
fn sharded_engine_matches_serial_over_uds() {
    sharded_matches_serial(true);
}

/// A duplicate shard index must be rejected up front, not silently
/// double-counted — the supervisor's dedup relies on this being the
/// primitive's contract.
#[test]
fn duplicate_shard_index_is_rejected() {
    let mut summaries = vec![
        span_summary(0, &[1i64, 2], &[0, 1], Plus),
        span_summary(0, &[3i64], &[0], Plus),
    ];
    let err = exscan_over_summaries(&mut summaries, 2, Plus).unwrap_err();
    assert!(matches!(err, multiprefix::MpError::InvalidConfig { .. }));
}
