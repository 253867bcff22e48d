//! Differential suite for the shard layer's exscan-over-summaries
//! primitive: for any problem, any contiguous span decomposition, and
//! both commutative and non-commutative operators, stitching span
//! summaries through [`exscan_over_summaries`] must reproduce the serial
//! reference bit for bit — and must keep doing so when a summary is
//! "lost" and recomputed from its span, the replay the shard recovery
//! protocol leans on. The whole sharded engine, over the channel and
//! Unix-domain-socket transports, is held to the same references on the
//! table layouts and block edges its workers' local loop reaches.

use multiprefix::op::{CombineOp, FirstLast, Plus, TryCombineOp};
use multiprefix::resilience::{RunContext, CHECK_STRIDE};
use multiprefix::serial::multiprefix_serial;
use multiprefix::shard::net::{try_multiprefix_socket_ctx, NetConfig, WireOp, WireValue};
use multiprefix::shard::try_multiprefix_sharded_ctx;
use multiprefix::{
    exscan_over_summaries, Element, ExecConfig, MultiprefixOutput, ShardConfig, ShardSummary,
};
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

/// Reconstruct the full multiprefix from exscanned summaries: each span
/// replays its local scan seeded with the span's exclusive per-label
/// offsets. This is the shard apply phase, reimplemented independently.
fn reconstruct<T, O>(
    values: &[T],
    labels: &[usize],
    bounds: &[(usize, usize)],
    summaries: &[ShardSummary<T>],
    reductions: Vec<T>,
    op: O,
) -> MultiprefixOutput<T>
where
    T: multiprefix::Element,
    O: CombineOp<T>,
{
    let mut sums = Vec::with_capacity(values.len());
    for (k, &(start, end)) in bounds.iter().enumerate() {
        let summary = summaries.iter().find(|s| s.shard == k).unwrap();
        let mut local: HashMap<usize, T> = summary
            .touched
            .iter()
            .copied()
            .zip(summary.totals.iter().copied())
            .collect();
        for i in start..end {
            let l = labels[i];
            let cur = *local.get(&l).unwrap();
            sums.push(cur);
            local.insert(l, op.combine(cur, values[i]));
        }
    }
    MultiprefixOutput { sums, reductions }
}

/// Arbitrary problems weighted toward degenerate shapes: tiny n, label
/// collapse, sparse label spaces.
fn problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    (1usize..512).prop_flat_map(|m| {
        let label = any::<u32>().prop_map(move |x| {
            let x = x as usize;
            if x.is_multiple_of(4) {
                0
            } else {
                x % m
            }
        });
        proptest::collection::vec((any::<i32>().prop_map(|v| v as i64), label), 0..300).prop_map(
            move |pairs| {
                let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
                (values, labels, m)
            },
        )
    })
}

/// Non-commutative variant: (first, last) pairs under [`FirstLast`],
/// whose result depends entirely on operand order.
fn pair_problem() -> impl Strategy<Value = (Vec<(i32, i32)>, Vec<usize>, usize)> {
    (1usize..64).prop_flat_map(|m| {
        let label = any::<u32>().prop_map(move |x| x as usize % m);
        proptest::collection::vec((any::<i32>(), label), 0..200).prop_map(move |pairs| {
            let (firsts, labels): (Vec<i32>, Vec<usize>) = pairs.into_iter().unzip();
            let values = firsts.iter().map(|&v| (v, v ^ 0x55)).collect();
            (values, labels, m)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summaries → exscan → local replay must equal the serial engine for
    /// any span decomposition (Plus, i64).
    #[test]
    fn exscan_stitching_matches_serial((values, labels, m) in problem(), parts in 1usize..9) {
        let expect = multiprefix_serial(&values, &labels, m, Plus);
        let bounds = span_bounds(values.len(), parts);
        let mut summaries: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(k, &(s, e))| span_summary(k, &values[s..e], &labels[s..e], Plus))
            .collect();
        let reductions = exscan_over_summaries(&mut summaries, m, Plus).unwrap();
        let got = reconstruct(&values, &labels, &bounds, &summaries, reductions, Plus);
        prop_assert_eq!(got, expect);
    }

    /// Same stitching property under a non-commutative operator: the
    /// order-indexed exclusive scan is what keeps FirstLast correct.
    #[test]
    fn exscan_stitching_is_noncommutative_safe((values, labels, m) in pair_problem(), parts in 1usize..7) {
        let expect = multiprefix_serial(&values, &labels, m, FirstLast);
        let bounds = span_bounds(values.len(), parts);
        let mut summaries: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(k, &(s, e))| span_summary(k, &values[s..e], &labels[s..e], FirstLast))
            .collect();
        let reductions = exscan_over_summaries(&mut summaries, m, FirstLast).unwrap();
        let got = reconstruct(&values, &labels, &bounds, &summaries, reductions, FirstLast);
        prop_assert_eq!(got, expect);
    }

    /// Shard-loss replay determinism: drop one summary, recompute it from
    /// its span (as a surviving worker would), shuffle presentation
    /// order — the exscan result must be bit-identical.
    #[test]
    fn lost_summary_replay_is_bit_identical(
        (values, labels, m) in problem(),
        parts in 2usize..9,
        lost_pick in any::<u32>(),
    ) {
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

    /// End-to-end differential: the full sharded engine (workers, exscan,
    /// apply) against its references across shard counts, over the channel
    /// transport ([`check_all_ops`]).
    #[test]
    fn sharded_engine_matches_serial((values, labels, m) in shard_problem(), shards in 1usize..6) {
        check_all_ops(&values, &labels, m, shards, false)?;
    }
}

/// The same differential over Unix-domain sockets too, on a fixed handful
/// of the generator's shapes: a single label across block edges, a few
/// labels on ragged spans, and a label space far beyond any span.
#[test]
fn sharded_engine_matches_serial_over_uds() {
    let shapes = [
        (2 * CHECK_STRIDE + 3, 1, 2),
        (CHECK_STRIDE + 17, 1, 3),
        (3 * CHECK_STRIDE - 5, 7, 4),
        (5_001, 600_000, 3),
        (1, 5, 4),
    ];
    for (n, m, shards) in shapes {
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 7_919) % 2_001 - 1_000).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 104_729 + i / 3) % m).collect();
        check_all_ops(&values, &labels, m, shards, true).unwrap();
    }
}

/// Shapes for the sharded engine: one label (the single-label kernels,
/// where an `Apply` task's carry is its seeded offset), up to 63 labels
/// (label-indexed tables), or a label space far beyond any span (probed
/// tables); lengths up to three `CHECK_STRIDE` blocks, so most spans end
/// inside a block.
fn shard_problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    let m =
        (0u8..3, 2usize..64, 100_000usize..1_000_000).prop_map(|(kind, few, many)| match kind {
            0 => 1,
            1 => few,
            _ => many,
        });
    (m, 0usize..3 * CHECK_STRIDE).prop_flat_map(|(m, n)| {
        let label = any::<u32>().prop_map(move |x| {
            let x = x as usize;
            if x.is_multiple_of(4) {
                0
            } else {
                x % m
            }
        });
        proptest::collection::vec((any::<i32>().prop_map(i64::from), label), n).prop_map(
            move |pairs| {
                let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
                (values, labels, m)
            },
        )
    })
}

/// The sharded engine on `values` and operands derived from them:
///
/// * i64 `Plus` and the non-commutative `FirstLast` must equal
///   `multiprefix_serial` bit for bit;
/// * so must f64 `Plus` on whole numbers, whose sums are exact (f64 has no
///   vector kernel, so `m == 1` runs the scalar loop);
/// * f64 `Plus` on values whose sums round cannot: the engine folds each
///   span from the identity and combines the span totals, a grouping
///   serial does not share. There it must equal that grouping's
///   reference ([`span_grouped`]) bit for bit.
fn check_all_ops(
    values: &[i64],
    labels: &[usize],
    m: usize,
    shards: usize,
    uds: bool,
) -> Result<(), TestCaseError> {
    let run = (shards, uds);
    let expect = multiprefix_serial(values, labels, m, Plus);
    sharded_matches(values, labels, m, Plus, expect, run, |v| *v)?;
    let whole: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let expect = multiprefix_serial(&whole, labels, m, Plus);
    sharded_matches(&whole, labels, m, Plus, expect, run, |v| v.to_bits())?;
    let rounding: Vec<f64> = values.iter().map(|&v| v as f64 * 1e-3).collect();
    let expect = span_grouped(&rounding, labels, m, Plus, shards);
    sharded_matches(&rounding, labels, m, Plus, expect, run, |v| v.to_bits())?;
    let pairs: Vec<(i32, i32)> = values
        .iter()
        .map(|&v| (v as i32, v as i32 ^ 0x55))
        .collect();
    let expect = multiprefix_serial(&pairs, labels, m, FirstLast);
    sharded_matches(&pairs, labels, m, FirstLast, expect, run, |v| *v)
}

/// What the sharded engine computes on `shards` spans: each span's totals
/// folded from the identity, exscanned in span order, then each span
/// replayed from its offsets.
fn span_grouped<T, O>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    shards: usize,
) -> MultiprefixOutput<T>
where
    T: Element,
    O: CombineOp<T>,
{
    let bounds = span_bounds(values.len(), shards);
    let mut summaries: Vec<_> = bounds
        .iter()
        .enumerate()
        .map(|(k, &(s, e))| span_summary(k, &values[s..e], &labels[s..e], op))
        .collect();
    let reductions = exscan_over_summaries(&mut summaries, m, op).unwrap();
    reconstruct(values, labels, &bounds, &summaries, reductions, op)
}

/// The sharded engine over the channel transport, and over UDS when `uds`
/// is set, must each equal `expect` bit for bit (`bits` maps an element to
/// comparable bits).
fn sharded_matches<T, O, K>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    expect: MultiprefixOutput<T>,
    (shards, uds): (usize, bool),
    bits: impl Fn(&T) -> K,
) -> Result<(), TestCaseError>
where
    T: Element + WireValue,
    O: TryCombineOp<T> + WireOp,
    K: PartialEq + std::fmt::Debug,
{
    let key = |out: MultiprefixOutput<T>| {
        let bits = |v: &[T]| v.iter().map(&bits).collect::<Vec<K>>();
        (bits(&out.sums), bits(&out.reductions))
    };
    let expect = key(expect);
    let (cfg, ctx) = (ShardConfig::default().shards(shards), RunContext::new());
    let channel =
        try_multiprefix_sharded_ctx(values, labels, m, op, ExecConfig::default(), &cfg, &ctx)
            .unwrap()
            .expect("Wrap never trips");
    prop_assert_eq!(key(channel), expect, "channel, {} shards", shards);
    if uds {
        let got = try_multiprefix_socket_ctx(values, labels, m, op, &cfg, &NetConfig::uds(), &ctx);
        prop_assert_eq!(key(got.unwrap()), expect, "uds, {} shards", shards);
    }
    Ok(())
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
