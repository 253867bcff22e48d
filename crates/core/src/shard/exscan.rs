//! The exscan-over-summaries primitive: the chunked engine's phase-2
//! combine, factored out so one implementation serves both the single-node
//! engine and the sharded supervisor.
//!
//! The operation is an **exclusive** scan per touched label across ordered
//! part summaries: part `k`'s entry for label `l` is replaced by
//! `⊕(parts < k, label l)` (identity when no earlier part touched `l`),
//! and the running totals over *all* parts become the per-label
//! reductions. Because the scan is exclusive and indexed by part order it
//! is safe for non-commutative operators, and — the property the shard
//! recovery story leans on — it is *replayable*: summaries are pure
//! functions of their span, so a lost part can be recomputed anywhere and
//! re-scanned with a bit-identical result.
//!
//! Two kinds of part go through the one core (`SummaryPart`): a chunked
//! run's later chunk tables ([`crate::chunked::ChunkSpace`], label-indexed
//! or probed) and the shard workers' [`ShardSummary`]s.

use crate::chunked::{Comb, PlainComb};
use crate::error::MpError;
use crate::exec::try_filled_vec;
use crate::op::CombineOp;
use crate::problem::Element;
use crate::resilience::RunContext;

/// A part view the exscan core can walk: an ordered touched-label list and
/// the per-label values to scan in place.
pub(crate) trait SummaryPart<T> {
    /// The touched-label list, the value storage, and whether that storage
    /// is indexed by label (a direct chunk table) rather than parallel to
    /// the touched list.
    fn summary(&mut self) -> (&[usize], &mut [T], bool);
}

/// The exscan core: exclusive scan per touched label across `parts` in
/// order, in place. `running` is the `m`-sized per-label accumulator —
/// the identity everywhere, or the totals of a part that precedes all of
/// `parts` — and ends as the global reductions; each part's values end as
/// its exclusive offsets.
pub(crate) fn exscan_parts<T, C, P>(
    parts: &mut [P],
    running: &mut [T],
    comb: C,
    ctx: &RunContext,
) -> Result<(), MpError>
where
    T: Element,
    C: Comb<T>,
    P: SummaryPart<T>,
{
    let mut step = 0usize;
    for part in parts.iter_mut() {
        let (touched, vals, by_label) = part.summary();
        for (ti, &label) in touched.iter().enumerate() {
            ctx.checkpoint_every(step)?;
            step += 1;
            let v = &mut vals[if by_label { label } else { ti }];
            let offset = running[label];
            running[label] = comb.combine(offset, *v);
            *v = offset;
        }
    }
    Ok(())
}

/// One shard's combine-phase summary: the distinct labels its span
/// touched, in first-touch order, with each label's span-local total.
///
/// A summary is a pure, deterministic function of its span — recomputing a
/// lost shard's span on any surviving worker reproduces it bit for bit,
/// which is what makes the exscan step replayable under shard loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary<T> {
    /// The shard's position in span order (the exscan is order-indexed).
    pub shard: usize,
    /// Distinct labels the span touched, in first-touch order.
    pub touched: Vec<usize>,
    /// Per-label span totals, parallel to `touched`. Replaced by the
    /// label's exclusive offset when the summary goes through
    /// [`exscan_over_summaries`].
    pub totals: Vec<T>,
}

impl<T: Element> SummaryPart<T> for ShardSummary<T> {
    fn summary(&mut self) -> (&[usize], &mut [T], bool) {
        (&self.touched, &mut self.totals, false)
    }
}

/// Exclusive scan over shard summaries: sorts the summaries into shard
/// order, replaces each summary's `totals` with that shard's exclusive
/// per-label offsets, and returns the `m`-sized global reductions.
///
/// Order-indexed and exclusive, so it is correct for non-commutative
/// operators and tolerant of replay: a duplicated-then-deduplicated or
/// recomputed summary produces the same offsets. Each shard index must
/// appear exactly once.
///
/// # Errors
///
/// [`MpError::LabelOutOfRange`] when a summary names a label `≥ m`;
/// [`MpError::InvalidConfig`] when a summary's `touched`/`totals` lengths
/// disagree or a shard index repeats; [`MpError::AllocationFailed`] when
/// scratch cannot be allocated.
pub fn exscan_over_summaries<T: Element, O: CombineOp<T>>(
    summaries: &mut [ShardSummary<T>],
    m: usize,
    op: O,
) -> Result<Vec<T>, MpError> {
    summaries.sort_by_key(|s| s.shard);
    for pair in summaries.windows(2) {
        if pair[0].shard == pair[1].shard {
            return Err(MpError::InvalidConfig {
                what: "duplicate shard index in summary set",
            });
        }
    }
    for s in summaries.iter() {
        if s.touched.len() != s.totals.len() {
            return Err(MpError::InvalidConfig {
                what: "shard summary touched/totals length mismatch",
            });
        }
        for (index, &label) in s.touched.iter().enumerate() {
            if label >= m {
                return Err(MpError::LabelOutOfRange { index, label, m });
            }
        }
    }
    let comb = PlainComb(op);
    let mut reductions = try_filled_vec(comb.identity(), m)?;
    exscan_parts(summaries, &mut reductions, comb, &RunContext::new())?;
    Ok(reductions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Plus};

    #[test]
    fn offsets_and_reductions_match_hand_computation() {
        let mut summaries = vec![
            ShardSummary {
                shard: 1,
                touched: vec![0, 2],
                totals: vec![10i64, 20],
            },
            ShardSummary {
                shard: 0,
                touched: vec![2, 1],
                totals: vec![5, 7],
            },
        ];
        let red = exscan_over_summaries(&mut summaries, 3, Plus).unwrap();
        // Sorted into shard order: shard 0 first.
        assert_eq!(summaries[0].shard, 0);
        assert_eq!(summaries[0].totals, vec![0, 0]); // exclusive: nothing before
        assert_eq!(summaries[1].totals, vec![0, 5]); // label 2 saw 5 in shard 0
        assert_eq!(red, vec![10, 7, 25]);
    }

    #[test]
    fn noncommutative_offsets_preserve_shard_order() {
        let mut summaries = vec![
            ShardSummary {
                shard: 0,
                touched: vec![0],
                totals: vec![(1, 2)],
            },
            ShardSummary {
                shard: 1,
                touched: vec![0],
                totals: vec![(3, 4)],
            },
        ];
        let red = exscan_over_summaries(&mut summaries, 1, FirstLast).unwrap();
        assert_eq!(summaries[1].totals, vec![(1, 2)]);
        // first of shard 0, last of shard 1.
        assert_eq!(red, vec![(1, 4)]);
    }

    #[test]
    fn rejects_duplicates_bad_labels_and_ragged_summaries() {
        let dup = || ShardSummary {
            shard: 0,
            touched: vec![0],
            totals: vec![1i64],
        };
        assert!(matches!(
            exscan_over_summaries(&mut [dup(), dup()], 1, Plus),
            Err(MpError::InvalidConfig { .. })
        ));
        let mut bad_label = [ShardSummary {
            shard: 0,
            touched: vec![3],
            totals: vec![1i64],
        }];
        assert!(matches!(
            exscan_over_summaries(&mut bad_label, 1, Plus),
            Err(MpError::LabelOutOfRange { label: 3, m: 1, .. })
        ));
        let mut ragged = [ShardSummary {
            shard: 0,
            touched: vec![0, 1],
            totals: vec![1i64],
        }];
        assert!(matches!(
            exscan_over_summaries(&mut ragged, 2, Plus),
            Err(MpError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_summary_set_yields_identities() {
        let red = exscan_over_summaries::<i64, _>(&mut [], 4, Plus).unwrap();
        assert_eq!(red, vec![0; 4]);
    }
}
