//! The serial reference algorithm (Figure 2 of the paper).
//!
//! ```text
//! SERIAL-MULTIPREFIX:
//! for (i = 1 to n) {
//!     multi[i] = buckets[label[i]];
//!     buckets[label[i]] += value[i];
//! }
//! ```
//!
//! "This loop is similar to the main procedure of a bucket sort, or a
//! general histogramming operation for integer keys, except that those
//! procedures do not save the value of the bucket before incrementing it."
//!
//! This module is the semantic oracle for the whole crate: every parallel
//! engine's output is tested for equality against it. Its three entries
//! check their input as they go — each label just before the loop indexes
//! its bucket, the lengths after the loop (a length test ahead of it made
//! the compiled Figure 2 loop slower) — so a bad input is the error
//! [`crate::validate`] reports: returned by the hardened entry, named in
//! the panic of the plain ones.

use crate::api::Engine;
use crate::chunked::expect_plain;
use crate::error::MpError;
use crate::exec::{try_filled_vec, OverflowPolicy};
use crate::op::{CombineOp, TryCombineOp};
use crate::problem::{input_error, validate_lengths, Element, MultiprefixOutput};
use crate::resilience::RunContext;

/// Compute the multiprefix of `values` under `labels` serially.
///
/// Work: `O(n + m)` — the paper's "modified initialization" (§4) clears the
/// `m` buckets directly rather than indirectly through the elements, which
/// in practice is faster whenever `m ≤ n` and is what `vec![identity; m]`
/// does here.
///
/// # Panics
///
/// If `values` and `labels` differ in length, or on a label `>= m`: the
/// message names the engine and the error [`crate::validate`] reports.
/// The same holds for [`multireduce_serial`].
pub fn multiprefix_serial<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> MultiprefixOutput<T> {
    let mut buckets = vec![op.identity(); m];
    let mut sums = Vec::with_capacity(values.len());
    for (&value, &label) in values.iter().zip(labels) {
        if label >= m {
            expect_plain(Engine::Serial, Err(input_error(values.len(), labels, m)))
        }
        // SAFETY of order: the bucket currently holds the ⊕ of all earlier
        // same-label values, left-to-right; appending `value` on the right
        // keeps vector order, so non-commutative operators are handled.
        sums.push(buckets[label]);
        buckets[label] = op.combine(buckets[label], value);
    }
    expect_plain(Engine::Serial, validate_lengths(values.len(), labels.len()));
    MultiprefixOutput {
        sums,
        reductions: buckets,
    }
}

/// Serial multireduce: only the per-label reductions (§4.2 of the paper).
///
/// The full multiprefix stores one intermediate per element; multireduce is
/// the histogram-style variant that skips them.
pub fn multireduce_serial<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> Vec<T> {
    let mut buckets = vec![op.identity(); m];
    for (&value, &label) in values.iter().zip(labels) {
        if label >= m {
            expect_plain(Engine::Serial, Err(input_error(values.len(), labels, m)))
        }
        buckets[label] = op.combine(buckets[label], value);
    }
    expect_plain(Engine::Serial, validate_lengths(values.len(), labels.len()));
    buckets
}

/// The hardened serial multiprefix: Figure 2 under an explicit
/// [`OverflowPolicy`] and a [`RunContext`], with fallible allocation.
///
/// This function *defines* the `Checked`/`Saturating` semantics for the
/// whole crate (see [`crate::exec`]): under `Checked`, the reported
/// [`MpError::ArithmeticOverflow::index`] is the position of the first
/// element whose left-to-right bucket combine overflows, and every parallel
/// engine canonicalizes to this result.
///
/// Unequal lengths and a label `>= m` return the error
/// [`crate::validate`] reports — unless the run stops first, at a
/// `Checked` overflow or a context stop, as with every engine (the API
/// reports `validate`'s error whatever stops the run). The loop polls the
/// context's deadline/cancellation (and, in tests, chaos injection) at
/// entry and every [`crate::resilience::CHECK_STRIDE`] elements. An
/// interrupted run returns the typed error with no partial output
/// escaping.
pub fn try_multiprefix_serial_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<T>, MpError> {
    ctx.checkpoint()?;
    let _span = ctx.phase_span(crate::obs::Phase::Figure2);
    let mut buckets = try_filled_vec(op.identity(), m)?;
    let mut sums: Vec<T> = Vec::new();
    sums.try_reserve_exact(values.len())
        .map_err(|_| MpError::AllocationFailed {
            bytes: values.len().saturating_mul(std::mem::size_of::<T>()),
        })?;
    for (i, (&value, &label)) in values.iter().zip(labels).enumerate() {
        ctx.checkpoint_every(i)?;
        if label >= m {
            return Err(input_error(values.len(), labels, m));
        }
        sums.push(buckets[label]);
        buckets[label] = match policy {
            OverflowPolicy::Wrap => op.combine(buckets[label], value),
            OverflowPolicy::Checked => op
                .checked_combine(buckets[label], value)
                .ok_or(MpError::ArithmeticOverflow { index: i })?,
            OverflowPolicy::Saturating => op.saturating_combine(buckets[label], value),
        };
    }
    validate_lengths(values.len(), labels.len())?;
    Ok(MultiprefixOutput {
        sums,
        reductions: buckets,
    })
}

/// The reductions of [`try_multiprefix_serial_ctx`] without the `O(n)`
/// sums vector: the API's and the dispatcher's serial multireduce, and
/// the replay that canonicalizes every checking multireduce.
pub(crate) fn try_multireduce_serial_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> Result<Vec<T>, MpError> {
    ctx.checkpoint()?;
    let _span = ctx.phase_span(crate::obs::Phase::Figure2);
    let mut buckets = try_filled_vec(op.identity(), m)?;
    for (i, (&value, &label)) in values.iter().zip(labels).enumerate() {
        ctx.checkpoint_every(i)?;
        if label >= m {
            return Err(input_error(values.len(), labels, m));
        }
        buckets[label] = match policy {
            OverflowPolicy::Wrap => op.combine(buckets[label], value),
            OverflowPolicy::Checked => op
                .checked_combine(buckets[label], value)
                .ok_or(MpError::ArithmeticOverflow { index: i })?,
            OverflowPolicy::Saturating => op.saturating_combine(buckets[label], value),
        };
    }
    validate_lengths(values.len(), labels.len())?;
    Ok(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Max, Min, Mult, Or, Plus, FIRST_LAST_IDENTITY};

    fn try_prefix(
        values: &[i64],
        labels: &[usize],
        policy: OverflowPolicy,
    ) -> Result<MultiprefixOutput<i64>, MpError> {
        try_multiprefix_serial_ctx(values, labels, 2, Plus, policy, &RunContext::new())
    }

    #[test]
    fn paper_figure_1_example() {
        // Figure 1 of the paper (1-based labels 2/3 become 1/2 here):
        //   A = 1 3 2 1 1 2 3 1
        //   L = 2 3 2 2 3 3 2 2   (paper)  -> 1 2 1 1 2 2 1 1 (0-based)
        //   S = 0 0 1 3 3 4 4 7
        //   R = (label 2 -> 8, label 3 -> 6)
        let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
        let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
        let out = multiprefix_serial(&values, &labels, 4, Plus);
        assert_eq!(out.sums, vec![0, 0, 1, 3, 3, 4, 4, 7]);
        assert_eq!(out.reductions, vec![0, 8, 6, 0]);
    }

    #[test]
    fn paper_nine_ones_example() {
        // §2.2's running example: 9 elements, all label 2, all value 1.
        // Multiprefix "serves to enumerate these values beginning at 0 and
        // leaves a count of how many values there are in the bucket."
        let values = [1i64; 9];
        let labels = [2usize; 9];
        let out = multiprefix_serial(&values, &labels, 5, Plus);
        assert_eq!(out.sums, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(out.reductions, vec![0, 0, 9, 0, 0]);
    }

    #[test]
    fn empty_input() {
        let out = multiprefix_serial::<i64, _>(&[], &[], 3, Plus);
        assert_eq!(out.sums, Vec::<i64>::new());
        assert_eq!(out.reductions, vec![0, 0, 0]);
    }

    #[test]
    fn zero_buckets_with_no_elements() {
        let out = multiprefix_serial::<i64, _>(&[], &[], 0, Plus);
        assert!(out.sums.is_empty());
        assert!(out.reductions.is_empty());
    }

    #[test]
    fn single_element() {
        let out = multiprefix_serial(&[42i64], &[1], 3, Plus);
        assert_eq!(out.sums, vec![0]);
        assert_eq!(out.reductions, vec![0, 42, 0]);
    }

    #[test]
    fn max_operator() {
        let values = [3i64, 7, 2, 9, 1];
        let labels = [0usize, 0, 1, 0, 1];
        let out = multiprefix_serial(&values, &labels, 2, Max);
        assert_eq!(out.sums, vec![i64::MIN, 3, i64::MIN, 7, 2]);
        assert_eq!(out.reductions, vec![9, 2]);
    }

    #[test]
    fn min_operator() {
        let values = [3i64, 7, 2, 9, 1];
        let labels = [0usize, 0, 1, 0, 1];
        let out = multiprefix_serial(&values, &labels, 2, Min);
        assert_eq!(out.sums, vec![i64::MAX, 3, i64::MAX, 3, 2]);
        assert_eq!(out.reductions, vec![3, 1]);
    }

    #[test]
    fn mult_operator() {
        let values = [2i64, 3, 4, 5];
        let labels = [0usize, 0, 0, 1];
        let out = multiprefix_serial(&values, &labels, 2, Mult);
        assert_eq!(out.sums, vec![1, 2, 6, 1]);
        assert_eq!(out.reductions, vec![24, 5]);
    }

    #[test]
    fn or_operator_bool() {
        let values = [true, false, true, false];
        let labels = [0usize, 1, 0, 1];
        let out = multiprefix_serial(&values, &labels, 2, Or);
        assert_eq!(out.sums, vec![false, false, true, false]);
        assert_eq!(out.reductions, vec![true, false]);
    }

    #[test]
    fn noncommutative_first_last() {
        // (i, i) elements; the prefix under FirstLast is (first, previous)
        // of the class, in index order.
        let values = [(0, 0), (1, 1), (2, 2), (3, 3)];
        let labels = [0usize, 0, 0, 0];
        let out = multiprefix_serial(&values, &labels, 1, FirstLast);
        assert_eq!(out.sums, vec![FIRST_LAST_IDENTITY, (0, 0), (0, 1), (0, 2)]);
        assert_eq!(out.reductions, vec![(0, 3)]);
    }

    #[test]
    fn float_plus() {
        let values = [1.5f64, 2.5, 3.0];
        let labels = [0usize, 0, 1];
        let out = multiprefix_serial(&values, &labels, 2, Plus);
        assert_eq!(out.sums, vec![0.0, 1.5, 0.0]);
        assert_eq!(out.reductions, vec![4.0, 3.0]);
    }

    #[test]
    fn multireduce_matches_multiprefix_reductions() {
        let values = [5i64, -2, 8, 1, 1, 0, 7];
        let labels = [3usize, 1, 3, 0, 1, 3, 0];
        let full = multiprefix_serial(&values, &labels, 4, Plus);
        let red = multireduce_serial(&values, &labels, 4, Plus);
        assert_eq!(full.reductions, red);
    }

    #[test]
    fn try_serial_wrap_matches_plain() {
        let values = [i64::MAX, 1, 5];
        let labels = [0usize, 0, 1];
        let plain = multiprefix_serial(&values, &labels, 2, Plus);
        let hardened = try_prefix(&values, &labels, OverflowPolicy::Wrap).unwrap();
        assert_eq!(plain.sums, hardened.sums);
        assert_eq!(plain.reductions, hardened.reductions);
    }

    #[test]
    fn try_serial_checked_reports_first_serial_overflow() {
        // Element 0 seeds bucket 0 with i64::MAX (identity + MAX is fine);
        // element 2 is the first combine that overflows.
        let values = [i64::MAX, 3, 1, 1];
        let labels = [0usize, 1, 0, 0];
        let err = try_prefix(&values, &labels, OverflowPolicy::Checked).unwrap_err();
        assert_eq!(err, MpError::ArithmeticOverflow { index: 2 });
        let ctx = RunContext::new();
        let checked = OverflowPolicy::Checked;
        let err = try_multireduce_serial_ctx(&values, &labels, 2, Plus, checked, &ctx).unwrap_err();
        assert_eq!(err, MpError::ArithmeticOverflow { index: 2 });
    }

    #[test]
    fn try_serial_saturating_clamps() {
        let values = [i64::MAX, 1, i64::MIN, -1];
        let labels = [0usize, 0, 1, 1];
        let out = try_prefix(&values, &labels, OverflowPolicy::Saturating).unwrap();
        assert_eq!(out.sums, vec![0, i64::MAX, 0, i64::MIN]);
        assert_eq!(out.reductions, vec![i64::MAX, i64::MIN]);
    }

    #[test]
    fn absent_labels_get_identity() {
        let out = multiprefix_serial(&[1i64], &[2], 5, Plus);
        assert_eq!(out.reductions, vec![0, 0, 1, 0, 0]);
        let out = multiprefix_serial(&[1i64], &[2], 5, Min);
        assert_eq!(
            out.reductions,
            vec![i64::MAX, i64::MAX, 1, i64::MAX, i64::MAX]
        );
    }
}
