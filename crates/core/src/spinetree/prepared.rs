//! A reusable spinetree: pay the SPINETREE build once, run the three
//! EREW phases many times.
//!
//! §5.2.1 observes that the multiprefix "setup time is precisely the time
//! spent in the first phase of the multiprefix algorithm building the
//! spinetree", and that applications like iterative solvers multiply by
//! the *same* matrix repeatedly. The spinetree depends only on the
//! **labels**, not the values — so for a fixed labeling it can be built
//! once and replayed against any value vector (and any operator). This
//! module packages that: [`PreparedMultiprefix::new`] builds and validates
//! the structure; every run executes the one-shot engine's `sweep` (INIT,
//! ROWSUMS, SPINESUMS and MULTISUMS) against fresh values.

use super::build::{build_spinetree, ArbPolicy};
use super::layout::Layout;
use super::phases::sweep;
use crate::api::Engine;
use crate::chunked::{expect_plain, Comb, PlainComb};
use crate::error::MpError;
use crate::exec::{CheckGuard, OverflowPolicy};
use crate::op::{CombineOp, TryCombineOp};
use crate::problem::{validate, validate_lengths, Element, MultiprefixOutput};
use crate::resilience::RunContext;
use std::sync::atomic::AtomicBool;

/// A spinetree built for one labeling, reusable across value vectors.
#[derive(Debug, Clone)]
pub struct PreparedMultiprefix {
    layout: Layout,
    spine: Vec<usize>,
}

impl PreparedMultiprefix {
    /// Build the spinetree for `labels` over `m` buckets (the "setup" of
    /// §5.2.1). Validates labels once; [`Self::run`] then skips the check.
    pub fn new(labels: &[usize], m: usize) -> Result<Self, MpError> {
        Self::with_policy(labels, m, ArbPolicy::LastWins)
    }

    /// [`Self::new`] with an explicit arbitration policy.
    pub fn with_policy(labels: &[usize], m: usize, policy: ArbPolicy) -> Result<Self, MpError> {
        validate(&labels.len(), labels, m)?;
        let layout = Layout::square(labels.len(), m);
        let spine = build_spinetree(labels, &layout, policy);
        Ok(PreparedMultiprefix { layout, spine })
    }

    /// Number of elements this structure serves.
    pub fn len(&self) -> usize {
        self.layout.n
    }

    /// True when built for zero elements.
    pub fn is_empty(&self) -> bool {
        self.layout.n == 0
    }

    /// Bucket count.
    pub fn buckets(&self) -> usize {
        self.layout.m
    }

    /// The grid geometry in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Run a full multiprefix over `values` (must match [`Self::len`]).
    /// Only the three EREW phases execute — the spinetree is reused.
    ///
    /// # Panics
    /// Panics on `values.len() != self.len()`. This is the unchecked fast
    /// path for callers that construct the value vector from the same
    /// source as the labels (e.g. the SpMV kernel, where both derive from
    /// one matrix); use [`Self::try_run`] when the length is
    /// caller-supplied data. Also panics, naming the [`MpError`], if an
    /// allocation fails.
    pub fn run<T: Element, O: CombineOp<T>>(&self, values: &[T], op: O) -> MultiprefixOutput<T> {
        assert_eq!(values.len(), self.layout.n, "value vector length mismatch");
        expect_plain(Engine::Spinetree, self.try_run(values, op))
    }

    /// Run a multireduce over `values` (§4.2: skip MULTISUMS).
    ///
    /// # Panics
    /// As [`Self::run`]; use [`Self::try_run_reduce`] for untrusted
    /// lengths.
    pub fn run_reduce<T: Element, O: CombineOp<T>>(&self, values: &[T], op: O) -> Vec<T> {
        assert_eq!(values.len(), self.layout.n, "value vector length mismatch");
        expect_plain(Engine::Spinetree, self.try_run_reduce(values, op))
    }

    /// [`Self::run`] for caller-supplied lengths: reports
    /// [`MpError::LengthMismatch`] instead of panicking.
    pub fn try_run<T: Element, O: CombineOp<T>>(
        &self,
        values: &[T],
        op: O,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        self.run_with(values, PlainComb(op), true, &RunContext::new())
    }

    /// [`Self::run_reduce`] for caller-supplied lengths: reports
    /// [`MpError::LengthMismatch`] instead of panicking.
    pub fn try_run_reduce<T: Element, O: CombineOp<T>>(
        &self,
        values: &[T],
        op: O,
    ) -> Result<Vec<T>, MpError> {
        let out = self.run_with(values, PlainComb(op), false, &RunContext::new())?;
        Ok(out.reductions)
    }

    /// [`Self::try_run`] under a [`RunContext`]: the phase temporaries are
    /// allocated fallibly and the context is polled at every phase boundary
    /// and every [`crate::resilience::CHECK_STRIDE`] elements within the
    /// sweeps, so a replayed structure honors deadlines and cancellation
    /// like the one-shot engines. Results are identical to [`Self::run`].
    pub fn try_run_ctx<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        op: O,
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        // A `Wrap` guard never trips: it only makes INIT's blocks fallible.
        let tripped = AtomicBool::new(false);
        let guard = CheckGuard::new(op, OverflowPolicy::Wrap, &tripped);
        self.run_with(values, guard, true, ctx)
    }

    /// [`Self::try_run_reduce`] under a [`RunContext`]; see
    /// [`Self::try_run_ctx`].
    pub fn try_run_reduce_ctx<T: Element, O: TryCombineOp<T>>(
        &self,
        values: &[T],
        op: O,
        ctx: &RunContext,
    ) -> Result<Vec<T>, MpError> {
        let tripped = AtomicBool::new(false);
        let guard = CheckGuard::new(op, OverflowPolicy::Wrap, &tripped);
        Ok(self.run_with(values, guard, false, ctx)?.reductions)
    }

    /// Every run: lengths checked, then [`sweep`] over the stored
    /// spinetree.
    fn run_with<T: Element, C: Comb<T>>(
        &self,
        values: &[T],
        comb: C,
        want_sums: bool,
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        validate_lengths(values.len(), self.layout.n)?;
        ctx.checkpoint()?;
        sweep(values, &self.spine, &self.layout, comb, want_sums, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Plus};
    use crate::serial::{multiprefix_serial, multireduce_serial};

    #[test]
    fn replay_matches_fresh_runs() {
        let labels: Vec<usize> = (0..500).map(|i| (i * 13 + i / 3) % 17).collect();
        let prepared = PreparedMultiprefix::new(&labels, 17).unwrap();
        for seed in 0..5i64 {
            let values: Vec<i64> = (0..500).map(|i| (i as i64 * 7 + seed) % 23 - 11).collect();
            let got = prepared.run(&values, Plus);
            let expect = multiprefix_serial(&values, &labels, 17, Plus);
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn replay_supports_different_operators_and_types() {
        // One structure, two operators, two element types.
        let labels: Vec<usize> = (0..200).map(|i| i % 9).collect();
        let prepared = PreparedMultiprefix::new(&labels, 9).unwrap();
        let ints: Vec<i64> = (0..200).map(|i| i as i64 - 100).collect();
        assert_eq!(
            prepared.run(&ints, Max),
            multiprefix_serial(&ints, &labels, 9, Max)
        );
        let floats: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        assert_eq!(
            prepared.run(&floats, Plus).sums,
            multiprefix_serial(&floats, &labels, 9, Plus).sums
        );
    }

    #[test]
    fn reduce_only_replay() {
        let labels: Vec<usize> = (0..300).map(|i| (i * 5) % 11).collect();
        let prepared = PreparedMultiprefix::new(&labels, 11).unwrap();
        let values: Vec<i64> = (0..300).map(|i| i as i64).collect();
        assert_eq!(
            prepared.run_reduce(&values, Plus),
            multireduce_serial(&values, &labels, 11, Plus)
        );
    }

    #[test]
    fn validation_happens_at_build() {
        let ok = PreparedMultiprefix::new(&[0, 2], 3).unwrap();
        assert_eq!(ok.buckets(), 3);
        assert_eq!(ok.len(), 2);
        assert!(matches!(
            PreparedMultiprefix::new(&[5], 3),
            Err(MpError::LabelOutOfRange { label: 5, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_value_length_panics() {
        let prepared = PreparedMultiprefix::new(&[0, 1], 2).unwrap();
        let _ = prepared.run(&[1i64], Plus);
    }

    #[test]
    fn try_run_reports_length_mismatch() {
        let prepared = PreparedMultiprefix::new(&[0, 1], 2).unwrap();
        assert_eq!(
            prepared.try_run(&[1i64], Plus).unwrap_err(),
            MpError::LengthMismatch {
                values: 1,
                labels: 2
            }
        );
        assert_eq!(
            prepared.try_run_reduce(&[1i64, 2, 3], Plus).unwrap_err(),
            MpError::LengthMismatch {
                values: 3,
                labels: 2
            }
        );
        let ok = prepared.try_run(&[4i64, 5], Plus).unwrap();
        assert_eq!(ok.reductions, vec![4, 5]);
        assert_eq!(
            prepared.try_run_reduce(&[4i64, 5], Plus).unwrap(),
            vec![4, 5]
        );
    }

    #[test]
    fn empty_structure() {
        let prepared = PreparedMultiprefix::new(&[], 4).unwrap();
        assert!(prepared.is_empty());
        let out = prepared.run::<i64, _>(&[], Plus);
        assert_eq!(out.reductions, vec![0; 4]);
    }
}
