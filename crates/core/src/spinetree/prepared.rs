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
use crate::chunked::{expect_plain, PlainComb};
use crate::error::MpError;
use crate::op::CombineOp;
use crate::problem::{validate, validate_lengths, Element, MultiprefixOutput};
use crate::resilience::RunContext;

/// A spinetree built for one labeling, reusable across value vectors.
#[derive(Debug, Clone)]
pub struct PreparedMultiprefix {
    layout: Layout,
    spine: Vec<usize>,
}

impl PreparedMultiprefix {
    /// Build the spinetree for `labels` over `m` buckets (the "setup" of
    /// §5.2.1), under `LastWins` arbitration. Validates the labels once, so
    /// a bad label is the error [`crate::validate`] reports; every run
    /// then checks only the length of its values.
    pub fn new(labels: &[usize], m: usize) -> Result<Self, MpError> {
        validate(&labels.len(), labels, m)?;
        let layout = Layout::square(labels.len(), m);
        let spine = build_spinetree(labels, &layout, ArbPolicy::LastWins);
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

    /// Run a full multiprefix over `values` (one per label this structure
    /// was built for) under any operator. Only the three EREW phases
    /// execute — the spinetree is reused. This is the route the §5.2.1
    /// SpMV kernel takes, where the values and the labels derive from one
    /// matrix.
    ///
    /// # Panics
    ///
    /// If `values.len() != self.len()` ([`MpError::LengthMismatch`], the
    /// error [`crate::validate`] reports), or if an allocation fails: the
    /// message names the engine and the [`MpError`].
    pub fn run<T: Element, O: CombineOp<T>>(&self, values: &[T], op: O) -> MultiprefixOutput<T> {
        expect_plain(Engine::Spinetree, self.run_with(values, op, true))
    }

    /// Run a multireduce over `values` (§4.2: skip MULTISUMS).
    ///
    /// # Panics
    ///
    /// As [`Self::run`].
    pub fn run_reduce<T: Element, O: CombineOp<T>>(&self, values: &[T], op: O) -> Vec<T> {
        expect_plain(Engine::Spinetree, self.run_with(values, op, false)).reductions
    }

    /// Every run: lengths checked, then [`sweep`] over the stored
    /// spinetree.
    fn run_with<T: Element, O: CombineOp<T>>(
        &self,
        values: &[T],
        op: O,
        want_sums: bool,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        validate_lengths(values.len(), self.layout.n)?;
        let ctx = RunContext::new();
        sweep(
            values,
            &self.spine,
            &self.layout,
            PlainComb(op),
            want_sums,
            &ctx,
        )
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
    #[should_panic(expected = "values (1) and labels (2) have different lengths")]
    fn wrong_value_length_panics_naming_the_error() {
        let prepared = PreparedMultiprefix::new(&[0, 1], 2).unwrap();
        let _ = prepared.run(&[1i64], Plus);
    }

    #[test]
    #[should_panic(expected = "values (3) and labels (2) have different lengths")]
    fn wrong_value_length_panics_in_reduce_too() {
        let prepared = PreparedMultiprefix::new(&[0, 1], 2).unwrap();
        let _ = prepared.run_reduce(&[1i64, 2, 3], Plus);
    }

    #[test]
    fn empty_structure() {
        let prepared = PreparedMultiprefix::new(&[], 4).unwrap();
        assert!(prepared.is_empty());
        let out = prepared.run::<i64, _>(&[], Plus);
        assert_eq!(out.reductions, vec![0; 4]);
    }
}
