//! The assembled four-phase spinetree engine, with step/work instrumentation.
//!
//! Every one-shot entry runs `run`: SPINETREE, then the one `sweep` of
//! INIT and phases 2–4 that [`super::PreparedMultiprefix`] also runs over
//! its stored spinetree. The plain entries run it with the plain
//! operator and an empty context; the hardened ones with a trip guard and
//! the caller's context.

use super::build::{build_spinetree_ctx, ArbPolicy};
use super::layout::Layout;
use super::phases::sweep;
use crate::api::Engine;
use crate::chunked::{expect_plain, Comb, PlainComb};
use crate::error::MpError;
use crate::exec::{CheckGuard, OverflowPolicy, TryEngineResult};
use crate::obs::Phase;
use crate::op::{CombineOp, TryCombineOp};
use crate::problem::{validate_lengths, Element, MultiprefixOutput};
use crate::resilience::RunContext;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parallel-step and work accounting for one phase, in the paper's §3
/// measures: `steps` is the number of `pardo` issues (parallel steps), and
/// `work` the total number of element operations across all steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of parallel steps (outer-loop iterations).
    pub steps: usize,
    /// Total elements operated on over all steps.
    pub work: usize,
}

/// A fully instrumented spinetree run: the result plus the layout used and
/// per-phase step/work counts (INIT, SPINETREE, ROWSUMS, SPINESUMS,
/// MULTISUMS in that order).
#[derive(Debug, Clone)]
pub struct SpinetreeRun<T> {
    /// The multiprefix result.
    pub output: MultiprefixOutput<T>,
    /// The grid geometry used.
    pub layout: Layout,
    /// Per-phase accounting: `[init, spinetree, rowsums, spinesums, multisums]`.
    pub phases: [PhaseStats; 5],
}

impl<T> SpinetreeRun<T> {
    /// Total parallel steps `S` over all phases.
    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(|p| p.steps).sum()
    }

    /// Total work `W` over all phases.
    pub fn total_work(&self) -> usize {
        self.phases.iter().map(|p| p.work).sum()
    }
}

/// The one-shot run: lengths checked, SPINETREE, then [`sweep`]. Without
/// `want_sums` it is the §4.2 multireduce, which stops before MULTISUMS.
fn run<T: Element, C: Comb<T>>(
    values: &[T],
    labels: &[usize],
    layout: &Layout,
    policy: ArbPolicy,
    comb: C,
    want_sums: bool,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<T>, MpError> {
    validate_lengths(values.len(), labels.len())?;
    debug_assert_eq!(values.len(), layout.n);
    ctx.checkpoint()?;
    let spine = {
        let _span = ctx.phase_span(Phase::Spinetree);
        build_spinetree_ctx(labels, layout, policy, ctx)?
    };
    sweep(values, &spine, layout, comb, want_sums, ctx)
}

/// Run the paper's multiprefix algorithm with an explicit layout and
/// arbitration policy, returning full instrumentation.
///
/// Preconditions (checked by [`crate::api::multiprefix`]):
/// `values.len() == labels.len() == layout.n`, labels `< layout.m`.
///
/// # Panics
///
/// If `values` and `labels` differ in length, or an allocation fails: the
/// message names the engine and the [`MpError`].
pub fn multiprefix_spinetree_instrumented<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    op: O,
    layout: Layout,
    policy: ArbPolicy,
) -> SpinetreeRun<T> {
    let ctx = RunContext::new();
    let output = run(values, labels, &layout, policy, PlainComb(op), true, &ctx);
    let output = expect_plain(Engine::Spinetree, output);
    // INIT is one step over every slot; each later phase touches every
    // element once, SPINETREE and SPINESUMS in row steps, ROWSUMS and
    // MULTISUMS in column steps.
    let n = layout.n;
    let rows = PhaseStats {
        steps: layout.n_rows,
        work: n,
    };
    let cols = PhaseStats {
        steps: layout.cols_left_right().len(),
        work: n,
    };
    let init = PhaseStats {
        steps: 1,
        work: layout.slots(),
    };
    SpinetreeRun {
        output,
        layout,
        phases: [init, rows, cols, rows, cols],
    }
}

/// Run the spinetree multiprefix with default geometry (near-`√n` rows) and
/// `LastWins` arbitration.
///
/// # Panics
///
/// As [`multiprefix_spinetree_instrumented`]: on unequal lengths or a
/// failed allocation.
pub fn multiprefix_spinetree<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> MultiprefixOutput<T> {
    let layout = Layout::square(values.len(), m);
    multiprefix_spinetree_instrumented(values, labels, op, layout, ArbPolicy::LastWins).output
}

/// The multireduce operation (§4.2): per-label reductions only, skipping
/// MULTISUMS. "Compared to the PREFIXSUM phase, which requires almost 7
/// clock ticks per element, this is a substantial savings in time."
///
/// # Panics
///
/// As [`multiprefix_spinetree_instrumented`]: on unequal lengths or a
/// failed allocation.
pub fn multireduce_spinetree<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> Vec<T> {
    let layout = Layout::square(values.len(), m);
    let policy = ArbPolicy::LastWins;
    let ctx = RunContext::new();
    let out = run(values, labels, &layout, policy, PlainComb(op), false, &ctx);
    expect_plain(Engine::Spinetree, out).reductions
}

/// Hardened spinetree multiprefix (see [`crate::exec`] for the contract)
/// under a [`RunContext`]. Unequal lengths are
/// [`MpError::LengthMismatch`]; the `n + m` pivot-block temporaries are
/// allocated fallibly, and under a checking [`OverflowPolicy`] every ⊕
/// runs through a trip guard. MULTISUMS performs the literal serial
/// combine `prefix_i ⊕ value_i` for every element, so a clean (untripped)
/// run certifies that the serial evaluation cannot overflow either.
///
/// The context is polled at every phase boundary, after every SPINETREE
/// row, and every [`crate::resilience::CHECK_STRIDE`] elements inside the
/// ROWSUMS/SPINESUMS/MULTISUMS sweeps, so deadlines and cancellation
/// interrupt the run promptly and no partial output escapes.
pub fn try_multiprefix_spinetree_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<T>> {
    run_guarded(values, labels, m, op, policy, true, ctx)
}

/// Hardened spinetree multireduce, under the contract of
/// [`try_multiprefix_spinetree_ctx`].
pub fn try_multireduce_spinetree_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> TryEngineResult<Vec<T>> {
    let out = run_guarded(values, labels, m, op, policy, false, ctx)?;
    Ok(out.map(|out| out.reductions))
}

/// [`run`] through a trip guard: `Ok(None)` when a checked combine
/// tripped.
fn run_guarded<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    want_sums: bool,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<T>> {
    let layout = Layout::square(values.len(), m);
    let arb = ArbPolicy::LastWins;
    let tripped = AtomicBool::new(false);
    let guard = CheckGuard::new(op, policy, &tripped);
    let out = run(values, labels, &layout, arb, guard, want_sums, ctx)?;
    Ok((!tripped.load(Ordering::Relaxed)).then_some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Max, Plus, FIRST_LAST_IDENTITY};
    use crate::serial::{multiprefix_serial, multireduce_serial};

    #[test]
    fn matches_figure_1() {
        let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
        let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
        let out = multiprefix_spinetree(&values, &labels, 4, Plus);
        assert_eq!(out.sums, vec![0, 0, 1, 3, 3, 4, 4, 7]);
        assert_eq!(out.reductions, vec![0, 8, 6, 0]);
    }

    #[test]
    fn matches_serial_on_mixed_input() {
        let values: Vec<i64> = (0..257).map(|i| (i * 37 % 19) - 9).collect();
        let labels: Vec<usize> = (0..257).map(|i| (i * i + 3 * i) % 13).collect();
        let expect = multiprefix_serial(&values, &labels, 13, Plus);
        let got = multiprefix_spinetree(&values, &labels, 13, Plus);
        assert_eq!(got.sums, expect.sums);
        assert_eq!(got.reductions, expect.reductions);
    }

    #[test]
    fn arbitration_independence() {
        // The ARB model promises an *arbitrary* winner; the result must not
        // depend on which. Different policies give different trees but the
        // same sums — the key soundness property of the paper's §3.1.
        let values: Vec<i64> = (0..500).map(|i| i % 23).collect();
        let labels: Vec<usize> = (0..500).map(|i| (i * 7 + i / 11) % 9).collect();
        let layout = Layout::square(500, 9);
        let reference =
            multiprefix_spinetree_instrumented(&values, &labels, Plus, layout, ArbPolicy::LastWins)
                .output;
        for policy in [
            ArbPolicy::FirstWins,
            ArbPolicy::Seeded(1),
            ArbPolicy::Seeded(0xDEADBEEF),
        ] {
            let run = multiprefix_spinetree_instrumented(&values, &labels, Plus, layout, policy);
            assert_eq!(run.output.sums, reference.sums, "{policy:?}");
            assert_eq!(run.output.reductions, reference.reductions, "{policy:?}");
        }
    }

    #[test]
    fn step_complexity_is_order_sqrt_n() {
        // §3: each of the four phases executes exactly √n parallel steps.
        for n in [100usize, 1024, 4096, 10_000] {
            let values = vec![1i64; n];
            let labels = vec![0usize; n];
            let layout = Layout::square(n, 1);
            let run = multiprefix_spinetree_instrumented(
                &values,
                &labels,
                Plus,
                layout,
                ArbPolicy::LastWins,
            );
            let sqrt_n = (n as f64).sqrt();
            let s = run.total_steps() as f64;
            assert!(
                s <= 4.5 * sqrt_n + 10.0,
                "S = {s} not O(sqrt n) for n = {n}"
            );
            // Work efficiency: W = O(n) — 4 phases of n plus O(n+m) init.
            assert!(run.total_work() <= 5 * n + layout.m + 8);
        }
    }

    #[test]
    fn extreme_row_lengths_still_correct() {
        let values: Vec<i64> = (0..40).map(|i| i as i64).collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let expect = multiprefix_serial(&values, &labels, 3, Plus);
        for row_len in [1usize, 2, 5, 7, 39, 40, 64] {
            let layout = Layout::with_row_len(40, 3, row_len);
            let run = multiprefix_spinetree_instrumented(
                &values,
                &labels,
                Plus,
                layout,
                ArbPolicy::Seeded(3),
            );
            assert_eq!(run.output.sums, expect.sums, "row_len = {row_len}");
            assert_eq!(run.output.reductions, expect.reductions);
        }
    }

    #[test]
    fn noncommutative_operator_preserved() {
        let values: Vec<(i32, i32)> = (0..100).map(|i| (i, i)).collect();
        let labels: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let expect = multiprefix_serial(&values, &labels, 4, FirstLast);
        let got = multiprefix_spinetree(&values, &labels, 4, FirstLast);
        assert_eq!(got.sums, expect.sums);
        assert_eq!(got.reductions, expect.reductions);
        // Spot check: element 4 (label 0) should see (0, previous=0).
        assert_eq!(got.sums[0], FIRST_LAST_IDENTITY);
        assert_eq!(got.sums[4], (0, 0));
    }

    #[test]
    fn max_operator_through_engine() {
        let values = [3i64, 7, 2, 9, 1, 4];
        let labels = [0usize, 1, 0, 1, 0, 1];
        let expect = multiprefix_serial(&values, &labels, 2, Max);
        let got = multiprefix_spinetree(&values, &labels, 2, Max);
        assert_eq!(got, expect);
    }

    #[test]
    fn multireduce_agrees() {
        let values: Vec<i64> = (0..321).map(|i| (i * 31 % 17) as i64 - 8).collect();
        let labels: Vec<usize> = (0..321).map(|i| (i * 13) % 29).collect();
        assert_eq!(
            multireduce_spinetree(&values, &labels, 29, Plus),
            multireduce_serial(&values, &labels, 29, Plus)
        );
    }

    #[test]
    fn empty_and_tiny() {
        let out = multiprefix_spinetree::<i64, _>(&[], &[], 3, Plus);
        assert!(out.sums.is_empty());
        assert_eq!(out.reductions, vec![0, 0, 0]);
        let out = multiprefix_spinetree(&[5i64], &[0], 1, Plus);
        assert_eq!(out.sums, vec![0]);
        assert_eq!(out.reductions, vec![5]);
    }
}
