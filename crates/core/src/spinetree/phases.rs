//! The three EREW phases that run over a built spinetree: ROWSUMS,
//! SPINESUMS and MULTISUMS, plus the §4.2 multireduce shortcut, and
//! `sweep`, which runs them in that order. Every spinetree entry — plain
//! or hardened, one-shot or over a stored spinetree
//! ([`super::PreparedMultiprefix`]) — runs the one body of each phase.
//!
//! Theorems 1–2 of the paper (checked in [`super::validate`]) guarantee
//! that within any single column-parallel or row-parallel step of these
//! phases, no two active elements share a parent cell — so although the
//! loops below are written as sequential sweeps (the vector-simulation
//! style of §4), every inner loop body could execute concurrently with
//! exclusive reads and writes.
//!
//! Each body is generic over the engine's combine: the plain operator, or
//! a guard that latches a trip flag on overflow under a checking
//! [`crate::exec::OverflowPolicy`]. Each polls the run's [`RunContext`] at
//! entry and every [`crate::resilience::CHECK_STRIDE`] elements, so a
//! deadline or a cancellation interrupts even a single long sweep. The
//! public phase functions run the body with the plain operator and an
//! empty context.

use super::layout::Layout;
use crate::api::Engine;
use crate::chunked::{expect_plain, Comb, PlainComb};
use crate::error::MpError;
use crate::exec::try_with_capacity;
use crate::obs::Phase;
use crate::op::CombineOp;
use crate::problem::{Element, MultiprefixOutput};
use crate::resilience::RunContext;

/// ROWSUMS (§2.2, Figure 4): sweep the **columns** left to right; every
/// element combines its value into its parent's `rowsum`.
///
/// ```text
/// for (c = 1 to √n)
///     pardo (i = elements of column c)
///         spine->rowsum += value[i];
/// ```
///
/// On exit each *spine element* holds in `rowsum` the ⊕ of its children (in
/// vector order, since children occupy one row and columns are swept left to
/// right); non-spine elements keep the identity. `has_child` is set for
/// every cell that received at least one child — the robust spine marker
/// this implementation uses instead of the paper's `rowsum ≠ 0` test.
pub fn rowsums<T: Element, O: CombineOp<T>>(
    values: &[T],
    spine: &[usize],
    layout: &Layout,
    op: O,
    rowsum: &mut [T],
    has_child: &mut [bool],
) {
    let ctx = RunContext::new();
    let run = rowsums_with(
        values,
        spine,
        layout,
        PlainComb(op),
        rowsum,
        has_child,
        &ctx,
    );
    expect_plain(Engine::Spinetree, run)
}

fn rowsums_with<T: Element, C: Comb<T>>(
    values: &[T],
    spine: &[usize],
    layout: &Layout,
    comb: C,
    rowsum: &mut [T],
    has_child: &mut [bool],
    ctx: &RunContext,
) -> Result<(), MpError> {
    debug_assert_eq!(values.len(), layout.n);
    debug_assert_eq!(spine.len(), layout.slots());
    debug_assert_eq!(rowsum.len(), layout.slots());
    ctx.checkpoint()?;
    let m = layout.m;
    let mut done = 0usize;
    for c in layout.cols_left_right() {
        for i in layout.col_elements(c) {
            ctx.checkpoint_every(done)?;
            done += 1;
            let parent = spine[m + i];
            rowsum[parent] = comb.combine(rowsum[parent], values[i]);
            has_child[parent] = true;
        }
    }
    Ok(())
}

/// SPINESUMS (§2.2, Figure 4): sweep the **rows** bottom to top; every spine
/// element forwards `spinesum ⊕ rowsum` to its parent.
///
/// ```text
/// for (r = 1 to √n)
///     pardo (i = elements of row r)
///         if (rowsum != 0)                  // here: if has_child[i]
///             spine->spinesum = spinesum + rowsum;
/// ```
///
/// Corollary 2 guarantees at most one spine element per class per row, so
/// the single spine path of each class is accumulated as a recurrence. On
/// exit every spine element (and every bucket) holds in `spinesum` the ⊕ of
/// all class elements *preceding any of its children*.
pub fn spinesums<T: Element, O: CombineOp<T>>(
    spine: &[usize],
    layout: &Layout,
    op: O,
    rowsum: &[T],
    has_child: &[bool],
    spinesum: &mut [T],
) {
    let ctx = RunContext::new();
    let run = spinesums_with(
        spine,
        layout,
        PlainComb(op),
        rowsum,
        has_child,
        spinesum,
        &ctx,
    );
    expect_plain(Engine::Spinetree, run)
}

fn spinesums_with<T: Element, C: Comb<T>>(
    spine: &[usize],
    layout: &Layout,
    comb: C,
    rowsum: &[T],
    has_child: &[bool],
    spinesum: &mut [T],
    ctx: &RunContext,
) -> Result<(), MpError> {
    ctx.checkpoint()?;
    let m = layout.m;
    // Rows bottom to top visit the elements in vector order, so `i` counts
    // the elements done.
    for r in layout.rows_bottom_up() {
        for i in layout.row_elements(r) {
            ctx.checkpoint_every(i)?;
            let slot = m + i;
            if has_child[slot] {
                let parent = spine[slot];
                // Corollary 2: `parent` has exactly one spine child, so this
                // write is exclusive; ⊕-order is (earlier rows) ⊕ (this
                // element's children's row).
                spinesum[parent] = comb.combine(spinesum[slot], rowsum[slot]);
            }
        }
    }
    Ok(())
}

/// MULTISUMS (called PREFIXSUM in §4.1): sweep the **columns** left to
/// right; every element fetches its parent's running `spinesum` — its
/// multiprefix value — then appends its own value for the next same-class
/// element of its row.
///
/// ```text
/// for (c = 1 to √n)
///     pardo (i = elements of column c) {
///         multi[i] = spine->spinesum;
///         spine->spinesum += value[i];
///     }
/// ```
pub fn multisums<T: Element, O: CombineOp<T>>(
    values: &[T],
    spine: &[usize],
    layout: &Layout,
    op: O,
    spinesum: &mut [T],
    multi: &mut [T],
) {
    let ctx = RunContext::new();
    let run = multisums_with(values, spine, layout, PlainComb(op), spinesum, multi, &ctx);
    expect_plain(Engine::Spinetree, run)
}

fn multisums_with<T: Element, C: Comb<T>>(
    values: &[T],
    spine: &[usize],
    layout: &Layout,
    comb: C,
    spinesum: &mut [T],
    multi: &mut [T],
    ctx: &RunContext,
) -> Result<(), MpError> {
    debug_assert_eq!(multi.len(), layout.n);
    ctx.checkpoint()?;
    let m = layout.m;
    let mut done = 0usize;
    for c in layout.cols_left_right() {
        for i in layout.col_elements(c) {
            ctx.checkpoint_every(done)?;
            done += 1;
            let parent = spine[m + i];
            multi[i] = spinesum[parent];
            spinesum[parent] = comb.combine(spinesum[parent], values[i]);
        }
    }
    Ok(())
}

/// Extract the per-label reductions after [`spinesums`] (§4.2): for each
/// bucket, `reduction = spinesum ⊕ rowsum` — the sums of all lower rows
/// followed by the top occupied row. "On the CRAY, this is a simple
/// addition of two vectors"; it is the basis of the cheap **multireduce**
/// operation, which skips MULTISUMS entirely.
pub fn bucket_reductions<T: Element, O: CombineOp<T>>(
    layout: &Layout,
    op: O,
    rowsum: &[T],
    spinesum: &[T],
) -> Vec<T> {
    let ctx = RunContext::new();
    let run = reductions_with(layout, PlainComb(op), rowsum, spinesum, &ctx);
    expect_plain(Engine::Spinetree, run)
}

fn reductions_with<T: Element, C: Comb<T>>(
    layout: &Layout,
    comb: C,
    rowsum: &[T],
    spinesum: &[T],
    ctx: &RunContext,
) -> Result<Vec<T>, MpError> {
    ctx.checkpoint()?;
    let mut out = try_with_capacity(layout.m)?;
    for b in 0..layout.m {
        ctx.checkpoint_every(b)?;
        out.push(comb.combine(spinesum[b], rowsum[b]));
    }
    Ok(out)
}

/// INIT and phases 2–4 over a built spinetree, each under its phase span:
/// ROWSUMS, then SPINESUMS with the §4.2 reductions, then MULTISUMS when
/// `want_sums`. A multireduce stops before MULTISUMS and returns empty
/// `sums`.
pub(crate) fn sweep<T: Element, C: Comb<T>>(
    values: &[T],
    spine: &[usize],
    layout: &Layout,
    comb: C,
    want_sums: bool,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<T>, MpError> {
    // INIT (Figure 3): one parallel step clears every temporary the run
    // holds, the output included. As in §4's "modified initialization",
    // the buckets are cleared directly: `O(m)` work, but faster in practice
    // whenever `m ≤ n`.
    let (mut rowsum, mut spinesum, mut has_child, mut sums) = {
        let _span = ctx.phase_span(Phase::Init);
        (
            comb.identity_vec(layout.slots())?,
            comb.identity_vec(layout.slots())?,
            layout.try_pivot_block(false)?,
            comb.identity_vec(if want_sums { layout.n } else { 0 })?,
        )
    };
    {
        let _span = ctx.phase_span(Phase::Rowsums);
        rowsums_with(
            values,
            spine,
            layout,
            comb,
            &mut rowsum,
            &mut has_child,
            ctx,
        )?;
    }
    let reductions = {
        let _span = ctx.phase_span(Phase::Spinesums);
        spinesums_with(spine, layout, comb, &rowsum, &has_child, &mut spinesum, ctx)?;
        reductions_with(layout, comb, &rowsum, &spinesum, ctx)?
    };
    if want_sums {
        let _span = ctx.phase_span(Phase::Multisums);
        multisums_with(values, spine, layout, comb, &mut spinesum, &mut sums, ctx)?;
    }
    Ok(MultiprefixOutput { sums, reductions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;
    use crate::spinetree::build::{build_spinetree, ArbPolicy};

    /// Reproduces the intermediate snapshots of Figure 7 for the 9-ones
    /// example (with LastWins arbitration the spine is 2 ← 5 ← 8 ← bucket).
    #[test]
    fn figure_7_intermediates() {
        let values = [1i64; 9];
        let labels = [2usize; 9];
        let layout = Layout::with_row_len(9, 5, 3);
        let spine = build_spinetree(&labels, &layout, ArbPolicy::LastWins);
        let slots = layout.slots();
        let m = layout.m;

        let mut rowsum = vec![0i64; slots];
        let mut has_child = vec![false; slots];
        rowsums(&values, &spine, &layout, Plus, &mut rowsum, &mut has_child);
        // Spine elements 5 and 8 and the bucket each collected one row of 3.
        assert_eq!(rowsum[m + 5], 3);
        assert_eq!(rowsum[m + 8], 3);
        assert_eq!(rowsum[2], 3);
        assert_eq!(
            rowsum.iter().copied().sum::<i64>(),
            9,
            "all values accounted for exactly once"
        );
        assert!(has_child[m + 5] && has_child[m + 8] && has_child[2]);
        assert_eq!(has_child.iter().filter(|&&h| h).count(), 3);

        let mut spinesum = vec![0i64; slots];
        spinesums(&spine, &layout, Plus, &rowsum, &has_child, &mut spinesum);
        // "each spine element will have in its spinesum field the sum of
        // the elements in its class preceding any of its children."
        assert_eq!(spinesum[m + 8], 3); // children in row 1; row 0 precedes
        assert_eq!(spinesum[2], 6); // bucket: children in row 2; rows 0-1
        assert_eq!(
            bucket_reductions(&layout, Plus, &rowsum, &spinesum),
            vec![0, 0, 9, 0, 0]
        );

        let mut multi = vec![0i64; 9];
        multisums(&values, &spine, &layout, Plus, &mut spinesum, &mut multi);
        assert_eq!(multi, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn rowsum_identity_for_childless() {
        let values = [7i64, 7, 7];
        let labels = [0usize, 1, 2];
        let layout = Layout::with_row_len(3, 3, 3);
        let spine = build_spinetree(&labels, &layout, ArbPolicy::LastWins);
        let mut rowsum = vec![0i64; layout.slots()];
        let mut has_child = vec![false; layout.slots()];
        rowsums(&values, &spine, &layout, Plus, &mut rowsum, &mut has_child);
        // Single row: every element's parent is its bucket.
        assert_eq!(&rowsum[..3], &[7, 7, 7]);
        assert_eq!(&rowsum[3..], &[0, 0, 0]);
        assert!(!has_child[3] && !has_child[4] && !has_child[5]);
    }

    #[test]
    fn spinesums_skips_identity_valued_spine_elements() {
        // Values that cancel to zero: the paper's `rowsum != 0` test would
        // break here; the has_child flag must not.
        let values = [1i64, -1, 1, -1, 5, 0];
        let labels = [0usize; 6];
        let layout = Layout::with_row_len(6, 1, 2);
        let spine = build_spinetree(&labels, &layout, ArbPolicy::LastWins);
        let slots = layout.slots();
        let mut rowsum = vec![0i64; slots];
        let mut has_child = vec![false; slots];
        rowsums(&values, &spine, &layout, Plus, &mut rowsum, &mut has_child);
        let mut spinesum = vec![0i64; slots];
        spinesums(&spine, &layout, Plus, &rowsum, &has_child, &mut spinesum);
        let red = bucket_reductions(&layout, Plus, &rowsum, &spinesum);
        assert_eq!(red, vec![5]);
        let mut multi = vec![0i64; 6];
        multisums(&values, &spine, &layout, Plus, &mut spinesum, &mut multi);
        assert_eq!(multi, vec![0, 1, 0, 1, 0, 5]);
    }
}
