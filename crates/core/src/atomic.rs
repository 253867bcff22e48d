//! A genuinely concurrent CRCW-ARB spinetree engine for `i64`.
//!
//! The [`crate::spinetree`] module executes the paper's algorithm in the
//! vector-simulation style (each `pardo` is one sequential loop). This
//! module runs the *same* four phases with real threads:
//!
//! * the SPINETREE scatter is an honest data race — every element of a row
//!   issues a relaxed atomic store to its bucket's pointer cell, and
//!   whichever store the memory system orders last wins. That is precisely
//!   the CRCW-ARB contract ("of multiple processors writing to the same
//!   location, an arbitrary one succeeds"), realized without UB because the
//!   cells are atomics;
//! * ROWSUMS exploits commutativity: one parallel sweep of *all* elements
//!   with `fetch_add`-style RMWs (for a commutative ⊕, row/column
//!   discipline is unnecessary for this phase);
//! * SPINESUMS and MULTISUMS keep the paper's sweep order; within a sweep
//!   the §3.1 theorems guarantee exclusive access, so plain relaxed
//!   load/store pairs suffice — the atomics only rule out UB, the theorems
//!   rule out lost updates. Each `pardo` is a rayon parallel iterator, and
//!   the barrier between steps is the iterator's completion.
//!
//! Restricted to `i64` with a commutative [`AtomicCombine`] operator
//! (`Plus`, `Max`, `Min`, `And`, `Or`) — the price of lock-free child
//! accumulation.
//!
//! The engine has one four-phase body and one reduce body. The plain
//! entries run them with the plain operator; the hardened ones with a trip
//! guard, a trip flag under a checking policy, and the caller's
//! [`RunContext`].

use crate::api::{Call, Engine};
use crate::chunked::{expect_plain, Comb, PlainComb};
use crate::error::MpError;
use crate::exec::{try_with_capacity, CheckGuard, ExecConfig, OverflowPolicy, TryEngineResult};
use crate::obs::Phase;
use crate::op::{And, CombineOp, Max, Min, Or, Plus, TryCombineOp};
use crate::problem::{validate_lengths, MultiprefixOutput};
use crate::resilience::RunContext;
use crate::spinetree::layout::Layout;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering::Relaxed};

/// A commutative operator on `i64` with a lock-free read-modify-write.
pub trait AtomicCombine: CombineOp<i64> {
    /// Atomically `cell ← cell ⊕ v`.
    fn fetch_combine(&self, cell: &AtomicI64, v: i64);

    /// [`AtomicCombine::fetch_combine`] for the hardened path: latch
    /// `tripped` if the combine is unrepresentable, then commit the
    /// wrapping result so the phase completes (the tripped output is
    /// discarded by the caller). The default is the plain RMW — correct
    /// for every total operator (`Max`, `Min`, `And`, `Or`); only
    /// operators that can overflow (`Plus`) need an override.
    #[inline(always)]
    fn fetch_combine_checked(&self, cell: &AtomicI64, v: i64, _tripped: &AtomicBool) {
        self.fetch_combine(cell, v);
    }
}

impl AtomicCombine for Plus {
    #[inline(always)]
    fn fetch_combine(&self, cell: &AtomicI64, v: i64) {
        cell.fetch_add(v, Relaxed);
    }

    #[inline(always)]
    fn fetch_combine_checked(&self, cell: &AtomicI64, v: i64, tripped: &AtomicBool) {
        // CAS loop: detect overflow on the actual committed pair, which a
        // post-hoc inspection of a wrapped `fetch_add` result cannot do.
        let mut cur = cell.load(Relaxed);
        loop {
            let next = match cur.checked_add(v) {
                Some(next) => next,
                None => {
                    tripped.store(true, Relaxed);
                    cur.wrapping_add(v)
                }
            };
            match cell.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl AtomicCombine for Max {
    #[inline(always)]
    fn fetch_combine(&self, cell: &AtomicI64, v: i64) {
        cell.fetch_max(v, Relaxed);
    }
}

impl AtomicCombine for Min {
    #[inline(always)]
    fn fetch_combine(&self, cell: &AtomicI64, v: i64) {
        cell.fetch_min(v, Relaxed);
    }
}

impl AtomicCombine for And {
    #[inline(always)]
    fn fetch_combine(&self, cell: &AtomicI64, v: i64) {
        cell.fetch_and(v, Relaxed);
    }
}

impl AtomicCombine for Or {
    #[inline(always)]
    fn fetch_combine(&self, cell: &AtomicI64, v: i64) {
        cell.fetch_or(v, Relaxed);
    }
}

/// Concurrent spinetree multiprefix over `i64`.
///
/// The plain entry does not check labels: a label `>= m` is a broken
/// precondition, with an unspecified result or an out-of-bounds panic.
/// [`multiprefix_atomic_hardened`] checks them and reports
/// [`MpError::LabelOutOfRange`].
///
/// # Panics
///
/// If `values` and `labels` differ in length, or an allocation fails: the
/// message names the engine and the [`MpError`].
pub fn multiprefix_atomic<O: AtomicCombine>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
) -> MultiprefixOutput<i64> {
    let ctx = RunContext::new();
    let run = run_prefix(values, labels, m, op, PlainComb(op), None, &ctx);
    expect_plain(Engine::Atomic, run)
}

/// Concurrent multireduce: one lock-free parallel sweep — every element
/// fetch-combines straight into its bucket. This is the Connection
/// Machine's *combining send* (§1) realized with atomics; no spinetree is
/// needed because only the reductions are wanted and ⊕ is commutative.
/// Labels are not checked, as in [`multiprefix_atomic`].
///
/// # Panics
///
/// As [`multiprefix_atomic`]: on unequal lengths or a failed allocation.
pub fn multireduce_atomic<O: AtomicCombine>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
) -> Vec<i64> {
    let run = run_reduce(values, labels, m, op, None, &RunContext::new());
    expect_plain(Engine::Atomic, run)
}

/// Fallibly allocate a `len`-vector of non-`Clone` cells (atomics), built
/// per index. Sequential init; the capacity is what can actually fail.
fn try_cell_vec<C>(len: usize, make: impl Fn(usize) -> C) -> Result<Vec<C>, MpError> {
    let mut v: Vec<C> = try_with_capacity(len)?;
    v.extend((0..len).map(make));
    Ok(v)
}

/// The four phases, for the plain and the hardened entries. `comb` is the
/// ⊕ of the sweep-ordered phases (SPINESUMS, the reductions, MULTISUMS);
/// `tripped`, when set, is a checking run's trip flag, and ROWSUMS then
/// commits through [`AtomicCombine::fetch_combine_checked`]. The context
/// is polled at every phase boundary and between the `O(√n)` row/column
/// steps of the swept phases — never inside a racing parallel closure, so
/// a cancelled run stops at a step barrier and drops its cell blocks.
fn run_prefix<O: AtomicCombine, C: Comb<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    comb: C,
    tripped: Option<&AtomicBool>,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<i64>, MpError> {
    validate_lengths(values.len(), labels.len())?;
    ctx.checkpoint()?;
    let layout = Layout::square(values.len(), m);
    let n = layout.n;
    let slots = layout.slots();
    let id = comb.identity();

    // INIT — one step clears the temporaries, the output included, and
    // aims every element's pointer at its bucket, every bucket at itself.
    let init_span = ctx.phase_span(Phase::Init);
    let spine = try_cell_vec(slots, |s| {
        AtomicUsize::new(if s < m { s } else { labels[s - m] })
    })?;
    let rowsum = try_cell_vec(slots, |_| AtomicI64::new(id))?;
    let spinesum = try_cell_vec(slots, |_| AtomicI64::new(id))?;
    let has_child = try_cell_vec(slots, |_| AtomicBool::new(false))?;
    let multi = try_cell_vec(n, |_| AtomicI64::new(id))?;
    drop(init_span);

    // Phase 1 — SPINETREE, rows top to bottom; gather then racing scatter.
    // Pointer writes only: nothing to check.
    let spinetree_span = ctx.phase_span(Phase::Spinetree);
    for r in layout.rows_top_down() {
        ctx.checkpoint()?;
        let range = layout.row_elements(r);
        range.clone().into_par_iter().for_each(|i| {
            // Concurrent READ of the bucket pointer: every same-label
            // element of this row observes the same value.
            let parent = spine[labels[i]].load(Relaxed);
            spine[m + i].store(parent, Relaxed);
        });
        range.into_par_iter().for_each(|i| {
            // Concurrent ARB WRITE: the overwrite-and-test race. Any one
            // of the same-label stores survives — which one is up to the
            // scheduler and the memory system, exactly the ARB model.
            spine[labels[i]].store(m + i, Relaxed);
        });
    }
    drop(spinetree_span);

    // Phase 2 — ROWSUMS. ⊕ is commutative here, so children may combine
    // into their parents in any order: a single parallel sweep of all
    // elements with lock-free RMWs replaces the column discipline.
    ctx.checkpoint()?;
    let rowsums_span = ctx.phase_span(Phase::Rowsums);
    (0..n).into_par_iter().for_each(|i| {
        let parent = spine[m + i].load(Relaxed);
        match tripped {
            Some(flag) => op.fetch_combine_checked(&rowsum[parent], values[i], flag),
            None => op.fetch_combine(&rowsum[parent], values[i]),
        }
        has_child[parent].store(true, Relaxed);
    });
    drop(rowsums_span);

    // Phase 3 — SPINESUMS, rows bottom to top. Corollary 2: at most one
    // spine child per parent, so the store is exclusive within the step.
    let spinesums_span = ctx.phase_span(Phase::Spinesums);
    for r in layout.rows_bottom_up() {
        ctx.checkpoint()?;
        layout.row_elements(r).into_par_iter().for_each(|i| {
            let slot = m + i;
            if has_child[slot].load(Relaxed) {
                let parent = spine[slot].load(Relaxed);
                let v = comb.combine(spinesum[slot].load(Relaxed), rowsum[slot].load(Relaxed));
                spinesum[parent].store(v, Relaxed);
            }
        });
    }

    // Reductions (§4.2) — available before MULTISUMS.
    ctx.checkpoint()?;
    let mut reductions = try_with_capacity(m)?;
    reductions
        .extend((0..m).map(|b| comb.combine(spinesum[b].load(Relaxed), rowsum[b].load(Relaxed))));
    drop(spinesums_span);

    // Phase 4 — MULTISUMS, columns left to right. Theorem 1 + Corollary 1:
    // within one column no two elements share a parent, so the read-modify-
    // write below is exclusive within the step; the inter-column barrier is
    // the end of each par_iter. Every element commits the literal serial
    // step `prefix_i ⊕ value_i`, so an untripped checking run certifies the
    // serial evaluation is overflow-free.
    let _multisums_span = ctx.phase_span(Phase::Multisums);
    for c in layout.cols_left_right() {
        ctx.checkpoint()?;
        let col: Vec<usize> = layout.col_elements(c).collect();
        col.into_par_iter().for_each(|i| {
            let parent = spine[m + i].load(Relaxed);
            let prefix = spinesum[parent].load(Relaxed);
            multi[i].store(prefix, Relaxed);
            spinesum[parent].store(comb.combine(prefix, values[i]), Relaxed);
        });
    }

    let sums = multi.into_iter().map(AtomicI64::into_inner).collect();
    Ok(MultiprefixOutput { sums, reductions })
}

/// The combining send, for the plain and the hardened entries: `tripped`,
/// when set, is a checking run's trip flag, and every RMW then goes
/// through [`AtomicCombine::fetch_combine_checked`]. The context is polled
/// before and after the sweep, which is one lock-free parallel step and
/// not interruptible mid-flight.
fn run_reduce<O: AtomicCombine>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    tripped: Option<&AtomicBool>,
    ctx: &RunContext,
) -> Result<Vec<i64>, MpError> {
    validate_lengths(values.len(), labels.len())?;
    ctx.checkpoint()?;
    let buckets = try_cell_vec(m, |_| AtomicI64::new(op.identity()))?;
    values
        .par_iter()
        .zip(labels.par_iter())
        .for_each(|(&v, &l)| match tripped {
            Some(flag) => op.fetch_combine_checked(&buckets[l], v, flag),
            None => op.fetch_combine(&buckets[l], v),
        });
    ctx.checkpoint()?;
    Ok(buckets.into_iter().map(AtomicI64::into_inner).collect())
}

/// Hardened concurrent spinetree multiprefix (see [`crate::exec`] for the
/// `Ok(None)` trip contract) under a [`RunContext`]: unequal lengths are
/// [`MpError::LengthMismatch`], the atomic cell blocks are allocated
/// fallibly, and under a checking policy ROWSUMS uses
/// [`AtomicCombine::fetch_combine_checked`] and the sweep-ordered phases
/// route ⊕ through a trip guard. Labels are not checked; see
/// [`multiprefix_atomic_hardened`].
///
/// The context is polled at every phase boundary and between the `O(√n)`
/// row/column steps of the swept phases — never inside a racing parallel
/// closure, so a cancelled run stops at a step barrier and simply drops its
/// private cell blocks.
pub fn try_multiprefix_atomic_ctx<O: AtomicCombine + TryCombineOp<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<i64>> {
    let tripped = AtomicBool::new(false);
    let guard = CheckGuard::new(op, policy, &tripped);
    let flag = policy.needs_checking().then_some(&tripped);
    let out = run_prefix(values, labels, m, op, guard, flag, ctx)?;
    Ok((!tripped.load(Relaxed)).then_some(out))
}

/// [`try_multiprefix_atomic_ctx`] with the canonical serial-order
/// semantics of [`crate::try_multiprefix`] applied: validates inputs (the
/// labels included), and when a checked
/// combine trips, replays the serial engine under `policy` so the result —
/// `Ok`, or [`MpError::ArithmeticOverflow`] with the serial-order index —
/// is identical to every other engine's. The API's generic entries cannot
/// run [`crate::Engine::Atomic`] (it constrains the element type to
/// `i64`), so this is its canonical entry outside a dispatcher.
pub fn multiprefix_atomic_hardened<O: AtomicCombine + TryCombineOp<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
) -> Result<MultiprefixOutput<i64>, MpError> {
    multiprefix_atomic_hardened_ctx(values, labels, m, op, policy, &RunContext::new())
}

/// [`multiprefix_atomic_hardened`] under a [`RunContext`]; the serial
/// replay after a trip runs under the same context, so a deadline covers
/// the whole canonicalized request.
pub fn multiprefix_atomic_hardened_ctx<O: AtomicCombine + TryCombineOp<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<i64>, MpError> {
    let cfg = ExecConfig::default().overflow(policy);
    Call::new(values, labels, m, op, cfg).run_prefix(Engine::Atomic, ctx, || {
        try_multiprefix_atomic_ctx(values, labels, m, op, policy, ctx)
    })
}

/// Run `f` on a scoped rayon pool of `cfg.threads` workers when that field
/// is set; on the global pool otherwise. A pool-construction failure (the
/// OS refusing threads) is transient [`MpError::Unavailable`] — the
/// dispatcher falls back to the next chain entry.
fn with_thread_scope<R>(
    cfg: ExecConfig,
    f: impl FnOnce() -> TryEngineResult<R> + Send,
) -> TryEngineResult<R>
where
    R: Send,
{
    match cfg.threads {
        None => f(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t.max(1))
            .build()
            .map_err(|_| MpError::Unavailable)?
            .install(f),
    }
}

/// [`try_multiprefix_atomic_ctx`] with the overflow policy *and* thread
/// count taken from an [`ExecConfig`]: when [`ExecConfig::threads`] is set
/// the engine's parallel sweeps run on a scoped rayon pool of that size
/// instead of the global pool, so embeddings can cap per-request
/// parallelism.
pub fn try_multiprefix_atomic_cfg_ctx<O: AtomicCombine + TryCombineOp<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<i64>> {
    with_thread_scope(cfg, || {
        try_multiprefix_atomic_ctx(values, labels, m, op, cfg.overflow, ctx)
    })
}

/// [`try_multireduce_atomic_ctx`] with policy and threads from an
/// [`ExecConfig`] (see [`try_multiprefix_atomic_cfg_ctx`]).
pub fn try_multireduce_atomic_cfg_ctx<O: AtomicCombine + TryCombineOp<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
    ctx: &RunContext,
) -> TryEngineResult<Vec<i64>> {
    with_thread_scope(cfg, || {
        try_multireduce_atomic_ctx(values, labels, m, op, cfg.overflow, ctx)
    })
}

/// Hardened concurrent multireduce under a [`RunContext`]: fallible bucket
/// allocation plus checked RMWs, polled before and after the single
/// combining sweep. Note that even an untripped checked run certifies only
/// "no overflow under *this* combining order" — reduce-only engines never
/// observe the per-element serial steps, so [`crate::try_multireduce`]
/// canonicalizes checking policies through the serial engine instead.
pub fn try_multireduce_atomic_ctx<O: AtomicCombine + TryCombineOp<i64>>(
    values: &[i64],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> TryEngineResult<Vec<i64>> {
    let tripped = AtomicBool::new(false);
    let flag = policy.needs_checking().then_some(&tripped);
    let red = run_reduce(values, labels, m, op, flag, ctx)?;
    Ok((!tripped.load(Relaxed)).then_some(red))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::multiprefix_serial;

    fn mixed(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
        let values = (0..n).map(|i| (i as i64 * 131 % 97) - 48).collect();
        let labels = (0..n).map(|i| (i * 31 + i / 17) % m).collect();
        (values, labels)
    }

    #[test]
    fn plus_matches_serial() {
        let (values, labels) = mixed(5000, 13);
        let got = multiprefix_atomic(&values, &labels, 13, Plus);
        let expect = multiprefix_serial(&values, &labels, 13, Plus);
        assert_eq!(got, expect);
    }

    #[test]
    fn max_matches_serial() {
        let (values, labels) = mixed(3000, 7);
        let got = multiprefix_atomic(&values, &labels, 7, Max);
        let expect = multiprefix_serial(&values, &labels, 7, Max);
        assert_eq!(got, expect);
    }

    #[test]
    fn min_matches_serial() {
        let (values, labels) = mixed(3000, 7);
        let got = multiprefix_atomic(&values, &labels, 7, Min);
        let expect = multiprefix_serial(&values, &labels, 7, Min);
        assert_eq!(got, expect);
    }

    #[test]
    fn or_matches_serial() {
        let values: Vec<i64> = (0..2000).map(|i| 1i64 << (i % 60)).collect();
        let labels: Vec<usize> = (0..2000).map(|i| i % 5).collect();
        let got = multiprefix_atomic(&values, &labels, 5, Or);
        let expect = multiprefix_serial(&values, &labels, 5, Or);
        assert_eq!(got, expect);
    }

    #[test]
    fn and_matches_serial() {
        let values: Vec<i64> = (0..2000).map(|i| !(1i64 << (i % 60))).collect();
        let labels: Vec<usize> = (0..2000).map(|i| i % 3).collect();
        let got = multiprefix_atomic(&values, &labels, 3, And);
        let expect = multiprefix_serial(&values, &labels, 3, And);
        assert_eq!(got, expect);
    }

    #[test]
    fn all_same_label_heavy_load() {
        // Heavy load (§4.3): every element in one class — the maximally
        // contended arbitration case.
        let values: Vec<i64> = (0..4096).map(|i| i as i64).collect();
        let labels = vec![0usize; 4096];
        let got = multiprefix_atomic(&values, &labels, 1, Plus);
        let expect = multiprefix_serial(&values, &labels, 1, Plus);
        assert_eq!(got, expect);
    }

    #[test]
    fn one_label_each_light_load() {
        let n = 2048;
        let values: Vec<i64> = (0..n as i64).collect();
        let labels: Vec<usize> = (0..n).collect();
        let got = multiprefix_atomic(&values, &labels, n, Plus);
        let expect = multiprefix_serial(&values, &labels, n, Plus);
        assert_eq!(got, expect);
    }

    #[test]
    fn repeated_runs_are_deterministic_in_value() {
        // The tree shape may differ run to run (true arbitration); the
        // output must not.
        let (values, labels) = mixed(20_000, 101);
        let first = multiprefix_atomic(&values, &labels, 101, Plus);
        for _ in 0..5 {
            assert_eq!(multiprefix_atomic(&values, &labels, 101, Plus), first);
        }
    }

    #[test]
    fn empty() {
        let got = multiprefix_atomic(&[], &[], 2, Plus);
        assert!(got.sums.is_empty());
        assert_eq!(got.reductions, vec![0, 0]);
    }
}

#[cfg(test)]
mod reduce_tests {
    use super::*;
    use crate::serial::multireduce_serial;

    #[test]
    fn atomic_reduce_matches_serial() {
        let n = 100_000;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 1001 - 500).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 31) % 257).collect();
        assert_eq!(
            multireduce_atomic(&values, &labels, 257, Plus),
            multireduce_serial(&values, &labels, 257, Plus)
        );
        assert_eq!(
            multireduce_atomic(&values, &labels, 257, Max),
            multireduce_serial(&values, &labels, 257, Max)
        );
    }

    #[test]
    fn single_bucket_contention() {
        let values: Vec<i64> = vec![1; 500_000];
        let labels = vec![0usize; 500_000];
        assert_eq!(multireduce_atomic(&values, &labels, 1, Plus), vec![500_000]);
    }

    #[test]
    fn empty_and_absent_labels() {
        assert_eq!(multireduce_atomic(&[], &[], 3, Plus), vec![0, 0, 0]);
        assert_eq!(
            multireduce_atomic(&[7], &[1], 3, Min),
            vec![i64::MAX, 7, i64::MAX]
        );
    }
}
