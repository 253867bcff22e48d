//! The public front door: validated multiprefix / multireduce with engine
//! selection.

use crate::chunked::{self, try_multiprefix_chunked_cfg_ctx, try_multireduce_chunked_cfg_ctx};
use crate::error::MpError;
use crate::exec::{estimate_engine_mem, ExecConfig};
use crate::op::{CombineOp, TryCombineOp};
use crate::oracle::verify_output;
use crate::problem::{validate_lengths, validate_slices, Element, MultiprefixOutput};
use crate::resilience::RunContext;
use crate::serial::{
    multiprefix_serial, multireduce_serial, try_multiprefix_serial_ctx, try_multireduce_serial_ctx,
};
use crate::spinetree::{
    multiprefix_spinetree, multireduce_spinetree, try_multiprefix_spinetree_ctx,
    try_multireduce_spinetree_ctx,
};

/// Which implementation executes the operation.
///
/// All engines compute identical results; they differ in execution
/// strategy. See the module docs of [`crate::serial`], [`crate::spinetree`]
/// and [`crate::chunked`]. (The `i64`-only concurrent engine lives in
/// [`crate::atomic`] and is invoked directly, not through this enum,
/// because it constrains the element type.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The chunked engine on one chunk, at every size: on the hosts
    /// measured so far a split across threads loses to one chunk (DESIGN
    /// §8, "The chunk count"). An explicit [`ExecConfig::threads`] splits
    /// the call into that many chunks, as for [`Engine::Chunked`].
    #[default]
    Auto,
    /// The paper's Figure 2 reference loop.
    Serial,
    /// The paper's `O(√n)`-step spinetree algorithm (vector-simulation
    /// execution: one loop per parallel step).
    Spinetree,
    /// The two-level local/combine/apply engine with label-indexed (or,
    /// for `m ≫ n`, probed) chunk tables and reusable workspaces
    /// ([`crate::chunked`]).
    Chunked,
}

/// Compute the multiprefix of `values` under `labels` with `m` buckets.
///
/// Validates the inputs (`values.len() == labels.len()`, all labels `< m`;
/// the error is the one [`crate::validate`] returns, whatever the engine)
/// and dispatches to the chosen [`Engine`].
///
/// ```
/// use multiprefix::{multiprefix, op::Plus, Engine};
/// let out = multiprefix(&[1i64, 1, 1], &[0, 1, 0], 2, Plus, Engine::Auto).unwrap();
/// assert_eq!(out.sums, vec![0, 0, 1]);
/// assert_eq!(out.reductions, vec![2, 1]);
/// ```
pub fn multiprefix<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
) -> Result<MultiprefixOutput<T>, MpError> {
    validate_input(values, labels, m, engine)?;
    match engine {
        Engine::Auto => chunked::prefix(values, labels, m, op, auto_config(ExecConfig::default())),
        Engine::Chunked => chunked::prefix(values, labels, m, op, ExecConfig::default()),
        Engine::Serial => Ok(multiprefix_serial(values, labels, m, op)),
        Engine::Spinetree => Ok(multiprefix_spinetree(values, labels, m, op)),
    }
}

/// Compute only the per-label reductions (§4.2's cheaper multireduce).
pub fn multireduce<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
) -> Result<Vec<T>, MpError> {
    validate_input(values, labels, m, engine)?;
    match engine {
        Engine::Auto => chunked::reduce(values, labels, m, op, auto_config(ExecConfig::default())),
        Engine::Chunked => chunked::reduce(values, labels, m, op, ExecConfig::default()),
        Engine::Serial => Ok(multireduce_serial(values, labels, m, op)),
        Engine::Spinetree => Ok(multireduce_spinetree(values, labels, m, op)),
    }
}

/// The chunked engine's config for [`Engine::Auto`]: one chunk, unless
/// the caller set [`ExecConfig::threads`].
fn auto_config(config: ExecConfig) -> ExecConfig {
    ExecConfig {
        threads: config.threads.or(Some(1)),
        ..config
    }
}

/// The up-front input check. The chunked engine checks each label where
/// its local loop indexes its table, so for it only the lengths are
/// checked here — unless `m == 1`, where its vector kernels never read a
/// label. The serial and spinetree engines get the full scan.
fn validate_input<T>(
    values: &[T],
    labels: &[usize],
    m: usize,
    engine: Engine,
) -> Result<(), MpError> {
    if matches!(engine, Engine::Auto | Engine::Chunked) && m != 1 {
        validate_lengths(values.len(), labels.len())
    } else {
        validate_slices(values, labels, m)
    }
}

/// [`validate_input`] plus the config's checks. A request that breaks a
/// budget *and* has a bad label reports the label, as when every engine
/// scanned its labels first.
fn admit<T>(
    values: &[T],
    labels: &[usize],
    m: usize,
    engine: Engine,
    config: ExecConfig,
) -> Result<(), MpError> {
    config.validate_for(std::mem::size_of::<T>())?;
    validate_input(values, labels, m, engine)?;
    config
        .check_buckets(m)
        .and_then(|()| {
            config.check_mem(estimate_engine_mem(
                values.len(),
                m,
                std::mem::size_of::<T>(),
            ))
        })
        .map_err(|budget| input_error_first(values, labels, m, budget))
}

/// `err`, unless the input has a bad label: then [`validate_slices`]'s
/// error. The chunked engine checks labels only as far as its loop gets,
/// and a cancel, an expired deadline, an injected fault or a failed
/// allocation can stop it before it reaches the bad one; every other
/// engine would have reported the label.
fn input_error_first<T>(values: &[T], labels: &[usize], m: usize, err: MpError) -> MpError {
    validate_slices(values, labels, m).err().unwrap_or(err)
}

/// Hardened multiprefix: [`multiprefix`] under an explicit [`ExecConfig`].
///
/// On top of the plain API's validation this enforces the config's resource
/// budgets *before any allocation*, allocates the large engine blocks
/// fallibly, contains operator panics in the chunked engine, and applies
/// the configured [`OverflowPolicy`]. See [`crate::exec`] for the full
/// contract; the essentials:
///
/// * all engines return **bit-identical results** — and, under
///   [`crate::exec::OverflowPolicy::Checked`], the **same**
///   [`MpError::ArithmeticOverflow`] with the same serial-order index —
///   for the same input;
/// * `Checked`/`Saturating` semantics are defined by serial (Figure 2)
///   evaluation order. A parallel engine whose checked run trips re-derives
///   the canonical answer with one serial replay; untripped runs are
///   returned directly (the engines compute every serial intermediate, so
///   an untripped run certifies the serial order is overflow-free).
///
/// ```
/// use multiprefix::{try_multiprefix, op::Plus, Engine};
/// use multiprefix::exec::{ExecConfig, OverflowPolicy};
/// use multiprefix::MpError;
///
/// let cfg = ExecConfig::default().overflow(OverflowPolicy::Checked);
/// let err = try_multiprefix(&[i64::MAX, 1], &[0, 0], 1, Plus, Engine::Auto, cfg)
///     .unwrap_err();
/// assert_eq!(err, MpError::ArithmeticOverflow { index: 1 });
/// ```
pub fn try_multiprefix<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
    config: ExecConfig,
) -> Result<MultiprefixOutput<T>, MpError> {
    try_multiprefix_ctx(values, labels, m, op, engine, config, &RunContext::new())
}

/// [`try_multiprefix`] under a [`RunContext`]: the run — including any
/// canonicalizing serial replay — honors the context's deadline and
/// [`crate::CancelToken`], returning [`MpError::DeadlineExceeded`] /
/// [`MpError::Cancelled`] from the next checkpoint (phase boundaries and
/// every [`crate::resilience::CHECK_STRIDE`] loop iterations). Also
/// rejects configs no request can satisfy via
/// [`ExecConfig::validate_for`].
///
/// ```
/// use multiprefix::{try_multiprefix_ctx, op::Plus, Engine, ExecConfig, MpError, RunContext};
///
/// let cancel = multiprefix::CancelToken::new();
/// cancel.cancel();
/// let ctx = RunContext::new().with_cancel(&cancel);
/// let err = try_multiprefix_ctx(&[1i64], &[0], 1, Plus, Engine::Auto,
///                               ExecConfig::default(), &ctx).unwrap_err();
/// assert_eq!(err, MpError::Cancelled);
/// ```
pub fn try_multiprefix_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
    config: ExecConfig,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<T>, MpError> {
    admit(values, labels, m, engine, config)?;
    let run_chunked = |config| {
        try_multiprefix_chunked_cfg_ctx(values, labels, m, op, config, ctx)
            .map_err(|err| input_error_first(values, labels, m, err))
    };
    let tripped = match engine {
        Engine::Auto => run_chunked(auto_config(config))?,
        Engine::Chunked => run_chunked(config)?,
        Engine::Spinetree => {
            try_multiprefix_spinetree_ctx(values, labels, m, op, config.overflow, ctx)?
        }
        Engine::Serial => {
            return try_multiprefix_serial_ctx(values, labels, m, op, config.overflow, ctx)
        }
    };
    match tripped {
        Some(out) => Ok(out),
        // A checked combine tripped: the engine's grouping overflowed
        // somewhere, so the canonical (serial-order) answer — a result or
        // the first-overflow index — comes from one serial replay.
        None => try_multiprefix_serial_ctx(values, labels, m, op, config.overflow, ctx),
    }
}

/// Hardened multireduce: [`multireduce`] under an [`ExecConfig`].
///
/// Under a checking policy this always evaluates serially: a reduce-only
/// engine combines row/chunk *subtotals*, never the per-element serial
/// steps, so even an overflow-free engine run cannot certify that the
/// serial order (which defines `Checked`/`Saturating` semantics) is
/// overflow-free — e.g. chunks `[MAX]` and `[1, −1]` combine cleanly while
/// the serial prefix trips at `MAX + 1`. Under `Wrap` (the default) the
/// parallel engines run as usual with budgets, fallible allocation and (for
/// the chunked engine) panic containment.
pub fn try_multireduce<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
    config: ExecConfig,
) -> Result<Vec<T>, MpError> {
    try_multireduce_ctx(values, labels, m, op, engine, config, &RunContext::new())
}

/// [`try_multireduce`] under a [`RunContext`]; see [`try_multiprefix_ctx`]
/// for the deadline/cancellation contract.
pub fn try_multireduce_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
    config: ExecConfig,
    ctx: &RunContext,
) -> Result<Vec<T>, MpError> {
    let engine = if config.overflow.needs_checking() {
        Engine::Serial
    } else {
        engine
    };
    admit(values, labels, m, engine, config)?;
    let run_chunked = |config| {
        try_multireduce_chunked_cfg_ctx(values, labels, m, op, config, ctx)
            .map_err(|err| input_error_first(values, labels, m, err))
    };
    let clean = match engine {
        Engine::Auto => run_chunked(auto_config(config))?,
        Engine::Chunked => run_chunked(config)?,
        Engine::Spinetree => {
            try_multireduce_spinetree_ctx(values, labels, m, op, config.overflow, ctx)?
        }
        Engine::Serial => {
            return try_multireduce_serial_ctx(values, labels, m, op, config.overflow, ctx)
        }
    };
    match clean {
        Some(red) => Ok(red),
        None => try_multireduce_serial_ctx(values, labels, m, op, config.overflow, ctx),
    }
}

/// Self-checking multiprefix: run the chosen engine, then cross-validate
/// the full output cell-by-cell against an independent serial (Figure 2)
/// evaluation. Any disagreement — an engine bug, a corrupted arbitration
/// write (see the `pram` crate's fault-injection harness), a soft memory
/// error — surfaces as [`MpError::VerificationFailed`] instead of silently
/// wrong data. Costs one extra `O(n + m)` serial pass.
///
/// When the selected engine is `Serial` the check still runs (two
/// independent serial evaluations): this mode's contract is "the returned
/// output was reproduced twice", not "the engine was parallel".
pub fn multiprefix_verified<T: Element + PartialEq, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
) -> Result<MultiprefixOutput<T>, MpError> {
    let out = multiprefix(values, labels, m, op, engine)?;
    verify_output(values, labels, m, op, &out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;

    #[test]
    fn engines_agree() {
        let values: Vec<i64> = (0..2500).map(|i| (i % 17) as i64 - 8).collect();
        let labels: Vec<usize> = (0..2500).map(|i| (i * 3 + 1) % 11).collect();
        let reference = multiprefix(&values, &labels, 11, Plus, Engine::Serial).unwrap();
        for engine in [Engine::Spinetree, Engine::Chunked, Engine::Auto] {
            assert_eq!(
                multiprefix(&values, &labels, 11, Plus, engine).unwrap(),
                reference,
                "{engine:?}"
            );
        }
    }

    #[test]
    fn validation_happens_before_dispatch() {
        for engine in [
            Engine::Serial,
            Engine::Spinetree,
            Engine::Chunked,
            Engine::Auto,
        ] {
            let err = multiprefix(&[1i64], &[3], 2, Plus, engine).unwrap_err();
            assert!(matches!(err, MpError::LabelOutOfRange { .. }), "{engine:?}");
            let err = multiprefix(&[1i64, 2], &[0], 2, Plus, engine).unwrap_err();
            assert!(matches!(err, MpError::LengthMismatch { .. }), "{engine:?}");
        }
    }

    #[test]
    fn auto_is_exact_at_every_size() {
        // One chunk and, with an explicit thread count, several: the
        // chunk count is an implementation detail; the answer is not.
        for n in [100usize, 20_000] {
            let values: Vec<i64> = (0..n as i64).collect();
            let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
            let expect = multiprefix_serial(&values, &labels, 3, Plus);
            let out = multiprefix(&values, &labels, 3, Plus, Engine::Auto).unwrap();
            assert_eq!(out, expect, "n={n}");
            let cfg = ExecConfig::default().threads(4);
            let out = try_multiprefix(&values, &labels, 3, Plus, Engine::Auto, cfg).unwrap();
            assert_eq!(out, expect, "n={n} threads=4");
        }
    }

    #[test]
    fn multireduce_engines_agree() {
        let values: Vec<i64> = (0..4000).map(|i| i as i64).collect();
        let labels: Vec<usize> = (0..4000).map(|i| i % 7).collect();
        let reference = multireduce(&values, &labels, 7, Plus, Engine::Serial).unwrap();
        for engine in [Engine::Spinetree, Engine::Chunked, Engine::Auto] {
            assert_eq!(
                multireduce(&values, &labels, 7, Plus, engine).unwrap(),
                reference,
                "{engine:?}"
            );
        }
    }
}

/// Inclusive multiprefix: `sums[i]` *includes* element `i` itself
/// (`s_i = ⊕ { a_j | l_j = l_i, j ≤ i }`). Computed as the exclusive
/// multiprefix with each element's own value appended — one extra `O(n)`
/// pass, no second engine run.
pub fn multiprefix_inclusive<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    engine: Engine,
) -> Result<MultiprefixOutput<T>, MpError> {
    let mut out = multiprefix(values, labels, m, op, engine)?;
    for (s, &v) in out.sums.iter_mut().zip(values) {
        *s = op.combine(*s, v);
    }
    Ok(out)
}

#[cfg(test)]
mod inclusive_tests {
    use super::*;
    use crate::op::{Max, Plus};

    #[test]
    fn inclusive_includes_self() {
        let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
        let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
        let out = multiprefix_inclusive(&values, &labels, 4, Plus, Engine::Serial).unwrap();
        assert_eq!(out.sums, vec![1, 3, 3, 4, 4, 6, 7, 8]);
        assert_eq!(out.reductions, vec![0, 8, 6, 0]);
    }

    #[test]
    fn last_of_each_class_equals_reduction() {
        let values: Vec<i64> = (0..200).map(|i| i % 13 - 6).collect();
        let labels: Vec<usize> = (0..200).map(|i| i % 7).collect();
        let out = multiprefix_inclusive(&values, &labels, 7, Plus, Engine::Chunked).unwrap();
        // For each label, the last occurrence's inclusive sum is the
        // label's reduction.
        for k in 0..7 {
            let last = (0..200).rev().find(|&i| labels[i] == k).unwrap();
            assert_eq!(out.sums[last], out.reductions[k]);
        }
    }

    #[test]
    fn inclusive_max() {
        let values = [5i64, 1, 9];
        let labels = [0usize, 0, 0];
        let out = multiprefix_inclusive(&values, &labels, 1, Max, Engine::Serial).unwrap();
        assert_eq!(out.sums, vec![5, 5, 9]);
    }
}
