//! The public front door: validated multiprefix / multireduce with engine
//! selection, and the engine tables the
//! [`crate::resilience::Dispatcher`] runs its attempts through.

use crate::chunked::{self, try_multiprefix_chunked_cfg_ctx, try_multireduce_chunked_cfg_ctx};
use crate::error::MpError;
use crate::exec::{estimate_engine_mem, ExecConfig, TryEngineResult};
use crate::op::{CombineOp, TryCombineOp};
use crate::oracle::verify_output;
use crate::problem::{validate_slices, Element, MultiprefixOutput};
use crate::resilience::RunContext;
use crate::serial::{
    multiprefix_serial, multireduce_serial, try_multiprefix_serial_ctx, try_multireduce_serial_ctx,
};
use crate::spinetree::engine::{
    multiprefix_spinetree, multireduce_spinetree, try_multiprefix_spinetree_ctx,
    try_multireduce_spinetree_ctx,
};

/// Which implementation executes the operation: the one engine selector
/// of the plain and hardened API, the [`crate::resilience::Dispatcher`]'s
/// fallback chain, chaos targeting and the instrument keys.
///
/// All engines compute the same operation; they differ in execution
/// strategy, and on floats in how they group the combines (see
/// [`try_multiprefix`] for the bit-level contract). See the module docs
/// of [`crate::serial`], [`crate::spinetree`], [`crate::chunked`],
/// [`crate::atomic`] and [`crate::shard`].
/// The API calls report [`MpError::Unavailable`] for [`Engine::Atomic`],
/// which only [`crate::atomic`]'s own entries run, and for
/// [`Engine::Sharded`], which needs the shard supervisor only a dispatcher
/// has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The library's pick. It runs, reports and is keyed as
    /// [`Engine::Chunked`].
    #[default]
    Auto,
    /// The paper's Figure 2 reference loop — the engine of last resort: no
    /// parallel runtime, no auxiliary structures.
    Serial,
    /// The paper's `O(√n)`-step spinetree algorithm (vector-simulation
    /// execution: one loop per parallel step).
    Spinetree,
    /// The two-level local/combine/apply engine ([`crate::chunked`]), on
    /// one chunk unless [`ExecConfig::threads`] is set.
    Chunked,
    /// The concurrent CRCW-ARB engine ([`crate::atomic`]): `i64` and
    /// commutative operators only. It reproduces the paper's machine and
    /// runs only through its own module's entries: the API reports
    /// [`MpError::Unavailable`] for it and a dispatcher skips it. It stays
    /// an engine for chaos targeting and the instrument keys.
    Atomic,
    /// The fault-tolerant sharded engine ([`crate::shard`]), run only by a
    /// dispatcher with [`crate::resilience::DispatcherConfig::shard`] set,
    /// and only for prefixes.
    Sharded,
}

impl Engine {
    /// Every engine that runs ([`Engine::Auto`] runs as
    /// [`Engine::Chunked`]).
    pub const ALL: [Engine; 5] = [
        Engine::Atomic,
        Engine::Sharded,
        Engine::Chunked,
        Engine::Spinetree,
        Engine::Serial,
    ];

    /// The engine that runs: [`Engine::Chunked`] for [`Engine::Auto`],
    /// the engine itself otherwise.
    pub fn resolve(self) -> Engine {
        match self {
            Engine::Auto => Engine::Chunked,
            engine => engine,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Auto => "auto",
            Engine::Serial => "serial",
            Engine::Spinetree => "spinetree",
            Engine::Chunked => "chunked",
            Engine::Atomic => "atomic",
            Engine::Sharded => "shard",
        })
    }
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
    scan_labels(engine, values, labels, m)?;
    match engine {
        Engine::Auto | Engine::Chunked => chunked::prefix(values, labels, m, op),
        Engine::Serial => Ok(multiprefix_serial(values, labels, m, op)),
        Engine::Spinetree => Ok(multiprefix_spinetree(values, labels, m, op)),
        Engine::Atomic | Engine::Sharded => Err(MpError::Unavailable),
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
    scan_labels(engine, values, labels, m)?;
    match engine {
        Engine::Auto | Engine::Chunked => chunked::reduce(values, labels, m, op),
        Engine::Serial => Ok(multireduce_serial(values, labels, m, op)),
        Engine::Spinetree => Ok(multireduce_spinetree(values, labels, m, op)),
        Engine::Atomic | Engine::Sharded => Err(MpError::Unavailable),
    }
}

/// The label scan the plain entries need before `engine` runs. The chunked
/// engine returns a bad input's error itself — it checks lengths first and
/// each label where its local loop indexes its table — except with
/// `m == 1`, where its vector kernels never read a label. The serial and
/// spinetree engines' plain entries panic on a bad input, so they get the
/// full scan.
fn scan_labels<T>(engine: Engine, values: &[T], labels: &[usize], m: usize) -> Result<(), MpError> {
    if engine.resolve() == Engine::Chunked && m != 1 {
        Ok(())
    } else {
        validate_slices(values, labels, m)
    }
}

/// Hardened multiprefix: [`multiprefix`] under an explicit [`ExecConfig`].
///
/// On top of the plain API's validation this enforces the config's resource
/// budgets *before any allocation*, allocates the large engine blocks
/// fallibly, contains operator panics in the chunked engine, and applies
/// the configured [`crate::exec::OverflowPolicy`]. See [`crate::exec`] for
/// the full contract; the essentials:
///
/// * on integer operators (and any other exactly associative one, such
///   as [`crate::op::FirstLast`] over integers) every engine returns
///   **serial's bits** — and, under
///   [`crate::exec::OverflowPolicy::Checked`], the **same**
///   [`MpError::ArithmeticOverflow`] with the same serial-order index —
///   for the same input;
/// * on floats only [`Engine::Serial`] and the chunked engine on one
///   chunk — every [`ExecConfig`] entry, [`Engine::Auto`] among them,
///   unless [`ExecConfig::threads`] is set or the opt-in
///   [`ExecConfig::simd_f32`] kernel runs — combine in serial order and
///   return serial's bits. A split chunked run, [`Engine::Spinetree`] and
///   the sharded engine group the combines their own way, so a float sum
///   that rounds can come out different;
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
    let call = Call::new(values, labels, m, op, config);
    call.admit()?;
    call.prefix(engine, ctx)
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
    let call = Call::new(values, labels, m, op, config);
    call.admit()?;
    call.reduce(engine, ctx)
}

/// One hardened request as the engine tables take it. The
/// [`RunContext`] is passed per run: the dispatcher builds one per attempt.
#[derive(Clone, Copy)]
pub(crate) struct Call<'a, T, O> {
    pub(crate) values: &'a [T],
    pub(crate) labels: &'a [usize],
    pub(crate) m: usize,
    pub(crate) op: O,
    pub(crate) config: ExecConfig,
}

impl<'a, T: Element, O: TryCombineOp<T>> Call<'a, T, O> {
    pub(crate) fn new(v: &'a [T], l: &'a [usize], m: usize, op: O, config: ExecConfig) -> Self {
        Call {
            values: v,
            labels: l,
            m,
            op,
            config,
        }
    }

    /// The checks no engine makes: the config's own, then its budgets. A
    /// request that breaks a budget *and* has a bad input reports the
    /// input ([`Self::input_error_first`]).
    pub(crate) fn admit(self) -> Result<(), MpError> {
        let (config, size) = (self.config, std::mem::size_of::<T>());
        config.validate_for(size)?;
        config
            .check_buckets(self.m)
            .and_then(|()| config.check_mem(estimate_engine_mem(self.values.len(), self.m, size)))
            .map_err(|budget| self.input_error_first(budget))
    }

    /// `err`, unless the input is invalid: then [`validate_slices`]'s
    /// error. An engine checks labels only as far as its loop gets, and a
    /// cancel, an expired deadline, an injected fault, a failed allocation
    /// or a checked overflow can stop it before it reaches the bad one.
    pub(crate) fn input_error_first(self, err: MpError) -> MpError {
        validate_slices(self.values, self.labels, self.m)
            .err()
            .unwrap_or(err)
    }

    /// The prefix table, shared by [`try_multiprefix_ctx`] and every
    /// dispatcher entry: `engine`'s hardened call, run through
    /// [`Self::run_prefix`]. [`Engine::Sharded`] is the dispatcher's own
    /// arm; here it is [`MpError::Unavailable`], as [`Engine::Atomic`] is.
    pub(crate) fn prefix(
        self,
        engine: Engine,
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        let (v, l, m, op, cfg) = (self.values, self.labels, self.m, self.op, self.config);
        self.run_prefix(engine, ctx, || match engine {
            Engine::Auto | Engine::Chunked => {
                try_multiprefix_chunked_cfg_ctx(v, l, m, op, cfg, ctx)
            }
            Engine::Spinetree => try_multiprefix_spinetree_ctx(v, l, m, op, cfg.overflow, ctx),
            Engine::Serial => try_multiprefix_serial_ctx(v, l, m, op, cfg.overflow, ctx).map(Some),
            Engine::Atomic | Engine::Sharded => Err(MpError::Unavailable),
        })
    }

    /// The reduce table: [`Self::prefix`] for reductions, run through
    /// [`Self::run_reduce`]. [`Engine::Atomic`] and [`Engine::Sharded`]
    /// are [`MpError::Unavailable`] under every policy, as in the prefix
    /// table: a checking policy's serial replay is not theirs to serve.
    pub(crate) fn reduce(self, engine: Engine, ctx: &RunContext) -> Result<Vec<T>, MpError> {
        let (v, l, m, op, cfg) = (self.values, self.labels, self.m, self.op, self.config);
        let run = || match engine {
            Engine::Auto | Engine::Chunked => {
                try_multireduce_chunked_cfg_ctx(v, l, m, op, cfg, ctx)
            }
            Engine::Spinetree => try_multireduce_spinetree_ctx(v, l, m, op, cfg.overflow, ctx),
            Engine::Serial => try_multireduce_serial_ctx(v, l, m, op, cfg.overflow, ctx).map(Some),
            Engine::Atomic | Engine::Sharded => Err(MpError::Unavailable),
        };
        match engine {
            Engine::Atomic | Engine::Sharded => {
                self.canonical(engine, run, || Err(MpError::Unavailable))
            }
            _ => self.run_reduce(engine, ctx, run),
        }
    }

    /// `engine`'s hardened `run`, made canonical:
    ///
    /// * the labels are scanned first only for the chunked engine with
    ///   `m == 1`, whose vector kernels never read them: every other
    ///   hardened engine returns a bad input's error itself, and the shard
    ///   supervisor scans the labels before it distributes;
    /// * when a checked combine trips, the engine's grouping overflowed
    ///   somewhere, so the canonical answer — a result or the
    ///   first-overflow index — comes from one serial replay under `ctx`;
    /// * any error on an invalid input is [`crate::validate`]'s
    ///   ([`Self::input_error_first`]), so the dispatcher returns a bad
    ///   request's error at once instead of trying the next entry.
    pub(crate) fn run_prefix(
        self,
        engine: Engine,
        ctx: &RunContext,
        run: impl FnOnce() -> TryEngineResult<MultiprefixOutput<T>>,
    ) -> Result<MultiprefixOutput<T>, MpError> {
        let (v, l, m, op, cfg) = (self.values, self.labels, self.m, self.op, self.config);
        self.canonical(engine, run, || {
            try_multiprefix_serial_ctx(v, l, m, op, cfg.overflow, ctx)
        })
    }

    /// [`Self::run_prefix`] for reductions. Under a checking policy the
    /// reduction always runs serially (see [`try_multireduce`]), whatever
    /// `engine` is.
    pub(crate) fn run_reduce(
        self,
        engine: Engine,
        ctx: &RunContext,
        run: impl FnOnce() -> TryEngineResult<Vec<T>>,
    ) -> Result<Vec<T>, MpError> {
        let (v, l, m, op, cfg) = (self.values, self.labels, self.m, self.op, self.config);
        let serial = || try_multireduce_serial_ctx(v, l, m, op, cfg.overflow, ctx);
        if cfg.overflow.needs_checking() {
            self.canonical(Engine::Serial, || serial().map(Some), serial)
        } else {
            self.canonical(engine, run, serial)
        }
    }

    fn canonical<R>(
        self,
        engine: Engine,
        run: impl FnOnce() -> TryEngineResult<R>,
        replay: impl FnOnce() -> Result<R, MpError>,
    ) -> Result<R, MpError> {
        let checked = || {
            // Where no shard supervisor runs, `Sharded` is `Unavailable`,
            // and `input_error_first` reports a bad input in its place.
            if engine.resolve() == Engine::Chunked && self.m == 1 {
                validate_slices(self.values, self.labels, self.m)?;
            }
            run()?.map_or_else(replay, Ok)
        };
        checked().map_err(|err| self.input_error_first(err))
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
    fn dispatcher_only_engines_are_unavailable_here() {
        // Atomic runs only through its own module's entries and Sharded
        // needs a shard supervisor; a bad input still reports
        // `validate()`'s error first.
        let cfg = ExecConfig::default();
        for engine in [Engine::Atomic, Engine::Sharded] {
            let unavailable = Err(MpError::Unavailable);
            assert_eq!(multiprefix(&[1i64], &[0], 1, Plus, engine), unavailable);
            let reduced = try_multireduce(&[1i64], &[0], 1, Plus, engine, cfg);
            assert_eq!(reduced, Err(MpError::Unavailable));
            let err = try_multiprefix(&[1i64], &[3], 2, Plus, engine, cfg).unwrap_err();
            assert!(matches!(err, MpError::LabelOutOfRange { .. }), "{engine}");
        }
        assert_eq!(Engine::Auto.resolve(), Engine::Chunked);
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
