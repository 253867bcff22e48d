//! The hardened execution layer: overflow policies, resource budgets and
//! fallible allocation.
//!
//! The plain [`crate::multiprefix`] API follows the paper's conventions —
//! integer `PLUS` wraps, memory is allocated infallibly, a panicking
//! operator unwinds through the engine. [`crate::try_multiprefix`] takes an
//! [`ExecConfig`] instead and turns each of those hazards into an
//! [`MpError`]:
//!
//! * **overflow** — [`OverflowPolicy::Checked`] reports
//!   [`MpError::ArithmeticOverflow`]; [`OverflowPolicy::Saturating`] clamps;
//!   [`OverflowPolicy::Wrap`] keeps the paper's two's-complement semantics;
//! * **capacity** — `max_buckets` / `max_mem_bytes` reject oversized
//!   requests with [`MpError::CapacityOverflow`] *before* any allocation;
//! * **allocation** — the engines' large blocks are reserved with
//!   `Vec::try_reserve_exact`, so a refusal surfaces as
//!   [`MpError::AllocationFailed`] instead of an abort;
//! * **panics** — the chunked engine contains operator panics and returns
//!   [`MpError::EnginePanicked`].
//!
//! ## Why checked/saturating semantics are defined by serial order
//!
//! Checked and saturating arithmetic are **not associative**: with 64-bit
//! values, `(2⁶² + 2⁶²) + (−2⁶²)` trips where `2⁶² + (2⁶² + (−2⁶²))` does
//! not. A parallel engine regroups the combination tree, so naively checked
//! engines would disagree about *whether* and *where* an overflow occurs.
//! This crate therefore defines the `Checked` and `Saturating` results as
//! those of the serial (Figure 2) evaluation order, and parallel engines
//! guarantee agreement by construction:
//!
//! 1. the engine runs with checked combines; if **no** combine trips, every
//!    serially-observed intermediate was computed somewhere in the engine
//!    (each output `sums[i]` and reduction *is* such an intermediate), so
//!    the serial run cannot trip either and the wrap/checked/saturating
//!    results all coincide — the engine's answer is returned as-is;
//! 2. if **any** combine trips, the engine's grouping diverged (or serial
//!    would trip too); the input is re-evaluated by the serial engine under
//!    the policy, and *its* canonical result — `Ok`, or
//!    `ArithmeticOverflow` with the serial-order index — is returned.
//!
//! The replay costs one serial pass, only on inputs that actually overflow
//! somewhere; overflow-free inputs (the overwhelmingly common case) run at
//! full engine speed.
//!
//! ## Huge pages for buffers written in full
//!
//! Every engine reserves a buffer it then writes in full through one
//! function, `try_with_capacity`: the element outputs (`sums`) of the
//! serial, chunked and sharded engines, every table [`try_filled_vec`]
//! fills (the hardened path's reductions and pivot blocks), and the
//! atomic engine's cell blocks. On Linux, a buffer of at least 4 MiB gets
//! `madvise(MADV_HUGEPAGE)` on its 2 MiB-aligned interior before its
//! first write. The first touch of a fresh 4 KiB page costs a page fault,
//! about as long as the Figure 2 loop takes over the page's 512 `i64`s,
//! and glibc maps every buffer of 32 MiB or more afresh on each call, so
//! without the advice such an output pays one fault per 4 KiB on every
//! call. The advice changes no byte and its result is ignored.
//!
//! The plain path's identity tables (the `m`-sized reduction vector, the
//! spinetree's pivot blocks) are never advised: they come from `calloc`
//! (`vec![identity; len]`), whose untouched zero pages stay unmapped, so
//! an `m ≫ n` call maps only the pages of the labels it touches. Advised,
//! each touched label would map a whole 2 MiB page.

use crate::error::MpError;
use crate::op::TryCombineOp;
use crate::problem::Element;
use std::sync::atomic::{AtomicBool, Ordering};

/// What integer combines do when the mathematical result does not fit the
/// element type. See the module docs for the evaluation-order contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Two's-complement wraparound — the behavior of the plain API and of
    /// the paper's FORTRAN. Never fails.
    #[default]
    Wrap,
    /// Report [`MpError::ArithmeticOverflow`] at the first element whose
    /// serial-order combine overflows.
    Checked,
    /// Clamp to the representable range (serial evaluation order). Never
    /// fails.
    Saturating,
}

impl OverflowPolicy {
    /// Whether engines must run their checked-combining path (anything but
    /// `Wrap`).
    #[inline(always)]
    pub(crate) fn needs_checking(self) -> bool {
        !matches!(self, OverflowPolicy::Wrap)
    }
}

/// Execution limits and overflow discipline for [`crate::try_multiprefix`] /
/// [`crate::try_multireduce`].
///
/// `Default` is permissive: wraparound arithmetic, no budgets — the plain
/// API's semantics plus panic containment and fallible allocation.
///
/// ```
/// use multiprefix::exec::{ExecConfig, OverflowPolicy};
/// let cfg = ExecConfig::default()
///     .overflow(OverflowPolicy::Checked)
///     .max_buckets(1 << 20)
///     .max_mem_bytes(1 << 30);
/// assert_eq!(cfg.overflow, OverflowPolicy::Checked);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Overflow discipline for integer combines.
    pub overflow: OverflowPolicy,
    /// Maximum admissible bucket count `m` (`None` = unlimited). Guards the
    /// `O(m)` reduction/bucket tables against `m = 10¹²`-style requests.
    pub max_buckets: Option<usize>,
    /// Maximum estimated engine working memory in bytes (`None` =
    /// unlimited), checked against [`estimate_engine_mem`] before any
    /// allocation happens.
    pub max_mem_bytes: Option<usize>,
    /// Worker-thread count for the parallel engines: the `chunked` engine
    /// splits the call into this many chunks, and the `atomic` engine runs
    /// in a scoped rayon pool of this size. `None` means one chunk for the
    /// chunked engine (DESIGN §8, "The chunk count": a split has not paid
    /// on any host measured so far) and the available parallelism for the
    /// atomic engine.
    pub threads: Option<usize>,
}

impl ExecConfig {
    /// Set the overflow policy.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Set the bucket-count budget.
    pub fn max_buckets(mut self, m: usize) -> Self {
        self.max_buckets = Some(m);
        self
    }

    /// Set the working-memory budget.
    pub fn max_mem_bytes(mut self, bytes: usize) -> Self {
        self.max_mem_bytes = Some(bytes);
        self
    }

    /// Set the worker-thread count for the parallel engines (clamped to at
    /// least 1 at use).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The worker-thread count to run with: [`ExecConfig::threads`] when
    /// set, otherwise the machine's available parallelism; never zero.
    ///
    /// The host value is resolved once per process: on Linux
    /// `available_parallelism` reads cgroup files on every call, which
    /// costs more than a whole small request's engine run.
    pub fn effective_threads(&self) -> usize {
        static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        self.threads
            .unwrap_or_else(|| {
                *HOST.get_or_init(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
            })
            .max(1)
    }

    /// Reject configurations that can never admit a request: a bucket
    /// budget of zero (every multiprefix needs `m ≥ 1`... and even `m = 0`
    /// requests pass `check_buckets(0)` only to produce empty outputs — a
    /// zero budget is always a misconfiguration, not a policy) or a memory
    /// budget smaller than a single element of the requested type.
    ///
    /// Called by [`crate::resilience::Dispatcher::new`] at construction and
    /// by the `ctx` entry points per request, so a nonsensical config
    /// surfaces as [`MpError::InvalidConfig`] instead of rejecting every
    /// request with a confusing capacity error.
    pub fn validate_for(&self, elem_size: usize) -> Result<(), MpError> {
        if self.max_buckets == Some(0) {
            return Err(MpError::InvalidConfig {
                what: "max_buckets is zero; no request can be admitted",
            });
        }
        if let Some(limit) = self.max_mem_bytes {
            if limit < elem_size.max(1) {
                return Err(MpError::InvalidConfig {
                    what: "max_mem_bytes is smaller than one element; no request can be admitted",
                });
            }
        }
        Ok(())
    }

    /// Enforce the bucket budget.
    pub(crate) fn check_buckets(&self, m: usize) -> Result<(), MpError> {
        match self.max_buckets {
            Some(limit) if m > limit => Err(MpError::CapacityOverflow {
                what: "buckets",
                requested: m,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// Enforce the memory budget against an estimate in bytes.
    pub(crate) fn check_mem(&self, estimated: usize) -> Result<(), MpError> {
        match self.max_mem_bytes {
            Some(limit) if estimated > limit => Err(MpError::CapacityOverflow {
                what: "engine memory",
                requested: estimated,
                limit,
            }),
            _ => Ok(()),
        }
    }
}

/// Upper-bound estimate of an engine's working memory in bytes for a
/// problem of `n` elements over `m` buckets with `elem_size`-byte elements.
/// Deliberately conservative (the pivot block of §4.1 is `O(n + m)`): the
/// spinetree engine's four `n + m` temporaries dominate every engine, so
/// one bound serves all of them. Saturates instead of overflowing `usize`.
pub fn estimate_engine_mem(n: usize, m: usize, elem_size: usize) -> usize {
    let slots = n.saturating_add(m);
    // sums (n) + rowsum/spinesum (2 slots) of T, spine (slots) of usize,
    // has_child (slots) bytes.
    let elems = n
        .saturating_add(slots.saturating_mul(2))
        .saturating_mul(elem_size.max(1));
    let spine = slots.saturating_mul(std::mem::size_of::<usize>());
    elems.saturating_add(spine).saturating_add(slots)
}

/// Outcome of a hardened parallel-engine run.
///
/// * `Ok(Some(out))` — the engine completed and **no** checked combine
///   tripped: by the argument in the module docs, `out` is bit-identical to
///   the serial result under any policy.
/// * `Ok(None)` — at least one checked combine tripped; the engine's result
///   is not canonical and the caller must replay the serial engine under
///   the policy.
/// * `Err(e)` — a hard failure (budget, allocation, panic) to propagate.
pub type TryEngineResult<T> = Result<Option<T>, MpError>;

/// A combine wrapper the parallel engines thread through their hot loops:
/// under `Wrap` it is the plain operator (no branch taken on the identity
/// comparison path, `checking` is a loop-invariant bool); otherwise every
/// combine is checked, and a trip latches the shared flag and falls back to
/// the wrapping result so the engine completes without early-exit plumbing.
/// Whether the output is usable is decided once, at the end, from the flag.
pub(crate) struct CheckGuard<'a, O> {
    op: O,
    checking: bool,
    tripped: &'a AtomicBool,
}

impl<O: Copy> Clone for CheckGuard<'_, O> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<O: Copy> Copy for CheckGuard<'_, O> {}

impl<'a, O: Copy> CheckGuard<'a, O> {
    pub(crate) fn new(op: O, policy: OverflowPolicy, tripped: &'a AtomicBool) -> Self {
        CheckGuard {
            op,
            checking: policy.needs_checking(),
            tripped,
        }
    }

    /// The wrapped operator's identity (policies do not change it).
    #[inline(always)]
    pub(crate) fn identity<T: Element>(&self) -> T
    where
        O: crate::op::CombineOp<T>,
    {
        self.op.identity()
    }

    #[inline(always)]
    pub(crate) fn combine<T: Element>(&self, a: T, b: T) -> T
    where
        O: TryCombineOp<T>,
    {
        if self.checking {
            match self.op.checked_combine(a, b) {
                Some(r) => r,
                None => {
                    self.tripped.store(true, Ordering::Relaxed);
                    self.op.combine(a, b)
                }
            }
        } else {
            self.op.combine(a, b)
        }
    }
}

/// Allocate a `len`-element vector filled with `fill`, failing with
/// [`MpError::AllocationFailed`] instead of aborting when the allocator
/// refuses. The engines use this for every block whose size depends on
/// caller input (`n + m` pivot temporaries, per-chunk tables).
pub fn try_filled_vec<T: Element>(fill: T, len: usize) -> Result<Vec<T>, MpError> {
    let mut v = try_with_capacity(len)?;
    v.resize(len, fill);
    Ok(v)
}

/// An empty vector with room for exactly `len` elements, failing with
/// [`MpError::AllocationFailed`] instead of aborting when the allocator
/// refuses: the buffer an engine then writes in full, element by element.
/// A buffer of at least [`HUGE_PAGE_MIN_BYTES`] is advised to the kernel
/// for transparent huge pages before its first write (see the module
/// docs).
pub(crate) fn try_with_capacity<T>(len: usize) -> Result<Vec<T>, MpError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| MpError::AllocationFailed {
            bytes: len.saturating_mul(std::mem::size_of::<T>()),
        })?;
    advise_huge_pages(&v);
    Ok(v)
}

/// The smallest buffer [`try_with_capacity`] advises for huge pages: the
/// size at which a buffer's 2 MiB-aligned interior always holds at least
/// one huge page (NumPy advises its arrays from the same size).
const HUGE_PAGE_MIN_BYTES: usize = 4 << 20;

/// The transparent huge page size on x86-64 and on 4 KiB-page arm64.
const HUGE_PAGE: usize = 2 << 20;

/// The span to advise in a buffer of `len` elements of `T` at address
/// `addr`: its interior from the first to the last 2 MiB boundary, or an
/// empty span when the buffer holds fewer than [`HUGE_PAGE_MIN_BYTES`]
/// (zero-sized `T` included).
fn huge_page_span<T>(addr: usize, len: usize) -> std::ops::Range<usize> {
    let bytes = len.saturating_mul(std::mem::size_of::<T>());
    if bytes < HUGE_PAGE_MIN_BYTES {
        return 0..0;
    }
    let start = addr.saturating_add(HUGE_PAGE - 1) & !(HUGE_PAGE - 1);
    let end = addr.saturating_add(bytes) & !(HUGE_PAGE - 1);
    start..end.max(start)
}

/// `madvise(MADV_HUGEPAGE)` on the interior of `v`'s fresh allocation
/// ([`huge_page_span`]), so its first writes fault one 2 MiB page at a
/// time instead of one 4 KiB page. A hint only: no byte changes, and a
/// refusal (huge pages disabled, an old kernel) leaves the buffer on
/// small pages, so the result is ignored. Other systems, and Miri, which
/// does not interpret the call, skip it.
fn advise_huge_pages<T>(v: &Vec<T>) {
    let span = huge_page_span::<T>(v.as_ptr() as usize, v.capacity());
    if span.is_empty() {
        return;
    }
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `span` lies inside the `capacity()`-element allocation
        // `v` owns and starts on a page boundary, as `madvise` requires.
        // MADV_HUGEPAGE changes only how the kernel backs those pages,
        // never their contents, and `v` keeps the allocation alive for the
        // whole call.
        unsafe { madvise(span.start as *mut _, span.len(), MADV_HUGEPAGE) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_permissive() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg.overflow, OverflowPolicy::Wrap);
        assert!(cfg.check_buckets(usize::MAX).is_ok());
        assert!(cfg.check_mem(usize::MAX).is_ok());
    }

    #[test]
    fn bucket_budget_enforced() {
        let cfg = ExecConfig::default().max_buckets(100);
        assert!(cfg.check_buckets(100).is_ok());
        assert_eq!(
            cfg.check_buckets(101),
            Err(MpError::CapacityOverflow {
                what: "buckets",
                requested: 101,
                limit: 100
            })
        );
    }

    #[test]
    fn mem_budget_enforced() {
        let cfg = ExecConfig::default().max_mem_bytes(1 << 20);
        assert!(cfg.check_mem(1 << 20).is_ok());
        assert!(matches!(
            cfg.check_mem((1 << 20) + 1),
            Err(MpError::CapacityOverflow {
                what: "engine memory",
                ..
            })
        ));
    }

    #[test]
    fn validate_for_rejects_degenerate_budgets() {
        assert!(ExecConfig::default().validate_for(8).is_ok());
        assert!(ExecConfig::default()
            .max_buckets(1)
            .max_mem_bytes(8)
            .validate_for(8)
            .is_ok());
        assert!(matches!(
            ExecConfig::default().max_buckets(0).validate_for(8),
            Err(MpError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ExecConfig::default().max_mem_bytes(7).validate_for(8),
            Err(MpError::InvalidConfig { .. })
        ));
        // Zero-sized elements still need a nonzero budget to be meaningful.
        assert!(matches!(
            ExecConfig::default().max_mem_bytes(0).validate_for(0),
            Err(MpError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn estimate_monotone_and_saturating() {
        assert!(estimate_engine_mem(1000, 10, 8) < estimate_engine_mem(2000, 10, 8));
        assert!(estimate_engine_mem(1000, 10, 8) < estimate_engine_mem(1000, 10_000, 8));
        // Absurd sizes saturate rather than wrapping around to something small.
        assert_eq!(estimate_engine_mem(usize::MAX, usize::MAX, 8), usize::MAX);
    }

    #[test]
    fn try_filled_vec_small_succeeds() {
        assert_eq!(try_filled_vec(7i64, 3).unwrap(), vec![7, 7, 7]);
        assert_eq!(try_filled_vec(0u8, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn huge_page_span_is_aligned_inside_the_buffer() {
        const MIB: usize = 1 << 20;
        for addr in [0, 16, 4096 + 16, 2 * MIB, 2 * MIB + 8, 7 * MIB - 64] {
            for bytes in [4 * MIB, 4 * MIB + 24, 6 * MIB - 8, 32 * MIB + 16] {
                let span = huge_page_span::<u64>(addr, bytes / 8);
                assert!(addr <= span.start && span.end <= addr + bytes / 8 * 8);
                assert_eq!((span.start % HUGE_PAGE, span.end % HUGE_PAGE), (0, 0));
                assert!(span.len() >= HUGE_PAGE, "{addr:#x} + {bytes}: {span:?}");
            }
        }
        assert!(huge_page_span::<u64>(16, HUGE_PAGE_MIN_BYTES / 8 - 1).is_empty());
        assert!(huge_page_span::<u8>(0, HUGE_PAGE_MIN_BYTES - 1).is_empty());
        assert!(huge_page_span::<()>(0, usize::MAX).is_empty());
    }

    #[test]
    fn try_filled_vec_absurd_size_errors() {
        // An allocation near the address-space size must be refused by the
        // allocator and surface as an error, not an abort. (isize::MAX is
        // the hard Vec capacity ceiling, so this cannot succeed anywhere.)
        let len = (isize::MAX as usize) / 8;
        assert!(matches!(
            try_filled_vec(0u64, len),
            Err(MpError::AllocationFailed { .. })
        ));
    }
}
