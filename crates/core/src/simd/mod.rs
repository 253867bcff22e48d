//! Vectorized kernels for the engines' hot phases — the modern CRAY Y-MP.
//!
//! The paper's central move (§3) is recasting every `pardo` of the
//! multiprefix as vector operations on the CRAY Y-MP. This module redoes
//! that mapping on today's vector ISA: AVX2 kernels via
//! `core::arch::x86_64` intrinsics (stable Rust — no `std::simd`), with an
//! autovectorization-friendly portable kernel as the non-x86 path, behind
//! one-time runtime dispatch.
//!
//! ## Structure (per *Parallel Prefix Sum with SIMD*, Zhang/Wang/Ross)
//!
//! A prefix scan is vectorized in two steps: an **in-register inclusive
//! scan** of each lane-group (log₂ LANES shift-and-combine steps), then a
//! **carry broadcast** from the group's last lane into the next group —
//! the same shape as the chunked engine's local-scan-then-
//! `exscan_over_summaries` combine, one level down. The scan, broadcast
//! and reduce primitives here are exactly what the engines' single-label
//! (`m == 1`) fast paths, `scan.rs`'s partition sweeps and the session
//! store's bulk Fenwick rebuild consume.
//!
//! ## Eligibility and bit-exactness
//!
//! A kernel engages only when the operator declares an exact machine
//! counterpart ([`Kernel`] via [`crate::op::CombineOp::KERNEL`]: wrapping
//! `Add`, `Max`, `Min`, `Xor` over 32/64-bit lanes). Those operators are
//! associative and commutative *exactly*, so every reassociation the
//! vector form performs is bit-identical to the scalar left fold — pinned
//! by `tests/simd_differential.rs`, and by the oracle harness
//! (`tests/oracle`), whose lane-straddling one-label shapes run the
//! chunked entries on the kernels against Figure 2. The one exception is
//! `f32` addition, which is only available behind
//! [`crate::ExecConfig::simd_f32`] because float addition does not
//! reassociate exactly. Everything else —
//! unrecognized operators, odd widths, checked/saturating overflow
//! policies, sparse bucket tables — falls through to the scalar code
//! untouched.
//!
//! ## Dispatch
//!
//! [`active_level`] detects the best level once per process (cached in a
//! `OnceLock`): `MP_FORCE_SCALAR=1` pins [`SimdLevel::Scalar`], Miri runs
//! the portable kernels ([`SimdLevel::Portable`]), and an x86-64 host
//! with AVX2 gets [`SimdLevel::Avx2`].
//! [`ExecConfig::force_scalar`](crate::ExecConfig::force_scalar) pins a
//! *single run* to scalar without touching the process-wide level — that
//! is what the differential suite and the `bench_report --kernel` arm use
//! to hold both paths side by side in one process.

#[cfg(target_arch = "x86_64")]
mod avx2;
mod portable;

pub use crate::op::Kernel;

use crate::problem::Element;
use std::any::TypeId;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// The kernel implementation level a process runs at (resolved once, see
/// [`active_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// No vectorized fast paths at all: every engine runs its scalar
    /// inner loops (the `MP_FORCE_SCALAR=1` state).
    Scalar,
    /// The portable unrolled kernels — same left-fold association as the
    /// scalar engines, written so non-x86 targets can autovectorize the
    /// streaming passes.
    Portable,
    /// The AVX2 intrinsic kernels (x86-64 with runtime-detected AVX2).
    Avx2,
}

impl SimdLevel {
    /// The lowercase name used in obs events and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

fn detect() -> SimdLevel {
    if cfg!(miri) {
        // Miri interprets no vendor intrinsics; the portable kernels are
        // the simd surface it verifies.
        return SimdLevel::Portable;
    }
    if std::env::var_os("MP_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Portable
}

/// The process-wide kernel level, detected once on first use:
/// `MP_FORCE_SCALAR=1` → `Scalar`; Miri → `Portable`; x86-64 with AVX2 →
/// `Avx2`; otherwise `Portable`.
pub fn active_level() -> SimdLevel {
    *LEVEL.get_or_init(detect)
}

/// Pin the process-wide level *before first use* (the `bench_report
/// --kernel` arm). Returns the level actually active afterwards: if the
/// level was already resolved, the existing one wins; a request for
/// [`SimdLevel::Avx2`] on a host without AVX2 is clamped to `Portable`
/// rather than trusted.
pub fn pin_level(level: SimdLevel) -> SimdLevel {
    let requested = match level {
        SimdLevel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                if !cfg!(miri) && std::arch::is_x86_feature_detected!("avx2") {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Portable
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                SimdLevel::Portable
            }
        }
        other => other,
    };
    *LEVEL.get_or_init(|| requested)
}

/// Whether this host can run the AVX2 kernels at all (used by the bench
/// harness and the CI `avx2-gate` job to refuse silent fallback).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !cfg!(miri) && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One resolved set of vectorized kernels for a concrete element type —
/// the "function table" the engines call through after one-time dispatch.
///
/// Every function is bit-identical to the scalar left fold of the same
/// operator for the exact integer kernels; see the module docs for the
/// `f32` caveat.
pub struct Kernels<T: Element> {
    /// Exclusive scan of `values` into `out` (`out[i] = carry ⊕
    /// values[0] ⊕ … ⊕ values[i-1]`, so `out[0] == carry`); returns the
    /// outgoing carry `carry ⊕ fold(values)`. Slices must be equal
    /// length. `out` may be uninitialized (e.g. a `Vec`'s
    /// `spare_capacity_mut`): every slot is written exactly once and none
    /// is read, so an engine's output is written in this one pass, with
    /// no identity fill before it.
    pub excl_scan_into: fn(&[T], &mut [MaybeUninit<T>], T) -> T,
    /// Exclusive scan in place; returns the outgoing carry.
    pub excl_scan_inplace: fn(&mut [T], T) -> T,
    /// Inclusive scan in place (`x[i] = carry ⊕ x[0] ⊕ … ⊕ x[i]`);
    /// returns the outgoing carry (the final element).
    pub incl_scan_inplace: fn(&mut [T], T) -> T,
    /// `x = acc ⊕ x` for every element — the apply pass's prepend loop.
    pub combine_broadcast: fn(T, &mut [T]),
    /// `acc ⊕ fold(xs)` — the reduce used by partition sweep 1 and the
    /// multireduce fast path.
    pub reduce: fn(T, &[T]) -> T,
}

/// The per-family scalar definition the portable kernels fold with and
/// the AVX2 remainder loops fall back to. Each zero-sized family type
/// pins one (element type, kernel) pair so the dispatch table entries
/// stay monomorphic function pointers.
pub(crate) trait ScalarFamily: 'static {
    /// The concrete lane element type.
    type Elem: Element;
    /// The operator identity (must equal the `CombineOp` identity).
    fn identity() -> Self::Elem;
    /// The scalar combine (must equal the `CombineOp` combine).
    fn op(a: Self::Elem, b: Self::Elem) -> Self::Elem;
}

macro_rules! families {
    ($(($name:ident, $t:ty, $id:expr, $op:expr)),* $(,)?) => {$(
        pub(crate) struct $name;
        impl ScalarFamily for $name {
            type Elem = $t;
            #[inline(always)]
            fn identity() -> $t { $id }
            #[inline(always)]
            fn op(a: $t, b: $t) -> $t { ($op)(a, b) }
        }
    )*};
}

families! {
    (AddI32, i32, 0, |a: i32, b: i32| a.wrapping_add(b)),
    (AddU32, u32, 0, |a: u32, b: u32| a.wrapping_add(b)),
    (AddI64, i64, 0, |a: i64, b: i64| a.wrapping_add(b)),
    (AddU64, u64, 0, |a: u64, b: u64| a.wrapping_add(b)),
    (AddF32, f32, 0.0, |a: f32, b: f32| a + b),
    (XorI32, i32, 0, |a: i32, b: i32| a ^ b),
    (XorU32, u32, 0, |a: u32, b: u32| a ^ b),
    (XorI64, i64, 0, |a: i64, b: i64| a ^ b),
    (XorU64, u64, 0, |a: u64, b: u64| a ^ b),
    (MaxI32, i32, i32::MIN, |a: i32, b: i32| a.max(b)),
    (MaxU32, u32, u32::MIN, |a: u32, b: u32| a.max(b)),
    (MaxI64, i64, i64::MIN, |a: i64, b: i64| a.max(b)),
    (MaxU64, u64, u64::MIN, |a: u64, b: u64| a.max(b)),
    (MinI32, i32, i32::MAX, |a: i32, b: i32| a.min(b)),
    (MinU32, u32, u32::MAX, |a: u32, b: u32| a.min(b)),
    (MinI64, i64, i64::MAX, |a: i64, b: i64| a.min(b)),
    (MinU64, u64, u64::MAX, |a: u64, b: u64| a.min(b)),
}

/// Reinterpret a table for `U` as a table for `T`.
///
/// Sound only when `T` and `U` are the same type (checked by the caller
/// via `TypeId` equality); the function signatures then match exactly.
fn cast_table<U: Element, T: Element>(table: &'static Kernels<U>) -> &'static Kernels<T> {
    debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<U>());
    unsafe { &*(table as *const Kernels<U> as *const Kernels<T>) }
}

macro_rules! route {
    ($T:ident, $level:ident, $t:ty, $fam:ident) => {
        if TypeId::of::<$T>() == TypeId::of::<$t>() {
            static PORT: Kernels<$t> = Kernels {
                excl_scan_into: portable::excl_scan_into::<$fam>,
                excl_scan_inplace: portable::excl_scan_inplace::<$fam>,
                incl_scan_inplace: portable::incl_scan_inplace::<$fam>,
                combine_broadcast: portable::combine_broadcast::<$fam>,
                reduce: portable::reduce::<$fam>,
            };
            #[cfg(target_arch = "x86_64")]
            {
                static VEC: Kernels<$t> = Kernels {
                    excl_scan_into: avx2::excl_scan_into::<$fam>,
                    excl_scan_inplace: avx2::excl_scan_inplace::<$fam>,
                    incl_scan_inplace: avx2::incl_scan_inplace::<$fam>,
                    combine_broadcast: avx2::combine_broadcast::<$fam>,
                    reduce: avx2::reduce::<$fam>,
                };
                if $level == SimdLevel::Avx2 {
                    return Some(cast_table::<$t, $T>(&VEC));
                }
            }
            return Some(cast_table::<$t, $T>(&PORT));
        }
    };
}

/// Resolve the kernel table for element type `T` under kernel class
/// `kernel`, or `None` when the combination must stay scalar: the
/// process level is [`SimdLevel::Scalar`], the element type has no
/// kernels (only `u32/i32/u64/i64` — and `f32` for `Add` when
/// `allow_f32` — do), or the type/kernel pair is unrecognized.
pub fn kernels<T: Element>(kernel: Kernel, allow_f32: bool) -> Option<&'static Kernels<T>> {
    let level = active_level();
    if level == SimdLevel::Scalar {
        return None;
    }
    match kernel {
        Kernel::Add => {
            route!(T, level, u64, AddU64);
            route!(T, level, i64, AddI64);
            route!(T, level, u32, AddU32);
            route!(T, level, i32, AddI32);
            if allow_f32 {
                route!(T, level, f32, AddF32);
            }
        }
        Kernel::Xor => {
            route!(T, level, u64, XorU64);
            route!(T, level, i64, XorI64);
            route!(T, level, u32, XorU32);
            route!(T, level, i32, XorI32);
        }
        Kernel::Max => {
            route!(T, level, u64, MaxU64);
            route!(T, level, i64, MaxI64);
            route!(T, level, u32, MaxU32);
            route!(T, level, i32, MaxI32);
        }
        Kernel::Min => {
            route!(T, level, u64, MinU64);
            route!(T, level, i64, MinI64);
            route!(T, level, u32, MinU32);
            route!(T, level, i32, MinI32);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    // Scalar oracles, written as the engines' left folds.
    fn excl_oracle<F: ScalarFamily>(values: &[F::Elem], carry: F::Elem) -> (Vec<F::Elem>, F::Elem)
    where
        F::Elem: PartialEq + std::fmt::Debug,
    {
        let mut out = Vec::with_capacity(values.len());
        let mut acc = carry;
        for &v in values {
            out.push(acc);
            acc = F::op(acc, v);
        }
        (out, acc)
    }

    /// `excl_scan_into` run into a fresh vector's uninitialized capacity,
    /// as the engines call it.
    fn scan_into_vec<T: Element>(
        scan: fn(&[T], &mut [MaybeUninit<T>], T) -> T,
        values: &[T],
        carry: T,
    ) -> (Vec<T>, T) {
        let n = values.len();
        let mut out = Vec::with_capacity(n);
        let carry = scan(values, &mut out.spare_capacity_mut()[..n], carry);
        // SAFETY: `excl_scan_into` writes each of the `n` slots it is
        // handed (the kernels' contract); Miri reports any it skips once
        // the caller reads the vector.
        unsafe { out.set_len(n) };
        (out, carry)
    }

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 11
    }

    fn check_family<F: ScalarFamily>(table: &Kernels<F::Elem>, mk: impl Fn(u64) -> F::Elem)
    where
        F::Elem: PartialEq + std::fmt::Debug,
    {
        let mut seed = 0xC0FFEE;
        // Lengths straddling every lane boundary, plus empty.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 100, 257] {
            let values: Vec<F::Elem> = (0..n).map(|_| mk(lcg(&mut seed))).collect();
            let carry = mk(lcg(&mut seed));
            let (want, want_carry) = excl_oracle::<F>(&values, carry);

            let (out, got_carry) = scan_into_vec(table.excl_scan_into, &values, carry);
            assert_eq!(out, want, "excl_scan_into n={n}");
            assert_eq!(got_carry, want_carry, "excl_scan_into carry n={n}");

            let mut xs = values.clone();
            let got_carry = (table.excl_scan_inplace)(&mut xs, carry);
            assert_eq!(xs, want, "excl_scan_inplace n={n}");
            assert_eq!(got_carry, want_carry, "excl_scan_inplace carry n={n}");

            let mut xs = values.clone();
            let got_carry = (table.incl_scan_inplace)(&mut xs, carry);
            let mut incl_want = Vec::with_capacity(n);
            let mut acc = carry;
            for &v in &values {
                acc = F::op(acc, v);
                incl_want.push(acc);
            }
            assert_eq!(xs, incl_want, "incl_scan_inplace n={n}");
            assert_eq!(got_carry, want_carry, "incl_scan_inplace carry n={n}");

            let mut xs = values.clone();
            let acc = mk(lcg(&mut seed));
            (table.combine_broadcast)(acc, &mut xs);
            let bwant: Vec<F::Elem> = values.iter().map(|&v| F::op(acc, v)).collect();
            assert_eq!(xs, bwant, "combine_broadcast n={n}");

            let got = (table.reduce)(carry, &values);
            assert_eq!(got, want_carry, "reduce n={n}");
        }
    }

    fn check_both_levels<F: ScalarFamily>(kernel: Kernel, mk: impl Fn(u64) -> F::Elem + Copy)
    where
        F::Elem: PartialEq + std::fmt::Debug,
    {
        // The portable table directly…
        static_check_portable::<F>(mk);
        // …and whatever the process-level dispatch resolves (AVX2 on an
        // AVX2 host, portable elsewhere/under Miri).
        if let Some(table) = kernels::<F::Elem>(kernel, true) {
            check_family::<F>(table, mk);
        }
    }

    fn static_check_portable<F: ScalarFamily>(mk: impl Fn(u64) -> F::Elem)
    where
        F::Elem: PartialEq + std::fmt::Debug,
    {
        let table = Kernels::<F::Elem> {
            excl_scan_into: portable::excl_scan_into::<F>,
            excl_scan_inplace: portable::excl_scan_inplace::<F>,
            incl_scan_inplace: portable::incl_scan_inplace::<F>,
            combine_broadcast: portable::combine_broadcast::<F>,
            reduce: portable::reduce::<F>,
        };
        check_family::<F>(&table, mk);
    }

    #[test]
    fn add_kernels_match_scalar_fold() {
        check_both_levels::<AddU64>(Kernel::Add, |r| r);
        check_both_levels::<AddI64>(Kernel::Add, |r| r as i64);
        check_both_levels::<AddU32>(Kernel::Add, |r| r as u32);
        check_both_levels::<AddI32>(Kernel::Add, |r| r as i32);
    }

    #[test]
    fn xor_kernels_match_scalar_fold() {
        check_both_levels::<XorU64>(Kernel::Xor, |r| r);
        check_both_levels::<XorI32>(Kernel::Xor, |r| r as i32);
    }

    #[test]
    fn minmax_kernels_match_scalar_fold() {
        check_both_levels::<MaxI64>(Kernel::Max, |r| r as i64);
        check_both_levels::<MaxU64>(Kernel::Max, |r| r);
        check_both_levels::<MaxI32>(Kernel::Max, |r| r as i32);
        check_both_levels::<MaxU32>(Kernel::Max, |r| r as u32);
        check_both_levels::<MinI64>(Kernel::Min, |r| r as i64);
        check_both_levels::<MinU64>(Kernel::Min, |r| r);
        check_both_levels::<MinI32>(Kernel::Min, |r| r as i32);
        check_both_levels::<MinU32>(Kernel::Min, |r| r as u32);
    }

    #[test]
    fn f32_kernel_exact_on_representable_sums() {
        // Small integers summed in f32 stay exactly representable, so
        // even the reassociated vector order must be bit-identical.
        check_both_levels::<AddF32>(Kernel::Add, |r| (r % 1024) as f32 - 512.0);
    }

    #[test]
    fn wrap_boundary_straddles_type_max() {
        // A run whose prefix crosses u64::MAX must wrap exactly like the
        // scalar fold.
        let values = vec![u64::MAX - 3, 7, u64::MAX, 1, 2, u64::MAX - 1, 5, 9, 11];
        let (want, want_carry) = excl_oracle::<AddU64>(&values, 12345);
        if let Some(table) = kernels::<u64>(Kernel::Add, false) {
            let (out, carry) = scan_into_vec(table.excl_scan_into, &values, 12345);
            assert_eq!(out, want);
            assert_eq!(carry, want_carry);
        }
    }

    /// The portable scan fills uninitialized capacity of every length from
    /// 0 to two 256-bit lane groups plus one — every four-wide unroll and
    /// remainder split, and every AVX2 group and tail split for that
    /// width — and equals the scalar fold. Under Miri, a slot it left
    /// unwritten is reported when the result is compared.
    #[test]
    fn portable_scan_into_fills_uninit_capacity() {
        fn check<F: ScalarFamily>(mk: impl Fn(u64) -> F::Elem)
        where
            F::Elem: PartialEq + std::fmt::Debug,
        {
            let lanes = 32 / std::mem::size_of::<F::Elem>();
            let mut seed = 0x5CA7;
            for n in 0..=2 * lanes + 1 {
                let values: Vec<F::Elem> = (0..n).map(|_| mk(lcg(&mut seed))).collect();
                let carry = mk(lcg(&mut seed));
                assert_eq!(
                    scan_into_vec(portable::excl_scan_into::<F>, &values, carry),
                    excl_oracle::<F>(&values, carry),
                    "n={n}"
                );
            }
        }
        check::<AddI64>(|r| r as i64);
        check::<AddU32>(|r| r as u32);
        check::<XorU64>(|r| r);
        check::<MaxI32>(|r| r as i32);
        check::<MinU64>(|r| r);
        check::<AddF32>(|r| (r % 1024) as f32 - 512.0);
    }

    #[test]
    fn dispatch_rejects_unkerneled_types() {
        assert!(kernels::<u8>(Kernel::Add, true).is_none());
        assert!(kernels::<u128>(Kernel::Add, true).is_none());
        assert!(kernels::<usize>(Kernel::Add, true).is_none());
        assert!(kernels::<f64>(Kernel::Add, true).is_none());
        assert!(
            kernels::<f32>(Kernel::Add, false).is_none(),
            "f32 is opt-in"
        );
        assert!(
            kernels::<f32>(Kernel::Max, true).is_none(),
            "f32 max stays scalar"
        );
    }

    #[test]
    fn level_name_roundtrip() {
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Portable.name(), "portable");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        // active_level is cached and stable across calls.
        assert_eq!(active_level(), active_level());
        assert_eq!(pin_level(SimdLevel::Scalar), active_level());
    }
}
