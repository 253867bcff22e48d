//! The AVX2 kernels (x86-64, runtime-detected).
//!
//! Scans use the in-register form of Zhang/Wang/Ross: an inclusive scan
//! of each 256-bit group via log₂(LANES) shift-and-combine steps
//! (cross-lane shifts built from `vperm2i128` + `vpalignr`, with the
//! operator identity shifted in), then a carry broadcast from the
//! group's last lane into the next group. 64-bit `max`/`min` have no
//! AVX2 instruction, so they are synthesized from `vpcmpgtq` +
//! `vpblendvb` (unsigned via the sign-bit bias trick). `f32` rides the
//! same drivers through bit-casts.
//!
//! Every driver is `#[target_feature(enable = "avx2")]`; the safe
//! wrappers at the bottom are only reachable through the dispatch table,
//! which hands them out strictly after `is_x86_feature_detected!("avx2")`
//! succeeded.

#![allow(unsafe_op_in_unsafe_fn)]

use super::ScalarFamily;
use core::arch::x86_64::*;
use std::mem::MaybeUninit;

/// The vector half of a kernel family: 256-bit lane operations over the
/// family's element type. Everything is carried as `__m256i`; `f32`
/// families bit-cast around their `ps` intrinsics.
pub(crate) trait VecFamily: ScalarFamily {
    /// Elements per 256-bit vector (4 for 64-bit lanes, 8 for 32-bit).
    const LANES: usize;
    /// Broadcast a scalar into every lane.
    unsafe fn splat(x: Self::Elem) -> __m256i;
    /// The lane-parallel operator.
    unsafe fn vop(a: __m256i, b: __m256i) -> __m256i;
    /// Shift lanes up by one element, filling lane 0 from `fill`
    /// (broadcast).
    unsafe fn shift1(v: __m256i, fill: __m256i) -> __m256i;
    /// Shift lanes up by two elements.
    unsafe fn shift2(v: __m256i, fill: __m256i) -> __m256i;
    /// Shift lanes up by four elements (32-bit families only; 64-bit
    /// families never call it).
    unsafe fn shift4(v: __m256i, fill: __m256i) -> __m256i {
        let _ = v;
        fill
    }
    /// Broadcast the last lane into every lane.
    unsafe fn broadcast_last(v: __m256i) -> __m256i;
    /// Extract the last lane as a scalar.
    unsafe fn last(v: __m256i) -> Self::Elem;
}

// ---- shared shift primitives -------------------------------------------

#[inline(always)]
unsafe fn shift1_64(v: __m256i, fill: __m256i) -> __m256i {
    // t = [fill.low128, v.low128]; alignr by 8 bytes per 128-bit lane
    // yields [f, v0, v1, v2].
    let t = _mm256_permute2x128_si256::<0x20>(fill, v);
    _mm256_alignr_epi8::<8>(v, t)
}

#[inline(always)]
unsafe fn shift2_64(v: __m256i, fill: __m256i) -> __m256i {
    // [f, f, v0, v1]
    _mm256_permute2x128_si256::<0x20>(fill, v)
}

#[inline(always)]
unsafe fn shift1_32(v: __m256i, fill: __m256i) -> __m256i {
    let t = _mm256_permute2x128_si256::<0x20>(fill, v);
    _mm256_alignr_epi8::<12>(v, t)
}

#[inline(always)]
unsafe fn shift2_32(v: __m256i, fill: __m256i) -> __m256i {
    let t = _mm256_permute2x128_si256::<0x20>(fill, v);
    _mm256_alignr_epi8::<8>(v, t)
}

#[inline(always)]
unsafe fn shift4_32(v: __m256i, fill: __m256i) -> __m256i {
    _mm256_permute2x128_si256::<0x20>(fill, v)
}

#[inline(always)]
unsafe fn bcast_last_64(v: __m256i) -> __m256i {
    _mm256_permute4x64_epi64::<0xFF>(v)
}

#[inline(always)]
unsafe fn bcast_last_32(v: __m256i) -> __m256i {
    _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7))
}

// ---- splat / extract helpers -------------------------------------------

#[inline(always)]
unsafe fn splat_i64(x: i64) -> __m256i {
    _mm256_set1_epi64x(x)
}
#[inline(always)]
unsafe fn splat_u64(x: u64) -> __m256i {
    _mm256_set1_epi64x(x as i64)
}
#[inline(always)]
unsafe fn splat_i32(x: i32) -> __m256i {
    _mm256_set1_epi32(x)
}
#[inline(always)]
unsafe fn splat_u32(x: u32) -> __m256i {
    _mm256_set1_epi32(x as i32)
}
#[inline(always)]
unsafe fn splat_f32(x: f32) -> __m256i {
    _mm256_castps_si256(_mm256_set1_ps(x))
}

#[inline(always)]
unsafe fn last_i64(v: __m256i) -> i64 {
    _mm256_extract_epi64::<3>(v)
}
#[inline(always)]
unsafe fn last_u64(v: __m256i) -> u64 {
    _mm256_extract_epi64::<3>(v) as u64
}
#[inline(always)]
unsafe fn last_i32(v: __m256i) -> i32 {
    _mm256_extract_epi32::<7>(v)
}
#[inline(always)]
unsafe fn last_u32(v: __m256i) -> u32 {
    _mm256_extract_epi32::<7>(v) as u32
}
#[inline(always)]
unsafe fn last_f32(v: __m256i) -> f32 {
    f32::from_bits(_mm256_extract_epi32::<7>(v) as u32)
}

// ---- composite lane operators ------------------------------------------

#[inline(always)]
unsafe fn max_i64(a: __m256i, b: __m256i) -> __m256i {
    _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b))
}
#[inline(always)]
unsafe fn min_i64(a: __m256i, b: __m256i) -> __m256i {
    _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b))
}
#[inline(always)]
unsafe fn max_u64(a: __m256i, b: __m256i) -> __m256i {
    let bias = _mm256_set1_epi64x(i64::MIN);
    let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
    _mm256_blendv_epi8(b, a, gt)
}
#[inline(always)]
unsafe fn min_u64(a: __m256i, b: __m256i) -> __m256i {
    let bias = _mm256_set1_epi64x(i64::MIN);
    let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
    _mm256_blendv_epi8(a, b, gt)
}
#[inline(always)]
unsafe fn add_f32(a: __m256i, b: __m256i) -> __m256i {
    _mm256_castps_si256(_mm256_add_ps(
        _mm256_castsi256_ps(a),
        _mm256_castsi256_ps(b),
    ))
}

// ---- family wiring ------------------------------------------------------

macro_rules! vec_family {
    (w64: $fam:ident, $t:ty, $splat:path, $vop:path, $last:path) => {
        impl VecFamily for super::$fam {
            const LANES: usize = 4;
            #[inline(always)]
            unsafe fn splat(x: $t) -> __m256i {
                $splat(x)
            }
            #[inline(always)]
            unsafe fn vop(a: __m256i, b: __m256i) -> __m256i {
                $vop(a, b)
            }
            #[inline(always)]
            unsafe fn shift1(v: __m256i, fill: __m256i) -> __m256i {
                shift1_64(v, fill)
            }
            #[inline(always)]
            unsafe fn shift2(v: __m256i, fill: __m256i) -> __m256i {
                shift2_64(v, fill)
            }
            #[inline(always)]
            unsafe fn broadcast_last(v: __m256i) -> __m256i {
                bcast_last_64(v)
            }
            #[inline(always)]
            unsafe fn last(v: __m256i) -> $t {
                $last(v)
            }
        }
    };
    (w32: $fam:ident, $t:ty, $splat:path, $vop:path, $last:path) => {
        impl VecFamily for super::$fam {
            const LANES: usize = 8;
            #[inline(always)]
            unsafe fn splat(x: $t) -> __m256i {
                $splat(x)
            }
            #[inline(always)]
            unsafe fn vop(a: __m256i, b: __m256i) -> __m256i {
                $vop(a, b)
            }
            #[inline(always)]
            unsafe fn shift1(v: __m256i, fill: __m256i) -> __m256i {
                shift1_32(v, fill)
            }
            #[inline(always)]
            unsafe fn shift2(v: __m256i, fill: __m256i) -> __m256i {
                shift2_32(v, fill)
            }
            #[inline(always)]
            unsafe fn shift4(v: __m256i, fill: __m256i) -> __m256i {
                shift4_32(v, fill)
            }
            #[inline(always)]
            unsafe fn broadcast_last(v: __m256i) -> __m256i {
                bcast_last_32(v)
            }
            #[inline(always)]
            unsafe fn last(v: __m256i) -> $t {
                $last(v)
            }
        }
    };
}

vec_family!(w64: AddI64, i64, splat_i64, _mm256_add_epi64, last_i64);
vec_family!(w64: AddU64, u64, splat_u64, _mm256_add_epi64, last_u64);
vec_family!(w64: XorI64, i64, splat_i64, _mm256_xor_si256, last_i64);
vec_family!(w64: XorU64, u64, splat_u64, _mm256_xor_si256, last_u64);
vec_family!(w64: MaxI64, i64, splat_i64, max_i64, last_i64);
vec_family!(w64: MaxU64, u64, splat_u64, max_u64, last_u64);
vec_family!(w64: MinI64, i64, splat_i64, min_i64, last_i64);
vec_family!(w64: MinU64, u64, splat_u64, min_u64, last_u64);
vec_family!(w32: AddI32, i32, splat_i32, _mm256_add_epi32, last_i32);
vec_family!(w32: AddU32, u32, splat_u32, _mm256_add_epi32, last_u32);
vec_family!(w32: XorI32, i32, splat_i32, _mm256_xor_si256, last_i32);
vec_family!(w32: XorU32, u32, splat_u32, _mm256_xor_si256, last_u32);
vec_family!(w32: MaxI32, i32, splat_i32, _mm256_max_epi32, last_i32);
vec_family!(w32: MaxU32, u32, splat_u32, _mm256_max_epu32, last_u32);
vec_family!(w32: MinI32, i32, splat_i32, _mm256_min_epi32, last_i32);
vec_family!(w32: MinU32, u32, splat_u32, _mm256_min_epu32, last_u32);
vec_family!(w32: AddF32, f32, splat_f32, add_f32, last_f32);

// ---- drivers ------------------------------------------------------------

/// In-register inclusive scan of one 256-bit group: log₂(LANES)
/// shift-and-combine steps, identity shifted in. Earlier lanes are
/// always the *left* operand, preserving the engines' order contract.
#[inline(always)]
unsafe fn scan_group<F: VecFamily>(v: __m256i, id: __m256i) -> __m256i {
    let mut x = F::vop(F::shift1(v, id), v);
    x = F::vop(F::shift2(x, id), x);
    if F::LANES == 8 {
        x = F::vop(F::shift4(x, id), x);
    }
    x
}

#[target_feature(enable = "avx2")]
unsafe fn excl_scan_into_v<F: VecFamily>(
    values: &[F::Elem],
    out: &mut [MaybeUninit<F::Elem>],
    carry: F::Elem,
) -> F::Elem {
    debug_assert_eq!(values.len(), out.len());
    let n = values.len();
    let id = F::splat(F::identity());
    let mut c = F::splat(carry);
    let mut i = 0usize;
    while i + F::LANES <= n {
        let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
        let incl = scan_group::<F>(v, id);
        let excl = F::vop(c, F::shift1(incl, id));
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, excl);
        c = F::vop(c, F::broadcast_last(incl));
        i += F::LANES;
    }
    let mut acc = F::last(c);
    while i < n {
        let v = *values.get_unchecked(i);
        out.get_unchecked_mut(i).write(acc);
        acc = F::op(acc, v);
        i += 1;
    }
    acc
}

#[target_feature(enable = "avx2")]
unsafe fn excl_scan_inplace_v<F: VecFamily>(xs: &mut [F::Elem], carry: F::Elem) -> F::Elem {
    let n = xs.len();
    let id = F::splat(F::identity());
    let mut c = F::splat(carry);
    let mut i = 0usize;
    while i + F::LANES <= n {
        let p = xs.as_mut_ptr().add(i);
        let v = _mm256_loadu_si256(p as *const __m256i);
        let incl = scan_group::<F>(v, id);
        let excl = F::vop(c, F::shift1(incl, id));
        _mm256_storeu_si256(p as *mut __m256i, excl);
        c = F::vop(c, F::broadcast_last(incl));
        i += F::LANES;
    }
    let mut acc = F::last(c);
    while i < n {
        let x = xs.get_unchecked_mut(i);
        let v = *x;
        *x = acc;
        acc = F::op(acc, v);
        i += 1;
    }
    acc
}

#[target_feature(enable = "avx2")]
unsafe fn incl_scan_inplace_v<F: VecFamily>(xs: &mut [F::Elem], carry: F::Elem) -> F::Elem {
    let n = xs.len();
    let id = F::splat(F::identity());
    let mut c = F::splat(carry);
    let mut i = 0usize;
    while i + F::LANES <= n {
        let p = xs.as_mut_ptr().add(i);
        let v = _mm256_loadu_si256(p as *const __m256i);
        let incl = scan_group::<F>(v, id);
        _mm256_storeu_si256(p as *mut __m256i, F::vop(c, incl));
        c = F::vop(c, F::broadcast_last(incl));
        i += F::LANES;
    }
    let mut acc = F::last(c);
    while i < n {
        let x = xs.get_unchecked_mut(i);
        acc = F::op(acc, *x);
        *x = acc;
        i += 1;
    }
    acc
}

#[target_feature(enable = "avx2")]
unsafe fn combine_broadcast_v<F: VecFamily>(acc: F::Elem, xs: &mut [F::Elem]) {
    let n = xs.len();
    let c = F::splat(acc);
    let mut i = 0usize;
    while i + F::LANES <= n {
        let p = xs.as_mut_ptr().add(i);
        let v = _mm256_loadu_si256(p as *const __m256i);
        _mm256_storeu_si256(p as *mut __m256i, F::vop(c, v));
        i += F::LANES;
    }
    while i < n {
        let x = xs.get_unchecked_mut(i);
        *x = F::op(acc, *x);
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn reduce_v<F: VecFamily>(init: F::Elem, xs: &[F::Elem]) -> F::Elem {
    let n = xs.len();
    let id = F::splat(F::identity());
    let mut accv = id;
    let mut i = 0usize;
    while i + F::LANES <= n {
        let v = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
        accv = F::vop(accv, v);
        i += F::LANES;
    }
    // Horizontal fold of the lane accumulators (commutative families
    // only reach this module, so lane-striding is exact for integers).
    let mut acc = F::op(init, F::last(scan_group::<F>(accv, id)));
    while i < n {
        acc = F::op(acc, *xs.get_unchecked(i));
        i += 1;
    }
    acc
}

// ---- safe wrappers for the dispatch table -------------------------------
//
// SAFETY (all five): the dispatch table in `super` hands these out only
// after `is_x86_feature_detected!("avx2")` succeeded for the process, so
// the `target_feature` contract of the inner drivers holds.

pub(crate) fn excl_scan_into<F: VecFamily>(
    values: &[F::Elem],
    out: &mut [MaybeUninit<F::Elem>],
    carry: F::Elem,
) -> F::Elem {
    // `excl_scan_into_v` stores `values.len()` elements through `out`'s pointer.
    assert_eq!(values.len(), out.len(), "excl_scan_into: slice lengths");
    unsafe { excl_scan_into_v::<F>(values, out, carry) }
}

pub(crate) fn excl_scan_inplace<F: VecFamily>(xs: &mut [F::Elem], carry: F::Elem) -> F::Elem {
    unsafe { excl_scan_inplace_v::<F>(xs, carry) }
}

pub(crate) fn incl_scan_inplace<F: VecFamily>(xs: &mut [F::Elem], carry: F::Elem) -> F::Elem {
    unsafe { incl_scan_inplace_v::<F>(xs, carry) }
}

pub(crate) fn combine_broadcast<F: VecFamily>(acc: F::Elem, xs: &mut [F::Elem]) {
    unsafe { combine_broadcast_v::<F>(acc, xs) }
}

pub(crate) fn reduce<F: VecFamily>(init: F::Elem, xs: &[F::Elem]) -> F::Elem {
    unsafe { reduce_v::<F>(init, xs) }
}
