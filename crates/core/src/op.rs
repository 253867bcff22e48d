//! Binary associative operators for the general multiprefix operation.
//!
//! §1 of the paper: "The general multiprefix operator … extends the summing
//! operation to any binary associative operator on values of arbitrary type.
//! Typical operators are MAX, MIN, PLUS, MULT, AND and OR on data types
//! INTEGER, FLOATING and BOOLEAN" — "as long as 0 is replaced with the
//! appropriate identity element for the operator chosen."
//!
//! [`CombineOp`] captures exactly that contract: an associative `combine`
//! with a two-sided `identity`. Operators additionally declare whether they
//! are commutative ([`CombineOp::COMMUTATIVE`]); the spinetree and chunked
//! engines preserve vector order and therefore work for *non*-commutative
//! operators too, but the lock-free atomic engine requires commutativity
//! (it accumulates children with fetch-and-op in nondeterministic order).

use crate::problem::Element;

/// A binary associative operator with identity, over element type `T`.
///
/// Laws (checked by property tests in this module and relied on by every
/// engine):
///
/// * associativity: `combine(a, combine(b, c)) == combine(combine(a, b), c)`
/// * identity: `combine(identity(), a) == a == combine(a, identity())`
/// * if [`Self::COMMUTATIVE`] is `true`: `combine(a, b) == combine(b, a)`
pub trait CombineOp<T: Element>: Copy + Send + Sync + 'static {
    /// Whether `combine` is commutative. Engines that reorder reductions
    /// (e.g. the atomic spinetree engine) are only offered for commutative
    /// operators; the order-preserving engines ignore this flag.
    const COMMUTATIVE: bool;

    /// The identity element (the "0" of the paper, generalized).
    fn identity(&self) -> T;

    /// Apply the operator. The left argument always corresponds to
    /// *earlier* vector positions.
    fn combine(&self, a: T, b: T) -> T;
}

/// A [`CombineOp`] that can also combine under an overflow discipline —
/// the operator-level half of the hardened execution layer
/// ([`crate::try_multiprefix`]).
///
/// Two extra contracts, mirroring `checked_add` / `saturating_add`:
///
/// * `checked_combine(a, b)` is `Some(combine(a, b))` exactly when the
///   mathematical result is representable in `T`, `None` otherwise;
/// * `saturating_combine(a, b)` clamps an unrepresentable result to the
///   nearest representable value (and equals `combine` otherwise).
///
/// Operators that can never overflow (`Max`, `Min`, `And`, `Or`, floats —
/// IEEE arithmetic saturates to ±∞ on its own) implement both as plain
/// `combine`.
///
/// **Non-associativity warning**: checked and saturating arithmetic are
/// *not* associative — `(a ⊕ b) ⊕ c` may saturate or trip where
/// `a ⊕ (b ⊕ c)` does not. The engines therefore define the semantics of
/// `Checked` / `Saturating` by **serial (Figure 2) evaluation order**;
/// parallel engines detect a possible divergence and canonicalize through
/// the serial engine (see `crate::exec`).
pub trait TryCombineOp<T: Element>: CombineOp<T> {
    /// `combine`, or `None` if the result is not representable in `T`.
    fn checked_combine(&self, a: T, b: T) -> Option<T>;

    /// `combine` with an unrepresentable result clamped to the nearest
    /// representable value.
    fn saturating_combine(&self, a: T, b: T) -> T;
}

/// Addition (`PLUS`). Identity: `0` / `0.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plus;

/// Multiplication (`MULT`). Identity: `1` / `1.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mult;

/// Maximum (`MAX`). Identity: the type's minimum value / `-∞`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

/// Minimum (`MIN`). Identity: the type's maximum value / `+∞`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

/// Conjunction: bitwise `AND` on integers, logical `AND` on `bool`.
/// Identity: all-ones / `true`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct And;

/// Disjunction: bitwise `OR` on integers, logical `OR` on `bool`.
/// Identity: `0` / `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Or;

/// Bitwise exclusive-or (`XOR`) on integers. Identity: `0`.
///
/// `XOR` is its own inverse (`a ^ b ^ b == a`), so it is the one
/// lossy-looking operator that still implements [`InvertibleOp`]: each
/// element of Z/2ⁿ is its own negation under the xor group structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Xor;

macro_rules! impl_int_ops {
    ($($t:ty),*) => {$(
        impl CombineOp<$t> for Plus {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { 0 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a.wrapping_add(b) }
        }
        impl CombineOp<$t> for Mult {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { 1 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a.wrapping_mul(b) }
        }
        impl CombineOp<$t> for Max {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { <$t>::MIN }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a.max(b) }
        }
        impl CombineOp<$t> for Min {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { <$t>::MAX }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a.min(b) }
        }
        impl CombineOp<$t> for And {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { !0 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a & b }
        }
        impl CombineOp<$t> for Or {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { 0 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a | b }
        }
        impl CombineOp<$t> for Xor {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { 0 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a ^ b }
        }
    )*};
}

impl_int_ops!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128, usize, isize);

/// A commutative [`CombineOp`] with an exact inverse — the structural
/// requirement for O(log n) *point-assignment* in the incremental session
/// engine's per-label Fenwick trees ([`crate::session`]).
///
/// Laws, on top of the [`CombineOp`] laws:
///
/// * inverse: `combine(uncombine(a, b), b) == a` for every `a`, `b`;
/// * commutativity (`COMMUTATIVE == true`), so a point delta may be folded
///   into interior tree nodes in tree order rather than vector order.
///
/// Only *exactly* invertible operators qualify: integer `Plus` under the
/// wrapping discipline forms a group (`wrapping_sub` is the exact inverse
/// of `wrapping_add` in Z/2ⁿ), so an incremental session is bit-identical
/// to a batch engine replay. Floating-point addition is **not** exactly
/// invertible (`(a + b) - b ≠ a` after rounding) and `Max`/`Min`/`And`/`Or`
/// destroy information, so none of them implement this trait.
pub trait InvertibleOp<T: Element>: CombineOp<T> {
    /// The exact inverse of [`CombineOp::combine`] in its right argument:
    /// `combine(uncombine(a, b), b) == a`.
    fn uncombine(&self, a: T, b: T) -> T;
}

macro_rules! impl_int_invertible {
    ($($t:ty),*) => {$(
        impl InvertibleOp<$t> for Plus {
            #[inline(always)]
            fn uncombine(&self, a: $t, b: $t) -> $t { a.wrapping_sub(b) }
        }
        impl InvertibleOp<$t> for Xor {
            #[inline(always)]
            fn uncombine(&self, a: $t, b: $t) -> $t { a ^ b }
        }
    )*};
}

impl_int_invertible!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128, usize, isize);

macro_rules! impl_int_try_ops {
    ($($t:ty),*) => {$(
        impl TryCombineOp<$t> for Plus {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { a.checked_add(b) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { a.saturating_add(b) }
        }
        impl TryCombineOp<$t> for Mult {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { a.checked_mul(b) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { a.saturating_mul(b) }
        }
        // MAX / MIN / AND / OR select or mask bits — they can never leave
        // the representable range.
        impl TryCombineOp<$t> for Max {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { self.combine(a, b) }
        }
        impl TryCombineOp<$t> for Min {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { self.combine(a, b) }
        }
        impl TryCombineOp<$t> for And {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { self.combine(a, b) }
        }
        impl TryCombineOp<$t> for Or {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { self.combine(a, b) }
        }
        impl TryCombineOp<$t> for Xor {
            #[inline(always)]
            fn checked_combine(&self, a: $t, b: $t) -> Option<$t> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: $t, b: $t) -> $t { self.combine(a, b) }
        }
    )*};
}

impl_int_try_ops!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128, usize, isize);

macro_rules! impl_float_ops {
    ($($t:ty),*) => {$(
        impl CombineOp<$t> for Plus {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { 0.0 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a + b }
        }
        impl CombineOp<$t> for Mult {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { 1.0 }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a * b }
        }
        impl CombineOp<$t> for Max {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { <$t>::NEG_INFINITY }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a.max(b) }
        }
        impl CombineOp<$t> for Min {
            const COMMUTATIVE: bool = true;
            #[inline(always)]
            fn identity(&self) -> $t { <$t>::INFINITY }
            #[inline(always)]
            fn combine(&self, a: $t, b: $t) -> $t { a.min(b) }
        }
    )*};
}

impl_float_ops!(f32, f64);

// IEEE float arithmetic never traps: overflow saturates to ±∞ by the
// standard itself, so checked and saturating collapse to plain combine.
macro_rules! impl_float_try_ops {
    ($($op:ty),*) => {$(
        impl TryCombineOp<f32> for $op {
            #[inline(always)]
            fn checked_combine(&self, a: f32, b: f32) -> Option<f32> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: f32, b: f32) -> f32 { self.combine(a, b) }
        }
        impl TryCombineOp<f64> for $op {
            #[inline(always)]
            fn checked_combine(&self, a: f64, b: f64) -> Option<f64> { Some(self.combine(a, b)) }
            #[inline(always)]
            fn saturating_combine(&self, a: f64, b: f64) -> f64 { self.combine(a, b) }
        }
    )*};
}

impl_float_try_ops!(Plus, Mult, Max, Min);

impl CombineOp<bool> for And {
    const COMMUTATIVE: bool = true;
    #[inline(always)]
    fn identity(&self) -> bool {
        true
    }
    #[inline(always)]
    fn combine(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

impl CombineOp<bool> for Or {
    const COMMUTATIVE: bool = true;
    #[inline(always)]
    fn identity(&self) -> bool {
        false
    }
    #[inline(always)]
    fn combine(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

impl TryCombineOp<bool> for And {
    #[inline(always)]
    fn checked_combine(&self, a: bool, b: bool) -> Option<bool> {
        Some(self.combine(a, b))
    }
    #[inline(always)]
    fn saturating_combine(&self, a: bool, b: bool) -> bool {
        self.combine(a, b)
    }
}

impl TryCombineOp<bool> for Or {
    #[inline(always)]
    fn checked_combine(&self, a: bool, b: bool) -> Option<bool> {
        Some(self.combine(a, b))
    }
    #[inline(always)]
    fn saturating_combine(&self, a: bool, b: bool) -> bool {
        self.combine(a, b)
    }
}

/// Arg-max over `(value, index)` pairs: the combination keeps the pair
/// with the larger value, breaking ties toward the **smaller index**
/// (the earlier occurrence), which makes the operator commutative and
/// the multiprefix deterministic. Identity: `(i64::MIN, i64::MAX)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArgMax;

impl CombineOp<(i64, i64)> for ArgMax {
    const COMMUTATIVE: bool = true;
    #[inline(always)]
    fn identity(&self) -> (i64, i64) {
        (i64::MIN, i64::MAX)
    }
    #[inline(always)]
    fn combine(&self, a: (i64, i64), b: (i64, i64)) -> (i64, i64) {
        match a.0.cmp(&b.0) {
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Less => b,
            std::cmp::Ordering::Equal => {
                if a.1 <= b.1 {
                    a
                } else {
                    b
                }
            }
        }
    }
}

/// Arg-min over `(value, index)` pairs, ties toward the smaller index.
/// Identity: `(i64::MAX, i64::MAX)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArgMin;

impl CombineOp<(i64, i64)> for ArgMin {
    const COMMUTATIVE: bool = true;
    #[inline(always)]
    fn identity(&self) -> (i64, i64) {
        (i64::MAX, i64::MAX)
    }
    #[inline(always)]
    fn combine(&self, a: (i64, i64), b: (i64, i64)) -> (i64, i64) {
        match a.0.cmp(&b.0) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => {
                if a.1 <= b.1 {
                    a
                } else {
                    b
                }
            }
        }
    }
}

/// String-like concatenation over fixed-width "first/last" pairs — a
/// deliberately **non-commutative** associative operator used by the test
/// suite to prove the order-preserving engines do not silently assume
/// commutativity.
///
/// `combine((a_first, a_last), (b_first, b_last))` keeps the first element
/// of the left side and the last element of the right side, except that the
/// identity `(i32::MIN, i32::MIN)` is transparent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstLast;

/// Sentinel used by [`FirstLast`] as its identity marker.
pub const FIRST_LAST_IDENTITY: (i32, i32) = (i32::MIN, i32::MIN);

impl CombineOp<(i32, i32)> for FirstLast {
    const COMMUTATIVE: bool = false;
    #[inline(always)]
    fn identity(&self) -> (i32, i32) {
        FIRST_LAST_IDENTITY
    }
    #[inline(always)]
    fn combine(&self, a: (i32, i32), b: (i32, i32)) -> (i32, i32) {
        if a == FIRST_LAST_IDENTITY {
            return b;
        }
        if b == FIRST_LAST_IDENTITY {
            return a;
        }
        (a.0, b.1)
    }
}

/// 2×2 matrix product over `i64` (mod wrapping arithmetic) — a second
/// non-commutative operator, exercising engines with a "wide" element type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mat2Mul;

impl CombineOp<[i64; 4]> for Mat2Mul {
    const COMMUTATIVE: bool = false;
    #[inline(always)]
    fn identity(&self) -> [i64; 4] {
        [1, 0, 0, 1]
    }
    #[inline(always)]
    fn combine(&self, a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        [
            a[0].wrapping_mul(b[0])
                .wrapping_add(a[1].wrapping_mul(b[2])),
            a[0].wrapping_mul(b[1])
                .wrapping_add(a[1].wrapping_mul(b[3])),
            a[2].wrapping_mul(b[0])
                .wrapping_add(a[3].wrapping_mul(b[2])),
            a[2].wrapping_mul(b[1])
                .wrapping_add(a[3].wrapping_mul(b[3])),
        ]
    }
}

// FirstLast and the arg-selectors only ever *select* one of their
// arguments' components, so they are total.
impl TryCombineOp<(i32, i32)> for FirstLast {
    #[inline(always)]
    fn checked_combine(&self, a: (i32, i32), b: (i32, i32)) -> Option<(i32, i32)> {
        Some(self.combine(a, b))
    }
    #[inline(always)]
    fn saturating_combine(&self, a: (i32, i32), b: (i32, i32)) -> (i32, i32) {
        self.combine(a, b)
    }
}

impl TryCombineOp<(i64, i64)> for ArgMax {
    #[inline(always)]
    fn checked_combine(&self, a: (i64, i64), b: (i64, i64)) -> Option<(i64, i64)> {
        Some(self.combine(a, b))
    }
    #[inline(always)]
    fn saturating_combine(&self, a: (i64, i64), b: (i64, i64)) -> (i64, i64) {
        self.combine(a, b)
    }
}

impl TryCombineOp<(i64, i64)> for ArgMin {
    #[inline(always)]
    fn checked_combine(&self, a: (i64, i64), b: (i64, i64)) -> Option<(i64, i64)> {
        Some(self.combine(a, b))
    }
    #[inline(always)]
    fn saturating_combine(&self, a: (i64, i64), b: (i64, i64)) -> (i64, i64) {
        self.combine(a, b)
    }
}

impl TryCombineOp<[i64; 4]> for Mat2Mul {
    #[inline(always)]
    fn checked_combine(&self, a: [i64; 4], b: [i64; 4]) -> Option<[i64; 4]> {
        let cell = |x: i64, y: i64, z: i64, w: i64| -> Option<i64> {
            x.checked_mul(y)?.checked_add(z.checked_mul(w)?)
        };
        Some([
            cell(a[0], b[0], a[1], b[2])?,
            cell(a[0], b[1], a[1], b[3])?,
            cell(a[2], b[0], a[3], b[2])?,
            cell(a[2], b[1], a[3], b[3])?,
        ])
    }
    #[inline(always)]
    fn saturating_combine(&self, a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        let cell = |x: i64, y: i64, z: i64, w: i64| -> i64 {
            x.saturating_mul(y).saturating_add(z.saturating_mul(w))
        };
        [
            cell(a[0], b[0], a[1], b[2]),
            cell(a[0], b[1], a[1], b[3]),
            cell(a[2], b[0], a[3], b[2]),
            cell(a[2], b[1], a[3], b[3]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check_laws<T: Element + PartialEq + std::fmt::Debug, O: CombineOp<T>>(
        op: O,
        a: T,
        b: T,
        c: T,
    ) {
        let id = op.identity();
        assert_eq!(op.combine(id, a), a, "left identity");
        assert_eq!(op.combine(a, id), a, "right identity");
        assert_eq!(
            op.combine(a, op.combine(b, c)),
            op.combine(op.combine(a, b), c),
            "associativity"
        );
        if O::COMMUTATIVE {
            assert_eq!(op.combine(a, b), op.combine(b, a), "commutativity");
        }
    }

    proptest! {
        #[test]
        fn plus_i64_laws(a: i64, b: i64, c: i64) { check_laws(Plus, a, b, c); }

        #[test]
        fn mult_i64_laws(a: i64, b: i64, c: i64) { check_laws(Mult, a, b, c); }

        #[test]
        fn max_i64_laws(a: i64, b: i64, c: i64) { check_laws(Max, a, b, c); }

        #[test]
        fn min_i64_laws(a: i64, b: i64, c: i64) { check_laws(Min, a, b, c); }

        #[test]
        fn and_u64_laws(a: u64, b: u64, c: u64) { check_laws(And, a, b, c); }

        #[test]
        fn or_u64_laws(a: u64, b: u64, c: u64) { check_laws(Or, a, b, c); }

        #[test]
        fn and_bool_laws(a: bool, b: bool, c: bool) { check_laws(And, a, b, c); }

        #[test]
        fn or_bool_laws(a: bool, b: bool, c: bool) { check_laws(Or, a, b, c); }

        #[test]
        fn xor_u64_laws(a: u64, b: u64, c: u64) { check_laws(Xor, a, b, c); }

        #[test]
        fn xor_i32_laws(a: i32, b: i32, c: i32) { check_laws(Xor, a, b, c); }

        #[test]
        fn xor_uncombine_is_exact_inverse(a: u64, b: u64) {
            prop_assert_eq!(Xor.combine(Xor.uncombine(a, b), b), a);
            prop_assert_eq!(Xor.uncombine(Xor.combine(a, b), b), a);
        }

        #[test]
        fn argmax_laws(
            a in (any::<i64>(), 0i64..1000),
            b in (any::<i64>(), 0i64..1000),
            c in (any::<i64>(), 0i64..1000),
        ) {
            check_laws(ArgMax, a, b, c);
        }

        #[test]
        fn argmin_laws(
            a in (any::<i64>(), 0i64..1000),
            b in (any::<i64>(), 0i64..1000),
            c in (any::<i64>(), 0i64..1000),
        ) {
            check_laws(ArgMin, a, b, c);
        }

        #[test]
        fn first_last_laws(
            a in (0i32..100, 0i32..100),
            b in (0i32..100, 0i32..100),
            c in (0i32..100, 0i32..100),
        ) {
            check_laws(FirstLast, a, b, c);
        }

        #[test]
        fn mat2_laws(a: [i64; 4], b: [i64; 4], c: [i64; 4]) {
            check_laws(Mat2Mul, a, b, c);
        }

        // f64 PLUS is only associative up to rounding, but identity laws are
        // exact; MAX/MIN are exactly associative on non-NaN floats.
        #[test]
        fn max_f64_laws(a in -1e12f64..1e12, b in -1e12f64..1e12, c in -1e12f64..1e12) {
            check_laws(Max, a, b, c);
        }

        #[test]
        fn min_f64_laws(a in -1e12f64..1e12, b in -1e12f64..1e12, c in -1e12f64..1e12) {
            check_laws(Min, a, b, c);
        }
    }

    #[test]
    fn float_identities_exact() {
        assert_eq!(CombineOp::<f64>::identity(&Plus), 0.0);
        assert_eq!(CombineOp::<f64>::identity(&Mult), 1.0);
        assert_eq!(Plus.combine(0.0f64, 3.5), 3.5);
        assert_eq!(Mult.combine(1.0f64, 3.5), 3.5);
    }

    #[test]
    fn argmax_prefers_earlier_on_ties() {
        assert_eq!(ArgMax.combine((5, 3), (5, 7)), (5, 3));
        assert_eq!(ArgMax.combine((5, 7), (5, 3)), (5, 3));
        assert_eq!(ArgMax.combine((4, 0), (5, 9)), (5, 9));
        assert_eq!(ArgMin.combine((5, 3), (5, 7)), (5, 3));
        assert_eq!(ArgMin.combine((4, 9), (5, 0)), (4, 9));
    }

    #[test]
    fn running_argmax_through_multiprefix() {
        // The idiom: pair each value with its index, multiprefix with
        // ArgMax -> each element learns the position of the largest
        // preceding same-label value.
        let values: Vec<(i64, i64)> = [3i64, 9, 2, 9, 1]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as i64))
            .collect();
        let labels = [0usize; 5];
        let out = crate::serial::multiprefix_serial(&values, &labels, 1, ArgMax);
        assert_eq!(out.sums[0], (i64::MIN, i64::MAX));
        assert_eq!(out.sums[2], (9, 1));
        assert_eq!(out.sums[4], (9, 1), "first 9 wins the tie");
        assert_eq!(out.reductions[0], (9, 1));
    }

    #[test]
    fn first_last_keeps_order() {
        let a = (1, 2);
        let b = (3, 4);
        assert_eq!(FirstLast.combine(a, b), (1, 4));
        assert_eq!(FirstLast.combine(b, a), (3, 2));
    }

    #[test]
    fn mat2_is_noncommutative_witness() {
        let a = [1, 1, 0, 1];
        let b = [1, 0, 1, 1];
        assert_ne!(Mat2Mul.combine(a, b), Mat2Mul.combine(b, a));
    }

    #[test]
    fn checked_combine_agrees_with_combine_when_representable() {
        for (a, b) in [(3i64, 4), (-7, 7), (i64::MAX, 0), (i64::MIN, 0)] {
            assert_eq!(Plus.checked_combine(a, b), Some(Plus.combine(a, b)));
            assert_eq!(Plus.saturating_combine(a, b), Plus.combine(a, b));
        }
        assert_eq!(Mult.checked_combine(1i64 << 32, 1 << 31), None);
        assert_eq!(Mult.saturating_combine(1i64 << 32, 1 << 31), i64::MAX);
    }

    #[test]
    fn checked_combine_detects_overflow() {
        assert_eq!(Plus.checked_combine(i64::MAX, 1), None);
        assert_eq!(Plus.checked_combine(i64::MIN, -1), None);
        assert_eq!(Plus.saturating_combine(i64::MAX, 1), i64::MAX);
        assert_eq!(Plus.saturating_combine(i64::MIN, -1), i64::MIN);
        // Selection operators are total.
        assert_eq!(Max.checked_combine(i64::MAX, i64::MIN), Some(i64::MAX));
        assert_eq!(Min.checked_combine(i64::MAX, i64::MIN), Some(i64::MIN));
        assert_eq!(And.checked_combine(!0u64, 5), Some(5));
        assert_eq!(Or.checked_combine(0u64, 5), Some(5));
    }

    #[test]
    fn float_checked_is_total() {
        assert_eq!(
            Plus.checked_combine(f64::MAX, f64::MAX),
            Some(f64::INFINITY)
        );
        assert_eq!(Mult.saturating_combine(f64::MAX, 2.0), f64::INFINITY);
    }

    #[test]
    fn mat2_checked_overflow() {
        let big = [i64::MAX / 2, 0, 0, i64::MAX / 2];
        assert_eq!(Mat2Mul.checked_combine(big, big), None);
        let sat = Mat2Mul.saturating_combine(big, big);
        assert_eq!(sat[0], (i64::MAX / 2).saturating_mul(i64::MAX / 2));
        let id = Mat2Mul.identity();
        assert_eq!(Mat2Mul.checked_combine(big, id), Some(big));
    }
}
