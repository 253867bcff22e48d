//! The portable kernels: the non-x86 leg of the dispatch table and the
//! surface Miri verifies.
//!
//! Each driver keeps the **same left-fold association** as the scalar
//! engines, so results are bit-identical for every family including
//! `f32`. The streaming passes (`combine_broadcast`, `reduce`) are plain
//! element loops over an inlined operator — the shape LLVM's
//! autovectorizer handles well for the integer families — and the scans
//! are unrolled four-wide for instruction-level parallelism of the
//! load/store traffic (the carry chain itself is inherently serial).

use super::ScalarFamily;
use std::mem::MaybeUninit;

pub(crate) fn excl_scan_into<F: ScalarFamily>(
    values: &[F::Elem],
    out: &mut [MaybeUninit<F::Elem>],
    carry: F::Elem,
) -> F::Elem {
    debug_assert_eq!(values.len(), out.len());
    let mut acc = carry;
    let mut vs = values.chunks_exact(4);
    let mut os = out.chunks_exact_mut(4);
    for (v, o) in (&mut vs).zip(&mut os) {
        o[0].write(acc);
        acc = F::op(acc, v[0]);
        o[1].write(acc);
        acc = F::op(acc, v[1]);
        o[2].write(acc);
        acc = F::op(acc, v[2]);
        o[3].write(acc);
        acc = F::op(acc, v[3]);
    }
    for (&v, o) in vs.remainder().iter().zip(os.into_remainder()) {
        o.write(acc);
        acc = F::op(acc, v);
    }
    acc
}

pub(crate) fn excl_scan_inplace<F: ScalarFamily>(xs: &mut [F::Elem], carry: F::Elem) -> F::Elem {
    let mut acc = carry;
    let mut chunks = xs.chunks_exact_mut(4);
    for c in &mut chunks {
        for x in c {
            let v = *x;
            *x = acc;
            acc = F::op(acc, v);
        }
    }
    for x in chunks.into_remainder() {
        let v = *x;
        *x = acc;
        acc = F::op(acc, v);
    }
    acc
}

pub(crate) fn incl_scan_inplace<F: ScalarFamily>(xs: &mut [F::Elem], carry: F::Elem) -> F::Elem {
    let mut acc = carry;
    let mut chunks = xs.chunks_exact_mut(4);
    for c in &mut chunks {
        for x in c {
            acc = F::op(acc, *x);
            *x = acc;
        }
    }
    for x in chunks.into_remainder() {
        acc = F::op(acc, *x);
        *x = acc;
    }
    acc
}

pub(crate) fn combine_broadcast<F: ScalarFamily>(acc: F::Elem, xs: &mut [F::Elem]) {
    for x in xs {
        *x = F::op(acc, *x);
    }
}

pub(crate) fn reduce<F: ScalarFamily>(init: F::Elem, xs: &[F::Elem]) -> F::Elem {
    xs.iter().fold(init, |a, &b| F::op(a, b))
}
