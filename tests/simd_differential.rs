//! Differential suite for the vectorized kernels: for every recognized
//! operator × element width × length straddling the lane boundaries, the
//! SIMD path and the scalar path must agree **bit for bit** on every
//! prefix and every reduction — and every non-eligible combination
//! (unkerneled widths, unkerneled operators, checking overflow policies,
//! multi-label fall-through) must be indistinguishable from scalar
//! because it *is* scalar.
//!
//! The scalar reference is not a separate oracle: it is the same engine
//! run with the per-call [`ExecConfig::force_scalar`] pin, so both legs
//! share one process and exactly one code base modulo the kernel
//! dispatch. A divergence can therefore only come from the kernels
//! themselves.

use multiprefix::chunked::{try_multiprefix_chunked_cfg_ctx, try_multireduce_chunked_cfg_ctx};
use multiprefix::op::{Max, Min, Mult, Plus, Xor};
use multiprefix::resilience::RunContext;
use multiprefix::{Element, ExecConfig, TryCombineOp};
use proptest::prelude::*;

/// Lane widths of the AVX2 kernels: lengths bracketing these are where
/// the remainder handling and the carry hand-off can go wrong.
const LANES_64: usize = 4;
const LANES_32: usize = 8;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 7
}

/// Run the chunked engine's prefix and reduce entry points under `cfg` and
/// under `cfg.force_scalar(true)` and require bit-identical results.
fn assert_simd_matches_scalar<T, O>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
) where
    T: Element + PartialEq + std::fmt::Debug,
    O: TryCombineOp<T> + Copy,
{
    let ctx = RunContext::new();
    let scalar = cfg.force_scalar(true);

    let fast = try_multiprefix_chunked_cfg_ctx(values, labels, m, op, cfg, &ctx).unwrap();
    let slow = try_multiprefix_chunked_cfg_ctx(values, labels, m, op, scalar, &ctx).unwrap();
    assert_eq!(fast, slow, "chunked prefix n={} m={m}", values.len());

    let fast = try_multireduce_chunked_cfg_ctx(values, labels, m, op, cfg, &ctx).unwrap();
    let slow = try_multireduce_chunked_cfg_ctx(values, labels, m, op, scalar, &ctx).unwrap();
    assert_eq!(fast, slow, "chunked reduce n={} m={m}", values.len());
}

/// The single-label fast-path matrix: every kerneled operator × width ×
/// length straddling both lane boundaries (empty, one element, lane−1,
/// lane, lane+1, a full check-stride block and change).
#[test]
fn kerneled_matrix_single_label() {
    let lens = |lanes: usize| [0, 1, lanes - 1, lanes, lanes + 1, 257, 1_000, 4_099];

    macro_rules! grid {
        ($t:ty, $lanes:expr, $mk:expr, $($op:expr),+) => {{
            let mk: fn(u64) -> $t = $mk;
            for n in lens($lanes) {
                let mut seed = 0x5EED ^ n as u64;
                let values: Vec<$t> = (0..n).map(|_| mk(lcg(&mut seed))).collect();
                let labels = vec![0usize; n];
                $(
                    assert_simd_matches_scalar(&values, &labels, 1, $op, ExecConfig::default());
                )+
            }
        }};
    }

    grid!(u64, LANES_64, |r| r, Plus, Max, Min, Xor);
    grid!(i64, LANES_64, |r| r as i64, Plus, Max, Min, Xor);
    grid!(u32, LANES_32, |r| r as u32, Plus, Max, Min, Xor);
    grid!(i32, LANES_32, |r| r as i32, Plus, Max, Min, Xor);
}

/// Wrapping adds whose prefixes straddle `T::MAX` repeatedly must wrap
/// exactly like the scalar left fold — the canonical kernel bug is a
/// carry recomputed in a different order.
#[test]
fn wrap_boundary_straddles_type_max() {
    let values: Vec<u64> = vec![
        u64::MAX - 3,
        7,
        u64::MAX,
        1,
        2,
        u64::MAX - 1,
        5,
        9,
        11,
        u64::MAX / 2,
        u64::MAX / 2 + 3,
    ];
    let labels = vec![0usize; values.len()];
    assert_simd_matches_scalar(&values, &labels, 1, Plus, ExecConfig::default());

    let values: Vec<i64> = vec![i64::MAX, 1, i64::MAX, i64::MIN, -1, i64::MIN, 5, 7];
    let labels = vec![0usize; values.len()];
    assert_simd_matches_scalar(&values, &labels, 1, Plus, ExecConfig::default());

    let values: Vec<u32> = (0..37).map(|i| u32::MAX - i).collect();
    let labels = vec![0usize; values.len()];
    assert_simd_matches_scalar(&values, &labels, 1, Plus, ExecConfig::default());
}

/// A large odd length exercises many full AVX2 blocks, several checkpoint
/// strides, and a ragged remainder at once — on one chunk, and split four
/// ways so the apply phase's carry broadcast runs too.
#[test]
fn large_odd_length_u64_add() {
    let n = 1_000_003usize;
    let mut seed = 0xFEED;
    let values: Vec<u64> = (0..n).map(|_| lcg(&mut seed)).collect();
    let labels = vec![0usize; n];
    for cfg in [ExecConfig::default(), ExecConfig::default().threads(4)] {
        assert_simd_matches_scalar(&values, &labels, 1, Plus, cfg);
    }
}

/// `f32` addition is opt-in ([`ExecConfig::simd_f32`]) because vector
/// reassociation is not exact in general; on sums that stay exactly
/// representable it must still be bit-identical to the scalar fold.
#[test]
fn f32_opt_in_exact_on_representable_sums() {
    for n in [0usize, 1, 7, 8, 9, 1_000] {
        let mut seed = 0xF0 + n as u64;
        // Small integers: every partial sum fits in f32's integer range.
        let values: Vec<f32> = (0..n)
            .map(|_| (lcg(&mut seed) % 1024) as f32 - 512.0)
            .collect();
        let labels = vec![0usize; n];
        assert_simd_matches_scalar(
            &values,
            &labels,
            1,
            Plus,
            ExecConfig::default().simd_f32(true),
        );
        // Without the opt-in, f32 must fall through (trivially identical).
        assert_simd_matches_scalar(&values, &labels, 1, Plus, ExecConfig::default());
    }
}

/// Non-eligible combinations fall through to scalar untouched: unkerneled
/// element widths, unkerneled operators, checking overflow policies, and
/// multi-label problems. These must succeed and agree — there is no SIMD
/// leg to diverge.
#[test]
fn non_eligible_combinations_fall_through() {
    let mut seed = 0xDEAD;
    // u8: kerneled op, unkerneled width.
    let values: Vec<u8> = (0..513).map(|_| lcg(&mut seed) as u8).collect();
    let labels = vec![0usize; values.len()];
    assert_simd_matches_scalar(&values, &labels, 1, Plus, ExecConfig::default());

    // Mult: kerneled width, unkerneled operator.
    let values: Vec<i64> = (0..257).map(|_| (lcg(&mut seed) % 7) as i64 | 1).collect();
    let labels = vec![0usize; values.len()];
    assert_simd_matches_scalar(&values, &labels, 1, Mult, ExecConfig::default());

    // Checked / Saturating: the guard needs per-combine checking, so
    // simd_ok is cleared and both legs run the checked scalar loops.
    for policy in [
        multiprefix::OverflowPolicy::Checked,
        multiprefix::OverflowPolicy::Saturating,
    ] {
        let values: Vec<i64> = (0..300)
            .map(|_| (lcg(&mut seed) % 1000) as i64 - 500)
            .collect();
        let labels = vec![0usize; values.len()];
        assert_simd_matches_scalar(
            &values,
            &labels,
            1,
            Plus,
            ExecConfig::default().overflow(policy),
        );
    }

    // m > 1: the multi-bucket tables stay scalar by design.
    let values: Vec<u64> = (0..1_000).map(|_| lcg(&mut seed)).collect();
    let labels: Vec<usize> = (0..1_000).map(|i| i % 5).collect();
    assert_simd_matches_scalar(&values, &labels, 5, Plus, ExecConfig::default());
}

/// The partition-method scans consume the same kernels; they must keep
/// matching the serial scan exactly on kerneled operators.
#[test]
fn partition_scans_match_serial_with_kernels() {
    use multiprefix::scan::{
        exclusive_scan_partition, exclusive_scan_serial, inclusive_scan_partition,
        inclusive_scan_serial,
    };
    let mut seed = 0xCAFE;
    for n in [0usize, 1, 3, 4, 5, 1_000, 100_003] {
        let values: Vec<u64> = (0..n).map(|_| lcg(&mut seed)).collect();
        assert_eq!(
            exclusive_scan_partition(&values, Plus),
            exclusive_scan_serial(&values, Plus),
            "exclusive n={n}"
        );
        assert_eq!(
            inclusive_scan_partition(&values, Xor),
            inclusive_scan_serial(&values, Xor),
            "inclusive n={n}"
        );
    }
}

/// Arbitrary problems weighted toward the fast path: one draw in two is
/// single-label (`m == 1`); the rest have small `m` so dense tables and
/// the multi-label fall-through both get sampled.
fn problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    (1usize..9, any::<bool>()).prop_flat_map(|(m, single)| {
        let m = if single { 1 } else { m };
        let label = any::<u32>().prop_map(move |x| x as usize % m);
        proptest::collection::vec((any::<i64>(), label), 0..400).prop_map(move |pairs| {
            let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
            (values, labels, m)
        })
    })
}

proptest! {
    #[test]
    fn simd_matches_scalar_i64_any_shape((values, labels, m) in problem()) {
        assert_simd_matches_scalar(&values, &labels, m, Plus, ExecConfig::default());
        assert_simd_matches_scalar(&values, &labels, m, Xor, ExecConfig::default());
    }

    #[test]
    fn simd_matches_scalar_u32_minmax(pairs in proptest::collection::vec(any::<u32>(), 0..300)) {
        let labels = vec![0usize; pairs.len()];
        assert_simd_matches_scalar(&pairs, &labels, 1, Max, ExecConfig::default());
        assert_simd_matches_scalar(&pairs, &labels, 1, Min, ExecConfig::default());
    }
}
