//! The oracle harness's cells in one binary (see `tests/oracle` for the
//! generator, the check, and which file drives which cell).
//!
//! **Operators.** Every entry point computes Figure 2's multiprefix for
//! `Plus`, the non-commutative `FirstLast` and `Max`/`Min`/`Mult`, whatever
//! the shape; the spinetree's answer does not depend on which writer wins
//! arbitration or on the row length; and Figure 2 itself meets the
//! definition.
//!
//! **Overflow policies.** For any input and policy, every entry that takes
//! a policy returns the *same* `Result` as Figure 2's hardened loop —
//! serial's bits on success, the identical serial-order error on overflow
//! — and an engine's own hardened entry either agrees or reports a trip for
//! its caller's serial replay. The policy, not the engine choice, decides
//! what the caller observes.
//!
//! **Recorder.** Instrumentation is purely observational: every entry that
//! takes a `RunContext`, and the dispatcher above them, returns serial's
//! answer with a recorder installed as it does without one, and the
//! recorder really saw the run. That "no recorder ⇒ no clock read" is
//! `obs::tests::span_without_recorder_is_inert`'s.
//!
//! **Floats and the service.** On floats only serial order gives serial's
//! bits: `Serial`, every one-chunk chunked run (`Auto`, the default
//! dispatcher chain, the service) must return them, a split chunked run the
//! bits of its own grouping, and the spinetree is held to serial where the
//! sums are exact. The service runs the default dispatcher, so on every
//! value family its replies are serial's bits, with coalescing or without,
//! and it refuses an invalid request at submission with `validate`'s
//! error.
//!
//! One `i64` shape is large enough that the engines advise huge pages on
//! its outputs (4 MiB and up, see `multiprefix::exec`): every entry that
//! takes it must still return serial's bits.
//!
//! **The single-label loop.** With one label (`m == 1`) the chunked engine
//! runs one loop that reads no label. For every operator, element width
//! and overflow policy, its prefix entry and the API's chunked prefix and
//! reduce return Figure 2's `Result` under the same policy, bit for bit —
//! floats included, on one chunk — and a checked run trips exactly where
//! Figure 2's does.

mod oracle;

use multiprefix::chunked::try_multiprefix_chunked_cfg_ctx;
use multiprefix::op::{FirstLast, Max, Min, Mult, Plus, TryCombineOp, Xor};
use multiprefix::resilience::RunContext;
use multiprefix::serial::{multiprefix_serial, try_multiprefix_serial_ctx};
use multiprefix::spinetree::build::ArbPolicy;
use multiprefix::spinetree::engine::multiprefix_spinetree_instrumented;
use multiprefix::spinetree::layout::Layout;
use multiprefix::{
    try_multiprefix_ctx, try_multireduce_ctx, Engine, ExecConfig, MpError, MultiprefixOutput,
    OverflowPolicy,
};
use oracle::{
    fixed_shapes, service_matches_serial, Case, Exact, Invalid, Order, Problem, Rng, Shape, Side,
    Skew, Values, ADVERSARIAL, BENIGN, FLOATS, PAIRS, POLICIES, SERVES, WHOLE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fixed<T: Exact, O: TryCombineOp<T>>(family: Values<T>, op: O) -> Vec<Case<T, O>> {
    fixed_shapes()
        .into_iter()
        .map(|s| Case::new(s, family, op))
        .collect()
}

/// Figure 2's answer (the case's `want`) is the multiprefix by its
/// definition: each element's sum is the ⊕, in vector order, of the
/// earlier values with its label, and each label's reduction that of all
/// of them — computed here per label, independently of Figure 2's one pass
/// over the buckets.
fn assert_definition<T: Exact, O: TryCombineOp<T>>(case: &Case<T, O>) {
    let p = &case.p;
    let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &l) in p.labels.iter().enumerate() {
        classes.entry(l).or_default().push(i);
    }
    let mut sums = vec![None; p.values.len()];
    let mut reductions = vec![case.op.identity(); p.m];
    for (&l, members) in &classes {
        let mut acc = case.op.identity();
        for &i in members {
            sums[i] = Some(acc);
            acc = case.op.combine(acc, p.values[i]);
        }
        reductions[l] = acc;
    }
    let sums = sums.into_iter().map(Option::unwrap).collect();
    let defined = MultiprefixOutput { sums, reductions };
    case.assert_matches_serial("the definition", Order::Serial, Ok(defined));
}

/// The instrumented spinetree under every arbitration policy, on the
/// square layout and on rows `skew` times as long, one element long and
/// the whole vector long.
fn assert_arbitration<T: Exact, O: TryCombineOp<T>>(case: Case<T, O>, seed: u64, skew: usize) {
    use ArbPolicy::*;
    let ((v, l, m, op), n) = (case.io(), case.n());
    let square = Layout::square(n, m);
    for row_len in [square.row_len, square.row_len * skew, 1, n.max(1)] {
        let layout = Layout::with_row_len(n, m, row_len);
        for policy in [LastWins, FirstWins, Seeded(seed)] {
            let run = multiprefix_spinetree_instrumented(v, l, op, layout, policy);
            let entry = format!("instrumented row_len={row_len} {policy:?}");
            case.assert_matches_serial(&entry, Order::Spinetree, Ok(run.output));
        }
    }
}

/// Every entry that takes a policy: the `RunContext` entries (Figure 2's,
/// the engines' and the API's), the dispatcher's two and the atomic
/// engine's canonical entry — and, on the sampled cases, the atomic
/// engine's context entry.
fn policy_entries(case: &Case<i64, Plus>) {
    case.with_ctx(Side::Both, false);
    case.dispatch(Side::Both, false);
    case.atomic_hardened();
    if case.atomic_sampled() {
        case.atomic(false);
    }
}

// Operators, arbitration and the definition.
proptest! {
    #[test]
    fn engines_agree_plus(seed: u64) {
        let case = Case::new(Shape::draw(seed), BENIGN, Plus);
        case.every_entry(Side::Prefix);
        case.atomic_hardened();
        case.atomic(false);
    }

    #[test]
    fn noncommutative_order_preserved(seed: u64) {
        Case::new(Shape::draw(seed), PAIRS, FirstLast).every_entry(Side::Both);
    }

    /// One of `Max`, `Min` and `Mult` per case, by seed.
    #[test]
    fn engines_agree_max_min_mult(seed: u64) {
        let shape = Shape::draw(seed);
        match seed % 3 {
            0 => Case::new(shape, BENIGN, Max).every_entry(Side::Both),
            1 => Case::new(shape, BENIGN, Min).every_entry(Side::Both),
            _ => Case::new(shape, BENIGN, Mult).every_entry(Side::Both),
        }
    }

    #[test]
    fn multireduce_agrees_everywhere(seed: u64) {
        let case = Case::new(Shape::draw(seed), BENIGN, Plus);
        case.every_entry(Side::Reduce);
        case.atomic(false);
    }

    #[test]
    fn arbitration_never_changes_results(seed: u64, skew in 2usize..6) {
        let shape = Shape::draw(seed);
        assert_arbitration(Case::new(shape, BENIGN, Plus), seed, skew);
        assert_arbitration(Case::new(shape, PAIRS, FirstLast), seed, skew);
        assert_arbitration(Case::new(shape, WHOLE, Plus), seed, skew);
    }

    #[test]
    fn sums_satisfy_definition(seed: u64) {
        let shape = Shape::draw(seed);
        assert_definition(&Case::new(shape, BENIGN, Plus));
        assert_definition(&Case::new(shape, PAIRS, FirstLast));
        assert_definition(&Case::new(shape, FLOATS, Plus));
    }
}

// Overflow policies.
proptest! {
    /// i32-range values never overflow an `i64` sum, so every policy's
    /// answer is the plain one.
    #[test]
    fn benign_inputs_succeed_identically_under_every_policy(seed: u64) {
        let shape = Shape::draw(seed);
        let wrap = Case::new(shape, BENIGN, Plus).want;
        for policy in POLICIES {
            let case = Case::with_policy(shape, BENIGN, Plus, policy);
            prop_assert_eq!(&case.want, &wrap);
            case.with_ctx(Side::Prefix, false);
            case.dispatch(Side::Prefix, false);
            case.atomic_hardened();
        }
    }

    #[test]
    fn adversarial_inputs_yield_one_canonical_result(seed: u64) {
        let shape = Shape::draw(seed);
        for policy in POLICIES {
            let case = Case::with_policy(shape, ADVERSARIAL, Plus, policy);
            case.with_ctx(Side::Prefix, false);
            case.dispatch(Side::Prefix, false);
            case.atomic_hardened();
        }
    }

    #[test]
    fn multireduce_policies_agree_across_engines(seed: u64) {
        let shape = Shape::draw(seed);
        for policy in POLICIES {
            let case = Case::with_policy(shape, ADVERSARIAL, Plus, policy);
            case.with_ctx(Side::Reduce, false);
            case.dispatch(Side::Reduce, false);
            if case.atomic_sampled() {
                case.atomic(false);
            }
        }
    }

    #[test]
    fn saturating_never_errors(seed: u64) {
        let saturating = OverflowPolicy::Saturating;
        let case = Case::with_policy(Shape::draw(seed), ADVERSARIAL, Plus, saturating);
        prop_assert!(case.want.is_ok(), "{:?}", case.want);
        case.with_ctx(Side::Reduce, false);
        case.dispatch(Side::Reduce, false);
    }

    /// Whenever Checked fails, the reported index is the first element
    /// whose serial bucket combine is unrepresentable — checked against a
    /// direct reconstruction.
    #[test]
    fn checked_errors_carry_the_first_serial_trip_index(seed: u64) {
        let checked = OverflowPolicy::Checked;
        let case = Case::with_policy(Shape::draw(seed), ADVERSARIAL, Plus, checked);
        let mut buckets = vec![0i64; case.p.m];
        let trip = case.p.values.iter().zip(&case.p.labels).position(|(&v, &l)| {
            match buckets[l].checked_add(v) {
                Some(sum) => {
                    buckets[l] = sum;
                    false
                }
                None => true,
            }
        });
        match (&case.want, trip) {
            (Err(MpError::ArithmeticOverflow { index }), Some(t)) => prop_assert_eq!(*index, t),
            (Ok(_), None) => {}
            (want, trip) => prop_assert!(false, "serial {:?}, first trip {:?}", want, trip),
        }
    }

    /// Under `Wrap` the entries that take no policy — the plain API on
    /// every engine and the engines' plain entries — give the same
    /// wrapped bits.
    #[test]
    fn wrap_policy_is_the_plain_api(seed: u64) {
        let case = Case::new(Shape::draw(seed), ADVERSARIAL, Plus);
        case.plain(Side::Prefix);
        case.plain(Side::Reduce);
    }
}

/// The fixed shapes (every length, label-space and skew class, three
/// `MIN_CHUNK_LEN` chunks among them) and 44 drawn ones, with fixed
/// seeds, under every policy.
#[test]
fn deterministic_adversarial_sweep() {
    for shape in fixed_shapes().into_iter().chain((0..44).map(Shape::draw)) {
        for policy in POLICIES {
            policy_entries(&Case::with_policy(shape, ADVERSARIAL, Plus, policy));
        }
    }
}

// The recorder.
proptest! {
    /// Each case runs one value family, by seed, and the atomic engine.
    #[test]
    fn every_engine_is_bit_identical_with_and_without_recorder(seed: u64) {
        let shape = Shape::draw(seed);
        Case::new(shape, BENIGN, Plus).atomic(true);
        match seed % 4 {
            0 => {
                let case = Case::new(shape, BENIGN, Plus);
                case.with_ctx(Side::Prefix, true);
                case.with_ctx(Side::Reduce, true);
            }
            1 => Case::new(shape, PAIRS, FirstLast).with_ctx(Side::Prefix, true),
            2 => Case::new(shape, FLOATS, Plus).with_ctx(Side::Reduce, true),
            _ => Case::new(shape, WHOLE, Plus).with_ctx(Side::Prefix, true),
        }
    }

    #[test]
    fn dispatcher_output_is_bit_identical_with_and_without_recorder(seed: u64) {
        let shape = Shape::draw(seed);
        let case = Case::new(shape, BENIGN, Plus);
        case.dispatch(Side::Prefix, true);
        case.dispatch(Side::Reduce, true);
        if case.atomic_sampled() {
            case.atomic(true);
        }
        Case::new(shape, FLOATS, Plus).dispatch(Side::Prefix, true);
    }
}

// Floats, the service and the huge-page threshold.
proptest! {
    #[test]
    fn every_entry_matches_serial_or_its_grouping_on_floats(seed: u64) {
        for family in [FLOATS, WHOLE] {
            let case = Case::new(Shape::draw(seed), family, Plus);
            case.every_entry(Side::Both);
        }
    }
}

#[test]
fn service_matches_serial_with_and_without_coalescing() {
    for serve in SERVES {
        service_matches_serial(&fixed(BENIGN, Plus), serve);
        service_matches_serial(&fixed(FLOATS, Plus), serve);
        service_matches_serial(&fixed(WHOLE, Plus), serve);
        service_matches_serial(&fixed(PAIRS, FirstLast), serve);
        for seed in 0..12 {
            Invalid::draw(seed).service(serve);
        }
    }
}

/// n = 2¹⁹ + 3 `i64`s: every `n`-element output is just past the 4 MiB the
/// engines advise for huge pages. Seed 3 splits the `threads` runs in two.
#[test]
fn outputs_past_the_huge_page_threshold_match_serial() {
    let n = (1 << 19) + 3;
    let shape = Shape {
        n,
        m: n / 16,
        skew: Skew::Uniform,
        seed: 3,
    };
    let case = Case::new(shape, BENIGN, Plus);
    assert_eq!(case.threads, 2);
    case.every_entry(Side::Prefix);
}

// The single-label loop.

fn bits<T: Exact>(xs: &[T]) -> Vec<u64> {
    xs.iter().map(|&x| x.bits()).collect()
}

/// The chunked engine's prefix entry and the API's chunked prefix and
/// reduce, under `cfg`, against Figure 2 under `cfg`'s policy: the same
/// `Result`, bit for bit. The engine entry may report a trip (`Ok(None)`)
/// under a checking policy instead, for its caller's serial replay; on
/// one chunk it does exactly when Figure 2's checked run overflows.
fn assert_chunked_matches_serial<T: Exact, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
) {
    let ctx = RunContext::new();
    let what = format!("n={} m={m} {cfg:?}", values.len());
    let want = match cfg.overflow {
        OverflowPolicy::Wrap => Ok(multiprefix_serial(values, labels, m, op)),
        policy => try_multiprefix_serial_ctx(values, labels, m, op, policy, &ctx),
    };
    let out_bits = |got: Result<MultiprefixOutput<T>, MpError>| {
        got.map(|out| (bits(&out.sums), bits(&out.reductions)))
    };
    let want_bits = out_bits(want.clone());
    match try_multiprefix_chunked_cfg_ctx(values, labels, m, op, cfg, &ctx) {
        Ok(None) => {
            assert_ne!(cfg.overflow, OverflowPolicy::Wrap, "{what}: tripped");
            if cfg.threads.is_none() {
                let checked = OverflowPolicy::Checked;
                let serial = try_multiprefix_serial_ctx(values, labels, m, op, checked, &ctx);
                assert!(serial.is_err(), "{what}: tripped where Figure 2 does not");
            }
        }
        got => assert_eq!(
            out_bits(got.map(Option::unwrap)),
            want_bits,
            "{what}: try_multiprefix_chunked_cfg_ctx"
        ),
    }
    let got = try_multiprefix_ctx(values, labels, m, op, Engine::Chunked, cfg, &ctx);
    assert_eq!(out_bits(got), want_bits, "{what}: try_multiprefix_ctx");
    let got = try_multireduce_ctx(values, labels, m, op, Engine::Chunked, cfg, &ctx);
    assert_eq!(
        got.map(|r| bits(&r)),
        want.map(|out| bits(&out.reductions)),
        "{what}: try_multireduce_ctx"
    );
}

/// Every operator with an exact machine counterpart × 32- and 64-bit
/// widths, at lengths around one 256-bit register's 4 and 8 lanes, past a
/// check-stride block, and empty.
#[test]
fn kerneled_matrix_single_label() {
    let lens = |lanes: usize| [0, 1, lanes - 1, lanes, lanes + 1, 257, 1_000, 4_099];

    macro_rules! grid {
        ($t:ty, $lanes:expr, $mk:expr, $($op:expr),+) => {{
            let mk: fn(u64) -> $t = $mk;
            for n in lens($lanes) {
                let mut r = Rng(0x5EED ^ n as u64);
                let values: Vec<$t> = (0..n).map(|_| mk(r.next())).collect();
                let labels = vec![0usize; n];
                $(
                    assert_chunked_matches_serial(&values, &labels, 1, $op, ExecConfig::default());
                )+
            }
        }};
    }

    grid!(u64, 4, |r| r, Plus, Max, Min, Xor);
    grid!(i64, 4, |r| r as i64, Plus, Max, Min, Xor);
    grid!(u32, 8, |r| r as u32, Plus, Max, Min, Xor);
    grid!(i32, 8, |r| r as i32, Plus, Max, Min, Xor);
}

/// Wrapping adds whose prefixes cross the type's maximum again and again.
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
    assert_chunked_matches_serial(&values, &labels, 1, Plus, ExecConfig::default());

    let values: Vec<i64> = vec![i64::MAX, 1, i64::MAX, i64::MIN, -1, i64::MIN, 5, 7];
    let labels = vec![0usize; values.len()];
    assert_chunked_matches_serial(&values, &labels, 1, Plus, ExecConfig::default());

    let values: Vec<u32> = (0..37).map(|i| u32::MAX - i).collect();
    let labels = vec![0usize; values.len()];
    assert_chunked_matches_serial(&values, &labels, 1, Plus, ExecConfig::default());
}

/// Many check-stride blocks and a ragged end, on one chunk and split four
/// ways, so the apply phase's one-offset prepend runs too.
#[test]
fn large_odd_length_u64_add() {
    let n = 1_000_003usize;
    let mut r = Rng(0xFEED);
    let values: Vec<u64> = (0..n).map(|_| r.next()).collect();
    let labels = vec![0usize; n];
    for cfg in [ExecConfig::default(), ExecConfig::default().threads(4)] {
        assert_chunked_matches_serial(&values, &labels, 1, Plus, cfg);
    }
}

/// On one chunk the loop adds in serial order, so float sums are
/// serial's bits: whole numbers, and values whose sums round.
#[test]
fn floats_on_one_chunk_are_serial_bits() {
    for n in [0usize, 1, 7, 8, 9, 1_000] {
        let mut rng = Rng(0xF0 + n as u64);
        let mut draw = |round: bool| {
            let r = rng.next();
            match round {
                false => (r % 1024) as f64 - 512.0,
                true => [1e-24, -1e-16, 1e-8][(r % 3) as usize] * (r >> 8) as f64,
            }
        };
        let labels = vec![0usize; n];
        for round in [false, true] {
            let values: Vec<f64> = (0..n).map(|_| draw(round)).collect();
            assert_chunked_matches_serial(&values, &labels, 1, Plus, ExecConfig::default());
            let values: Vec<f32> = values.iter().map(|&v| v as f32).collect();
            assert_chunked_matches_serial(&values, &labels, 1, Plus, ExecConfig::default());
        }
    }
}

/// Widths and operators with no machine counterpart, the checking
/// policies on values that do and do not overflow, and five labels.
#[test]
fn non_eligible_combinations_fall_through() {
    let mut r = Rng(0xDEAD);
    let values: Vec<u8> = (0..513).map(|_| r.next() as u8).collect();
    let labels = vec![0usize; values.len()];
    assert_chunked_matches_serial(&values, &labels, 1, Plus, ExecConfig::default());

    let values: Vec<i64> = (0..257).map(|_| (r.next() % 7) as i64 | 1).collect();
    let labels = vec![0usize; values.len()];
    assert_chunked_matches_serial(&values, &labels, 1, Mult, ExecConfig::default());

    let benign: Vec<i64> = (0..300).map(|_| (r.next() % 1000) as i64 - 500).collect();
    let mut overflowing = benign.clone();
    overflowing[150] = i64::MAX;
    let labels = vec![0usize; benign.len()];
    for policy in [OverflowPolicy::Checked, OverflowPolicy::Saturating] {
        for values in [&benign, &overflowing] {
            let cfg = ExecConfig::default().overflow(policy);
            assert_chunked_matches_serial(values, &labels, 1, Plus, cfg);
            assert_chunked_matches_serial(values, &labels, 1, Plus, cfg.threads(4));
        }
    }

    let values: Vec<u64> = (0..1_000).map(|_| r.next()).collect();
    let labels: Vec<usize> = (0..1_000).map(|i| i % 5).collect();
    assert_chunked_matches_serial(&values, &labels, 5, Plus, ExecConfig::default());
}

/// The partition-method scans against the serial scans.
#[test]
fn partition_scans_match_serial() {
    use multiprefix::scan::{
        exclusive_scan_partition, exclusive_scan_serial, inclusive_scan_partition,
        inclusive_scan_serial,
    };
    let mut r = Rng(0xCAFE);
    for n in [0usize, 1, 3, 4, 5, 1_000, 100_003] {
        let values: Vec<u64> = (0..n).map(|_| r.next()).collect();
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

proptest! {
    /// The harness's shapes, one label in four draws, with values near the
    /// ends of `i64`.
    #[test]
    fn simd_matches_scalar_i64_any_shape(seed: u64) {
        let p = Problem::new(Shape::draw(seed), ADVERSARIAL);
        assert_chunked_matches_serial(&p.values, &p.labels, p.m, Plus, ExecConfig::default());
        assert_chunked_matches_serial(&p.values, &p.labels, p.m, Xor, ExecConfig::default());
    }

    #[test]
    fn simd_matches_scalar_u32_minmax(pairs in proptest::collection::vec(any::<u32>(), 0..300)) {
        let labels = vec![0usize; pairs.len()];
        assert_chunked_matches_serial(&pairs, &labels, 1, Max, ExecConfig::default());
        assert_chunked_matches_serial(&pairs, &labels, 1, Min, ExecConfig::default());
    }
}
