//! The oracle harness's chunking cells (see `tests/oracle`), and what is
//! specific to chunking.
//!
//! For any shape, operator and overflow policy, a chunked run on any chunk
//! count agrees with serial — bit for bit on integers, with its own
//! grouping on floats — including the degenerate shapes a chunked
//! decomposition is most likely to get wrong (empty input, one element,
//! every element on one label, `m ≫ n`) and the non-commutative operators
//! the combine scan's chunk ordering exists to protect. Each run owns its
//! chunk tables, so call sequences that change `m`, flip between
//! label-indexed and probed tables, and inject a local-phase panic must
//! leave every later call serial's answer.
//!
//! The invalid family lives here too: every direct engine entry and every
//! front door reports exactly the error `validate()` reports — same index,
//! whichever chunk found it, and even when a cancel, an expired deadline
//! or an injected fault stops the run first. And `Engine::Auto` stays
//! bit-identical to serial when many threads call it at once, and on
//! floats from one call to the next.

mod oracle;

use multiprefix::chunked::{multiprefix_chunked_with_parts, try_multiprefix_chunked_cfg_ctx};
use multiprefix::op::{FirstLast, Plus, TryCombineOp};
use multiprefix::resilience::{CancelToken, ChaosPlan, RunContext};
use multiprefix::serial::{multiprefix_serial, try_multiprefix_serial_ctx};
use multiprefix::{
    multiprefix, multireduce, try_multiprefix, try_multireduce_ctx, Element, Engine, ExecConfig,
    MpError, OverflowPolicy,
};
use oracle::{
    chunk_count, Case, Exact, Invalid, Order, Problem, Rng, Shape, Side, Skew, Values, BENIGN,
    FLOATS, PAIRS, POLICIES, SKEWS,
};
use proptest::prelude::*;

/// One call of a sequence: `(n, m, seed, panic)`. The
/// lengths span one to four 4096-element chunks on four workers, and `m`
/// moves between label-indexed and probed tables from call to call;
/// `panic` injects a chaos panic into the first local-phase worker.
fn call_sequence() -> impl Strategy<Value = Vec<(usize, usize, u64, bool)>> {
    let m = (0u8..3, 1usize..8, 8usize..5_000, 70_000usize..250_000)
        .prop_map(|(k, tiny, mid, huge)| [tiny, mid, huge][k as usize]);
    let call = (
        0usize..14_000,
        m,
        any::<u64>(),
        (0u8..5).prop_map(|k| k == 0),
    );
    proptest::collection::vec(call, 1..6)
}

/// Run `calls` one after another, each split four ways, and require every
/// successful call to be bit-identical to serial, and every injected panic
/// to surface as `EnginePanicked` without poisoning the calls after it.
fn assert_call_sequence_matches_serial<T, O>(
    calls: &[(usize, usize, u64, bool)],
    op: O,
    value: impl Fn(u64) -> T,
) where
    T: Element + PartialEq + std::fmt::Debug,
    O: TryCombineOp<T> + Copy,
{
    let cfg = ExecConfig::default().threads(4);
    for (call, &(n, m, seed, panic)) in calls.iter().enumerate() {
        let mut r = Rng(seed);
        let values: Vec<T> = (0..n).map(|_| value(r.next() >> 17)).collect();
        // Clustered labels so chunks share some labels and miss others.
        let labels: Vec<usize> = (0..n).map(|i| (r.below(64) + i / 97) % m).collect();
        let mut ctx = RunContext::new();
        if panic {
            let chaos = ChaosPlan::seeded(seed)
                .worker_panic_ppm(1_000_000)
                .only(Engine::Chunked)
                .only_worker(0)
                .arm();
            ctx = ctx.with_chaos(chaos);
        }
        let got = try_multiprefix_chunked_cfg_ctx(&values, &labels, m, op, cfg, &ctx);
        if panic && n > 0 {
            assert_eq!(
                got,
                Err(MpError::EnginePanicked),
                "call {call}: n={n} m={m}"
            );
        } else {
            let expect = multiprefix_serial(&values, &labels, m, op);
            assert_eq!(got, Ok(Some(expect)), "call {call}: n={n} m={m}");
        }
    }
}

/// A chunked run split `parts` ways, plain and hardened (`threads(parts)`,
/// which keeps `MIN_CHUNK_LEN`-long chunks), must match serial or, on
/// rounding floats, its own grouping; so must the chunked multireduce.
fn assert_split<T: Exact, O: TryCombineOp<T>>(
    shape: Shape,
    family: Values<T>,
    op: O,
    parts: usize,
) {
    let case = Case::new(shape, family, op);
    let (v, l, m, n) = (&case.p.values[..], &case.p.labels[..], case.p.m, case.n());
    let got = multiprefix_chunked_with_parts(v, l, m, op, parts);
    let entry = format!("multiprefix_chunked_with_parts({parts})");
    case.assert_matches_serial(&entry, Order::Chunks(parts), Ok(got));
    let (cfg, ctx) = (ExecConfig::default().threads(parts), RunContext::new());
    let order = Order::Chunks(chunk_count(n, parts));
    let got = try_multiprefix_chunked_cfg_ctx(v, l, m, op, cfg, &ctx);
    case.assert_engine_matches(&format!("threads({parts})"), order, got);
    let got = try_multireduce_ctx(v, l, m, op, Engine::Chunked, cfg, &ctx);
    case.assert_matches_serial(&format!("multireduce threads({parts})"), order, got);
}

proptest! {
    #[test]
    fn chunked_matches_serial_for_any_parts(seed: u64, parts in 1usize..20) {
        assert_split(Shape::draw(seed), BENIGN, Plus, parts);
        assert_split(Shape::draw(seed), FLOATS, Plus, parts);
    }

    #[test]
    fn noncommutative_operator_survives_chunking(seed: u64, parts in 1usize..12) {
        assert_split(Shape::draw(seed), PAIRS, FirstLast, parts);
    }

    /// The chunked multireduce on every thread count. (The name predates
    /// the deletion of the reusable chunked plan this also used to run.)
    #[test]
    fn multireduce_and_plan_agree(seed: u64, parts in 1usize..9) {
        let case = Case::new(Shape::draw(seed), FLOATS, Plus);
        let (v, l, m, n) = (&case.p.values[..], &case.p.labels[..], case.p.m, case.n());
        let cfg = ExecConfig::default().threads(parts);
        let got = try_multireduce_ctx(v, l, m, Plus, Engine::Auto, cfg, &RunContext::new());
        let order = Order::Chunks(chunk_count(n, parts));
        case.assert_matches_serial(&format!("Auto multireduce threads({parts})"), order, got);
    }

    /// i32-range values never overflow an `i64` sum: under every policy
    /// and thread count the chunked engine's own hardened entry succeeds
    /// without a trip.
    #[test]
    fn chunked_matches_serial_under_every_policy(seed: u64, threads in 1usize..9) {
        for policy in POLICIES {
            let case = Case::with_policy(Shape::draw(seed), BENIGN, Plus, policy);
            let (v, l, m, n) = (&case.p.values[..], &case.p.labels[..], case.p.m, case.n());
            let cfg = ExecConfig::default().overflow(policy).threads(threads);
            let got = try_multiprefix_chunked_cfg_ctx(v, l, m, Plus, cfg, &RunContext::new());
            let got = got.map(|out| out.expect("benign input never trips"));
            let order = Order::Chunks(chunk_count(n, threads));
            case.assert_matches_serial(&format!("threads({threads})"), order, got);
        }
    }

    #[test]
    fn checked_trip_decision_matches_serial(parts in 1usize..8) {
        // An input engineered to overflow mid-array: serial reports the
        // canonical overflow error; the chunked engine trips to `Ok(None)`
        // so the dispatcher replays serial. Either way, no wrong answer.
        let values = vec![i64::MAX, 1, -3, 7];
        let labels = vec![0usize, 0, 1, 1];
        let (checked, ctx) = (OverflowPolicy::Checked, RunContext::new());
        let serial = try_multiprefix_serial_ctx(&values, &labels, 2, Plus, checked, &ctx);
        prop_assert_eq!(serial, Err(MpError::ArithmeticOverflow { index: 1 }));
        let cfg = ExecConfig::default().overflow(checked).threads(parts);
        let chunked = try_multiprefix_chunked_cfg_ctx(&values, &labels, 2, Plus, cfg, &ctx);
        prop_assert_eq!(chunked, Ok(None), "chunked must trip to None");
    }

    /// Every call of a sequence runs on its own tables, so an injected
    /// panic leaves nothing behind that a later call could read.
    #[test]
    fn reused_workspace_matches_serial(calls in call_sequence()) {
        assert_call_sequence_matches_serial(&calls, Plus, |x| x as i64 - (1 << 46));
        // FirstLast is not commutative: a stale or misordered table entry
        // changes the answer.
        assert_call_sequence_matches_serial(&calls, FirstLast, |x| (x as i32, (x >> 20) as i32));
    }

    #[test]
    fn every_entry_reports_the_validate_error(seed: u64) {
        Invalid::draw(seed).front_doors();
    }

    /// Bad labels through every direct engine entry: the hardened ones
    /// return `validate`'s error at its index in the whole vector, the
    /// plain ones panic naming it — also for a label inside `[m, m + n)`,
    /// an element slot of the spinetree's and the atomic engine's blocks.
    #[test]
    fn direct_entries_name_the_bad_label(seed: u64) {
        Invalid::bad_label(seed).direct_entries();
    }

    /// Unequal lengths, either way round, through every direct engine
    /// entry: `validate`'s error, never an answer from the shorter prefix.
    #[test]
    fn direct_entries_reject_unequal_lengths(seed: u64) {
        Invalid::mismatched(seed).direct_entries();
    }
}

/// Deterministic pins for the shapes a chunked decomposition is most
/// likely to get wrong: n = 0 and 1, every element on one label across
/// many chunks, and `m ≫ n` (the probed tables) — on every entry, and for
/// `Max`/`Min`, whose identities must survive for absent labels.
#[test]
fn degenerate_shapes_pinned() {
    let (ns, ms) = ([0, 1, 10_000, 2_000], [5, 5, 7, 25_000]);
    for (k, (n, m)) in ns.into_iter().zip(ms).enumerate() {
        let skew = SKEWS[usize::from(k == 2)];
        let shape = Shape {
            n,
            m,
            skew,
            seed: k as u64,
        };
        Case::new(shape, BENIGN, Plus).every_entry(Side::Both);
        for parts in [3, 9] {
            assert_split(shape, BENIGN, multiprefix::op::Max, parts);
            assert_split(shape, BENIGN, multiprefix::op::Min, parts);
        }
    }
}

/// Eight threads call `Engine::Auto` at once over mixed sizes — from empty
/// to several `MIN_CHUNK_LEN` chunks, one label to `m ≫ n` — through the
/// plain and hardened entries: every answer is serial's.
#[test]
fn auto_storm_matches_serial() {
    let ns = [0, 100, 5_000, 9_000, 20_000, 33_000];
    let ms = [3, 1, 17, 1, 600, 200_000];
    let shape = |(n, m)| Shape {
        n,
        m,
        skew: Skew::Uniform,
        seed: n as u64,
    };
    let shapes: Vec<_> = ns.into_iter().zip(ms).map(shape).collect();
    let shapes: Vec<_> = shapes
        .into_iter()
        .map(|s| Problem::new(s, BENIGN))
        .collect();
    let expect: Vec<_> = shapes
        .iter()
        .map(|p| multiprefix_serial(&p.values, &p.labels, p.m, Plus))
        .collect();
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (shapes, expect, start) = (&shapes, &expect, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..10 {
                    for k in 0..shapes.len() {
                        let i = (k + t + round) % shapes.len();
                        let (values, labels, m) =
                            (&shapes[i].values, &shapes[i].labels, shapes[i].m);
                        let out = multiprefix(values, labels, m, Plus, Engine::Auto).unwrap();
                        assert_eq!(out, expect[i], "thread {t} shape {i}");
                        let red = multireduce(values, labels, m, Plus, Engine::Auto).unwrap();
                        assert_eq!(red, expect[i].reductions, "thread {t} shape {i}");
                        let cfg = ExecConfig::default();
                        let out = try_multiprefix(values, labels, m, Plus, Engine::Auto, cfg);
                        assert_eq!(out.as_ref(), Ok(&expect[i]), "thread {t} shape {i}");
                    }
                }
            });
        }
    });
}

/// `Engine::Auto` on floats gives the same bits on every call, and serial's:
/// it runs one chunk, which combines in serial order. A split adds each
/// chunk's offset after its local prefix, which rounds differently — the
/// data is chosen so that it does. (The dispatcher and the service, which
/// run what `Auto` runs, are the harness's float and service cells.)
#[test]
fn auto_on_floats_is_bit_stable() {
    let p = Problem::new(
        Shape {
            n: 50_000,
            m: 7,
            skew: Skew::Uniform,
            seed: 5,
        },
        FLOATS,
    );
    let (values, labels, m) = (&p.values[..], &p.labels[..], p.m);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let serial = multiprefix_serial(values, labels, m, Plus);
    let (sums, reductions) = (bits(&serial.sums), bits(&serial.reductions));
    let split = multiprefix_chunked_with_parts(values, labels, m, Plus, 4);
    assert_ne!(
        bits(&split.sums),
        sums,
        "the data must be rounding-sensitive"
    );
    for call in 0..70 {
        let out = multiprefix(values, labels, m, Plus, Engine::Auto).unwrap();
        assert_eq!(bits(&out.sums), sums, "call {call}");
        assert_eq!(bits(&out.reductions), reductions, "call {call}");
        let red = multireduce(values, labels, m, Plus, Engine::Auto).unwrap();
        assert_eq!(bits(&red), reductions, "call {call}");
        let cfg = ExecConfig::default();
        let out = try_multiprefix(values, labels, m, Plus, Engine::Auto, cfg).unwrap();
        assert_eq!(bits(&out.sums), sums, "call {call}");
    }
}

/// Cancellation must be able to interrupt every phase of the chunked
/// engine, always yielding a clean `Err(Cancelled)` and never a partial
/// or corrupt success.
#[test]
fn cancellation_interrupts_every_phase() {
    let n = 40_000;
    let m = 512;
    let values: Vec<i64> = vec![1; n];
    let labels: Vec<usize> = (0..n).map(|i| i % m).collect();
    let expect = multiprefix_serial(&values, &labels, m, Plus);
    let four = ExecConfig::default().threads(4);
    // Polls happen at phase entry and every CHECK_STRIDE elements; sweep
    // budgets from "cancel immediately" to "cancel in the apply pass".
    for budget in [0u64, 1, 2, 3, 5, 9, 17, 33, 65, u64::MAX] {
        let token = CancelToken::cancel_after(budget);
        let ctx = RunContext::new().with_cancel(&token);
        let got = try_multiprefix_chunked_cfg_ctx(&values, &labels, m, Plus, four, &ctx);
        match got {
            Err(MpError::Cancelled) => {}
            Ok(Some(out)) => assert_eq!(out, expect, "budget {budget}"),
            other => panic!("budget {budget}: unexpected {other:?}"),
        }
    }
    // A generous budget completes; an exhausted one cancels.
    let token = CancelToken::cancel_after(u64::MAX);
    let ctx = RunContext::new().with_cancel(&token);
    let out = try_multiprefix_chunked_cfg_ctx(&values, &labels, m, Plus, four, &ctx)
        .expect("no cancellation")
        .expect("Wrap never trips");
    assert_eq!(out, expect);
    let token = CancelToken::cancel_after(0);
    let ctx = RunContext::new().with_cancel(&token);
    assert!(matches!(
        try_multiprefix_chunked_cfg_ctx(&values, &labels, m, Plus, four, &ctx),
        Err(MpError::Cancelled)
    ));
}
