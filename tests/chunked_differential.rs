//! Differential suite for the chunked engine: for any input shape, any
//! operator, and any overflow policy, `multiprefix::chunked` must agree
//! bit-for-bit with the serial reference — including the degenerate shapes
//! a chunked decomposition is most likely to get wrong (empty input, one
//! element, every element on one label, `m ≫ n` sparse label spaces) and
//! the non-commutative operators the combine scan's chunk ordering exists
//! to protect. The label-indexed chunk tables are reused across calls, so
//! one workspace is also driven through call sequences that change `m`,
//! flip between label-indexed and probed tables, and survive an injected
//! local-phase panic.

use multiprefix::chunked::{
    multiprefix_chunked_with_parts, multireduce_chunked, try_multiprefix_chunked,
    try_multiprefix_chunked_ctx, try_multiprefix_chunked_ws_ctx, ChunkedPlan, ChunkedWorkspace,
};
use multiprefix::op::{FirstLast, Max, Min, Plus, TryCombineOp};
use multiprefix::resilience::{CancelToken, ChaosPlan, EngineKind, RunContext};
use multiprefix::serial::{multiprefix_serial, multireduce_serial, try_multiprefix_serial};
use multiprefix::{Element, ExecConfig, MpError, OverflowPolicy};
use proptest::prelude::*;
use std::ops::Range;

const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::Wrap,
    OverflowPolicy::Checked,
    OverflowPolicy::Saturating,
];

/// A draw from `usual` three times in four, and from `huge` otherwise.
fn mostly(usual: Range<usize>, huge: Range<usize>) -> impl Strategy<Value = usize> {
    (0u8..4, usual, huge).prop_map(|(k, usual, huge)| if k == 0 { huge } else { usual })
}

/// Label-space sizes: small and mid-sized ones that keep the chunk tables
/// label-indexed, plus `m ≫ n` ones that force the probed tables.
fn label_space() -> impl Strategy<Value = usize> {
    mostly(1..4096, 50_000..200_000)
}

/// Arbitrary problems with the degenerate shapes weighted in: tiny n
/// (including 0 and 1), all-same-label runs, and `m` up to hundreds of
/// times larger than `n`.
fn problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    label_space().prop_flat_map(|m| {
        // One draw in four collapses to label 0 so all-same-label runs and
        // long single-label prefixes are sampled often.
        let label = any::<u32>().prop_map(move |x| {
            let x = x as usize;
            if x.is_multiple_of(4) {
                0
            } else {
                x % m
            }
        });
        proptest::collection::vec((any::<i32>().prop_map(|v| v as i64), label), 0..300).prop_map(
            move |pairs| {
                let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
                (values, labels, m)
            },
        )
    })
}

/// One call of a workspace-reuse sequence: `(n, m, seed, panic)`. The
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

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 17
}

/// Run `calls` through one shared workspace and require every successful
/// call to be bit-identical to serial, and every injected panic to surface
/// as `EnginePanicked` without poisoning the calls after it.
fn assert_reused_workspace_matches_serial<T, O>(
    calls: &[(usize, usize, u64, bool)],
    op: O,
    value: impl Fn(u64) -> T,
) where
    T: Element + PartialEq + std::fmt::Debug,
    O: TryCombineOp<T> + Copy,
{
    let mut ws = ChunkedWorkspace::new();
    let cfg = ExecConfig::default().threads(4);
    for (call, &(n, m, seed, panic)) in calls.iter().enumerate() {
        let mut state = seed;
        let values: Vec<T> = (0..n).map(|_| value(lcg(&mut state))).collect();
        // Clustered labels so chunks share some labels and miss others.
        let labels: Vec<usize> = (0..n)
            .map(|i| (lcg(&mut state) as usize % 64 + i / 97) % m)
            .collect();
        let mut ctx = RunContext::new();
        if panic {
            let chaos = ChaosPlan::seeded(seed)
                .worker_panic_ppm(1_000_000)
                .only(EngineKind::Chunked)
                .only_worker(0)
                .arm();
            ctx = ctx.with_chaos(chaos);
        }
        let got = try_multiprefix_chunked_ws_ctx(&values, &labels, m, op, cfg, &mut ws, &ctx);
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

proptest! {
    #[test]
    fn chunked_matches_serial_for_any_parts((values, labels, m) in problem(), parts in 1usize..20) {
        let expect = multiprefix_serial(&values, &labels, m, Plus);
        let got = multiprefix_chunked_with_parts(&values, &labels, m, Plus, parts);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn chunked_matches_serial_under_every_policy((values, labels, m) in problem()) {
        // i32-range values with n < 300 can never overflow an i64 sum, so
        // Checked must succeed (no trip) and all three policies agree.
        for policy in POLICIES {
            let expect = try_multiprefix_serial(&values, &labels, m, Plus, policy)
                .expect("benign input never errors");
            let got = try_multiprefix_chunked(&values, &labels, m, Plus, policy)
                .expect("benign input never errors")
                .expect("benign input never trips");
            prop_assert_eq!(got, expect, "{:?}", policy);
        }
    }

    #[test]
    fn checked_trip_decision_matches_serial(parts in 1usize..8) {
        // An input engineered to overflow mid-array: serial reports the
        // canonical overflow error; the chunked engine trips to `Ok(None)`
        // so the dispatcher replays serial. Either way, no wrong answer.
        let values = vec![i64::MAX, 1, -3, 7];
        let labels = vec![0usize, 0, 1, 1];
        let serial = try_multiprefix_serial(&values, &labels, 2, Plus, OverflowPolicy::Checked);
        prop_assert!(serial.is_err(), "serial must report the overflow");
        let got = multiprefix_chunked_with_parts(&values, &labels, 2, Max, parts); // sanity: Max never overflows
        prop_assert_eq!(got.reductions[0], i64::MAX);
        let chunked = try_multiprefix_chunked(&values, &labels, 2, Plus, OverflowPolicy::Checked)
            .expect("trip is not an error");
        prop_assert!(chunked.is_none(), "chunked must trip to None");
    }

    #[test]
    fn noncommutative_operator_survives_chunking(
        n in 0usize..260,
        m in mostly(1..9, 50_000..200_000),
        parts in 1usize..12,
    ) {
        let values: Vec<(i32, i32)> = (0..n as i32).map(|i| (i, i * 31 % 97)).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + i / 5) % m).collect();
        let expect = multiprefix_serial(&values, &labels, m, FirstLast);
        let got = multiprefix_chunked_with_parts(&values, &labels, m, FirstLast, parts);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn reused_workspace_matches_serial(calls in call_sequence()) {
        assert_reused_workspace_matches_serial(&calls, Plus, |x| x as i64 - (1 << 46));
        // FirstLast is not commutative: a stale or misordered table entry
        // changes the answer.
        assert_reused_workspace_matches_serial(&calls, FirstLast, |x| (x as i32, (x >> 20) as i32));
    }

    #[test]
    fn multireduce_and_plan_agree((values, labels, m) in problem()) {
        prop_assert_eq!(
            multireduce_chunked(&values, &labels, m, Plus),
            multireduce_serial(&values, &labels, m, Plus)
        );
        let plan = ChunkedPlan::new(&labels, m).expect("valid labels");
        prop_assert_eq!(
            plan.run(&values, Plus),
            multiprefix_serial(&values, &labels, m, Plus)
        );
    }
}

/// Deterministic pins for the shapes the strategies above only sample, so
/// every `cargo test` run covers them regardless of proptest's schedule.
#[test]
fn degenerate_shapes_pinned() {
    // n = 0 and n = 1 under every ops/parts combination that matters.
    for parts in [1usize, 3, 8] {
        let empty = multiprefix_chunked_with_parts::<i64, _>(&[], &[], 5, Plus, parts);
        assert!(empty.sums.is_empty());
        assert_eq!(empty.reductions, vec![0; 5]);
        let one = multiprefix_chunked_with_parts(&[42i64], &[2], 5, Plus, parts);
        assert_eq!(one.sums, vec![0]);
        assert_eq!(one.reductions, vec![0, 0, 42, 0, 0]);
    }
    // All elements on one label: the combine scan degenerates to a plain
    // exclusive scan across chunks.
    let n = 10_000;
    let values: Vec<i64> = (0..n as i64).collect();
    let labels = vec![3usize; n];
    assert_eq!(
        multiprefix_chunked_with_parts(&values, &labels, 7, Plus, 9),
        multiprefix_serial(&values, &labels, 7, Plus)
    );
    // m ≫ n: forces the probed (open-addressed) chunk tables.
    let n = 2_000;
    let m = 1_000_000;
    let labels: Vec<usize> = (0..n).map(|i| (i * 499) % m).collect();
    let values: Vec<i64> = (0..n as i64).map(|i| i % 13 - 6).collect();
    assert_eq!(
        multiprefix_chunked_with_parts(&values, &labels, m, Plus, 5),
        multiprefix_serial(&values, &labels, m, Plus)
    );
    // Min/Max identities must survive for absent labels.
    let out = multiprefix_chunked_with_parts(&values, &labels, m, Max, 5);
    assert_eq!(out.reductions[1], i64::MIN);
    let out = multiprefix_chunked_with_parts(&values, &labels, m, Min, 5);
    assert_eq!(out.reductions[1], i64::MAX);
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
    // Polls happen at phase entry and every CHECK_STRIDE elements; sweep
    // budgets from "cancel immediately" to "cancel in the apply pass".
    for budget in [0u64, 1, 2, 3, 5, 9, 17, 33, 65, u64::MAX] {
        let token = CancelToken::cancel_after(budget);
        let ctx = RunContext::new().with_cancel(&token);
        let got =
            try_multiprefix_chunked_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &ctx);
        match got {
            Err(MpError::Cancelled) => {}
            Ok(Some(out)) => assert_eq!(out, expect, "budget {budget}"),
            other => panic!("budget {budget}: unexpected {other:?}"),
        }
    }
    // A generous budget completes; an exhausted one cancels.
    let token = CancelToken::cancel_after(u64::MAX);
    let ctx = RunContext::new().with_cancel(&token);
    let out = try_multiprefix_chunked_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &ctx)
        .expect("no cancellation")
        .expect("Wrap never trips");
    assert_eq!(out, expect);
    let token = CancelToken::cancel_after(0);
    let ctx = RunContext::new().with_cancel(&token);
    assert!(matches!(
        try_multiprefix_chunked_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &ctx),
        Err(MpError::Cancelled)
    ));
}
