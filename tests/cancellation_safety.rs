//! Cancellation and deadline safety, swept across every engine: a request
//! cancelled at *any* checkpoint returns `MpError::Cancelled` and nothing
//! else — no partial output, no corrupted shared state — and a request that
//! survives all checkpoints returns exactly the serial-oracle answer.
//!
//! The deterministic injection mechanism is [`CancelToken::cancel_after`]:
//! a fuse of `k` lets exactly `k` checkpoint polls succeed and trips the
//! `(k+1)`-th, so sweeping `k` walks the cancellation point through every
//! phase boundary and stride checkpoint an engine has.

use multiprefix::atomic::multiprefix_atomic_hardened_ctx;
use multiprefix::op::Plus;
use multiprefix::resilience::{CancelToken, RunContext};
use multiprefix::{
    multiprefix, try_multiprefix_ctx, try_multireduce_ctx, Engine, ExecConfig, MpError,
    MultiprefixOutput, OverflowPolicy,
};
use proptest::prelude::*;
use std::time::Duration;

/// Upper bound on the fuse sweep: comfortably more checkpoint polls than
/// any engine executes on the test problem (asserted, not assumed).
const SWEEP: u64 = 256;

const ENGINES: [Engine; 4] = [
    Engine::Serial,
    Engine::Spinetree,
    Engine::Chunked,
    Engine::Auto,
];

fn problem(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
    let values = (0..n as i64).map(|i| (i * 13) % 101 - 50).collect();
    let labels = (0..n).map(|i| (i * 5 + i / 7) % m).collect();
    (values, labels)
}

fn oracle(values: &[i64], labels: &[usize], m: usize) -> MultiprefixOutput<i64> {
    multiprefix(values, labels, m, Plus, Engine::Serial).unwrap()
}

/// Sweep the fuse through every checkpoint of `run`, asserting the
/// dichotomy (`Ok` ⟹ oracle-equal, `Err` ⟹ `Cancelled`) and that success
/// is monotone in the fuse: once an engine completes within `k` polls it
/// must also complete within every larger budget.
fn sweep_fuse<R: PartialEq + std::fmt::Debug>(
    label: &str,
    expect: &R,
    mut run: impl FnMut(&RunContext) -> Result<R, MpError>,
) {
    let mut first_ok = None;
    for k in 0..=SWEEP {
        let cancel = CancelToken::cancel_after(k);
        let ctx = RunContext::new().with_cancel(&cancel);
        match run(&ctx) {
            Ok(out) => {
                assert_eq!(&out, expect, "{label}: k={k} completed with a wrong answer");
                first_ok.get_or_insert(k);
            }
            Err(err) => {
                assert_eq!(err, MpError::Cancelled, "{label}: k={k} untyped error");
                assert!(
                    first_ok.is_none(),
                    "{label}: k={k} failed after k={} succeeded",
                    first_ok.unwrap()
                );
            }
        }
    }
    let first_ok = first_ok
        .unwrap_or_else(|| panic!("{label}: never completed within {SWEEP} polls; raise SWEEP"));
    assert!(
        first_ok >= 1,
        "{label}: a zero-poll fuse must cancel at the entry checkpoint"
    );
}

#[test]
fn multiprefix_cancellation_is_all_or_nothing_on_every_engine() {
    let (values, labels) = problem(2_000, 13);
    let expect = oracle(&values, &labels, 13);
    for engine in ENGINES {
        sweep_fuse(&format!("multiprefix/{engine:?}"), &expect, |ctx| {
            try_multiprefix_ctx(
                &values,
                &labels,
                13,
                Plus,
                engine,
                ExecConfig::default(),
                ctx,
            )
        });
    }
}

#[test]
fn multireduce_cancellation_is_all_or_nothing_on_every_engine() {
    let (values, labels) = problem(1_200, 7);
    let expect = oracle(&values, &labels, 7).reductions;
    for engine in ENGINES {
        sweep_fuse(&format!("multireduce/{engine:?}"), &expect, |ctx| {
            try_multireduce_ctx(
                &values,
                &labels,
                7,
                Plus,
                engine,
                ExecConfig::default(),
                ctx,
            )
        });
    }
}

#[test]
fn atomic_engine_cancellation_is_all_or_nothing() {
    let (values, labels) = problem(1_500, 9);
    let expect = oracle(&values, &labels, 9);
    sweep_fuse("multiprefix/atomic", &expect, |ctx| {
        multiprefix_atomic_hardened_ctx(&values, &labels, 9, Plus, OverflowPolicy::Wrap, ctx)
    });
}

#[test]
fn saturating_trip_and_replay_is_cancellation_safe() {
    // Saturating inputs that overflow trip the parallel guards, and the
    // engine canonicalizes by replaying serially under the SAME context —
    // so the fuse must thread through the replay as well as the main run.
    let (mut values, labels) = problem(900, 5);
    values[100] = i64::MAX;
    values[105] = i64::MAX;
    let saturating = ExecConfig::default().overflow(OverflowPolicy::Saturating);
    let expect = try_multiprefix_ctx(
        &values,
        &labels,
        5,
        Plus,
        Engine::Serial,
        saturating,
        &RunContext::new(),
    )
    .unwrap();
    for engine in ENGINES {
        sweep_fuse(&format!("saturating/{engine:?}"), &expect, |ctx| {
            try_multiprefix_ctx(&values, &labels, 5, Plus, engine, saturating, ctx)
        });
    }
}

#[test]
fn expired_deadline_is_a_typed_error_on_every_engine() {
    let (values, labels) = problem(800, 5);
    for engine in ENGINES {
        let ctx = RunContext::new().with_timeout(Duration::ZERO);
        let err = try_multiprefix_ctx(
            &values,
            &labels,
            5,
            Plus,
            engine,
            ExecConfig::default(),
            &ctx,
        )
        .unwrap_err();
        assert_eq!(err, MpError::DeadlineExceeded, "{engine:?}");
        let err = try_multireduce_ctx(
            &values,
            &labels,
            5,
            Plus,
            engine,
            ExecConfig::default(),
            &ctx,
        )
        .unwrap_err();
        assert_eq!(err, MpError::DeadlineExceeded, "{engine:?}");
    }
    let ctx = RunContext::new().with_timeout(Duration::ZERO);
    let err =
        multiprefix_atomic_hardened_ctx(&values, &labels, 5, Plus, OverflowPolicy::Wrap, &ctx)
            .unwrap_err();
    assert_eq!(err, MpError::DeadlineExceeded, "atomic");
}

#[test]
fn cancelled_runs_leave_no_poisoned_state_behind() {
    // Cancel mid-flight, then immediately reuse the same inputs with an
    // unbounded context: every engine must still produce the oracle answer.
    let (values, labels) = problem(2_000, 13);
    let expect = oracle(&values, &labels, 13);
    for engine in ENGINES {
        for k in [1u64, 3, 9, 27] {
            let cancel = CancelToken::cancel_after(k);
            let ctx = RunContext::new().with_cancel(&cancel);
            let _ = try_multiprefix_ctx(
                &values,
                &labels,
                13,
                Plus,
                engine,
                ExecConfig::default(),
                &ctx,
            );
        }
        let out = try_multiprefix_ctx(
            &values,
            &labels,
            13,
            Plus,
            engine,
            ExecConfig::default(),
            &RunContext::new(),
        )
        .unwrap();
        assert_eq!(out, expect, "{engine:?} after cancelled runs");
    }
}

proptest! {
    #[test]
    fn cancellation_dichotomy_holds_for_random_problems_and_fuses(
        raw in proptest::collection::vec((-50i64..50, 0usize..7), 0..400),
        k in 0u64..300,
    ) {
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v).collect();
        let labels: Vec<usize> = raw.iter().map(|&(_, l)| l).collect();
        let expect = multiprefix(&values, &labels, 7, Plus, Engine::Serial).unwrap();
        for engine in ENGINES {
            let cancel = CancelToken::cancel_after(k);
            let ctx = RunContext::new().with_cancel(&cancel);
            match try_multiprefix_ctx(&values, &labels, 7, Plus, engine, ExecConfig::default(), &ctx) {
                Ok(out) => prop_assert_eq!(&out, &expect, "{:?}", engine),
                Err(err) => prop_assert_eq!(err, MpError::Cancelled, "{:?}", engine),
            }
        }
    }
}
