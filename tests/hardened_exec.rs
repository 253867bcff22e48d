//! The hardened execution layer, end to end: overflow policies with
//! serial-order canonical semantics across every engine, resource budgets,
//! fallible allocation, panic containment, and the self-checking mode.

use multiprefix::atomic::multiprefix_atomic_hardened;
use multiprefix::op::{CombineOp, Plus, TryCombineOp};
use multiprefix::{
    multiprefix, multiprefix_verified, try_multiprefix, try_multireduce, Engine, ExecConfig,
    MpError, OverflowPolicy,
};

const ENGINES: [Engine; 4] = [
    Engine::Serial,
    Engine::Spinetree,
    Engine::Chunked,
    Engine::Auto,
];

/// A problem whose serial evaluation of bucket 1 overflows exactly at
/// element 61: bucket 1 carries zeros until `i64::MAX` lands at 57 (clean
/// combine), then `+1` at 61 trips. The other buckets stay busy with ones,
/// and n is big enough that Spinetree and Chunked take their real paths.
fn overflowing_problem() -> (Vec<i64>, Vec<usize>, usize) {
    let n = 100;
    let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
    let mut values: Vec<i64> = labels.iter().map(|&l| if l == 1 { 0 } else { 1 }).collect();
    values[57] = i64::MAX;
    values[61] = 1;
    (values, labels, 4)
}

#[test]
fn checked_overflow_is_identical_across_all_engines() {
    let (values, labels, m) = overflowing_problem();
    let cfg = ExecConfig::default().overflow(OverflowPolicy::Checked);
    for engine in ENGINES {
        let err = try_multiprefix(&values, &labels, m, Plus, engine, cfg).unwrap_err();
        assert_eq!(err, MpError::ArithmeticOverflow { index: 61 }, "{engine:?}");
    }
    // The atomic engine sits outside the `Engine` enum but honors the same
    // canonical serial-order contract through its hardened entry point.
    let err = multiprefix_atomic_hardened(&values, &labels, m, Plus, OverflowPolicy::Checked)
        .unwrap_err();
    assert_eq!(err, MpError::ArithmeticOverflow { index: 61 }, "atomic");
}

#[test]
fn saturating_results_are_identical_across_all_engines() {
    let (values, labels, m) = overflowing_problem();
    let cfg = ExecConfig::default().overflow(OverflowPolicy::Saturating);
    let reference = try_multiprefix(&values, &labels, m, Plus, Engine::Serial, cfg).unwrap();
    assert_eq!(
        reference.reductions[1],
        i64::MAX,
        "bucket 1 must have clamped"
    );
    for engine in ENGINES {
        let got = try_multiprefix(&values, &labels, m, Plus, engine, cfg).unwrap();
        assert_eq!(got, reference, "{engine:?}");
    }
    let atomic =
        multiprefix_atomic_hardened(&values, &labels, m, Plus, OverflowPolicy::Saturating).unwrap();
    assert_eq!(atomic, reference, "atomic");
}

#[test]
fn wrap_policy_matches_the_plain_api() {
    let (values, labels, m) = overflowing_problem();
    let reference = multiprefix(&values, &labels, m, Plus, Engine::Serial).unwrap();
    for engine in ENGINES {
        let got =
            try_multiprefix(&values, &labels, m, Plus, engine, ExecConfig::default()).unwrap();
        assert_eq!(got, reference, "{engine:?}");
    }
}

#[test]
fn clean_inputs_pass_under_every_policy_and_engine() {
    let values: Vec<i64> = (0..500).map(|i| i % 17 - 8).collect();
    let labels: Vec<usize> = (0..500).map(|i| (i * 7) % 9).collect();
    let reference = multiprefix(&values, &labels, 9, Plus, Engine::Serial).unwrap();
    for policy in [
        OverflowPolicy::Wrap,
        OverflowPolicy::Checked,
        OverflowPolicy::Saturating,
    ] {
        let cfg = ExecConfig::default().overflow(policy);
        for engine in ENGINES {
            let got = try_multiprefix(&values, &labels, 9, Plus, engine, cfg).unwrap();
            assert_eq!(got, reference, "{engine:?} under {policy:?}");
        }
    }
}

#[test]
fn multireduce_checked_reports_the_serial_trip_point() {
    // Reduction subtotals alone cannot certify serial-order overflow
    // freedom ([i64::MAX] and [1, -1] combine cleanly as chunks while the
    // serial order trips at MAX + 1), so checking policies evaluate
    // serially — and every engine choice reports the same canonical index.
    let values = [i64::MAX, 1, -1];
    let labels = [0usize, 0, 0];
    let cfg = ExecConfig::default().overflow(OverflowPolicy::Checked);
    for engine in ENGINES {
        let err = try_multireduce(&values, &labels, 1, Plus, engine, cfg).unwrap_err();
        assert_eq!(err, MpError::ArithmeticOverflow { index: 1 }, "{engine:?}");
    }
    // Wrap keeps the parallel engines and the documented wrapping result.
    let wrapped = try_multireduce(
        &values,
        &labels,
        1,
        Plus,
        Engine::Chunked,
        ExecConfig::default(),
    )
    .unwrap();
    assert_eq!(wrapped, vec![i64::MAX.wrapping_add(1).wrapping_sub(1)]);
}

/// An operator that panics mid-combine once it sees the poison value —
/// standing in for any buggy user operator.
#[derive(Copy, Clone)]
struct PanicOn999;

impl CombineOp<i64> for PanicOn999 {
    const COMMUTATIVE: bool = true;
    fn identity(&self) -> i64 {
        0
    }
    fn combine(&self, a: i64, b: i64) -> i64 {
        assert!(b != 999 && a != 999, "poison value reached the operator");
        a + b
    }
}

impl TryCombineOp<i64> for PanicOn999 {
    fn checked_combine(&self, a: i64, b: i64) -> Option<i64> {
        Some(self.combine(a, b))
    }
    fn saturating_combine(&self, a: i64, b: i64) -> i64 {
        self.combine(a, b)
    }
}

#[test]
fn chunked_engine_contains_operator_panics() {
    let mut values = vec![1i64; 300];
    values[123] = 999;
    let labels = vec![0usize; 300];
    let err = try_multiprefix(
        &values,
        &labels,
        1,
        PanicOn999,
        Engine::Chunked,
        ExecConfig::default(),
    )
    .unwrap_err();
    assert_eq!(err, MpError::EnginePanicked);

    // The thread (and the process) survive to run more work.
    let ok = try_multiprefix(
        &[1i64, 2],
        &[0, 0],
        1,
        PanicOn999,
        Engine::Chunked,
        ExecConfig::default(),
    )
    .unwrap();
    assert_eq!(ok.reductions, vec![3]);
}

#[test]
fn bucket_budget_is_enforced_before_any_work() {
    let cfg = ExecConfig::default().max_buckets(64);
    let err = try_multiprefix::<i64, _>(&[], &[], 1_000, Plus, Engine::Auto, cfg).unwrap_err();
    assert_eq!(
        err,
        MpError::CapacityOverflow {
            what: "buckets",
            requested: 1_000,
            limit: 64
        }
    );
    // At or under the limit is fine.
    assert!(try_multiprefix::<i64, _>(&[], &[], 64, Plus, Engine::Auto, cfg).is_ok());
}

#[test]
fn memory_budget_is_enforced_before_any_work() {
    let values = vec![1i64; 10_000];
    let labels = vec![0usize; 10_000];
    let cfg = ExecConfig::default().max_mem_bytes(1 << 10);
    for engine in ENGINES {
        let err = try_multiprefix(&values, &labels, 1, Plus, engine, cfg).unwrap_err();
        match err {
            MpError::CapacityOverflow {
                what: "engine memory",
                requested,
                limit,
            } => {
                assert!(requested > limit, "{engine:?}: {requested} vs {limit}");
                assert_eq!(limit, 1 << 10);
            }
            other => panic!("{engine:?}: expected memory CapacityOverflow, got {other:?}"),
        }
    }
    // A generous budget admits the same problem.
    let roomy = ExecConfig::default().max_mem_bytes(64 << 20);
    assert!(try_multiprefix(&values, &labels, 1, Plus, Engine::Auto, roomy).is_ok());
}

#[test]
fn absurd_bucket_count_fails_allocation_not_aborts() {
    // No budget configured: the fallible allocator itself must catch an
    // allocation no machine can satisfy and report it as a value.
    let m = (isize::MAX as usize) / 8 + 1;
    let err = try_multiprefix::<i64, _>(&[], &[], m, Plus, Engine::Serial, ExecConfig::default())
        .unwrap_err();
    assert!(
        matches!(err, MpError::AllocationFailed { bytes } if bytes >= m),
        "got {err:?}"
    );
}

#[test]
fn verified_mode_accepts_correct_engines() {
    let values: Vec<i64> = (0..800).map(|i| i * 3 - 1000).collect();
    let labels: Vec<usize> = (0..800).map(|i| (i * i) % 13).collect();
    let reference = multiprefix(&values, &labels, 13, Plus, Engine::Serial).unwrap();
    for engine in ENGINES {
        let got = multiprefix_verified(&values, &labels, 13, Plus, engine).unwrap();
        assert_eq!(got, reference, "{engine:?}");
    }
}

#[test]
fn errors_format_actionable_messages() {
    let (values, labels, m) = overflowing_problem();
    let cfg = ExecConfig::default().overflow(OverflowPolicy::Checked);
    let err = try_multiprefix(&values, &labels, m, Plus, Engine::Auto, cfg).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("61"), "{msg}");
    assert!(msg.to_lowercase().contains("overflow"), "{msg}");
}
