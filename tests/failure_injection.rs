//! Failure injection: malformed inputs must be rejected with precise
//! diagnostics — never a wrong answer, never a panic from a public
//! `Result`-returning entry point.

use multiprefix::fetch_op::fetch_and_op;
use multiprefix::histogram::histogram;
use multiprefix::keyed::multiprefix_by_key;
use multiprefix::op::Plus;
use multiprefix::spinetree::Layout;
use multiprefix::{multiprefix, multireduce, Engine, MpError};
use pram::{multiprefix_with_faults, FaultPlan, Pram, PramError, WritePolicy};

#[test]
fn every_engine_rejects_out_of_range_labels() {
    for engine in [
        Engine::Serial,
        Engine::Spinetree,
        Engine::Chunked,
        Engine::Auto,
    ] {
        let err = multiprefix(&[1i64, 2, 3], &[0, 5, 1], 3, Plus, engine).unwrap_err();
        assert_eq!(
            err,
            MpError::LabelOutOfRange {
                index: 1,
                label: 5,
                m: 3
            },
            "{engine:?}"
        );
    }
}

#[test]
fn every_engine_rejects_length_mismatch() {
    for engine in [
        Engine::Serial,
        Engine::Spinetree,
        Engine::Chunked,
        Engine::Auto,
    ] {
        let err = multireduce(&[1i64, 2], &[0], 1, Plus, engine).unwrap_err();
        assert_eq!(
            err,
            MpError::LengthMismatch {
                values: 2,
                labels: 1
            },
            "{engine:?}"
        );
    }
}

#[test]
fn m_zero_with_elements_is_an_error_not_a_panic() {
    let err = multiprefix(&[1i64], &[0], 0, Plus, Engine::Serial).unwrap_err();
    assert!(matches!(err, MpError::LabelOutOfRange { m: 0, .. }));
}

#[test]
fn m_zero_without_elements_is_fine() {
    let out = multiprefix::<i64, _>(&[], &[], 0, Plus, Engine::Chunked).unwrap();
    assert!(out.sums.is_empty());
    assert!(out.reductions.is_empty());
}

#[test]
fn derived_primitives_propagate_validation() {
    assert!(histogram(&[9], 4, Engine::Auto).is_err());
    assert!(fetch_and_op(&[0i64; 2], &[2], &[1], Plus, Engine::Auto).is_err());
    assert!(multiprefix_by_key(&[1i64, 2], &["a"], Plus, Engine::Auto).is_err());
}

#[test]
fn wrapping_overflow_is_defined_behavior() {
    // Integer PLUS wraps (documented): no panic in release or debug, and
    // all engines wrap identically.
    let values = [i64::MAX, 1, i64::MAX];
    let labels = [0usize, 0, 0];
    let reference = multiprefix(&values, &labels, 1, Plus, Engine::Serial).unwrap();
    assert_eq!(reference.sums[2], i64::MAX.wrapping_add(1));
    for engine in [Engine::Spinetree, Engine::Chunked] {
        assert_eq!(
            multiprefix(&values, &labels, 1, Plus, engine).unwrap(),
            reference,
            "{engine:?}"
        );
    }
}

#[test]
fn arbitration_faults_are_injected_and_detected() {
    // The fault harness corrupts a fraction of multi-writer ARB commits —
    // the one component of the paper's machine a bounds check cannot
    // protect — and the serial cross-check must flag the corrupted output.
    let n = 625;
    let values: Vec<i64> = (1..=n as i64).collect();
    let labels = vec![0usize; n];
    let layout = Layout::square(n, 1);

    // A clean machine passes the same cross-check.
    let clean =
        multiprefix_with_faults(&values, &labels, 1, layout, 17, FaultPlan::arb(0, 0)).unwrap();
    assert_eq!(clean.faults_injected, 0);
    assert_eq!(clean.detection, Ok(()));

    // A hostile arbiter does not.
    let faulty = multiprefix_with_faults(
        &values,
        &labels,
        1,
        layout,
        17,
        FaultPlan::arb(0, 1_000_000),
    )
    .unwrap();
    assert!(
        faulty.faults_injected > 0,
        "single-class input must contend"
    );
    assert!(
        matches!(faulty.detection, Err(MpError::VerificationFailed { .. })),
        "corruption must be detected, got {:?}",
        faulty.detection
    );
    assert!(faulty.faults_detected());
}

#[test]
fn fault_reports_replay_deterministically() {
    let n = 400;
    let values: Vec<i64> = (0..n as i64).map(|i| i * 3 + 1).collect();
    let labels = vec![0usize; n];
    let layout = Layout::square(n, 1);
    let plan = FaultPlan::arb(33, 150_000);
    let a = multiprefix_with_faults(&values, &labels, 1, layout, 5, plan).unwrap();
    let b = multiprefix_with_faults(&values, &labels, 1, layout, 5, plan).unwrap();
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.detection, b.detection);
    assert_eq!(a.run.output, b.run.output);
}

#[test]
fn pram_policy_violations_are_reported_and_harmless() {
    // A CREW machine must reject a concurrent write and leave memory
    // untouched; the same program is then legal under ARB.
    let program = |pram: &mut Pram| pram.step(4, |p, ctx| ctx.write(0, p as i64));

    let mut crew = Pram::new(1, WritePolicy::Crew, 0);
    let err = program(&mut crew).unwrap_err();
    assert!(matches!(
        err,
        PramError::WriteConflict {
            addr: 0,
            processors: 4,
            ..
        }
    ));
    assert_eq!(crew.mem()[0], 0, "failed step must not commit");
    assert_eq!(crew.metrics().steps, 0, "failed step must not count");

    let mut arb = Pram::new(1, WritePolicy::CrcwArb, 0);
    program(&mut arb).unwrap();
    assert!((0..4).contains(&arb.mem()[0]));
}

#[test]
fn pram_erew_rejects_concurrent_read_with_location() {
    let mut erew = Pram::new(8, WritePolicy::Erew, 0);
    let err = erew
        .step(3, |_, ctx| {
            ctx.read(5);
        })
        .unwrap_err();
    assert_eq!(
        err,
        PramError::ReadConflict {
            step: 0,
            addr: 5,
            processors: 3
        }
    );
    assert!(err.to_string().contains("cell 5"));
}

#[test]
fn isa_rejects_out_of_bounds_and_bad_vl() {
    use cray_sim::isa::{Inst, IsaError, IsaMachine};
    let mut m = IsaMachine::new(8);
    let err = m.run(&[
        Inst::SetVl { len: 8 },
        Inst::SLoadImm { dst: 0, imm: 4 },
        Inst::SLoadImm { dst: 1, imm: 1 },
        Inst::VLoad {
            dst: 0,
            base: 0,
            stride: 1,
        },
    ]);
    assert!(matches!(err, Err(IsaError::MemOutOfBounds { .. })));

    let mut m = IsaMachine::new(8);
    assert!(matches!(
        m.run(&[Inst::SetVl { len: 100 }]),
        Err(IsaError::BadVectorLength { len: 100, .. })
    ));

    let mut m = IsaMachine::new(8);
    assert!(matches!(
        m.run(&[Inst::VAddV { dst: 9, a: 0, b: 0 }]),
        Err(IsaError::BadRegister { .. })
    ));
}
