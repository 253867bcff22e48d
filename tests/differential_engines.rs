//! Differential property tests for the hardened execution layer: for any
//! input and overflow policy, every engine must produce the *same*
//! `Result` — bit-identical outputs on success, the identical canonical
//! serial-order error on overflow. This is the contract that makes
//! `OverflowPolicy` meaningful: the policy, not the engine choice, decides
//! what the caller observes.

use multiprefix::atomic::multiprefix_atomic_hardened;
use multiprefix::op::Plus;
use multiprefix::serial::{try_multiprefix_serial, try_multireduce_serial};
use multiprefix::{
    multiprefix, multireduce, try_multiprefix, try_multireduce, Engine, ExecConfig, MpError,
    OverflowPolicy,
};
use proptest::prelude::*;

const PAR_ENGINES: [Engine; 3] = [Engine::Spinetree, Engine::Chunked, Engine::Auto];

const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::Wrap,
    OverflowPolicy::Checked,
    OverflowPolicy::Saturating,
];

/// Benign problems: i32-range values, at most a few hundred of them, so no
/// i64 combine can overflow and Checked must succeed everywhere.
fn benign_problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    (1usize..24).prop_flat_map(|m| {
        proptest::collection::vec((any::<i32>().prop_map(|v| v as i64), 0..m), 0..250).prop_map(
            move |pairs| {
                let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
                (values, labels, m)
            },
        )
    })
}

/// Adversarial problems: values drawn from the extremes of `i64`, so
/// serial-order overflow is common — the interesting regime for Checked
/// and Saturating.
fn adversarial_problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    (1usize..8).prop_flat_map(|m| {
        let extreme = any::<u8>().prop_map(|b| match b % 8 {
            0 => i64::MAX,
            1 => i64::MIN,
            2 => i64::MAX / 2 + 1,
            3 => i64::MIN / 2 - 1,
            4 => 1,
            5 => -1,
            _ => (b as i64) - 128,
        });
        proptest::collection::vec((extreme, 0..m), 0..120).prop_map(move |pairs| {
            let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
            (values, labels, m)
        })
    })
}

proptest! {
    #[test]
    fn benign_inputs_succeed_identically_under_every_policy(
        (values, labels, m) in benign_problem()
    ) {
        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let reference = try_multiprefix(&values, &labels, m, Plus, Engine::Serial, cfg)
                .expect("benign input must not trip Checked");
            for engine in PAR_ENGINES {
                let got = try_multiprefix(&values, &labels, m, Plus, engine, cfg).unwrap();
                prop_assert_eq!(&got, &reference, "{:?} under {:?}", engine, policy);
            }
            let atomic =
                multiprefix_atomic_hardened(&values, &labels, m, Plus, policy).unwrap();
            prop_assert_eq!(&atomic, &reference, "atomic under {:?}", policy);
        }
    }

    #[test]
    fn adversarial_inputs_yield_one_canonical_result(
        (values, labels, m) in adversarial_problem()
    ) {
        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let reference =
                try_multiprefix_serial(&values, &labels, m, Plus, policy);
            for engine in PAR_ENGINES {
                let got = try_multiprefix(&values, &labels, m, Plus, engine, cfg);
                prop_assert_eq!(&got, &reference, "{:?} under {:?}", engine, policy);
            }
            let atomic = multiprefix_atomic_hardened(&values, &labels, m, Plus, policy);
            prop_assert_eq!(&atomic, &reference, "atomic under {:?}", policy);
        }
    }

    #[test]
    fn checked_errors_carry_the_first_serial_trip_index(
        (values, labels, m) in adversarial_problem()
    ) {
        // Whenever Checked fails, the reported index must be the first
        // element whose serial bucket combine is unrepresentable — checked
        // here against a direct quadratic reconstruction.
        let cfg = ExecConfig::default().overflow(OverflowPolicy::Checked);
        if let Err(MpError::ArithmeticOverflow { index }) =
            try_multiprefix(&values, &labels, m, Plus, Engine::Auto, cfg)
        {
            let mut buckets = vec![0i64; m];
            let mut first_trip = None;
            for (i, (&v, &l)) in values.iter().zip(&labels).enumerate() {
                match buckets[l].checked_add(v) {
                    Some(next) => buckets[l] = next,
                    None => {
                        first_trip = Some(i);
                        break;
                    }
                }
            }
            prop_assert_eq!(Some(index), first_trip);
        }
    }

    #[test]
    fn wrap_policy_is_the_plain_api((values, labels, m) in adversarial_problem()) {
        let reference = multiprefix(&values, &labels, m, Plus, Engine::Serial).unwrap();
        for engine in PAR_ENGINES {
            let got = try_multiprefix(
                &values, &labels, m, Plus, engine, ExecConfig::default(),
            ).unwrap();
            prop_assert_eq!(&got, &reference, "{:?}", engine);
        }
    }

    #[test]
    fn multireduce_policies_agree_across_engines(
        (values, labels, m) in adversarial_problem()
    ) {
        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let reference = try_multireduce_serial(&values, &labels, m, Plus, policy);
            for engine in PAR_ENGINES {
                let got = try_multireduce(&values, &labels, m, Plus, engine, cfg);
                prop_assert_eq!(&got, &reference, "{:?} under {:?}", engine, policy);
            }
        }
        let plain = multireduce(&values, &labels, m, Plus, Engine::Auto).unwrap();
        let wrap = try_multireduce(
            &values, &labels, m, Plus, Engine::Auto, ExecConfig::default(),
        ).unwrap();
        prop_assert_eq!(plain, wrap);
    }

    #[test]
    fn saturating_never_errors((values, labels, m) in adversarial_problem()) {
        let cfg = ExecConfig::default().overflow(OverflowPolicy::Saturating);
        for engine in PAR_ENGINES {
            prop_assert!(
                try_multiprefix(&values, &labels, m, Plus, engine, cfg).is_ok(),
                "{:?}", engine
            );
        }
    }
}

/// Deterministic counterpart of the properties above: a fixed-seed LCG
/// sweep over adversarial problems, so the engine-agreement contract is
/// exercised on every `cargo test` run regardless of proptest's schedule
/// (and a regression replays bit-for-bit from the seed).
#[test]
fn deterministic_adversarial_sweep() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    for case in 0..60 {
        let m = (next() as usize % 7) + 1;
        let n = next() as usize % 140;
        let mut values = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match next() % 8 {
                0 => i64::MAX,
                1 => i64::MIN,
                2 => i64::MAX / 2 + 1,
                3 => i64::MIN / 2 - 1,
                4 => 1,
                5 => -1,
                k => k as i64,
            };
            values.push(v);
            labels.push(next() as usize % m);
        }
        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let prefix_ref = try_multiprefix_serial(&values, &labels, m, Plus, policy);
            let reduce_ref = try_multireduce_serial(&values, &labels, m, Plus, policy);
            for engine in PAR_ENGINES {
                assert_eq!(
                    try_multiprefix(&values, &labels, m, Plus, engine, cfg),
                    prefix_ref,
                    "case {case}: {engine:?} multiprefix under {policy:?}"
                );
                assert_eq!(
                    try_multireduce(&values, &labels, m, Plus, engine, cfg),
                    reduce_ref,
                    "case {case}: {engine:?} multireduce under {policy:?}"
                );
            }
            assert_eq!(
                multiprefix_atomic_hardened(&values, &labels, m, Plus, policy),
                prefix_ref,
                "case {case}: atomic under {policy:?}"
            );
            // When Checked trips, the error is the first serial trip point.
            if policy == OverflowPolicy::Checked {
                if let Err(MpError::ArithmeticOverflow { index }) = prefix_ref {
                    let mut buckets = vec![0i64; m];
                    let trip = values.iter().zip(&labels).position(|(&v, &l)| {
                        match buckets[l].checked_add(v) {
                            Some(nb) => {
                                buckets[l] = nb;
                                false
                            }
                            None => true,
                        }
                    });
                    assert_eq!(Some(index), trip, "case {case}");
                }
            }
        }
    }
}
