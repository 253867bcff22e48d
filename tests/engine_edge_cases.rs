//! Degenerate-geometry edge cases, pinned for every engine: the empty
//! problem (n = 0), the bucketless problem (m = 0), and the single-bucket
//! problem (m = 1, where multiprefix degenerates to an ordinary exclusive
//! scan). `Engine::Auto` resolution must behave identically on all of them.

use multiprefix::atomic::{multiprefix_atomic, multiprefix_atomic_hardened, multireduce_atomic};
use multiprefix::op::{Max, Plus};
use multiprefix::{
    multiprefix, multiprefix_inclusive, multiprefix_verified, multireduce, try_multiprefix,
    try_multireduce, Engine, ExecConfig, MpError, OverflowPolicy,
};

const ENGINES: [Engine; 4] = [
    Engine::Serial,
    Engine::Spinetree,
    Engine::Chunked,
    Engine::Auto,
];

const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::Wrap,
    OverflowPolicy::Checked,
    OverflowPolicy::Saturating,
];

#[test]
fn empty_input_zero_buckets() {
    for engine in ENGINES {
        let out = multiprefix::<i64, _>(&[], &[], 0, Plus, engine).unwrap();
        assert!(out.sums.is_empty(), "{engine:?}");
        assert!(out.reductions.is_empty(), "{engine:?}");
        assert_eq!(
            multireduce::<i64, _>(&[], &[], 0, Plus, engine).unwrap(),
            vec![]
        );
        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let out = try_multiprefix::<i64, _>(&[], &[], 0, Plus, engine, cfg).unwrap();
            assert!(
                out.sums.is_empty() && out.reductions.is_empty(),
                "{engine:?}"
            );
            assert!(try_multireduce::<i64, _>(&[], &[], 0, Plus, engine, cfg)
                .unwrap()
                .is_empty());
        }
    }
    let out = multiprefix_atomic(&[], &[], 0, Plus);
    assert!(out.sums.is_empty() && out.reductions.is_empty());
    assert!(multireduce_atomic(&[], &[], 0, Plus).is_empty());
}

#[test]
fn empty_input_with_buckets_yields_identities() {
    // n = 0, m = 3: no elements, but the reduction vector still exists and
    // holds the operator identity per bucket.
    for engine in ENGINES {
        let out = multiprefix::<i64, _>(&[], &[], 3, Plus, engine).unwrap();
        assert!(out.sums.is_empty(), "{engine:?}");
        assert_eq!(out.reductions, vec![0, 0, 0], "{engine:?}");

        let out = multiprefix::<i64, _>(&[], &[], 3, Max, engine).unwrap();
        assert_eq!(out.reductions, vec![i64::MIN; 3], "{engine:?}");

        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let out = try_multiprefix::<i64, _>(&[], &[], 3, Plus, engine, cfg).unwrap();
            assert_eq!(out.reductions, vec![0, 0, 0], "{engine:?} {policy:?}");
        }
    }
    assert_eq!(
        multiprefix_atomic(&[], &[], 3, Plus).reductions,
        vec![0, 0, 0]
    );
    assert_eq!(
        multiprefix_atomic_hardened(&[], &[], 3, Plus, OverflowPolicy::Checked)
            .unwrap()
            .reductions,
        vec![0, 0, 0]
    );
}

#[test]
fn elements_with_zero_buckets_is_an_error_everywhere() {
    for engine in ENGINES {
        let err = multiprefix(&[7i64], &[0], 0, Plus, engine).unwrap_err();
        assert!(
            matches!(err, MpError::LabelOutOfRange { m: 0, .. }),
            "{engine:?}"
        );
        let err =
            try_multiprefix(&[7i64], &[0], 0, Plus, engine, ExecConfig::default()).unwrap_err();
        assert!(
            matches!(err, MpError::LabelOutOfRange { m: 0, .. }),
            "{engine:?}"
        );
    }
    let err = multiprefix_atomic_hardened(&[7], &[0], 0, Plus, OverflowPolicy::Wrap).unwrap_err();
    assert!(
        matches!(err, MpError::LabelOutOfRange { m: 0, .. }),
        "atomic"
    );
}

#[test]
fn single_bucket_is_an_exclusive_scan() {
    // m = 1 collapses multiprefix to exclusive-scan + total: the case with
    // maximal contention in the spinetree and PRAM formulations.
    let values: Vec<i64> = (1..=200).collect();
    let labels = vec![0usize; 200];
    let expected_sums: Vec<i64> = (0..200).map(|i| i * (i + 1) / 2).collect();
    let total = 200 * 201 / 2;
    for engine in ENGINES {
        let out = multiprefix(&values, &labels, 1, Plus, engine).unwrap();
        assert_eq!(out.sums, expected_sums, "{engine:?}");
        assert_eq!(out.reductions, vec![total], "{engine:?}");
        assert_eq!(
            multireduce(&values, &labels, 1, Plus, engine).unwrap(),
            vec![total]
        );
        for policy in POLICIES {
            let cfg = ExecConfig::default().overflow(policy);
            let out = try_multiprefix(&values, &labels, 1, Plus, engine, cfg).unwrap();
            assert_eq!(out.sums, expected_sums, "{engine:?} {policy:?}");
        }
    }
    let atomic = multiprefix_atomic(&values, &labels, 1, Plus);
    assert_eq!(atomic.sums, expected_sums);
    assert_eq!(atomic.reductions, vec![total]);
}

#[test]
fn single_element_problems() {
    for engine in ENGINES {
        let out = multiprefix(&[42i64], &[0], 1, Plus, engine).unwrap();
        assert_eq!(out.sums, vec![0], "{engine:?}");
        assert_eq!(out.reductions, vec![42], "{engine:?}");
        // A lone element never invokes combine on two non-identity inputs,
        // so even Checked admits extreme values.
        let cfg = ExecConfig::default().overflow(OverflowPolicy::Checked);
        let out = try_multiprefix(&[i64::MAX], &[0], 1, Plus, engine, cfg).unwrap();
        assert_eq!(out.sums, vec![0], "{engine:?}");
        assert_eq!(out.reductions, vec![i64::MAX], "{engine:?}");
    }
}

#[test]
fn inclusive_and_verified_handle_degenerate_shapes() {
    for engine in ENGINES {
        let inc = multiprefix_inclusive::<i64, _>(&[], &[], 2, Plus, engine).unwrap();
        assert!(inc.sums.is_empty(), "{engine:?}");
        let inc = multiprefix_inclusive(&[5i64], &[1], 2, Plus, engine).unwrap();
        assert_eq!(inc.sums, vec![5], "{engine:?}");

        let out = multiprefix_verified::<i64, _>(&[], &[], 0, Plus, engine).unwrap();
        assert!(out.sums.is_empty(), "{engine:?}");
        let out = multiprefix_verified(&[3i64, 4], &[0, 0], 1, Plus, engine).unwrap();
        assert_eq!(out.sums, vec![0, 3], "{engine:?}");
    }
}
