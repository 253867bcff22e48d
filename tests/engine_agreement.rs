//! Property tests: every engine computes the same multiprefix, for any
//! input, operator, geometry and arbitration — and every entry of the
//! spinetree and atomic engines (plain, hardened, one-shot or over a
//! prepared spinetree) sees the same draws.

use multiprefix::atomic::{
    multiprefix_atomic, multiprefix_atomic_hardened, multireduce_atomic,
    try_multiprefix_atomic_ctx, try_multireduce_atomic_ctx,
};
use multiprefix::op::{FirstLast, Max, Min, Mult, Plus, TryCombineOp};
use multiprefix::resilience::RunContext;
use multiprefix::serial::{multiprefix_serial, multireduce_serial};
use multiprefix::spinetree::build::ArbPolicy;
use multiprefix::spinetree::engine::multiprefix_spinetree_instrumented;
use multiprefix::spinetree::layout::Layout;
use multiprefix::spinetree::{
    multireduce_spinetree, try_multiprefix_spinetree_ctx, try_multireduce_spinetree_ctx,
    PreparedMultiprefix,
};
use multiprefix::{multiprefix, multireduce, Element, Engine, MultiprefixOutput, OverflowPolicy};
use proptest::prelude::*;

/// Random (values, labels, m) triples with m ≥ 1 and labels < m.
fn problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    (1usize..40).prop_flat_map(|m| {
        proptest::collection::vec((any::<i32>().prop_map(|v| v as i64), 0..m), 0..300).prop_map(
            move |pairs| {
                let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
                (values, labels, m)
            },
        )
    })
}

/// Every run of a [`PreparedMultiprefix`] built for `labels` — plain,
/// length-checked and under a context, multiprefix and multireduce — is
/// `reference`.
fn prepared_entries_agree<T: Element + PartialEq, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    reference: &MultiprefixOutput<T>,
) -> Result<(), TestCaseError> {
    let prepared = PreparedMultiprefix::new(labels, m).expect("valid labels");
    let ctx = RunContext::new();
    let prefixes = [
        ("run", Ok(prepared.run(values, op))),
        ("try_run", prepared.try_run(values, op)),
        ("try_run_ctx", prepared.try_run_ctx(values, op, &ctx)),
    ];
    for (entry, got) in prefixes {
        prop_assert_eq!(got, Ok(reference.clone()), "prepared {}", entry);
    }
    let reductions = [
        ("run_reduce", Ok(prepared.run_reduce(values, op))),
        ("try_run_reduce", prepared.try_run_reduce(values, op)),
        (
            "try_run_reduce_ctx",
            prepared.try_run_reduce_ctx(values, op, &ctx),
        ),
    ];
    for (entry, got) in reductions {
        prop_assert_eq!(got, Ok(reference.reductions.clone()), "prepared {}", entry);
    }
    Ok(())
}

proptest! {
    #[test]
    fn engines_agree_plus((values, labels, m) in problem()) {
        let reference = multiprefix_serial(&values, &labels, m, Plus);
        for engine in [Engine::Spinetree, Engine::Chunked, Engine::Auto] {
            let got = multiprefix(&values, &labels, m, Plus, engine).unwrap();
            prop_assert_eq!(&got.sums, &reference.sums);
            prop_assert_eq!(&got.reductions, &reference.reductions);
        }
        let atomic = multiprefix_atomic(&values, &labels, m, Plus);
        prop_assert_eq!(&atomic.sums, &reference.sums);
        prop_assert_eq!(&atomic.reductions, &reference.reductions);
        let (v, l) = (&values, &labels);
        let wrap = OverflowPolicy::Wrap;
        let ctx = RunContext::new();
        let prefixes = [
            ("spinetree ctx", try_multiprefix_spinetree_ctx(v, l, m, Plus, wrap, &ctx)),
            ("atomic ctx", try_multiprefix_atomic_ctx(v, l, m, Plus, wrap, &ctx)),
            ("atomic hardened", multiprefix_atomic_hardened(v, l, m, Plus, wrap).map(Some)),
        ];
        for (entry, got) in prefixes {
            prop_assert_eq!(got, Ok(Some(reference.clone())), "{}", entry);
        }
        let reductions = [
            ("spinetree", Ok(Some(multireduce_spinetree(v, l, m, Plus)))),
            ("spinetree ctx", try_multireduce_spinetree_ctx(v, l, m, Plus, wrap, &ctx)),
            ("atomic", Ok(Some(multireduce_atomic(v, l, m, Plus)))),
            ("atomic ctx", try_multireduce_atomic_ctx(v, l, m, Plus, wrap, &ctx)),
        ];
        for (entry, got) in reductions {
            prop_assert_eq!(got, Ok(Some(reference.reductions.clone())), "{}", entry);
        }
        prepared_entries_agree(&values, &labels, m, Plus, &reference)?;
    }

    #[test]
    fn engines_agree_max_min_mult((values, labels, m) in problem()) {
        macro_rules! check {
            ($op:expr) => {{
                let reference = multiprefix_serial(&values, &labels, m, $op);
                for engine in [Engine::Spinetree, Engine::Chunked] {
                    let got = multiprefix(&values, &labels, m, $op, engine).unwrap();
                    prop_assert_eq!(&got.sums, &reference.sums);
                    prop_assert_eq!(&got.reductions, &reference.reductions);
                }
            }};
        }
        check!(Max);
        check!(Min);
        check!(Mult);
    }

    #[test]
    fn noncommutative_order_preserved(labels in proptest::collection::vec(0usize..5, 0..200)) {
        let values: Vec<(i32, i32)> = (0..labels.len() as i32).map(|i| (i, i)).collect();
        let reference = multiprefix_serial(&values, &labels, 5, FirstLast);
        for engine in [Engine::Spinetree, Engine::Chunked] {
            let got = multiprefix(&values, &labels, 5, FirstLast, engine).unwrap();
            prop_assert_eq!(&got.sums, &reference.sums);
            prop_assert_eq!(&got.reductions, &reference.reductions);
        }
        let wrap = OverflowPolicy::Wrap;
        let ctx = RunContext::new();
        let got = try_multiprefix_spinetree_ctx(&values, &labels, 5, FirstLast, wrap, &ctx);
        prop_assert_eq!(got, Ok(Some(reference.clone())));
        let got = try_multireduce_spinetree_ctx(&values, &labels, 5, FirstLast, wrap, &ctx);
        prop_assert_eq!(got, Ok(Some(reference.reductions.clone())));
        prepared_entries_agree(&values, &labels, 5, FirstLast, &reference)?;
    }

    #[test]
    fn arbitration_never_changes_results(
        (values, labels, m) in problem(),
        seed in any::<u64>(),
        row_skew in 1usize..6,
    ) {
        let n = values.len();
        let base = Layout::square(n, m);
        let layout = Layout::with_row_len(n, m, (base.row_len * row_skew).max(1));
        let reference = multiprefix_serial(&values, &labels, m, Plus);
        for policy in [ArbPolicy::LastWins, ArbPolicy::FirstWins, ArbPolicy::Seeded(seed)] {
            let run = multiprefix_spinetree_instrumented(&values, &labels, Plus, layout, policy);
            prop_assert_eq!(&run.output.sums, &reference.sums);
            prop_assert_eq!(&run.output.reductions, &reference.reductions);
        }
    }

    #[test]
    fn multireduce_agrees_everywhere((values, labels, m) in problem()) {
        let reference = multireduce_serial(&values, &labels, m, Plus);
        for engine in [Engine::Spinetree, Engine::Chunked, Engine::Auto] {
            prop_assert_eq!(
                multireduce(&values, &labels, m, Plus, engine).unwrap(),
                reference.clone()
            );
        }
    }

    #[test]
    fn sums_satisfy_definition((values, labels, m) in problem()) {
        // Check the mathematical definition directly (quadratic oracle).
        let out = multiprefix(&values, &labels, m, Plus, Engine::Auto).unwrap();
        for i in 0..values.len() {
            let expect: i64 = (0..i)
                .filter(|&j| labels[j] == labels[i])
                .map(|j| values[j])
                .fold(0i64, |a, b| a.wrapping_add(b));
            prop_assert_eq!(out.sums[i], expect, "element {}", i);
        }
        for k in 0..m {
            let expect: i64 = values
                .iter()
                .zip(&labels)
                .filter(|&(_, &l)| l == k)
                .map(|(&v, _)| v)
                .fold(0i64, |a, b| a.wrapping_add(b));
            prop_assert_eq!(out.reductions[k], expect, "label {}", k);
        }
    }
}
