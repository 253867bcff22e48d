//! The oracle harness's operator cells (see `tests/oracle`): every entry
//! point computes Figure 2's multiprefix for `Plus`, the non-commutative
//! `FirstLast` and `Max`/`Min`/`Mult`, whatever the shape; the spinetree's
//! answer does not depend on which writer wins arbitration or on the row
//! length; and Figure 2 itself meets the definition.

mod oracle;

use multiprefix::op::{FirstLast, Max, Min, Mult, Plus, TryCombineOp};
use multiprefix::spinetree::build::ArbPolicy;
use multiprefix::spinetree::engine::multiprefix_spinetree_instrumented;
use multiprefix::spinetree::layout::Layout;
use multiprefix::MultiprefixOutput;
use oracle::{Case, Exact, Order, Shape, Side, BENIGN, FLOATS, PAIRS, WHOLE};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
        case.atomic_dispatch(false);
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
