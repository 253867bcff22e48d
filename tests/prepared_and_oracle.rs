//! Cross-checks for the prepared (cached-spinetree) path and the public
//! oracle, plus atomic-reduce agreement — the late-added surfaces, swept
//! with property tests.

use multiprefix::atomic::multireduce_atomic;
use multiprefix::chunked::multiprefix_chunked_with_parts;
use multiprefix::op::{Max, Plus};
use multiprefix::oracle::{check_output, multiprefix_definitional};
use multiprefix::serial::multireduce_serial;
use multiprefix::spinetree::PreparedMultiprefix;
use proptest::prelude::*;

proptest! {
    #[test]
    fn prepared_replay_matches_oracle(
        m in 1usize..12,
        raw in proptest::collection::vec((any::<i16>(), 0usize..12), 0..250),
        second_values in proptest::collection::vec(any::<i16>(), 0..250),
    ) {
        let labels: Vec<usize> = raw.iter().map(|&(_, l)| l % m).collect();
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v as i64).collect();
        let prepared = PreparedMultiprefix::new(&labels, m).unwrap();

        let out = prepared.run(&values, Plus);
        prop_assert_eq!(check_output(&values, &labels, m, Plus, &out), Ok(()));

        // Replay with different values over the same structure (cycling
        // the second pool; an empty pool degenerates to constants).
        let values2: Vec<i64> = (0..values.len())
            .map(|i| second_values.get(i % second_values.len().max(1)).map_or(7, |&v| v as i64))
            .collect();
        let out2 = prepared.run(&values2, Plus);
        prop_assert_eq!(check_output(&values2, &labels, m, Plus, &out2), Ok(()));

        // And with a different operator.
        let out3 = prepared.run(&values, Max);
        prop_assert_eq!(check_output(&values, &labels, m, Max, &out3), Ok(()));
    }

    #[test]
    fn chunked_matches_definitional(
        m in 1usize..8,
        raw in proptest::collection::vec((any::<i8>(), 0usize..8), 0..200),
        parts in 1usize..64,
    ) {
        let labels: Vec<usize> = raw.iter().map(|&(_, l)| l % m).collect();
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v as i64).collect();
        let got = multiprefix_chunked_with_parts(&values, &labels, m, Plus, parts);
        let expect = multiprefix_definitional(&values, &labels, m, Plus);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn atomic_reduce_matches_serial(
        m in 1usize..10,
        raw in proptest::collection::vec((any::<i16>(), 0usize..10), 0..300),
    ) {
        let labels: Vec<usize> = raw.iter().map(|&(_, l)| l % m).collect();
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v as i64).collect();
        prop_assert_eq!(
            multireduce_atomic(&values, &labels, m, Plus),
            multireduce_serial(&values, &labels, m, Plus)
        );
    }
}

#[test]
fn prepared_structure_is_reused_not_rebuilt() {
    // Indirect but observable: two runs over one PreparedMultiprefix give
    // identical outputs for identical values (no hidden nondeterminism),
    // and the structure reports stable geometry.
    let labels: Vec<usize> = (0..1000).map(|i| (i * 7) % 13).collect();
    let prepared = PreparedMultiprefix::new(&labels, 13).unwrap();
    let geometry = *prepared.layout();
    let values: Vec<i64> = (0..1000).map(|i| i as i64).collect();
    let a = prepared.run(&values, Plus);
    let b = prepared.run(&values, Plus);
    assert_eq!(a, b);
    assert_eq!(*prepared.layout(), geometry);
}
