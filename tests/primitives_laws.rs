//! Laws of the derived primitives (§1's subsumption claims), as property
//! tests across engines.

use multiprefix::fetch_op::{fetch_and_op, fetch_and_op_serial};
use multiprefix::histogram::{histogram, histogram_serial};
use multiprefix::op::{Max, Plus};
use multiprefix::scan::{exclusive_scan_partition, exclusive_scan_serial};
use multiprefix::segmented::{
    segment_count, segment_ids, segmented_exclusive_scan, segmented_exclusive_scan_serial,
};
use multiprefix::Engine;
use proptest::prelude::*;

proptest! {
    #[test]
    fn segmented_scan_matches_reference(
        raw in proptest::collection::vec((any::<i16>(), any::<bool>()), 0..300),
    ) {
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v as i64).collect();
        let flags: Vec<bool> = raw.iter().map(|&(_, f)| f).collect();
        let expect = segmented_exclusive_scan_serial(&values, &flags, Plus);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let got = segmented_exclusive_scan(&values, &flags, Plus, engine).unwrap();
            prop_assert_eq!(&got.sums, &expect);
        }
    }

    #[test]
    fn segment_ids_are_monotone_and_dense(flags in proptest::collection::vec(any::<bool>(), 0..200)) {
        let ids = segment_ids(&flags);
        prop_assert_eq!(ids.len(), flags.len());
        for w in ids.windows(2) {
            prop_assert!(w[1] == w[0] || w[1] == w[0] + 1, "ids must step by 0 or 1");
        }
        if let Some(&last) = ids.last() {
            prop_assert_eq!(last + 1, segment_count(&flags));
        }
    }

    #[test]
    fn fetch_op_equals_serial_loop(
        mem in proptest::collection::vec(-100i64..100, 1..10),
        reqs in proptest::collection::vec((0usize..10, -20i64..20), 0..200),
    ) {
        let addresses: Vec<usize> = reqs.iter().map(|&(a, _)| a % mem.len()).collect();
        let increments: Vec<i64> = reqs.iter().map(|&(_, v)| v).collect();
        let expect = fetch_and_op_serial(&mem, &addresses, &increments, Plus);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let got = fetch_and_op(&mem, &addresses, &increments, Plus, engine).unwrap();
            prop_assert_eq!(&got.fetched, &expect.fetched);
            prop_assert_eq!(&got.memory, &expect.memory);
        }
    }

    #[test]
    fn histogram_counts(keys in proptest::collection::vec(0usize..32, 0..400)) {
        let expect = histogram_serial(&keys, 32);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            prop_assert_eq!(histogram(&keys, 32, engine).unwrap(), expect.clone());
        }
        let total: u64 = expect.iter().sum();
        prop_assert_eq!(total as usize, keys.len());
    }

    #[test]
    fn scans_agree_and_compose(values in proptest::collection::vec(any::<i32>().prop_map(i64::from), 0..500)) {
        let (serial, total_s) = exclusive_scan_serial(&values, Plus);
        let (partition, total_p) = exclusive_scan_partition(&values, Plus);
        prop_assert_eq!(&serial, &partition);
        prop_assert_eq!(total_s, total_p);
        // Exclusive scan + value = inclusive; last inclusive = total.
        if let (Some(&last_scan), Some(&last_v)) = (serial.last(), values.last()) {
            prop_assert_eq!(last_scan.wrapping_add(last_v), total_s);
        }
    }

    #[test]
    fn segmented_max_reductions_are_segment_maxima(
        raw in proptest::collection::vec((0i64..1000, any::<bool>()), 1..200),
    ) {
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v).collect();
        let flags: Vec<bool> = raw.iter().map(|&(_, f)| f).collect();
        let out = segmented_exclusive_scan(&values, &flags, Max, Engine::Auto).unwrap();
        let ids = segment_ids(&flags);
        for (seg, &red) in out.reductions.iter().enumerate() {
            let expect = values
                .iter()
                .zip(&ids)
                .filter(|&(_, &s)| s == seg)
                .map(|(&v, _)| v)
                .max()
                .unwrap();
            prop_assert_eq!(red, expect);
        }
    }
}
