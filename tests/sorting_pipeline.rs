//! Cross-crate sorting pipeline: NAS IS workload → multiprefix ranking →
//! permutation, against every baseline.

use mp_sort::bucket_sort::{bucket_ranks, bucket_sort};
use mp_sort::counting_sort::{counting_ranks, counting_sort_pairs};
use mp_sort::nas_is::{full_verify, generate_keys, NasRng, MAX_KEY};
use mp_sort::radix_sort::{mp_radix_sort, radix_sort};
use mp_sort::rank_sort::{mp_sort, mp_sort_pairs, rank_keys, sort_by_ranks};
use multiprefix::Engine;
use proptest::prelude::*;

#[test]
fn nas_workload_end_to_end() {
    let mut rng = NasRng::standard();
    let keys = generate_keys(50_000, MAX_KEY, &mut rng);
    for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
        let ranks = rank_keys(&keys, MAX_KEY, engine).unwrap();
        assert!(full_verify(&keys, &ranks), "{engine:?}");
        assert_eq!(ranks, bucket_ranks(&keys, MAX_KEY), "{engine:?}");
        assert_eq!(ranks, counting_ranks(&keys, MAX_KEY), "{engine:?}");
    }
}

#[test]
fn sorted_keys_agree_across_all_sorts() {
    let mut rng = NasRng::with_seed(777);
    let keys = generate_keys(20_000, 1 << 12, &mut rng);
    let keys64: Vec<u64> = keys.iter().map(|&k| k as u64).collect();

    let via_mp = mp_sort(&keys, 1 << 12, Engine::Chunked).unwrap();
    let via_bucket = bucket_sort(&keys, 1 << 12);
    let via_radix: Vec<usize> = radix_sort(&keys64, 8).iter().map(|&k| k as usize).collect();
    let via_mp_radix: Vec<usize> = mp_radix_sort(&keys64, 6, Engine::Chunked)
        .iter()
        .map(|&k| k as usize)
        .collect();
    let mut via_std = keys.clone();
    via_std.sort_unstable();

    assert_eq!(via_mp, via_std);
    assert_eq!(via_bucket, via_std);
    assert_eq!(via_radix, via_std);
    assert_eq!(via_mp_radix, via_std);
}

#[test]
fn pair_sorts_are_stable_and_identical() {
    let mut rng = NasRng::with_seed(3);
    let keys = generate_keys(5_000, 64, &mut rng);
    let payloads: Vec<usize> = (0..keys.len()).collect();
    let a = mp_sort_pairs(&keys, &payloads, 64, Engine::Chunked).unwrap();
    let b = counting_sort_pairs(&keys, &payloads, 64);
    assert_eq!(
        a, b,
        "two independent stable sorts must place payloads identically"
    );
    // Within equal keys, payload (input position) must ascend.
    for w in a.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(w[0].1 < w[1].1);
        }
    }
}

proptest! {
    #[test]
    fn ranking_is_correct_for_any_keys(keys in proptest::collection::vec(0usize..100, 0..500)) {
        let ranks = rank_keys(&keys, 100, Engine::Auto).unwrap();
        // Permutation property.
        let mut seen = vec![false; keys.len()];
        for &r in &ranks {
            prop_assert!(r < keys.len());
            prop_assert!(!seen[r]);
            seen[r] = true;
        }
        // Order + stability, via the oracle argsort.
        let sorted = sort_by_ranks(&keys, &ranks);
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(ranks, counting_ranks(&keys, 100));
    }

    #[test]
    fn radix_sorts_arbitrary_u64(keys in proptest::collection::vec(any::<u64>(), 0..300)) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(radix_sort(&keys, 8), expect.clone());
        prop_assert_eq!(mp_radix_sort(&keys, 8, Engine::Serial), expect);
    }
}
