//! Figure 11: the multiprefix rank sort.
//!
//! ```text
//! INTEGER-SORT:
//!     MP(1, key, +, rank, bucket);        // preceding-equal counts
//!     MP(bucket, 1, total, cumulative);   // prefix over the buckets
//!     pardo (i = 1 to n)
//!         rank[i] = rank[i] + cumulative[key[i]] + 1;
//! ```
//!
//! (The paper's ranks are 1-based; ours are 0-based array positions.)
//! The first multiprefix counts, per key occurrence, how many equal keys
//! precede it; the bucket reductions are the per-key totals. The second —
//! all labels equal, i.e. a plain prefix sum — turns those totals into
//! "how many strictly smaller keys exist". Their sum is the final stable
//! rank.

use multiprefix::api::{multiprefix, Engine};
use multiprefix::error::MpError;
use multiprefix::op::Plus;
use multiprefix::scan::exclusive_scan_partition;

/// Compute the 0-based stable sorted rank of every key. Keys must lie in
/// `[0, m)`.
pub fn rank_keys(keys: &[usize], m: usize, engine: Engine) -> Result<Vec<usize>, MpError> {
    let ones = vec![1i64; keys.len()];
    let mp = multiprefix(&ones, keys, m, Plus, engine)?;
    // The paper solves this degenerate multiprefix (all labels equal) with
    // the partition method (§5.1.1); so do we.
    let (cumulative, _) = exclusive_scan_partition(&mp.reductions, Plus);
    Ok(mp
        .sums
        .iter()
        .zip(keys)
        .map(|(&preceding_equal, &k)| (preceding_equal + cumulative[k]) as usize)
        .collect())
}

/// Scatter `items` into sorted order using ranks from [`rank_keys`].
pub fn sort_by_ranks<T: Clone>(items: &[T], ranks: &[usize]) -> Vec<T> {
    assert_eq!(items.len(), ranks.len());
    let mut out: Vec<Option<T>> = vec![None; items.len()];
    for (item, &r) in items.iter().zip(ranks) {
        debug_assert!(out[r].is_none(), "ranks must be a permutation");
        out[r] = Some(item.clone());
    }
    out.into_iter()
        .map(|x| x.expect("ranks must be a permutation"))
        .collect()
}

/// Sort integer keys in `[0, m)` by multiprefix ranking; returns the
/// sorted keys.
pub fn mp_sort(keys: &[usize], m: usize, engine: Engine) -> Result<Vec<usize>, MpError> {
    let ranks = rank_keys(keys, m, engine)?;
    Ok(sort_by_ranks(keys, &ranks))
}

/// Stable sort of `(key, payload)` pairs by key — the form applications
/// actually need (the NAS benchmark ranks keys; real sorts carry records).
pub fn mp_sort_pairs<T: Clone>(
    keys: &[usize],
    payloads: &[T],
    m: usize,
    engine: Engine,
) -> Result<Vec<(usize, T)>, MpError> {
    assert_eq!(keys.len(), payloads.len());
    let ranks = rank_keys(keys, m, engine)?;
    let pairs: Vec<(usize, T)> = keys.iter().copied().zip(payloads.iter().cloned()).collect();
    Ok(sort_by_ranks(&pairs, &ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_keys(n: usize, m: usize, seed: u64) -> Vec<usize> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as usize) % m
            })
            .collect()
    }

    #[test]
    fn ranks_match_positions_in_stable_sort() {
        let keys = lcg_keys(1000, 50, 7);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let ranks = rank_keys(&keys, 50, engine).unwrap();
            // Oracle: stable argsort.
            let mut idx: Vec<usize> = (0..keys.len()).collect();
            idx.sort_by_key(|&i| keys[i]); // sort_by_key is stable
            let mut expect = vec![0usize; keys.len()];
            for (pos, &i) in idx.iter().enumerate() {
                expect[i] = pos;
            }
            assert_eq!(ranks, expect, "{engine:?}");
        }
    }

    #[test]
    fn sorted_output_is_sorted_and_a_permutation() {
        let keys = lcg_keys(5000, 300, 11);
        let sorted = mp_sort(&keys, 300, Engine::Auto).unwrap();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut a = keys.clone();
        let mut b = sorted.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn stability_of_pairs() {
        // Equal keys must keep their payloads in input order.
        let keys = vec![1usize, 0, 1, 0, 1];
        let payloads = vec!["a", "b", "c", "d", "e"];
        let sorted = mp_sort_pairs(&keys, &payloads, 2, Engine::Serial).unwrap();
        assert_eq!(
            sorted,
            vec![(0, "b"), (0, "d"), (1, "a"), (1, "c"), (1, "e")]
        );
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let ascending: Vec<usize> = (0..500).collect();
        assert_eq!(mp_sort(&ascending, 500, Engine::Serial).unwrap(), ascending);
        let descending: Vec<usize> = (0..500).rev().collect();
        assert_eq!(
            mp_sort(&descending, 500, Engine::Serial).unwrap(),
            ascending
        );
    }

    #[test]
    fn all_equal_keys() {
        let keys = vec![3usize; 100];
        let ranks = rank_keys(&keys, 5, Engine::Spinetree).unwrap();
        assert_eq!(
            ranks,
            (0..100).collect::<Vec<_>>(),
            "equal keys rank by position"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(
            mp_sort(&[], 10, Engine::Serial).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn key_out_of_range_errors() {
        assert!(rank_keys(&[10], 10, Engine::Serial).is_err());
    }

    #[test]
    fn sort_by_ranks_applies_permutation() {
        let items = vec!["x", "y", "z"];
        let ranks = vec![2, 0, 1];
        assert_eq!(sort_by_ranks(&items, &ranks), vec!["y", "z", "x"]);
    }
}
