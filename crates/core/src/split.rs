//! Stable split and pack — the permutation primitives multiprefix yields
//! for free.
//!
//! A **split** stably partitions a vector by a boolean (or small-integer)
//! key: all the 0-keyed elements first, then the 1-keyed, each group in
//! original order. It is the building block of radix sorting and of the
//! Connection Machine's packing idioms, and it is exactly one multiprefix
//! over the keys: each element's target position is
//! `(preceding equal keys) + (total count of smaller keys)` — the same
//! rank arithmetic as the paper's Figure 11, restricted to tiny `m`.
//!
//! A **pack** compacts the flagged elements of a vector, preserving order
//! — a split that keeps only one side.

use crate::api::{multiprefix, Engine};
use crate::error::MpError;
use crate::op::Plus;
use crate::problem::Element;
use crate::scan::exclusive_scan_serial;

/// Stable multi-way split: reorder `items` so elements with smaller `keys`
/// come first, ties in input order. Returns `(reordered items, group
/// offsets)` where `offsets[k]` is the first index of key-`k` elements in
/// the output (length `m + 1`, last entry = `n`).
pub fn split_stable<T: Element>(
    items: &[T],
    keys: &[usize],
    m: usize,
    engine: Engine,
) -> Result<(Vec<T>, Vec<usize>), MpError> {
    let ones = vec![1i64; items.len()];
    let mp = multiprefix(&ones, keys, m, Plus, engine)?;
    let (starts, total) = exclusive_scan_serial(&mp.reductions, Plus);
    debug_assert_eq!(total as usize, items.len());
    let mut offsets: Vec<usize> = starts.iter().map(|&s| s as usize).collect();
    offsets.push(items.len());
    let Some(&fill) = items.first() else {
        return Ok((Vec::new(), offsets));
    };
    // Scatter via ranks; the positions form a permutation, so every slot
    // is overwritten and the fill value never survives.
    let mut out: Vec<T> = vec![fill; items.len()];
    for (i, (&item, &k)) in items.iter().zip(keys).enumerate() {
        let pos = (mp.sums[i] + starts[k]) as usize;
        out[pos] = item;
    }
    Ok((out, offsets))
}

/// Two-way stable split by boolean flags: `false`-flagged elements first.
/// Returns `(reordered, boundary)` — `boundary` is where the `true` group
/// starts.
pub fn split_by_flag<T: Element>(
    items: &[T],
    flags: &[bool],
    engine: Engine,
) -> Result<(Vec<T>, usize), MpError> {
    let keys: Vec<usize> = flags.iter().map(|&f| f as usize).collect();
    let (out, offsets) = split_stable(items, &keys, 2, engine)?;
    Ok((out, offsets[1]))
}

/// Pack: keep only the flagged elements, in order. (The scan-based
/// "stream compaction".)
pub fn pack<T: Element>(items: &[T], flags: &[bool], engine: Engine) -> Result<Vec<T>, MpError> {
    let (split, boundary) = split_by_flag(items, flags, engine)?;
    Ok(split[boundary..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_way_split_is_stable() {
        let items = [10i32, 11, 12, 13, 14, 15];
        let flags = [true, false, true, false, false, true];
        let (out, boundary) = split_by_flag(&items, &flags, Engine::Serial).unwrap();
        assert_eq!(out, vec![11, 13, 14, 10, 12, 15]);
        assert_eq!(boundary, 3);
    }

    #[test]
    fn multiway_split_matches_stable_sort() {
        let items: Vec<i32> = (0..200).collect();
        let keys: Vec<usize> = (0..200).map(|i| (i * 7 + i / 11) % 5).collect();
        let (out, offsets) = split_stable(&items, &keys, 5, Engine::Spinetree).unwrap();
        let mut expect: Vec<i32> = items.clone();
        expect.sort_by_key(|&x| keys[x as usize]); // stable
        assert_eq!(out, expect);
        assert_eq!(offsets.len(), 6);
        assert_eq!(offsets[5], 200);
        // Offsets delimit constant-key runs.
        for k in 0..5 {
            for &x in &out[offsets[k]..offsets[k + 1]] {
                assert_eq!(keys[x as usize], k);
            }
        }
    }

    #[test]
    fn pack_keeps_flagged_in_order() {
        let items = ['a', 'b', 'c', 'd'];
        let flags = [true, false, false, true];
        assert_eq!(
            pack(&items, &flags, Engine::Serial).unwrap(),
            vec!['a', 'd']
        );
    }

    #[test]
    fn empty_inputs() {
        let (out, boundary) = split_by_flag::<i64>(&[], &[], Engine::Serial).unwrap();
        assert!(out.is_empty());
        assert_eq!(boundary, 0);
        assert!(pack::<i64>(&[], &[], Engine::Serial).unwrap().is_empty());
    }

    #[test]
    fn all_one_side() {
        let items = [1, 2, 3];
        let (out, b) = split_by_flag(&items, &[true; 3], Engine::Serial).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(b, 0);
        let (out, b) = split_by_flag(&items, &[false; 3], Engine::Serial).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(b, 3);
    }

    proptest! {
        #[test]
        fn split_is_a_stable_partition(
            pairs in proptest::collection::vec((any::<i32>(), 0usize..4), 0..300),
        ) {
            let items: Vec<i32> = pairs.iter().map(|&(v, _)| v).collect();
            let keys: Vec<usize> = pairs.iter().map(|&(_, k)| k).collect();
            for engine in [Engine::Serial, Engine::Chunked] {
                let (out, offsets) = split_stable(&items, &keys, 4, engine).unwrap();
                // Same multiset.
                let mut a = items.clone();
                let mut b = out.clone();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(&a, &b);
                // Stability: the subsequence of each key equals the
                // original subsequence of that key.
                for k in 0..4 {
                    let original: Vec<i32> = items
                        .iter()
                        .zip(&keys)
                        .filter(|&(_, &kk)| kk == k)
                        .map(|(&v, _)| v)
                        .collect();
                    prop_assert_eq!(&out[offsets[k]..offsets[k + 1]], &original[..]);
                }
            }
        }

        #[test]
        fn pack_equals_filter(flags in proptest::collection::vec(any::<bool>(), 0..200)) {
            let items: Vec<usize> = (0..flags.len()).collect();
            let packed = pack(&items, &flags, Engine::Serial).unwrap();
            let filtered: Vec<usize> =
                items.iter().zip(&flags).filter(|&(_, &f)| f).map(|(&i, _)| i).collect();
            prop_assert_eq!(packed, filtered);
        }
    }
}
