//! LSD radix sorts — the stand-in for Table 1's proprietary "Cray Research
//! Inc. Implementation" row (see DESIGN.md), and a demonstration that a
//! multiprefix with a *small* bucket count sorts keys of *any* range when
//! applied once per digit.

use multiprefix::api::Engine;

/// Classic LSD radix sort of `u64` keys with `bits`-wide digits (stable).
pub fn radix_sort(keys: &[u64], bits: u32) -> Vec<u64> {
    assert!((1..=16).contains(&bits), "digit width must be 1..=16 bits");
    let radix = 1usize << bits;
    let mask = (radix - 1) as u64;
    let max = keys.iter().copied().max().unwrap_or(0);
    let mut a = keys.to_vec();
    let mut b = vec![0u64; keys.len()];
    let mut shift = 0u32;
    while shift == 0 || (max >> shift) != 0 {
        let mut counts = vec![0usize; radix];
        for &k in &a {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        let mut acc = 0usize;
        for c in counts.iter_mut() {
            let v = *c;
            *c = acc;
            acc += v;
        }
        for &k in &a {
            let d = ((k >> shift) & mask) as usize;
            b[counts[d]] = k;
            counts[d] += 1;
        }
        std::mem::swap(&mut a, &mut b);
        shift += bits;
        if shift >= 64 {
            break;
        }
    }
    a
}

/// LSD radix sort whose per-digit counting pass is a **multiprefix** call
/// (constant-1 values, digit as label): each pass ranks by digit, then the
/// keys are permuted; stability of multiprefix makes the whole sort
/// stable. Exercises the core engines inside a multi-pass algorithm.
pub fn mp_radix_sort(keys: &[u64], bits: u32, engine: Engine) -> Vec<u64> {
    assert!((1..=16).contains(&bits));
    let radix = 1usize << bits;
    let mask = (radix - 1) as u64;
    let max = keys.iter().copied().max().unwrap_or(0);
    let mut a = keys.to_vec();
    let mut shift = 0u32;
    while shift == 0 || (max >> shift) != 0 {
        let digits: Vec<usize> = a.iter().map(|&k| ((k >> shift) & mask) as usize).collect();
        let ranks = crate::rank_sort::rank_keys(&digits, radix, engine)
            .expect("digits are in range by construction");
        let mut next = vec![0u64; a.len()];
        for (i, &r) in ranks.iter().enumerate() {
            next[r] = a[i];
        }
        a = next;
        shift += bits;
        if shift >= 64 {
            break;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 20
            })
            .collect()
    }

    #[test]
    fn radix_matches_std_sort() {
        let keys = lcg(5000, 3);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(radix_sort(&keys, 8), expect);
        assert_eq!(radix_sort(&keys, 11), expect);
        assert_eq!(radix_sort(&keys, 16), expect);
    }

    #[test]
    fn mp_radix_matches_std_sort() {
        let keys = lcg(3000, 9);
        let mut expect = keys.clone();
        expect.sort_unstable();
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            assert_eq!(mp_radix_sort(&keys, 8, engine), expect, "{engine:?}");
        }
    }

    #[test]
    fn nineteen_bit_keys_one_vs_three_passes() {
        // NAS IS keys fit in 19 bits; radix-19 would be one pass of m =
        // 2^19 buckets — exactly what the direct rank sort does. Three
        // 7-bit passes must agree.
        let keys: Vec<u64> = lcg(4000, 5).iter().map(|k| k & ((1 << 19) - 1)).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(radix_sort(&keys, 7), expect);
    }

    #[test]
    fn handles_zero_and_max() {
        let keys = vec![u64::MAX, 0, 1, u64::MAX - 1];
        assert_eq!(radix_sort(&keys, 16), vec![0, 1, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn empty_and_single() {
        assert!(radix_sort(&[], 8).is_empty());
        assert_eq!(radix_sort(&[42], 8), vec![42]);
        assert_eq!(mp_radix_sort(&[42], 8, Engine::Serial), vec![42]);
    }
}

/// Multiprefix-per-digit radix sort of `(key, payload)` records: stable,
/// any `u64` key range, payloads carried through every pass — the form a
/// database-style sort needs.
pub fn mp_radix_sort_pairs<T: Clone>(
    keys: &[u64],
    payloads: &[T],
    bits: u32,
    engine: Engine,
) -> Vec<(u64, T)> {
    assert_eq!(keys.len(), payloads.len());
    assert!((1..=16).contains(&bits));
    let radix = 1usize << bits;
    let mask = (radix - 1) as u64;
    let max = keys.iter().copied().max().unwrap_or(0);
    let mut pairs: Vec<(u64, T)> = keys.iter().copied().zip(payloads.iter().cloned()).collect();
    let mut shift = 0u32;
    while shift == 0 || (max >> shift) != 0 {
        let digits: Vec<usize> = pairs
            .iter()
            .map(|&(k, _)| ((k >> shift) & mask) as usize)
            .collect();
        let ranks = crate::rank_sort::rank_keys(&digits, radix, engine)
            .expect("digits in range by construction");
        let mut next: Vec<Option<(u64, T)>> = vec![None; pairs.len()];
        for (pair, &r) in pairs.into_iter().zip(&ranks) {
            next[r] = Some(pair);
        }
        pairs = next
            .into_iter()
            .map(|p| p.expect("ranks are a permutation"))
            .collect();
        shift += bits;
        if shift >= 64 {
            break;
        }
    }
    pairs
}

#[cfg(test)]
mod pair_tests {
    use super::*;

    #[test]
    fn pairs_sorted_and_stable() {
        let keys = vec![300u64, 5, 300, 1, 5, 300];
        let payloads = vec!["a", "b", "c", "d", "e", "f"];
        let sorted = mp_radix_sort_pairs(&keys, &payloads, 4, Engine::Serial);
        assert_eq!(
            sorted,
            vec![
                (1, "d"),
                (5, "b"),
                (5, "e"),
                (300, "a"),
                (300, "c"),
                (300, "f")
            ]
        );
    }

    #[test]
    fn matches_std_stable_sort() {
        let mut state = 99u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 40
        };
        let keys: Vec<u64> = (0..2000).map(|_| step()).collect();
        let payloads: Vec<usize> = (0..2000).collect();
        let got = mp_radix_sort_pairs(&keys, &payloads, 8, Engine::Chunked);
        let mut expect: Vec<(u64, usize)> =
            keys.iter().copied().zip(payloads.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k); // stable
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_pairs() {
        assert!(mp_radix_sort_pairs::<u8>(&[], &[], 8, Engine::Serial).is_empty());
    }
}
