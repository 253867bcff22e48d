//! Cross-module pipelines composing the newer primitives: keyed group-by
//! feeding sorting, streaming feeding SpMV-style reductions, split feeding
//! radix passes — the "downstream user" compositions.

use multiprefix::keyed::{compress_keys, multiprefix_by_key};
use multiprefix::op::{ArgMax, Plus};
use multiprefix::split::{pack, split_stable};
use multiprefix::stream::MultiprefixStream;
use multiprefix::{multiprefix, multiprefix_inclusive, Engine};
use proptest::prelude::*;

#[test]
fn group_by_then_rank_by_group_size() {
    // Compress string-ish keys, histogram them, then rank keys by how
    // often they appear (a small analytics pipeline).
    let raw: Vec<u32> = (0..5000).map(|i| (i * i % 37) as u32).collect();
    let (labels, distinct) = compress_keys(&raw);
    let ones = vec![1i64; raw.len()];
    let out = multiprefix(&ones, &labels, distinct.len(), Plus, Engine::Chunked).unwrap();
    // Reductions = per-key counts; verify against a direct count.
    for (j, key) in distinct.iter().enumerate() {
        let direct = raw.iter().filter(|&&r| r == *key).count() as i64;
        assert_eq!(out.reductions[j], direct);
    }
    // Each element's prefix is its occurrence ordinal — the classic
    // "visit number" idiom.
    let mut seen = std::collections::HashMap::new();
    for (i, &l) in labels.iter().enumerate() {
        let ordinal = seen.entry(l).or_insert(0i64);
        assert_eq!(out.sums[i], *ordinal, "at {i}");
        *ordinal += 1;
    }
}

#[test]
fn running_argmax_window_analysis() {
    // For a time series with session labels, find — at each event — the
    // index of the largest earlier value in the same session.
    let values: Vec<i64> = vec![3, 9, 2, 9, 1, 7, 8, 9];
    let sessions: Vec<usize> = vec![0, 1, 0, 0, 1, 1, 0, 1];
    let pairs: Vec<(i64, i64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as i64))
        .collect();
    let out = multiprefix(&pairs, &sessions, 2, ArgMax, Engine::Serial).unwrap();
    // Event 6 (session 0): preceding session-0 values are 3@0, 2@2, 9@3.
    assert_eq!(out.sums[6], (9, 3));
    // Event 7 (session 1): preceding session-1 values are 9@1, 1@4, 7@5.
    assert_eq!(out.sums[7], (9, 1));
    // Reductions give each session's overall argmax (ties to earliest).
    assert_eq!(out.reductions[0], (9, 3));
    assert_eq!(out.reductions[1], (9, 1));
}

#[test]
fn split_then_pack_composes_with_inclusive_scan() {
    let values: Vec<i64> = (0..1000).map(|i| i % 10).collect();
    let parities: Vec<usize> = values.iter().map(|&v| (v % 2) as usize).collect();
    let (split, offsets) = split_stable(&values, &parities, 2, Engine::Chunked).unwrap();
    // All evens precede all odds, each stable.
    assert!(split[..offsets[1]].iter().all(|v| v % 2 == 0));
    assert!(split[offsets[1]..].iter().all(|v| v % 2 == 1));
    // Inclusive scan over the packed odds equals filtered running totals.
    let odd_flags: Vec<bool> = values.iter().map(|&v| v % 2 == 1).collect();
    let odds = pack(&values, &odd_flags, Engine::Serial).unwrap();
    let labels = vec![0usize; odds.len()];
    let inc = multiprefix_inclusive(&odds, &labels, 1, Plus, Engine::Serial).unwrap();
    let mut acc = 0i64;
    for (i, &v) in odds.iter().enumerate() {
        acc += v;
        assert_eq!(inc.sums[i], acc);
    }
}

#[test]
fn stream_against_keyed_oneshot() {
    let raw: Vec<u16> = (0..20_000).map(|i| ((i * 31) % 97) as u16).collect();
    let values: Vec<i64> = (0..20_000).map(|i| (i % 13) as i64).collect();
    let oneshot = multiprefix_by_key(&values, &raw, Plus, Engine::Chunked).unwrap();

    let (labels, distinct) = compress_keys(&raw);
    let mut stream = MultiprefixStream::new(distinct.len(), Plus, Engine::Serial);
    let mut sums = Vec::new();
    for (v, l) in values.chunks(777).zip(labels.chunks(777)) {
        sums.extend(stream.feed(v, l).unwrap());
    }
    assert_eq!(sums, oneshot.sums);
    assert_eq!(stream.finish(), oneshot.reductions);
}

proptest! {
    #[test]
    fn keyed_reductions_equal_hashmap_group_by(
        pairs in proptest::collection::vec((0u8..30, -100i64..100), 0..500),
    ) {
        let keys: Vec<u8> = pairs.iter().map(|&(k, _)| k).collect();
        let values: Vec<i64> = pairs.iter().map(|&(_, v)| v).collect();
        let out = multiprefix_by_key(&values, &keys, Plus, Engine::Auto).unwrap();
        let mut oracle: std::collections::HashMap<u8, i64> = std::collections::HashMap::new();
        for (&k, &v) in keys.iter().zip(&values) {
            *oracle.entry(k).or_insert(0) += v;
        }
        prop_assert_eq!(out.keys.len(), oracle.len());
        for (key, red) in out.keys.iter().zip(&out.reductions) {
            prop_assert_eq!(oracle[key], *red);
        }
    }
}
