//! Segmented scans via multiprefix.
//!
//! §1 of the paper: "Multiprefix also provides the functionality of the
//! segmented-scans \[Ble90\] … A segmented-scan is simulated by distributing
//! the same label to each element in a segment and then executing the
//! multiprefix operation."
//!
//! A segmentation is given by a boolean flag vector: `flags[i] == true`
//! opens a new segment at `i` (position 0 always opens the first segment,
//! whatever its flag). [`segment_ids`] converts flags to per-element
//! segment labels with an inclusive scan; the segmented exclusive scan is
//! then one multiprefix call with those labels.

use crate::api::{multiprefix, Engine};
use crate::error::MpError;
use crate::op::CombineOp;
use crate::problem::{Element, MultiprefixOutput};

/// Convert segment-start flags into 0-based segment ids.
///
/// ```
/// use multiprefix::segmented::segment_ids;
/// let flags = [false, false, true, false, true];
/// assert_eq!(segment_ids(&flags), vec![0, 0, 1, 1, 2]);
/// ```
pub fn segment_ids(flags: &[bool]) -> Vec<usize> {
    let mut ids = Vec::with_capacity(flags.len());
    let mut current = 0usize;
    for (i, &f) in flags.iter().enumerate() {
        if f && i > 0 {
            current += 1;
        }
        ids.push(current);
    }
    ids
}

/// Number of segments described by a flag vector (0 for an empty vector).
pub fn segment_count(flags: &[bool]) -> usize {
    if flags.is_empty() {
        0
    } else {
        1 + flags.iter().skip(1).filter(|&&f| f).count()
    }
}

/// Segmented **exclusive** scan: within each segment, `out[i]` is the ⊕ of
/// the segment's values strictly before `i` (identity at each segment
/// head). Also returns the per-segment totals, which is what a
/// segmented *reduce* would produce.
pub fn segmented_exclusive_scan<T: Element, O: CombineOp<T>>(
    values: &[T],
    flags: &[bool],
    op: O,
    engine: Engine,
) -> Result<MultiprefixOutput<T>, MpError> {
    let ids = segment_ids(flags);
    multiprefix(values, &ids, segment_count(flags), op, engine)
}

/// Segmented **inclusive** scan (each position includes its own value).
pub fn segmented_inclusive_scan<T: Element, O: CombineOp<T>>(
    values: &[T],
    flags: &[bool],
    op: O,
    engine: Engine,
) -> Result<Vec<T>, MpError> {
    let out = segmented_exclusive_scan(values, flags, op, engine)?;
    Ok(out
        .sums
        .iter()
        .zip(values)
        .map(|(&s, &v)| op.combine(s, v))
        .collect())
}

/// Build start-flags from segment lengths: `lengths = [3, 2]` describes
/// segments covering positions `0..3` and `3..5`.
///
/// ```
/// use multiprefix::segmented::flags_from_lengths;
/// assert_eq!(
///     flags_from_lengths(&[3, 2]),
///     vec![true, false, false, true, false]
/// );
/// ```
///
/// # Panics
/// Panics if any length is zero (empty segments have no head position to
/// flag; represent them out of band).
pub fn flags_from_lengths(lengths: &[usize]) -> Vec<bool> {
    let total: usize = lengths.iter().sum();
    let mut flags = vec![false; total];
    let mut at = 0usize;
    for &len in lengths {
        assert!(
            len > 0,
            "zero-length segments are not representable as flags"
        );
        flags[at] = true;
        at += len;
    }
    flags
}

/// Recover segment lengths from per-element segment ids (the inverse of
/// [`segment_ids`] composed with [`flags_from_lengths`]).
pub fn lengths_from_ids(ids: &[usize]) -> Vec<usize> {
    let Some(&last) = ids.last() else {
        return Vec::new();
    };
    let mut lengths = vec![0usize; last + 1];
    for &id in ids {
        lengths[id] += 1;
    }
    lengths
}

/// Serial reference segmented exclusive scan — used by tests to validate
/// the multiprefix route.
pub fn segmented_exclusive_scan_serial<T: Element, O: CombineOp<T>>(
    values: &[T],
    flags: &[bool],
    op: O,
) -> Vec<T> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = op.identity();
    for (i, &v) in values.iter().enumerate() {
        if i == 0 || flags[i] {
            acc = op.identity();
        }
        out.push(acc);
        acc = op.combine(acc, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Plus};

    #[test]
    fn ids_basics() {
        assert_eq!(segment_ids(&[]), Vec::<usize>::new());
        assert_eq!(segment_ids(&[true, true, true]), vec![0, 1, 2]);
        assert_eq!(segment_ids(&[false, false]), vec![0, 0]);
        assert_eq!(segment_count(&[false, true, false, true]), 3);
        assert_eq!(segment_count(&[]), 0);
    }

    #[test]
    fn first_flag_value_is_irrelevant() {
        assert_eq!(segment_ids(&[true, false]), segment_ids(&[false, false]));
    }

    #[test]
    fn exclusive_matches_serial_reference() {
        let values: Vec<i64> = (0..1000).map(|i| (i % 11) as i64).collect();
        let flags: Vec<bool> = (0..1000).map(|i| i % 37 == 0).collect();
        let expect = segmented_exclusive_scan_serial(&values, &flags, Plus);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let got = segmented_exclusive_scan(&values, &flags, Plus, engine).unwrap();
            assert_eq!(got.sums, expect, "{engine:?}");
        }
    }

    #[test]
    fn segment_totals_are_reductions() {
        let values = [1i64, 2, 3, 10, 20, 100];
        let flags = [false, false, false, true, false, true];
        let out = segmented_exclusive_scan(&values, &flags, Plus, Engine::Serial).unwrap();
        assert_eq!(out.reductions, vec![6, 30, 100]);
        assert_eq!(out.sums, vec![0, 1, 3, 0, 10, 0]);
    }

    #[test]
    fn inclusive_scan_includes_self() {
        let values = [1i64, 2, 3, 4];
        let flags = [false, false, true, false];
        let got = segmented_inclusive_scan(&values, &flags, Plus, Engine::Serial).unwrap();
        assert_eq!(got, vec![1, 3, 3, 7]);
    }

    #[test]
    fn max_segmented() {
        let values = [5i64, 1, 9, 2, 8, 3];
        let flags = [false, false, false, true, false, false];
        let expect = segmented_exclusive_scan_serial(&values, &flags, Max);
        let got = segmented_exclusive_scan(&values, &flags, Max, Engine::Spinetree).unwrap();
        assert_eq!(got.sums, expect);
    }

    #[test]
    fn length_flag_id_roundtrip() {
        let lengths = vec![1usize, 4, 2, 7];
        let flags = flags_from_lengths(&lengths);
        assert_eq!(flags.len(), 14);
        let ids = segment_ids(&flags);
        assert_eq!(lengths_from_ids(&ids), lengths);
        assert_eq!(segment_count(&flags), 4);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_segment_rejected() {
        flags_from_lengths(&[2, 0, 1]);
    }

    #[test]
    fn lengths_from_empty() {
        assert!(lengths_from_ids(&[]).is_empty());
        assert!(flags_from_lengths(&[]).is_empty());
    }

    #[test]
    fn every_element_its_own_segment() {
        let values = [7i64, 8, 9];
        let flags = [true, true, true];
        let out = segmented_exclusive_scan(&values, &flags, Plus, Engine::Serial).unwrap();
        assert_eq!(out.sums, vec![0, 0, 0]);
        assert_eq!(out.reductions, vec![7, 8, 9]);
    }
}
