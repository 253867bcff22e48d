//! Plain (un-keyed) prefix scans.
//!
//! A multiprefix in which every element carries the same label *is* an
//! ordinary prefix sum (§1: a segmented scan "is simulated by distributing
//! the same label to each element in a segment"). This module provides the
//! direct implementations the applications use:
//!
//! * serial inclusive/exclusive scans (the references);
//! * the **partition method** of Hockney & Jesshope [HJ88], which the paper
//!   uses for the bucket-cumulation step of its NAS sort (§5.1.1: "we
//!   resorted to the traditional 'partition method' for solving this part
//!   of the problem") — here with rayon supplying the per-partition
//!   parallelism.

use crate::op::CombineOp;
use crate::problem::Element;
use rayon::prelude::*;

/// Serial exclusive scan: `out[i] = v[0] ⊕ … ⊕ v[i-1]`, `out[0] = identity`.
/// Returns `(out, total)`.
pub fn exclusive_scan_serial<T: Element, O: CombineOp<T>>(values: &[T], op: O) -> (Vec<T>, T) {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = op.identity();
    for &v in values {
        out.push(acc);
        acc = op.combine(acc, v);
    }
    (out, acc)
}

/// Serial inclusive scan: `out[i] = v[0] ⊕ … ⊕ v[i]`.
pub fn inclusive_scan_serial<T: Element, O: CombineOp<T>>(values: &[T], op: O) -> Vec<T> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = op.identity();
    for &v in values {
        acc = op.combine(acc, v);
        out.push(acc);
    }
    out
}

/// Exclusive scan by the partition method: split into `P` contiguous
/// partitions; (1) each partition reduces its values in parallel; (2) a
/// serial exclusive scan over the `P` partial sums yields each partition's
/// offset; (3) each partition re-scans serially from its offset, in
/// parallel. Two parallel sweeps + `O(P)` serial work — the classic
/// vector-machine recurrence solver. Deterministic for non-commutative ⊕.
pub fn exclusive_scan_partition<T: Element, O: CombineOp<T>>(values: &[T], op: O) -> (Vec<T>, T) {
    let n = values.len();
    if n == 0 {
        return (Vec::new(), op.identity());
    }
    let partitions = rayon::current_num_threads().max(1) * 4;
    let part_len = n.div_ceil(partitions).max(1);

    // Both sweeps are plain prefix operations, so recognized operators
    // ([`crate::op::CombineOp::KERNEL`]) run the vectorized kernels —
    // bit-identical to the serial fold for the exact integer kernels.
    let fast = O::KERNEL.and_then(|k| crate::simd::kernels::<T>(k, false));

    // Sweep 1: per-partition totals.
    let totals: Vec<T> = values
        .par_chunks(part_len)
        .map(|chunk| match fast {
            Some(tbl) => (tbl.reduce)(op.identity(), chunk),
            None => chunk
                .iter()
                .fold(op.identity(), |acc, &v| op.combine(acc, v)),
        })
        .collect();

    // Serial scan over the P totals.
    let (offsets, grand_total) = exclusive_scan_serial(&totals, op);

    // Sweep 2: re-scan each partition from its offset, writing each output
    // slot once into uninitialized capacity.
    let mut out = Vec::with_capacity(n);
    out.spare_capacity_mut()[..n]
        .par_chunks_mut(part_len)
        .zip(values.par_chunks(part_len))
        .zip(offsets.par_iter())
        .for_each(|((o, v), &offset)| {
            if let Some(tbl) = fast {
                (tbl.excl_scan_into)(v, o, offset);
                return;
            }
            let mut acc = offset;
            for (oi, &vi) in o.iter_mut().zip(v) {
                oi.write(acc);
                acc = op.combine(acc, vi);
            }
        });
    // SAFETY: the partitions of `spare[..n]` and of `values` have equal
    // lengths, and each partition's scan writes every slot of its piece;
    // `for_each` returns only once every partition has (a panicking
    // operator unwinds past this line, dropping `out` at length 0).
    unsafe { out.set_len(n) };
    (out, grand_total)
}

/// Inclusive scan via the partition method.
pub fn inclusive_scan_partition<T: Element, O: CombineOp<T>>(values: &[T], op: O) -> Vec<T> {
    let (mut out, _) = exclusive_scan_partition(values, op);
    out.par_iter_mut()
        .zip(values.par_iter())
        .for_each(|(o, &v)| *o = op.combine(*o, v));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Max, Mult, Plus};

    #[test]
    fn serial_exclusive_basics() {
        let (out, total) = exclusive_scan_serial(&[1i64, 2, 3, 4], Plus);
        assert_eq!(out, vec![0, 1, 3, 6]);
        assert_eq!(total, 10);
    }

    #[test]
    fn serial_inclusive_basics() {
        assert_eq!(
            inclusive_scan_serial(&[1i64, 2, 3, 4], Plus),
            vec![1, 3, 6, 10]
        );
    }

    #[test]
    fn empty_scans() {
        let (out, total) = exclusive_scan_serial::<i64, _>(&[], Plus);
        assert!(out.is_empty());
        assert_eq!(total, 0);
        let (out, total) = exclusive_scan_partition::<i64, _>(&[], Plus);
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn partition_matches_serial_plus() {
        let values: Vec<i64> = (0..100_000).map(|i| (i % 7) as i64 - 3).collect();
        let (a, ta) = exclusive_scan_serial(&values, Plus);
        let (b, tb) = exclusive_scan_partition(&values, Plus);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn partition_matches_serial_max() {
        let values: Vec<i64> = (0..65_537)
            .map(|i| (i as i64 * 911) % 5000 - 2500)
            .collect();
        assert_eq!(
            inclusive_scan_partition(&values, Max),
            inclusive_scan_serial(&values, Max)
        );
    }

    #[test]
    fn partition_noncommutative() {
        let values: Vec<(i32, i32)> = (0..50_000).map(|i| (i, i)).collect();
        let (a, ta) = exclusive_scan_serial(&values, FirstLast);
        let (b, tb) = exclusive_scan_partition(&values, FirstLast);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    /// Miri target (the CI `miri` filter matches `scan`): every length up to
    /// partitions of three elements, on the kernel path (`Plus`) and the
    /// scalar path (`FirstLast`), so each partition's write-once output is
    /// read back and compared.
    #[test]
    fn partition_writes_every_slot_small() {
        let partitions = rayon::current_num_threads().max(1) * 4;
        for n in 0..=2 * partitions + 3 {
            let values: Vec<i64> = (0..n as i64).map(|i| i * 7 % 11 - 5).collect();
            assert_eq!(
                exclusive_scan_partition(&values, Plus),
                exclusive_scan_serial(&values, Plus),
                "n={n}"
            );
            let pairs: Vec<(i32, i32)> = (0..n as i32).map(|i| (i, -i)).collect();
            assert_eq!(
                exclusive_scan_partition(&pairs, FirstLast),
                exclusive_scan_serial(&pairs, FirstLast),
                "n={n}"
            );
        }
    }

    #[test]
    fn mult_scan_overflow_wraps_consistently() {
        let values: Vec<i64> = (1..1000).map(|i| i | 1).collect();
        let (a, _) = exclusive_scan_serial(&values, Mult);
        let (b, _) = exclusive_scan_partition(&values, Mult);
        assert_eq!(a, b);
    }

    #[test]
    fn scan_equals_single_label_multiprefix() {
        // The subsumption claim of §1, checked concretely.
        let values: Vec<i64> = (0..5000).map(|i| (i * i % 13) as i64).collect();
        let labels = vec![0usize; 5000];
        let mp = crate::serial::multiprefix_serial(&values, &labels, 1, Plus);
        let (scan, total) = exclusive_scan_serial(&values, Plus);
        assert_eq!(mp.sums, scan);
        assert_eq!(mp.reductions[0], total);
    }
}

/// Work-efficient tree scan (Blelloch's up-sweep / down-sweep), with the
/// recursion parallelized by `rayon::join` — the third classic scan shape,
/// included alongside the serial loop and the partition method. Exclusive;
/// returns `(scan, total)`. `O(n)` work (the up-sweep stores each split's
/// left-half total so the down-sweep never recomputes), `O(log n)` span.
pub fn exclusive_scan_blelloch<T: Element, O: CombineOp<T>>(values: &[T], op: O) -> (Vec<T>, T) {
    let n = values.len();
    if n == 0 {
        return (Vec::new(), op.identity());
    }
    let mut out = values.to_vec();
    let (tree, total) = up_sweep(&out, op);
    down_sweep(&mut out, &tree, op, op.identity());
    (out, total)
}

/// Sequential cutoff below which recursion stays on one thread.
const SCAN_CUTOFF: usize = 8 * 1024;

/// Totals tree produced by the up-sweep: mirrors the `join` split
/// structure, storing each internal node's left-half total.
enum SweepTree<T> {
    Leaf,
    Node {
        left_total: T,
        left: Box<SweepTree<T>>,
        right: Box<SweepTree<T>>,
    },
}

/// Up-sweep: build the totals tree and return the slice's ⊕-total.
fn up_sweep<T: Element, O: CombineOp<T>>(slice: &[T], op: O) -> (SweepTree<T>, T) {
    let n = slice.len();
    if n <= SCAN_CUTOFF {
        let total = slice
            .iter()
            .fold(op.identity(), |acc, &v| op.combine(acc, v));
        return (SweepTree::Leaf, total);
    }
    let mid = n / 2;
    let (left_half, right_half) = slice.split_at(mid);
    let ((left, left_total), (right, right_total)) =
        rayon::join(|| up_sweep(left_half, op), || up_sweep(right_half, op));
    let total = op.combine(left_total, right_total);
    (
        SweepTree::Node {
            left_total,
            left: Box::new(left),
            right: Box::new(right),
        },
        total,
    )
}

/// Down-sweep: replace each element with `carry ⊕ (everything before it
/// in this slice)`, reusing the stored left totals.
fn down_sweep<T: Element, O: CombineOp<T>>(slice: &mut [T], tree: &SweepTree<T>, op: O, carry: T) {
    match tree {
        SweepTree::Leaf => {
            let mut acc = carry;
            for v in slice.iter_mut() {
                let old = *v;
                *v = acc;
                acc = op.combine(acc, old);
            }
        }
        SweepTree::Node {
            left_total,
            left,
            right,
        } => {
            let mid = slice.len() / 2;
            let (left_half, right_half) = slice.split_at_mut(mid);
            let right_carry = op.combine(carry, *left_total);
            rayon::join(
                || down_sweep(left_half, left, op, carry),
                || down_sweep(right_half, right, op, right_carry),
            );
        }
    }
}

#[cfg(test)]
mod blelloch_tests {
    use super::*;
    use crate::op::{FirstLast, Max, Plus};

    #[test]
    fn matches_serial_small_and_large() {
        for n in [0usize, 1, 2, 100, 10_000, 100_000] {
            let values: Vec<i64> = (0..n as i64).map(|i| i % 31 - 15).collect();
            let (a, ta) = exclusive_scan_serial(&values, Plus);
            let (b, tb) = exclusive_scan_blelloch(&values, Plus);
            assert_eq!(a, b, "n = {n}");
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn max_and_noncommutative() {
        let values: Vec<i64> = (0..50_000)
            .map(|i| (i as i64 * 7919) % 1000 - 500)
            .collect();
        assert_eq!(
            exclusive_scan_blelloch(&values, Max),
            exclusive_scan_serial(&values, Max)
        );
        let pairs: Vec<(i32, i32)> = (0..30_000).map(|i| (i, i)).collect();
        assert_eq!(
            exclusive_scan_blelloch(&pairs, FirstLast),
            exclusive_scan_serial(&pairs, FirstLast)
        );
    }

    #[test]
    fn three_scans_agree() {
        let values: Vec<i64> = (0..70_001i64).map(|i| i.wrapping_mul(i) % 97).collect();
        let (a, ta) = exclusive_scan_serial(&values, Plus);
        let (b, tb) = exclusive_scan_partition(&values, Plus);
        let (c, tc) = exclusive_scan_blelloch(&values, Plus);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(ta, tb);
        assert_eq!(tb, tc);
    }
}
