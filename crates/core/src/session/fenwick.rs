//! An append-friendly Fenwick (binary indexed) tree: the per-label prefix
//! structure behind the incremental session engine.
//!
//! Grounded in *An O(1) Solution to the Prefix Sum Problem on a
//! Specialized Memory Architecture* (PAPERS.md): on stock hardware the
//! specialized-memory O(1) update/query collapses to the classic O(log n)
//! Fenwick discipline, which is the right point on the curve for a
//! long-lived session — `append`, `update` and `prefix` all touch at most
//! ⌈log₂ n⌉ + 1 tree nodes, with no rescan of the history.
//!
//! The tree is 1-based internally: node `i` covers the half-open occurrence
//! range `(i − lowbit(i), i]`. Three properties matter to the session
//! layer:
//!
//! * **append is incremental** — pushing occurrence `i` computes node `i`
//!   from already-present nodes plus the new value (no rebuild);
//! * **prefix accumulation is order-preserving** — blocks are combined
//!   left-to-right, so results are *bit-identical* to a serial left fold
//!   for any associative operator (and point-update additionally requires
//!   the commutative group structure of [`InvertibleOp`]);
//! * **memory is exactly one slot per occurrence** — a million-label
//!   session pays only for labels it has touched.

use crate::error::MpError;
use crate::op::{CombineOp, InvertibleOp};
use crate::problem::Element;

/// A Fenwick tree over one label's occurrence sequence.
#[derive(Debug, Clone)]
pub struct Fenwick<T, O> {
    /// `tree[i-1]` is node `i`, covering occurrences `(i − lowbit(i), i]`.
    tree: Vec<T>,
    op: O,
}

#[inline(always)]
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl<T: Element, O: CombineOp<T>> Fenwick<T, O> {
    /// An empty tree for operator `op`.
    pub fn new(op: O) -> Self {
        Fenwick {
            tree: Vec::new(),
            op,
        }
    }

    /// Occurrences stored.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no occurrence was stored yet.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Append the next occurrence's value in O(log n): node `i` is the
    /// combination of the whole nodes inside `(i − lowbit(i), i)` plus the
    /// new value, accumulated in occurrence order.
    pub fn push(&mut self, value: T) -> Result<(), MpError> {
        if self.tree.len() == self.tree.capacity() {
            // Fallible growth so a huge session degrades to a typed error
            // rather than an abort.
            let grow = self.tree.capacity().max(4);
            self.tree
                .try_reserve(grow)
                .map_err(|_| MpError::AllocationFailed {
                    bytes: grow.saturating_mul(std::mem::size_of::<T>()),
                })?;
        }
        let i = self.tree.len() + 1;
        let mut acc = value;
        let stop = i - lowbit(i);
        let mut j = i - 1;
        while j > stop {
            // Node `j` covers occurrences earlier than everything already
            // in `acc`, so it combines on the left.
            acc = self.op.combine(self.tree[j - 1], acc);
            j -= lowbit(j);
        }
        self.tree.push(acc);
        Ok(())
    }

    /// The combination of the first `k` occurrences, in occurrence order
    /// (the operator identity for `k == 0`). `k` must be ≤ [`Fenwick::len`].
    pub fn prefix(&self, mut k: usize) -> T {
        debug_assert!(k <= self.tree.len());
        let mut acc = self.op.identity();
        while k > 0 {
            // Blocks are visited from the latest backwards; each new block
            // is *earlier* than the accumulator, so it combines on the
            // left — a bit-exact left fold for associative operators.
            acc = self.op.combine(self.tree[k - 1], acc);
            k -= lowbit(k);
        }
        acc
    }

    /// The combination of every stored occurrence.
    pub fn total(&self) -> T {
        self.prefix(self.tree.len())
    }
}

impl<T: Element, O: InvertibleOp<T>> Fenwick<T, O> {
    /// Bulk-build the tree for a label's full occurrence sequence in one
    /// pass — the session-store restore path, where rebuilding a large
    /// label push-by-push costs `O(n log n)` combines against `O(n)` here.
    ///
    /// The construction is an inclusive prefix scan of the values
    /// followed by `node_i = incl[i−1] ⊖
    /// incl[i−lowbit(i)−1]`: node `i` covers `(i − lowbit(i), i]`, and an
    /// [`InvertibleOp`] is a commutative group, so the prefix difference
    /// equals — exactly, bit for bit — the fold [`Fenwick::push`] would
    /// have computed for that range.
    pub fn from_values(op: O, values: &[T]) -> Result<Self, MpError> {
        let n = values.len();
        let bytes = n.saturating_mul(std::mem::size_of::<T>());
        let mut incl = Vec::new();
        incl.try_reserve_exact(n)
            .map_err(|_| MpError::AllocationFailed { bytes })?;
        incl.extend_from_slice(values);
        let mut acc = op.identity();
        for x in incl.iter_mut() {
            acc = op.combine(acc, *x);
            *x = acc;
        }
        let mut tree = Vec::new();
        tree.try_reserve_exact(n)
            .map_err(|_| MpError::AllocationFailed { bytes })?;
        for i in 1..=n {
            let stop = i - lowbit(i);
            tree.push(if stop == 0 {
                incl[i - 1]
            } else {
                op.uncombine(incl[i - 1], incl[stop - 1])
            });
        }
        Ok(Fenwick { tree, op })
    }

    /// Replace occurrence `index` (0-based) with `value`, given the value
    /// it currently holds, in O(log n). The delta `uncombine(value, old)`
    /// is folded into each covering node — exact because an
    /// [`InvertibleOp`] is a commutative group.
    pub fn assign(&mut self, index: usize, old: T, value: T) {
        debug_assert!(index < self.tree.len());
        let delta = self.op.uncombine(value, old);
        let mut i = index + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.op.combine(self.tree[i - 1], delta);
            i += lowbit(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;

    fn oracle_prefix(values: &[i64], k: usize) -> i64 {
        values[..k].iter().fold(0i64, |a, &b| a.wrapping_add(b))
    }

    #[test]
    fn push_prefix_total_match_serial_fold() {
        let mut fw = Fenwick::new(Plus);
        let values: Vec<i64> = (0..137).map(|i| (i * 7919 + 13) % 1000 - 500).collect();
        for (i, &v) in values.iter().enumerate() {
            fw.push(v).unwrap();
            assert_eq!(fw.len(), i + 1);
            for k in 0..=i + 1 {
                assert_eq!(
                    fw.prefix(k),
                    oracle_prefix(&values[..=i], k),
                    "n={} k={k}",
                    i + 1
                );
            }
        }
        assert_eq!(fw.total(), oracle_prefix(&values, values.len()));
    }

    #[test]
    fn assign_is_exact_under_wrapping() {
        let mut fw = Fenwick::new(Plus);
        let mut values = vec![i64::MAX - 2, 5, i64::MIN + 7, 11, -3, 0, 42];
        for &v in &values {
            fw.push(v).unwrap();
        }
        // Reassign every slot (including overflow-adjacent values) and
        // re-check every prefix each time.
        let replacements = [i64::MIN, -1, i64::MAX, 0, 999, i64::MIN + 1, 7];
        for (i, &nv) in replacements.iter().enumerate() {
            fw.assign(i, values[i], nv);
            values[i] = nv;
            for k in 0..=values.len() {
                assert_eq!(
                    fw.prefix(k),
                    oracle_prefix(&values, k),
                    "after assign {i}, k={k}"
                );
            }
        }
    }

    #[test]
    fn empty_tree_yields_identity() {
        let fw: Fenwick<i64, Plus> = Fenwick::new(Plus);
        assert!(fw.is_empty());
        assert_eq!(fw.prefix(0), 0);
        assert_eq!(fw.total(), 0);
    }

    #[test]
    fn bulk_build_is_bit_identical_to_push() {
        use crate::op::Xor;
        // Lengths straddling powers of two, values straddling the wrap
        // boundary: every internal node must match the push-built tree
        // exactly (not just every queryable prefix).
        for n in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 4097] {
            let values: Vec<i64> = (0..n)
                .map(|i| (i as i64).wrapping_mul(0x9E3779B97F4A7C15u64 as i64))
                .collect();
            let mut pushed = Fenwick::new(Plus);
            for &v in &values {
                pushed.push(v).unwrap();
            }
            let bulk = Fenwick::from_values(Plus, &values).unwrap();
            assert_eq!(bulk.tree, pushed.tree, "plus n={n}");

            let values: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0xDEAD_BEEF_CAFE))
                .collect();
            let mut pushed = Fenwick::new(Xor);
            for &v in &values {
                pushed.push(v).unwrap();
            }
            let bulk = Fenwick::from_values(Xor, &values).unwrap();
            assert_eq!(bulk.tree, pushed.tree, "xor n={n}");
        }
    }
}
