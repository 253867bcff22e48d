//! Multiprefix over arbitrary keys: label compression.
//!
//! The paper's operation takes small-integer labels in `[0, m)`. Real
//! inputs are keyed by whatever the application has — strings, tuples,
//! sparse 64-bit ids. This module maps arbitrary hashable keys to dense
//! labels (first-occurrence order, so the mapping itself is deterministic)
//! and runs the multiprefix; the reductions come back keyed.
//!
//! This is the unsorted-label analogue of a `scan_by_key` (which existing
//! libraries only provide for *pre-sorted* keys — the point of the paper
//! is that no sort is needed).

use crate::api::{multiprefix, Engine};
use crate::error::MpError;
use crate::op::CombineOp;
use crate::problem::Element;
use std::collections::HashMap;
use std::hash::Hash;

/// Result of a keyed multiprefix.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedOutput<K, T> {
    /// Per-element exclusive prefix (same semantics as
    /// [`crate::MultiprefixOutput::sums`]).
    pub sums: Vec<T>,
    /// Distinct keys in first-occurrence order.
    pub keys: Vec<K>,
    /// `reductions[j]` is the ⊕ of all values whose key is `keys[j]`.
    pub reductions: Vec<T>,
}

impl<K: Eq + Hash + Clone, T: Copy> KeyedOutput<K, T> {
    /// The reduction for one key, if it occurred.
    pub fn reduction_for(&self, key: &K) -> Option<T> {
        self.keys
            .iter()
            .position(|k| k == key)
            .map(|j| self.reductions[j])
    }

    /// Reductions as a hash map.
    pub fn into_map(self) -> HashMap<K, T> {
        self.keys.into_iter().zip(self.reductions).collect()
    }
}

/// Compress arbitrary keys to dense labels in first-occurrence order.
/// Returns `(labels, distinct_keys)`.
pub fn compress_keys<K: Eq + Hash + Clone>(keys: &[K]) -> (Vec<usize>, Vec<K>) {
    let mut ids: HashMap<K, usize> = HashMap::new();
    let mut distinct: Vec<K> = Vec::new();
    let labels = keys
        .iter()
        .map(|k| {
            *ids.entry(k.clone()).or_insert_with(|| {
                distinct.push(k.clone());
                distinct.len() - 1
            })
        })
        .collect();
    (labels, distinct)
}

/// Multiprefix keyed by arbitrary hashable keys: for each element, the ⊕
/// of all preceding values with an equal key.
///
/// ```
/// use multiprefix::keyed::multiprefix_by_key;
/// use multiprefix::{op::Plus, Engine};
///
/// let values = [10i64, 1, 20, 2, 30];
/// let keys = ["a", "b", "a", "b", "a"];
/// let out = multiprefix_by_key(&values, &keys, Plus, Engine::Auto).unwrap();
/// assert_eq!(out.sums, vec![0, 0, 10, 1, 30]);
/// assert_eq!(out.reduction_for(&"a"), Some(60));
/// assert_eq!(out.reduction_for(&"b"), Some(3));
/// ```
pub fn multiprefix_by_key<K: Eq + Hash + Clone, T: Element, O: CombineOp<T>>(
    values: &[T],
    keys: &[K],
    op: O,
    engine: Engine,
) -> Result<KeyedOutput<K, T>, MpError> {
    if values.len() != keys.len() {
        return Err(MpError::LengthMismatch {
            values: values.len(),
            labels: keys.len(),
        });
    }
    let (labels, distinct) = compress_keys(keys);
    let out = multiprefix(values, &labels, distinct.len(), op, engine)?;
    Ok(KeyedOutput {
        sums: out.sums,
        keys: distinct,
        reductions: out.reductions,
    })
}

/// Multireduce keyed by arbitrary hashable keys ("group-by ⊕").
pub fn multireduce_by_key<K: Eq + Hash + Clone, T: Element, O: CombineOp<T>>(
    values: &[T],
    keys: &[K],
    op: O,
    engine: Engine,
) -> Result<(Vec<K>, Vec<T>), MpError> {
    if values.len() != keys.len() {
        return Err(MpError::LengthMismatch {
            values: values.len(),
            labels: keys.len(),
        });
    }
    let (labels, distinct) = compress_keys(keys);
    let red = crate::api::multireduce(values, &labels, distinct.len(), op, engine)?;
    Ok((distinct, red))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Plus};

    #[test]
    fn compression_is_first_occurrence_ordered() {
        let (labels, keys) = compress_keys(&["x", "y", "x", "z", "y"]);
        assert_eq!(labels, vec![0, 1, 0, 2, 1]);
        assert_eq!(keys, vec!["x", "y", "z"]);
    }

    #[test]
    fn string_keys() {
        let values = [1i64, 2, 3, 4, 5];
        let keys = ["apple", "pear", "apple", "apple", "pear"];
        let out = multiprefix_by_key(&values, &keys, Plus, Engine::Serial).unwrap();
        assert_eq!(out.sums, vec![0, 0, 1, 4, 2]);
        assert_eq!(out.reduction_for(&"apple"), Some(8));
        assert_eq!(out.reduction_for(&"pear"), Some(7));
        assert_eq!(out.reduction_for(&"plum"), None);
    }

    #[test]
    fn tuple_keys_with_max() {
        let values = [5i64, 9, 2, 7];
        let keys = [(1, 'a'), (2, 'b'), (1, 'a'), (2, 'b')];
        let out = multiprefix_by_key(&values, &keys, Max, Engine::Serial).unwrap();
        assert_eq!(out.sums, vec![i64::MIN, i64::MIN, 5, 9]);
        assert_eq!(out.reduction_for(&(1, 'a')), Some(5));
        assert_eq!(out.reduction_for(&(2, 'b')), Some(9));
    }

    #[test]
    fn sparse_u64_ids_via_chunked_engine() {
        let n = 50_000usize;
        let values: Vec<i64> = (0..n as i64).collect();
        let keys: Vec<u64> = (0..n)
            .map(|i| ((i * 2654435761) as u64) << 13 | (i % 7) as u64)
            .collect();
        let out = multiprefix_by_key(&values, &keys, Plus, Engine::Chunked).unwrap();
        // Cross-check a few positions against a serial map.
        let mut seen: HashMap<u64, i64> = HashMap::new();
        for i in 0..n {
            let e = seen.entry(keys[i]).or_insert(0);
            assert_eq!(out.sums[i], *e, "at {i}");
            *e += values[i];
        }
    }

    #[test]
    fn reduce_by_key_groups() {
        let values = [1u64, 2, 3, 4];
        let keys = ["a", "b", "a", "b"];
        let (ks, reds) = multireduce_by_key(&values, &keys, Plus, Engine::Serial).unwrap();
        assert_eq!(ks, vec!["a", "b"]);
        assert_eq!(reds, vec![4, 6]);
    }

    #[test]
    fn into_map() {
        let out = multiprefix_by_key(&[1i64, 2], &["k", "k"], Plus, Engine::Serial).unwrap();
        let map = out.into_map();
        assert_eq!(map.get("k"), Some(&3));
    }

    #[test]
    fn length_mismatch_reported() {
        let err = multiprefix_by_key(&[1i64], &["a", "b"], Plus, Engine::Serial).unwrap_err();
        assert!(matches!(
            err,
            MpError::LengthMismatch {
                values: 1,
                labels: 2
            }
        ));
    }

    #[test]
    fn empty() {
        let out = multiprefix_by_key::<&str, i64, _>(&[], &[], Plus, Engine::Serial).unwrap();
        assert!(out.sums.is_empty());
        assert!(out.keys.is_empty());
    }
}
