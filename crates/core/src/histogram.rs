//! Histogramming: multireduce specialized to counting.
//!
//! §1 of the paper: "The multireduce operation occurs most frequently as
//! histogram computation which is important enough that a special 'Vector
//! Update Loop' compiler directive has been suggested to identify this
//! procedure." Here the procedure is just multireduce with unit values —
//! no compiler heroics required.

use crate::api::{multireduce, Engine};
use crate::error::MpError;
use crate::op::{CombineOp, Plus};
use crate::problem::Element;

/// Count the occurrences of each key in `[0, m)`.
///
/// ```
/// use multiprefix::{histogram::histogram, Engine};
/// let counts = histogram(&[2, 0, 2, 2, 1], 4, Engine::Serial).unwrap();
/// assert_eq!(counts, vec![1, 1, 3, 0]);
/// ```
pub fn histogram(keys: &[usize], m: usize, engine: Engine) -> Result<Vec<u64>, MpError> {
    // A histogram is the multireduce of a vector of ones — the paper's
    // "Vector Update Loop" in one call. The unit values are materialized
    // lazily per engine call; for the sizes involved this is dominated by
    // the reduce itself.
    let ones = vec![1u64; keys.len()];
    multireduce(&ones, keys, m, Plus, engine)
}

/// Weighted histogram: `out[k] = ⊕ of weights whose key is k`.
pub fn histogram_weighted<T: Element, O: CombineOp<T>>(
    keys: &[usize],
    weights: &[T],
    m: usize,
    op: O,
    engine: Engine,
) -> Result<Vec<T>, MpError> {
    multireduce(weights, keys, m, op, engine)
}

/// Serial reference histogram for tests.
pub fn histogram_serial(keys: &[usize], m: usize) -> Vec<u64> {
    let mut counts = vec![0u64; m];
    for &k in keys {
        counts[k] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Max;

    #[test]
    fn counts_match_reference() {
        let keys: Vec<usize> = (0..10_000).map(|i| (i * i) % 31).collect();
        let expect = histogram_serial(&keys, 31);
        for engine in [
            Engine::Serial,
            Engine::Spinetree,
            Engine::Chunked,
            Engine::Auto,
        ] {
            assert_eq!(histogram(&keys, 31, engine).unwrap(), expect, "{engine:?}");
        }
    }

    #[test]
    fn empty_keys() {
        assert_eq!(histogram(&[], 3, Engine::Serial).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn weighted_by_max() {
        let keys = [0usize, 1, 0, 1, 2];
        let weights = [3i64, 10, 7, 2, 5];
        let got = histogram_weighted(&keys, &weights, 3, Max, Engine::Serial).unwrap();
        assert_eq!(got, vec![7, 10, 5]);
    }

    #[test]
    fn out_of_range_key_errors() {
        let err = histogram(&[5], 3, Engine::Serial).unwrap_err();
        assert!(matches!(
            err,
            MpError::LabelOutOfRange { label: 5, m: 3, .. }
        ));
    }
}
