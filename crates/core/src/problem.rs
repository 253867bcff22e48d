//! Problem statement types: inputs, validation and outputs.

use crate::error::MpError;

/// Marker trait for element types the engines can carry.
///
/// Everything is moved by value through tight loops, so elements must be
/// `Copy`; `Send + Sync` lets the parallel engines share slices across threads.
pub trait Element: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Element for T {}

/// The result of a multiprefix operation.
///
/// `sums[i]` is the ⊕-combination of all values `values[j]` with
/// `labels[j] == labels[i]` and `j < i` (the operator identity when no such
/// `j` exists). `reductions[k]` is the ⊕-combination of **all** values with
/// label `k` (the identity when label `k` never occurs); this is the
/// "bucket" vector `R` of the paper's Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiprefixOutput<T> {
    /// Per-element exclusive prefix, in vector-index order.
    pub sums: Vec<T>,
    /// Per-label reduction, length `m`.
    pub reductions: Vec<T>,
}

/// Validate a multiprefix problem instance.
///
/// Checks that `values` and `labels` have equal length and that every label
/// lies in `[0, m)`, reporting the first offending index. The public API
/// returns exactly this error for every engine: its plain entries run the
/// serial and spinetree engines after this scan, and every other engine
/// run checks each label in its own loop (the chunked engine is scanned
/// first only when `m == 1`, where its single-label loop never reads a
/// label).
///
/// ```
/// use multiprefix::problem::validate;
/// assert!(validate(&[1, 2][..].len(), &[0usize, 1], 2).is_ok());
/// assert!(validate(&2, &[0usize, 5], 2).is_err());
/// ```
pub fn validate(n_values: &usize, labels: &[usize], m: usize) -> Result<(), MpError> {
    validate_lengths(*n_values, labels.len())?;
    for (index, &label) in labels.iter().enumerate() {
        if label >= m {
            return Err(MpError::LabelOutOfRange { index, label, m });
        }
    }
    Ok(())
}

/// The length half of [`validate`]: one label per value.
pub(crate) fn validate_lengths(values: usize, labels: usize) -> Result<(), MpError> {
    if values != labels {
        return Err(MpError::LengthMismatch { values, labels });
    }
    Ok(())
}

/// [`validate`]'s error for an input an engine loop stopped on. The serial,
/// spinetree and atomic loops test each label where they first read it —
/// some with a flag, or out of vector order — and call this only once they
/// have seen a bad label or unequal lengths.
#[cold]
pub(crate) fn input_error(n_values: usize, labels: &[usize], m: usize) -> MpError {
    validate(&n_values, labels, m).expect_err("invariant: the loop stopped on an invalid input")
}

/// Convenience wrapper over [`validate`] taking the value slice directly.
pub fn validate_slices<T>(values: &[T], labels: &[usize], m: usize) -> Result<(), MpError> {
    validate(&values.len(), labels, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed() {
        assert_eq!(validate_slices(&[1, 2, 3], &[0, 1, 2], 3), Ok(()));
    }

    #[test]
    fn accepts_empty() {
        assert_eq!(validate_slices::<i64>(&[], &[], 0), Ok(()));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert_eq!(
            validate_slices(&[1, 2, 3], &[0, 1], 3),
            Err(MpError::LengthMismatch {
                values: 3,
                labels: 2
            })
        );
    }

    #[test]
    fn rejects_label_out_of_range() {
        assert_eq!(
            validate_slices(&[1, 2, 3], &[0, 3, 1], 3),
            Err(MpError::LabelOutOfRange {
                index: 1,
                label: 3,
                m: 3
            })
        );
    }

    #[test]
    fn rejects_any_label_when_m_is_zero() {
        assert_eq!(
            validate_slices(&[9], &[0], 0),
            Err(MpError::LabelOutOfRange {
                index: 0,
                label: 0,
                m: 0
            })
        );
    }

    #[test]
    fn reports_first_offending_index() {
        assert_eq!(
            validate_slices(&[0; 4], &[1, 7, 9, 7], 5),
            Err(MpError::LabelOutOfRange {
                index: 1,
                label: 7,
                m: 5
            })
        );
    }
}
