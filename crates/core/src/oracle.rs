//! The definitional (quadratic) oracle and result checkers — public so
//! downstream code can verify any multiprefix implementation against the
//! paper's definition, not just against this crate's engines.

use crate::op::CombineOp;
use crate::problem::{Element, MultiprefixOutput};

/// The multiprefix computed *directly from the definition* (§1):
/// `s_i = ⊕ { a_j | l_j = l_i and j < i }`, `r_k = ⊕ { a_j | l_j = k }`.
/// `O(n²)` time — for testing only.
pub fn multiprefix_definitional<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> MultiprefixOutput<T> {
    let sums = (0..values.len())
        .map(|i| {
            (0..i)
                .filter(|&j| labels[j] == labels[i])
                .map(|j| values[j])
                .fold(op.identity(), |acc, v| op.combine(acc, v))
        })
        .collect();
    let reductions = (0..m)
        .map(|k| {
            values
                .iter()
                .zip(labels)
                .filter(|&(_, &l)| l == k)
                .map(|(&v, _)| v)
                .fold(op.identity(), |acc, v| op.combine(acc, v))
        })
        .collect();
    MultiprefixOutput { sums, reductions }
}

/// Check a claimed output against the definition. Returns the first
/// discrepancy as `(what, index)` — `what` is `"sum"` or `"reduction"`.
pub fn check_output<T: Element + PartialEq, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    claimed: &MultiprefixOutput<T>,
) -> Result<(), (&'static str, usize)> {
    let expect = multiprefix_definitional(values, labels, m, op);
    if claimed.sums.len() != expect.sums.len() {
        return Err(("sum", usize::MAX));
    }
    for (i, (a, b)) in claimed.sums.iter().zip(&expect.sums).enumerate() {
        if a != b {
            return Err(("sum", i));
        }
    }
    if claimed.reductions.len() != expect.reductions.len() {
        return Err(("reduction", usize::MAX));
    }
    for (k, (a, b)) in claimed
        .reductions
        .iter()
        .zip(&expect.reductions)
        .enumerate()
    {
        if a != b {
            return Err(("reduction", k));
        }
    }
    Ok(())
}

/// Check a claimed output against the **serial** engine — `O(n + m)` where
/// [`check_output`] is `O(n²)`, cheap enough for production self-checking.
/// This is the comparator behind [`crate::multiprefix_verified`] and the
/// PRAM fault-injection harness; the first discrepancy is reported as
/// [`crate::MpError::VerificationFailed`].
pub fn verify_output<T: Element + PartialEq, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    claimed: &MultiprefixOutput<T>,
) -> Result<(), crate::MpError> {
    use crate::MpError::VerificationFailed;
    let expect = crate::serial::multiprefix_serial(values, labels, m, op);
    if claimed.sums.len() != expect.sums.len() {
        return Err(VerificationFailed {
            what: "sum",
            index: usize::MAX,
        });
    }
    for (i, (a, b)) in claimed.sums.iter().zip(&expect.sums).enumerate() {
        if a != b {
            return Err(VerificationFailed {
                what: "sum",
                index: i,
            });
        }
    }
    if claimed.reductions.len() != expect.reductions.len() {
        return Err(VerificationFailed {
            what: "reduction",
            index: usize::MAX,
        });
    }
    for (k, (a, b)) in claimed
        .reductions
        .iter()
        .zip(&expect.reductions)
        .enumerate()
    {
        if a != b {
            return Err(VerificationFailed {
                what: "reduction",
                index: k,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{multiprefix, Engine};
    use crate::op::Plus;

    #[test]
    fn oracle_matches_figure_1() {
        let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
        let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
        let out = multiprefix_definitional(&values, &labels, 4, Plus);
        assert_eq!(out.sums, vec![0, 0, 1, 3, 3, 4, 4, 7]);
        assert_eq!(out.reductions, vec![0, 8, 6, 0]);
    }

    #[test]
    fn engines_pass_the_checker() {
        let values: Vec<i64> = (0..300).map(|i| i % 23 - 11).collect();
        let labels: Vec<usize> = (0..300).map(|i| (i * 7) % 9).collect();
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let out = multiprefix(&values, &labels, 9, Plus, engine).unwrap();
            assert_eq!(check_output(&values, &labels, 9, Plus, &out), Ok(()));
        }
    }

    #[test]
    fn verify_output_agrees_with_quadratic_checker() {
        let values: Vec<i64> = (0..120).map(|i| i % 19 - 9).collect();
        let labels: Vec<usize> = (0..120).map(|i| (i * 5) % 7).collect();
        let good = multiprefix_definitional(&values, &labels, 7, Plus);
        assert_eq!(verify_output(&values, &labels, 7, Plus, &good), Ok(()));
        let mut bad = good.clone();
        bad.sums[17] += 1;
        assert_eq!(
            verify_output(&values, &labels, 7, Plus, &bad),
            Err(crate::MpError::VerificationFailed {
                what: "sum",
                index: 17
            })
        );
        let mut bad = good;
        bad.reductions[3] -= 1;
        assert_eq!(
            verify_output(&values, &labels, 7, Plus, &bad),
            Err(crate::MpError::VerificationFailed {
                what: "reduction",
                index: 3
            })
        );
    }

    #[test]
    fn checker_localizes_corruption() {
        let values = [1i64, 2, 3];
        let labels = [0usize, 0, 0];
        let mut out = multiprefix_definitional(&values, &labels, 1, Plus);
        out.sums[2] += 1;
        assert_eq!(
            check_output(&values, &labels, 1, Plus, &out),
            Err(("sum", 2))
        );
        let mut out = multiprefix_definitional(&values, &labels, 1, Plus);
        out.reductions[0] = 0;
        assert_eq!(
            check_output(&values, &labels, 1, Plus, &out),
            Err(("reduction", 0))
        );
    }
}
