//! Jagged Diagonal storage (Saad \[Saa89\]) and multiply.
//!
//! "The Jagged Diagonal (JD) format requires that the matrix is reordered
//! so that the rows appear in decreasing order of population count. …
//! The first jagged-diagonal consists of the first elements of each row;
//! the second, of the second elements, etc. … The elements of the
//! diagonals are stored in an array called JDA with their column positions
//! in JDJ. The starting position of each jagged diagonal is given in an
//! array … called JDSTART, while the row index of each element is implicit
//! in its position within each jagged-diagonal."
//!
//! "The disadvantage of the JD method is its large pre-processing time and
//! the potential problems it has with non-uniform sparse matrices. For
//! matrices with just a few long rows, many of the groups are very short
//! and operations over them vectorize poorly" — the Table 5 pathology.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// A square sparse matrix in jagged-diagonal form.
#[derive(Debug, Clone, PartialEq)]
pub struct JaggedDiagonal {
    /// Dimension.
    pub order: usize,
    /// `perm[j]` = original row stored at permuted position `j`
    /// (rows sorted by decreasing population).
    pub perm: Vec<usize>,
    /// `start[d]..start[d+1]` indexes diagonal `d` in `vals`/`col_idx`
    /// (JDSTART).
    pub start: Vec<usize>,
    /// Column indices (JDJ).
    pub col_idx: Vec<usize>,
    /// Values (JDA).
    pub vals: Vec<f64>,
}

impl JaggedDiagonal {
    /// Build from COO — the expensive "setup" of §5.2.1: sort the rows by
    /// population, then regroup elements into diagonals.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let csr = CsrMatrix::from_coo(coo);
        Self::from_csr(&csr)
    }

    /// Build from CSR.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        let order = csr.order;
        let lengths = csr.row_lengths();
        let mut perm: Vec<usize> = (0..order).collect();
        // Decreasing population; stable so equal-length rows keep order.
        perm.sort_by_key(|&r| std::cmp::Reverse(lengths[r]));

        let n_diags = perm.first().map_or(0, |&r| lengths[r]);
        let mut start = Vec::with_capacity(n_diags + 1);
        let mut col_idx = Vec::with_capacity(csr.nnz());
        let mut vals = Vec::with_capacity(csr.nnz());
        start.push(0);
        for d in 0..n_diags {
            for &r in &perm {
                if lengths[r] > d {
                    let k = csr.row_ptr[r] + d;
                    col_idx.push(csr.col_idx[k]);
                    vals.push(csr.vals[k]);
                } else {
                    // Rows are sorted by decreasing length: once one is too
                    // short, all following are too.
                    break;
                }
            }
            start.push(vals.len());
        }
        JaggedDiagonal {
            order,
            perm,
            start,
            col_idx,
            vals,
        }
    }

    /// Number of jagged diagonals (the length of the longest row).
    pub fn n_diags(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Per-diagonal lengths (for the cost model): strictly non-increasing.
    pub fn diag_lengths(&self) -> Vec<usize> {
        self.start.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// `y = A·x`. Each diagonal is one long vectorizable update: "each of
    /// the elements of a group are in different rows, each group may
    /// perform a vector update in parallel without the possibility of
    /// simultaneous access to the same vector element."
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.order);
        let mut y_perm = vec![0.0f64; self.order];
        for d in 0..self.n_diags() {
            let lo = self.start[d];
            let hi = self.start[d + 1];
            for (pos, k) in (lo..hi).enumerate() {
                // Row index is implicit: position within the diagonal.
                y_perm[pos] += self.vals[k] * x[self.col_idx[k]];
            }
        }
        // Undo the row permutation.
        let mut y = vec![0.0f64; self.order];
        for (pos, &r) in self.perm.iter().enumerate() {
            y[r] = y_perm[pos];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, dense_reference};

    fn sample() -> CooMatrix {
        // [1 0 3]
        // [2 0 0]
        // [0 4 5]
        CooMatrix::new(
            3,
            vec![0, 0, 1, 2, 2],
            vec![0, 2, 0, 1, 2],
            vec![1.0, 3.0, 2.0, 4.0, 5.0],
        )
    }

    #[test]
    fn diagonal_structure() {
        let jd = JaggedDiagonal::from_coo(&sample());
        assert_eq!(jd.n_diags(), 2);
        // Rows sorted by length: rows 0 and 2 (len 2), then row 1 (len 1).
        assert_eq!(jd.diag_lengths(), vec![3, 2]);
        assert_eq!(jd.perm.len(), 3);
        assert_eq!(jd.vals.len(), 5);
    }

    #[test]
    fn multiply_matches_dense_reference() {
        let coo = sample();
        let jd = JaggedDiagonal::from_coo(&coo);
        let x = vec![1.0, 2.0, 3.0];
        let y = jd.spmv(&x);
        assert!(approx_eq(&y, &dense_reference(&coo, &x), 1e-12), "{y:?}");
    }

    #[test]
    fn random_matrix_agrees_with_csr() {
        let coo = crate::gen::uniform_random(300, 0.02, 7);
        let jd = JaggedDiagonal::from_coo(&coo);
        let csr = crate::csr::CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..300).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        assert!(approx_eq(&jd.spmv(&x), &csr.spmv(&x), 1e-10));
    }

    #[test]
    fn circuit_matrix_has_degenerate_diagonals() {
        // Table 5's structure: a couple of almost-full rows force as many
        // diagonals as the matrix order, most holding ≤ 2 elements.
        let coo = crate::gen::circuit_matrix(500, 7.0, 2, 3);
        let jd = JaggedDiagonal::from_coo(&coo);
        assert!(
            jd.n_diags() > 300,
            "full rows should force ~order diagonals, got {}",
            jd.n_diags()
        );
        let lens = jd.diag_lengths();
        let tiny = lens.iter().filter(|&&l| l <= 2).count();
        assert!(tiny * 2 > lens.len(), "most diagonals should be tiny");
        // And the multiply still has to be correct.
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.01).cos()).collect();
        assert!(approx_eq(&jd.spmv(&x), &dense_reference(&coo, &x), 1e-10));
    }

    #[test]
    fn empty_and_diagonal_only() {
        let coo = CooMatrix::new(4, vec![0, 1, 2, 3], vec![0, 1, 2, 3], vec![1.0; 4]);
        let jd = JaggedDiagonal::from_coo(&coo);
        assert_eq!(jd.n_diags(), 1);
        assert_eq!(jd.spmv(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);

        let empty = CooMatrix::new(2, vec![], vec![], vec![]);
        let jd = JaggedDiagonal::from_coo(&empty);
        assert_eq!(jd.n_diags(), 0);
        assert_eq!(jd.spmv(&[1.0, 1.0]), vec![0.0, 0.0]);
    }
}
