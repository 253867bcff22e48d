#![warn(missing_docs)]

//! # spmv — sparse-matrix × dense-vector multiplication (§5.2)
//!
//! "Multiplication of a dense vector by a sparse matrix is at the core of
//! many numerical algorithms." The paper compares three routes on the
//! CRAY Y-MP; this crate implements all of them on the host:
//!
//! * [`csr`] — **Compressed Sparse Row**: "very simple and allows the
//!   matrix-vector multiply operation to vectorize completely over each
//!   row. However, for very sparse matrices, the row lengths can become
//!   quite short";
//! * [`jagged`] — the **Jagged Diagonal** format \[Saa89\]: rows reordered
//!   by decreasing population, elements regrouped into jagged diagonals;
//!   "trades off a large preprocessing time for enhanced vectorization";
//! * [`mp_spmv`] — **multiprefix** (Figure 12): elementwise products, then
//!   one **multireduce** keyed by row index. Its setup is the spinetree
//!   build; it is insensitive to row-length pathology (Table 5).
//!
//! [`gen`] provides the evaluation workloads: uniform random matrices of
//! given order and density ρ (Tables 2/4) and circuit-simulation-shaped
//! matrices with a few almost-full power/ground rows (Table 5).
//!
//! Floating-point note: the three routes sum each row's products in
//! different association orders, so results agree to rounding (the tests
//! use a relative tolerance), exactly as the FORTRAN originals would.

//! ## Example
//!
//! ```
//! use spmv::{CooMatrix, CsrMatrix};
//! use spmv::mp_spmv::mp_spmv;
//! use multiprefix::Engine;
//!
//! // [1 0 3]      [1]   [10]
//! // [2 0 0]  x   [2] = [ 2]
//! // [0 4 5]      [3]   [23]
//! let coo = CooMatrix::new(
//!     3,
//!     vec![0, 0, 1, 2, 2],
//!     vec![0, 2, 0, 1, 2],
//!     vec![1.0, 3.0, 2.0, 4.0, 5.0],
//! );
//! let x = vec![1.0, 2.0, 3.0];
//! assert_eq!(mp_spmv(&coo, &x, Engine::Auto), vec![10.0, 2.0, 23.0]);
//! assert_eq!(CsrMatrix::from_coo(&coo).spmv(&x), vec![10.0, 2.0, 23.0]);
//! ```

pub mod coo;
pub mod csr;
pub mod gen;
pub mod jagged;
pub mod mp_spmv;
pub mod solver;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use jagged::JaggedDiagonal;

/// Dense reference multiply — the correctness oracle for every route.
pub fn dense_reference(matrix: &CooMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), matrix.order);
    let mut y = vec![0.0; matrix.order];
    for k in 0..matrix.nnz() {
        y[matrix.rows[k]] += matrix.vals[k] * x[matrix.cols[k]];
    }
    y
}

/// Relative-tolerance comparison used across the suite's float tests.
pub fn approx_eq(a: &[f64], b: &[f64], rel: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= rel * x.abs().max(y.abs()).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basics() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1e-9));
    }
}
