//! The multiprefix route (Figure 12).
//!
//! ```text
//! PARALLEL-MATVECT:
//!     pardo (i = 1 to n)
//!         product[i] = vals[i] × vector[cols[i]];
//!     MR(product, rows, +, vector);
//! ```
//!
//! "In the first step, all products are computed by multiplying each
//! matrix element by the vector element matching its column index. Then
//! … all products with the same row index (key) are added together with
//! the multireduce operator. (Because the partial sums are not needed, a
//! full multiprefix is not used.)"

use crate::coo::CooMatrix;
use multiprefix::api::{multireduce, Engine};
use multiprefix::op::Plus;
use rayon::prelude::*;

/// `y = A·x` via products + multireduce, with the chosen core engine.
pub fn mp_spmv(matrix: &CooMatrix, x: &[f64], engine: Engine) -> Vec<f64> {
    assert_eq!(x.len(), matrix.order);
    // pardo: all products, embarrassingly parallel.
    let products: Vec<f64> = matrix
        .vals
        .par_iter()
        .zip(matrix.cols.par_iter())
        .map(|(&v, &c)| v * x[c])
        .collect();
    // MR(product, rows, +, y): labels are row indices, buckets the output.
    multireduce(&products, &matrix.rows, matrix.order, Plus, engine)
        .expect("row indices validated by CooMatrix")
}

/// The products alone (exposed for the cray-sim harness, which charges the
/// product loop and the multireduce separately).
pub fn element_products(matrix: &CooMatrix, x: &[f64]) -> Vec<f64> {
    matrix
        .vals
        .iter()
        .zip(&matrix.cols)
        .map(|(&v, &c)| v * x[c])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, dense_reference};

    #[test]
    fn small_matrix_all_engines() {
        let coo = CooMatrix::new(
            3,
            vec![0, 0, 1, 2, 2],
            vec![0, 2, 0, 1, 2],
            vec![1.0, 3.0, 2.0, 4.0, 5.0],
        );
        let x = vec![1.0, 2.0, 3.0];
        let expect = dense_reference(&coo, &x);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let y = mp_spmv(&coo, &x, engine);
            assert!(approx_eq(&y, &expect, 1e-12), "{engine:?}: {y:?}");
        }
    }

    #[test]
    fn random_matrix_matches_csr_to_rounding() {
        let coo = crate::gen::uniform_random(400, 0.01, 11);
        let csr = crate::csr::CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..400).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let y_mp = mp_spmv(&coo, &x, Engine::Auto);
        assert!(approx_eq(&y_mp, &csr.spmv(&x), 1e-9));
    }

    #[test]
    fn circuit_matrix_row_pathology_is_harmless() {
        let coo = crate::gen::circuit_matrix(300, 7.5, 2, 5);
        let x: Vec<f64> = (0..300)
            .map(|i| ((i * 3) % 11) as f64 * 0.5 - 2.0)
            .collect();
        let expect = dense_reference(&coo, &x);
        assert!(approx_eq(
            &mp_spmv(&coo, &x, Engine::Spinetree),
            &expect,
            1e-9
        ));
    }

    #[test]
    fn empty_rows_get_zero() {
        let coo = CooMatrix::new(3, vec![1], vec![0], vec![2.0]);
        let y = mp_spmv(&coo, &[5.0, 0.0, 0.0], Engine::Serial);
        assert_eq!(y, vec![0.0, 10.0, 0.0]);
    }

    #[test]
    fn products_match_definition() {
        let coo = CooMatrix::new(2, vec![0, 1], vec![1, 0], vec![3.0, 4.0]);
        assert_eq!(element_products(&coo, &[10.0, 20.0]), vec![60.0, 40.0]);
    }
}

/// A matrix prepared for repeated multiplication via the multiprefix
/// route: the spinetree (the §5.2.1 "setup") is built once from the row
/// indices and replayed for every multiply — the same amortization the
/// jagged-diagonal format buys with its row sort, obtained here for the
/// cost of one SPINETREE phase.
#[derive(Debug, Clone)]
pub struct PreparedMpSpmv {
    prepared: multiprefix::spinetree::PreparedMultiprefix,
    cols: Vec<usize>,
    vals: Vec<f64>,
    order: usize,
}

impl PreparedMpSpmv {
    /// Build the reusable structure (the setup phase).
    pub fn new(matrix: &CooMatrix) -> Self {
        let prepared = multiprefix::spinetree::PreparedMultiprefix::new(&matrix.rows, matrix.order)
            .expect("CooMatrix row indices are within the order");
        PreparedMpSpmv {
            prepared,
            cols: matrix.cols.clone(),
            vals: matrix.vals.clone(),
            order: matrix.order,
        }
    }

    /// Matrix dimension.
    pub fn order(&self) -> usize {
        self.order
    }

    /// `y = A·x`, reusing the cached spinetree.
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.order);
        let products: Vec<f64> = self
            .vals
            .iter()
            .zip(&self.cols)
            .map(|(&v, &c)| v * x[c])
            .collect();
        self.prepared.run_reduce(&products, multiprefix::op::Plus)
    }
}

/// `y = Aᵀ·x` without building a transposed structure: with the
/// multiprefix route the transpose is just a label swap — products gather
/// through the **row** index and reduce by the **column** index. (CSR
/// would need a whole transposed matrix; JD a transposed sort.)
pub fn mp_spmv_transpose(matrix: &CooMatrix, x: &[f64], engine: Engine) -> Vec<f64> {
    assert_eq!(x.len(), matrix.order);
    let products: Vec<f64> = matrix
        .vals
        .par_iter()
        .zip(matrix.rows.par_iter())
        .map(|(&v, &r)| v * x[r])
        .collect();
    multireduce(&products, &matrix.cols, matrix.order, Plus, engine)
        .expect("column indices validated by CooMatrix")
}

#[cfg(test)]
mod prepared_tests {
    use super::*;
    use crate::{approx_eq, dense_reference};

    #[test]
    fn prepared_matches_one_shot() {
        let coo = crate::gen::uniform_random(300, 0.02, 5);
        let prepared = PreparedMpSpmv::new(&coo);
        for seed in 0..4 {
            let x: Vec<f64> = (0..300)
                .map(|i| ((i + seed) % 13) as f64 * 0.3 - 1.5)
                .collect();
            let expect = dense_reference(&coo, &x);
            assert!(
                approx_eq(&prepared.multiply(&x), &expect, 1e-9),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn transpose_multiply_correct() {
        let coo = crate::gen::uniform_random(150, 0.03, 9);
        let x: Vec<f64> = (0..150).map(|i| (i % 7) as f64 - 3.0).collect();
        // Oracle: dense transpose.
        let mut expect = vec![0.0f64; 150];
        for k in 0..coo.nnz() {
            expect[coo.cols[k]] += coo.vals[k] * x[coo.rows[k]];
        }
        let got = mp_spmv_transpose(&coo, &x, Engine::Serial);
        assert!(approx_eq(&got, &expect, 1e-9));
    }

    #[test]
    fn transpose_of_symmetric_pattern_roundtrip() {
        // (Aᵀ)ᵀ·x = A·x, checked through the two label orientations.
        let coo = crate::gen::uniform_random(80, 0.05, 2);
        let x: Vec<f64> = (0..80).map(|i| 1.0 + (i % 3) as f64).collect();
        let transposed = CooMatrix::new(
            coo.order,
            coo.cols.clone(),
            coo.rows.clone(),
            coo.vals.clone(),
        );
        let a = mp_spmv(&coo, &x, Engine::Serial);
        let b = mp_spmv_transpose(&transposed, &x, Engine::Serial);
        assert!(approx_eq(&a, &b, 1e-9));
    }
}
