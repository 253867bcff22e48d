//! Cross-crate SpMV pipeline: every storage format against the dense
//! reference, on every workload family of the evaluation.

use multiprefix::Engine;
use proptest::prelude::*;
use spmv::gen::{circuit_matrix, uniform_random};
use spmv::mp_spmv::mp_spmv;
use spmv::{approx_eq, dense_reference, CooMatrix, CsrMatrix, JaggedDiagonal};

fn check_all_routes(coo: &CooMatrix, x: &[f64]) {
    let reference = dense_reference(coo, x);
    let csr = CsrMatrix::from_coo(coo);
    assert!(approx_eq(&csr.spmv(x), &reference, 1e-9), "CSR");
    assert!(
        approx_eq(&csr.spmv_parallel(x), &reference, 1e-9),
        "CSR par"
    );
    let jd = JaggedDiagonal::from_coo(coo);
    assert!(approx_eq(&jd.spmv(x), &reference, 1e-9), "JD");
    for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
        assert!(
            approx_eq(&mp_spmv(coo, x, engine), &reference, 1e-9),
            "MP {engine:?}"
        );
    }
}

#[test]
fn table2_style_matrices() {
    for (order, rho, seed) in [
        (1000usize, 0.01f64, 1u64),
        (2000, 0.005, 2),
        (500, 0.001, 3),
    ] {
        let coo = uniform_random(order, rho, seed);
        coo.validate().unwrap();
        let x: Vec<f64> = (0..order).map(|i| 0.5 + (i % 9) as f64 * 0.125).collect();
        check_all_routes(&coo, &x);
    }
}

#[test]
fn table5_style_circuit_matrices() {
    for (order, avg, seed) in [(800usize, 6.5f64, 1u64), (1200, 5.3, 2)] {
        let coo = circuit_matrix(order, avg, 2, seed);
        coo.validate().unwrap();
        // Structure: JD diagonal count explodes to ~order.
        let jd = JaggedDiagonal::from_coo(&coo);
        assert!(
            jd.n_diags() as f64 > order as f64 * 0.6,
            "rails must stretch JD"
        );
        let x: Vec<f64> = (0..order)
            .map(|i| ((i * 13) % 29) as f64 * 0.1 - 1.0)
            .collect();
        check_all_routes(&coo, &x);
    }
}

#[test]
fn fully_dense_small_matrix() {
    let coo = uniform_random(50, 1.0, 9);
    assert_eq!(coo.nnz(), 2500);
    let x = vec![1.0; 50];
    check_all_routes(&coo, &x);
    // Dense: exactly `order` jagged diagonals, all full length.
    let jd = JaggedDiagonal::from_coo(&coo);
    assert_eq!(jd.n_diags(), 50);
    assert!(jd.diag_lengths().iter().all(|&l| l == 50));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn random_structures_agree(
        order in 1usize..60,
        entries in proptest::collection::vec((0usize..60, 0usize..60, -4i32..4), 0..200),
    ) {
        // Dedup (row, col); clamp indices into the order.
        let mut seen = std::collections::HashSet::new();
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for (r, c, v) in entries {
            let (r, c) = (r % order, c % order);
            if v != 0 && seen.insert((r, c)) {
                rows.push(r);
                cols.push(c);
                vals.push(v as f64 * 0.5);
            }
        }
        let coo = CooMatrix::new(order, rows, cols, vals);
        let x: Vec<f64> = (0..order).map(|i| (i % 5) as f64 - 2.0).collect();
        let reference = dense_reference(&coo, &x);
        let csr = CsrMatrix::from_coo(&coo);
        prop_assert!(approx_eq(&csr.spmv(&x), &reference, 1e-9));
        let jd = JaggedDiagonal::from_coo(&coo);
        prop_assert!(approx_eq(&jd.spmv(&x), &reference, 1e-9));
        prop_assert!(approx_eq(&mp_spmv(&coo, &x, Engine::Spinetree), &reference, 1e-9));
    }
}
