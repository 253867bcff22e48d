//! Sparse-matrix × dense-vector via the three routes of §5.2, including
//! the Table 5 circuit-matrix pathology.
//!
//! ```sh
//! cargo run --release --example sparse_matvec
//! ```

use multiprefix::Engine;
use spmv::gen::{circuit_matrix, uniform_random};
use spmv::mp_spmv::mp_spmv;
use spmv::{approx_eq, dense_reference, CsrMatrix, JaggedDiagonal};
use std::time::Instant;

fn main() {
    // A Table 2-style matrix: order 5000, density 0.001 (≈ 5 nnz/row).
    let coo = uniform_random(5000, 0.001, 42);
    println!(
        "uniform matrix: order {}, nnz {}, density {:.4}",
        coo.order,
        coo.nnz(),
        coo.density()
    );
    let x: Vec<f64> = (0..coo.order).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();

    let t = Instant::now();
    let csr = CsrMatrix::from_coo(&coo);
    let y_csr = csr.spmv(&x);
    println!("CSR   (setup+eval): {:?}", t.elapsed());

    let t = Instant::now();
    let jd = JaggedDiagonal::from_coo(&coo);
    let setup = t.elapsed();
    let t = Instant::now();
    let y_jd = jd.spmv(&x);
    println!(
        "JD    setup {setup:?}, eval {:?}, {} jagged diagonals",
        t.elapsed(),
        jd.n_diags()
    );

    let t = Instant::now();
    let y_mp = mp_spmv(&coo, &x, Engine::Chunked);
    println!("MP    (products + multireduce): {:?}", t.elapsed());

    let reference = dense_reference(&coo, &x);
    assert!(approx_eq(&y_csr, &reference, 1e-9));
    assert!(approx_eq(&y_jd, &reference, 1e-9));
    assert!(approx_eq(&y_mp, &reference, 1e-9));
    println!("all three routes agree with the dense reference (to rounding)\n");

    // The Table 5 pathology: a circuit matrix with two ~full rails.
    let circuit = circuit_matrix(2806, 6.5, 2, 7);
    let jd = JaggedDiagonal::from_coo(&circuit);
    let counts = circuit.row_counts();
    let longest = counts.iter().max().unwrap();
    println!(
        "circuit matrix (ADVICE2806-shaped): order {}, nnz {}, longest row {}",
        circuit.order,
        circuit.nnz(),
        longest
    );
    println!(
        "JD needs {} jagged diagonals for {} rows — \"for matrices with just a few long rows, \
         many of the groups are very short and operations over them vectorize poorly\"",
        jd.n_diags(),
        circuit.order
    );
    let x: Vec<f64> = (0..circuit.order)
        .map(|i| (i as f64 * 0.001).cos())
        .collect();
    let y = mp_spmv(&circuit, &x, Engine::Chunked);
    assert!(approx_eq(&y, &dense_reference(&circuit, &x), 1e-9));
    println!("multiprefix route is indifferent to the row-length pathology — results verified");
}
