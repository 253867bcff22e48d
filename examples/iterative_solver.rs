//! Iterative solvers over the SpMV routes — the §5.2.1 repeated-multiply
//! scenario, end to end: Jacobi solves and power iteration, with the
//! cached-spinetree multiprefix route amortizing its setup.
//!
//! ```sh
//! cargo run --release --example iterative_solver [order]
//! ```

use multiprefix::Engine;
use spmv::gen::uniform_random;
use spmv::mp_spmv::PreparedMpSpmv;
use spmv::solver::{
    jacobi, make_diagonally_dominant, power_iteration, CsrRoute, JdRoute, MpRoute, PreparedMpRoute,
    SpmvRoute,
};
use spmv::{dense_reference, CsrMatrix, JaggedDiagonal};
use std::time::Instant;

fn main() {
    let order: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let pattern = uniform_random(order, 0.005, 11);
    let (a, diag) = make_diagonally_dominant(&pattern);
    let x_true: Vec<f64> = (0..order).map(|i| ((i % 13) as f64 - 6.0) * 0.25).collect();
    let b = dense_reference(&a, &x_true);
    println!(
        "Jacobi solve of A·x = b, order {order}, nnz {} (diagonally dominant)\n",
        a.nnz()
    );

    let routes: Vec<Box<dyn SpmvRoute>> = vec![
        Box::new(CsrRoute(CsrMatrix::from_coo(&a))),
        Box::new(JdRoute(JaggedDiagonal::from_coo(&a))),
        Box::new(MpRoute {
            coo: a.clone(),
            engine: Engine::Chunked,
        }),
        Box::new(PreparedMpRoute(PreparedMpSpmv::new(&a))),
    ];
    for route in &routes {
        let t = Instant::now();
        let r = jacobi(route.as_ref(), &diag, &b, 1e-12, 300);
        let err =
            r.x.iter()
                .zip(&x_true)
                .map(|(&got, &want)| (got - want).abs())
                .fold(0.0f64, f64::max);
        println!(
            "{:<24} {:>3} iterations, residual {:.2e}, max error {:.2e}, {:?}",
            route.name(),
            r.iterations,
            r.residual,
            err,
            t.elapsed()
        );
        assert!(err < 1e-8, "{} diverged", route.name());
    }

    println!("\nPower iteration (dominant eigenpair):");
    let route = PreparedMpRoute(PreparedMpSpmv::new(&a));
    let t = Instant::now();
    let (r, lambda) = power_iteration(&route, 1e-10, 2000);
    println!(
        "lambda ≈ {lambda:.6} after {} iterations ({:?}); eigenvector residual {:.2e}",
        r.iterations,
        t.elapsed(),
        r.residual
    );
    // ‖A·v − λ·v‖∞ as the final check.
    let av = route.multiply(&r.x);
    let eig_err = av
        .iter()
        .zip(&r.x)
        .map(|(&y, &v)| (y - lambda * v).abs())
        .fold(0.0f64, f64::max);
    println!("‖A·v − λ·v‖∞ = {eig_err:.2e}");
    assert!(eig_err < 1e-6 * lambda.abs().max(1.0));
}
