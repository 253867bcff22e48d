//! Iterative solvers on top of the three SpMV routes — the §5.2.1
//! motivation made concrete.
//!
//! "Often, when solving systems of linear equations, the same matrix
//! multiplies a vector repeatedly. In this case, a high setup time can be
//! amortized over many evaluations. It is precisely for this reason that
//! the large setup time associated with the jagged-diagonal format is
//! acceptable for some applications."
//!
//! [`SpmvRoute`] abstracts "set up once, multiply many times" over the
//! three formats; [`jacobi`] and [`power_iteration`] are the classic
//! repeated-multiply consumers (iterative linear solves and dominant
//! eigenvector estimation).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::jagged::JaggedDiagonal;
use crate::mp_spmv::mp_spmv;
use multiprefix::Engine;

/// A prepared (setup-paid) sparse multiply.
pub trait SpmvRoute {
    /// Name for reporting.
    fn name(&self) -> &'static str;
    /// `y = A·x`.
    fn multiply(&self, x: &[f64]) -> Vec<f64>;
    /// Matrix dimension.
    fn order(&self) -> usize;
}

/// CSR route (no setup beyond format conversion).
pub struct CsrRoute(pub CsrMatrix);

impl SpmvRoute for CsrRoute {
    fn name(&self) -> &'static str {
        "csr"
    }
    fn multiply(&self, x: &[f64]) -> Vec<f64> {
        self.0.spmv(x)
    }
    fn order(&self) -> usize {
        self.0.order
    }
}

/// Jagged-diagonal route (expensive setup, fast multiply).
pub struct JdRoute(pub JaggedDiagonal);

impl SpmvRoute for JdRoute {
    fn name(&self) -> &'static str {
        "jagged-diagonal"
    }
    fn multiply(&self, x: &[f64]) -> Vec<f64> {
        self.0.spmv(x)
    }
    fn order(&self) -> usize {
        self.0.order
    }
}

/// Multiprefix route over COO (setup = the spinetree build, re-done per
/// multiply).
pub struct MpRoute {
    /// The matrix in coordinate form.
    pub coo: CooMatrix,
    /// Core engine used by the multireduce.
    pub engine: Engine,
}

impl SpmvRoute for MpRoute {
    fn name(&self) -> &'static str {
        "multiprefix"
    }
    fn multiply(&self, x: &[f64]) -> Vec<f64> {
        mp_spmv(&self.coo, x, self.engine)
    }
    fn order(&self) -> usize {
        self.coo.order
    }
}

/// Amortized multiprefix route: the spinetree is built once at
/// construction ([`crate::mp_spmv::PreparedMpSpmv`]) and replayed every
/// multiply — §5.2.1's setup amortization realized for the MP format too.
pub struct PreparedMpRoute(pub crate::mp_spmv::PreparedMpSpmv);

impl SpmvRoute for PreparedMpRoute {
    fn name(&self) -> &'static str {
        "multiprefix (prepared)"
    }
    fn multiply(&self, x: &[f64]) -> Vec<f64> {
        self.0.multiply(x)
    }
    fn order(&self) -> usize {
        self.0.order()
    }
}

/// Result of an iterative run.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// Final vector (solution estimate / eigenvector estimate).
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual / convergence measure.
    pub residual: f64,
}

/// Jacobi iteration for `A·x = b` with `A` given as (strictly diagonally
/// dominant) COO: `x' = D⁻¹ (b − R·x)`, where `R = A − D`. The off-diagonal
/// multiply goes through the chosen route each sweep — the repeated-
/// evaluation pattern of §5.2.1.
pub fn jacobi(
    route: &dyn SpmvRoute,
    diag: &[f64],
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> IterationResult {
    let n = route.order();
    assert_eq!(diag.len(), n);
    assert_eq!(b.len(), n);
    assert!(
        diag.iter().all(|&d| d != 0.0),
        "Jacobi needs a nonzero diagonal"
    );
    let mut x = vec![0.0f64; n];
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    while iterations < max_iter && residual > tol {
        // route.multiply computes A·x including the diagonal; subtract it
        // to get R·x.
        let ax = route.multiply(&x);
        let mut next = vec![0.0f64; n];
        for i in 0..n {
            let rx = ax[i] - diag[i] * x[i];
            next[i] = (b[i] - rx) / diag[i];
        }
        residual = next
            .iter()
            .zip(&x)
            .map(|(&a, &c)| (a - c).abs())
            .fold(0.0f64, f64::max);
        x = next;
        iterations += 1;
    }
    IterationResult {
        x,
        iterations,
        residual,
    }
}

/// Power iteration: estimate the dominant eigenpair by repeated
/// multiplication. Returns the iteration state (whose `residual` is the
/// last normalized change of the eigenvector estimate) together with the
/// Rayleigh-quotient eigenvalue estimate.
pub fn power_iteration(route: &dyn SpmvRoute, tol: f64, max_iter: usize) -> (IterationResult, f64) {
    let n = route.order();
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.1).collect();
    normalize(&mut x);
    let mut lambda = 0.0f64;
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    while iterations < max_iter && residual > tol {
        let mut y = route.multiply(&x);
        // Rayleigh quotient with the (already unit) x.
        lambda = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
        let norm = normalize(&mut y);
        if norm == 0.0 {
            residual = 0.0;
            x = y;
            break;
        }
        residual = y
            .iter()
            .zip(&x)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f64, f64::max)
            .min(
                // Sign-flipped convergence (eigenvalue < 0) counts too.
                y.iter()
                    .zip(&x)
                    .map(|(&a, &b)| (a + b).abs())
                    .fold(0.0f64, f64::max),
            );
        x = y;
        iterations += 1;
    }
    (
        IterationResult {
            x,
            iterations,
            residual,
        },
        lambda,
    )
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|&a| a * a).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|a| *a /= norm);
    }
    norm
}

/// Build a strictly diagonally dominant test system from any sparse
/// pattern: keeps the given off-diagonals, then sets each diagonal to
/// `1 + Σ|row off-diagonals|`. Returns `(matrix including diagonal, diag)`.
pub fn make_diagonally_dominant(pattern: &CooMatrix) -> (CooMatrix, Vec<f64>) {
    let n = pattern.order;
    let mut row_abs = vec![0.0f64; n];
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for k in 0..pattern.nnz() {
        let (r, c, v) = (pattern.rows[k], pattern.cols[k], pattern.vals[k]);
        if r != c {
            rows.push(r);
            cols.push(c);
            vals.push(v);
            row_abs[r] += v.abs();
        }
    }
    let diag: Vec<f64> = row_abs.iter().map(|&s| 1.0 + s).collect();
    for (r, &d) in diag.iter().enumerate() {
        rows.push(r);
        cols.push(r);
        vals.push(d);
    }
    let mut m = CooMatrix::new(n, rows, cols, vals);
    m.sort_row_major();
    (m, diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform_random;
    use crate::{approx_eq, dense_reference};

    fn test_system(order: usize, seed: u64) -> (CooMatrix, Vec<f64>, Vec<f64>) {
        let pattern = uniform_random(order, 0.02, seed);
        let (a, diag) = make_diagonally_dominant(&pattern);
        let x_true: Vec<f64> = (0..order).map(|i| ((i % 7) as f64 - 3.0) * 0.5).collect();
        let b = dense_reference(&a, &x_true);
        (a, diag, b)
    }

    #[test]
    fn jacobi_converges_on_all_routes() {
        let (a, diag, b) = test_system(200, 1);
        let x_expected = {
            let r = jacobi(&CsrRoute(CsrMatrix::from_coo(&a)), &diag, &b, 1e-12, 500);
            assert!(
                r.residual < 1e-10,
                "CSR Jacobi did not converge: {}",
                r.residual
            );
            r.x
        };
        let routes: Vec<Box<dyn SpmvRoute>> = vec![
            Box::new(JdRoute(JaggedDiagonal::from_coo(&a))),
            Box::new(MpRoute {
                coo: a.clone(),
                engine: Engine::Chunked,
            }),
        ];
        for route in routes {
            let r = jacobi(route.as_ref(), &diag, &b, 1e-12, 500);
            assert!(r.residual < 1e-10, "{} did not converge", route.name());
            assert!(
                approx_eq(&r.x, &x_expected, 1e-6),
                "{} found a different solution",
                route.name()
            );
        }
    }

    #[test]
    fn jacobi_solution_actually_solves() {
        let (a, diag, b) = test_system(150, 3);
        let r = jacobi(&CsrRoute(CsrMatrix::from_coo(&a)), &diag, &b, 1e-13, 1000);
        let ax = dense_reference(&a, &r.x);
        assert!(approx_eq(&ax, &b, 1e-6), "A·x ≠ b");
    }

    #[test]
    fn power_iteration_finds_dominant_eigenpair() {
        // A diagonal-dominant symmetric-ish case with a known dominant
        // direction: A = I + e·eᵀ-ish via a dense rank check is overkill;
        // instead verify the eigen-residual ‖A·v − λ·v‖ is small.
        let (a, _diag, _b) = test_system(120, 5);
        let route = CsrRoute(CsrMatrix::from_coo(&a));
        let (r, lambda) = power_iteration(&route, 1e-10, 2000);
        assert!(r.residual < 1e-8, "no convergence: {}", r.residual);
        let av = route.multiply(&r.x);
        let err = av
            .iter()
            .zip(&r.x)
            .map(|(&y, &v)| (y - lambda * v).abs())
            .fold(0.0f64, f64::max);
        assert!(
            err < 1e-6 * lambda.abs().max(1.0),
            "eigen-residual {err}, λ = {lambda}"
        );
    }

    #[test]
    fn routes_give_same_eigenvalue() {
        let (a, _d, _b) = test_system(100, 9);
        let (_, l_csr) = power_iteration(&CsrRoute(CsrMatrix::from_coo(&a)), 1e-10, 2000);
        let (_, l_jd) = power_iteration(&JdRoute(JaggedDiagonal::from_coo(&a)), 1e-10, 2000);
        let (_, l_mp) = power_iteration(
            &MpRoute {
                coo: a.clone(),
                engine: Engine::Serial,
            },
            1e-10,
            2000,
        );
        assert!((l_csr - l_jd).abs() < 1e-6);
        assert!((l_csr - l_mp).abs() < 1e-6);
    }

    #[test]
    fn diagonally_dominant_construction() {
        let pattern = uniform_random(50, 0.1, 2);
        let (a, diag) = make_diagonally_dominant(&pattern);
        a.validate().unwrap();
        // Each diagonal strictly exceeds the row's off-diagonal mass.
        let mut off = vec![0.0f64; 50];
        for k in 0..a.nnz() {
            if a.rows[k] != a.cols[k] {
                off[a.rows[k]] += a.vals[k].abs();
            }
        }
        for (d, o) in diag.iter().zip(&off) {
            assert!(d > o, "not dominant: {d} vs {o}");
        }
    }
}

#[cfg(test)]
mod prepared_route_tests {
    use super::*;
    use crate::gen::uniform_random;
    use crate::mp_spmv::PreparedMpSpmv;
    use crate::{approx_eq, dense_reference};

    #[test]
    fn prepared_route_converges_like_the_rest() {
        let pattern = uniform_random(180, 0.02, 4);
        let (a, diag) = make_diagonally_dominant(&pattern);
        let x_true: Vec<f64> = (0..180).map(|i| (i % 5) as f64 - 2.0).collect();
        let b = dense_reference(&a, &x_true);
        let csr = jacobi(&CsrRoute(CsrMatrix::from_coo(&a)), &diag, &b, 1e-12, 500);
        let prepared = jacobi(
            &PreparedMpRoute(PreparedMpSpmv::new(&a)),
            &diag,
            &b,
            1e-12,
            500,
        );
        assert!(prepared.residual < 1e-10);
        assert!(approx_eq(&prepared.x, &csr.x, 1e-6));
        assert_eq!(
            prepared.iterations, csr.iterations,
            "same trajectory, same count"
        );
    }

    #[test]
    fn prepared_amortization_saves_wall_clock() {
        // The §5.2.1 claim on the host: with setup hoisted out, many
        // multiplies are faster than rebuilding the structure each time.
        // (Not a micro-benchmark — a coarse 2x-margin sanity check.)
        let a = uniform_random(800, 0.01, 6);
        let x: Vec<f64> = (0..800).map(|i| (i % 11) as f64 * 0.2).collect();
        let iters = 30;

        let t = std::time::Instant::now();
        let prepared = PreparedMpSpmv::new(&a);
        let mut acc = 0.0f64;
        for _ in 0..iters {
            acc += prepared.multiply(&x)[0];
        }
        let amortized = t.elapsed();

        let t = std::time::Instant::now();
        for _ in 0..iters {
            // Rebuild the structure every time (setup not amortized).
            acc += PreparedMpSpmv::new(&a).multiply(&x)[0];
        }
        let rebuilt = t.elapsed();
        assert!(acc.is_finite());
        assert!(
            rebuilt > amortized,
            "rebuilding per multiply ({rebuilt:?}) should cost more than amortizing ({amortized:?})"
        );
    }
}

/// Conjugate gradient for symmetric positive-definite `A·x = b`, over any
/// [`SpmvRoute`] — the heaviest repeated-multiply consumer of §5.2.1's
/// amortization argument (one multiply per iteration, often thousands).
pub fn conjugate_gradient(
    route: &dyn SpmvRoute,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> IterationResult {
    let n = route.order();
    assert_eq!(b.len(), n);
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec(); // r = b - A·0
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|&v| v * v).sum();
    let mut iterations = 0;
    while iterations < max_iter && rs_old.sqrt() > tol {
        let ap = route.multiply(&p);
        let p_ap: f64 = p.iter().zip(&ap).map(|(&a, &c)| a * c).sum();
        if p_ap <= 0.0 {
            break; // not SPD (or numerically exhausted); stop cleanly
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|&v| v * v).sum();
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
        iterations += 1;
    }
    IterationResult {
        x,
        iterations,
        residual: rs_old.sqrt(),
    }
}

/// Build a random symmetric positive-definite matrix from a sparse
/// pattern: `A = (B + Bᵀ)/2` off-diagonal with diagonal dominance forced
/// (dominant symmetric ⇒ SPD). Returns the COO matrix.
pub fn make_spd(pattern: &CooMatrix) -> CooMatrix {
    use std::collections::HashMap;
    let n = pattern.order;
    let mut off: HashMap<(usize, usize), f64> = HashMap::new();
    for k in 0..pattern.nnz() {
        let (r, c, v) = (pattern.rows[k], pattern.cols[k], pattern.vals[k]);
        if r != c {
            let half = v * 0.5;
            *off.entry((r, c)).or_insert(0.0) += half;
            *off.entry((c, r)).or_insert(0.0) += half;
        }
    }
    let mut row_abs = vec![0.0f64; n];
    for (&(r, _), &v) in &off {
        row_abs[r] += v.abs();
    }
    let mut rows = Vec::with_capacity(off.len() + n);
    let mut cols = Vec::with_capacity(off.len() + n);
    let mut vals = Vec::with_capacity(off.len() + n);
    for ((r, c), v) in off {
        rows.push(r);
        cols.push(c);
        vals.push(v);
    }
    for (r, &s) in row_abs.iter().enumerate() {
        rows.push(r);
        cols.push(r);
        vals.push(1.0 + s); // strict dominance
    }
    let mut m = CooMatrix::new(n, rows, cols, vals);
    m.sort_row_major();
    m
}

#[cfg(test)]
mod cg_tests {
    use super::*;
    use crate::gen::uniform_random;
    use crate::mp_spmv::PreparedMpSpmv;
    use crate::{approx_eq, dense_reference};

    #[test]
    fn cg_solves_spd_system_on_all_routes() {
        let pattern = uniform_random(250, 0.02, 8);
        let a = make_spd(&pattern);
        a.validate().unwrap();
        let x_true: Vec<f64> = (0..250).map(|i| ((i % 9) as f64 - 4.0) * 0.5).collect();
        let b = dense_reference(&a, &x_true);

        let routes: Vec<Box<dyn SpmvRoute>> = vec![
            Box::new(CsrRoute(CsrMatrix::from_coo(&a))),
            Box::new(JdRoute(JaggedDiagonal::from_coo(&a))),
            Box::new(PreparedMpRoute(PreparedMpSpmv::new(&a))),
        ];
        for route in routes {
            let r = conjugate_gradient(route.as_ref(), &b, 1e-10, 1000);
            assert!(
                r.residual < 1e-9,
                "{}: residual {}",
                route.name(),
                r.residual
            );
            assert!(
                approx_eq(&r.x, &x_true, 1e-6),
                "{}: wrong solution",
                route.name()
            );
        }
    }

    #[test]
    fn cg_converges_faster_than_jacobi_in_iterations() {
        // On a well-conditioned SPD system CG needs (many) fewer sweeps.
        let pattern = uniform_random(300, 0.01, 12);
        let a = make_spd(&pattern);
        let diag: Vec<f64> = {
            let mut d = vec![0.0; 300];
            for k in 0..a.nnz() {
                if a.rows[k] == a.cols[k] {
                    d[a.rows[k]] = a.vals[k];
                }
            }
            d
        };
        let x_true: Vec<f64> = (0..300).map(|i| (i % 5) as f64).collect();
        let b = dense_reference(&a, &x_true);
        let route = CsrRoute(CsrMatrix::from_coo(&a));
        let cg = conjugate_gradient(&route, &b, 1e-10, 2000);
        let jac = jacobi(&route, &diag, &b, 1e-10, 2000);
        assert!(cg.residual < 1e-9 && jac.residual < 1e-9);
        assert!(
            cg.iterations <= jac.iterations,
            "CG {} vs Jacobi {}",
            cg.iterations,
            jac.iterations
        );
    }

    #[test]
    fn spd_construction_is_symmetric() {
        let pattern = uniform_random(60, 0.05, 3);
        let a = make_spd(&pattern);
        let mut entries = std::collections::HashMap::new();
        for k in 0..a.nnz() {
            entries.insert((a.rows[k], a.cols[k]), a.vals[k]);
        }
        for (&(r, c), &v) in &entries {
            let vt = entries.get(&(c, r)).copied().unwrap_or(0.0);
            assert!((v - vt).abs() < 1e-12, "asymmetry at ({r},{c})");
        }
    }
}
