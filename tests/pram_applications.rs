//! The PRAM application programs against the host application crates:
//! Figure 11 and Figure 12 must compute the same answers whether run as
//! stepped PRAM programs, as ISA vector code, or as host library calls.

use mp_sort::counting_sort::counting_ranks;
use mp_sort::nas_is::{generate_keys, NasRng};
use mp_sort::rank_sort::rank_keys;
use multiprefix::Engine;
use pram::algorithms::integer_sort_on_pram;
use pram::spmv_pram::spmv_on_pram;
use spmv::gen::uniform_random;

#[test]
fn figure_11_three_ways() {
    let mut rng = NasRng::with_seed(42);
    let keys = generate_keys(900, 64, &mut rng);

    let host = rank_keys(&keys, 64, Engine::Chunked).unwrap();
    let oracle = counting_ranks(&keys, 64);
    assert_eq!(host, oracle);

    let pram_run = integer_sort_on_pram(&keys, 64, 7).unwrap();
    assert_eq!(pram_run.ranks, oracle);

    let isa_run = cray_sim::isa::run_rank_sort_isa(&keys, 64).unwrap();
    assert_eq!(isa_run.ranks, oracle);
}

#[test]
fn figure_12_three_ways() {
    // Integer-valued matrix so the PRAM/ISA words are exact.
    let pattern = uniform_random(40, 0.08, 3);
    let rows = pattern.rows.clone();
    let cols = pattern.cols.clone();
    let vals: Vec<i64> = (0..pattern.nnz()).map(|k| (k % 9) as i64 - 4).collect();
    let x: Vec<i64> = (0..40).map(|j| (j % 5) as i64 - 2).collect();

    // Dense oracle.
    let mut oracle = vec![0i64; 40];
    for k in 0..rows.len() {
        oracle[rows[k]] += vals[k] * x[cols[k]];
    }

    // Host route (through f64 — exact for these small integers).
    let coo = spmv::CooMatrix::new(
        40,
        rows.clone(),
        cols.clone(),
        vals.iter().map(|&v| v as f64).collect(),
    );
    let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    let host = spmv::mp_spmv::mp_spmv(&coo, &xf, Engine::Serial);
    let host_i: Vec<i64> = host.iter().map(|&v| v.round() as i64).collect();
    assert_eq!(host_i, oracle);

    // PRAM program.
    let pram_run = spmv_on_pram(40, &rows, &cols, &vals, &x, 11).unwrap();
    assert_eq!(pram_run.y, oracle);

    // ISA vector code.
    let isa_run = cray_sim::isa::run_spmv_isa(40, &rows, &cols, &vals, &x).unwrap();
    assert_eq!(isa_run.y, oracle);
}

#[test]
fn pram_sort_cost_measures_are_consistent_with_theory() {
    // S = O(√n + √m), W = O(n + m): quadrupling n should roughly double
    // steps and quadruple work.
    let run = |n: usize| {
        let keys: Vec<usize> = (0..n).map(|i| (i * 17) % 97).collect();
        integer_sort_on_pram(&keys, 97, 1).unwrap().total
    };
    let small = run(1024);
    let large = run(4096);
    let step_ratio = large.steps as f64 / small.steps as f64;
    let work_ratio = large.work as f64 / small.work as f64;
    assert!(
        (1.4..2.8).contains(&step_ratio),
        "S(4n)/S(n) = {step_ratio}"
    );
    assert!(
        (2.8..5.0).contains(&work_ratio),
        "W(4n)/W(n) = {work_ratio}"
    );
}
