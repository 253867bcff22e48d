//! Regenerates **Table 1**: the NAS Integer Sorting benchmark comparison.
//!
//! The paper's Table 1 (CRAY Y-MP, 2^23 19-bit keys, 10 ranking
//! iterations):
//!
//! | Method | Time (s) |
//! |---|---|
//! | Partially Vectorized FORTRAN Bucket Sort | 18.24 |
//! | Cray Research Inc. Implementation        | 14.00 |
//! | Our Multiprefix-based Sort               | 13.66 |
//!
//! We run the three routes on the simulated Y-MP at a scaled `n` (the
//! model is linear in `n`, so the result is exact up to the scaling) and
//! report extrapolated full-benchmark seconds, then time the *real*
//! host implementations for a wall-clock cross-check.

use cray_sim::kernels::sort::{bucket_sort_clocks, cri_sort_clocks, mp_rank_sort_timed};
use cray_sim::{CostBook, VectorMachine};
use mp_bench::{fmt_s, render_table};
use mp_sort::nas_is::{self, full_verify, generate_keys, NasRng};
use mp_sort::{bucket_sort::bucket_ranks, radix_sort::radix_sort, rank_sort::rank_keys};
use std::time::Instant;

fn main() {
    let n_sim: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 20);
    let m = nas_is::MAX_KEY;
    let iters = nas_is::ITERATIONS as f64;
    let scale = (nas_is::FULL_N as f64 / n_sim as f64) * iters;

    println!("Table 1 — NAS Integer Sorting benchmark (simulated CRAY Y-MP)");
    println!(
        "workload: {n_sim} NAS-distributed 19-bit keys, extrapolated x{scale:.1} to the full 2^23 x 10-iteration benchmark\n"
    );

    let mut rng = NasRng::standard();
    let keys = generate_keys(n_sim, m, &mut rng);
    let book = CostBook::default();

    let mut machine = VectorMachine::ymp();
    bucket_sort_clocks(&mut machine, &book, n_sim);
    let bucket_s = machine.seconds() * scale;

    let mut machine = VectorMachine::ymp();
    cri_sort_clocks(&mut machine, &book, n_sim);
    let cri_s = machine.seconds() * scale;

    let mut machine = VectorMachine::ymp();
    let run = mp_rank_sort_timed(&mut machine, &book, &keys, m);
    assert!(
        full_verify(&keys, &run.ranks),
        "simulated sort failed verification"
    );
    let mp_s = machine.seconds() * scale;

    let rows = vec![
        vec![
            "Partially Vectorized FORTRAN Bucket Sort".into(),
            fmt_s(bucket_s),
            "18.24".into(),
        ],
        vec![
            "Cray Research Inc. Implementation (stand-in)".into(),
            fmt_s(cri_s),
            "14.00".into(),
        ],
        vec![
            "Our Multiprefix-based Sort".into(),
            fmt_s(mp_s),
            "13.66".into(),
        ],
    ];
    println!(
        "{}",
        render_table(&["Method", "Simulated (s)", "Paper (s)"], &rows)
    );
    println!(
        "shape check: MP fastest = {}, beats bucket by {:.2}x (paper: 1.34x)\n",
        mp_s < cri_s && cri_s < bucket_s,
        bucket_s / mp_s
    );

    // ---- instruction-level evidence --------------------------------------
    // The same ranking compiled to vector machine code and executed on the
    // register-level ISA simulator, at a smaller n (the program is
    // straight-line, so emission is O(n)); clocks scale linearly.
    let n_isa = 1 << 14;
    let isa_keys = &keys[..n_isa.min(keys.len())];
    let m_isa = 1 << 10; // keep the scalar bucket-scan section proportionate
    let isa_keys: Vec<usize> = isa_keys.iter().map(|&k| k % m_isa).collect();
    let isa = cray_sim::isa::run_rank_sort_isa(&isa_keys, m_isa).expect("well-formed program");
    println!(
        "ISA-level cross-check: {} keys ranked in {:.0} clocks ({:.1} clk/key) over {} retired instructions\n",
        isa_keys.len(),
        isa.clocks,
        isa.clocks / isa_keys.len() as f64,
        isa.instructions
    );

    // ---- host wall-clock cross-check ------------------------------------
    println!("Host wall-clock (one ranking of {n_sim} keys, real implementations):");
    let t = Instant::now();
    let ranks = rank_keys(&keys, m, multiprefix::Engine::Chunked).unwrap();
    let mp_host = t.elapsed();
    assert!(full_verify(&keys, &ranks));

    let t = Instant::now();
    let b = bucket_ranks(&keys, m);
    let bucket_host = t.elapsed();
    assert!(full_verify(&keys, &b));

    let keys64: Vec<u64> = keys.iter().map(|&k| k as u64).collect();
    let t = Instant::now();
    let r = radix_sort(&keys64, 8);
    let radix_host = t.elapsed();
    assert!(r.windows(2).all(|w| w[0] <= w[1]));

    let host_rows = vec![
        vec!["bucket_ranks (baseline)".into(), format!("{bucket_host:?}")],
        vec![
            "radix_sort 8-bit (vendor stand-in)".into(),
            format!("{radix_host:?}"),
        ],
        vec![
            "multiprefix rank_keys (Chunked)".into(),
            format!("{mp_host:?}"),
        ],
    ];
    println!("{}", render_table(&["Implementation", "Time"], &host_rows));
}
