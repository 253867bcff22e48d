//! Host-side Tables 2/4/5: the three SpMV routes on uniform and
//! circuit-shaped matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multiprefix::Engine;
use spmv::gen::{circuit_matrix, uniform_random};
use spmv::mp_spmv::mp_spmv;
use spmv::{CooMatrix, CsrMatrix, JaggedDiagonal};
use std::time::Duration;

fn bench_matrix(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    name: &str,
    coo: &CooMatrix,
) {
    let csr = CsrMatrix::from_coo(coo);
    let jd = JaggedDiagonal::from_coo(coo);
    let x: Vec<f64> = (0..coo.order).map(|i| 1.0 + (i % 5) as f64).collect();

    group.bench_with_input(BenchmarkId::new("csr_eval", name), &0, |b, _| {
        b.iter(|| csr.spmv(&x))
    });
    group.bench_with_input(BenchmarkId::new("jd_eval", name), &0, |b, _| {
        b.iter(|| jd.spmv(&x))
    });
    group.bench_with_input(BenchmarkId::new("jd_setup", name), &0, |b, _| {
        b.iter(|| JaggedDiagonal::from_coo(coo))
    });
    group.bench_with_input(BenchmarkId::new("mp_eval", name), &0, |b, _| {
        b.iter(|| mp_spmv(coo, &x, Engine::Chunked))
    });
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let sparse = uniform_random(5000, 0.001, 1);
    bench_matrix(&mut group, "uniform_5000_0.001", &sparse);
    let dense = uniform_random(100, 0.4, 2);
    bench_matrix(&mut group, "uniform_100_0.4", &dense);
    let circuit = circuit_matrix(2806, 6.5, 2, 3);
    bench_matrix(&mut group, "circuit_2806", &circuit);
    group.finish();
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
