//! Host wall-clock comparison of the five engines over input size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mp_bench::lcg_labels;
use multiprefix::atomic::multiprefix_atomic;
use multiprefix::op::Plus;
use multiprefix::{multiprefix, try_multiprefix, Engine, ExecConfig};
use std::time::Duration;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiprefix_engines");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let m = (n / 16).max(1);
        let values: Vec<i64> = (0..n as i64).collect();
        let labels = lcg_labels(n, m, 1);
        group.throughput(Throughput::Elements(n as u64));
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            group.bench_with_input(BenchmarkId::new(format!("{engine:?}"), n), &n, |b, _| {
                b.iter(|| multiprefix(&values, &labels, m, Plus, engine).unwrap());
            });
        }
        // The ≥2×-atomic acceptance comparison runs on a pinned worker
        // count so host core count does not skew the ratio.
        let four = ExecConfig::default().threads(4);
        group.bench_with_input(BenchmarkId::new("Chunked4", n), &n, |b, _| {
            b.iter(|| try_multiprefix(&values, &labels, m, Plus, Engine::Chunked, four).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("AtomicSpinetree", n), &n, |b, _| {
            b.iter(|| multiprefix_atomic(&values, &labels, m, Plus));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
