//! Ablation: the chunked engine's parts count — the host analogue of the
//! paper's §4.4 row-length tuning (a shape parameter trading startup
//! against parallelism) — plus the `m ≫ n` combine-pass pin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mp_bench::lcg_labels;
use multiprefix::chunked::multiprefix_chunked_with_parts;
use multiprefix::op::Plus;
use std::time::Duration;

/// The chunked engine's knob: how many chunks to cut `n` into. One chunk
/// per worker minimizes the sequential combine scan; oversubscription
/// smooths load imbalance.
fn bench_chunked_parts(c: &mut Criterion) {
    let n = 4_000_000usize;
    let m = 1024;
    let values: Vec<i64> = vec![1; n];
    let labels = lcg_labels(n, m, 1);

    let mut group = c.benchmark_group("chunked_parts");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));
    for &parts in &[1usize, 4, 8, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &parts| {
            b.iter(|| multiprefix_chunked_with_parts(&values, &labels, m, Plus, parts))
        });
    }
    group.finish();
}

/// Pin for the touched-label combine pass: with `m ≫ n` the chunk tables
/// fall back to probed maps and the combine scan must cost `O(distinct)`
/// per chunk, not `O(m)`. A regression here reintroduces a sweep over
/// `chunks·m` mostly-identity entries.
fn bench_combine_touched(c: &mut Criterion) {
    let n = 100_000usize;
    let m = 200_000usize;
    let values: Vec<i64> = vec![1; n];
    // Few distinct labels, spread over a huge label space.
    let labels: Vec<usize> = (0..n).map(|i| (i % 512) * 390).collect();

    let mut group = c.benchmark_group("combine_touched");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));
    group.bench_function("chunked_m_ggt_n", |b| {
        b.iter(|| multiprefix_chunked_with_parts(&values, &labels, m, Plus, 8))
    });
    group.finish();
}

criterion_group!(benches, bench_chunked_parts, bench_combine_touched);
criterion_main!(benches);
