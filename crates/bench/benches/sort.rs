//! Host-side Table 1: the sorting routes on the NAS IS key distribution.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mp_sort::bucket_sort::bucket_ranks;
use mp_sort::nas_is::{generate_keys, NasRng, MAX_KEY};
use mp_sort::radix_sort::radix_sort;
use mp_sort::rank_sort::rank_keys;
use multiprefix::Engine;
use std::time::Duration;

fn bench_sort(c: &mut Criterion) {
    let n = 1 << 20;
    let mut rng = NasRng::standard();
    let keys = generate_keys(n, MAX_KEY, &mut rng);
    let keys64: Vec<u64> = keys.iter().map(|&k| k as u64).collect();

    let mut group = c.benchmark_group("nas_is_sort");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(n as u64));

    group.bench_function("bucket_ranks", |b| b.iter(|| bucket_ranks(&keys, MAX_KEY)));
    group.bench_function("radix_sort_8bit", |b| b.iter(|| radix_sort(&keys64, 8)));
    group.bench_function("std_sort_unstable", |b| {
        b.iter(|| {
            let mut k = keys64.clone();
            k.sort_unstable();
            k
        })
    });
    group.bench_function("mp_rank_serial", |b| {
        b.iter(|| rank_keys(&keys, MAX_KEY, Engine::Serial).unwrap())
    });
    group.bench_function("mp_rank_chunked", |b| {
        b.iter(|| rank_keys(&keys, MAX_KEY, Engine::Chunked).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sort);
criterion_main!(benches);
