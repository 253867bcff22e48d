//! Host wall-clock of the derived primitives: segmented scan, keyed
//! group-by, split/pack, histogram, streaming.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mp_bench::lcg_labels;
use multiprefix::histogram::histogram;
use multiprefix::keyed::multireduce_by_key;
use multiprefix::op::Plus;
use multiprefix::segmented::segmented_exclusive_scan;
use multiprefix::split::split_stable;
use multiprefix::stream::MultiprefixStream;
use multiprefix::Engine;
use std::time::Duration;

fn bench_primitives(c: &mut Criterion) {
    let n = 1_000_000usize;
    let values: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
    let labels = lcg_labels(n, 256, 1);
    let flags: Vec<bool> = (0..n).map(|i| i % 53 == 0).collect();
    let string_keys: Vec<String> = labels.iter().map(|l| format!("tenant-{l}")).collect();

    let mut group = c.benchmark_group("primitives");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    group.bench_function("segmented_scan", |b| {
        b.iter(|| segmented_exclusive_scan(&values, &flags, Plus, Engine::Chunked).unwrap())
    });
    group.bench_function("histogram", |b| {
        b.iter(|| histogram(&labels, 256, Engine::Chunked).unwrap())
    });
    group.bench_function("split_stable_4way", |b| {
        let keys: Vec<usize> = labels.iter().map(|l| l % 4).collect();
        b.iter(|| split_stable(&values, &keys, 4, Engine::Chunked).unwrap())
    });
    group.bench_function("group_by_string_keys", |b| {
        b.iter(|| multireduce_by_key(&values, &string_keys, Plus, Engine::Chunked).unwrap())
    });
    group.bench_function("streaming_64k_chunks", |b| {
        b.iter(|| {
            let mut stream = MultiprefixStream::new(256, Plus, Engine::Chunked);
            for (v, l) in values.chunks(64 * 1024).zip(labels.chunks(64 * 1024)) {
                stream.feed(v, l).unwrap();
            }
            stream.finish()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
