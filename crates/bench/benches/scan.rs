//! Scan substrate: serial vs partition-method (the §5.1.1 recurrence
//! solver) vs the degenerate single-label multiprefix.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use multiprefix::op::Plus;
use multiprefix::scan::{exclusive_scan_partition, exclusive_scan_serial};
use multiprefix::{multiprefix, Engine};
use std::time::Duration;

fn bench_scan(c: &mut Criterion) {
    let n = 4_000_000usize;
    let values: Vec<i64> = (0..n as i64).map(|i| i % 13 - 6).collect();
    let labels = vec![0usize; n];

    let mut group = c.benchmark_group("scan");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    group.bench_function("serial", |b| {
        b.iter(|| exclusive_scan_serial(&values, Plus))
    });
    group.bench_function("partition_method", |b| {
        b.iter(|| exclusive_scan_partition(&values, Plus))
    });
    group.bench_function("single_label_multiprefix_chunked", |b| {
        b.iter(|| multiprefix(&values, &labels, 1, Plus, Engine::Chunked).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
