//! Host-side Figure 10: engine throughput across bucket load factors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mp_bench::labels_for_load;
use multiprefix::op::Plus;
use multiprefix::{multiprefix, Engine};
use std::time::Duration;

fn bench_load(c: &mut Criterion) {
    let n = 1_000_000usize;
    let values: Vec<i64> = vec![1; n];
    let mut group = c.benchmark_group("load_factor");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));
    for &load in &[1usize, 16, 256, 65_536, 1_000_000] {
        let (labels, m) = labels_for_load(n, load, 3);
        for engine in [Engine::Spinetree, Engine::Chunked] {
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), format!("load_{load}")),
                &load,
                |b, _| {
                    b.iter(|| multiprefix(&values, &labels, m, Plus, engine).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_load);
criterion_main!(benches);
