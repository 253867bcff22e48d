//! Overhead of the observability layer on the hot path.
//!
//! Three variants of the same spinetree run: no recorder (the production
//! default — must be indistinguishable from the pre-obs engine, since an
//! absent recorder costs one branch per phase and zero clock reads), a
//! recorder installed (per-phase histograms live), and the dispatcher with
//! a recorder (adds per-attempt timing and counters on top).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mp_bench::lcg_labels;
use multiprefix::obs::MemoryRecorder;
use multiprefix::op::Plus;
use multiprefix::spinetree::engine::try_multiprefix_spinetree_ctx;
use multiprefix::{
    DispatchOpts, Dispatcher, DispatcherConfig, Engine, OverflowPolicy, Recorder, RunContext,
};
use std::sync::Arc;
use std::time::Duration;

fn bench_obs_overhead(c: &mut Criterion) {
    let n = 1_000_000usize;
    let m = n / 16;
    let values: Vec<i64> = vec![1; n];
    let labels = lcg_labels(n, m, 1);

    let mut group = c.benchmark_group("obs_overhead");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    let plain = RunContext::new();
    group.bench_function("spinetree_no_recorder", |b| {
        b.iter(|| {
            try_multiprefix_spinetree_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &plain)
        })
    });

    let rec = MemoryRecorder::shared();
    let observed = RunContext::new()
        .for_engine(Engine::Spinetree)
        .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
    group.bench_function("spinetree_with_recorder", |b| {
        b.iter(|| {
            try_multiprefix_spinetree_ctx(
                &values,
                &labels,
                m,
                Plus,
                OverflowPolicy::Wrap,
                &observed,
            )
        })
    });

    let dispatcher = Dispatcher::new(DispatcherConfig {
        chain: vec![Engine::Spinetree],
        ..DispatcherConfig::default()
    })
    .unwrap()
    .with_recorder(MemoryRecorder::shared() as Arc<dyn Recorder>);
    let opts = DispatchOpts::default();
    group.bench_function("dispatch_with_recorder", |b| {
        b.iter(|| dispatcher.dispatch(&values, &labels, m, Plus, &opts))
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
