//! Differential guard for the observability layer: instrumentation must be
//! *purely observational*. Every engine, and the dispatcher above them,
//! must produce bit-for-bit identical output with and without a recorder
//! installed — the recorder can time and count, but never steer.

use multiprefix::obs::MemoryRecorder;
use multiprefix::op::Plus;
use multiprefix::resilience::RunContext;
use multiprefix::{
    DispatchOpts, Dispatcher, DispatcherConfig, Engine, ExecConfig, OverflowPolicy, Recorder,
};
use std::sync::Arc;

fn lcg(n: usize, m: usize, seed: u64) -> (Vec<i64>, Vec<usize>) {
    let mut state = seed | 1;
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let values = (0..n).map(|_| (step() % 2001) as i64 - 1000).collect();
    let labels = (0..n).map(|_| step() % m).collect();
    (values, labels)
}

fn instrumented_ctx(kind: Engine) -> (RunContext, Arc<MemoryRecorder>) {
    let rec = MemoryRecorder::shared();
    let ctx = RunContext::new()
        .for_engine(kind)
        .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
    (ctx, rec)
}

/// Shapes chosen to hit degenerate layouts (tiny n, single bucket) as well
/// as a stride-crossing size.
const SHAPES: &[(usize, usize)] = &[(1, 1), (17, 3), (1000, 1), (5000, 64), (9001, 257)];

#[test]
fn every_engine_is_bit_identical_with_and_without_recorder() {
    for &(n, m) in SHAPES {
        let (values, labels) = lcg(n, m, 11);
        for kind in [
            Engine::Serial,
            Engine::Spinetree,
            Engine::Chunked,
            Engine::Atomic,
            Engine::Sharded,
        ] {
            let run = |ctx: &RunContext| match kind {
                Engine::Serial => multiprefix::serial::try_multiprefix_serial_ctx(
                    &values,
                    &labels,
                    m,
                    Plus,
                    OverflowPolicy::Wrap,
                    ctx,
                )
                .map(Some),
                Engine::Spinetree => multiprefix::spinetree::engine::try_multiprefix_spinetree_ctx(
                    &values,
                    &labels,
                    m,
                    Plus,
                    OverflowPolicy::Wrap,
                    ctx,
                ),
                // Four threads split the two larger shapes into chunks.
                Engine::Auto | Engine::Chunked => {
                    multiprefix::chunked::try_multiprefix_chunked_cfg_ctx(
                        &values,
                        &labels,
                        m,
                        Plus,
                        ExecConfig::default().threads(4),
                        ctx,
                    )
                }
                Engine::Atomic => multiprefix::atomic::try_multiprefix_atomic_ctx(
                    &values,
                    &labels,
                    m,
                    Plus,
                    OverflowPolicy::Wrap,
                    ctx,
                ),
                Engine::Sharded => multiprefix::shard::try_multiprefix_sharded_ctx(
                    &values,
                    &labels,
                    m,
                    Plus,
                    ExecConfig::default(),
                    &multiprefix::ShardConfig::default(),
                    ctx,
                ),
            };
            let plain = run(&RunContext::new())
                .expect("uninstrumented run failed")
                .expect("Wrap never trips");
            let (ctx, rec) = instrumented_ctx(kind);
            let instrumented = run(&ctx)
                .expect("instrumented run failed")
                .expect("Wrap never trips");
            assert_eq!(
                plain.sums, instrumented.sums,
                "{kind:?} sums diverged at n={n} m={m}"
            );
            assert_eq!(
                plain.reductions, instrumented.reductions,
                "{kind:?} reductions diverged at n={n} m={m}"
            );
            // The run really was observed: at least one phase histogram has
            // samples (otherwise this test could silently compare two
            // uninstrumented runs).
            let snap = rec.snapshot();
            assert!(
                snap.histograms.values().any(|h| h.count > 0),
                "{kind:?}: recorder saw no phase samples"
            );
        }
    }
}

#[test]
fn dispatcher_output_is_bit_identical_with_and_without_recorder() {
    let (values, labels) = lcg(4096, 31, 23);
    let cfg = DispatcherConfig::default();
    let plain = Dispatcher::new(cfg.clone()).unwrap();
    let observed = Dispatcher::new(cfg)
        .unwrap()
        .with_recorder(MemoryRecorder::shared() as Arc<dyn Recorder>);
    let opts = DispatchOpts::default();
    let a = plain
        .dispatch(&values, &labels, 31, Plus, &opts)
        .expect("plain dispatch failed");
    let b = observed
        .dispatch(&values, &labels, 31, Plus, &opts)
        .expect("observed dispatch failed");
    assert_eq!(a.output.sums, b.output.sums);
    assert_eq!(a.output.reductions, b.output.reductions);
    assert_eq!(a.engine, b.engine, "recorder changed engine selection");
}
