//! Integration tests for the resilient dispatch runtime, driven entirely
//! through the public crate surface: fallback chains that keep serving when
//! the primary engine is wedged, one run per chain entry on transient
//! faults, typed deadline/cancellation errors, and config validation at
//! construction time.

use multiprefix::op::Plus;
use multiprefix::resilience::{
    CancelToken, ChaosPlan, Deadline, DispatchOpts, Dispatcher, DispatcherConfig,
};
use multiprefix::{multiprefix, Engine, ExecConfig, MpError, MultiprefixOutput};
use std::time::Duration;

fn problem(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
    let values = (0..n as i64).map(|i| (i * 7) % 23 - 11).collect();
    let labels = (0..n).map(|i| (i * i + 3 * i) % m).collect();
    (values, labels)
}

fn oracle(values: &[i64], labels: &[usize], m: usize) -> MultiprefixOutput<i64> {
    multiprefix(values, labels, m, Plus, Engine::Serial).unwrap()
}

/// The default dispatcher with its chunked engine split four ways: the
/// default runs one chunk, which leaves the scoped chunk workers idle.
fn four_chunks() -> DispatcherConfig {
    DispatcherConfig {
        exec: ExecConfig::default().threads(4),
        ..DispatcherConfig::default()
    }
}

/// A valid request right after another must be served by the chain's
/// first engine on its first attempt: nothing the earlier request did
/// carries over.
fn assert_fresh(dispatcher: &Dispatcher) {
    let (values, labels) = problem(300, 7);
    let out = dispatcher
        .dispatch(&values, &labels, 7, Plus, &DispatchOpts::default())
        .unwrap();
    assert_eq!(out.output, oracle(&values, &labels, 7));
    assert_eq!(out.engine, dispatcher.config().chain[0].resolve());
    assert_eq!((out.attempts, out.fallbacks), (1, 0));
}

#[test]
fn default_dispatcher_matches_the_serial_oracle() {
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    for (n, m) in [(0, 0), (1, 1), (37, 5), (2_000, 17)] {
        let (values, labels) = problem(n, m);
        let expect = oracle(&values, &labels, m);

        let out = dispatcher
            .dispatch(&values, &labels, m, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(out.output, expect, "n={n} m={m}");
        assert_eq!(out.engine, Engine::Chunked);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.fallbacks, 0);

        let red = dispatcher
            .dispatch_reduce(&values, &labels, m, Plus, &DispatchOpts::default())
            .unwrap();
        assert_eq!(red.output, expect.reductions, "n={n} m={m}");
    }
}

#[test]
fn wedged_primary_engine_still_serves_via_fallback() {
    // Panic every chaos checkpoint inside the chunked engine only: the
    // primary is completely wedged, yet the dispatcher must answer — from
    // the next engine in the default chain, the serial loop, with the
    // canonical result.
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let (values, labels) = problem(1_500, 11);
    let expect = oracle(&values, &labels, 11);

    let chaos = ChaosPlan::seeded(42)
        .panic_ppm(1_000_000)
        .only(Engine::Chunked)
        .arm();
    let opts = DispatchOpts {
        chaos: Some(chaos.clone()),
        ..DispatchOpts::default()
    };

    let out = dispatcher
        .dispatch(&values, &labels, 11, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Serial, "must degrade, not die");
    assert!(out.fallbacks >= 1);
    assert!(chaos.panics_injected() > 0, "the fault must actually fire");
    assert_fresh(&dispatcher);
}

#[test]
fn transient_alloc_failure_falls_through_after_one_attempt() {
    // An injected allocation failure is transient: the chunked engine gets
    // its one run, then the chain falls through to the serial engine, which
    // serves the canonical answer. Nothing is retried on the same engine.
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let (values, labels) = problem(800, 7);
    let expect = oracle(&values, &labels, 7);

    let chaos = ChaosPlan::seeded(7)
        .alloc_fail_ppm(1_000_000)
        .only(Engine::Chunked)
        .arm();
    let opts = DispatchOpts {
        chaos: Some(chaos.clone()),
        ..DispatchOpts::default()
    };

    let out = dispatcher
        .dispatch(&values, &labels, 7, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Serial);
    assert_eq!((out.attempts, out.fallbacks), (2, 1));
    assert_eq!(chaos.alloc_fails_injected(), 1);
    assert_fresh(&dispatcher);
}

#[test]
fn expired_request_deadline_is_a_typed_error() {
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let (values, labels) = problem(500, 5);
    let opts = DispatchOpts {
        deadline: Some(Deadline::after(Duration::ZERO)),
        ..DispatchOpts::default()
    };
    let err = dispatcher
        .dispatch(&values, &labels, 5, Plus, &opts)
        .unwrap_err();
    assert_eq!(err, MpError::DeadlineExceeded);
}

#[test]
fn pre_cancelled_request_short_circuits_the_whole_chain() {
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let (values, labels) = problem(500, 5);

    let cancel = CancelToken::new();
    cancel.cancel();
    let opts = DispatchOpts {
        cancel: Some(cancel),
        ..DispatchOpts::default()
    };
    let err = dispatcher
        .dispatch(&values, &labels, 5, Plus, &opts)
        .unwrap_err();
    assert_eq!(err, MpError::Cancelled, "cancellation must not fall back");

    // The dispatcher itself is unharmed: the next request is served by the
    // primary engine on its first attempt.
    assert_fresh(&dispatcher);
}

#[test]
fn mid_flight_cancellation_fuse_yields_cancelled() {
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let (values, labels) = problem(2_000, 13);

    // A one-poll fuse cancels at the first in-flight checkpoint.
    let opts = DispatchOpts {
        cancel: Some(CancelToken::cancel_after(1)),
        ..DispatchOpts::default()
    };
    let err = dispatcher
        .dispatch(&values, &labels, 13, Plus, &opts)
        .unwrap_err();
    assert_eq!(err, MpError::Cancelled);

    // A fuse the request never exhausts behaves like no token at all.
    let opts = DispatchOpts {
        cancel: Some(CancelToken::cancel_after(u64::MAX)),
        ..DispatchOpts::default()
    };
    let out = dispatcher
        .dispatch(&values, &labels, 13, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, oracle(&values, &labels, 13));
}

#[test]
fn degenerate_configurations_are_rejected_at_construction() {
    let empty = DispatcherConfig {
        chain: vec![],
        ..DispatcherConfig::default()
    };
    assert!(matches!(
        Dispatcher::new(empty),
        Err(MpError::InvalidConfig { .. })
    ));

    let zero_buckets = DispatcherConfig {
        exec: ExecConfig::default().max_buckets(0),
        ..DispatcherConfig::default()
    };
    assert!(matches!(
        Dispatcher::new(zero_buckets),
        Err(MpError::InvalidConfig { .. })
    ));
}

#[test]
fn atomic_chain_entry_is_skipped_for_unsupported_element_types() {
    let cfg = DispatcherConfig {
        chain: vec![Engine::Atomic, Engine::Serial],
        ..DispatcherConfig::default()
    };
    let dispatcher = Dispatcher::new(cfg).unwrap();
    let opts = DispatchOpts::default();

    // The dispatcher never runs the atomic engine, a reproduction of the
    // paper's machine: for `i32` and `i64` alike the entry is skipped
    // (counted as a fallback) and serial answers.
    let values: Vec<i32> = (0..300).map(|i| i % 40 - 20).collect();
    let labels: Vec<usize> = (0..300).map(|i| i % 9).collect();
    let expect = multiprefix(&values, &labels, 9, Plus, Engine::Serial).unwrap();
    let out = dispatcher
        .dispatch(&values, &labels, 9, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(
        (out.engine, out.attempts, out.fallbacks),
        (Engine::Serial, 1, 1)
    );

    let (values, labels) = problem(300, 9);
    let expect = oracle(&values, &labels, 9);
    let out = dispatcher
        .dispatch(&values, &labels, 9, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(
        (out.engine, out.attempts, out.fallbacks),
        (Engine::Serial, 1, 1)
    );
    let red = dispatcher
        .dispatch_reduce(&values, &labels, 9, Plus, &opts)
        .unwrap();
    assert_eq!(red.output, expect.reductions);
    assert_eq!(
        (red.engine, red.attempts, red.fallbacks),
        (Engine::Serial, 1, 1)
    );
}

#[test]
fn chunk_worker_panic_falls_back_to_the_next_engine() {
    // Worker-fault chaos scoped to the chunked engine kills its local-pass
    // workers; the panic must be contained (resume_unwind → catch_unwind →
    // EnginePanicked) and the chain must keep serving the oracle answer.
    let dispatcher = Dispatcher::new(four_chunks()).unwrap();
    let (values, labels) = problem(20_000, 31);
    let expect = oracle(&values, &labels, 31);

    let chaos = ChaosPlan::seeded(13)
        .worker_panic_ppm(1_000_000)
        .only(Engine::Chunked)
        .arm();
    let opts = DispatchOpts {
        chaos: Some(chaos.clone()),
        ..DispatchOpts::default()
    };
    let out = dispatcher
        .dispatch(&values, &labels, 31, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Serial, "must degrade, not die");
    assert!(
        chaos.chunk_panics_injected() > 0,
        "the chunk-worker fault must actually fire"
    );
}

#[test]
fn chunk_worker_stalls_delay_but_do_not_corrupt() {
    // Stall faults slow the local pass down without failing it: the
    // chunked engine must still win the dispatch with the exact answer.
    let dispatcher = Dispatcher::new(four_chunks()).unwrap();
    let (values, labels) = problem(20_000, 31);
    let expect = oracle(&values, &labels, 31);

    let chaos = ChaosPlan::seeded(17)
        .worker_stall_ppm(1_000_000)
        .only(Engine::Chunked)
        .arm();
    let opts = DispatchOpts {
        chaos: Some(chaos.clone()),
        ..DispatchOpts::default()
    };
    let out = dispatcher
        .dispatch(&values, &labels, 31, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Chunked);
    assert!(chaos.chunk_stalls_injected() > 0);
}

#[test]
fn chunk_worker_faults_stay_scoped_to_the_chunked_engine() {
    // The same worker-fault plan scoped to another engine must never draw
    // inside chunk workers — otherwise chaos plans aimed at the service
    // pool would non-deterministically leak into engine internals.
    let dispatcher = Dispatcher::new(four_chunks()).unwrap();
    let (values, labels) = problem(20_000, 31);
    let expect = oracle(&values, &labels, 31);

    let chaos = ChaosPlan::seeded(19)
        .worker_panic_ppm(1_000_000)
        .only(Engine::Spinetree)
        .arm();
    let opts = DispatchOpts {
        chaos: Some(chaos.clone()),
        ..DispatchOpts::default()
    };
    let out = dispatcher
        .dispatch(&values, &labels, 31, Plus, &opts)
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Chunked);
    assert_eq!(chaos.chunk_panics_injected(), 0);
    assert_eq!(chaos.chunk_stalls_injected(), 0);
}

#[test]
fn invalid_input_errors_bypass_retry_and_fallback() {
    // A label out of range is a permanent, input-shaped error: no engine
    // can fix it, so the dispatcher reports it without trying the next
    // entry.
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let err = dispatcher
        .dispatch(&[1i64, 2], &[0, 7], 3, Plus, &DispatchOpts::default())
        .unwrap_err();
    assert!(matches!(
        err,
        MpError::LabelOutOfRange { label: 7, m: 3, .. }
    ));
    assert_fresh(&dispatcher);
}
