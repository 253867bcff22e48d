//! Property tests of the service layer's accounting contract: for **any**
//! interleaving of submissions, cancellations, deadlines, and chaos worker
//! panics, every admitted request resolves — to the serial-oracle answer or
//! a typed error — and the counters balance exactly
//! (`admitted == completed + errored`). Plus a deterministic fusion case
//! proving coalesced outputs are bit-identical to per-request serial runs,
//! the cases of a small request run on its submitter's thread when the
//! service is idle, and a request whose own operator panics, which must
//! fail alone.

use multiprefix::obs::MemoryRecorder;
use multiprefix::op::{CombineOp, Plus, TryCombineOp};
use multiprefix::resilience::{ChaosPlan, ChaosState, DispatchOpts, Dispatcher, DispatcherConfig};
use multiprefix::service::{
    CoalesceConfig, Priority, Reply, Request, Service, ServiceConfig, Ticket,
};
use multiprefix::{multiprefix, multireduce, Engine, MpError, Recorder};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One submission, encoded with stub-friendly scalars:
/// `((n, m, reduce), (interactive, deadline_code, cancel))` where
/// `deadline_code` is 0 = none, 1 = already expired, 2 = 500µs, 3 = 10ms.
type RawSpec = ((usize, usize, bool), (bool, u64, bool));

fn specs() -> impl Strategy<Value = Vec<RawSpec>> {
    proptest::collection::vec(
        (
            (0usize..48, 1usize..6, any::<bool>()),
            (any::<bool>(), 0u64..4, any::<bool>()),
        ),
        1..40,
    )
}

fn problem(n: usize, m: usize, salt: u64) -> (Vec<i64>, Vec<usize>) {
    let values = (0..n as u64)
        .map(|i| ((i.wrapping_mul(salt | 1) >> 3) % 201) as i64 - 100)
        .collect();
    let labels = (0..n as u64)
        .map(|i| (i.wrapping_mul(salt.wrapping_mul(2).wrapping_add(7)) % m.max(1) as u64) as usize)
        .collect();
    (values, labels)
}

/// The errors the service vocabulary allows a storm to surface. Anything
/// else — or a hang, or a wrong answer — fails the property.
fn is_typed_service_error(err: &MpError) -> bool {
    matches!(
        err,
        MpError::Overloaded { .. }
            | MpError::Cancelled
            | MpError::DeadlineExceeded
            | MpError::WorkerLost { .. }
            | MpError::EnginePanicked
            | MpError::AllocationFailed { .. }
            | MpError::Unavailable
    )
}

/// A submitted ticket plus everything needed to judge its outcome.
struct Submitted {
    ticket: Ticket<i64>,
    values: Vec<i64>,
    labels: Vec<usize>,
    m: usize,
    reduce: bool,
}

fn run_case(raw: &[RawSpec], seed: u64, worker_chaos: bool) {
    let chaos = ChaosPlan::seeded(seed)
        .worker_panic_ppm(if worker_chaos { 120_000 } else { 0 })
        .arm();
    let service = Arc::new(
        Service::new(
            Plus,
            ServiceConfig {
                workers: Some(2),
                queue_capacity: Some(8),
                ingress_shards: None,
                coalesce: Some(CoalesceConfig::default()),
                dispatcher: DispatcherConfig::default(),
                chaos: Some(chaos),
                recorder: None,
            },
        )
        .unwrap(),
    );

    // Three submitter shards give real interleavings of admission, shedding,
    // cancellation and worker death.
    let shards: Vec<Vec<(usize, RawSpec)>> = (0..3)
        .map(|s| {
            raw.iter()
                .cloned()
                .enumerate()
                .filter(|(i, _)| i % 3 == s)
                .collect()
        })
        .collect();
    let handles: Vec<_> = shards
        .into_iter()
        .map(|shard| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut submitted = Vec::new();
                for (i, ((n, m, reduce), (interactive, deadline_code, cancel))) in shard {
                    let (values, labels) = problem(n, m, seed.wrapping_add(i as u64));
                    let mut request = if reduce {
                        Request::multireduce(values.clone(), labels.clone(), m)
                    } else {
                        Request::multiprefix(values.clone(), labels.clone(), m)
                    };
                    if interactive {
                        request = request.priority(Priority::Interactive);
                    }
                    request = match deadline_code {
                        1 => request.timeout(Duration::ZERO),
                        2 => request.timeout(Duration::from_micros(500)),
                        3 => request.timeout(Duration::from_millis(10)),
                        _ => request,
                    };
                    let ticket = service.submit(request).unwrap();
                    if cancel {
                        ticket.cancel();
                    }
                    submitted.push(Submitted {
                        ticket,
                        values,
                        labels,
                        m,
                        reduce,
                    });
                }
                submitted
            })
        })
        .collect();

    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().unwrap());
    }
    let total = all.len() as u64;
    for s in &all {
        let outcome = s
            .ticket
            .wait_for(Duration::from_secs(30))
            .expect("ticket must resolve: admitted requests never hang");
        match outcome {
            Ok(reply) => match reply {
                Reply::Prefix(out) => {
                    assert!(!s.reduce);
                    let want =
                        multiprefix(&s.values, &s.labels, s.m, Plus, Engine::Serial).unwrap();
                    assert_eq!(out, want, "service answer diverged from the serial oracle");
                }
                Reply::Reduce(red) => {
                    assert!(s.reduce);
                    let want =
                        multireduce(&s.values, &s.labels, s.m, Plus, Engine::Serial).unwrap();
                    assert_eq!(
                        red, want,
                        "service reduction diverged from the serial oracle"
                    );
                }
            },
            Err(err) => assert!(
                is_typed_service_error(&err),
                "untyped service error: {err:?}"
            ),
        }
    }

    let metrics = service.shutdown();
    assert_eq!(metrics.admitted, total, "every submit() must admit");
    assert_eq!(
        metrics.admitted,
        metrics.completed + metrics.errored,
        "accounting must balance once drained: {metrics:?}"
    );
    assert_eq!(
        metrics.errored,
        // The service-level breakdown plus dispatch-level errors; with only
        // worker chaos armed, dispatch errors are impossible, so the four
        // named counters must cover everything.
        metrics.shed + metrics.cancelled + metrics.expired + metrics.worker_lost,
        "error breakdown must cover every errored ticket: {metrics:?}"
    );
}

/// Deterministic smoke of the property harness: a fixed spec mix covering
/// both kinds, both priorities, every deadline code and cancellation, run
/// with and without worker chaos.
#[test]
fn fixed_interleaving_smoke() {
    let raw: Vec<RawSpec> = (0..24u64)
        .map(|i| {
            (
                ((i as usize * 5) % 48, 1 + (i as usize) % 5, i % 2 == 0),
                (i % 3 == 0, i % 4, i % 5 == 0),
            )
        })
        .collect();
    run_case(&raw, 0xDECAF, false);
    run_case(&raw, 0xDECAF, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_admitted_request_resolves_and_counters_balance(
        raw in specs(),
        seed in any::<u64>(),
        worker_chaos in any::<bool>(),
    ) {
        run_case(&raw, seed, worker_chaos);
    }
}

/// Deterministic fusion case: wedge the lone worker with a stall so a
/// backlog builds, then prove (a) at least one dequeue actually fused, and
/// (b) every coalesced output is bit-identical to its per-request serial
/// oracle.
#[test]
fn coalesced_outputs_match_the_serial_oracle_bit_for_bit() {
    let chaos = ChaosPlan::seeded(29)
        .worker_stall_ppm(1_000_000)
        .stall(0, Duration::from_millis(15))
        .arm();
    let service = Service::new(
        Plus,
        ServiceConfig {
            workers: Some(1),
            queue_capacity: Some(64),
            coalesce: Some(CoalesceConfig::default()),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut submitted = Vec::new();
    for i in 0..24u64 {
        let n = 1 + (i as usize * 7) % 40;
        let m = 1 + (i as usize) % 5;
        let (values, labels) = problem(n, m, i.wrapping_mul(0x9E37_79B9));
        let reduce = i % 3 == 0;
        let request = if reduce {
            Request::multireduce(values.clone(), labels.clone(), m)
        } else {
            Request::multiprefix(values.clone(), labels.clone(), m)
        };
        let ticket = service.submit(request).unwrap();
        submitted.push((ticket, values, labels, m, reduce));
    }
    for (ticket, values, labels, m, reduce) in submitted {
        match ticket.wait().unwrap() {
            Reply::Prefix(out) => {
                assert!(!reduce);
                assert_eq!(
                    out,
                    multiprefix(&values, &labels, m, Plus, Engine::Serial).unwrap()
                );
            }
            Reply::Reduce(red) => {
                assert!(reduce);
                assert_eq!(
                    red,
                    multireduce(&values, &labels, m, Plus, Engine::Serial).unwrap()
                );
            }
        }
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.completed, 24);
    assert!(
        metrics.coalesced_batches >= 1,
        "the stalled worker must have seen a fusable backlog: {metrics:?}"
    );
    assert!(metrics.coalesced_requests >= 2);
}

/// A coalescing service over the given operator and the default
/// dispatcher.
fn coalescing_service<O: TryCombineOp<i64> + std::fmt::Debug>(
    op: O,
    workers: usize,
    chaos: Option<Arc<ChaosState>>,
    recorder: Option<Arc<dyn Recorder>>,
) -> Service<i64, O> {
    Service::new(
        op,
        ServiceConfig {
            workers: Some(workers),
            queue_capacity: Some(16),
            coalesce: Some(CoalesceConfig::default()),
            chaos,
            recorder,
            ..ServiceConfig::default()
        },
    )
    .unwrap()
}

/// `try_submit(request())` until one request runs on the submitter's
/// thread, and return that ticket with the number of attempts. Until the
/// first queued request starts the pool, the first attempt runs inline.
/// Once the pool has started, a worker waking from its park timeout can
/// race a submit; an attempt made then takes the pool, and its outcome
/// goes to `judge`.
fn submit_inline<O: TryCombineOp<i64>>(
    service: &Service<i64, O>,
    request: impl Fn() -> Request<i64>,
    mut judge: impl FnMut(Result<Reply<i64>, MpError>),
) -> (Ticket<i64>, u64) {
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let before = service.metrics().inline;
        let ticket = service.try_submit(request()).unwrap();
        if service.metrics().inline > before {
            return (ticket, attempts);
        }
        judge(ticket.wait());
        assert!(
            Instant::now() < give_up,
            "no request ever found the service idle"
        );
        std::thread::yield_now();
    }
}

#[test]
fn idle_coalescing_service_answers_small_requests_before_try_submit_returns() {
    let service = coalescing_service(Plus, 2, None, None);
    let mut pooled = 0u64;
    for i in 0..12u64 {
        let n = (i as usize * 37) % 512 + 1;
        let m = 1 + (i as usize) % 7;
        let (values, labels) = problem(n, m, i.wrapping_mul(0x9E37_79B9) + 1);
        let reduce = i % 2 == 1;
        let want_prefix = multiprefix(&values, &labels, m, Plus, Engine::Serial).unwrap();
        let want = if reduce {
            Reply::Reduce(want_prefix.reductions)
        } else {
            Reply::Prefix(want_prefix)
        };
        let (ticket, attempts) = submit_inline(
            &service,
            || {
                if reduce {
                    Request::multireduce(values.clone(), labels.clone(), m)
                } else {
                    Request::multiprefix(values.clone(), labels.clone(), m)
                }
            },
            |outcome| assert_eq!(outcome.as_ref(), Ok(&want)),
        );
        pooled += attempts - 1;
        assert!(ticket.is_resolved(), "resolved before try_submit returned");
        assert_eq!(ticket.take(), Ok(want));
    }
    let m = service.shutdown();
    assert_eq!(m.inline, 12);
    assert_eq!(m.admitted, 12 + pooled);
    assert_eq!(m.completed, m.admitted);
}

#[test]
fn expired_request_at_an_idle_service_settles_without_a_dispatch() {
    let rec = MemoryRecorder::shared();
    let service = coalescing_service(Plus, 2, None, Some(rec.clone() as Arc<dyn Recorder>));
    let (ticket, attempts) = submit_inline(
        &service,
        || Request::multiprefix(vec![1i64, 2, 3], vec![0, 1, 0], 2).timeout(Duration::ZERO),
        |outcome| assert_eq!(outcome, Err(MpError::DeadlineExceeded)),
    );
    assert_eq!(ticket.try_result(), Some(Err(MpError::DeadlineExceeded)));
    let m = service.shutdown();
    assert_eq!(m.inline, 1);
    assert_eq!(m.expired, attempts);
    assert_eq!(m.errored, m.admitted);
    assert_eq!(
        rec.counter_value("dispatch.requests"),
        0,
        "an expired request never reaches the dispatcher"
    );
}

#[test]
fn requests_the_submitter_path_excludes_take_the_pool() {
    let small = || Request::multireduce(vec![5i64, 6, 7], vec![0, 1, 1], 2);
    // Above `max_request_elements`: a small request just ran inline, so
    // the service is idle, yet the large one is queued.
    let service = coalescing_service(Plus, 2, None, None);
    let _ = submit_inline(&service, small, |_| {});
    let (values, labels) = problem(CoalesceConfig::default().max_request_elements + 1, 5, 41);
    let inline_before = service.metrics().inline;
    let large = service
        .try_submit(Request::multiprefix(values.clone(), labels.clone(), 5))
        .unwrap();
    assert_eq!(service.metrics().inline, inline_before);
    assert_eq!(
        large.wait().unwrap().into_prefix().unwrap(),
        multiprefix(&values, &labels, 5, Plus, Engine::Serial).unwrap()
    );
    service.shutdown();

    // Eight requests in turn, each answered before the next is sent.
    let serve_eight = |service: Service<i64, Plus>| {
        for _ in 0..8 {
            let reply = service.try_submit(small()).unwrap().wait().unwrap();
            assert_eq!(reply.reductions(), &[5, 13]);
        }
        service.shutdown()
    };

    // No coalescing configured.
    let plain = Service::new(
        Plus,
        ServiceConfig {
            workers: Some(2),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let m = serve_eight(plain);
    assert_eq!((m.completed, m.inline), (8, 0));

    // A chaos plan arming worker faults: a zero-length worker stall fires
    // on every batch and changes nothing else, so each request's worker
    // checkpoint shows it was served by the pool.
    let chaos = ChaosPlan::seeded(3)
        .worker_stall_ppm(1_000_000)
        .stall(0, Duration::ZERO)
        .arm();
    let faulted = coalescing_service(Plus, 2, Some(chaos.clone()), None);
    let m = serve_eight(faulted);
    assert_eq!((m.completed, m.inline), (8, 0));
    assert_eq!(chaos.worker_stalls_injected(), 8);
}

/// `Plus` that panics when it meets the marker value 999: a fault that
/// belongs to the request, not to any engine.
#[derive(Debug, Clone, Copy)]
struct PoisonPlus;

impl CombineOp<i64> for PoisonPlus {
    const COMMUTATIVE: bool = true;
    fn identity(&self) -> i64 {
        0
    }
    fn combine(&self, a: i64, b: i64) -> i64 {
        assert!(a != 999 && b != 999, "poison value reached the operator");
        a + b
    }
}

impl TryCombineOp<i64> for PoisonPlus {
    fn checked_combine(&self, a: i64, b: i64) -> Option<i64> {
        Some(self.combine(a, b))
    }
    fn saturating_combine(&self, a: i64, b: i64) -> i64 {
        self.combine(a, b)
    }
}

/// `problem(n, m, salt)` with the poison value in its middle element.
fn poisoned_problem(n: usize, m: usize, salt: u64) -> (Vec<i64>, Vec<usize>) {
    let (mut values, labels) = problem(n, m, salt);
    values[n / 2] = 999;
    (values, labels)
}

#[test]
fn poisoned_request_on_the_submitter_gets_a_typed_error() {
    let service = coalescing_service(PoisonPlus, 2, None, None);
    let poisoned = || Request::multiprefix(vec![1i64, 999, 3, 4], vec![0, 1, 0, 1], 2);
    let typed = |outcome: Result<Reply<i64>, MpError>| {
        let err = outcome.expect_err("a poisoned request cannot succeed");
        assert!(is_typed_service_error(&err), "untyped error: {err:?}");
    };
    let (ticket, poisoned_attempts) = submit_inline(&service, poisoned, typed);
    typed(
        ticket
            .try_result()
            .expect("resolved before try_submit returned"),
    );
    // The poisoned request left nothing behind: the next one is healthy
    // and gets the oracle answer.
    let healthy = || Request::multiprefix(vec![1i64, 2, 3, 4], vec![0, 1, 0, 1], 2);
    let want = Reply::Prefix(
        multiprefix(&[1i64, 2, 3, 4], &[0, 1, 0, 1], 2, Plus, Engine::Serial).unwrap(),
    );
    let (ticket, healthy_attempts) = submit_inline(&service, healthy, |outcome| {
        assert_eq!(outcome.as_ref(), Ok(&want))
    });
    assert_eq!(ticket.take(), Ok(want));
    let m = service.shutdown();
    assert_eq!(m.inline, 2);
    assert_eq!(m.errored, poisoned_attempts);
    assert_eq!(m.completed, healthy_attempts);
}

#[test]
fn poisoned_request_through_the_dispatcher_costs_one_run_per_entry() {
    let rec = MemoryRecorder::shared();
    let dispatcher = Dispatcher::new(DispatcherConfig::default())
        .unwrap()
        .with_recorder(rec.clone() as Arc<dyn Recorder>);
    let (values, labels) = poisoned_problem(64, 5, 7);
    let err = dispatcher
        .dispatch(&values, &labels, 5, PoisonPlus, &DispatchOpts::default())
        .unwrap_err();
    assert_eq!(err, MpError::EnginePanicked);
    assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);
    assert_eq!(rec.counter_value("dispatch.serial.attempts"), 1);

    // The next request is healthy: the chain's first engine serves it on
    // its first attempt.
    let (values, labels) = problem(64, 5, 7);
    let out = dispatcher
        .dispatch(&values, &labels, 5, PoisonPlus, &DispatchOpts::default())
        .unwrap();
    assert_eq!(
        out.output,
        multiprefix(&values, &labels, 5, Plus, Engine::Serial).unwrap()
    );
    assert_eq!(out.engine, Engine::Chunked);
    assert_eq!((out.attempts, out.fallbacks), (1, 0));
}

#[test]
fn poisoned_request_spares_the_healthy_requests_behind_it() {
    let (poisoned_values, poisoned_labels) = poisoned_problem(64, 8, 1);
    let healthy: Vec<_> = (2..33u64)
        .map(|salt| {
            let (values, labels) = problem(64, 8, salt);
            let want = multiprefix(&values, &labels, 8, Plus, Engine::Serial).unwrap();
            (values, labels, Reply::Prefix(want))
        })
        .collect();
    for workers in [Some(1), None] {
        for coalesce in [true, false] {
            let case = format!("workers {workers:?}, coalescing {coalesce}");
            // A zero-length worker stall fires on every batch and changes
            // nothing else; arming it keeps every request on the pool, where
            // coalescing can fuse the poisoned request with healthy ones.
            let chaos = ChaosPlan::seeded(5)
                .worker_stall_ppm(1_000_000)
                .stall(0, Duration::ZERO)
                .arm();
            let service = Service::new(
                PoisonPlus,
                ServiceConfig {
                    workers,
                    coalesce: coalesce.then(CoalesceConfig::default),
                    chaos: Some(chaos),
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let poisoned = service
                .submit(Request::multiprefix(
                    poisoned_values.clone(),
                    poisoned_labels.clone(),
                    8,
                ))
                .unwrap();
            let tickets: Vec<_> = healthy
                .iter()
                .map(|(values, labels, _)| {
                    service
                        .submit(Request::multiprefix(values.clone(), labels.clone(), 8))
                        .unwrap()
                })
                .collect();
            let err = poisoned
                .wait()
                .expect_err("a poisoned request cannot succeed");
            assert!(
                is_typed_service_error(&err),
                "{case}: untyped error {err:?}"
            );
            for (i, (ticket, (_, _, want))) in tickets.into_iter().zip(&healthy).enumerate() {
                assert_eq!(
                    ticket.wait().as_ref(),
                    Ok(want),
                    "{case}: healthy request {i}"
                );
            }
            let m = service.shutdown();
            assert_eq!((m.completed, m.errored), (31, 1), "{case}: {m:?}");
        }
    }
}
