//! The acceptance storm: 64 submitter threads against a small supervised
//! pool with a full queue, chaos worker panics *and* engine faults — the
//! service must never deadlock, never leak a ticket, and resolve every
//! admitted request with a result or a typed error. Seeded and
//! deterministic in its fault mix, so a failure is replayable.
//!
//! The heavy worker-kill churn is `#[ignore]`d and wired into the scheduled
//! soak job (`cargo test -- --ignored soak`).

use multiprefix::op::Plus;
use multiprefix::resilience::{ChaosPlan, ChaosState, DispatcherConfig};
use multiprefix::service::{
    CoalesceConfig, Priority, Reply, Request, Service, ServiceConfig, ServiceMetrics, Ticket,
};
use multiprefix::{multiprefix, Engine, MpError, MultiprefixOutput};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Request shapes crossing the engines' block/row boundaries.
const SHAPES: [(usize, usize); 5] = [(0, 1), (1, 1), (64, 3), (500, 7), (1_331, 13)];

fn problem(n: usize, m: usize, salt: u64) -> (Vec<i64>, Vec<usize>) {
    let values = (0..n as u64)
        .map(|i| ((i.wrapping_mul(salt | 1) >> 3) % 201) as i64 - 100)
        .collect();
    let labels = (0..n as u64)
        .map(|i| (i.wrapping_mul(salt.wrapping_mul(2).wrapping_add(7)) % m.max(1) as u64) as usize)
        .collect();
    (values, labels)
}

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

/// xorshift64* — the storm's own deterministic decision stream (distinct
/// from the chaos plan's).
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

struct StormTotals {
    admitted: usize,
    rejected_fast: usize,
    ok: usize,
    err: usize,
}

/// Drive `threads × per_thread` submissions through `service` with mixed
/// submit modes, priorities, deadlines and cancels, wait out every ticket,
/// and verify the all-or-typed-error contract against precomputed oracles.
fn storm(
    service: &Arc<Service<i64, Plus>>,
    threads: usize,
    per_thread: usize,
    seed: u64,
) -> StormTotals {
    let oracles: Vec<(Vec<i64>, Vec<usize>, MultiprefixOutput<i64>)> = SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(n, m))| {
            let (values, labels) = problem(n, m, seed.wrapping_add(i as u64));
            let expect = multiprefix(&values, &labels, m, Plus, Engine::Serial).unwrap();
            (values, labels, expect)
        })
        .collect();
    let oracles = Arc::new(oracles);

    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let service = Arc::clone(service);
            let oracles = Arc::clone(&oracles);
            std::thread::spawn(move || {
                let mut rng = seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut tickets: Vec<(usize, bool, Ticket<i64>)> = Vec::new();
                let mut rejected_fast = 0usize;
                for _ in 0..per_thread {
                    let draw = next(&mut rng);
                    let shape = (draw % SHAPES.len() as u64) as usize;
                    let (n, m) = SHAPES[shape];
                    let (values, labels, _) = &oracles[shape];
                    let reduce = draw & (1 << 8) != 0;
                    let mut request = if reduce {
                        Request::multireduce(values.clone(), labels.clone(), m)
                    } else {
                        Request::multiprefix(values.clone(), labels.clone(), m)
                    };
                    let _ = n;
                    if draw & (1 << 9) != 0 {
                        request = request.priority(Priority::Interactive);
                    }
                    match (draw >> 10) % 8 {
                        0 => request = request.timeout(Duration::ZERO),
                        1 => request = request.timeout(Duration::from_micros(200)),
                        2 | 3 => request = request.timeout(Duration::from_secs(60)),
                        _ => {}
                    }
                    let submitted = match (draw >> 16) % 4 {
                        // Fail-fast lane: overload refusals are expected and
                        // are NOT leaked tickets (none was issued).
                        0 => match service.try_submit(request) {
                            Ok(t) => Some(t),
                            Err(MpError::Overloaded { .. }) => {
                                rejected_fast += 1;
                                None
                            }
                            Err(other) => panic!("unexpected try_submit error: {other:?}"),
                        },
                        1 => Some(
                            service
                                .submit_within(request, Duration::from_secs(30))
                                .expect("30s of backpressure must find queue space"),
                        ),
                        _ => Some(service.submit(request).expect("blocking submit admits")),
                    };
                    if let Some(ticket) = submitted {
                        if (draw >> 24).is_multiple_of(8) {
                            ticket.cancel();
                        }
                        tickets.push((shape, reduce, ticket));
                    }
                }
                (tickets, rejected_fast)
            })
        })
        .collect();

    let mut totals = StormTotals {
        admitted: 0,
        rejected_fast: 0,
        ok: 0,
        err: 0,
    };
    for handle in handles {
        let (tickets, rejected_fast) = handle.join().unwrap();
        totals.admitted += tickets.len();
        totals.rejected_fast += rejected_fast;
        for (shape, reduce, ticket) in tickets {
            let outcome = ticket
                .wait_for(Duration::from_secs(60))
                .expect("storm ticket must resolve: the service never hangs or leaks");
            let (_, _, expect) = &oracles[shape];
            match outcome {
                Ok(Reply::Prefix(out)) => {
                    assert!(!reduce);
                    assert_eq!(out, *expect, "storm answer diverged from the oracle");
                    totals.ok += 1;
                }
                Ok(Reply::Reduce(red)) => {
                    assert!(reduce);
                    assert_eq!(red, expect.reductions, "storm reduction diverged");
                    totals.ok += 1;
                }
                Err(err) => {
                    assert!(is_typed_service_error(&err), "untyped storm error: {err:?}");
                    totals.err += 1;
                }
            }
        }
    }
    totals
}

fn storm_service(chaos: Arc<ChaosState>, coalesce: bool) -> Arc<Service<i64, Plus>> {
    Arc::new(
        Service::new(
            Plus,
            ServiceConfig {
                workers: Some(4),
                queue_capacity: Some(32),
                ingress_shards: None,
                dispatcher: DispatcherConfig::default(),
                coalesce: coalesce.then(CoalesceConfig::default),
                chaos: Some(chaos),
                recorder: None,
            },
        )
        .unwrap(),
    )
}

#[test]
fn storm_64_threads_with_worker_panics_never_leaks_tickets() {
    // Workers die on ~15% of batches and engines panic/fail-alloc at low
    // rates on top — the full double-fault mix of the acceptance criterion.
    let chaos = ChaosPlan::seeded(0xC0FFEE)
        .worker_panic_ppm(150_000)
        .panic_ppm(20_000)
        .alloc_fail_ppm(20_000)
        .arm();
    let service = storm_service(chaos.clone(), false);
    let totals = storm(&service, 64, 8, 0xBAD_5EED);
    let metrics = service.shutdown();

    assert_eq!(metrics.admitted as usize, totals.admitted);
    assert_eq!(metrics.rejected as usize, totals.rejected_fast);
    assert_eq!(
        metrics.admitted,
        metrics.completed + metrics.errored,
        "accounting must balance: {metrics:?}"
    );
    assert_eq!(totals.ok as u64, metrics.completed);
    assert_eq!(totals.err as u64, metrics.errored);
    // The storm must actually have exercised supervision: with a 15% kill
    // rate over hundreds of batches, workers died and were respawned.
    assert!(
        metrics.worker_panics > 0,
        "no worker ever died: {metrics:?}"
    );
    assert_eq!(metrics.worker_panics, metrics.respawns);
    assert_eq!(chaos.worker_panics_injected() as u64, metrics.worker_panics);
    // And the service must not have degenerated into all-errors.
    assert!(totals.ok > 0, "every storm request failed: {metrics:?}");
}

#[test]
fn storm_with_coalescing_stays_oracle_exact() {
    // Same storm with micro-batching on: fused execution must change
    // nothing about outcomes or accounting.
    let chaos = ChaosPlan::seeded(0xFACADE).worker_panic_ppm(100_000).arm();
    let service = storm_service(chaos, true);
    let totals = storm(&service, 32, 8, 0x5CA1_AB1E);
    let metrics = service.shutdown();
    assert_eq!(metrics.admitted, metrics.completed + metrics.errored);
    assert_eq!(metrics.admitted as usize, totals.admitted);
    assert!(totals.ok > 0);
    // Small shapes dominate, so under 32-thread pressure some dequeues must
    // have fused.
    assert!(
        metrics.coalesced_batches > 0,
        "no batch ever fused: {metrics:?}"
    );
}

#[test]
fn submitters_racing_shutdown_and_abort_leave_balanced_books() {
    // Small requests at an idle coalescing service run on their submitters'
    // threads. An engine stall at every checkpoint stretches each run, so
    // shutdown()/abort() lands while submitters are mid-run: the snapshot
    // either returns must still balance, and count every ticket handed out.
    const SUBMITTERS: usize = 8;
    let (values, labels) = problem(64, 8, 0x5EED);
    let expect = multiprefix(&values, &labels, 8, Plus, Engine::Serial).unwrap();
    for round in 0..16 {
        let graceful = round % 2 == 0;
        let chaos = ChaosPlan::seeded(round as u64)
            .stall(1_000_000, Duration::from_micros(300))
            .arm();
        let service = storm_service(chaos, true);
        let start = Arc::new(Barrier::new(SUBMITTERS + 1));
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let service = Arc::clone(&service);
                let start = Arc::clone(&start);
                let (values, labels) = (values.clone(), labels.clone());
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    start.wait();
                    loop {
                        let request = Request::multiprefix(values.clone(), labels.clone(), 8);
                        match service.try_submit(request) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(MpError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(MpError::Unavailable) => return tickets,
                            Err(other) => panic!("unexpected try_submit error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        start.wait();
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while service.metrics().inline == 0 {
            assert!(
                std::time::Instant::now() < give_up,
                "no request ran on a submitter"
            );
            std::thread::yield_now();
        }
        let snapshot = if graceful {
            service.shutdown()
        } else {
            service.abort()
        };
        assert_eq!(
            snapshot.admitted,
            snapshot.completed + snapshot.errored,
            "round {round}: {snapshot:?}"
        );
        let mut handed_out = 0u64;
        for handle in handles {
            for ticket in handle.join().unwrap() {
                handed_out += 1;
                match ticket
                    .try_result()
                    .expect("resolved by the time stop returns")
                {
                    Ok(reply) => assert_eq!(reply.into_prefix().unwrap(), expect),
                    Err(err) => assert!(is_typed_service_error(&err), "untyped: {err:?}"),
                }
            }
        }
        // Submitters kept racing after the snapshot; none was admitted.
        let after = service.metrics();
        assert_eq!(
            (snapshot.admitted, after.admitted, after.resolved()),
            (handed_out, handed_out, handed_out),
            "round {round}: {snapshot:?}"
        );
    }
}

/// Every counter but `rejected`: a submitter refused after a stop returned
/// still moves that one.
fn settled(m: &ServiceMetrics) -> [u64; 14] {
    [
        m.admitted,
        m.completed,
        m.errored,
        m.shed,
        m.cancelled,
        m.expired,
        m.worker_lost,
        m.coalesced_batches,
        m.coalesced_requests,
        m.worker_panics,
        m.respawns,
        m.steals,
        m.inline,
        m.workers_started,
    ]
}

#[test]
fn queued_requests_racing_stop_at_an_unstarted_pool_leave_no_worker_behind() {
    // Without coalescing every request queues, and the first one admitted
    // starts the pool. The stop lands 0–15 µs after that admission shows
    // in the metrics, spread across the window in which the start is
    // still spawning: the start must hand every worker to stop's join or
    // spawn none. A worker that outlived the stop would move the books
    // after the snapshot stop returned.
    const SUBMITTERS: usize = 2;
    let (values, labels) = problem(64, 8, 0x57A27);
    let expect = multiprefix(&values, &labels, 8, Plus, Engine::Serial).unwrap();
    for round in 0..128 {
        let graceful = round % 2 == 0;
        let service = Arc::new(
            Service::new(
                Plus,
                ServiceConfig {
                    workers: Some(4),
                    queue_capacity: Some(32),
                    ..ServiceConfig::default()
                },
            )
            .unwrap(),
        );
        let start = Arc::new(Barrier::new(SUBMITTERS + 1));
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let service = Arc::clone(&service);
                let start = Arc::clone(&start);
                let (values, labels) = (values.clone(), labels.clone());
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    start.wait();
                    loop {
                        let request = Request::multiprefix(values.clone(), labels.clone(), 8);
                        match service.try_submit(request) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(MpError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(MpError::Unavailable) => return tickets,
                            Err(other) => panic!("unexpected try_submit error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        start.wait();
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while service.metrics().admitted == 0 {
            assert!(
                std::time::Instant::now() < give_up,
                "no request was admitted"
            );
            std::hint::spin_loop();
        }
        let seen = std::time::Instant::now();
        let lag = Duration::from_micros(round % 16);
        while seen.elapsed() < lag {
            std::hint::spin_loop();
        }
        let snapshot = if graceful {
            service.shutdown()
        } else {
            service.abort()
        };
        assert_eq!(
            snapshot.admitted,
            snapshot.completed + snapshot.errored,
            "round {round}: {snapshot:?}"
        );
        assert!(snapshot.workers_started <= 4, "round {round}: {snapshot:?}");
        let mut handed_out = 0u64;
        for handle in handles {
            for ticket in handle.join().unwrap() {
                handed_out += 1;
                match ticket
                    .try_result()
                    .expect("resolved by the time stop returns")
                {
                    Ok(reply) => assert_eq!(reply.into_prefix().unwrap(), expect),
                    Err(err) => assert!(is_typed_service_error(&err), "untyped: {err:?}"),
                }
            }
        }
        assert_eq!(snapshot.admitted, handed_out, "round {round}: {snapshot:?}");
        let after = service.metrics();
        assert_eq!(
            settled(&after),
            settled(&snapshot),
            "round {round}: the books moved after stop returned: {snapshot:?} then {after:?}"
        );
    }
}

#[test]
#[ignore = "heavy worker-kill churn; run with `cargo test -- --ignored soak`"]
fn soak_service_worker_kill_churn() {
    // The scheduled job's workload: repeated storms where chaos executes
    // worker 0 on half its batches (targeted via only_worker) plus an
    // untargeted round, across several seeds. Zero lost tickets, balanced
    // books every round.
    for seed in 0..6u64 {
        let targeted = ChaosPlan::seeded(seed)
            .worker_panic_ppm(500_000)
            .only_worker(0)
            .arm();
        let service = storm_service(targeted, seed % 2 == 0);
        let totals = storm(&service, 32, 12, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let metrics = service.shutdown();
        assert_eq!(metrics.admitted as usize, totals.admitted, "seed {seed}");
        assert_eq!(
            metrics.admitted,
            metrics.completed + metrics.errored,
            "seed {seed}: {metrics:?}"
        );
        assert!(totals.ok > 0, "seed {seed}: all requests failed");

        let untargeted = ChaosPlan::seeded(!seed)
            .worker_panic_ppm(250_000)
            .panic_ppm(40_000)
            .alloc_fail_ppm(40_000)
            .arm();
        let service = storm_service(untargeted, seed % 2 == 1);
        let totals = storm(&service, 64, 6, seed.wrapping_add(17));
        let metrics = service.shutdown();
        assert_eq!(metrics.admitted as usize, totals.admitted, "seed {seed}");
        assert_eq!(
            metrics.admitted,
            metrics.completed + metrics.errored,
            "seed {seed}: {metrics:?}"
        );
        assert!(metrics.worker_panics > 0, "seed {seed}: chaos never fired");
    }
}
