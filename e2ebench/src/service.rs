//! `service_small`: an open loop of small requests. One generator thread
//! offers `Request::multiprefix` (n = 64, m = 8, uniform labels) to a
//! `Service` with `try_submit` on a fixed schedule of [`RATE_PER_S`]
//! requests per second; one collector thread waits on the tickets in
//! order and checks each reply against that request's serial answer.
//! Latency runs from the time a request was due to be sent, so a refused
//! request's retries count in it.

use crate::inputs::{labelled, SplitMix64, TAG_SERVICE};
use crate::stats::{median, ns, q_us};
use crate::trace::{span, Tracer};
use crate::{metric, uncovered, Metric, Pass, Tally};
use multiprefix::op::Plus;
use multiprefix::resilience::{DispatchOpts, Dispatcher, DispatcherConfig};
use multiprefix::serial::multiprefix_serial;
use multiprefix::service::{CoalesceConfig, Reply, Request, Service, ServiceConfig, Ticket};
use multiprefix::{MpError, Recorder};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements per request.
pub const REQ_N: usize = 64;
/// Labels per request.
pub const REQ_M: usize = 8;
/// Distinct requests generated per seed; the schedule cycles through them.
pub const POOL: usize = 1024;
/// Offered load, requests per second: enough to keep the workers warm, so
/// the p50 and p90 repeat from run to run on the 2-CPU reference VM. The
/// default 64-slot queue still overflows when a host stall outlasts
/// 64 / rate (16 ms), because the requests that fell due during it arrive
/// together; see [`RETRY_PAUSE`].
pub const RATE_PER_S: u64 = 4_000;
/// Latency percentiles are taken per window of this length (ns), 2 000
/// requests; see [`crate::stats::windowed`].
pub const WINDOW_NS: u64 = 500_000_000;
/// A refused request is offered again after this pause.
pub const RETRY_PAUSE: Duration = Duration::from_micros(50);
/// A request still refused this long after it was due counts as failed.
pub const GIVE_UP: Duration = Duration::from_secs(1);
/// `Service::new` repetitions whose median is the set-up time.
pub const SETUP_REPS: usize = 31;
/// Direct dispatcher / serial calls in the traced run's probe.
pub const PROBE_CALLS: usize = 2_000;

/// The service configuration under test: the defaults plus coalescing,
/// as recommended for small same-op requests.
pub fn config(tracer: Option<&Tracer>) -> ServiceConfig {
    ServiceConfig {
        coalesce: Some(CoalesceConfig::default()),
        recorder: tracer.map(|t| Arc::clone(&t.recorder) as Arc<dyn Recorder>),
        ..ServiceConfig::default()
    }
}

/// The request pool for `seed`: `(values, labels)` pairs.
pub fn requests(seed: u64) -> Vec<(Vec<i64>, Vec<usize>)> {
    let mut rng = SplitMix64::new(seed, TAG_SERVICE);
    (0..POOL)
        .map(|_| labelled(&mut rng, REQ_N, REQ_M))
        .collect()
}

/// The reply each pooled request must receive.
pub fn oracle(requests: &[(Vec<i64>, Vec<usize>)]) -> Vec<Reply<i64>> {
    requests
        .iter()
        .map(|(v, l)| Reply::Prefix(multiprefix_serial(v, l, REQ_M, Plus)))
        .collect()
}

/// An admitted request on its way to the collector.
struct Sent {
    req: u64,
    root: u64,
    due: Instant,
    ticket: Ticket<i64>,
}

/// What the collector saw.
struct Collected {
    tally: Tally,
    latency: Vec<(u64, u64)>,
    last_done: Option<Instant>,
}

fn collect(
    rx: mpsc::Receiver<Sent>,
    start: Instant,
    oracle: &[Reply<i64>],
    tracer: Option<&Tracer>,
) -> Collected {
    let mut out = Collected {
        tally: Tally::default(),
        latency: Vec::new(),
        last_done: None,
    };
    for sent in rx {
        let (reply, _) = span(tracer, sent.root, sent.req, "service.ticket_wait", || {
            sent.ticket.wait()
        });
        let done = Instant::now();
        out.latency.push((
            ns(done.saturating_duration_since(start)),
            ns(done.saturating_duration_since(sent.due)),
        ));
        out.last_done = Some(done);
        if let Some(tr) = tracer {
            tr.record(sent.root, 0, sent.req, "service.request", sent.due, done);
        }
        out.tally.judge(reply, &oracle[sent.req as usize % POOL]);
    }
    out
}

/// One pass: set-up, then the open loop for `secs` seconds, then the
/// drained service's accounting check. `Err` is an accounting failure.
pub fn pass(seed: u64, secs: f64, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let reqs = requests(seed);
    let oracle = oracle(&reqs);

    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let start = Instant::now();
        let s = Service::<i64, Plus>::new(Plus, config(tracer))
            .map_err(|e| format!("Service::new failed: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        service = Some(s);
    }
    let service = service.expect("at least one set-up repetition");

    let total = (secs * RATE_PER_S as f64) as u64;
    let mut late = Vec::with_capacity(total as usize);
    let mut tally = Tally::default();
    let (mut admitted, mut refused) = (0u64, 0u64);
    let start = Instant::now() + Duration::from_millis(1);
    let collected = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Sent>();
        let collector = s.spawn(|| collect(rx, start, &oracle, tracer));
        for i in 0..total {
            let due = start
                + Duration::from_nanos((i as u128 * 1_000_000_000 / RATE_PER_S as u128) as u64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late.push(ns(Instant::now().saturating_duration_since(due)));
            let (values, labels) = &reqs[i as usize % POOL];
            let root = tracer.map_or(0, Tracer::id);
            // A refused request is offered again until admitted: the wait
            // shows in its latency, timed from `due`, and in the refusal
            // count. Only one still refused after `GIVE_UP` fails.
            let submitted = loop {
                let request = Request::multiprefix(values.clone(), labels.clone(), REQ_M);
                let (submitted, _) = span(tracer, root, i, "service.try_submit", || {
                    service.try_submit(request)
                });
                match submitted {
                    Err(MpError::Overloaded { .. }) if due.elapsed() < GIVE_UP => {
                        refused += 1;
                        std::thread::sleep(RETRY_PAUSE);
                    }
                    other => break other,
                }
            };
            match submitted {
                Ok(ticket) => {
                    admitted += 1;
                    tx.send(Sent {
                        req: i,
                        root,
                        due,
                        ticket,
                    })
                    .expect("collector outlives the generator");
                }
                Err(_) => tally.error(),
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    tally.add(collected.tally);

    let m = service.shutdown();
    if m.admitted != m.completed + m.errored {
        return Err(format!(
            "service accounting: admitted {} != completed {} + errored {}",
            m.admitted, m.completed, m.errored
        ));
    }
    if m.admitted != admitted {
        return Err(format!(
            "service accounting: service admitted {} but the generator holds {admitted} tickets",
            m.admitted
        ));
    }

    let elapsed = collected.last_done.map_or(f64::NAN, |t| {
        t.saturating_duration_since(start).as_secs_f64()
    });
    let mut pass = Pass {
        tally,
        setup_s: median(&mut setups),
        throughput_per_s: m.completed as f64 / elapsed,
        latency: collected.latency,
        window: WINDOW_NS,
        ..Pass::default()
    };
    pass.facts.insert("completed", m.completed as f64);
    pass.facts
        .insert("coalesced_requests", m.coalesced_requests as f64);
    pass.facts.insert("steals", m.steals as f64);
    pass.facts.insert("late_p50_us", q_us(&mut late, 0.5));
    pass.facts.insert("late_p99_us", q_us(&mut late, 0.99));
    pass.facts.insert("late_max_us", q_us(&mut late, 1.0));
    pass.facts.insert("request_p99_us", pass.latency_us(0.99));
    pass.facts
        .insert("refused_per_1k", 1e3 * refused as f64 / total as f64);
    pass.notes
        .push(("requests", pass.latency.len().to_string()));
    pass.notes.push(("rate_per_s", RATE_PER_S.to_string()));
    pass.notes.push((
        "generator_late_p99_us",
        format!("{:.1}", pass.fact("late_p99_us")),
    ));
    pass.notes.push((
        "generator_late_max_us",
        format!("{:.1}", pass.fact("late_max_us")),
    ));
    pass.notes.push(("refused_attempts", refused.to_string()));
    Ok(pass)
}

/// The service configuration in use, as JSON (`null` = library default).
pub fn describe_config() -> String {
    let cfg = config(None);
    let opt = |o: Option<usize>| o.map_or_else(|| "null".to_string(), |v| v.to_string());
    let c = cfg.coalesce.unwrap_or_default();
    let chain: Vec<String> = cfg
        .dispatcher
        .chain
        .iter()
        .map(ToString::to_string)
        .collect();
    format!(
        "{{\"workers\":{},\"queue_capacity\":{},\"ingress_shards\":{},\
         \"coalesce\":{{\"max_requests\":{},\"max_fused_elements\":{},\
         \"max_request_elements\":{},\"adaptive\":{}}},\"dispatch_chain\":\"{}\",\
         \"request_n\":{REQ_N},\"request_m\":{REQ_M},\"rate_per_s\":{RATE_PER_S}}}",
        opt(cfg.workers),
        opt(cfg.queue_capacity),
        opt(cfg.ingress_shards),
        c.max_requests,
        c.max_fused_elements,
        c.max_request_elements,
        c.adaptive,
        chain.join(">"),
    )
}

/// Per-layer metrics from a traced pass, plus the direct-call probe of
/// one small request outside the service.
pub fn layers(
    seed: u64,
    tr: &Tracer,
    traced: &Pass,
    untraced: &Pass,
) -> Result<(Vec<Metric>, Tally), String> {
    let tally = probe(seed, tr)?;
    let span_us = |name: &str, q: f64| q_us(&mut tr.durations(name), q);
    let hist_us = |name: &str, q: f64| {
        tr.recorder
            .histogram(name)
            .and_then(|h| h.quantile(q))
            .map_or(f64::NAN, |v| v as f64 / 1e3)
    };
    // The engine that served: the dispatch attempt histogram with the most
    // samples.
    let served = ["chunked", "blocked", "spinetree", "serial"]
        .iter()
        .map(|e| format!("dispatch.{e}.attempt_ns"))
        .max_by_key(|k| tr.recorder.histogram(k).map_or(0, |h| h.count))
        .expect("non-empty engine list");
    let completed = traced.fact("completed");
    let dispatches = tr.recorder.counter_value("dispatch.requests") as f64;
    let (wait_p50, exec_p50) = (
        hist_us("service.queue.wait_ns", 0.5),
        hist_us("service.exec_ns", 0.5),
    );
    let metrics = vec![
        metric(
            "service.submit_p50_us",
            span_us("service.try_submit", 0.5),
            "us",
        ),
        metric(
            "service.submit_p99_us",
            span_us("service.try_submit", 0.99),
            "us",
        ),
        metric("service.queue_wait_p50_us", wait_p50, "us"),
        metric(
            "service.queue_wait_p99_us",
            hist_us("service.queue.wait_ns", 0.99),
            "us",
        ),
        metric("service.exec_p50_us", exec_p50, "us"),
        metric(
            "service.exec_p99_us",
            hist_us("service.exec_ns", 0.99),
            "us",
        ),
        metric("dispatch.attempt_p50_us", hist_us(&served, 0.5), "us"),
        metric(
            "service.requests_per_dispatch",
            completed / dispatches,
            "count",
        ),
        metric(
            "service.coalesced_share",
            traced.fact("coalesced_requests") / completed,
            "share",
        ),
        metric(
            "service.steals_per_1k",
            1e3 * traced.fact("steals") / completed,
            "count",
        ),
        metric(
            "dispatch.small_call_us",
            span_us("dispatch.small_call", 0.5),
            "us",
        ),
        metric(
            "engine.serial_small_us",
            span_us("engine.serial_small", 0.5),
            "us",
        ),
        metric("service.request_p90_us", untraced.latency_us(0.9), "us"),
        metric(
            "service.request_p99_us",
            untraced.fact("request_p99_us"),
            "us",
        ),
        metric(
            "service.refused_per_1k",
            untraced.fact("refused_per_1k"),
            "count",
        ),
        metric("generator.late_p99_us", untraced.fact("late_p99_us"), "us"),
        metric(
            "reconcile.service_uncovered",
            uncovered(wait_p50 + exec_p50, traced.p50_us()),
            "share",
        ),
        metric(
            "trace.slowdown.service",
            traced.p50_us() / untraced.p50_us(),
            "ratio",
        ),
    ];
    Ok((metrics, tally))
}

/// Time `Dispatcher::dispatch` and `multiprefix_serial` on single 64-element
/// requests, outside the service.
fn probe(seed: u64, tr: &Tracer) -> Result<Tally, String> {
    let reqs = requests(seed);
    let oracle = oracle(&reqs);
    let dispatcher = Dispatcher::new(DispatcherConfig::default())
        .map_err(|e| format!("Dispatcher::new failed: {e}"))?;
    let opts = DispatchOpts::default();
    let mut tally = Tally::default();
    for i in 0..PROBE_CALLS {
        let (values, labels) = &reqs[i % POOL];
        let (out, _) = tr.span(0, i as u64, "dispatch.small_call", || {
            dispatcher.dispatch(values, labels, REQ_M, Plus, &opts)
        });
        tally.judge(out.map(|o| Reply::Prefix(o.output)), &oracle[i % POOL]);
        let (serial, _) = tr.span(0, i as u64, "engine.serial_small", || {
            multiprefix_serial(values, labels, REQ_M, Plus)
        });
        tally.check(Reply::Prefix(serial) == oracle[i % POOL]);
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_bytes(seed: u64) -> Vec<u8> {
        requests(seed)
            .iter()
            .flat_map(|(v, l)| crate::inputs::to_bytes(v, l))
            .collect()
    }

    #[test]
    fn seed_fixes_the_request_bytes() {
        assert_eq!(pool_bytes(3), pool_bytes(3));
        assert_ne!(pool_bytes(3), pool_bytes(4));
    }

    #[test]
    fn oracle_check_rejects_a_corrupted_reply() {
        let reqs = requests(1);
        let oracle = oracle(&reqs);
        let Reply::Prefix(mut bad) = oracle[0].clone() else {
            unreachable!("oracle replies are prefix replies")
        };
        bad.reductions[3] ^= 1;
        let mut tally = Tally::default();
        tally.judge(Ok::<_, MpError>(oracle[0].clone()), &oracle[0]);
        tally.judge(Ok::<_, MpError>(Reply::Prefix(bad)), &oracle[0]);
        tally.judge(Err(MpError::Unavailable), &oracle[0]);
        assert_eq!((tally.attempted, tally.failed, tally.mismatches), (3, 2, 1));
    }
}
