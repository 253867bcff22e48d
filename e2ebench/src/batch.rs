//! `batch_uniform`: the paper's §4.3 experiment as a closed loop. One
//! caller thread repeats `multiprefix(values, labels, m, Plus,
//! Engine::Auto)` on `i64` with n = 1 000 000 and m = 62 500 uniform labels
//! (load factor 16); every output is compared with the serial result
//! computed, untimed, at set-up.

use crate::inputs::{labelled, SplitMix64, TAG_BATCH};
use crate::stats::{by_window, fast_decile, median, q_ms};
use crate::trace::{span, Tracer};
use crate::{metric, uncovered, Metric, Pass, Tally};
use multiprefix::blocked::multiprefix_blocked;
use multiprefix::chunked::multiprefix_chunked;
use multiprefix::op::Plus;
use multiprefix::problem::validate;
use multiprefix::serial::multiprefix_serial;
use multiprefix::{
    multiprefix, try_multiprefix_ctx, Engine, EngineKind, ExecConfig, MultiprefixOutput, RunContext,
};
use std::time::{Duration, Instant};

/// Elements per call.
pub const N: usize = 1_000_000;
/// Labels (n / m = 16).
pub const M: usize = 62_500;
/// Calls an untraced pass makes at least: p90 then has ten beyond it.
pub const MIN_CALLS: usize = 100;
/// Percentiles and throughput are taken per window of this many
/// consecutive calls, so each window's p90 has ten calls beyond it.
pub const WINDOW_CALLS: u64 = 100;
/// Fresh processes whose first call is timed for the set-up median.
pub const SETUP_REPS: usize = 7;
/// Iterations a traced pass makes at least.
pub const MIN_TRACED: usize = 10;

/// The generated input of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Values.
    pub values: Vec<i64>,
    /// Labels, uniform in `[0, M)`.
    pub labels: Vec<usize>,
}

/// The input for `seed`.
pub fn input(seed: u64) -> Input {
    let (values, labels) = labelled(&mut SplitMix64::new(seed, TAG_BATCH), N, M);
    Input { values, labels }
}

/// Set-up time of a fresh process: the first `Auto` call, which pays the
/// library's lazy set-up (first touch of its allocations, thread
/// start-up). Returns its seconds, or `None` if the output was wrong.
/// Run once per child process; see [`SETUP_REPS`].
pub fn first_call_s(seed: u64) -> Option<f64> {
    let inp = input(seed);
    let start = Instant::now();
    let out = multiprefix(&inp.values, &inp.labels, M, Plus, Engine::Auto);
    let secs = start.elapsed().as_secs_f64();
    let oracle = multiprefix_serial(&inp.values, &inp.labels, M, Plus);
    (out.as_ref() == Ok(&oracle)).then_some(secs)
}

/// One pass: a warm-up call, then calls for `secs` seconds. With a tracer, each
/// iteration also times the calls into the layers beneath `Engine::Auto`.
pub fn pass(seed: u64, secs: f64, tracer: Option<&Tracer>) -> Pass {
    let inp = input(seed);
    let oracle = multiprefix_serial(&inp.values, &inp.labels, M, Plus);
    let mut tally = Tally::default();

    let first = multiprefix(&inp.values, &inp.labels, M, Plus, Engine::Auto);
    tally.judge(first, &oracle);

    let min_calls = if tracer.is_some() {
        MIN_TRACED
    } else {
        MIN_CALLS
    };
    let begin = Instant::now();
    let soft_end = begin + Duration::from_secs_f64(secs);
    let hard_end = begin + Duration::from_secs_f64(3.0 * secs);
    let mut calls: Vec<(u64, u64)> = Vec::new();
    let mut ratios = Vec::new();
    while (Instant::now() < soft_end || calls.len() < min_calls) && Instant::now() < hard_end {
        let req = calls.len() as u64;
        let root = tracer.map_or(0, Tracer::id);
        let t0 = Instant::now();
        let (out, auto_ns) = span(tracer, root, req, "api.multiprefix", || {
            multiprefix(&inp.values, &inp.labels, M, Plus, Engine::Auto)
        });
        calls.push((calls.len() as u64, auto_ns));
        tally.judge(out, &oracle);
        if let Some(tr) = tracer {
            let serial_ns = layer_calls(tr, root, req, &inp, &oracle, &mut tally);
            ratios.push(auto_ns as f64 / serial_ns as f64);
            tr.record(root, 0, req, "batch.iteration", t0, Instant::now());
        }
    }

    // Elements per second of call time, per window.
    let mut rates: Vec<f64> = by_window(&calls, WINDOW_CALLS)
        .into_values()
        .filter(|w| w.len() as u64 == WINDOW_CALLS)
        .map(|w| (N * w.len()) as f64 / (w.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    let mut pass = Pass {
        tally,
        throughput_per_s: fast_decile(&mut rates, false),
        latency: calls,
        window: WINDOW_CALLS,
        ..Pass::default()
    };
    pass.facts.insert("auto_vs_serial", median(&mut ratios));
    pass.notes.push(("calls", pass.latency.len().to_string()));
    pass.notes.push(("n", N.to_string()));
    pass.notes.push(("m", M.to_string()));
    pass
}

/// The traced iteration's layer calls on the same input, each checked
/// against the oracle. Returns the serial call's duration (ns), which is
/// paired with the `Auto` call just before it.
fn layer_calls(
    tr: &Tracer,
    root: u64,
    req: u64,
    inp: &Input,
    oracle: &MultiprefixOutput<i64>,
    tally: &mut Tally,
) -> u64 {
    let (values, labels) = (&inp.values[..], &inp.labels[..]);
    let (serial, serial_ns) = tr.span(root, req, "engine.serial", || {
        multiprefix_serial(values, labels, M, Plus)
    });
    tally.check(serial == *oracle);
    let (valid, _) = tr.span(root, req, "api.validate", || validate(&N, labels, M));
    tally.judge(valid, &());
    let (chunked, _) = tr.span(root, req, "engine.chunked", || {
        multiprefix_chunked(values, labels, M, Plus)
    });
    tally.check(chunked == *oracle);
    let (blocked, _) = tr.span(root, req, "engine.blocked", || {
        multiprefix_blocked(values, labels, M, Plus)
    });
    tally.check(blocked == *oracle);
    // The engine tag names the histogram family the phases land in;
    // `Auto` resolves to the chunked engine at this size.
    let ctx = RunContext::new()
        .with_recorder(tr.recorder.clone())
        .for_engine(EngineKind::Chunked);
    let (hardened, _) = tr.span(root, req, "api.try_multiprefix_ctx", || {
        try_multiprefix_ctx(
            values,
            labels,
            M,
            Plus,
            Engine::Auto,
            ExecConfig::default(),
            &ctx,
        )
    });
    tally.judge(hardened, oracle);
    serial_ns
}

/// Per-layer metrics from a traced pass, with the untraced pass of the
/// same run for the tracing overhead.
pub fn layers(tr: &Tracer, traced: &Pass, untraced: &Pass) -> Vec<Metric> {
    let p50 = |name: &str| q_ms(&mut tr.durations(name), 0.5);
    let phase = |name: &str| {
        tr.recorder
            .histogram(&format!("engine.chunked.phase.{name}"))
            .and_then(|h| h.p50())
            .map_or(f64::NAN, |v| v as f64 / 1e6)
    };
    let validate_ms = p50("api.validate");
    let (local, combine, apply) = (phase("local"), phase("combine"), phase("apply"));
    vec![
        metric("api.validate_ms", validate_ms, "ms"),
        metric("engine.serial_ms", p50("engine.serial"), "ms"),
        metric("engine.chunked_ms", p50("engine.chunked"), "ms"),
        metric("engine.blocked_ms", p50("engine.blocked"), "ms"),
        metric("engine.chunked.local_ms", local, "ms"),
        metric("engine.chunked.combine_ms", combine, "ms"),
        metric("engine.chunked.apply_ms", apply, "ms"),
        metric("auto_vs_serial", traced.fact("auto_vs_serial"), "ratio"),
        metric(
            "reconcile.batch_uncovered",
            uncovered(
                validate_ms + local + combine + apply,
                p50("api.try_multiprefix_ctx"),
            ),
            "share",
        ),
        metric(
            "trace.slowdown.batch",
            traced.p50_us() / untraced.p50_us(),
            "ratio",
        ),
        metric("batch.call_p90_ms", untraced.latency_us(0.9) / 1e3, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_input_bytes() {
        let a = input(7);
        let bytes = |i: &Input| crate::inputs::to_bytes(&i.values, &i.labels);
        assert_eq!(bytes(&a), bytes(&input(7)));
        assert_ne!(bytes(&a), bytes(&input(8)));
        assert!(a.labels.iter().all(|&l| l < M));
    }

    #[test]
    fn oracle_check_rejects_a_corrupted_output() {
        let inp = Input {
            values: vec![5, -3, 2, 7],
            labels: vec![1, 0, 1, 1],
        };
        let oracle = multiprefix_serial(&inp.values, &inp.labels, 2, Plus);
        let mut tally = Tally::default();
        let good = multiprefix(&inp.values, &inp.labels, 2, Plus, Engine::Auto);
        tally.judge(good, &oracle);
        assert_eq!(tally.failed, 0);
        let mut bad = oracle.clone();
        bad.sums[2] += 1;
        tally.judge(Ok::<_, ()>(bad), &oracle);
        assert_eq!((tally.attempted, tally.failed, tally.mismatches), (2, 1, 1));
    }
}
