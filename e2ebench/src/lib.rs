//! End-to-end and per-layer benchmark of the `multiprefix` library.
//!
//! Three workloads drive the library's public API from one process:
//! [`batch`] (one large `multiprefix` call in a closed loop), [`service`]
//! (small requests offered to a `Service` in an open loop) and [`session`]
//! (durable streaming sessions, closed loop). Every output is checked
//! against the serial oracle or a shadow model. A traced run ([`trace`])
//! additionally times the calls into each layer and reads the library's
//! own histograms through `MemoryRecorder`. See `README.md` beside this
//! crate for the metric definitions.

pub mod batch;
pub mod host;
pub mod inputs;
pub mod service;
pub mod session;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run prints, as `BENCHMARK.json`
/// lists them.
pub const E2E_METRICS: &[&str] = &[
    "setup_s",
    "ok_fraction",
    "peak_rss_mb",
    "throughput_per_s",
    "latency_p50_us",
];

/// The per-layer metrics every traced run prints, as `BENCHMARK.json`
/// lists them.
pub const LAYER_METRICS: &[&str] = &[
    "api.validate_ms",
    "engine.serial_ms",
    "engine.chunked_ms",
    "engine.blocked_ms",
    "engine.chunked.local_ms",
    "engine.chunked.combine_ms",
    "engine.chunked.apply_ms",
    "auto_vs_serial",
    "reconcile.batch_uncovered",
    "trace.slowdown.batch",
    "batch.call_p90_ms",
    "service.submit_p50_us",
    "service.submit_p99_us",
    "service.queue_wait_p50_us",
    "service.queue_wait_p99_us",
    "service.exec_p50_us",
    "service.exec_p99_us",
    "dispatch.attempt_p50_us",
    "service.requests_per_dispatch",
    "service.coalesced_share",
    "service.steals_per_1k",
    "dispatch.small_call_us",
    "engine.serial_small_us",
    "service.request_p90_us",
    "service.request_p99_us",
    "service.refused_per_1k",
    "generator.late_p99_us",
    "reconcile.service_uncovered",
    "trace.slowdown.service",
    "session.append_p90_us",
    "session.append_p99_us",
    "session.query_p50_us",
    "session.query_p99_us",
    "session.store_append_p50_us",
    "session.store_append_p99_us",
    "session.wal_write_p50_us",
    "session.wal_fsync_p50_us",
    "session.wal_fsync_p99_us",
    "session.apply_p50_us",
    "session.store_query_p50_us",
    "session.registry_wait_p99_us",
    "session.snapshot_ms",
    "session.recover_ms",
    "session.replayed_records",
    "reconcile.session_append_uncovered",
    "reconcile.session_query_uncovered",
    "trace.slowdown.session",
];

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operation accounting: refusals, typed errors and oracle mismatches all
/// count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that did not produce the oracle answer.
    pub failed: u64,
    /// The subset of `failed` that returned a wrong answer.
    pub mismatches: u64,
}

impl Tally {
    /// Count one operation whose output was checked: `matches` is the
    /// oracle verdict.
    pub fn check(&mut self, matches: bool) {
        self.attempted += 1;
        if !matches {
            self.failed += 1;
            self.mismatches += 1;
        }
    }

    /// Count one operation from its result: an error counts as failed, a
    /// value is checked against `expected`.
    pub fn judge<T: PartialEq, E>(&mut self, got: Result<T, E>, expected: &T) {
        match got {
            Ok(value) => self.check(value == *expected),
            Err(_) => self.error(),
        }
    }

    /// Count one refused or errored operation.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operation accounting.
    pub tally: Tally,
    /// Median of the pass's set-up repetitions, seconds.
    pub setup_s: f64,
    /// Work completed per second (the unit depends on the workload).
    pub throughput_per_s: f64,
    /// `(position, latency ns)` samples behind `latency_p50_us`; the
    /// position is a completion offset (ns) or a sequence number, in the
    /// unit of `window`.
    pub latency: Vec<(u64, u64)>,
    /// Latency quantiles are taken per window of this many position units
    /// and reported at the fast decile of windows ([`stats::windowed`]).
    pub window: u64,
    /// Numbers the per-layer report needs from inside the pass.
    pub facts: BTreeMap<&'static str, f64>,
    /// Human-readable configuration and sample counts.
    pub notes: Vec<(&'static str, String)>,
}

impl Pass {
    /// Latency `q`-quantile, microseconds (`NaN` without samples).
    pub fn latency_us(&self, q: f64) -> f64 {
        stats::windowed(&self.latency, self.window, q) / 1e3
    }

    /// Median latency, microseconds.
    pub fn p50_us(&self) -> f64 {
        self.latency_us(0.5)
    }

    /// A fact recorded by the pass (`NaN` when absent).
    pub fn fact(&self, name: &str) -> f64 {
        self.facts.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Share of `whole` that `parts` leave uncovered: `1 - parts / whole`.
pub fn uncovered(parts: f64, whole: f64) -> f64 {
    1.0 - parts / whole
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level list of `BENCHMARK.json`.
    fn names_in(spec: &str, list: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{list}\"")).expect("list present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn declared_metrics_match_the_benchmark_definition() {
        let spec = include_str!("../../BENCHMARK.json");
        assert_eq!(names_in(spec, "end_to_end"), E2E_METRICS);
        assert_eq!(names_in(spec, "per_layer"), LAYER_METRICS);
        assert_eq!(
            names_in(spec, "workloads"),
            ["batch_uniform", "service_small"]
        );
    }

    #[test]
    fn tally_counts_refusals_errors_and_mismatches_as_failed() {
        let mut t = Tally::default();
        t.judge(Ok::<_, ()>(1), &1);
        t.judge(Ok::<_, ()>(2), &1);
        t.judge(Err::<i32, _>(()), &1);
        t.error();
        assert_eq!((t.attempted, t.failed, t.mismatches), (4, 3, 1));
    }
}
