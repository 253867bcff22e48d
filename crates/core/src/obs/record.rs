//! The [`Recorder`] trait, the in-memory implementation, and snapshot
//! export (JSON and human-readable text).

use super::hist::{HistogramSnapshot, LatencyHistogram};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A sink for observability signals.
///
/// The library never requires a recorder: every instrumented site takes an
/// `Option<&dyn Recorder>` (usually via
/// [`RunContext`](crate::resilience::RunContext)) and compiles down to one
/// branch when none is installed — the differential tests pin that an
/// instrumented run is bit-for-bit identical to an uninstrumented one.
///
/// Implementations must be cheap and non-blocking on the hot path; the
/// in-tree [`MemoryRecorder`] uses lock-free atomics for every update after
/// first registration of a name.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Add `delta` to the monotonic counter `name`.
    fn counter(&self, name: &str, delta: u64);

    /// Set the gauge `name` to `value`.
    fn gauge(&self, name: &str, value: i64);

    /// Record one latency/duration sample for histogram `name`.
    fn duration_ns(&self, name: &str, nanos: u64);

    /// Record a discrete event: a stream name and a free-form detail. No
    /// library path emits one.
    fn event(&self, name: &str, detail: &str);
}

/// Maximum retained events; the buffer is a ring — once full, the
/// *oldest* event is evicted for each new arrival (count preserved in
/// `events_dropped`), so a snapshot always shows the most recent window.
const EVENT_CAP: usize = 1024;

/// One recorded [`Recorder::event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Event stream name, as the caller gave it.
    pub name: String,
    /// Event payload, as the caller gave it.
    pub detail: String,
}

/// The in-memory [`Recorder`]: named counters, gauges and
/// [`LatencyHistogram`]s behind a registry, snapshotted on demand.
///
/// Registration (first use of a name) takes a write lock; every subsequent
/// update is a read-lock + relaxed atomic, and histogram recording is
/// lock-free after lookup. Counter/gauge/histogram *names* should be
/// low-cardinality (`scope.metric` style) — this is a metrics registry,
/// not a tracing store.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    hists: RwLock<BTreeMap<String, Arc<LatencyHistogram>>>,
    events: Mutex<VecDeque<ObsEvent>>,
    events_dropped: AtomicU64,
}

impl MemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh recorder behind an `Arc<dyn Recorder>`, ready to install.
    pub fn shared() -> Arc<MemoryRecorder> {
        Arc::new(Self::new())
    }

    fn instrument<I>(registry: &RwLock<BTreeMap<String, Arc<I>>>, name: &str) -> Arc<I>
    where
        I: Default,
    {
        if let Some(found) = registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(found);
        }
        let mut reg = registry.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            reg.entry(name.to_owned())
                .or_insert_with(|| Arc::new(I::default())),
        )
    }

    /// The current value of counter `name` (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|c| c.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// The current value of gauge `name` (`None` if never set).
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|g| g.load(Ordering::Acquire))
    }

    /// Snapshot of histogram `name` (`None` if never recorded to).
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.hists
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|h| h.snapshot())
    }

    /// A coherent point-in-time copy of every instrument.
    pub fn snapshot(&self) -> ObsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Acquire)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Acquire)))
            .collect();
        let histograms = self
            .hists
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let events = self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect();
        ObsSnapshot {
            counters,
            gauges,
            histograms,
            events,
            events_dropped: self.events_dropped.load(Ordering::Acquire),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &str, delta: u64) {
        Self::instrument(&self.counters, name).fetch_add(delta, Ordering::Release);
    }

    fn gauge(&self, name: &str, value: i64) {
        Self::instrument(&self.gauges, name).store(value, Ordering::Release);
    }

    fn duration_ns(&self, name: &str, nanos: u64) {
        Self::instrument(&self.hists, name).record(nanos);
    }

    fn event(&self, name: &str, detail: &str) {
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() >= EVENT_CAP {
            // Ring semantics: evict the oldest so late-run events (the
            // ones a post-mortem actually wants) are always retained.
            events.pop_front();
            self.events_dropped.fetch_add(1, Ordering::Release);
        }
        events.push_back(ObsEvent {
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
    }
}

/// A point-in-time copy of a [`MemoryRecorder`]'s instruments, exportable
/// as JSON ([`ObsSnapshot::to_json`]) or human-readable text (`Display`).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained discrete events, in arrival order.
    pub events: Vec<ObsEvent>,
    /// Events discarded after the retention cap filled.
    pub events_dropped: u64,
}

/// Append `s` to `out` as a JSON string literal (quotes + escapes).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_hist_json(out: &mut String, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"underflow\":{},\"overflow\":{}}}",
        h.count,
        h.sum,
        h.max,
        h.mean().unwrap_or(0),
        h.p50().unwrap_or(0),
        h.p95().unwrap_or(0),
        h.p99().unwrap_or(0),
        h.underflow(),
        h.overflow(),
    ));
}

impl ObsSnapshot {
    /// Serialize the snapshot as a self-contained JSON object (no external
    /// dependencies; keys are sorted, so output is deterministic for a
    /// given state).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            push_hist_json(&mut out, h);
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &e.name);
            out.push_str(",\"detail\":");
            push_json_string(&mut out, &e.detail);
            out.push('}');
        }
        out.push_str(&format!("],\"events_dropped\":{}}}", self.events_dropped));
        out
    }
}

fn fmt_ns(nanos: u64) -> String {
    match nanos {
        n if n >= 1_000_000_000 => format!("{:.2}s", n as f64 / 1e9),
        n if n >= 1_000_000 => format!("{:.2}ms", n as f64 / 1e6),
        n if n >= 1_000 => format!("{:.2}µs", n as f64 / 1e3),
        n => format!("{n}ns"),
    }
}

impl fmt::Display for ObsSnapshot {
    /// The human-readable sink: one aligned line per instrument.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, v) in &self.counters {
                writeln!(f, "  {k:<44} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:<44} {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (k, h) in &self.histograms {
                writeln!(
                    f,
                    "  {k:<44} n={} mean={} p50={} p95={} p99={} max={}",
                    h.count,
                    h.mean().map(fmt_ns).unwrap_or_else(|| "-".into()),
                    h.p50().map(fmt_ns).unwrap_or_else(|| "-".into()),
                    h.p95().map(fmt_ns).unwrap_or_else(|| "-".into()),
                    h.p99().map(fmt_ns).unwrap_or_else(|| "-".into()),
                    fmt_ns(h.max),
                )?;
            }
        }
        if !self.events.is_empty() {
            writeln!(f, "events:")?;
            for e in &self.events {
                writeln!(f, "  {} {}", e.name, e.detail)?;
            }
        }
        if self.events_dropped > 0 {
            writeln!(f, "  ({} events dropped)", self.events_dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let rec = MemoryRecorder::new();
        rec.counter("a.count", 2);
        rec.counter("a.count", 3);
        rec.gauge("q.depth", 7);
        rec.gauge("q.depth", 4);
        rec.duration_ns("lat", 1_000);
        rec.duration_ns("lat", 2_000);
        rec.event("breaker.chunked", "closed->open");

        assert_eq!(rec.counter_value("a.count"), 5);
        assert_eq!(rec.counter_value("never"), 0);
        assert_eq!(rec.gauge_value("q.depth"), Some(4));
        assert_eq!(rec.gauge_value("never"), None);
        assert_eq!(rec.histogram("lat").unwrap().count, 2);
        assert!(rec.histogram("never").is_none());

        let snap = rec.snapshot();
        assert_eq!(snap.counters["a.count"], 5);
        assert_eq!(snap.gauges["q.depth"], 4);
        assert_eq!(snap.histograms["lat"].count, 2);
        assert_eq!(
            snap.events,
            vec![ObsEvent {
                name: "breaker.chunked".into(),
                detail: "closed->open".into()
            }]
        );
    }

    #[test]
    fn json_export_is_well_formed() {
        let rec = MemoryRecorder::new();
        rec.counter("c\"tricky\\name", 1);
        rec.duration_ns("lat", 5_000);
        rec.event("e", "line\nbreak");
        let json = rec.snapshot().to_json();
        // Structural sanity: balanced braces/brackets, escaped specials.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\\\"tricky\\\\name"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn text_export_mentions_every_instrument() {
        let rec = MemoryRecorder::new();
        rec.counter("done", 9);
        rec.gauge("depth", 3);
        rec.duration_ns("lat", 123_456);
        let text = rec.snapshot().to_string();
        assert!(text.contains("done"));
        assert!(text.contains("depth"));
        assert!(text.contains("lat"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn event_retention_is_capped() {
        let rec = MemoryRecorder::new();
        for i in 0..(EVENT_CAP + 10) {
            rec.event("e", &format!("{i}"));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAP);
        assert_eq!(snap.events_dropped, 10);
    }

    #[test]
    fn event_ring_evicts_oldest_keeps_newest() {
        // Regression: the buffer used to stop accepting once full, so a
        // long run's snapshot showed only its *first* EVENT_CAP events and
        // silently discarded everything recent. The ring must retain the
        // last EVENT_CAP events in arrival order.
        let rec = MemoryRecorder::new();
        let total = EVENT_CAP + 37;
        for i in 0..total {
            rec.event("e", &format!("{i}"));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAP);
        assert_eq!(snap.events_dropped, 37);
        assert_eq!(snap.events.first().unwrap().detail, format!("{}", 37));
        assert_eq!(snap.events.last().unwrap().detail, format!("{}", total - 1));
        // Still in arrival order across the eviction boundary.
        for (k, e) in snap.events.iter().enumerate() {
            assert_eq!(e.detail, format!("{}", 37 + k));
        }
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let rec = Arc::new(MemoryRecorder::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        rec.counter("hits", 1);
                        rec.duration_ns("lat", 500);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counter_value("hits"), 8_000);
        assert_eq!(rec.histogram("lat").unwrap().count, 8_000);
    }
}
