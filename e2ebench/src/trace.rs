//! The traced run's span store: one span around each call the benchmark
//! makes into a layer's public functions, kept in memory and written out
//! as JSON lines when the run ends.

use crate::stats::ns;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use multiprefix::MemoryRecorder;

/// One recorded span. `parent == 0` marks a root; spans of one request
/// share `req`.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Span id (from 1).
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Layer call, e.g. `service.try_submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Everything a traced pass carries: the span store and the library's
/// own in-memory recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// Installed into the library through its public `recorder` hooks.
    pub recorder: Arc<MemoryRecorder>,
}

impl Tracer {
    /// An empty store with a fresh recorder.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            recorder: MemoryRecorder::shared(),
        }
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record span `id` (from [`Tracer::id`]) covering `start..end`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let rec = SpanRec {
            id,
            parent,
            req,
            name,
            start_ns: ns(start.saturating_duration_since(self.epoch)),
            end_ns: ns(end.saturating_duration_since(self.epoch)),
        };
        self.spans.lock().expect("span store poisoned").push(rec);
    }

    /// Time `f` as a new span; returns its result and duration (ns).
    pub fn span<R>(
        &self,
        parent: u64,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(self.id(), parent, req, name, start, end);
        (out, ns(end - start))
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Time `f`, recording a span only when tracing; returns its result and
/// duration (ns).
pub fn span<R>(
    tracer: Option<&Tracer>,
    parent: u64,
    req: u64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match tracer {
        Some(t) => t.span(parent, req, name, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, ns(start.elapsed()))
        }
    }
}
