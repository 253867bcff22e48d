//! # Observability
//!
//! A zero-dependency metrics and phase-tracing subsystem.
//!
//! The paper's entire evaluation (§4–§5) rests on *measuring* the four
//! spinetree phases — SPINETREE, ROWSUMS, SPINESUMS, MULTISUMS — and on
//! tuning the row length `p ≈ 0.749√n` from those measurements. This
//! module is how that measurement happens in-tree:
//!
//! * [`Recorder`] — the sink trait: monotonic counters, gauges and latency
//!   histograms. Everything in the library records through an
//!   `Option<Arc<dyn Recorder>>`; when none is installed the
//!   instrumented code paths reduce to a single branch and **no clock
//!   reads happen at all** (pinned by the differential tests).
//! * [`MemoryRecorder`] — the in-tree implementation: lock-free
//!   fixed-bucket [`LatencyHistogram`]s (quarter-octave geometric grid,
//!   256 ns – ~9 min, p50/p95/p99 from snapshots) behind a name registry,
//!   with [`ObsSnapshot`] export as JSON ([`ObsSnapshot::to_json`]) or
//!   aligned text (`Display`).
//! * [`Phase`] / [`phase_key`] — the span taxonomy. Engine phases map
//!   one-to-one onto the paper's §4 breakdown so a bench report reads
//!   like the paper's tables.
//! * [`Span`] — a drop guard that times a region into a histogram, only
//!   when a recorder is installed.
//!
//! ## Instrument naming
//!
//! Names are `scope.metric` strings, always `&'static str` on hot paths
//! (no per-call allocation):
//!
//! | scope | instruments |
//! |---|---|
//! | `engine.<kind>.phase.<phase>` | histogram: per-phase wall time |
//! | `dispatch.<kind>` | `attempt_ns` histogram, `attempts` counter (one per chain entry run) |
//! | `dispatch` | `requests`, `fallbacks` counters |
//! | `service.queue` | `depth` gauge, `wait_ns` histogram |
//! | `service.exec` | `exec_ns` histogram |
//! | `service` | `admitted`, `completed`, `shed`, `expired`, `cancelled`, `worker_lost`, `failed` counters (mirrors [`ServiceMetrics`](crate::service::ServiceMetrics)) |
//! | `shard.supervisor` | `shard_lost`, `requeued`, `degraded` counters |
//! | `shard.net.conn_dead` | `damage`, `decode`, `closed` counters: socket connections the supervisor's reader lost outside wind-down, by cause (a frame failed a check; a verified frame failed to decode; EOF or an I/O error). `damage` counts only worker → supervisor frames: a damaged supervisor → worker frame is failed by the worker, which shuts the socket, so it counts as `closed` |

mod hist;
mod record;

pub use hist::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram, NUM_BUCKETS};
pub use record::{MemoryRecorder, ObsSnapshot, Recorder};

use crate::api::Engine;
use std::time::Instant;

/// An algorithm phase, named after the paper's §4 cost breakdown.
///
/// The spinetree engines ([`Engine::Spinetree`], [`Engine::Atomic`])
/// run `Init → Spinetree → Rowsums → Spinesums → Multisums`; the chunked
/// engine's three passes are `Local → Combine → Apply`; the
/// serial engine is the single `Figure2` bucket loop. The sharded engine
/// distributes the same three passes across shard workers as
/// `Local → Exscan → Apply`, with `Recover` timing any shard-loss
/// requeue/degradation work in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Workspace allocation / layout choice before the first parallel step.
    Init,
    /// Build the spinetree (the paper's SPINETREE phase).
    Spinetree,
    /// Per-row segmented sums (ROWSUMS).
    Rowsums,
    /// Scan across row summaries along the spine (SPINESUMS).
    Spinesums,
    /// Final per-element combination (MULTISUMS).
    Multisums,
    /// Chunked engine pass 1: chunk-local buckets.
    Local,
    /// Chunked engine pass 2: per-label scan across chunk summaries.
    Combine,
    /// Chunked engine pass 3: prepend each chunk's per-label offsets.
    Apply,
    /// The serial engine's Figure 2 loop (one undivided phase).
    Figure2,
    /// Sharded engine: exclusive scan over shard summaries (the distributed
    /// form of [`Phase::Combine`]).
    Exscan,
    /// Sharded engine: shard-loss recovery work — requeues and the
    /// single-node degradation fallback.
    Recover,
}

impl Phase {
    /// The lowercase name used in instrument keys and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Spinetree => "spinetree",
            Phase::Rowsums => "rowsums",
            Phase::Spinesums => "spinesums",
            Phase::Multisums => "multisums",
            Phase::Local => "local",
            Phase::Combine => "combine",
            Phase::Apply => "apply",
            Phase::Figure2 => "figure2",
            Phase::Exscan => "exscan",
            Phase::Recover => "recover",
        }
    }

    /// The phases an engine reports, in execution order.
    ///
    /// `Recover` appears in the sharded taxonomy but only records samples
    /// when shard loss actually occurs; report consumers must tolerate a
    /// zero-sample phase.
    pub fn for_engine(engine: Engine) -> &'static [Phase] {
        match engine {
            Engine::Spinetree | Engine::Atomic => &[
                Phase::Init,
                Phase::Spinetree,
                Phase::Rowsums,
                Phase::Spinesums,
                Phase::Multisums,
            ],
            Engine::Auto | Engine::Chunked => &[Phase::Local, Phase::Combine, Phase::Apply],
            Engine::Sharded => &[Phase::Local, Phase::Exscan, Phase::Recover, Phase::Apply],
            Engine::Serial => &[Phase::Figure2],
        }
    }
}

/// The histogram key for one engine phase, e.g.
/// `engine.spinetree.phase.rowsums`; [`Engine::Auto`] is keyed as the
/// chunked engine it runs.
///
/// Returns a `&'static str` (no allocation) for every valid
/// (engine, phase) pair; pairs outside [`Phase::for_engine`] still get a
/// stable key so ad-hoc instrumentation cannot panic.
pub fn phase_key(engine: Engine, phase: Phase) -> &'static str {
    macro_rules! keys {
        ($($eng:ident / $en:literal),+; $phases:tt) => {
            match engine {
                $(Engine::$eng => keys!(@phase $en $phases),)+
                Engine::Auto => phase_key(Engine::Chunked, phase),
            }
        };
        (@phase $en:literal [$($ph:ident / $pn:literal),+]) => {
            match phase {
                $(Phase::$ph => concat!("engine.", $en, ".phase.", $pn),)+
            }
        };
    }
    keys!(
        Atomic / "atomic", Sharded / "shard", Chunked / "chunked", Spinetree / "spinetree",
        Serial / "serial";
        [
            Init / "init", Spinetree / "spinetree", Rowsums / "rowsums",
            Spinesums / "spinesums", Multisums / "multisums", Local / "local",
            Combine / "combine", Apply / "apply", Figure2 / "figure2", Exscan / "exscan",
            Recover / "recover"
        ]
    )
}

/// The dispatcher's static (allocation-free) instrument keys for one
/// engine: `[attempt latency histogram, attempts counter]`.
/// [`Engine::Auto`] is keyed as the chunked engine it runs.
pub(crate) fn dispatch_keys(engine: Engine) -> [&'static str; 2] {
    macro_rules! keys {
        ($($eng:ident / $en:literal),+) => {
            match engine {
                $(Engine::$eng => [
                    concat!("dispatch.", $en, ".attempt_ns"),
                    concat!("dispatch.", $en, ".attempts"),
                ],)+
                Engine::Auto => dispatch_keys(Engine::Chunked),
            }
        };
    }
    keys!(
        Atomic / "atomic",
        Sharded / "shard",
        Chunked / "chunked",
        Spinetree / "spinetree",
        Serial / "serial"
    )
}

/// A drop guard that times a region into the histogram `name`.
///
/// [`Span::begin`] returns `None` — and reads no clock — when no recorder
/// is installed, so the idiom
///
/// ```
/// # use multiprefix::obs::{Recorder, Span};
/// # fn work(rec: Option<&dyn Recorder>) {
/// let _span = Span::begin(rec, "engine.serial.phase.figure2");
/// // ... timed region ...
/// # }
/// ```
///
/// costs exactly one branch in the uninstrumented case.
#[derive(Debug)]
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    name: &'static str,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Start timing `name`, if a recorder is installed.
    #[inline]
    pub fn begin(rec: Option<&'a dyn Recorder>, name: &'static str) -> Option<Span<'a>> {
        rec.map(|rec| Span {
            rec,
            name,
            start: Instant::now(),
        })
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.rec.duration_ns(self.name, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_keys_are_static_and_distinct_per_engine() {
        let mut seen = std::collections::HashSet::new();
        for engine in Engine::ALL {
            for &phase in Phase::for_engine(engine) {
                let key = phase_key(engine, phase);
                assert!(key.starts_with("engine."), "{key}");
                assert!(key.contains(phase.name()), "{key}");
                assert!(seen.insert(key), "duplicate key {key}");
            }
        }
        // Off-taxonomy pairs still resolve without panicking.
        assert_eq!(
            phase_key(Engine::Serial, Phase::Rowsums),
            "engine.serial.phase.rowsums"
        );
    }

    #[test]
    fn span_records_exactly_one_sample() {
        let rec = MemoryRecorder::new();
        {
            let _span = Span::begin(Some(&rec as &dyn Recorder), "t.span");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let h = rec.histogram("t.span").expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.max >= 1_000_000, "slept >= 1ms, saw {}ns", h.max);
    }

    #[test]
    fn span_without_recorder_is_inert() {
        assert!(Span::begin(None, "t.none").is_none());
    }
}
