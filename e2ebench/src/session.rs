//! `session_stream`: durable streaming sessions in a closed loop. Two
//! client threads each own one session opened through one `Service`
//! (default fsync-per-record durability, m = 64) and repeat: one
//! `session_append`, then [`QUERIES`] `session_query` calls at random
//! earlier indices, plus a `session_snapshot` every [`SNAPSHOT_EVERY`]
//! appends. Each query is checked against a [`Shadow`] prefix model.
//! Each session directory is prefilled, untimed, with a snapshot plus a
//! WAL tail, so opening it runs real recovery.

use crate::inputs::{SplitMix64, TAG_SESSION};
use crate::stats::{by_window, fast_decile, median, ns, q_ms, q_us};
use crate::trace::{span, Tracer};
use crate::{metric, uncovered, Metric, Pass, Tally};
use multiprefix::op::Plus;
use multiprefix::service::{Service, ServiceConfig, SessionId};
use multiprefix::session::wal::WalWriter;
use multiprefix::session::WalRecord;
use multiprefix::{DurableSession, Recorder, SessionCore, SessionOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, one session each.
pub const CLIENTS: usize = 2;
/// Labels per session.
pub const M: usize = 64;
/// Prefilled elements captured by the snapshot.
pub const PREFILL_SNAPSHOT: usize = 20_000;
/// Prefilled elements left in the WAL tail after the snapshot.
pub const PREFILL_TAIL: usize = 2_000;
/// Queries after each append.
pub const QUERIES: usize = 3;
/// Appends between explicit snapshots, per client.
pub const SNAPSHOT_EVERY: u64 = 250;
/// Append percentiles and throughput are taken per window of this length
/// (ns); see [`crate::stats::windowed`].
pub const WINDOW_NS: u64 = 250_000_000;
/// Rounds (append + queries) each client makes per second of `--seconds`.
/// The work is fixed rather than the time, so the store, and with it the
/// process's peak memory, reaches the same size on every run; on the
/// reference host a run takes about `--seconds`.
pub const ROUNDS_PER_S: f64 = 3_000.0;
/// Set-up repetitions whose median is the set-up time.
pub const SETUP_REPS: usize = 5;
/// Records written by the traced run's side-store probe.
pub const PROBE_RECORDS: usize = 1_000;

/// A client's operation stream: labels, values and query positions.
#[derive(Debug, Clone)]
pub struct ClientOps(SplitMix64);

impl ClientOps {
    /// The stream of client `client` for `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        ClientOps(SplitMix64::new(seed ^ (client << 48), TAG_SESSION + 16))
    }

    /// The next element to append.
    pub fn next_append(&mut self) -> (usize, i64) {
        (self.0.below(M), self.0.value())
    }

    /// A uniformly random earlier index of a log of `len` elements.
    pub fn query_index(&mut self, len: usize) -> u64 {
        self.0.below(len) as u64
    }
}

/// The prefill of client `client`'s session: snapshot part then tail.
pub fn prefill(seed: u64, client: u64) -> Vec<(usize, i64)> {
    let mut rng = SplitMix64::new(seed ^ (client << 48), TAG_SESSION);
    (0..PREFILL_SNAPSHOT + PREFILL_TAIL)
        .map(|_| (rng.below(M), rng.value()))
        .collect()
}

/// The benchmark's own model of a session: every element and its
/// exclusive per-label prefix, which appends never change.
#[derive(Debug, Clone, Default)]
pub struct Shadow {
    labels: Vec<usize>,
    values: Vec<i64>,
    prefix: Vec<i64>,
    totals: Vec<i64>,
}

impl Shadow {
    /// An empty model over [`M`] labels.
    pub fn new() -> Self {
        Shadow {
            totals: vec![0; M],
            ..Shadow::default()
        }
    }

    /// Model one append; returns the index the store must assign.
    pub fn append(&mut self, label: usize, value: i64) -> u64 {
        self.labels.push(label);
        self.values.push(value);
        self.prefix.push(self.totals[label]);
        self.totals[label] = self.totals[label].wrapping_add(value);
        self.prefix.len() as u64 - 1
    }

    /// Elements modelled.
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Whether nothing is modelled.
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// The answer `session_query(index)` must give.
    pub fn expected(&self, index: u64) -> i64 {
        self.prefix[index as usize]
    }

    /// Whether a store's `(values, labels)` log is exactly the model's.
    pub fn matches_log(&self, log: &(Vec<i64>, Vec<usize>)) -> bool {
        log.0 == self.values && log.1 == self.labels
    }
}

/// What one client measured.
#[derive(Debug, Default)]
struct ClientOut {
    tally: Tally,
    append: Vec<(u64, u64)>,
    /// `(completion offset, operations)` of each round.
    rounds: Vec<(u64, u64)>,
    query_ns: Vec<u64>,
    snapshot_ns: Vec<u64>,
}

fn client(
    service: &Service<i64, Plus>,
    id: SessionId,
    k: u64,
    shadow: &mut Shadow,
    ops: &mut ClientOps,
    (start, rounds, end): (Instant, u64, Instant),
    tracer: Option<&Tracer>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut acked = 0u64;
    let mut round = 0u64;
    while round < rounds && Instant::now() < end {
        let req = (k << 40) | round;
        let root = tracer.map_or(0, Tracer::id);
        let t0 = Instant::now();
        let (label, value) = ops.next_append();
        let (appended, dt) = span(tracer, root, req, "service.session_append", || {
            service.session_append(id, label, value)
        });
        out.append.push((ns(start.elapsed()), dt));
        let snapshot_due = match appended {
            Ok(index) => {
                acked += 1;
                out.tally.check(index == shadow.append(label, value));
                acked.is_multiple_of(SNAPSHOT_EVERY)
            }
            Err(_) => {
                out.tally.error();
                false
            }
        };
        for _ in 0..QUERIES {
            let index = ops.query_index(shadow.len());
            let (got, dt) = span(tracer, root, req, "service.session_query", || {
                service.session_query(id, index)
            });
            out.query_ns.push(dt);
            out.tally.judge(got, &shadow.expected(index));
        }
        if snapshot_due {
            let (cut, dt) = span(tracer, root, req, "service.session_snapshot", || {
                service.session_snapshot(id)
            });
            out.snapshot_ns.push(dt);
            out.tally.judge(cut.map(|_| ()), &());
        }
        let round_ops = 1 + QUERIES as u64 + u64::from(snapshot_due);
        out.rounds.push((ns(start.elapsed()), round_ops));
        if let Some(tr) = tracer {
            tr.record(root, 0, req, "session.round", t0, Instant::now());
        }
        round += 1;
    }
    out
}

fn storage(e: impl std::fmt::Display) -> String {
    format!("session storage: {e}")
}

/// Write client `k`'s prefill into `dir`: a snapshot, then a WAL tail.
fn write_prefill(dir: &Path, items: &[(usize, i64)]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(storage)?;
    }
    let opts = SessionOptions {
        no_sync: true,
        ..SessionOptions::default()
    };
    let mut store = DurableSession::open(dir, M, Plus, opts).map_err(storage)?;
    for (i, &(label, value)) in items.iter().enumerate() {
        if i == PREFILL_SNAPSHOT {
            store.snapshot().map_err(storage)?;
        }
        store.append(label, value).map_err(storage)?;
    }
    store.close().map_err(storage)
}

fn service_config(tracer: Option<&Tracer>) -> ServiceConfig {
    ServiceConfig {
        recorder: tracer.map(|t| Arc::clone(&t.recorder) as Arc<dyn Recorder>),
        ..ServiceConfig::default()
    }
}

/// One pass in `work`: prefill, set-up (timed), the closed loop of
/// [`ROUNDS_PER_S`] × `secs` rounds per client, then the durability check. `Err` is an accounting or
/// storage failure.
pub fn pass(seed: u64, secs: f64, work: &Path, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let dirs: Vec<PathBuf> = (0..CLIENTS)
        .map(|k| work.join(format!("session-{k}")))
        .collect();
    let mut shadows = Vec::new();
    for (k, dir) in dirs.iter().enumerate() {
        let items = prefill(seed, k as u64);
        write_prefill(dir, &items)?;
        let mut shadow = Shadow::new();
        for &(label, value) in &items {
            shadow.append(label, value);
        }
        shadows.push(shadow);
    }

    // Set-up: `Service::new` plus both recoveries, repeated; recovery of
    // an undamaged store leaves its directory as it found it.
    let mut setups = Vec::new();
    let mut opened = None;
    for rep in 0..SETUP_REPS {
        if let Some((service, ids)) = opened.take() {
            close_all(&service, ids)?;
        }
        let start = Instant::now();
        let service = Service::<i64, Plus>::new(Plus, service_config(tracer)).map_err(storage)?;
        let mut ids = Vec::new();
        for dir in &dirs {
            let (id, _) = span(tracer, 0, rep as u64, "service.open_session", || {
                service.open_session(dir, M, SessionOptions::default())
            });
            ids.push(id.map_err(storage)?);
        }
        setups.push(start.elapsed().as_secs_f64());
        opened = Some((service, ids));
    }
    let (service, ids) = opened.expect("at least one set-up repetition");
    let report = service.session_recovery_report(ids[0]).map_err(storage)?;

    let start = Instant::now();
    let rounds = (ROUNDS_PER_S * secs) as u64;
    // A slow host gets three times the nominal time before the loop stops
    // short of its rounds.
    let end = start + Duration::from_secs_f64(3.0 * secs);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = shadows
            .iter_mut()
            .zip(&ids)
            .enumerate()
            .map(|(k, (shadow, &id))| {
                let service = &service;
                s.spawn(move || {
                    let mut ops = ClientOps::new(seed, k as u64);
                    client(
                        service,
                        id,
                        k as u64,
                        shadow,
                        &mut ops,
                        (start, rounds, end),
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session client panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    close_all(&service, ids)?;
    drop(service);

    // Durability: every acknowledged append, and nothing else, is in the
    // store as recovered from disk.
    for (dir, shadow) in dirs.iter().zip(&shadows) {
        let opts = SessionOptions {
            no_sync: true,
            ..SessionOptions::default()
        };
        let store = DurableSession::open(dir, M, Plus, opts).map_err(storage)?;
        if store.len() != shadow.len() || !shadow.matches_log(&store.as_batch()) {
            return Err(format!(
                "session accounting: store at {} holds {} elements, {} acknowledged",
                dir.display(),
                store.len(),
                shadow.len()
            ));
        }
        store.close().map_err(storage)?;
    }

    let mut tally = Tally::default();
    let (mut append, mut query_ns, mut snapshot_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut done = Vec::new();
    for o in outs {
        tally.add(o.tally);
        append.extend(o.append);
        done.extend(o.rounds);
        query_ns.extend(o.query_ns);
        snapshot_ns.extend(o.snapshot_ns);
    }
    // Operations per second in each whole window.
    let per_window = by_window(&done, WINDOW_NS);
    let whole = (elapsed * 1e9) as u64 / WINDOW_NS;
    let mut rates: Vec<f64> = (0..whole)
        .map(|k| per_window.get(&k).map_or(0, |w| w.iter().sum::<u64>()) as f64)
        .map(|ops| ops / (WINDOW_NS as f64 / 1e9))
        .collect();
    let mut pass = Pass {
        tally,
        setup_s: median(&mut setups),
        throughput_per_s: fast_decile(&mut rates, false),
        latency: append,
        window: WINDOW_NS,
        ..Pass::default()
    };
    pass.facts
        .insert("replayed_records", report.replayed_records as f64);
    pass.facts.insert("append_p99_us", pass.latency_us(0.99));
    pass.facts.insert("query_p50_us", q_us(&mut query_ns, 0.5));
    pass.facts.insert("query_p99_us", q_us(&mut query_ns, 0.99));
    pass.facts
        .insert("snapshot_ms", q_ms(&mut snapshot_ns, 0.5));
    pass.notes.push(("appends", pass.latency.len().to_string()));
    pass.notes.push(("queries", query_ns.len().to_string()));
    pass.notes
        .push(("snapshots", snapshot_ns.len().to_string()));
    pass.notes.push(("rounds_per_client", rounds.to_string()));
    pass.notes.push(("elapsed_s", format!("{elapsed:.2}")));
    Ok(pass)
}

fn close_all(service: &Service<i64, Plus>, ids: Vec<SessionId>) -> Result<(), String> {
    for id in ids {
        service.session_close(id).map_err(storage)?;
    }
    Ok(())
}

/// Per-layer metrics from a traced pass, plus the side-store probe of the
/// WAL and the in-memory engine.
pub fn layers(
    seed: u64,
    work: &Path,
    tr: &Tracer,
    traced: &Pass,
    untraced: &Pass,
) -> Result<(Vec<Metric>, Tally), String> {
    let tally = probe(seed, work, tr)?;
    let span_us = |name: &str, q: f64| q_us(&mut tr.durations(name), q);
    let hist_us = |name: &str, q: f64| {
        tr.recorder
            .histogram(name)
            .and_then(|h| h.quantile(q))
            .map_or(f64::NAN, |v| v as f64 / 1e3)
    };
    let store_append = hist_us("session.append", 0.5);
    let store_query = hist_us("session.query", 0.5);
    let (write, fsync, apply) = (
        span_us("session.wal_write", 0.5),
        span_us("session.wal_fsync", 0.5),
        span_us("session.apply", 0.5),
    );
    let metrics = vec![
        metric("session.append_p90_us", untraced.latency_us(0.9), "us"),
        metric(
            "session.append_p99_us",
            untraced.fact("append_p99_us"),
            "us",
        ),
        metric("session.query_p50_us", untraced.fact("query_p50_us"), "us"),
        metric("session.query_p99_us", untraced.fact("query_p99_us"), "us"),
        metric("session.store_append_p50_us", store_append, "us"),
        metric(
            "session.store_append_p99_us",
            hist_us("session.append", 0.99),
            "us",
        ),
        metric("session.wal_write_p50_us", write, "us"),
        metric("session.wal_fsync_p50_us", fsync, "us"),
        metric(
            "session.wal_fsync_p99_us",
            span_us("session.wal_fsync", 0.99),
            "us",
        ),
        metric("session.apply_p50_us", apply, "us"),
        metric("session.store_query_p50_us", store_query, "us"),
        metric(
            "session.registry_wait_p99_us",
            traced.fact("query_p99_us") - hist_us("session.query", 0.99),
            "us",
        ),
        metric("session.snapshot_ms", traced.fact("snapshot_ms"), "ms"),
        metric(
            "session.recover_ms",
            q_ms(&mut tr.durations("service.open_session"), 0.5),
            "ms",
        ),
        metric(
            "session.replayed_records",
            traced.fact("replayed_records"),
            "count",
        ),
        metric(
            "reconcile.session_append_uncovered",
            uncovered(write + fsync + apply, store_append),
            "share",
        ),
        metric(
            "reconcile.session_query_uncovered",
            uncovered(store_query, traced.fact("query_p50_us")),
            "share",
        ),
        metric(
            "trace.slowdown.session",
            traced.p50_us() / untraced.p50_us(),
            "ratio",
        ),
    ];
    Ok((metrics, tally))
}

/// On a side store: time `WalWriter::append` without per-record sync,
/// then `WalWriter::sync`, then `SessionCore::append` of the same element
/// onto the prefilled log.
fn probe(seed: u64, work: &Path, tr: &Tracer) -> Result<Tally, String> {
    let path = work.join("side.mpwl");
    let _ = std::fs::remove_file(&path);
    let mut wal = WalWriter::create::<i64>(&path, 0, 0, M as u64, false, None).map_err(storage)?;
    let items = prefill(seed, 0);
    let mut core = SessionCore::from_batch(M, Plus, items.iter().copied()).map_err(storage)?;
    let mut shadow = Shadow::new();
    for &(label, value) in &items {
        shadow.append(label, value);
    }
    let mut ops = ClientOps::new(seed, CLIENTS as u64);
    let mut tally = Tally::default();
    for i in 0..PROBE_RECORDS as u64 {
        let (label, value) = ops.next_append();
        let record = WalRecord::Append {
            label: label as u64,
            value,
        };
        let (written, _) = tr.span(0, i, "session.wal_write", || wal.append(&record));
        tally.judge(written, &());
        let (synced, _) = tr.span(0, i, "session.wal_fsync", || wal.sync("probe.sync"));
        tally.judge(synced, &());
        let (index, _) = tr.span(0, i, "session.apply", || core.append(label, value));
        tally.judge(index, &shadow.append(label, value));
    }
    drop(wal);
    std::fs::remove_file(&path).map_err(storage)?;
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for k in 0..CLIENTS as u64 {
            let (labels, values): (Vec<usize>, Vec<i64>) = prefill(seed, k).into_iter().unzip();
            bytes.extend(crate::inputs::to_bytes(&values, &labels));
            let mut ops = ClientOps::new(seed, k);
            for len in 1..1000 {
                let (label, value) = ops.next_append();
                bytes.extend(crate::inputs::to_bytes(&[value], &[label]));
                bytes.extend(ops.query_index(len).to_le_bytes());
            }
        }
        bytes
    }

    #[test]
    fn seed_fixes_the_session_streams() {
        assert_eq!(stream_bytes(11), stream_bytes(11));
        assert_ne!(stream_bytes(11), stream_bytes(12));
    }

    #[test]
    fn shadow_rejects_a_corrupted_query_answer() {
        let mut shadow = Shadow::new();
        let mut core = SessionCore::new(M, Plus);
        let mut ops = ClientOps::new(5, 0);
        for _ in 0..500 {
            let (label, value) = ops.next_append();
            assert_eq!(
                core.append(label, value).ok(),
                Some(shadow.append(label, value))
            );
        }
        let mut tally = Tally::default();
        for index in 0..500 {
            tally.judge(core.prefix_query(index), &shadow.expected(index));
        }
        assert_eq!(tally.failed, 0);
        let wrong = core.prefix_query(17).map(|v| v.wrapping_add(1));
        tally.judge(wrong, &shadow.expected(17));
        assert_eq!((tally.failed, tally.mismatches), (1, 1));
        let mut log = core.as_batch();
        assert!(shadow.matches_log(&log));
        log.0[3] ^= 1;
        assert!(!shadow.matches_log(&log));
    }
}
