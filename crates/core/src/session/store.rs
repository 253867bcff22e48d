//! The durable session store: WAL-then-apply writes, generation-chained
//! snapshots, and crash-exact recovery.
//!
//! ## On-disk layout
//!
//! A store directory holds at most two *generations* of state:
//!
//! ```text
//! store/
//!   snap-00000003.mpss     older snapshot (fallback)
//!   wal-00000003.mpwl      its WAL segment (sealed at the cut)
//!   snap-00000004.mpss     newest snapshot
//!   wal-00000004.mpwl      the live segment (appends go here)
//! ```
//!
//! Every mutation is WAL-first: the record is framed, written and fsynced
//! *before* the in-memory Fenwick forest applies it, so an `Ok` from
//! [`DurableSession::append`]/[`DurableSession::update`] is a durability
//! acknowledgment. A snapshot rotates the chain under the session's
//! exclusive borrow: a new segment `wal-(g+1)` opens with a
//! [`Segment`](WalRecord::Segment) header carrying the exact operation
//! count at the cut, *then* the image `snap-(g+1)` is written atomically,
//! *then* generations `≤ g−1` are reaped. A crash between any two of
//! those steps leaves a recoverable chain — the new segment's header
//! binds it to the cut, so recovery from the *older* snapshot replays
//! through both segments and lands on the same state.
//!
//! ## Recovery state machine
//!
//! ```text
//! pick snapshot:  newest valid snap-g  (corrupt → fall back a
//!                 generation, counting `session.recovery.snapshot_fallback`;
//!                 none at all → empty state at gen 0)
//! replay chain:   for g, g+1, …: scan wal-g strictly
//!   header        must be Segment{base_ops == ops so far, gen == g, m}
//!   records       applied in order; each is one operation
//!   damage        in the FINAL segment → truncate the file at the last
//!                 whole record (`session.recovery.truncated_tail`)
//!                 in a NON-final segment → fail closed (CorruptStore)
//!   headerless    final segment with no valid header and no records:
//!                 an aborted rotation — the file is removed
//! self-check:     segment the restored log and cross-check the Fenwick
//!                 forest against `exscan_over_summaries` (totals and
//!                 per-segment carries) before trusting the store
//! ```
//!
//! Anything the machine cannot prove consistent is a typed
//! [`MpError::CorruptStore`] — never a panic, never silently partial
//! state.

use super::engine::SessionCore;
use super::snapshot::{read_snapshot, write_snapshot, SnapshotImage};
use super::wal::{scan_wal, WalRecord, WalWriter};
use crate::error::MpError;
use crate::obs::Recorder;
use crate::op::InvertibleOp;
use crate::problem::Element;
use crate::resilience::chaos::ChaosState;
use crate::shard::net::wire::WireValue;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tuning and wiring for a [`DurableSession`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Automatically snapshot after this many operations since the last
    /// cut (`None`: only on explicit [`DurableSession::snapshot`] calls).
    pub snapshot_every: Option<u64>,
    /// fsync the WAL after every record (the default durability
    /// contract). Turning this off trades crash-exactness of the last few
    /// operations for throughput — recovery is still torn-tail safe.
    pub no_sync: bool,
    /// Injected storage faults (armed [`ChaosPlan`]).
    ///
    /// [`ChaosPlan`]: crate::resilience::ChaosPlan
    pub chaos: Option<Arc<ChaosState>>,
    /// Observability sink for `session.*` counters and spans.
    pub recorder: Option<Arc<dyn Recorder>>,
}

/// What recovery did to open the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation the session resumed at.
    pub gen: u64,
    /// Operations restored from the snapshot image.
    pub snapshot_ops: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Whether a damaged/torn WAL tail was truncated.
    pub truncated_tail: bool,
    /// Corrupt snapshot generations skipped before one verified.
    pub snapshot_fallbacks: u64,
}

fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:08}.mpwl"))
}

fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen:08}.mpss"))
}

/// Generations present in `dir` for files `<prefix><gen><suffix>`,
/// newest first.
fn list_gens(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>, MpError> {
    let mut gens = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| MpError::Storage {
        op: "store.list",
        kind: e.kind(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| MpError::Storage {
            op: "store.list",
            kind: e.kind(),
        })?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix(prefix)
            .and_then(|r| r.strip_suffix(suffix))
        {
            if let Ok(g) = num.parse::<u64>() {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

fn snapshot_gens(dir: &Path) -> Result<Vec<u64>, MpError> {
    list_gens(dir, "snap-", ".mpss")
}

fn wal_gens(dir: &Path) -> Result<Vec<u64>, MpError> {
    list_gens(dir, "wal-", ".mpwl")
}

/// A crash-durable incremental multiprefix session: a [`SessionCore`]
/// whose every mutation is WAL-acknowledged before it is applied, with
/// snapshot/recovery machinery around it.
pub struct DurableSession<T, O> {
    core: SessionCore<T, O>,
    wal: WalWriter,
    dir: PathBuf,
    /// Total operations applied (appends + updates) since the store was
    /// created — the chain coordinate snapshots and segment headers bind.
    ops: u64,
    ops_at_cut: u64,
    gen: u64,
    opts: SessionOptions,
    /// Set when the backing segment can no longer be trusted (torn
    /// write): mutations fail closed until a successful snapshot rotates
    /// to a fresh segment.
    poisoned: bool,
    last_report: RecoveryReport,
}

impl<T, O> std::fmt::Debug for DurableSession<T, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("dir", &self.dir)
            .field("gen", &self.gen)
            .field("ops", &self.ops)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl<T, O> DurableSession<T, O>
where
    T: Element + WireValue + PartialEq,
    O: InvertibleOp<T>,
{
    /// Open (or create) the store at `dir` for `m` buckets, running the
    /// recovery state machine over whatever the directory holds.
    pub fn open(dir: &Path, m: usize, op: O, opts: SessionOptions) -> Result<Self, MpError> {
        let start = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| MpError::Storage {
            op: "store.open",
            kind: e.kind(),
        })?;
        let mut report = RecoveryReport::default();

        // 1. Newest snapshot that verifies; corrupt generations fall back.
        let mut base: Option<SnapshotImage<T>> = None;
        for g in snapshot_gens(dir)? {
            match read_snapshot::<T>(&snap_path(dir, g)) {
                Ok(Some(img)) if img.gen == g && img.m == m as u64 => {
                    base = Some(img);
                    break;
                }
                Ok(_) | Err(MpError::CorruptStore { .. }) => {
                    report.snapshot_fallbacks += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let have_snapshot = base.is_some();
        let (restored, mut ops, base_gen) = match base {
            Some(img) => {
                report.snapshot_ops = img.ops;
                let elems = img
                    .elems
                    .into_iter()
                    .map(|(l, v)| (l as usize, v))
                    .collect::<Vec<_>>();
                (elems, img.ops, img.gen)
            }
            None => (Vec::new(), 0, 0),
        };

        // Bulk rebuild: one vectorizable scan per label instead of
        // `O(log n)` combines per restored element (bit-identical trees).
        let mut core = SessionCore::from_batch(m, op, restored)?;

        // 2. Replay the WAL chain from the snapshot generation forward.
        let mut gen = base_gen;
        let mut last_good: Option<(u64, u32)> = None;
        loop {
            let path = wal_path(dir, gen);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    if gen == base_gen && have_snapshot {
                        // A snapshot's own segment is created (and synced)
                        // before the snapshot exists; its absence is
                        // damage, not a crash window.
                        return Err(MpError::CorruptStore {
                            what: "wal segment missing for snapshot generation",
                        });
                    }
                    break;
                }
                Err(e) => {
                    return Err(MpError::Storage {
                        op: "wal.read",
                        kind: e.kind(),
                    })
                }
            };
            let scan = scan_wal::<T>(&bytes);
            let next_exists = wal_path(dir, gen + 1).exists();
            if scan.damage.is_some() && next_exists {
                // The chain continues past this segment, so this segment
                // was sealed whole at a rotation: damage inside it is
                // unrecoverable media corruption, not a crash tail.
                return Err(MpError::CorruptStore {
                    what: "wal damage in a sealed (non-final) segment",
                });
            }
            match scan.records.first() {
                Some((
                    _,
                    WalRecord::Segment {
                        base_ops,
                        gen: sg,
                        m: sm,
                    },
                )) => {
                    if *sg != gen || *sm != m as u64 || *base_ops != ops {
                        return Err(MpError::CorruptStore {
                            what: "wal segment header disagrees with the chain",
                        });
                    }
                }
                Some(_) => {
                    return Err(MpError::CorruptStore {
                        what: "wal segment does not begin with a header record",
                    });
                }
                None => {
                    // No whole record at all. A final, headerless segment
                    // is an aborted rotation — or, at generation 0 with no
                    // snapshot, an aborted first creation. Either way no
                    // operation in it was ever acknowledged: drop it. A
                    // headerless segment anywhere a snapshot or successor
                    // depends on it is damage.
                    if next_exists || (gen == base_gen && have_snapshot) {
                        return Err(MpError::CorruptStore {
                            what: "wal segment header unreadable",
                        });
                    }
                    std::fs::remove_file(&path).map_err(|e| MpError::Storage {
                        op: "wal.remove",
                        kind: e.kind(),
                    })?;
                    report.truncated_tail = true;
                    break;
                }
            }
            for (_, rec) in &scan.records[1..] {
                match rec {
                    WalRecord::Append { label, value } => {
                        core.append(*label as usize, *value)?;
                    }
                    WalRecord::Update { index, value } => {
                        core.update(*index, *value)?;
                    }
                    WalRecord::Segment { .. } => {
                        return Err(MpError::CorruptStore {
                            what: "wal header record repeated mid-segment",
                        });
                    }
                }
                ops += 1;
                report.replayed_records += 1;
            }
            if scan.damage.is_some() {
                // Final segment, valid header, damaged/torn tail: the log
                // ends at the last whole record. Truncate so future
                // appends never interleave with garbage.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| MpError::Storage {
                        op: "wal.truncate",
                        kind: e.kind(),
                    })?;
                f.set_len(scan.valid_len as u64)
                    .map_err(|e| MpError::Storage {
                        op: "wal.truncate",
                        kind: e.kind(),
                    })?;
                f.sync_data().map_err(|e| MpError::Storage {
                    op: "wal.truncate",
                    kind: e.kind(),
                })?;
                report.truncated_tail = true;
            }
            last_good = Some((gen, scan.next_seq()));
            if scan.damage.is_some() {
                // Nothing after a truncated tail can be part of the chain
                // (rotation seals segments whole), and `next_exists` was
                // already checked false.
                break;
            }
            gen += 1;
        }

        // A store with history but no replayable chain (every snapshot
        // corrupt and the gen-0 log already reaped, or stray segments the
        // chain cannot reach) must fail closed — *never* silently restart
        // empty over the wreckage.
        if last_good.is_none() && (report.snapshot_fallbacks > 0 || !wal_gens(dir)?.is_empty()) {
            return Err(MpError::CorruptStore {
                what: "no valid snapshot and no replayable wal chain",
            });
        }

        // 3. Cross-check the rebuilt incremental structures against the
        //    Träff exclusive-scan evaluation before trusting anything.
        core.verify_with_exscan()?;

        // 4. Reopen (or create) the live segment.
        let (gen, wal) = match last_good {
            Some((g, next_seq)) => (
                g,
                WalWriter::reopen(
                    &wal_path(dir, g),
                    next_seq,
                    !opts.no_sync,
                    opts.chaos.clone(),
                )?,
            ),
            None => (
                0,
                WalWriter::create::<T>(
                    &wal_path(dir, 0),
                    0,
                    0,
                    m as u64,
                    !opts.no_sync,
                    opts.chaos.clone(),
                )?,
            ),
        };
        report.gen = gen;

        if let Some(rec) = &opts.recorder {
            rec.duration_ns("session.recover", start.elapsed().as_nanos() as u64);
            rec.counter("session.recovery.replayed_records", report.replayed_records);
            if report.truncated_tail {
                rec.counter("session.recovery.truncated_tail", 1);
            }
            rec.counter(
                "session.recovery.snapshot_fallback",
                report.snapshot_fallbacks,
            );
        }

        Ok(DurableSession {
            core,
            wal,
            dir: dir.to_path_buf(),
            ops,
            ops_at_cut: report.snapshot_ops,
            gen,
            opts,
            poisoned: false,
            last_report: report,
        })
    }

    /// Elements in the session log.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// The declared bucket count.
    pub fn buckets(&self) -> usize {
        self.core.buckets()
    }

    /// Total operations applied over the store's lifetime.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The current snapshot/segment generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// What recovery did when this handle was opened.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.last_report
    }

    fn guard(&self) -> Result<(), MpError> {
        if self.poisoned {
            return Err(MpError::Storage {
                op: "session.poisoned",
                kind: std::io::ErrorKind::Other,
            });
        }
        Ok(())
    }

    /// Durably append `(label, value)`; `Ok(index)` means the record is
    /// on disk. A storage failure poisons the session until a successful
    /// [`DurableSession::snapshot`] rotates to a fresh segment.
    pub fn append(&mut self, label: usize, value: T) -> Result<u64, MpError> {
        let start = self.opts.recorder.as_ref().map(|_| Instant::now());
        self.guard()?;
        if label >= self.core.buckets() {
            return Err(MpError::LabelOutOfRange {
                index: self.core.len(),
                label,
                m: self.core.buckets(),
            });
        }
        let logged = self.wal.append(&WalRecord::Append {
            label: label as u64,
            value,
        });
        if let Err(e) = logged {
            self.poisoned = self.wal.is_poisoned();
            return Err(e);
        }
        let index = self.core.append(label, value)?;
        self.ops += 1;
        if let (Some(rec), Some(start)) = (&self.opts.recorder, start) {
            rec.counter("session.append", 1);
            rec.duration_ns("session.append", start.elapsed().as_nanos() as u64);
        }
        self.maybe_auto_snapshot();
        Ok(index)
    }

    /// Durably re-assign element `index` to `value`.
    pub fn update(&mut self, index: u64, value: T) -> Result<(), MpError> {
        self.guard()?;
        if index >= self.core.len() as u64 {
            return Err(MpError::IndexOutOfRange {
                index,
                len: self.core.len() as u64,
            });
        }
        let logged = self.wal.append(&WalRecord::Update { index, value });
        if let Err(e) = logged {
            self.poisoned = self.wal.is_poisoned();
            return Err(e);
        }
        self.core.update(index, value)?;
        self.ops += 1;
        if let Some(rec) = &self.opts.recorder {
            rec.counter("session.update", 1);
        }
        self.maybe_auto_snapshot();
        Ok(())
    }

    /// The multiprefix sum of element `index` (see
    /// [`SessionCore::prefix_query`]).
    pub fn prefix_query(&self, index: u64) -> Result<T, MpError> {
        let start = self.opts.recorder.as_ref().map(|_| Instant::now());
        let out = self.core.prefix_query(index);
        if let (Some(rec), Some(start)) = (&self.opts.recorder, start) {
            rec.counter("session.query", 1);
            rec.duration_ns("session.query", start.elapsed().as_nanos() as u64);
        }
        out
    }

    /// The ⊕-reduction of every element with label `label`.
    pub fn label_total(&self, label: usize) -> Result<T, MpError> {
        self.core.label_total(label)
    }

    /// The current (values, labels) vectors, in append order.
    pub fn as_batch(&self) -> (Vec<T>, Vec<usize>) {
        self.core.as_batch()
    }

    fn maybe_auto_snapshot(&mut self) {
        if let Some(every) = self.opts.snapshot_every {
            if self.ops - self.ops_at_cut >= every {
                // Auto-cut failures must not fail the (already durable)
                // triggering operation; they surface as a counter and the
                // next explicit snapshot's error.
                if self.snapshot().is_err() {
                    if let Some(rec) = &self.opts.recorder {
                        rec.counter("session.snapshot.auto_failed", 1);
                    }
                }
            }
        }
    }

    /// Cut a snapshot: rotate to a fresh WAL segment at the current
    /// operation count, write the image atomically, then reap
    /// generations older than the fallback. Also the way out of a
    /// poisoned (torn-write) session: a successful rotation makes the
    /// damaged segment the *sealed* past and re-arms mutations.
    pub fn snapshot(&mut self) -> Result<u64, MpError> {
        let start = self.opts.recorder.as_ref().map(|_| Instant::now());
        let new_gen = self.gen + 1;

        // A poisoned segment has an untrustworthy tail: torn-write
        // garbage, or a whole record whose fsync failed — bytes that
        // *look* valid but were never acknowledged. The chain header of
        // the next segment must agree with what replay will actually
        // count, so seal the segment at the last *acknowledged* byte
        // (not the last parseable one) before rotating.
        if self.poisoned {
            let path = wal_path(&self.dir, self.gen);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| MpError::Storage {
                    op: "wal.truncate",
                    kind: e.kind(),
                })?;
            f.set_len(self.wal.acked_len())
                .map_err(|e| MpError::Storage {
                    op: "wal.truncate",
                    kind: e.kind(),
                })?;
            f.sync_data().map_err(|e| MpError::Storage {
                op: "wal.truncate",
                kind: e.kind(),
            })?;
        }

        // 1. Open the next segment, bound to the cut. From here on,
        //    recovery can reach the cut through the *old* snapshot chain
        //    even if we crash before (or while) writing the new image.
        //    A failed earlier rotation attempt may have left a partial
        //    next-segment file; it holds nothing acknowledged.
        let _ = std::fs::remove_file(wal_path(&self.dir, new_gen));
        let wal = WalWriter::create::<T>(
            &wal_path(&self.dir, new_gen),
            self.ops,
            new_gen,
            self.core.buckets() as u64,
            !self.opts.no_sync,
            self.opts.chaos.clone(),
        );
        let wal = match wal {
            Ok(w) => w,
            Err(e) => {
                // Don't leave a half-created segment on disk: the session
                // keeps appending to the *current* segment after this
                // error, so a stale next-gen header would disagree with
                // the chain at recovery.
                let _ = std::fs::remove_file(wal_path(&self.dir, new_gen));
                return Err(e);
            }
        };
        self.wal = wal;
        self.gen = new_gen;
        self.ops_at_cut = self.ops;
        self.poisoned = false;

        // 2. The image (atomic tmp+rename; injected corruption lands
        //    *inside* the payload and is only detectable at recovery).
        let image = SnapshotImage {
            gen: new_gen,
            ops: self.ops,
            m: self.core.buckets() as u64,
            elems: self
                .core
                .elems()
                .iter()
                .map(|e| (e.label as u64, e.value))
                .collect(),
        };
        write_snapshot(
            &snap_path(&self.dir, new_gen),
            &image,
            self.opts.chaos.as_ref(),
        )?;

        // 3. Reap generations older than the fallback pair.
        if new_gen >= 2 {
            for g in (0..new_gen - 1).rev() {
                let s = std::fs::remove_file(snap_path(&self.dir, g));
                let w = std::fs::remove_file(wal_path(&self.dir, g));
                if s.is_err() && w.is_err() {
                    break; // already reaped earlier
                }
            }
        }

        if let (Some(rec), Some(start)) = (&self.opts.recorder, start) {
            rec.counter("session.snapshot", 1);
            rec.duration_ns("session.snapshot", start.elapsed().as_nanos() as u64);
        }
        Ok(new_gen)
    }

    /// Flush and close; the store can be reopened with
    /// [`DurableSession::open`].
    pub fn close(mut self) -> Result<(), MpError> {
        if !self.poisoned {
            self.wal.sync("wal.close")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CombineOp, Plus};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mpx-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> SessionOptions {
        SessionOptions::default()
    }

    #[test]
    fn fresh_store_persists_and_reopens() {
        let dir = tmpdir("fresh");
        {
            let mut s = DurableSession::open(&dir, 8, Plus, opts()).unwrap();
            for i in 0..50i64 {
                s.append((i % 8) as usize, i * 3 - 11).unwrap();
            }
            s.update(7, 1_000).unwrap();
            s.close().unwrap();
        }
        let s = DurableSession::<i64, Plus>::open(&dir, 8, Plus, opts()).unwrap();
        assert_eq!(s.len(), 50);
        assert_eq!(s.ops(), 51);
        assert_eq!(s.recovery_report().replayed_records, 51);
        // Element 7 was updated; its prefix (first occurrence of label 7)
        // is the identity, its label total includes the update.
        assert_eq!(s.prefix_query(7).unwrap(), 0);
        let (values, labels) = s.as_batch();
        let batch = crate::chunked::multiprefix_chunked(&values, &labels, 8, Plus);
        for j in 0..values.len() {
            assert_eq!(s.prefix_query(j as u64).unwrap(), batch.sums[j]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rotates_and_reopens_from_image() {
        let dir = tmpdir("rotate");
        {
            let mut s = DurableSession::open(&dir, 4, Plus, opts()).unwrap();
            for i in 0..30i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            assert_eq!(s.snapshot().unwrap(), 1);
            for i in 30..40i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            assert_eq!(s.snapshot().unwrap(), 2);
            for i in 40..45i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            s.close().unwrap();
        }
        // Generation 0 must have been reaped; 1 and 2 remain.
        assert!(!wal_path(&dir, 0).exists());
        assert!(snap_path(&dir, 1).exists() && wal_path(&dir, 1).exists());
        let s = DurableSession::<i64, Plus>::open(&dir, 4, Plus, opts()).unwrap();
        assert_eq!(s.len(), 45);
        assert_eq!(s.generation(), 2);
        let rep = s.recovery_report();
        assert_eq!(rep.snapshot_ops, 40);
        assert_eq!(rep.replayed_records, 5);
        assert_eq!(rep.snapshot_fallbacks, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_one_generation() {
        let dir = tmpdir("fallback");
        {
            let mut s = DurableSession::open(&dir, 4, Plus, opts()).unwrap();
            for i in 0..20i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            s.snapshot().unwrap();
            for i in 20..25i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            s.snapshot().unwrap();
            s.close().unwrap();
        }
        // Flip a payload bit in the newest image.
        let p = snap_path(&dir, 2);
        let mut bytes = std::fs::read(&p).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        let s = DurableSession::<i64, Plus>::open(&dir, 4, Plus, opts()).unwrap();
        assert_eq!(s.len(), 25);
        let rep = s.recovery_report();
        assert_eq!(rep.snapshot_fallbacks, 1);
        assert_eq!(rep.snapshot_ops, 20);
        // Replays wal-1's 5 post-cut records, then wal-2's 0.
        assert_eq!(rep.replayed_records, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_and_survives_reopen() {
        let dir = tmpdir("torntail");
        {
            let mut s = DurableSession::open(&dir, 4, Plus, opts()).unwrap();
            for i in 0..10i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            s.close().unwrap();
        }
        // Tear the last record: drop its final 3 bytes.
        let p = wal_path(&dir, 0);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        let s = DurableSession::<i64, Plus>::open(&dir, 4, Plus, opts()).unwrap();
        assert_eq!(s.len(), 9);
        assert!(s.recovery_report().truncated_tail);
        drop(s);
        // Second reopen is clean (the tear is gone from disk).
        let s = DurableSession::<i64, Plus>::open(&dir, 4, Plus, opts()).unwrap();
        assert_eq!(s.len(), 9);
        assert!(!s.recovery_report().truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An element wide enough that its `Append` record (9 + 65 536
    /// bytes) outgrows a fixed 64 KiB record cap.
    type Wide = [i64; 8192];

    #[derive(Clone, Copy)]
    struct WidePlus;

    impl CombineOp<Wide> for WidePlus {
        const COMMUTATIVE: bool = true;
        fn identity(&self) -> Wide {
            [0; 8192]
        }
        fn combine(&self, mut a: Wide, b: Wide) -> Wide {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.wrapping_add(y);
            }
            a
        }
    }

    impl InvertibleOp<Wide> for WidePlus {
        fn uncombine(&self, mut a: Wide, b: Wide) -> Wide {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.wrapping_sub(y);
            }
            a
        }
    }

    #[test]
    fn wide_records_replay_after_reopen() {
        let dir = tmpdir("wide");
        // 64 KiB values are passed by value through the session, more
        // often than a debug build's default test stack holds.
        let run = move || {
            let mut first = [0i64; 8192];
            first[8191] = 5;
            let second = [3i64; 8192];
            {
                let mut s = DurableSession::open(&dir, 2, WidePlus, opts()).unwrap();
                s.append(1, first).unwrap();
                s.append(1, second).unwrap();
                s.close().unwrap();
            }
            // Both appends were acknowledged, so both must replay.
            let s = DurableSession::<Wide, WidePlus>::open(&dir, 2, WidePlus, opts()).unwrap();
            assert_eq!(s.len(), 2);
            assert!(!s.recovery_report().truncated_tail);
            assert_eq!(s.prefix_query(1).unwrap(), first);
            assert_eq!(s.label_total(1).unwrap()[8191], 8);
            std::fs::remove_dir_all(&dir).unwrap();
        };
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(run)
            .expect("spawn")
            .join()
            .expect("wide-record session");
    }

    #[test]
    fn mid_chain_damage_fails_closed() {
        let dir = tmpdir("midchain");
        {
            let mut s = DurableSession::open(&dir, 4, Plus, opts()).unwrap();
            for i in 0..12i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            s.snapshot().unwrap();
            for i in 12..16i64 {
                s.append((i % 4) as usize, i).unwrap();
            }
            s.close().unwrap();
        }
        // Corrupt the newest snapshot so recovery must chain wal-0→wal-1,
        // then damage wal-0 mid-file: unrecoverable.
        let p = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&p).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        let w = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&w).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&w, &bytes).unwrap();
        let err = DurableSession::<i64, Plus>::open(&dir, 4, Plus, opts()).unwrap_err();
        assert!(
            matches!(err, MpError::CorruptStore { .. }),
            "expected CorruptStore, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bucket_count_mismatch_is_rejected() {
        let dir = tmpdir("buckets");
        {
            let mut s = DurableSession::open(&dir, 4, Plus, opts()).unwrap();
            s.append(0, 1i64).unwrap();
            s.close().unwrap();
        }
        let err = DurableSession::<i64, Plus>::open(&dir, 8, Plus, opts()).unwrap_err();
        assert!(matches!(err, MpError::CorruptStore { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_cuts_on_op_threshold() {
        let dir = tmpdir("auto");
        let mut o = opts();
        o.snapshot_every = Some(10);
        let mut s = DurableSession::open(&dir, 4, Plus, o).unwrap();
        for i in 0..25i64 {
            s.append((i % 4) as usize, i).unwrap();
        }
        assert_eq!(s.generation(), 2);
        s.close().unwrap();
        let s = DurableSession::<i64, Plus>::open(&dir, 4, Plus, opts()).unwrap();
        assert_eq!(s.len(), 25);
        assert_eq!(s.recovery_report().snapshot_ops, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_poisons_until_snapshot_rotates() {
        use crate::resilience::ChaosPlan;
        let dir = tmpdir("poison");
        let mut o = opts();
        // Every 40th nominal fault draw; with 100% ppm the first WAL write
        // faults immediately.
        o.chaos = Some(ChaosPlan::seeded(5).wal_torn_write_ppm(1_000_000).arm());
        let mut s = DurableSession::open(&dir, 4, Plus, o).unwrap();
        let err = s.append(0, 7i64).unwrap_err();
        assert!(matches!(err, MpError::Storage { .. }));
        // Poisoned: even a would-be-clean append fails closed.
        assert!(s.append(1, 8i64).is_err());
        // The failed op was never acked and must not be visible.
        assert_eq!(s.len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
