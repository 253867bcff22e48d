//! Snapshot-generation consistency under concurrency: seeded soaks that
//! interleave appends, updates, queries and snapshot cuts from many
//! threads through the [`Service`] session API, then recover and demand
//! the store equals exactly the acknowledged history.
//!
//! The property under test is the **consistent cut**: a snapshot's
//! header records the operation count at its cut and the rotated WAL
//! segment's header carries the same number, so replay resumes exactly
//! there — no op is applied twice, none is skipped, regardless of how
//! snapshot cuts interleave with concurrent mutations.

use multiprefix::chunked::multiprefix_chunked;
use multiprefix::op::Plus;
use multiprefix::resilience::ChaosPlan;
use multiprefix::service::{Service, ServiceConfig};
use multiprefix::session::{DurableSession, SessionOptions};
use multiprefix::MpError;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const M: usize = 9;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mpx-snaprace-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One acknowledged mutation, as observed by the thread that issued it.
#[derive(Debug, Clone, Copy)]
enum Acked {
    Append {
        index: u64,
        label: usize,
        value: i64,
    },
    Update {
        index: u64,
        value: i64,
    },
}

/// Drive `threads` workers against one session: each appends its own
/// elements, updates only elements it appended (so the final value of
/// every index is deterministic from the per-thread program order), cuts
/// snapshots on a stride, and logs every acknowledged op. Returns the
/// acked log.
fn storm(
    svc: &Arc<Service<i64, Plus>>,
    sid: multiprefix::service::SessionId,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> Vec<Acked> {
    let acked: Arc<Mutex<Vec<Acked>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let svc = Arc::clone(svc);
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                let mut state = seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut step = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 33
                };
                let mut mine: Vec<u64> = Vec::new();
                for i in 0..ops_per_thread {
                    let roll = step() % 10;
                    if roll == 9 {
                        // Concurrent snapshot cuts — the race under test.
                        // Failures (e.g. a concurrent cut already rotated)
                        // are fine; consistency is checked at the end.
                        let _ = svc.session_snapshot(sid);
                    } else if roll >= 7 && !mine.is_empty() {
                        let index = mine[(step() % mine.len() as u64) as usize];
                        let value = step() as i64 - (u32::MAX / 2) as i64;
                        if svc.session_update(sid, index, value).is_ok() {
                            acked.lock().unwrap().push(Acked::Update { index, value });
                        }
                    } else if roll == 6 && !mine.is_empty() {
                        // Interleaved reads; values race with writers, but
                        // they must never error or tear.
                        let index = mine[(step() % mine.len() as u64) as usize];
                        svc.session_query(sid, index).unwrap();
                    } else {
                        let label = (step() % M as u64) as usize;
                        let value = step() as i64 - (u32::MAX / 2) as i64;
                        if let Ok(index) = svc.session_append(sid, label, value) {
                            mine.push(index);
                            acked.lock().unwrap().push(Acked::Append {
                                index,
                                label,
                                value,
                            });
                        }
                    }
                    if i % 50 == 49 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    Arc::try_unwrap(acked).unwrap().into_inner().unwrap()
}

/// Reconstruct the expected element vector from the acked log. Appends
/// carry their assigned index (the store's total order); each thread
/// updates only its own elements, so the last update per index in the
/// log is the last in that thread's program order — deterministic.
fn expected_state(acked: &[Acked]) -> (Vec<i64>, Vec<usize>) {
    let n = acked
        .iter()
        .filter(|a| matches!(a, Acked::Append { .. }))
        .count();
    let mut values = vec![0i64; n];
    let mut labels = vec![0usize; n];
    for a in acked {
        if let Acked::Append {
            index,
            label,
            value,
        } = *a
        {
            values[index as usize] = value;
            labels[index as usize] = label;
        }
    }
    for a in acked {
        if let Acked::Update { index, value } = *a {
            values[index as usize] = value;
        }
    }
    (values, labels)
}

fn verify_recovered(dir: &Path, acked: &[Acked]) {
    let (values, labels) = expected_state(acked);
    let s = DurableSession::<i64, Plus>::open(dir, M, Plus, SessionOptions::default()).unwrap();
    let (got_values, got_labels) = s.as_batch();
    assert_eq!(got_labels, labels, "labels after recovery");
    assert_eq!(got_values, values, "values after recovery");
    assert_eq!(s.ops(), acked.len() as u64, "acked op count");
    if values.is_empty() {
        return;
    }
    let batch = multiprefix_chunked(&values, &labels, M, Plus);
    for j in 0..values.len() {
        assert_eq!(s.prefix_query(j as u64).unwrap(), batch.sums[j], "sum {j}");
    }
    for l in 0..M {
        assert_eq!(
            s.label_total(l).unwrap(),
            batch.reductions[l],
            "reduction {l}"
        );
    }
}

#[test]
fn concurrent_snapshots_preserve_the_consistent_cut() {
    for seed in [11u64, 42, 0xFACE] {
        let dir = tmpdir(&format!("clean-{seed}"));
        let svc = Arc::new(
            Service::<i64, Plus>::new(
                Plus,
                ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
            )
            .unwrap(),
        );
        let sid = svc
            .open_session(&dir, M, SessionOptions::default())
            .unwrap();
        let acked = storm(&svc, sid, 4, 150, seed);
        svc.session_close(sid).unwrap();
        svc.shutdown();
        verify_recovered(&dir, &acked);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn concurrent_soak_with_auto_snapshots() {
    let dir = tmpdir("auto");
    let svc = Arc::new(
        Service::<i64, Plus>::new(
            Plus,
            ServiceConfig {
                workers: Some(1),
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let opts = SessionOptions {
        snapshot_every: Some(64),
        ..SessionOptions::default()
    };
    let sid = svc.open_session(&dir, M, opts).unwrap();
    let acked = storm(&svc, sid, 3, 200, 0xA57);
    svc.session_close(sid).unwrap();
    svc.shutdown();
    verify_recovered(&dir, &acked);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The chaos leg: injected fsync failures and torn writes race with
/// concurrent snapshot cuts. Only *acknowledged* ops may appear after
/// recovery; a torn write poisons the session until a snapshot rotates,
/// and the final state must still be exactly the acked history.
#[test]
fn concurrent_soak_under_storage_chaos() {
    for seed in [5u64, 23] {
        let dir = tmpdir(&format!("chaos-{seed}"));
        let svc = Arc::new(
            Service::<i64, Plus>::new(
                Plus,
                ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
            )
            .unwrap(),
        );
        let chaos = ChaosPlan::seeded(seed)
            .wal_torn_write_ppm(8_000)
            .fsync_fail_ppm(8_000)
            .arm();
        let opts = SessionOptions {
            chaos: Some(chaos),
            ..SessionOptions::default()
        };
        let sid = svc.open_session(&dir, M, opts).unwrap();
        let acked = storm(&svc, sid, 4, 150, seed);
        // A torn write may have left the session poisoned; a final
        // snapshot (retried past injected faults) seals a clean cut.
        for _ in 0..50 {
            if svc.session_snapshot(sid).is_ok() {
                break;
            }
        }
        // close() fsyncs the WAL once more and can itself draw an injected
        // fsync failure. Every acked record was fsynced when it was acked,
        // so recovery below must still see all of them either way.
        match svc.session_close(sid) {
            Ok(())
            | Err(MpError::Storage {
                op: "wal.close", ..
            }) => {}
            Err(e) => panic!("session close failed: {e}"),
        }
        svc.shutdown();
        verify_recovered(&dir, &acked);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
