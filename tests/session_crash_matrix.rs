//! Crash-matrix tests for the durable session store: kill the store at
//! **every byte** of its WAL — every record boundary and every mid-record
//! position — recover, and assert the recovered state is *bit-identical*
//! to the batch chunked engine evaluated over the surviving
//! durably-acknowledged operation prefix.
//!
//! The matrix is exhaustive, not sampled: a simulated crash at byte `c`
//! is "truncate the WAL to `c` bytes and reopen". The oracle is built
//! from op-boundary byte offsets observed while writing (the file length
//! after each acknowledged operation), so the expected surviving prefix
//! is computed independently of the recovery scanner under test.
//!
//! Bit flips in a sealed segment are covered in the default suite by
//! `sealed_segment_bit_flips_fail_closed_or_recover_exactly`. The
//! `#[ignore]`d ladder at the bottom extends the matrix across snapshot
//! generations; the scheduled `session-recovery-soak` CI job runs it.

use multiprefix::chunked::multiprefix_chunked;
use multiprefix::op::Plus;
use multiprefix::session::{DurableSession, SessionOptions};
use multiprefix::MpError;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const M: usize = 11;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mpx-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One session operation, generated deterministically.
#[derive(Debug, Clone, Copy)]
enum Op {
    Append { label: usize, value: i64 },
    Update { index: u64, value: i64 },
}

/// A deterministic op sequence: appends interleaved with updates of
/// already-present elements.
fn op_sequence(seed: u64, count: usize) -> Vec<Op> {
    let mut state = seed | 1;
    let mut step = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut ops = Vec::with_capacity(count);
    let mut appended = 0u64;
    for _ in 0..count {
        if appended > 0 && step() % 5 == 0 {
            ops.push(Op::Update {
                index: step() % appended,
                value: step() as i64 - (u32::MAX / 2) as i64,
            });
        } else {
            ops.push(Op::Append {
                label: (step() % M as u64) as usize,
                value: step() as i64 - (u32::MAX / 2) as i64,
            });
            appended += 1;
        }
    }
    ops
}

/// Apply the first `k` ops to a plain in-memory oracle; returns the
/// (values, labels) the store must hold after surviving exactly `k` ops.
fn oracle_after(ops: &[Op], k: usize) -> (Vec<i64>, Vec<usize>) {
    let mut values = Vec::new();
    let mut labels = Vec::new();
    for op in &ops[..k] {
        match *op {
            Op::Append { label, value } => {
                values.push(value);
                labels.push(label);
            }
            Op::Update { index, value } => values[index as usize] = value,
        }
    }
    (values, labels)
}

/// Assert `store` is bit-identical to the batch chunked engine over the
/// oracle state after `k` surviving ops.
fn assert_matches_oracle(store: &DurableSession<i64, Plus>, ops: &[Op], k: usize, ctx: &str) {
    let (values, labels) = oracle_after(ops, k);
    assert_eq!(store.ops(), k as u64, "{ctx}: op count");
    let (got_values, got_labels) = store.as_batch();
    assert_eq!(got_values, values, "{ctx}: values");
    assert_eq!(got_labels, labels, "{ctx}: labels");
    if values.is_empty() {
        return;
    }
    let batch = multiprefix_chunked(&values, &labels, M, Plus);
    for j in 0..values.len() {
        assert_eq!(
            store.prefix_query(j as u64).unwrap(),
            batch.sums[j],
            "{ctx}: prefix_query({j})"
        );
    }
    for l in 0..M {
        assert_eq!(
            store.label_total(l).unwrap(),
            batch.reductions[l],
            "{ctx}: label_total({l})"
        );
    }
}

/// Write `ops` to a fresh store at `dir`, recording the WAL byte length
/// after the header and after every acknowledged op. Returns
/// (wal path, boundaries) where `boundaries[k]` is the file length once
/// exactly `k` ops are durable.
fn build_store(dir: &Path, ops: &[Op]) -> (PathBuf, Vec<u64>) {
    let mut s = DurableSession::open(dir, M, Plus, SessionOptions::default()).unwrap();
    let wal = dir.join("wal-00000000.mpwl");
    let mut boundaries = vec![std::fs::metadata(&wal).unwrap().len()];
    for op in ops {
        match *op {
            Op::Append { label, value } => {
                s.append(label, value).unwrap();
            }
            Op::Update { index, value } => s.update(index, value).unwrap(),
        }
        boundaries.push(std::fs::metadata(&wal).unwrap().len());
    }
    s.close().unwrap();
    (wal, boundaries)
}

/// Surviving op count for a WAL truncated to `cut` bytes: the number of
/// boundaries at or below the cut, minus the header boundary.
fn survivors(boundaries: &[u64], cut: u64) -> Option<usize> {
    if cut < boundaries[0] {
        return None; // inside the segment header: aborted creation
    }
    Some(boundaries.iter().take_while(|&&b| b <= cut).count() - 1)
}

/// The exhaustive matrix: crash at every byte of a single-segment WAL.
#[test]
fn crash_at_every_byte_recovers_the_acked_prefix() {
    let base = tmpdir("matrix-base");
    let ops = op_sequence(0xC0FFEE, 60);
    let (wal, boundaries) = build_store(&base, &ops);
    let full = std::fs::read(&wal).unwrap();
    let scratch = tmpdir("matrix-cut");
    std::fs::create_dir_all(&scratch).unwrap();
    let cut_wal = scratch.join("wal-00000000.mpwl");
    for cut in 0..=full.len() as u64 {
        std::fs::write(&cut_wal, &full[..cut as usize]).unwrap();
        let ctx = format!("cut={cut}");
        match survivors(&boundaries, cut) {
            None => {
                // Headerless gen-0 segment with no snapshot: an aborted
                // first creation — recovery restarts empty (no op was
                // ever acknowledged) rather than failing a fresh store.
                let s =
                    DurableSession::<i64, Plus>::open(&scratch, M, Plus, SessionOptions::default())
                        .unwrap();
                assert_eq!(s.ops(), 0, "{ctx}");
                // The aborted-creation path replaces the segment; restore
                // the cut layout for the next iteration's write.
            }
            Some(k) => {
                let s =
                    DurableSession::<i64, Plus>::open(&scratch, M, Plus, SessionOptions::default())
                        .unwrap();
                assert_matches_oracle(&s, &ops, k, &ctx);
                let torn = boundaries.binary_search(&cut).is_err();
                assert_eq!(
                    s.recovery_report().truncated_tail,
                    torn,
                    "{ctx}: truncation flag"
                );
            }
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// Crashes across a snapshot rotation: cut every byte of the *second*
/// segment while a snapshot and sealed first segment sit underneath.
#[test]
fn crash_at_every_byte_of_post_snapshot_segment() {
    let base = tmpdir("rotmatrix-base");
    let ops = op_sequence(0xBEEF, 40);
    let split = 25;
    {
        let mut s = DurableSession::open(&base, M, Plus, SessionOptions::default()).unwrap();
        for op in &ops[..split] {
            match *op {
                Op::Append { label, value } => {
                    s.append(label, value).unwrap();
                }
                Op::Update { index, value } => s.update(index, value).unwrap(),
            }
        }
        s.snapshot().unwrap();
        for op in &ops[split..] {
            match *op {
                Op::Append { label, value } => {
                    s.append(label, value).unwrap();
                }
                Op::Update { index, value } => s.update(index, value).unwrap(),
            }
        }
        s.close().unwrap();
    }
    let wal1 = base.join("wal-00000001.mpwl");
    let full = std::fs::read(&wal1).unwrap();
    // Reconstruct the post-snapshot boundaries: header + one frame per op.
    // Frames are self-delimiting; walk them with the known layout
    // (20-byte header + LE length at offset 8).
    let mut boundaries = Vec::new();
    let mut off = 0usize;
    while off + 20 <= full.len() {
        let len = u32::from_le_bytes(full[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 20 + len;
        boundaries.push(off as u64);
    }
    assert_eq!(off, full.len());
    assert_eq!(boundaries.len(), 1 + (ops.len() - split));
    for cut in boundaries[0]..=full.len() as u64 {
        // Work on a copy of the whole store directory.
        let scratch = tmpdir("rotmatrix-cut");
        std::fs::create_dir_all(&scratch).unwrap();
        for entry in std::fs::read_dir(&base).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), scratch.join(entry.file_name())).unwrap();
        }
        std::fs::write(scratch.join("wal-00000001.mpwl"), &full[..cut as usize]).unwrap();
        let k = split + boundaries.iter().take_while(|&&b| b <= cut).count() - 1;
        let s = DurableSession::<i64, Plus>::open(&scratch, M, Plus, SessionOptions::default())
            .unwrap();
        assert_matches_oracle(&s, &ops, k, &format!("rot cut={cut}"));
        std::fs::remove_dir_all(&scratch).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// A corrupt store must fail closed with a typed error — never panic,
/// never serve partial state. Flip every bit of a *sealed* (non-final)
/// segment: recovery must either succeed with the exact full state (the
/// flip landed in the newest snapshot's payload or somewhere recovery
/// legitimately never reads) or fail with `CorruptStore`.
#[test]
fn sealed_segment_bit_flips_fail_closed_or_recover_exactly() {
    let base = tmpdir("sealedflip");
    let ops = op_sequence(0xDEAD, 30);
    let split = 20;
    {
        let mut s = DurableSession::open(&base, M, Plus, SessionOptions::default()).unwrap();
        for op in &ops[..split] {
            match *op {
                Op::Append { label, value } => {
                    s.append(label, value).unwrap();
                }
                Op::Update { index, value } => s.update(index, value).unwrap(),
            }
        }
        s.snapshot().unwrap();
        for op in &ops[split..] {
            match *op {
                Op::Append { label, value } => {
                    s.append(label, value).unwrap();
                }
                Op::Update { index, value } => s.update(index, value).unwrap(),
            }
        }
        s.close().unwrap();
    }
    // Corrupt the newest snapshot so recovery must replay the sealed
    // gen-0 segment, then flip each byte (sampled bit) of that segment.
    let snap1 = base.join("snap-00000001.mpss");
    let mut snap_bytes = std::fs::read(&snap1).unwrap();
    let at = snap_bytes.len() - 10;
    snap_bytes[at] ^= 0x40;
    std::fs::write(&snap1, &snap_bytes).unwrap();
    let wal0 = base.join("wal-00000000.mpwl");
    let full = std::fs::read(&wal0).unwrap();
    for byte in 0..full.len() {
        let mut bad = full.clone();
        bad[byte] ^= 1 << (byte % 8);
        std::fs::write(&wal0, &bad).unwrap();
        match DurableSession::<i64, Plus>::open(&base, M, Plus, SessionOptions::default()) {
            Err(MpError::CorruptStore { .. }) => {}
            Err(e) => panic!("byte {byte}: expected CorruptStore, got {e:?}"),
            Ok(s) => {
                // Only acceptable if the recovered state is *exactly*
                // right despite the flip (e.g. a flip recovery proved
                // harmless). With a strict scanner this should not
                // happen for sealed-segment damage — assert it loudly.
                assert_matches_oracle(&s, &ops, ops.len(), &format!("flip byte={byte}"));
            }
        }
        std::fs::write(&wal0, &full).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized matrix: random seeds, random op counts, random cut.
    #[test]
    fn random_cut_recovers_acked_prefix(seed in any::<u64>(), count in 1usize..80, cut_sel in any::<u64>()) {
        let base = tmpdir(&format!("prop-{seed:x}-{count}"));
        let ops = op_sequence(seed, count);
        let (wal, boundaries) = build_store(&base, &ops);
        let full = std::fs::read(&wal).unwrap();
        let cut = cut_sel % (full.len() as u64 + 1);
        std::fs::write(&wal, &full[..cut as usize]).unwrap();
        match survivors(&boundaries, cut) {
            None => {
                let s = DurableSession::<i64, Plus>::open(&base, M, Plus, SessionOptions::default()).unwrap();
                prop_assert_eq!(s.ops(), 0);
            }
            Some(k) => {
                let s = DurableSession::<i64, Plus>::open(&base, M, Plus, SessionOptions::default()).unwrap();
                assert_matches_oracle(&s, &ops, k, &format!("seed={seed:x} cut={cut}"));
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}

/// The soak ladder: bigger sequences, crashes at every byte across
/// *multiple* snapshot generations, and a double-crash leg (crash during
/// recovery-after-crash). Run by the scheduled `session-recovery-soak`
/// CI job: `cargo test --release --test session_crash_matrix -- --ignored`.
#[test]
#[ignore = "long soak; run by the scheduled session-recovery-soak job"]
fn soak_crash_ladder_across_generations() {
    for seed in [1u64, 7, 0xFEED, 0xABCDEF] {
        let base = tmpdir(&format!("soak-{seed:x}"));
        let ops = op_sequence(seed, 200);
        {
            let mut s = DurableSession::open(&base, M, Plus, SessionOptions::default()).unwrap();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Append { label, value } => {
                        s.append(label, value).unwrap();
                    }
                    Op::Update { index, value } => s.update(index, value).unwrap(),
                }
                if i % 60 == 59 {
                    s.snapshot().unwrap();
                }
            }
            s.close().unwrap();
        }
        // Identify the live segment and its op boundaries.
        let mut gens: Vec<u64> = std::fs::read_dir(&base)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name();
                let name = name.to_str()?.to_owned();
                name.strip_prefix("wal-")?
                    .strip_suffix(".mpwl")?
                    .parse()
                    .ok()
            })
            .collect();
        gens.sort_unstable();
        let live = *gens.last().unwrap();
        let live_path = base.join(format!("wal-{live:08}.mpwl"));
        let full = std::fs::read(&live_path).unwrap();
        let base_ops = (live as usize) * 60; // one snapshot per 60 ops
        for cut in 0..=full.len() as u64 {
            let scratch = tmpdir(&format!("soak-cut-{seed:x}"));
            std::fs::create_dir_all(&scratch).unwrap();
            for entry in std::fs::read_dir(&base).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), scratch.join(entry.file_name())).unwrap();
            }
            std::fs::write(
                scratch.join(format!("wal-{live:08}.mpwl")),
                &full[..cut as usize],
            )
            .unwrap();
            // Walk whole frames to find how many ops survive the cut.
            let mut off = 0usize;
            let mut frames = 0usize;
            while off + 20 <= cut as usize {
                let len = u32::from_le_bytes(full[off + 8..off + 12].try_into().unwrap()) as usize;
                if off + 20 + len > cut as usize {
                    break;
                }
                off += 20 + len;
                frames += 1;
            }
            if frames == 0 {
                // A headerless segment that the live snapshot depends on
                // is impossible in a crash (the header is fsynced before
                // the snapshot is written) — strict recovery must refuse
                // it rather than guess.
                let err =
                    DurableSession::<i64, Plus>::open(&scratch, M, Plus, SessionOptions::default())
                        .unwrap_err();
                assert!(matches!(err, MpError::CorruptStore { .. }));
                std::fs::remove_dir_all(&scratch).unwrap();
                continue;
            }
            let k = base_ops + frames - 1;
            let s = DurableSession::<i64, Plus>::open(&scratch, M, Plus, SessionOptions::default())
                .unwrap();
            assert_matches_oracle(&s, &ops, k, &format!("soak seed={seed:x} cut={cut}"));
            // Double-crash: tear the (possibly truncated) live segment
            // again by 1 byte and re-recover.
            drop(s);
            let live_now = std::fs::read(scratch.join(format!("wal-{live:08}.mpwl"))).unwrap();
            if !live_now.is_empty() {
                std::fs::write(
                    scratch.join(format!("wal-{live:08}.mpwl")),
                    &live_now[..live_now.len() - 1],
                )
                .unwrap();
                let s2 =
                    DurableSession::<i64, Plus>::open(&scratch, M, Plus, SessionOptions::default());
                // Either one fewer op (tore the last record) or a clean
                // dropped-header restart; both must match some oracle
                // prefix ≤ k.
                if let Ok(s2) = s2 {
                    let k2 = s2.ops() as usize;
                    assert!(k2 <= k, "double-crash grew state");
                    assert_matches_oracle(&s2, &ops, k2, "double-crash");
                }
            }
            std::fs::remove_dir_all(&scratch).unwrap();
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}
