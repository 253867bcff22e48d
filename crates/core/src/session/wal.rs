//! The session write-ahead log: checksummed, sequence-numbered records in
//! the `MPXF` frame discipline, with strict truncate-at-first-damage
//! replay.
//!
//! Every record rides the same 20-byte frame the socket transport uses
//! ([`crate::shard::net::frame`]): `MPXF | seq | len | hcrc | pcrc |
//! payload`, both CRCs IEEE CRC-32. The WAL writes with the frame
//! encoder and replays through the same strict parser as the socket
//! reader ([`parse_frame`]), with the length cap set to the largest
//! record the element type can encode. The first record that fails any
//! check (magic, header CRC, length cap, payload CRC, sequence
//! continuity, payload decode) is where the log **ends**, and recovery
//! truncates the file there. Damage never replays, and a torn final
//! write (the classic crash signature) is indistinguishable from a clean
//! end-of-log — exactly the semantics a WAL needs.
//!
//! Record payloads are tag + little-endian fields via [`WireValue`], the
//! same total decoders as the wire codec: every malformed payload is a
//! typed stop, never a panic or over-allocation.

use crate::error::MpError;
use crate::resilience::chaos::ChaosState;
use crate::shard::net::frame::{encode_frame, parse_frame};
use crate::shard::net::wire::{NetError, WireValue};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One durable session operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord<T> {
    /// Segment header: always the first record (seq 1) of a WAL segment.
    /// Binds the segment to its base state so replay can verify the
    /// chain: the segment applies to a session that has already applied
    /// exactly `base_ops` operations.
    Segment {
        /// Operations applied before this segment begins.
        base_ops: u64,
        /// The snapshot generation this segment follows.
        gen: u64,
        /// The session's bucket count (sanity-checked on replay).
        m: u64,
    },
    /// `append(label, value)`.
    Append {
        /// The element's label.
        label: u64,
        /// The element's value.
        value: T,
    },
    /// `update(index, value)`.
    Update {
        /// The element's (stable) index.
        index: u64,
        /// Its new value.
        value: T,
    },
}

const TAG_SEGMENT: u8 = 0xA0;
const TAG_APPEND: u8 = 0xA1;
const TAG_UPDATE: u8 = 0xA2;

/// Encode one record's payload (tag + LE fields).
pub fn encode_record<T: WireValue>(rec: &WalRecord<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 16 + T::WIRE_SIZE);
    match rec {
        WalRecord::Segment { base_ops, gen, m } => {
            out.push(TAG_SEGMENT);
            out.extend_from_slice(&base_ops.to_le_bytes());
            out.extend_from_slice(&gen.to_le_bytes());
            out.extend_from_slice(&m.to_le_bytes());
        }
        WalRecord::Append { label, value } => {
            out.push(TAG_APPEND);
            out.extend_from_slice(&label.to_le_bytes());
            value.wire_write(&mut out);
        }
        WalRecord::Update { index, value } => {
            out.push(TAG_UPDATE);
            out.extend_from_slice(&index.to_le_bytes());
            value.wire_write(&mut out);
        }
    }
    out
}

fn take_u64(input: &mut &[u8]) -> Option<u64> {
    if input.len() < 8 {
        return None;
    }
    let (head, rest) = input.split_at(8);
    *input = rest;
    Some(u64::from_le_bytes(head.try_into().unwrap()))
}

/// Decode one record payload; `None` on any malformation (short, bad
/// tag, trailing bytes). Total: never panics, never allocates from a
/// length field.
pub fn decode_record<T: WireValue>(payload: &[u8]) -> Option<WalRecord<T>> {
    let (&tag, mut rest) = payload.split_first()?;
    let rec = match tag {
        TAG_SEGMENT => WalRecord::Segment {
            base_ops: take_u64(&mut rest)?,
            gen: take_u64(&mut rest)?,
            m: take_u64(&mut rest)?,
        },
        TAG_APPEND => WalRecord::Append {
            label: take_u64(&mut rest)?,
            value: T::wire_read(&mut rest).ok()?,
        },
        TAG_UPDATE => WalRecord::Update {
            index: take_u64(&mut rest)?,
            value: T::wire_read(&mut rest).ok()?,
        },
        _ => return None,
    };
    if !rest.is_empty() {
        return None;
    }
    Some(rec)
}

/// Why a WAL scan stopped before the end of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalDamage {
    /// Trailing bytes too short for a whole record — a torn final write.
    TornTail,
    /// A record failed a checksum, magic, length or decode check.
    CorruptRecord,
    /// A record's sequence number broke continuity (a vanished record).
    SequenceGap,
}

/// The result of strictly scanning a WAL segment's bytes.
#[derive(Debug)]
pub struct WalScan<T> {
    /// Every record that verified, in order.
    pub records: Vec<(u32, WalRecord<T>)>,
    /// Byte length of the verified prefix — the truncation point when
    /// damage follows.
    pub valid_len: usize,
    /// Why the scan stopped early (`None`: the whole file verified).
    pub damage: Option<WalDamage>,
}

impl<T> WalScan<T> {
    /// Sequence number the next appended record should carry.
    pub fn next_seq(&self) -> u32 {
        self.records.last().map(|(s, _)| s + 1).unwrap_or(1)
    }
}

/// The largest record payload `T` can encode: a `Segment` (tag + three
/// `u64`s) or an `Append`/`Update` (tag + `u64` + one `T`). A length
/// field beyond it is damage, not data.
fn max_record_len<T: WireValue>() -> usize {
    (1 + 3 * 8).max(1 + 8 + T::WIRE_SIZE)
}

/// Strictly scan a WAL segment: verified, in-sequence records up to the
/// first damage, read through [`parse_frame`]. Damage is **final** — the
/// log ends at the last whole record.
pub fn scan_wal<T: WireValue>(bytes: &[u8]) -> WalScan<T> {
    let cap = max_record_len::<T>();
    let mut records = Vec::new();
    let mut offset = 0usize;
    let damage = loop {
        let rem = &bytes[offset..];
        if rem.is_empty() {
            break None;
        }
        let seq = records.len() as u32 + 1;
        match parse_frame(rem, seq, cap) {
            Ok(Some((payload, used))) => {
                let Some(record) = decode_record::<T>(payload) else {
                    break Some(WalDamage::CorruptRecord);
                };
                records.push((seq, record));
                offset += used;
            }
            Ok(None) => break Some(WalDamage::TornTail),
            Err(NetError::BadValue("frame sequence")) => break Some(WalDamage::SequenceGap),
            Err(_) => break Some(WalDamage::CorruptRecord),
        }
    };
    WalScan {
        records,
        valid_len: offset,
        damage,
    }
}

fn storage_err(op: &'static str, e: &std::io::Error) -> MpError {
    MpError::Storage { op, kind: e.kind() }
}

/// The append side of one WAL segment: encode, optionally fault
/// (injected torn writes / fsync failures), write, sync.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    seq: u32,
    /// fsync after every appended record (the durability barrier an `Ok`
    /// acknowledgment stands on). Off for throughput benchmarks.
    sync_each: bool,
    chaos: Option<Arc<ChaosState>>,
    /// Set after a torn write or a failed record fsync: the segment's
    /// tail is untrustworthy (garbage, or bytes that were never
    /// acknowledged but may have reached the platter) and further appends
    /// would write unrecoverable interleavings.
    poisoned: bool,
    /// File length after the last fully-acknowledged record — the seal
    /// point a poisoned segment is truncated to, so recovery replays
    /// exactly the acknowledged prefix and never a maybe-durable tail.
    acked_len: u64,
}

impl WalWriter {
    /// Create a fresh segment at `path` and write its [`WalRecord::Segment`]
    /// header record.
    pub fn create<T: WireValue>(
        path: &Path,
        base_ops: u64,
        gen: u64,
        m: u64,
        sync_each: bool,
        chaos: Option<Arc<ChaosState>>,
    ) -> Result<WalWriter, MpError> {
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(path)
            .map_err(|e| storage_err("wal.create", &e))?;
        let mut writer = WalWriter {
            file,
            path: path.to_path_buf(),
            seq: 1,
            sync_each,
            chaos,
            poisoned: false,
            acked_len: 0,
        };
        // The header record is exempt from injected WAL faults: chaos
        // targets the op stream, and a segment whose *header* vanished is
        // just an invalid segment (covered by the corrupt-store tests).
        let frame = encode_frame(
            1,
            &encode_record(&WalRecord::<T>::Segment { base_ops, gen, m }),
        );
        writer
            .file
            .write_all(&frame)
            .map_err(|e| storage_err("wal.create", &e))?;
        writer.sync("wal.create")?;
        writer.seq = 2;
        writer.acked_len = frame.len() as u64;
        Ok(writer)
    }

    /// Reopen an existing segment for appending after recovery verified
    /// its prefix; `next_seq` continues the scan's sequence numbering.
    pub fn reopen(
        path: &Path,
        next_seq: u32,
        sync_each: bool,
        chaos: Option<Arc<ChaosState>>,
    ) -> Result<WalWriter, MpError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| storage_err("wal.reopen", &e))?;
        let acked_len = file
            .metadata()
            .map_err(|e| storage_err("wal.reopen", &e))?
            .len();
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            seq: next_seq,
            sync_each,
            chaos,
            poisoned: false,
            acked_len,
        })
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record. On `Ok` the record is durably on disk (when
    /// `sync_each`) and the operation may be acknowledged; on `Err` it
    /// must not be. An injected torn write leaves a damaged tail and
    /// poisons the writer — the caller must fail closed until a snapshot
    /// rotates to a fresh segment.
    pub fn append<T: WireValue>(&mut self, rec: &WalRecord<T>) -> Result<(), MpError> {
        if self.poisoned {
            return Err(MpError::Storage {
                op: "wal.append",
                kind: std::io::ErrorKind::Other,
            });
        }
        let frame = encode_frame(self.seq, &encode_record(rec));
        if let Some(chaos) = self.chaos.as_ref().filter(|c| c.wal_fault()) {
            // The crash signature: a prefix of the record reaches the
            // platter, the ack never happens. Poison so no later append
            // writes *beyond* the tear.
            let keep = chaos.net_index(frame.len());
            let _ = self.file.write_all(&frame[..keep]);
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(MpError::Storage {
                op: "wal.append",
                kind: std::io::ErrorKind::WriteZero,
            });
        }
        if let Err(e) = self.file.write_all(&frame) {
            // A short/refused write leaves an unknowable tail, same as an
            // injected tear.
            self.poisoned = true;
            return Err(storage_err("wal.append", &e));
        }
        if self.sync_each {
            if let Err(e) = self.sync("wal.append") {
                // The record's bytes are in the file and *may* reach the
                // platter even though the op was not acknowledged. Poison
                // so the ambiguous tail is sealed off (truncated to the
                // acked length) at the next rotation, never replayed.
                self.poisoned = true;
                return Err(e);
            }
        }
        self.seq += 1;
        self.acked_len += frame.len() as u64;
        Ok(())
    }

    /// Whether a torn write or failed fsync poisoned this segment.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// File length after the last acknowledged record — the point a
    /// poisoned segment must be sealed (truncated) at.
    pub fn acked_len(&self) -> u64 {
        self.acked_len
    }

    /// fsync the segment (with injected failures when armed).
    pub fn sync(&mut self, op: &'static str) -> Result<(), MpError> {
        if let Some(chaos) = &self.chaos {
            if chaos.fsync_fault() {
                return Err(MpError::Storage {
                    op,
                    kind: std::io::ErrorKind::Interrupted,
                });
            }
        }
        self.file.sync_data().map_err(|e| storage_err(op, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::ChaosPlan;

    fn roundtrip(rec: WalRecord<i64>) {
        let enc = encode_record(&rec);
        assert_eq!(decode_record::<i64>(&enc), Some(rec));
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(WalRecord::Segment {
            base_ops: 77,
            gen: 3,
            m: 1 << 40,
        });
        roundtrip(WalRecord::Append {
            label: u64::MAX,
            value: i64::MIN,
        });
        roundtrip(WalRecord::Update {
            index: 0,
            value: -1,
        });
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(decode_record::<i64>(&[]), None);
        assert_eq!(decode_record::<i64>(&[0xFF]), None);
        assert_eq!(decode_record::<i64>(&[TAG_APPEND, 1, 2]), None);
        // Trailing garbage after a whole record is malformation too.
        let mut enc = encode_record(&WalRecord::Append {
            label: 1,
            value: 2i64,
        });
        enc.push(0);
        assert_eq!(decode_record::<i64>(&enc), None);
    }

    fn sample_log() -> Vec<u8> {
        let records = [
            WalRecord::Segment {
                base_ops: 0,
                gen: 0,
                m: 8,
            },
            WalRecord::Append {
                label: 3,
                value: 41i64,
            },
            WalRecord::Update {
                index: 0,
                value: -5,
            },
        ];
        records
            .iter()
            .enumerate()
            .flat_map(|(i, r)| encode_frame(i as u32 + 1, &encode_record(r)))
            .collect()
    }

    /// `sample_log` as bytes: the socket frame header and the on-disk
    /// record layout, pinned so a change to either shows here.
    #[rustfmt::skip]
    const SAMPLE_LOG: [u8; 119] = [
        // MPXF | seq 1 | len 25 | hcrc | pcrc | Segment { base_ops: 0, gen: 0, m: 8 }
        0x4D, 0x50, 0x58, 0x46, 0x01, 0x00, 0x00, 0x00, 0x19, 0x00, 0x00, 0x00,
        0xE2, 0xC7, 0x99, 0x84, 0x55, 0x6A, 0x2E, 0x27,
        0xA0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // MPXF | seq 2 | len 17 | hcrc | pcrc | Append { label: 3, value: 41 }
        0x4D, 0x50, 0x58, 0x46, 0x02, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00,
        0xEE, 0xE8, 0xA2, 0xCF, 0x63, 0x0E, 0x97, 0x15,
        0xA1, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // MPXF | seq 3 | len 17 | hcrc | pcrc | Update { index: 0, value: -5 }
        0x4D, 0x50, 0x58, 0x46, 0x03, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00,
        0x70, 0xE8, 0x08, 0x03, 0xE7, 0x96, 0xD0, 0x49,
        0xA2, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xFB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    ];

    #[test]
    fn frame_and_record_bytes_are_pinned() {
        assert_eq!(sample_log(), SAMPLE_LOG);
        let scan = scan_wal::<i64>(&SAMPLE_LOG);
        assert_eq!(scan.damage, None);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(
            scan.records[2],
            (
                3,
                WalRecord::Update {
                    index: 0,
                    value: -5
                }
            )
        );
    }

    #[test]
    fn clean_log_scans_whole() {
        let bytes = sample_log();
        let scan = scan_wal::<i64>(&bytes);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.damage, None);
        assert_eq!(scan.next_seq(), 4);
    }

    #[test]
    fn every_truncation_point_stops_at_a_whole_record() {
        let bytes = sample_log();
        let whole = scan_wal::<i64>(&bytes);
        // Frame boundaries: cumulative lengths of the three frames.
        for cut in 0..bytes.len() {
            let scan = scan_wal::<i64>(&bytes[..cut]);
            // The verified prefix must be a prefix of the full scan and
            // stop on a frame boundary.
            assert!(scan.records.len() <= whole.records.len());
            assert!(scan.valid_len <= cut);
            for (a, b) in scan.records.iter().zip(&whole.records) {
                assert_eq!(a, b, "cut={cut}");
            }
            if cut < bytes.len() {
                assert!(scan.damage.is_some() || scan.valid_len == cut, "cut={cut}");
            }
        }
    }

    #[test]
    fn every_bit_flip_is_contained() {
        let bytes = sample_log();
        let whole = scan_wal::<i64>(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let scan = scan_wal::<i64>(&bad);
            // Whatever the flip hit, every *delivered* record left of the
            // damage is genuine and the scan never runs past it.
            assert!(scan.damage.is_some(), "bit {bit} scanned clean");
            for (a, b) in scan.records.iter().zip(&whole.records) {
                assert_eq!(a, b, "bit={bit}");
            }
            assert!(scan.records.len() < whole.records.len(), "bit={bit}");
        }
    }

    #[test]
    fn sequence_gap_is_damage() {
        let r1 = encode_frame(
            1,
            &encode_record(&WalRecord::<i64>::Segment {
                base_ops: 0,
                gen: 0,
                m: 4,
            }),
        );
        let r3 = encode_frame(
            3,
            &encode_record(&WalRecord::Append {
                label: 0,
                value: 1i64,
            }),
        );
        let bytes: Vec<u8> = [r1, r3].concat();
        let scan = scan_wal::<i64>(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.damage, Some(WalDamage::SequenceGap));
    }

    #[test]
    fn writer_torn_write_poisons_and_is_recoverable() {
        let dir = std::env::temp_dir().join(format!("mpx-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.mpwl");
        let _ = std::fs::remove_file(&path);
        let chaos = ChaosPlan::seeded(11).wal_torn_write_ppm(1_000_000).arm();
        let mut w = WalWriter::create::<i64>(&path, 0, 0, 4, true, Some(chaos.clone())).unwrap();
        let err = w
            .append(&WalRecord::Append {
                label: 1,
                value: 7i64,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            MpError::Storage {
                op: "wal.append",
                ..
            }
        ));
        assert!(w.is_poisoned());
        // Subsequent appends fail closed.
        assert!(w
            .append(&WalRecord::Append {
                label: 1,
                value: 8i64,
            })
            .is_err());
        assert_eq!(chaos.wal_torn_writes_injected(), 1);
        // Recovery: the scan delivers the header record and stops at the
        // torn tail (or cleanly, if zero bytes of the tear were written).
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_wal::<i64>(&bytes);
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
