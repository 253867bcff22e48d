//! Checksummed session snapshots: the periodic full-state images that
//! bound WAL replay length.
//!
//! A snapshot is one file, `snap-<gen>.mpss`, written atomically
//! (tmp + fsync + rename + directory fsync) so a crash at any byte leaves
//! either the previous generation or a complete new one — never a
//! half-image at the live name. The header and payload carry separate
//! IEEE CRC-32s (the same [`crc32`] the MPXF wire frames use): a reader
//! verifies the header before trusting any length field and the payload
//! before trusting any element, and every failure is a typed
//! [`MpError::CorruptStore`] the recovery ladder can catch to fall back a
//! generation.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "MPSS" | version u32 | gen u64 | ops u64 | m u64 | n u64 | hcrc u32
//! n × (label u64 | value)                                  | pcrc u32
//! ```
//!
//! `ops` is the consistency cut: the count of session operations the
//! image reflects. The WAL segment for generation `gen` opens with a
//! [`Segment`](super::wal::WalRecord::Segment) record carrying the same
//! `base_ops`, and recovery refuses to stitch a snapshot to a segment
//! whose numbers disagree.

use crate::error::MpError;
use crate::resilience::chaos::ChaosState;
use crate::shard::net::frame::crc32;
use crate::shard::net::wire::WireValue;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

const SNAP_MAGIC: &[u8; 4] = b"MPSS";
const SNAP_VERSION: u32 = 1;
/// `magic + version + gen + ops + m + n + hcrc`.
const SNAP_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8 + 4;

/// A decoded snapshot image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotImage<T> {
    /// The snapshot generation.
    pub gen: u64,
    /// Session operations reflected by this image (the WAL cut).
    pub ops: u64,
    /// The session's bucket count.
    pub m: u64,
    /// The element log at the cut, in append order.
    pub elems: Vec<(u64, T)>,
}

fn storage_err(op: &'static str, e: &std::io::Error) -> MpError {
    MpError::Storage { op, kind: e.kind() }
}

/// Encode a snapshot image to its on-disk bytes.
pub fn encode_snapshot<T: WireValue>(image: &SnapshotImage<T>) -> Vec<u8> {
    let n = image.elems.len();
    let mut bytes = Vec::with_capacity(SNAP_HEADER_LEN + n * (8 + T::WIRE_SIZE) + 4);
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    bytes.extend_from_slice(&image.gen.to_le_bytes());
    bytes.extend_from_slice(&image.ops.to_le_bytes());
    bytes.extend_from_slice(&image.m.to_le_bytes());
    bytes.extend_from_slice(&(n as u64).to_le_bytes());
    let hcrc = crc32(&[&bytes[4..SNAP_HEADER_LEN - 4]]);
    bytes.extend_from_slice(&hcrc.to_le_bytes());
    let payload_start = bytes.len();
    for (label, value) in &image.elems {
        bytes.extend_from_slice(&label.to_le_bytes());
        value.wire_write(&mut bytes);
    }
    let pcrc = crc32(&[&bytes[payload_start..]]);
    bytes.extend_from_slice(&pcrc.to_le_bytes());
    bytes
}

/// Decode snapshot bytes, verifying both CRCs and every length before
/// use. Any damage — short file, bad magic, wrong version, CRC mismatch,
/// an element count that disagrees with the byte count — is
/// [`MpError::CorruptStore`].
pub fn decode_snapshot<T: WireValue>(bytes: &[u8]) -> Result<SnapshotImage<T>, MpError> {
    if bytes.len() < SNAP_HEADER_LEN + 4 {
        return Err(MpError::CorruptStore {
            what: "snapshot shorter than header",
        });
    }
    if &bytes[..4] != SNAP_MAGIC {
        return Err(MpError::CorruptStore {
            what: "snapshot magic mismatch",
        });
    }
    let hcrc = u32::from_le_bytes(
        bytes[SNAP_HEADER_LEN - 4..SNAP_HEADER_LEN]
            .try_into()
            .unwrap(),
    );
    if crc32(&[&bytes[4..SNAP_HEADER_LEN - 4]]) != hcrc {
        return Err(MpError::CorruptStore {
            what: "snapshot header checksum mismatch",
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(MpError::CorruptStore {
            what: "snapshot version unsupported",
        });
    }
    let gen = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let ops = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let m = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let n = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    let elem_size = 8 + T::WIRE_SIZE;
    let expect = (n as usize)
        .checked_mul(elem_size)
        .and_then(|p| p.checked_add(SNAP_HEADER_LEN + 4));
    if expect != Some(bytes.len()) {
        return Err(MpError::CorruptStore {
            what: "snapshot element count disagrees with file size",
        });
    }
    let payload = &bytes[SNAP_HEADER_LEN..bytes.len() - 4];
    let pcrc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(&[payload]) != pcrc {
        return Err(MpError::CorruptStore {
            what: "snapshot payload checksum mismatch",
        });
    }
    let mut elems = Vec::new();
    if elems.try_reserve(n as usize).is_err() {
        return Err(MpError::AllocationFailed {
            bytes: n as usize * elem_size,
        });
    }
    let mut rest = payload;
    for _ in 0..n {
        let label = u64::from_le_bytes(rest[..8].try_into().unwrap());
        rest = &rest[8..];
        let value = T::wire_read(&mut rest).map_err(|_| MpError::CorruptStore {
            what: "snapshot element value undecodable",
        })?;
        elems.push((label, value));
    }
    Ok(SnapshotImage { gen, ops, m, elems })
}

/// Write `image` atomically to `path` (tmp + fsync + rename + directory
/// fsync). With chaos armed, an `fsync_fail_ppm` draw fails the write
/// loudly with [`MpError::Storage`].
pub fn write_snapshot<T: WireValue>(
    path: &Path,
    image: &SnapshotImage<T>,
    chaos: Option<&Arc<ChaosState>>,
) -> Result<(), MpError> {
    let bytes = encode_snapshot(image);
    let tmp = path.with_extension("tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| storage_err("snapshot.write", &e))?;
    file.write_all(&bytes)
        .map_err(|e| storage_err("snapshot.write", &e))?;
    if let Some(chaos) = chaos {
        if chaos.fsync_fault() {
            let _ = std::fs::remove_file(&tmp);
            return Err(MpError::Storage {
                op: "snapshot.fsync",
                kind: std::io::ErrorKind::Interrupted,
            });
        }
    }
    file.sync_data()
        .map_err(|e| storage_err("snapshot.fsync", &e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| storage_err("snapshot.rename", &e))?;
    // The rename itself must be durable before the image may be trusted
    // over its predecessor.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_data();
        }
    }
    Ok(())
}

/// Read and decode the snapshot at `path`. A missing file is
/// `Ok(None)`; damaged bytes are [`MpError::CorruptStore`].
pub fn read_snapshot<T: WireValue>(path: &Path) -> Result<Option<SnapshotImage<T>>, MpError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(storage_err("snapshot.read", &e)),
    };
    decode_snapshot(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> SnapshotImage<i64> {
        SnapshotImage {
            gen: 4,
            ops: 129,
            m: 16,
            elems: (0..100).map(|i| (i % 16, i as i64 * 13 - 600)).collect(),
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let img = image();
        let bytes = encode_snapshot(&img);
        assert_eq!(decode_snapshot::<i64>(&bytes).unwrap(), img);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let img = SnapshotImage::<i64> {
            gen: 0,
            ops: 0,
            m: 1,
            elems: Vec::new(),
        };
        let bytes = encode_snapshot(&img);
        assert_eq!(decode_snapshot::<i64>(&bytes).unwrap(), img);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode_snapshot(&image());
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_snapshot::<i64>(&bad).is_err(),
                "bit {bit} decoded clean"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&image());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot::<i64>(&bytes[..cut]).is_err(),
                "cut {cut} decoded clean"
            );
        }
    }

    #[test]
    fn write_read_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("mpx-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.mpss");
        let img = image();
        write_snapshot(&path, &img, None).unwrap();
        assert_eq!(read_snapshot::<i64>(&path).unwrap(), Some(img));
        assert_eq!(
            read_snapshot::<i64>(&dir.join("snap-none.mpss")).unwrap(),
            None
        );
        std::fs::remove_file(&path).unwrap();
    }
}
