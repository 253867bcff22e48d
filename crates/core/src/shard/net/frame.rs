//! Length-prefixed, checksummed, sequence-numbered frames, read
//! fail-stop.
//!
//! ```text
//! ┌────────────┬─────────┬─────────┬──────────┬──────────┬──────────────┐
//! │ MAGIC MPXF │ seq u32 │ len u32 │ hcrc u32 │ pcrc u32 │ payload[len] │
//! │  4 bytes   │   LE    │   LE    │    LE    │    LE    │              │
//! └────────────┴─────────┴─────────┴──────────┴──────────┴──────────────┘
//! hcrc = CRC-32 (IEEE) over seq ‖ len      (authenticates the header)
//! pcrc = CRC-32 (IEEE) over payload        (authenticates the body)
//! ```
//!
//! The header carries its **own** checksum so a corrupted length field is
//! rejected at once — without it, a bit flip in `len` would leave the
//! parser waiting forever for payload bytes that never arrive, turning a
//! detectable fault into a stall. The session WAL stores these same
//! bytes on disk, so the layout is fixed.
//!
//! [`parse_frame`] is the one strict parser: the socket's incremental
//! [`FrameBuffer`] and the WAL's `scan_wal` both call it. The first
//! check that fails — magic, header CRC, length cap, payload CRC, or a
//! `seq` other than the next one — ends the stream: nothing after it is
//! delivered, and no repair is attempted. A Unix-domain or loopback-TCP
//! stream delivers its bytes intact and in order or not at all, so
//! damage means the connection (or the disk) is broken; the shard
//! supervisor recovers one level up, by requeueing the lost task and
//! respawning the worker.

use super::wire::NetError;

/// Frame preamble.
pub const MAGIC: [u8; 4] = *b"MPXF";
/// Header bytes before the payload.
pub const HEADER_LEN: usize = 20;
/// Hard cap on one frame's payload: large enough for a `Job` carrying a
/// bench-sized input, small enough that a hostile length field can never
/// demand a gigantic buffer.
pub const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected) with a lazily built table — zero
/// dependencies, matches every standard `crc32` implementation.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Encode one frame: header + payload, both checksummed.
pub fn encode_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let seq_le = seq.to_le_bytes();
    let len_le = (payload.len() as u32).to_le_bytes();
    let hcrc = crc32(&[&seq_le, &len_le]);
    let pcrc = crc32(&[payload]);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&seq_le);
    out.extend_from_slice(&len_le);
    out.extend_from_slice(&hcrc.to_le_bytes());
    out.extend_from_slice(&pcrc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Check the frame at the front of `bytes`, which must carry sequence
/// number `expected` and at most `cap` payload bytes. Returns the payload
/// and the frame's total length, `Ok(None)` while `bytes` holds only part
/// of the frame, or the first check that failed.
pub fn parse_frame(
    bytes: &[u8],
    expected: u32,
    cap: usize,
) -> Result<Option<(&[u8], usize)>, NetError> {
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    if bytes[..4] != MAGIC {
        return Err(NetError::BadValue("frame magic"));
    }
    let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"));
    let (seq, len, hcrc, pcrc) = (field(4), field(8), field(12), field(16));
    if crc32(&[&bytes[4..12]]) != hcrc {
        return Err(NetError::BadChecksum { seq });
    }
    if len as usize > cap {
        return Err(NetError::BadLength {
            len: len.into(),
            cap: cap as u64,
        });
    }
    let end = HEADER_LEN + len as usize;
    if bytes.len() < end {
        return Ok(None);
    }
    let payload = &bytes[HEADER_LEN..end];
    if crc32(&[payload]) != pcrc {
        return Err(NetError::BadChecksum { seq });
    }
    if seq != expected {
        return Err(NetError::BadValue("frame sequence"));
    }
    Ok(Some((payload, end)))
}

/// The socket's incremental reader: bytes in via [`FrameBuffer::extend`],
/// verified in-order payloads out via [`FrameBuffer::poll`]. Pure (no
/// I/O), so the damage model is testable without a socket. Never panics
/// and never allocates more than the buffered bytes plus one payload
/// copy, whatever the input.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor into `buf` (compacted periodically).
    pos: usize,
    /// Next sequence number to deliver.
    expected: u32,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer::new()
    }
}

impl FrameBuffer {
    /// An empty parser expecting sequence number 1.
    pub fn new() -> Self {
        FrameBuffer {
            buf: Vec::new(),
            pos: 0,
            expected: 1,
        }
    }

    /// Feed raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: the parser never re-reads consumed
        // bytes, so the buffer stays bounded by one frame plus readahead.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next verified, in-sequence payload; `Ok(None)` until more bytes
    /// arrive. After an `Err` the stream is dead: every later call returns
    /// the same error and nothing more is delivered.
    pub fn poll(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let Some((payload, used)) = parse_frame(&self.buf[self.pos..], self.expected, MAX_PAYLOAD)?
        else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.pos += used;
        self.expected += 1;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poll until `Ok(None)` or an error; the payloads delivered and the
    /// error, if one ended the stream.
    fn drain(fb: &mut FrameBuffer) -> (Vec<Vec<u8>>, Option<NetError>) {
        let mut got = Vec::new();
        loop {
            match fb.poll() {
                Ok(Some(payload)) => got.push(payload),
                Ok(None) => return (got, None),
                Err(e) => {
                    // Fail-stop: the error sticks and nothing follows it.
                    assert_eq!(fb.poll(), Err(e.clone()));
                    return (got, Some(e));
                }
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn frames_roundtrip_in_order_across_arbitrary_chunking() {
        let frames: Vec<Vec<u8>> = (1..=5u32)
            .map(|s| encode_frame(s, format!("payload-{s}").as_bytes()))
            .collect();
        let stream: Vec<u8> = frames.concat();
        for chunk in [1usize, 3, 7, stream.len()] {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                fb.extend(piece);
                let (payloads, err) = drain(&mut fb);
                assert_eq!(err, None, "clean stream, chunk={chunk}");
                got.extend(payloads);
            }
            let want: Vec<Vec<u8>> = (1..=5).map(|s| format!("payload-{s}").into()).collect();
            assert_eq!(got, want, "chunk={chunk}");
        }
    }

    #[test]
    fn every_possible_bit_flip_is_rejected_and_ends_the_stream() {
        let good = encode_frame(1, b"hello");
        let next = encode_frame(2, b"world");
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut fb = FrameBuffer::new();
            fb.extend(&bad);
            fb.extend(&next);
            let (got, err) = drain(&mut fb);
            // Whatever the flipped bit hit — magic, header, payload, or a
            // checksum — the frame is rejected with a typed cause, and the
            // good frame behind it is not delivered.
            assert!(got.is_empty(), "flipped bit {bit} delivered {got:?}");
            assert!(
                matches!(
                    err,
                    Some(NetError::BadChecksum { .. } | NetError::BadValue("frame magic"))
                ),
                "bit {bit}: {err:?}"
            );
            // Sending the original again cannot revive the stream.
            fb.extend(&good);
            assert_eq!(drain(&mut fb), (Vec::new(), err), "bit {bit}");
        }
    }

    #[test]
    fn truncated_frame_fails_on_the_next_frame() {
        let f1 = encode_frame(1, b"first");
        let f2 = encode_frame(2, b"second");
        for cut in 1..f1.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&f1[..cut]); // frame 1 never finishes
            fb.extend(&f2);
            let (got, err) = drain(&mut fb);
            assert!(got.is_empty(), "cut={cut}: frame 2 delivered");
            // The next frame's bytes land where the rest of frame 1
            // should be: the magic (cut inside it) or a checksum fails.
            assert!(
                matches!(
                    err,
                    Some(NetError::BadChecksum { .. } | NetError::BadValue("frame magic"))
                ),
                "cut={cut}: {err:?}"
            );
        }
        // A cut at byte 0 drops frame 1 whole: frame 2's `seq` fails.
        let mut fb = FrameBuffer::new();
        fb.extend(&f2);
        assert_eq!(
            drain(&mut fb),
            (Vec::new(), Some(NetError::BadValue("frame sequence")))
        );
    }

    #[test]
    fn oversized_length_field_is_rejected_not_awaited() {
        // Forge a header that *checksums correctly* but advertises an
        // absurd length: the cap must reject it.
        let seq_le = 1u32.to_le_bytes();
        let len_le = u32::MAX.to_le_bytes();
        let hcrc = crc32(&[&seq_le, &len_le]);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&seq_le);
        frame.extend_from_slice(&len_le);
        frame.extend_from_slice(&hcrc.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        match fb.poll() {
            Err(NetError::BadLength { .. }) => {}
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn repeated_seq_is_damage() {
        let f1 = encode_frame(1, b"one");
        let f2 = encode_frame(2, b"two");
        let mut fb = FrameBuffer::new();
        fb.extend(&f1);
        fb.extend(&f1); // duplicate
        fb.extend(&f2);
        assert_eq!(
            drain(&mut fb),
            (
                vec![b"one".to_vec()],
                Some(NetError::BadValue("frame sequence"))
            )
        );
    }

    #[test]
    fn garbage_between_frames_is_damage() {
        let f1 = encode_frame(1, b"one");
        let f2 = encode_frame(2, b"two");
        let mut fb = FrameBuffer::new();
        fb.extend(&f1);
        fb.extend(b"\x00\xFFgarbageMP");
        fb.extend(&f2);
        assert_eq!(
            drain(&mut fb),
            (
                vec![b"one".to_vec()],
                Some(NetError::BadValue("frame magic"))
            )
        );
    }

    #[test]
    fn empty_payload_frame_roundtrips() {
        let f = encode_frame(1, b"");
        let mut fb = FrameBuffer::new();
        fb.extend(&f);
        assert_eq!(fb.poll(), Ok(Some(Vec::new())));
    }
}
