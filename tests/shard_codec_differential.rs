//! Differential/property suite for the socket shard wire stack: every
//! `DownMsg`/`UpMsg` (including zero-length and `(label, offset)` apply
//! payloads and the `(i32, i32)` pair element), every handshake payload,
//! and every frame survives an encode → decode round trip bit-for-bit —
//! and every damaged byte stream delivers only the original frames
//! before the damage, then stops with a **typed** [`NetError`]: never a
//! panic, never a silently wrong message, and nothing after the damage.

use multiprefix::shard::net::codec::{
    decode_ack, decode_down, decode_hello, decode_job_body, decode_job_header, decode_up,
    encode_ack, encode_down, encode_hello, encode_job, encode_up, TAG_HELLO_ACK, TAG_JOB_ACK,
};
use multiprefix::shard::net::{
    crc32, encode_frame, wire_tag_of, FrameBuffer, NetError, HEADER_LEN,
};
use multiprefix::shard::{DownMsg, ShardSpan, UpMsg};
use proptest::prelude::*;

fn arb_span() -> impl Strategy<Value = ShardSpan> {
    (0usize..32, 0usize..2_000, 0usize..300).prop_map(|(index, start, len)| ShardSpan {
        index,
        start,
        end: start + len,
    })
}

/// All three down-message shapes, selected by a generated discriminant
/// (the vendored proptest subset has no `prop_oneof`).
fn arb_down_i64() -> impl Strategy<Value = DownMsg<i64>> {
    (
        0u8..3,
        any::<u64>(),
        arb_span(),
        proptest::collection::vec((0usize..10_000, any::<i64>()), 0..64),
    )
        .prop_map(|(kind, task, span, offsets)| match kind {
            0 => DownMsg::Scan { task, span },
            1 => DownMsg::Apply {
                task,
                span,
                offsets,
            },
            _ => DownMsg::Shutdown,
        })
}

fn arb_up_i64() -> impl Strategy<Value = UpMsg<i64>> {
    (
        0u8..4,
        0usize..32,
        any::<u64>(),
        arb_span(),
        proptest::collection::vec((0usize..10_000, any::<i64>()), 0..64),
        proptest::collection::vec(any::<i64>(), 0..200),
    )
        .prop_map(|(kind, shard, task, span, pairs, sums)| match kind {
            0 => {
                let (touched, totals) = pairs.into_iter().unzip();
                UpMsg::Summary {
                    shard,
                    task,
                    span,
                    touched,
                    totals,
                }
            }
            1 => UpMsg::Applied {
                shard,
                task,
                span,
                sums,
            },
            2 => UpMsg::Heartbeat { shard },
            _ => UpMsg::Crashed { shard },
        })
}

fn arb_down_pair() -> impl Strategy<Value = DownMsg<(i32, i32)>> {
    (
        0u8..3,
        any::<u64>(),
        arb_span(),
        proptest::collection::vec((0usize..10_000, (any::<i32>(), any::<i32>())), 0..48),
    )
        .prop_map(|(kind, task, span, offsets)| match kind {
            0 => DownMsg::Scan { task, span },
            1 => DownMsg::Apply {
                task,
                span,
                offsets,
            },
            _ => DownMsg::Shutdown,
        })
}

fn arb_up_pair() -> impl Strategy<Value = UpMsg<(i32, i32)>> {
    (
        0u8..2,
        0usize..32,
        any::<u64>(),
        arb_span(),
        proptest::collection::vec((0usize..10_000, (any::<i32>(), any::<i32>())), 0..48),
        proptest::collection::vec((any::<i32>(), any::<i32>()), 0..96),
    )
        .prop_map(|(kind, shard, task, span, pairs, sums)| match kind {
            0 => {
                let (touched, totals) = pairs.into_iter().unzip();
                UpMsg::Summary {
                    shard,
                    task,
                    span,
                    touched,
                    totals,
                }
            }
            _ => UpMsg::Applied {
                shard,
                task,
                span,
                sums,
            },
        })
}

/// Printable ASCII strings (the vendored subset has no regex strategy).
fn arb_reason() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..40).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

proptest! {
    /// Encode → decode identity for supervisor → worker messages.
    #[test]
    fn down_round_trips_i64(msg in arb_down_i64()) {
        let bytes = encode_down(&msg);
        prop_assert_eq!(decode_down::<i64>(&bytes).unwrap(), msg);
    }

    /// Encode → decode identity for worker → supervisor messages.
    #[test]
    fn up_round_trips_i64(msg in arb_up_i64()) {
        let bytes = encode_up(&msg);
        prop_assert_eq!(decode_up::<i64>(&bytes).unwrap(), msg);
    }

    /// The 8-byte pair element (`FirstLast`'s carrier) round trips too.
    #[test]
    fn down_round_trips_pair(msg in arb_down_pair()) {
        let bytes = encode_down(&msg);
        prop_assert_eq!(decode_down::<(i32, i32)>(&bytes).unwrap(), msg);
    }

    #[test]
    fn up_round_trips_pair(msg in arb_up_pair()) {
        let bytes = encode_up(&msg);
        prop_assert_eq!(decode_up::<(i32, i32)>(&bytes).unwrap(), msg);
    }

    /// Handshake and ack payloads round trip.
    #[test]
    fn control_payloads_round_trip(
        shard in 0usize..1024,
        pid in any::<u32>(),
        needs_job in any::<bool>(),
        ok in any::<bool>(),
        reason in arb_reason(),
    ) {
        let hello = decode_hello(&encode_hello(shard, pid, needs_job)).unwrap();
        prop_assert_eq!(hello.shard, shard);
        prop_assert_eq!(hello.pid, pid);
        prop_assert_eq!(hello.needs_job, needs_job);

        let (got_ok, got_reason) =
            decode_ack(TAG_HELLO_ACK, &encode_ack(TAG_HELLO_ACK, ok, &reason)).unwrap();
        prop_assert_eq!(got_ok, ok);
        prop_assert_eq!(got_reason, reason.clone());
        // An ack for the wrong stage is a typed refusal, not a panic.
        prop_assert!(decode_ack(TAG_JOB_ACK, &encode_ack(TAG_HELLO_ACK, ok, &reason)).is_err());
    }

    /// A `Job` frame ships the whole problem and reconstructs it exactly.
    #[test]
    fn job_round_trips(
        pairs in proptest::collection::vec((any::<i64>(), 0usize..64), 0..300),
        m in 1usize..64,
        heartbeat_ms in 1u64..10_000,
    ) {
        let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
        let tag = wire_tag_of::<i64>();
        let bytes = encode_job::<i64>(&tag, "plus", m, heartbeat_ms, &values, &labels);
        let (header, body) = decode_job_header(&bytes).unwrap();
        prop_assert_eq!(header.tag.as_str(), tag.as_str());
        prop_assert_eq!(header.op.as_str(), "plus");
        prop_assert_eq!(header.m, m);
        prop_assert_eq!(header.heartbeat_ms, heartbeat_ms);
        prop_assert_eq!(header.n, values.len());
        let (got_values, got_labels) = decode_job_body::<i64>(&header, body).unwrap();
        prop_assert_eq!(got_values, values);
        prop_assert_eq!(got_labels, labels);
    }

    /// **Truncation arm**: any strict prefix of an encoded message is
    /// rejected with a typed error — never a panic, never a partial
    /// message passed off as complete.
    #[test]
    fn truncated_messages_surface_typed_errors(
        msg in arb_down_i64(),
        up in arb_up_i64(),
        cut_ppm in 0u32..1_000_000,
    ) {
        let bytes = encode_down(&msg);
        if bytes.len() > 1 {
            let cut = 1 + (cut_ppm as usize * (bytes.len() - 1)) / 1_000_000;
            if cut < bytes.len() {
                prop_assert!(decode_down::<i64>(&bytes[..cut]).is_err());
            }
        }
        let bytes = encode_up(&up);
        if bytes.len() > 1 {
            let cut = 1 + (cut_ppm as usize * (bytes.len() - 1)) / 1_000_000;
            if cut < bytes.len() {
                prop_assert!(decode_up::<i64>(&bytes[..cut]).is_err());
            }
        }
    }

    /// **Fuzz arm**: arbitrary byte soup never panics a decoder.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_down::<i64>(&bytes);
        let _ = decode_up::<i64>(&bytes);
        let _ = decode_hello(&bytes);
        let _ = decode_ack(TAG_HELLO_ACK, &bytes);
        let _ = decode_job_header(&bytes);
    }

    /// A framed stream delivered in arbitrary chunk sizes reassembles
    /// every frame in order, bit for bit.
    #[test]
    fn frames_reassemble_across_arbitrary_chunking(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 1..12),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u32 + 1, p));
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            fb.extend(piece);
            while let Some(payload) = fb.poll().expect("a clean stream never fails a check") {
                got.push(payload);
            }
        }
        prop_assert_eq!(got, payloads);
    }

    /// **Corruption arm**: flip any single bit anywhere in a framed
    /// stream. The parser delivers exactly the original frames that end
    /// before the damaged one, in order, then stops with a typed error
    /// (magic or checksum) — and delivers nothing after it, not even
    /// good frames appended later. A wrong payload must never appear.
    #[test]
    fn single_bit_corruption_never_delivers_wrong_bytes(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 1..8),
        bit_ppm in 0u32..1_000_000,
    ) {
        let mut stream = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u32 + 1, p));
        }
        let bit = (bit_ppm as u64 * (stream.len() as u64 * 8 - 1) / 1_000_000) as usize;
        stream[bit / 8] ^= 1 << (bit % 8);
        // The damaged frame: how many frames end at or before the flip.
        let hit = bit / 8;
        let mut end = 0usize;
        let mut before = 0usize;
        for p in &payloads {
            end += HEADER_LEN + p.len();
            if end <= hit {
                before += 1;
            }
        }

        let mut fb = FrameBuffer::new();
        fb.extend(&stream);
        let mut delivered = Vec::new();
        let err = loop {
            match fb.poll() {
                Ok(Some(payload)) => delivered.push(payload),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        prop_assert_eq!(&delivered[..], &payloads[..before]);
        prop_assert!(
            matches!(
                err,
                Some(NetError::BadChecksum { .. } | NetError::BadValue("frame magic"))
            ),
            "a single flip must fail a check: {:?}",
            err
        );
        // Fail-stop: the error sticks, whatever arrives next.
        fb.extend(&encode_frame(before as u32 + 1, &payloads[before]));
        prop_assert_eq!(fb.poll(), Err(err.unwrap()));
    }

    /// **Truncated-stream arm**: cutting a framed stream anywhere loses
    /// only the tail — every frame wholly before the cut still arrives
    /// intact, and the parser just waits for more bytes (the connection
    /// layer turns the missing bytes into an EOF/timeout).
    #[test]
    fn truncated_stream_keeps_verified_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 1..8),
        cut_ppm in 0u32..1_000_000,
    ) {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u32 + 1, p));
            ends.push(stream.len());
        }
        let cut = (cut_ppm as u64 * stream.len() as u64 / 1_000_000) as usize;
        let whole = ends.iter().filter(|&&e| e <= cut).count();

        let mut fb = FrameBuffer::new();
        fb.extend(&stream[..cut]);
        let mut delivered = Vec::new();
        while let Some(payload) = fb.poll().expect("a cut stream only waits for bytes") {
            delivered.push(payload);
        }
        prop_assert_eq!(&delivered[..], &payloads[..whole]);
    }

    /// The CRC-32 is stable across split points (streaming equivalence).
    #[test]
    fn crc_split_invariance(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        at_ppm in 0u32..1_000_000,
    ) {
        let at = (at_ppm as u64 * bytes.len() as u64 / 1_000_000) as usize;
        prop_assert_eq!(crc32(&[&bytes]), crc32(&[&bytes[..at], &bytes[at..]]));
    }
}

/// Deterministic spot check: the exact zero-length payloads the shard
/// protocol produces for empty spans round trip.
#[test]
fn zero_length_payloads_round_trip() {
    let span = ShardSpan {
        index: 0,
        start: 5,
        end: 5,
    };
    let apply: DownMsg<i64> = DownMsg::Apply {
        task: 7,
        span,
        offsets: Vec::new(),
    };
    assert_eq!(decode_down::<i64>(&encode_down(&apply)).unwrap(), apply);
    let summary: UpMsg<i64> = UpMsg::Summary {
        shard: 0,
        task: 7,
        span,
        touched: Vec::new(),
        totals: Vec::new(),
    };
    assert_eq!(decode_up::<i64>(&encode_up(&summary)).unwrap(), summary);
    let applied: UpMsg<i64> = UpMsg::Applied {
        shard: 0,
        task: 7,
        span,
        sums: Vec::new(),
    };
    assert_eq!(decode_up::<i64>(&encode_up(&applied)).unwrap(), applied);
}
