//! Tagged payload codec for the shard protocol.
//!
//! One byte of tag, then fixed little-endian fields. Counts are
//! pre-validated against the remaining bytes (using
//! [`WireValue::WIRE_SIZE`]) **before** any allocation, so a corrupt
//! count field costs a typed error, never a huge `reserve`. Decoders are
//! strict: trailing bytes after a complete message are rejected, which
//! keeps the encode/decode pair a true bijection (pinned by the proptest
//! suite in `tests/shard_codec_differential.rs`).

use super::wire::{
    get_str, get_u16, get_u32, get_u64, get_usize, put_str, put_u16, put_u32, put_u64, take,
    NetError, WireValue,
};
use crate::shard::transport::{DownMsg, ShardSpan, UpMsg};

/// Protocol version carried in every `Hello`.
pub const WIRE_VERSION: u16 = 1;

/// `DownMsg::Scan`.
pub const TAG_SCAN: u8 = 1;
/// `DownMsg::Apply`.
pub const TAG_APPLY: u8 = 2;
/// `DownMsg::Shutdown`.
pub const TAG_SHUTDOWN: u8 = 3;
/// `UpMsg::Summary`.
pub const TAG_SUMMARY: u8 = 4;
/// `UpMsg::Applied`.
pub const TAG_APPLIED: u8 = 5;
/// `UpMsg::Heartbeat`.
pub const TAG_HEARTBEAT: u8 = 6;
/// `UpMsg::Crashed`.
pub const TAG_CRASHED: u8 = 7;
/// Handshake: worker announces itself.
pub const TAG_HELLO: u8 = 16;
/// Handshake: supervisor accepts or refuses.
pub const TAG_HELLO_ACK: u8 = 17;
/// Supervisor ships the problem to a worker process.
pub const TAG_JOB: u8 = 18;
/// Worker acknowledges (or refuses) the job.
pub const TAG_JOB_ACK: u8 = 19;

fn put_span(out: &mut Vec<u8>, span: ShardSpan) {
    put_u64(out, span.index as u64);
    put_u64(out, span.start as u64);
    put_u64(out, span.end as u64);
}

fn get_span(input: &mut &[u8]) -> Result<ShardSpan, NetError> {
    let index = get_usize(input)?;
    let start = get_usize(input)?;
    let end = get_usize(input)?;
    if end < start {
        return Err(NetError::BadValue("span end < start"));
    }
    Ok(ShardSpan { index, start, end })
}

/// Reject a count field that the remaining bytes cannot possibly satisfy.
fn check_count(count: usize, elem_size: usize, input: &[u8]) -> Result<(), NetError> {
    let need = count.checked_mul(elem_size).ok_or(NetError::BadLength {
        len: count as u64,
        cap: u64::MAX,
    })?;
    if need > input.len() {
        return Err(NetError::Truncated {
            need: need - input.len(),
            have: input.len(),
        });
    }
    Ok(())
}

fn finish<M>(msg: M, input: &[u8]) -> Result<M, NetError> {
    if input.is_empty() {
        Ok(msg)
    } else {
        Err(NetError::BadValue("trailing bytes"))
    }
}

/// Encode a supervisor → worker message.
pub fn encode_down<T: WireValue>(msg: &DownMsg<T>) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        DownMsg::Scan { task, span } => {
            out.push(TAG_SCAN);
            put_u64(&mut out, *task);
            put_span(&mut out, *span);
        }
        DownMsg::Apply {
            task,
            span,
            offsets,
        } => {
            out.push(TAG_APPLY);
            put_u64(&mut out, *task);
            put_span(&mut out, *span);
            put_u32(&mut out, offsets.len() as u32);
            for (label, offset) in offsets {
                put_u64(&mut out, *label as u64);
                offset.wire_write(&mut out);
            }
        }
        DownMsg::Shutdown => out.push(TAG_SHUTDOWN),
    }
    out
}

/// Decode a supervisor → worker message.
pub fn decode_down<T: WireValue>(payload: &[u8]) -> Result<DownMsg<T>, NetError> {
    let mut input = payload;
    let tag = take(&mut input, 1)?[0];
    match tag {
        TAG_SCAN => {
            let task = get_u64(&mut input)?;
            let span = get_span(&mut input)?;
            finish(DownMsg::Scan { task, span }, input)
        }
        TAG_APPLY => {
            let task = get_u64(&mut input)?;
            let span = get_span(&mut input)?;
            let count = get_u32(&mut input)? as usize;
            check_count(count, 8 + T::WIRE_SIZE, input)?;
            let mut offsets = Vec::with_capacity(count);
            for _ in 0..count {
                let label = get_usize(&mut input)?;
                let offset = T::wire_read(&mut input)?;
                offsets.push((label, offset));
            }
            finish(
                DownMsg::Apply {
                    task,
                    span,
                    offsets,
                },
                input,
            )
        }
        TAG_SHUTDOWN => finish(DownMsg::Shutdown, input),
        other => Err(NetError::BadTag(other)),
    }
}

/// Encode a worker → supervisor message.
pub fn encode_up<T: WireValue>(msg: &UpMsg<T>) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        UpMsg::Summary {
            shard,
            task,
            span,
            touched,
            totals,
        } => {
            out.push(TAG_SUMMARY);
            put_u64(&mut out, *shard as u64);
            put_u64(&mut out, *task);
            put_span(&mut out, *span);
            debug_assert_eq!(touched.len(), totals.len());
            put_u32(&mut out, touched.len() as u32);
            for label in touched {
                put_u64(&mut out, *label as u64);
            }
            for total in totals {
                total.wire_write(&mut out);
            }
        }
        UpMsg::Applied {
            shard,
            task,
            span,
            sums,
        } => {
            out.push(TAG_APPLIED);
            put_u64(&mut out, *shard as u64);
            put_u64(&mut out, *task);
            put_span(&mut out, *span);
            put_u32(&mut out, sums.len() as u32);
            for sum in sums {
                sum.wire_write(&mut out);
            }
        }
        UpMsg::Heartbeat { shard } => {
            out.push(TAG_HEARTBEAT);
            put_u64(&mut out, *shard as u64);
        }
        UpMsg::Crashed { shard } => {
            out.push(TAG_CRASHED);
            put_u64(&mut out, *shard as u64);
        }
    }
    out
}

/// Decode a worker → supervisor message.
pub fn decode_up<T: WireValue>(payload: &[u8]) -> Result<UpMsg<T>, NetError> {
    let mut input = payload;
    let tag = take(&mut input, 1)?[0];
    match tag {
        TAG_SUMMARY => {
            let shard = get_usize(&mut input)?;
            let task = get_u64(&mut input)?;
            let span = get_span(&mut input)?;
            let count = get_u32(&mut input)? as usize;
            check_count(count, 8 + T::WIRE_SIZE, input)?;
            let mut touched = Vec::with_capacity(count);
            for _ in 0..count {
                touched.push(get_usize(&mut input)?);
            }
            let mut totals = Vec::with_capacity(count);
            for _ in 0..count {
                totals.push(T::wire_read(&mut input)?);
            }
            finish(
                UpMsg::Summary {
                    shard,
                    task,
                    span,
                    touched,
                    totals,
                },
                input,
            )
        }
        TAG_APPLIED => {
            let shard = get_usize(&mut input)?;
            let task = get_u64(&mut input)?;
            let span = get_span(&mut input)?;
            let count = get_u32(&mut input)? as usize;
            check_count(count, T::WIRE_SIZE, input)?;
            let mut sums = Vec::with_capacity(count);
            for _ in 0..count {
                sums.push(T::wire_read(&mut input)?);
            }
            finish(
                UpMsg::Applied {
                    shard,
                    task,
                    span,
                    sums,
                },
                input,
            )
        }
        TAG_HEARTBEAT => {
            let shard = get_usize(&mut input)?;
            finish(UpMsg::Heartbeat { shard }, input)
        }
        TAG_CRASHED => {
            let shard = get_usize(&mut input)?;
            finish(UpMsg::Crashed { shard }, input)
        }
        other => Err(NetError::BadTag(other)),
    }
}

/// A worker's self-announcement (first frame on every connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The worker's protocol version — checked against [`WIRE_VERSION`].
    pub version: u16,
    /// Which shard slot this worker serves.
    pub shard: usize,
    /// The worker's OS pid (0 for in-process workers) — diagnostics only.
    pub pid: u32,
    /// Whether the worker needs the problem shipped (`Job`): true for
    /// spawned processes, false for in-process threads that share memory.
    pub needs_job: bool,
}

/// Encode a `Hello` (always announces our own [`WIRE_VERSION`]).
pub fn encode_hello(shard: usize, pid: u32, needs_job: bool) -> Vec<u8> {
    let mut out = vec![TAG_HELLO];
    put_u16(&mut out, WIRE_VERSION);
    put_u64(&mut out, shard as u64);
    put_u32(&mut out, pid);
    out.push(needs_job as u8);
    out
}

/// Decode a `Hello`. The version is *returned*, not enforced — the
/// acceptor decides, so it can refuse politely with a `HelloAck`.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, NetError> {
    let mut input = payload;
    let tag = take(&mut input, 1)?[0];
    if tag != TAG_HELLO {
        return Err(NetError::BadTag(tag));
    }
    let version = get_u16(&mut input)?;
    let shard = get_usize(&mut input)?;
    let pid = get_u32(&mut input)?;
    let needs_job = match take(&mut input, 1)?[0] {
        0 => false,
        1 => true,
        _ => return Err(NetError::BadValue("needs_job byte")),
    };
    finish(
        Hello {
            version,
            shard,
            pid,
            needs_job,
        },
        input,
    )
}

/// Encode an accept/refuse reply to a `Hello` or `Job`.
pub fn encode_ack(tag: u8, ok: bool, reason: &str) -> Vec<u8> {
    debug_assert!(tag == TAG_HELLO_ACK || tag == TAG_JOB_ACK);
    let mut out = vec![tag];
    out.push(ok as u8);
    put_str(&mut out, reason);
    out
}

/// Decode a `HelloAck`/`JobAck`: `(ok, reason)`.
pub fn decode_ack(expect_tag: u8, payload: &[u8]) -> Result<(bool, String), NetError> {
    let mut input = payload;
    let tag = take(&mut input, 1)?[0];
    if tag != expect_tag {
        return Err(NetError::BadTag(tag));
    }
    let ok = match take(&mut input, 1)?[0] {
        0 => false,
        1 => true,
        _ => return Err(NetError::BadValue("ack ok byte")),
    };
    let reason = get_str(&mut input)?;
    finish((ok, reason), input)
}

/// The `Job` frame's fixed prelude (everything but the two data vectors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobHeader {
    /// Element-type registry tag ([`crate::shard::net::wire_tag_of`]).
    pub tag: String,
    /// Operator registry name ([`super::wire::WireOp::WIRE_OP`]).
    pub op: String,
    /// Bucket count.
    pub m: usize,
    /// Worker idle-heartbeat tick, in milliseconds.
    pub heartbeat_ms: u64,
    /// Element count of the vectors that follow.
    pub n: usize,
}

/// Encode a `Job`: the whole problem, shipped once per connection.
pub fn encode_job<T: WireValue>(
    tag: &str,
    op: &str,
    m: usize,
    heartbeat_ms: u64,
    values: &[T],
    labels: &[usize],
) -> Vec<u8> {
    debug_assert_eq!(values.len(), labels.len());
    let mut out = vec![TAG_JOB];
    put_str(&mut out, tag);
    put_str(&mut out, op);
    put_u64(&mut out, m as u64);
    put_u64(&mut out, heartbeat_ms);
    put_u64(&mut out, values.len() as u64);
    for v in values {
        v.wire_write(&mut out);
    }
    for l in labels {
        put_u64(&mut out, *l as u64);
    }
    out
}

/// Decode a `Job`'s prelude; returns the header plus the undecoded data
/// bytes, so the caller can dispatch on `tag` before monomorphizing the
/// body decode.
pub fn decode_job_header(payload: &[u8]) -> Result<(JobHeader, &[u8]), NetError> {
    let mut input = payload;
    let tag_byte = take(&mut input, 1)?[0];
    if tag_byte != TAG_JOB {
        return Err(NetError::BadTag(tag_byte));
    }
    let tag = get_str(&mut input)?;
    let op = get_str(&mut input)?;
    let m = get_usize(&mut input)?;
    let heartbeat_ms = get_u64(&mut input)?;
    let n = get_usize(&mut input)?;
    Ok((
        JobHeader {
            tag,
            op,
            m,
            heartbeat_ms,
            n,
        },
        input,
    ))
}

/// Decode a `Job`'s data vectors, after the element type is known.
pub fn decode_job_body<T: WireValue>(
    header: &JobHeader,
    body: &[u8],
) -> Result<(Vec<T>, Vec<usize>), NetError> {
    let mut input = body;
    check_count(header.n, T::WIRE_SIZE + 8, input)?;
    let mut values = Vec::with_capacity(header.n);
    for _ in 0..header.n {
        values.push(T::wire_read(&mut input)?);
    }
    let mut labels = Vec::with_capacity(header.n);
    for _ in 0..header.n {
        labels.push(get_usize(&mut input)?);
    }
    if input.is_empty() {
        Ok((values, labels))
    } else {
        Err(NetError::BadValue("trailing bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(index: usize, start: usize, end: usize) -> ShardSpan {
        ShardSpan { index, start, end }
    }

    #[test]
    fn down_msgs_roundtrip() {
        let msgs: Vec<DownMsg<i64>> = vec![
            DownMsg::Scan {
                task: 7,
                span: span(2, 10, 20),
            },
            DownMsg::Apply {
                task: 8,
                span: span(0, 0, 5),
                offsets: vec![(3, -11), (0, 42)],
            },
            DownMsg::Apply {
                task: 9,
                span: span(1, 5, 5),
                offsets: vec![], // zero-length apply payload
            },
            DownMsg::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_down(&msg);
            assert_eq!(decode_down::<i64>(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn up_msgs_roundtrip_including_tuples() {
        let msgs: Vec<UpMsg<(i32, i32)>> = vec![
            UpMsg::Summary {
                shard: 1,
                task: 3,
                span: span(1, 4, 9),
                touched: vec![2, 0, 5],
                totals: vec![(1, 2), (-3, 4), (5, -6)],
            },
            UpMsg::Summary {
                shard: 0,
                task: 4,
                span: span(0, 0, 0),
                touched: vec![],
                totals: vec![], // empty span → empty summary
            },
            UpMsg::Applied {
                shard: 2,
                task: 5,
                span: span(2, 9, 12),
                sums: vec![(0, 0), (7, 7), (-1, 1)],
            },
            UpMsg::Heartbeat { shard: 3 },
            UpMsg::Crashed { shard: 0 },
        ];
        for msg in msgs {
            let bytes = encode_up(&msg);
            assert_eq!(decode_up::<(i32, i32)>(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn corrupt_count_is_rejected_before_allocation() {
        let msg: UpMsg<i64> = UpMsg::Applied {
            shard: 0,
            task: 1,
            span: span(0, 0, 2),
            sums: vec![1, 2],
        };
        let mut bytes = encode_up(&msg);
        // The count field sits after tag + shard + task + span.
        let count_at = 1 + 8 + 8 + 24;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_up::<i64>(&bytes) {
            Err(NetError::Truncated { .. }) | Err(NetError::BadLength { .. }) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_down::<i64>(&DownMsg::Shutdown);
        bytes.push(0);
        assert_eq!(
            decode_down::<i64>(&bytes),
            Err(NetError::BadValue("trailing bytes"))
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode_down::<i64>(&[99]), Err(NetError::BadTag(99)));
        assert_eq!(decode_up::<i64>(&[0]), Err(NetError::BadTag(0)));
    }

    #[test]
    fn hello_and_acks_roundtrip() {
        let bytes = encode_hello(3, 4242, true);
        assert_eq!(
            decode_hello(&bytes).unwrap(),
            Hello {
                version: WIRE_VERSION,
                shard: 3,
                pid: 4242,
                needs_job: true,
            }
        );
        let bytes = encode_ack(TAG_HELLO_ACK, false, "version");
        assert_eq!(
            decode_ack(TAG_HELLO_ACK, &bytes).unwrap(),
            (false, "version".to_string())
        );
    }

    #[test]
    fn job_roundtrips_via_header_then_body() {
        let values: Vec<i64> = vec![5, -6, 7];
        let labels: Vec<usize> = vec![0, 2, 1];
        let bytes = encode_job("i64", "plus", 3, 25, &values, &labels);
        let (header, body) = decode_job_header(&bytes).unwrap();
        assert_eq!(header.tag, "i64");
        assert_eq!(header.op, "plus");
        assert_eq!(header.m, 3);
        assert_eq!(header.heartbeat_ms, 25);
        assert_eq!(header.n, 3);
        let (v, l) = decode_job_body::<i64>(&header, body).unwrap();
        assert_eq!(v, values);
        assert_eq!(l, labels);
    }
}
