//! Wire-level value encoding and the typed decode error.
//!
//! Everything on the socket is hand-rolled little-endian — no serde, no
//! derive macros, no dependencies. [`WireValue`] is the element-type half
//! (how a `T` crosses the wire), [`WireOp`] the operator half (how a
//! worker *process*, which cannot receive a closure, reconstructs the
//! combine operator from a registry name). The in-process
//! [`ChannelTransport`](crate::shard::ChannelTransport) path needs
//! neither: the blanket [`Element`](crate::problem::Element) impl covers
//! every `Copy` type, so serialization is an *extra* bound that only the
//! socket entry points demand.

use crate::op::{And, ArgMax, ArgMin, FirstLast, Max, Min, Mult, Or, Plus};
use std::fmt;

/// Typed failure of the socket codec / frame layer. Corruption is always
/// surfaced as one of these — never a panic, never a silently wrong
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A frame's checksum did not match its bytes.
    BadChecksum {
        /// Sequence number claimed by the damaged header.
        seq: u32,
    },
    /// A payload ended before the advertised structure was complete.
    Truncated {
        /// Bytes the decoder still needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// An unknown message tag.
    BadTag(u8),
    /// A length field exceeds its hard cap (corrupt, or hostile).
    BadLength {
        /// The advertised length.
        len: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our [`WIRE_VERSION`](crate::shard::net::WIRE_VERSION).
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A value failed its domain check (e.g. a `bool` byte that is
    /// neither 0 nor 1).
    BadValue(&'static str),
    /// The underlying stream failed.
    Io(std::io::ErrorKind),
    /// The peer closed the stream (EOF).
    Closed,
    /// The handshake failed.
    Handshake(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadChecksum { seq } => {
                write!(f, "frame checksum mismatch (claimed seq {seq})")
            }
            NetError::Truncated { need, have } => {
                write!(f, "payload truncated: needed {need} more bytes, had {have}")
            }
            NetError::BadTag(tag) => write!(f, "unknown message tag {tag}"),
            NetError::BadLength { len, cap } => {
                write!(f, "length field {len} exceeds cap {cap}")
            }
            NetError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, peer {theirs}")
            }
            NetError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            NetError::BadValue(what) => write!(f, "value failed domain check: {what}"),
            NetError::Io(kind) => write!(f, "stream I/O error: {kind:?}"),
            NetError::Closed => write!(f, "peer closed the stream"),
            NetError::Handshake(what) => write!(f, "handshake failed: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.kind())
    }
}

/// Take `n` bytes off the front of `input`, or report exactly how short
/// the buffer fell.
pub(crate) fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], NetError> {
    if input.len() < n {
        return Err(NetError::Truncated {
            need: n - input.len(),
            have: input.len(),
        });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u16(input: &mut &[u8]) -> Result<u16, NetError> {
    Ok(u16::from_le_bytes(take(input, 2)?.try_into().unwrap()))
}

pub(crate) fn get_u32(input: &mut &[u8]) -> Result<u32, NetError> {
    Ok(u32::from_le_bytes(take(input, 4)?.try_into().unwrap()))
}

pub(crate) fn get_u64(input: &mut &[u8]) -> Result<u64, NetError> {
    Ok(u64::from_le_bytes(take(input, 8)?.try_into().unwrap()))
}

/// `usize` travels as `u64`; reject values the host cannot index.
pub(crate) fn get_usize(input: &mut &[u8]) -> Result<usize, NetError> {
    let v = get_u64(input)?;
    usize::try_from(v).map_err(|_| NetError::BadLength {
        len: v,
        cap: usize::MAX as u64,
    })
}

/// Short strings (codec tags, operator names, handshake reasons):
/// `len: u16` + UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(input: &mut &[u8]) -> Result<String, NetError> {
    let len = get_u16(input)? as usize;
    let bytes = take(input, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| NetError::BadUtf8)
}

/// A value that can cross the socket: fixed-size little-endian encoding
/// plus a registry tag naming the element type, so a worker *process*
/// can pick the right monomorphization from the
/// `Job` frame ([`JobHeader`](crate::shard::net::codec::JobHeader)).
///
/// This is deliberately **not** part of [`Element`](crate::problem::Element)
/// (which is blanket-implemented for every `Copy` type): serialization is
/// an extra capability that only the socket entry points require.
pub trait WireValue: Sized {
    /// Exact encoded size in bytes — used to pre-validate count fields
    /// against the remaining payload before any allocation, so a corrupt
    /// count can never trigger a huge reserve.
    const WIRE_SIZE: usize;
    /// Registry name of the element type (e.g. `"i64"`).
    const WIRE_TAG: &'static str;
    /// Append the little-endian encoding.
    fn wire_write(&self, out: &mut Vec<u8>);
    /// Decode from the front of `input`.
    fn wire_read(input: &mut &[u8]) -> Result<Self, NetError>;
}

macro_rules! wire_int {
    ($($t:ty => $tag:literal),* $(,)?) => {$(
        impl WireValue for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();
            const WIRE_TAG: &'static str = $tag;
            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn wire_read(input: &mut &[u8]) -> Result<Self, NetError> {
                Ok(<$t>::from_le_bytes(
                    take(input, std::mem::size_of::<$t>())?.try_into().unwrap(),
                ))
            }
        }
    )*};
}

wire_int!(
    i8 => "i8", i16 => "i16", i32 => "i32", i64 => "i64", i128 => "i128",
    u8 => "u8", u16 => "u16", u32 => "u32", u64 => "u64", u128 => "u128",
    f32 => "f32", f64 => "f64",
);

impl WireValue for bool {
    const WIRE_SIZE: usize = 1;
    const WIRE_TAG: &'static str = "bool";
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn wire_read(input: &mut &[u8]) -> Result<Self, NetError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::BadValue("bool byte")),
        }
    }
}

impl WireValue for usize {
    const WIRE_SIZE: usize = 8;
    const WIRE_TAG: &'static str = "usize";
    fn wire_write(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn wire_read(input: &mut &[u8]) -> Result<Self, NetError> {
        get_usize(input)
    }
}

impl<A: WireValue, B: WireValue> WireValue for (A, B) {
    const WIRE_SIZE: usize = A::WIRE_SIZE + B::WIRE_SIZE;
    const WIRE_TAG: &'static str = "pair";
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
    }
    fn wire_read(input: &mut &[u8]) -> Result<Self, NetError> {
        Ok((A::wire_read(input)?, B::wire_read(input)?))
    }
}

impl<T: WireValue + Copy + Default, const N: usize> WireValue for [T; N] {
    const WIRE_SIZE: usize = N * T::WIRE_SIZE;
    const WIRE_TAG: &'static str = "array";
    fn wire_write(&self, out: &mut Vec<u8>) {
        for v in self {
            v.wire_write(out);
        }
    }
    fn wire_read(input: &mut &[u8]) -> Result<Self, NetError> {
        let mut a = [T::default(); N];
        for slot in &mut a {
            *slot = T::wire_read(input)?;
        }
        Ok(a)
    }
}

/// Registry tag qualifying [`WireValue::WIRE_TAG`] for composite types
/// — `(i32, i32)` and `[i64; 4]` must name their element types, not just
/// "pair"/"array". The concrete registry entries in
/// [`worker_main`](crate::shard::net::worker_main) match on these.
pub fn wire_tag_of<T: WireValue>() -> String {
    match T::WIRE_TAG {
        "pair" | "array" => format!("{}x{}", T::WIRE_TAG, T::WIRE_SIZE),
        tag => tag.to_string(),
    }
}

/// A combine operator a worker process can reconstruct by name: the
/// supervisor ships [`WireOp::WIRE_OP`] in the `Job` frame, and
/// `worker_main`'s registry maps `(element tag, op name)` back to the
/// monomorphized worker loop. Ops carrying runtime state cannot cross a
/// process boundary and deliberately have no impl.
pub trait WireOp {
    /// Registry name of the operator (e.g. `"plus"`).
    const WIRE_OP: &'static str;
}

impl WireOp for Plus {
    const WIRE_OP: &'static str = "plus";
}
impl WireOp for Mult {
    const WIRE_OP: &'static str = "mult";
}
impl WireOp for Max {
    const WIRE_OP: &'static str = "max";
}
impl WireOp for Min {
    const WIRE_OP: &'static str = "min";
}
impl WireOp for And {
    const WIRE_OP: &'static str = "and";
}
impl WireOp for Or {
    const WIRE_OP: &'static str = "or";
}
impl WireOp for FirstLast {
    const WIRE_OP: &'static str = "firstlast";
}
impl WireOp for ArgMax {
    const WIRE_OP: &'static str = "argmax";
}
impl WireOp for ArgMin {
    const WIRE_OP: &'static str = "argmin";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Vec::new();
        (-7i64).wire_write(&mut buf);
        3.25f64.wire_write(&mut buf);
        true.wire_write(&mut buf);
        usize::MAX.wire_write(&mut buf);
        let mut r: &[u8] = &buf;
        assert_eq!(i64::wire_read(&mut r).unwrap(), -7);
        assert_eq!(f64::wire_read(&mut r).unwrap(), 3.25);
        assert!(bool::wire_read(&mut r).unwrap());
        assert_eq!(usize::wire_read(&mut r).unwrap(), usize::MAX);
        assert!(r.is_empty());
    }

    #[test]
    fn composite_roundtrips_and_sizes() {
        let mut buf = Vec::new();
        let pair: (i32, i32) = (-1, 2);
        let mat: [i64; 4] = [1, -2, 3, -4];
        pair.wire_write(&mut buf);
        mat.wire_write(&mut buf);
        assert_eq!(buf.len(), <(i32, i32)>::WIRE_SIZE + <[i64; 4]>::WIRE_SIZE);
        let mut r: &[u8] = &buf;
        assert_eq!(<(i32, i32)>::wire_read(&mut r).unwrap(), pair);
        assert_eq!(<[i64; 4]>::wire_read(&mut r).unwrap(), mat);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut buf = Vec::new();
        7i64.wire_write(&mut buf);
        let mut r: &[u8] = &buf[..5];
        assert_eq!(
            i64::wire_read(&mut r),
            Err(NetError::Truncated { need: 3, have: 5 })
        );
    }

    #[test]
    fn bad_bool_byte_is_rejected() {
        let mut r: &[u8] = &[7u8];
        assert_eq!(
            bool::wire_read(&mut r),
            Err(NetError::BadValue("bool byte"))
        );
    }

    #[test]
    fn composite_tags_are_qualified() {
        assert_eq!(wire_tag_of::<i64>(), "i64");
        assert_eq!(wire_tag_of::<(i32, i32)>(), "pairx8");
        assert_eq!(wire_tag_of::<[i64; 4]>(), "arrayx32");
    }
}
