//! One duplex shard connection: framed writes, and framed reads through
//! the fail-stop [`FrameBuffer`]. A frame that fails any check kills the
//! connection: `Conn::recv` shuts the stream down in both directions
//! and returns the typed cause, and the supervisor's requeue, reconnect
//! and degrade path takes over.
//!
//! Byte-level chaos is injected **here**, at the frame writer — after the
//! checksums are computed — so every fault the receiver sees is exactly
//! the wire-damage model: flipped bits, truncated writes, mid-message
//! disconnects, slow writers. Control frames (handshake, job shipping)
//! and protocol-critical messages (`Shutdown`, `Crashed`) are exempt,
//! mirroring the in-process transport's rule: losing one of those turns
//! injected chaos into a hang, which the fault model excludes.

use super::frame::{encode_frame, FrameBuffer, MAX_PAYLOAD};
use super::wire::NetError;
use crate::resilience::chaos::NetFault;
use crate::resilience::ctx::Deadline;
use crate::resilience::ChaosState;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A stream over either fabric. Both halves of a [`Conn`] hold their own
/// OS handle (`try_clone`), so reads and writes never contend on a lock.
pub(crate) enum NetStream {
    /// Unix-domain socket.
    Unix(UnixStream),
    /// Loopback TCP socket.
    Tcp(TcpStream),
}

impl NetStream {
    pub(crate) fn try_clone(&self) -> std::io::Result<NetStream> {
        Ok(match self {
            NetStream::Unix(s) => NetStream::Unix(s.try_clone()?),
            NetStream::Tcp(s) => NetStream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        let d = Some(d.max(Duration::from_millis(1)));
        match self {
            NetStream::Unix(s) => s.set_read_timeout(d),
            NetStream::Tcp(s) => s.set_read_timeout(d),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            NetStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            NetStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Unix(s) => s.read(buf),
            NetStream::Tcp(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            NetStream::Unix(s) => s.write_all(bytes),
            NetStream::Tcp(s) => s.write_all(bytes),
        }
    }

    /// Connect to an `"uds:<path>"` / `"tcp:<addr>"` address, retrying
    /// briefly (a just-spawned worker can race the listener).
    pub(crate) fn connect(addr: &str, budget: Duration) -> std::io::Result<NetStream> {
        let deadline = Instant::now() + budget;
        loop {
            let attempt = if let Some(path) = addr.strip_prefix("uds:") {
                UnixStream::connect(path).map(NetStream::Unix)
            } else if let Some(tcp) = addr.strip_prefix("tcp:") {
                TcpStream::connect(tcp).map(|s| {
                    let _ = s.set_nodelay(true);
                    NetStream::Tcp(s)
                })
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("bad worker address {addr:?}"),
                ))
            };
            match attempt {
                Ok(s) => return Ok(s),
                // The listener is always bound before workers launch, so
                // "no such socket" / "refused" means it is *gone* (the
                // run ended) — retrying would stall the teardown that is
                // about to join this worker.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::NotFound | std::io::ErrorKind::ConnectionRefused
                    ) =>
                {
                    return Err(e)
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

struct WriteHalf {
    stream: NetStream,
    seq: u32,
}

impl WriteHalf {
    /// Write `frame`, possibly damaged by an armed chaos plan.
    fn write_frame(
        &mut self,
        mut frame: Vec<u8>,
        exempt: bool,
        chaos: Option<&ChaosState>,
        deadline: Option<Deadline>,
    ) -> std::io::Result<()> {
        let fault = match chaos {
            Some(chaos) if !exempt => chaos.net_fault(),
            _ => None,
        };
        match fault {
            None => self.stream.write_all_bytes(&frame),
            Some(NetFault::Corrupt) => {
                let chaos = chaos.expect("fault implies chaos");
                let bit = chaos.net_index(frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
                self.stream.write_all_bytes(&frame)
            }
            Some(NetFault::Truncate) => {
                let chaos = chaos.expect("fault implies chaos");
                let cut = chaos.net_index(frame.len());
                self.stream.write_all_bytes(&frame[..cut])
            }
            Some(NetFault::Disconnect) => {
                let chaos = chaos.expect("fault implies chaos");
                let cut = chaos.net_index(frame.len());
                let _ = self.stream.write_all_bytes(&frame[..cut]);
                self.stream.shutdown();
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "chaos: injected mid-message disconnect",
                ))
            }
            Some(NetFault::Stall) => {
                chaos.expect("fault implies chaos").stall_sleep(deadline);
                self.stream.write_all_bytes(&frame)
            }
        }
    }
}

struct ReadHalf {
    stream: NetStream,
    fb: FrameBuffer,
    scratch: Vec<u8>,
}

/// A supervised duplex connection. Cheap to share (`Arc`); the two
/// halves lock independently, so a reader waiting on bytes never blocks
/// a writer.
pub(crate) struct Conn {
    writer: Mutex<WriteHalf>,
    reader: Mutex<ReadHalf>,
    chaos: Option<Arc<ChaosState>>,
    deadline: Option<Deadline>,
    dead: AtomicBool,
}

impl Conn {
    pub(crate) fn new(
        stream: NetStream,
        chaos: Option<Arc<ChaosState>>,
        deadline: Option<Deadline>,
    ) -> std::io::Result<Arc<Conn>> {
        let read_stream = stream.try_clone()?;
        Ok(Arc::new(Conn {
            writer: Mutex::new(WriteHalf { stream, seq: 0 }),
            reader: Mutex::new(ReadHalf {
                stream: read_stream,
                fb: FrameBuffer::new(),
                scratch: vec![0u8; 16 * 1024],
            }),
            chaos,
            deadline,
            dead: AtomicBool::new(false),
        }))
    }

    /// True once either direction failed; no further traffic will work.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Shut both stream directions down (unblocks a peer's read).
    pub(crate) fn shutdown(&self) {
        self.mark_dead();
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stream
            .shutdown();
    }

    /// Frame and send one payload. `exempt` frames bypass chaos (control
    /// traffic and protocol-critical messages).
    pub(crate) fn send(&self, payload: &[u8], exempt: bool) -> Result<(), NetError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(NetError::BadLength {
                len: payload.len() as u64,
                cap: MAX_PAYLOAD as u64,
            });
        }
        if self.is_dead() {
            return Err(NetError::Closed);
        }
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.seq += 1;
        let frame = encode_frame(w.seq, payload);
        let res = w.write_frame(frame, exempt, self.chaos.as_deref(), self.deadline);
        drop(w);
        res.map_err(|e| {
            self.mark_dead();
            NetError::from(e)
        })
    }

    /// Receive the next verified, in-order payload. `Ok(None)` on
    /// timeout; `Err` when the connection is closed or failed. A frame
    /// that fails a check shuts the connection down in both directions
    /// (the peer reads EOF) and returns the check's error.
    pub(crate) fn recv(&self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut r = self.reader.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match r.fb.poll() {
                Ok(Some(payload)) => return Ok(Some(payload)),
                Ok(None) => {}
                Err(e) => {
                    self.mark_dead();
                    // The read half is a clone of the same socket, so this
                    // shuts the writer's direction too, without its lock.
                    r.stream.shutdown();
                    return Err(e);
                }
            }
            if self.is_dead() {
                return Err(NetError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Bounded read so a shutdown is honored promptly even under
            // a long caller timeout.
            let wait = (deadline - now).min(Duration::from_millis(100));
            r.stream.set_read_timeout(wait)?;
            let ReadHalf {
                stream,
                fb,
                scratch,
            } = &mut *r;
            match stream.read_some(scratch) {
                Ok(0) => {
                    self.mark_dead();
                    return Err(NetError::Closed);
                }
                Ok(n) => fb.extend(&scratch[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.mark_dead();
                    return Err(NetError::from(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::net::frame::encode_frame;

    /// A `Conn` on one end of a socket pair; the other end is the raw peer.
    fn pair() -> (Arc<Conn>, UnixStream) {
        let (ours, peer) = UnixStream::pair().expect("socket pair");
        let conn = Conn::new(NetStream::Unix(ours), None, None).expect("conn");
        (conn, peer)
    }

    /// The peer's next read must be EOF: the damage is not answered with
    /// any frame.
    fn assert_peer_reads_eof(peer: &mut UnixStream) {
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut buf = [0u8; 64];
        assert_eq!(peer.read(&mut buf).expect("peer read"), 0);
    }

    fn assert_fail_stop(second: &[u8], cause: impl Fn(&NetError) -> bool) {
        let (conn, mut peer) = pair();
        peer.write_all(&encode_frame(1, b"first")).expect("write");
        peer.write_all(second).expect("write");
        let wait = Duration::from_secs(2);
        assert_eq!(conn.recv(wait), Ok(Some(b"first".to_vec())));
        let err = conn.recv(wait).expect_err("damage must end the stream");
        assert!(cause(&err), "unexpected cause {err:?}");
        assert!(conn.is_dead());
        assert_peer_reads_eof(&mut peer);
        assert_eq!(conn.recv(wait), Err(err));
    }

    #[test]
    fn flipped_payload_bit_kills_the_connection() {
        let mut bad = encode_frame(2, b"second");
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_fail_stop(&bad, |e| matches!(e, NetError::BadChecksum { seq: 2 }));
    }

    #[test]
    fn skipped_sequence_number_kills_the_connection() {
        let skipped = encode_frame(3, b"third");
        assert_fail_stop(&skipped, |e| *e == NetError::BadValue("frame sequence"));
    }
}
