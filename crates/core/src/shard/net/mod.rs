//! # Socket shard transport
//!
//! A zero-dependency wire fabric for the shard supervisor: Unix-domain
//! or loopback-TCP sockets, a versioned handshake, length-prefixed
//! frames with dual CRC-32 checksums, and worker endpoints that are
//! either threads in this process or spawned child processes.
//!
//! ## Layers (one file each)
//!
//! | layer | file | job |
//! |---|---|---|
//! | values | `wire.rs` | [`WireValue`]/[`WireOp`]: fixed-size element encoding and the operator name registry |
//! | frames | `frame.rs` | `MPXF` framing and the one strict parser (magic, CRCs, length cap, sequence) the socket reader and the session WAL share |
//! | messages | `codec.rs` | `DownMsg`/`UpMsg`/handshake/`Job` payload codecs |
//! | streams | `conn.rs` | one framed connection: send/recv, fail-stop on a failed frame check, byte-chaos injection |
//! | fleet | `fleet.rs` | supervisor side: listener, launchers, reader threads, the reconnecting keeper |
//! | worker | `worker.rs` | worker side: handshake, job receipt, the self-exec process entry |
//!
//! ## Failure contract
//!
//! Frames are fail-stop. Every byte-level fault — bit corruption,
//! truncation, a mid-message disconnect, a stalled writer — ends as a
//! **dead connection** (a failed frame check shuts the stream down and
//! surfaces as a typed [`NetError`]), a **bounded timeout**, or both;
//! the supervisor absorbs either through its existing requeue, reconnect
//! and degrade ladder. There is no link-level repair: the stream sockets
//! deliver bytes intact and in order or end, and each shard task is a
//! pure function of its span, so requeueing it is the recovery. Never a
//! panic, never silent corruption: the chaos matrix in
//! `tests/shard_net_chaos.rs` pins every run to the serial oracle
//! bit-for-bit.
//!
//! ## Miri
//!
//! CI's Miri job skips this module's socket-using tests (`conn`,
//! `fleet`, and the integration chaos matrix): Miri's isolated mode has
//! no socket or process support. The pure layers — `wire`, `frame`,
//! `codec` — have no I/O and stay under Miri.

pub mod codec;
pub mod conn;
pub mod fleet;
pub mod frame;
pub mod wire;
pub mod worker;

pub use codec::{
    decode_ack, decode_down, decode_hello, decode_job_body, decode_job_header, decode_up,
    encode_ack, encode_down, encode_hello, encode_job, encode_up, Hello, JobHeader, WIRE_VERSION,
};
pub use fleet::{
    multiprefix_socket, try_multiprefix_socket_ctx, FleetMode, NetConfig, SocketKind,
    SocketTransport,
};
pub use frame::{crc32, encode_frame, FrameBuffer, HEADER_LEN, MAX_PAYLOAD};
pub use wire::{wire_tag_of, NetError, WireOp, WireValue};
pub use worker::{
    maybe_run_worker_from_env, worker_main, ENV_ADDR, ENV_DIE, ENV_INDEX, ENV_WORKER,
};
