//! The worker side of the socket fabric: connect, handshake, (for
//! processes) receive the job, then serve the same stateless
//! `worker_loop` the in-process channel fabric runs.
//!
//! A worker **process** enters through [`worker_main`] — reached by
//! re-executing the current binary with `MULTIPREFIX_SHARD_WORKER=1`
//! ([`maybe_run_worker_from_env`] is the self-exec hook a test binary or
//! example calls at its entry point). The process cannot receive a
//! closure, so the `Job` frame names the element type and operator and a
//! static registry maps them back to a monomorphized loop.

use super::codec::{
    decode_ack, decode_down, decode_job_body, decode_job_header, encode_ack, encode_hello,
    encode_up, JobHeader, TAG_HELLO_ACK, TAG_JOB_ACK,
};
use super::conn::{Conn, NetStream};
use super::wire::WireValue;
use crate::chunked::PlainComb;
use crate::op::{CombineOp, FirstLast, Max, Min, Mult, Plus};
use crate::problem::Element;
use crate::resilience::{ChaosState, RunContext};
use crate::shard::transport::{DownMsg, RecvOutcome, Transport, UpMsg};
use crate::shard::worker_loop;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Env var that flips a re-executed binary into worker mode.
pub const ENV_WORKER: &str = "MULTIPREFIX_SHARD_WORKER";
/// Env var carrying the supervisor's listener address.
pub const ENV_ADDR: &str = "MULTIPREFIX_SHARD_ADDR";
/// Env var carrying the worker's shard index.
pub const ENV_INDEX: &str = "MULTIPREFIX_SHARD_INDEX";
/// Env var arming deterministic self-destruction (`"scan:N"` /
/// `"apply:N"`: SIGKILL yourself upon receiving the Nth such task) —
/// how the chaos matrix kills a worker process mid-phase.
pub const ENV_DIE: &str = "MULTIPREFIX_SHARD_DIE";

/// Deterministic self-destruction: die mid-task on the `nth` receipt of
/// a `Scan` (`phase_scan = true`) or `Apply`.
pub(crate) struct DiePlan {
    phase_scan: bool,
    nth: u32,
    seen: AtomicU32,
}

impl DiePlan {
    /// Parse `"scan:N"` / `"apply:N"`.
    pub(crate) fn parse(spec: &str) -> Option<DiePlan> {
        let (phase, nth) = spec.split_once(':')?;
        let nth: u32 = nth.parse().ok()?;
        let phase_scan = match phase {
            "scan" => true,
            "apply" => false,
            _ => return None,
        };
        Some(DiePlan {
            phase_scan,
            nth,
            seen: AtomicU32::new(0),
        })
    }
}

/// SIGKILL the current process — no unwinding, no cleanup, exactly the
/// "power went out" failure the supervisor must absorb. Falls back to
/// `abort` if no `kill` utility exists.
fn kill_self_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .arg("-9")
        .arg(&pid)
        .status();
    std::process::abort();
}

/// The worker's half of the socket fabric: a [`Transport`] whose
/// down-receive and up-send run over one framed connection, so the
/// generic `worker_loop` runs unchanged. The supervisor-side methods are
/// unreachable by construction.
pub(crate) struct WorkerSocket<T> {
    conn: Arc<Conn>,
    shard: usize,
    die: Option<DiePlan>,
    _elements: PhantomData<fn() -> T>,
}

impl<T> WorkerSocket<T> {
    pub(crate) fn new(conn: Arc<Conn>, shard: usize, die: Option<DiePlan>) -> Self {
        WorkerSocket {
            conn,
            shard,
            die,
            _elements: PhantomData,
        }
    }

    fn maybe_die(&self, msg: &DownMsg<T>) {
        let Some(die) = &self.die else { return };
        let is_match = match msg {
            DownMsg::Scan { .. } => die.phase_scan,
            DownMsg::Apply { .. } => !die.phase_scan,
            DownMsg::Shutdown => false,
        };
        if is_match && die.seen.fetch_add(1, Ordering::Relaxed) + 1 == die.nth {
            // Mid-task: the message was received (the supervisor thinks
            // the task is running) but no reply will ever come.
            kill_self_hard();
        }
    }
}

impl<T: Element + WireValue> Transport<T> for WorkerSocket<T> {
    fn shards(&self) -> usize {
        self.shard + 1
    }

    fn send_down(&self, _shard: usize, _msg: DownMsg<T>) {
        unreachable!("worker half of the socket fabric cannot send down-messages");
    }

    fn recv_down(&self, _shard: usize, timeout: Duration) -> RecvOutcome<DownMsg<T>> {
        match self.conn.recv(timeout) {
            Ok(Some(payload)) => match decode_down::<T>(&payload) {
                Ok(msg) => {
                    self.maybe_die(&msg);
                    RecvOutcome::Msg(msg)
                }
                // A verified frame we cannot decode is a protocol
                // violation; treat the stream as gone (the supervisor
                // sees EOF and requeues elsewhere).
                Err(_) => {
                    self.conn.shutdown();
                    RecvOutcome::Disconnected
                }
            },
            Ok(None) => RecvOutcome::TimedOut,
            Err(_) => RecvOutcome::Disconnected,
        }
    }

    fn send_up(&self, msg: UpMsg<T>) {
        // `Crashed` is protocol-critical: exempt from byte chaos, same
        // rule as the channel fabric.
        let exempt = matches!(msg, UpMsg::Crashed { .. });
        let _ = self.conn.send(&encode_up(&msg), exempt);
    }

    fn recv_up(&self, _timeout: Duration) -> RecvOutcome<UpMsg<T>> {
        unreachable!("worker half of the socket fabric cannot receive up-messages");
    }
}

/// Client-side handshake: send `Hello`, await a positive `HelloAck`.
fn client_handshake(conn: &Conn, shard: usize, pid: u32, needs_job: bool) -> bool {
    if conn
        .send(&encode_hello(shard, pid, needs_job), true)
        .is_err()
    {
        return false;
    }
    match conn.recv(Duration::from_secs(10)) {
        Ok(Some(payload)) => matches!(decode_ack(TAG_HELLO_ACK, &payload), Ok((true, _))),
        _ => false,
    }
}

/// Body of an **in-process** socket worker thread (spawned by
/// [`InProcLauncher`](super::InProcLauncher)): connect, handshake
/// (`needs_job = false` — the data is shared memory), serve. Shares the
/// supervisor's armed chaos stream, so worker → supervisor bytes are
/// damaged by the same seeded plan as supervisor → worker bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_inproc_worker<T: Element + WireValue, O: CombineOp<T>>(
    shard: usize,
    addr: &str,
    values: Arc<Vec<T>>,
    labels: Arc<Vec<usize>>,
    m: usize,
    op: O,
    heartbeat: Duration,
    chaos: Option<Arc<ChaosState>>,
) {
    let Ok(stream) = NetStream::connect(addr, Duration::from_secs(5)) else {
        return;
    };
    let Ok(conn) = Conn::new(stream, chaos.clone(), None) else {
        return;
    };
    if !client_handshake(&conn, shard, 0, false) {
        return;
    }
    let ws: WorkerSocket<T> = WorkerSocket::new(conn, shard, None);
    let ctx = match chaos {
        Some(chaos) => RunContext::new().with_chaos(chaos),
        None => RunContext::new(),
    };
    worker_loop(
        &ws,
        shard,
        &values,
        &labels,
        m,
        PlainComb(op),
        heartbeat,
        &ctx,
    );
}

/// Run a worker **process** body once the element type and operator are
/// known: acknowledge the job, then serve.
fn run_proc_worker<T: Element + WireValue, O: CombineOp<T>>(
    conn: Arc<Conn>,
    shard: usize,
    die: Option<DiePlan>,
    header: &JobHeader,
    body: &[u8],
    op: O,
) -> i32 {
    let (values, labels) = match decode_job_body::<T>(header, body) {
        Ok(data) => data,
        Err(e) => {
            let _ = conn.send(&encode_ack(TAG_JOB_ACK, false, &e.to_string()), true);
            return 5;
        }
    };
    if conn.send(&encode_ack(TAG_JOB_ACK, true, ""), true).is_err() {
        return 3;
    }
    let ws: WorkerSocket<T> = WorkerSocket::new(conn, shard, die);
    worker_loop(
        &ws,
        shard,
        &values,
        &labels,
        header.m,
        PlainComb(op),
        Duration::from_millis(header.heartbeat_ms.max(1)),
        &RunContext::new(),
    );
    0
}

/// The worker-process entry point. Reads its wiring from the
/// environment ([`ENV_ADDR`], [`ENV_INDEX`], optional [`ENV_DIE`]),
/// connects, handshakes (announcing [`WIRE_VERSION`](super::codec::WIRE_VERSION)), receives the
/// `Job`, and serves tasks until `Shutdown` or stream loss. Returns a
/// process exit code (0 on a clean shutdown).
///
/// The operator registry below maps the job's `(element tag, op name)`
/// to a monomorphization; an unknown pair is refused with a negative
/// `JobAck` so the supervisor fails fast instead of timing out.
pub fn worker_main() -> i32 {
    let Ok(addr) = std::env::var(ENV_ADDR) else {
        return 2;
    };
    let shard: usize = match std::env::var(ENV_INDEX).ok().and_then(|s| s.parse().ok()) {
        Some(s) => s,
        None => return 2,
    };
    let die = std::env::var(ENV_DIE).ok().and_then(|s| DiePlan::parse(&s));
    let Ok(stream) = NetStream::connect(&addr, Duration::from_secs(5)) else {
        return 3;
    };
    let Ok(conn) = Conn::new(stream, None, None) else {
        return 3;
    };
    if !client_handshake(&conn, shard, std::process::id(), true) {
        return 4;
    }
    // The job ships the whole problem; wait generously (it can be MBs).
    let payload = match conn.recv(Duration::from_secs(30)) {
        Ok(Some(payload)) => payload,
        _ => return 4,
    };
    let (header, body) = match decode_job_header(&payload) {
        Ok(parsed) => parsed,
        Err(e) => {
            let _ = conn.send(&encode_ack(TAG_JOB_ACK, false, &e.to_string()), true);
            return 5;
        }
    };
    macro_rules! registry {
        ($(($tag:literal, $op:literal, $t:ty, $opv:expr)),* $(,)?) => {
            match (header.tag.as_str(), header.op.as_str()) {
                $(($tag, $op) => run_proc_worker::<$t, _>(conn, shard, die, &header, body, $opv),)*
                _ => {
                    let _ = conn.send(
                        &encode_ack(TAG_JOB_ACK, false, "unknown element/op registry pair"),
                        true,
                    );
                    5
                }
            }
        };
    }
    registry![
        ("i64", "plus", i64, Plus),
        ("i64", "mult", i64, Mult),
        ("i64", "max", i64, Max),
        ("i64", "min", i64, Min),
        ("i32", "plus", i32, Plus),
        ("u64", "plus", u64, Plus),
        ("f64", "plus", f64, Plus),
        ("f64", "max", f64, Max),
        ("pairx8", "firstlast", (i32, i32), FirstLast),
    ]
}

/// The self-exec hook: call this **first** in a binary (test, example,
/// or service) that spawns socket shard workers by re-executing itself.
/// When the worker environment is present the process becomes a worker
/// and exits when done; otherwise this is a no-op.
pub fn maybe_run_worker_from_env() {
    if std::env::var(ENV_WORKER).as_deref() == Ok("1") {
        let code = worker_main();
        std::process::exit(code);
    }
}
