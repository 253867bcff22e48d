//! The supervisor side of the socket fabric: listener, worker fleet
//! launch, and per-connection reader threads.
//!
//! ## Division of labour
//!
//! The [`ShardSupervisor`] loop recovers from *task* loss: a shard that
//! stops answering has its tasks requeued onto survivors. This module
//! turns every *connection* fault into that loss:
//!
//! * each accepted connection gets a reader thread that decodes
//!   [`UpMsg`] frames into one shared up-queue (so `recv_up` stays a
//!   single bounded wait, exactly like the channel fabric);
//! * a reader observing stream death counts it by cause under
//!   `shard.net.conn_dead.*` and synthesizes [`UpMsg::Crashed`], so the
//!   supervisor requeues on survivors — never an indefinite hang;
//! * a lost worker stays lost for the rest of its run, as on the channel
//!   fabric: the listener closes once the fleet has connected, every run
//!   launches a fresh fleet, and a run with no shard left degrades to
//!   the single-node chunked run.

use super::codec::{
    decode_ack, decode_hello, decode_up, encode_ack, encode_down, encode_job, Hello, TAG_HELLO_ACK,
    TAG_JOB_ACK, WIRE_VERSION,
};
use super::conn::{Conn, NetStream};
use super::wire::{wire_tag_of, NetError, WireOp, WireValue};
use super::worker::{run_inproc_worker, ENV_ADDR, ENV_INDEX, ENV_WORKER};
use crate::chunked::PlainComb;
use crate::error::MpError;
use crate::obs::Recorder;
use crate::op::CombineOp;
use crate::problem::{Element, MultiprefixOutput};
use crate::resilience::{ChaosState, Deadline, RunContext};
use crate::shard::transport::{DownMsg, RecvOutcome, ShardSpan, Transport, UpMsg};
use crate::shard::{
    ShardConfig, ShardSupervisor, ShutdownGuard, COUNTER_CONN_DEAD_CLOSED,
    COUNTER_CONN_DEAD_DAMAGE, COUNTER_CONN_DEAD_DECODE,
};
use std::fmt;
use std::marker::PhantomData;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which socket family carries the shard traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Unix-domain sockets (a temp-dir path, removed on drop).
    Uds,
    /// Loopback TCP (`127.0.0.1`, ephemeral port, `TCP_NODELAY`).
    Tcp,
}

/// How worker endpoints come to exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetMode {
    /// Worker **threads** in this process, each talking to the
    /// supervisor through a real socket. The problem stays in shared
    /// memory (no `Job` shipping); this exercises the full wire path
    /// with none of the process-management variance — the chaos
    /// matrix's workhorse.
    InProc,
    /// Worker **processes**, spawned by re-executing the current binary
    /// with `args` and the worker environment set (see
    /// [`maybe_run_worker_from_env`](super::maybe_run_worker_from_env)).
    /// The problem is shipped over the wire in a `Job` frame.
    SelfExec {
        /// Arguments for the re-executed binary (e.g. a test filter).
        args: Vec<String>,
    },
}

/// Per-shard extra environment for spawned worker processes.
type ShardEnvFn = dyn Fn(usize) -> Vec<(String, String)> + Send + Sync;

/// How long the fleet launch waits for its workers to connect and finish
/// their handshakes.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(3);

/// Socket-fabric configuration, orthogonal to [`ShardConfig`] (which
/// keeps owning the recovery tuning: timeouts and retries).
#[derive(Clone)]
pub struct NetConfig {
    /// Socket family.
    pub kind: SocketKind,
    /// Worker fleet mode.
    pub fleet: FleetMode,
    /// Extra per-shard environment for spawned worker processes (e.g. a
    /// fault-injection hook for one victim shard).
    pub shard_env: Option<Arc<ShardEnvFn>>,
}

impl NetConfig {
    fn with_kind(kind: SocketKind) -> Self {
        NetConfig {
            kind,
            fleet: FleetMode::InProc,
            shard_env: None,
        }
    }

    /// Unix-domain sockets, in-process worker threads.
    pub fn uds() -> Self {
        Self::with_kind(SocketKind::Uds)
    }

    /// Loopback TCP, in-process worker threads.
    pub fn tcp() -> Self {
        Self::with_kind(SocketKind::Tcp)
    }

    /// Switch to worker processes spawned by re-executing the current
    /// binary with `args`.
    pub fn self_exec(mut self, args: Vec<String>) -> Self {
        self.fleet = FleetMode::SelfExec { args };
        self
    }

    /// Set a per-shard environment hook for spawned worker processes.
    pub fn shard_env(
        mut self,
        f: impl Fn(usize) -> Vec<(String, String)> + Send + Sync + 'static,
    ) -> Self {
        self.shard_env = Some(Arc::new(f));
        self
    }
}

impl fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetConfig")
            .field("kind", &self.kind)
            .field("fleet", &self.fleet)
            .field("shard_env", &self.shard_env.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// The listener half: bound before the fleet launches so workers always
/// have something to connect to.
enum NetListener {
    Unix {
        listener: UnixListener,
        path: PathBuf,
    },
    Tcp {
        listener: TcpListener,
        addr: std::net::SocketAddr,
    },
}

static SOCK_COUNTER: AtomicU64 = AtomicU64::new(0);

impl NetListener {
    fn bind(kind: SocketKind) -> std::io::Result<NetListener> {
        match kind {
            SocketKind::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "mpx-{}-{}.sock",
                    std::process::id(),
                    SOCK_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)?;
                listener.set_nonblocking(true)?;
                Ok(NetListener::Unix { listener, path })
            }
            SocketKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                listener.set_nonblocking(true)?;
                let addr = listener.local_addr()?;
                Ok(NetListener::Tcp { listener, addr })
            }
        }
    }

    /// The address workers connect to, in the `uds:<path>` / `tcp:<addr>`
    /// syntax [`NetStream::connect`] parses.
    fn addr_string(&self) -> String {
        match self {
            NetListener::Unix { path, .. } => format!("uds:{}", path.display()),
            NetListener::Tcp { addr, .. } => format!("tcp:{addr}"),
        }
    }

    /// Non-blocking accept; accepted streams are switched to blocking
    /// mode (the connection layer uses read timeouts).
    fn try_accept(&self) -> std::io::Result<Option<NetStream>> {
        match self {
            NetListener::Unix { listener, .. } => match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(NetStream::Unix(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            NetListener::Tcp { listener, .. } => match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    let _ = s.set_nodelay(true);
                    Ok(Some(NetStream::Tcp(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A launched worker endpoint, owned (and reaped) by the transport.
pub(crate) enum WorkerHandle {
    Thread(JoinHandle<()>),
    Proc(std::process::Child),
}

impl WorkerHandle {
    /// Reap the worker. Threads are joined (their connection has been
    /// shut down first, so the worker loop exits promptly); processes
    /// are killed and waited, so no worker outlives its run.
    fn terminate(self) {
        match self {
            WorkerHandle::Thread(handle) => {
                let _ = handle.join();
            }
            WorkerHandle::Proc(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Launches one worker endpoint for a shard slot.
pub(crate) trait WorkerLauncher {
    fn launch(&self, shard: usize, addr: &str) -> std::io::Result<WorkerHandle>;
}

/// Spawns worker threads in this process; the problem rides in `Arc`s.
struct InProcLauncher<T, O> {
    values: Arc<Vec<T>>,
    labels: Arc<Vec<usize>>,
    m: usize,
    op: O,
    heartbeat: Duration,
    chaos: Option<Arc<ChaosState>>,
}

impl<T: Element + WireValue, O: CombineOp<T>> WorkerLauncher for InProcLauncher<T, O> {
    fn launch(&self, shard: usize, addr: &str) -> std::io::Result<WorkerHandle> {
        let values = Arc::clone(&self.values);
        let labels = Arc::clone(&self.labels);
        let (m, op, heartbeat) = (self.m, self.op, self.heartbeat);
        let chaos = self.chaos.clone();
        let addr = addr.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("shard-net-worker-{shard}"))
            .spawn(move || {
                run_inproc_worker(shard, &addr, values, labels, m, op, heartbeat, chaos)
            })?;
        Ok(WorkerHandle::Thread(handle))
    }
}

/// Spawns worker processes by re-executing the current binary.
struct ProcLauncher {
    args: Vec<String>,
    shard_env: Option<Arc<ShardEnvFn>>,
}

impl WorkerLauncher for ProcLauncher {
    fn launch(&self, shard: usize, addr: &str) -> std::io::Result<WorkerHandle> {
        let exe = std::env::current_exe()?;
        let mut cmd = std::process::Command::new(exe);
        cmd.args(&self.args)
            .env(ENV_WORKER, "1")
            .env(ENV_ADDR, addr)
            .env(ENV_INDEX, shard.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(f) = &self.shard_env {
            for (key, value) in f(shard) {
                cmd.env(key, value);
            }
        }
        Ok(WorkerHandle::Proc(cmd.spawn()?))
    }
}

/// Accept one connection and run the supervisor side of the handshake:
/// `Hello` → version + slot validation → `HelloAck` → (for processes)
/// `Job` → `JobAck`. Refused or garbled peers are dropped and the
/// accept loop continues until `deadline`.
fn accept_one(
    listener: &NetListener,
    deadline: Instant,
    chaos: Option<Arc<ChaosState>>,
    run_deadline: Option<Deadline>,
    job: Option<&[u8]>,
    expect: impl Fn(&Hello) -> Result<(), &'static str>,
) -> Result<(Arc<Conn>, Hello), NetError> {
    loop {
        if Instant::now() >= deadline {
            return Err(NetError::Handshake("accept timed out"));
        }
        let Some(stream) = listener.try_accept()? else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let Ok(conn) = Conn::new(stream, chaos.clone(), run_deadline) else {
            continue;
        };
        let wait = deadline
            .saturating_duration_since(Instant::now())
            .min(Duration::from_secs(2));
        let hello = match conn.recv(wait) {
            Ok(Some(payload)) => match decode_hello(&payload) {
                Ok(hello) => hello,
                Err(_) => continue,
            },
            _ => continue,
        };
        if hello.version != WIRE_VERSION {
            let _ = conn.send(
                &encode_ack(TAG_HELLO_ACK, false, "wire version mismatch"),
                true,
            );
            continue;
        }
        if hello.needs_job && job.is_none() {
            let _ = conn.send(
                &encode_ack(TAG_HELLO_ACK, false, "no job for this fleet mode"),
                true,
            );
            continue;
        }
        if let Err(reason) = expect(&hello) {
            let _ = conn.send(&encode_ack(TAG_HELLO_ACK, false, reason), true);
            continue;
        }
        if conn
            .send(&encode_ack(TAG_HELLO_ACK, true, ""), true)
            .is_err()
        {
            continue;
        }
        if hello.needs_job {
            let job = job.expect("checked above");
            if conn.send(job, true).is_err() {
                continue;
            }
            match conn.recv(Duration::from_secs(10)) {
                Ok(Some(payload)) => match decode_ack(TAG_JOB_ACK, &payload) {
                    Ok((true, _)) => {}
                    _ => continue,
                },
                _ => continue,
            }
        }
        return Ok((conn, hello));
    }
}

/// Spawn the reader thread for one accepted connection: decode
/// [`UpMsg`] frames into the shared up-queue; on stream death outside
/// wind-down, count its cause and synthesize [`UpMsg::Crashed`].
fn spawn_reader<T: Element + WireValue>(
    shard: usize,
    conn: Arc<Conn>,
    closing: &Arc<AtomicBool>,
    recorder: Option<Arc<dyn Recorder>>,
    up_tx: &Sender<UpMsg<T>>,
) -> JoinHandle<()> {
    let closing = Arc::clone(closing);
    let up_tx = up_tx.clone();
    std::thread::Builder::new()
        .name(format!("shard-net-reader-{shard}"))
        .spawn(move || {
            let cause = loop {
                if closing.load(Ordering::Acquire) {
                    return;
                }
                match conn.recv(Duration::from_millis(50)) {
                    Ok(Some(payload)) => match decode_up::<T>(&payload) {
                        Ok(msg) => {
                            let _ = up_tx.send(msg);
                        }
                        // A checksum-verified frame we cannot decode is a
                        // protocol violation, not line noise: kill the
                        // connection rather than guess.
                        Err(_) => break COUNTER_CONN_DEAD_DECODE,
                    },
                    Ok(None) => {}
                    Err(NetError::Closed | NetError::Io(_)) => break COUNTER_CONN_DEAD_CLOSED,
                    Err(_) => break COUNTER_CONN_DEAD_DAMAGE,
                }
            };
            // Slam the socket so the worker side notices too.
            conn.shutdown();
            if !closing.load(Ordering::Acquire) {
                if let Some(rec) = &recorder {
                    rec.counter(cause, 1);
                }
                let _ = up_tx.send(UpMsg::Crashed { shard });
            }
        })
        .expect("spawn shard-net reader thread")
}

/// Supervisor-side socket [`Transport`]: down-messages are encoded and
/// framed onto per-shard connections, up-messages arrive via the reader
/// threads' shared queue. The worker-side trait methods are unreachable
/// by construction (workers hold a
/// `WorkerSocket` instead).
pub struct SocketTransport<T> {
    conns: Vec<Option<Arc<Conn>>>,
    up_rx: Mutex<Receiver<UpMsg<T>>>,
    /// `Shutdown` has been broadcast or the transport is dropping: worker
    /// EOFs from here on are clean exits, not crashes.
    closing: Arc<AtomicBool>,
    readers: Vec<JoinHandle<()>>,
    workers: Vec<WorkerHandle>,
    nshards: usize,
}

impl<T: Element + WireValue> SocketTransport<T> {
    /// Bind a listener, launch the fleet, and handshake every shard
    /// slot. Slots that fail to connect within the window are reported
    /// as immediately crashed (the supervisor requeues their spans) and
    /// stay dead — a partially-connected fleet is degraded, not fatal.
    /// The listener closes when this returns.
    pub(crate) fn establish(
        nshards: usize,
        launcher: &dyn WorkerLauncher,
        job: Option<&[u8]>,
        kind: SocketKind,
        chaos: Option<Arc<ChaosState>>,
        run_deadline: Option<Deadline>,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<SocketTransport<T>, NetError> {
        let listener = NetListener::bind(kind)?;
        let addr = listener.addr_string();
        let workers = (0..nshards)
            .filter_map(|shard| launcher.launch(shard, &addr).ok())
            .collect();
        let closing = Arc::new(AtomicBool::new(false));
        let (up_tx, up_rx) = mpsc::channel::<UpMsg<T>>();
        let mut conns: Vec<Option<Arc<Conn>>> = vec![None; nshards];
        let mut readers = Vec::with_capacity(nshards);
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        while conns.iter().any(Option::is_none) {
            let got = accept_one(
                &listener,
                deadline,
                chaos.clone(),
                run_deadline,
                job,
                |hello| match conns.get(hello.shard) {
                    None => Err("shard index out of range"),
                    Some(Some(_)) => Err("slot already connected"),
                    Some(None) => Ok(()),
                },
            );
            match got {
                Ok((conn, hello)) => {
                    let reader = spawn_reader(
                        hello.shard,
                        Arc::clone(&conn),
                        &closing,
                        recorder.clone(),
                        &up_tx,
                    );
                    readers.push(reader);
                    conns[hello.shard] = Some(conn);
                }
                Err(_) => break,
            }
        }
        for (shard, conn) in conns.iter().enumerate() {
            if conn.is_none() {
                let _ = up_tx.send(UpMsg::Crashed { shard });
            }
        }
        Ok(SocketTransport {
            conns,
            up_rx: Mutex::new(up_rx),
            closing,
            readers,
            workers,
            nshards,
        })
    }
}

impl<T: Element + WireValue> Transport<T> for SocketTransport<T> {
    fn shards(&self) -> usize {
        self.nshards
    }

    fn send_down(&self, shard: usize, msg: DownMsg<T>) {
        // Shutdown is protocol-critical: exempt from byte chaos, same
        // rule as the channel fabric. It also marks the run as winding
        // down, so worker EOFs from here on read as clean exits.
        let exempt = matches!(msg, DownMsg::Shutdown);
        if exempt {
            self.closing.store(true, Ordering::Release);
        }
        if let Some(conn) = &self.conns[shard] {
            // A failed send is a lost message — the task supervisor's
            // attempt deadline requeues the span, and the reader thread
            // reports the dead stream.
            let _ = conn.send(&encode_down(&msg), exempt);
        }
    }

    fn recv_down(&self, _shard: usize, _timeout: Duration) -> RecvOutcome<DownMsg<T>> {
        unreachable!("supervisor half of the socket fabric has no in-process workers");
    }

    fn send_up(&self, _msg: UpMsg<T>) {
        unreachable!("supervisor half of the socket fabric has no in-process workers");
    }

    fn recv_up(&self, timeout: Duration) -> RecvOutcome<UpMsg<T>> {
        let rx = self.up_rx.lock().unwrap();
        match rx.recv_timeout(timeout) {
            Ok(msg) => RecvOutcome::Msg(msg),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            // Every reader gone, so every connection is dead — the fabric
            // itself is lost; the supervisor maps this to Unavailable.
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Disconnected,
        }
    }
}

impl<T> Drop for SocketTransport<T> {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::Release);
        // Close connections before reaping: a worker thread exits only
        // once its stream dies.
        for conn in self.conns.iter().flatten() {
            conn.shutdown();
        }
        for worker in self.workers.drain(..) {
            worker.terminate();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl ShardSupervisor {
    /// Sharded multiprefix over a **socket** worker fleet (UDS or
    /// loopback TCP per [`NetConfig`]); panics on typed failures,
    /// mirroring [`ShardSupervisor::multiprefix`].
    pub fn multiprefix_socket<T, O>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        net: &NetConfig,
    ) -> MultiprefixOutput<T>
    where
        T: Element + WireValue,
        O: CombineOp<T> + WireOp,
    {
        self.try_multiprefix_socket(values, labels, m, op, net, &RunContext::new())
            .expect("socket sharded multiprefix failed")
    }

    /// Hardened socket-sharded multiprefix under a [`RunContext`].
    ///
    /// Wrap-semantics only (the operator crosses a process boundary by
    /// *name*, so checked-overflow guards cannot ride along — use the
    /// in-process engines for `Checked`/`Saturate` policies). Worker
    /// loss, byte corruption, truncation and disconnects each lose a
    /// shard for the rest of the run, and its tasks requeue onto live
    /// shards; exhausted recovery degrades to single-node chunked
    /// execution.
    pub fn try_multiprefix_socket<T, O>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        net: &NetConfig,
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError>
    where
        T: Element + WireValue,
        O: CombineOp<T> + WireOp,
    {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            self.run_sharded(values, labels, m, PlainComb(op), ctx, |nshards, spans| {
                self.run_socket_distributed(values, labels, m, op, net, nshards, spans, ctx)
            })
        }));
        // AssertUnwindSafe is sound for the same reason as the channel
        // path: partial outputs die inside the closure and supervisor
        // state is interior-mutable and coherent at every step.
        caught.unwrap_or(Err(MpError::EnginePanicked))
    }

    /// The socket transport's distributed attempt: launch `nshards`
    /// workers, establish the fabric, and supervise the two worker phases
    /// over `spans`.
    #[allow(clippy::too_many_arguments)]
    fn run_socket_distributed<T, O>(
        &self,
        values: &[T],
        labels: &[usize],
        m: usize,
        op: O,
        net: &NetConfig,
        nshards: usize,
        spans: &[ShardSpan],
        ctx: &RunContext,
    ) -> Result<MultiprefixOutput<T>, MpError>
    where
        T: Element + WireValue,
        O: CombineOp<T> + WireOp,
    {
        let cfg = *self.config();
        let launcher: Box<dyn WorkerLauncher> = match &net.fleet {
            FleetMode::InProc => Box::new(InProcLauncher {
                values: Arc::new(values.to_vec()),
                labels: Arc::new(labels.to_vec()),
                m,
                op,
                heartbeat: cfg.heartbeat_interval,
                chaos: ctx.chaos_arc(),
            }),
            FleetMode::SelfExec { args } => Box::new(ProcLauncher {
                args: args.clone(),
                shard_env: net.shard_env.clone(),
            }),
        };
        let job = match &net.fleet {
            FleetMode::InProc => None,
            FleetMode::SelfExec { .. } => Some(encode_job::<T>(
                &wire_tag_of::<T>(),
                O::WIRE_OP,
                m,
                (cfg.heartbeat_interval.as_millis() as u64).max(1),
                values,
                labels,
            )),
        };

        let transport: SocketTransport<T> = SocketTransport::establish(
            nshards,
            launcher.as_ref(),
            job.as_deref(),
            net.kind,
            ctx.chaos_arc(),
            ctx.deadline(),
            ctx.recorder_arc(),
        )
        .map_err(|_| MpError::Unavailable)?;
        let _guard = ShutdownGuard {
            transport: &transport,
            _elements: PhantomData,
        };
        self.supervise(&transport, spans, values.len(), m, PlainComb(op), ctx)
    }
}

/// Socket-sharded multiprefix with default tuning: a convenience over
/// [`ShardSupervisor::multiprefix_socket`] for one-shot runs.
///
/// ```no_run
/// use multiprefix::op::Plus;
/// use multiprefix::shard::net::{multiprefix_socket, NetConfig};
///
/// let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
/// let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
/// let out = multiprefix_socket(&values, &labels, 4, Plus, 3, &NetConfig::uds());
/// assert_eq!(out.sums, vec![0, 0, 1, 3, 3, 4, 4, 7]);
/// ```
pub fn multiprefix_socket<T, O>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    shards: usize,
    net: &NetConfig,
) -> MultiprefixOutput<T>
where
    T: Element + WireValue,
    O: CombineOp<T> + WireOp,
{
    ShardSupervisor::new(ShardConfig::default().shards(shards))
        .multiprefix_socket(values, labels, m, op, net)
}

/// Hardened one-shot socket-sharded multiprefix: a transient supervisor
/// under explicit [`ShardConfig`] + [`NetConfig`] + [`RunContext`].
pub fn try_multiprefix_socket_ctx<T, O>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    shard_cfg: &ShardConfig,
    net: &NetConfig,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<T>, MpError>
where
    T: Element + WireValue,
    O: CombineOp<T> + WireOp,
{
    ShardSupervisor::new(*shard_cfg).try_multiprefix_socket(values, labels, m, op, net, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MemoryRecorder;
    use crate::op::Plus;

    fn problem(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
        let values: Vec<i64> = (0..n).map(|i| (i as i64 % 23) - 11).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + i / 3) % m).collect();
        (values, labels)
    }

    fn oracle(values: &[i64], labels: &[usize], m: usize) -> MultiprefixOutput<i64> {
        let mut buckets = vec![0i64; m];
        let mut sums = Vec::with_capacity(values.len());
        for (&v, &l) in values.iter().zip(labels) {
            sums.push(buckets[l]);
            buckets[l] = buckets[l].wrapping_add(v);
        }
        MultiprefixOutput {
            sums,
            reductions: buckets,
        }
    }

    #[test]
    fn uds_in_proc_matches_oracle() {
        let (values, labels) = problem(5_000, 32);
        let out = multiprefix_socket(&values, &labels, 32, Plus, 3, &NetConfig::uds());
        assert_eq!(out, oracle(&values, &labels, 32));
    }

    #[test]
    fn tcp_in_proc_matches_oracle() {
        let (values, labels) = problem(5_000, 32);
        let out = multiprefix_socket(&values, &labels, 32, Plus, 3, &NetConfig::tcp());
        assert_eq!(out, oracle(&values, &labels, 32));
    }

    #[test]
    fn empty_input_and_single_element_over_socket() {
        let out = multiprefix_socket::<i64, _>(&[], &[], 4, Plus, 3, &NetConfig::uds());
        assert!(out.sums.is_empty());
        assert_eq!(out.reductions, vec![0; 4]);

        // One element with more shard slots than elements: the span
        // split clamps to one shard and the single apply payload holds
        // exactly one offset.
        let out = multiprefix_socket(&[41i64], &[0usize], 1, Plus, 4, &NetConfig::uds());
        assert_eq!(out.sums, vec![0]);
        assert_eq!(out.reductions, vec![41]);
    }

    /// A zero-length [`ShardSpan`] must round-trip the full wire path:
    /// its `Scan` yields an empty summary, its `Apply` carries a
    /// zero-length offsets payload, and its `Applied` a zero-length
    /// sums payload.
    #[test]
    fn zero_length_span_round_trips_over_socket() {
        let values = vec![7i64];
        let labels = vec![0usize];
        let sup = ShardSupervisor::new(ShardConfig::default().shards(2));
        let launcher = InProcLauncher {
            values: Arc::new(values.clone()),
            labels: Arc::new(labels.clone()),
            m: 1,
            op: Plus,
            heartbeat: Duration::from_millis(10),
            chaos: None,
        };
        let transport: SocketTransport<i64> =
            SocketTransport::establish(2, &launcher, None, SocketKind::Uds, None, None, None)
                .expect("establish");
        let spans = [
            ShardSpan {
                index: 0,
                start: 0,
                end: 1,
            },
            ShardSpan {
                index: 1,
                start: 1,
                end: 1,
            },
        ];
        let ctx = RunContext::new();
        let out = {
            let _guard = ShutdownGuard {
                transport: &transport,
                _elements: PhantomData,
            };
            sup.supervise(&transport, &spans, 1, 1, PlainComb(Plus), &ctx)
                .expect("supervise")
        };
        drop(transport);
        assert_eq!(out.sums, vec![0]);
        assert_eq!(out.reductions, vec![7]);
    }

    /// The supervisor's reader names why its connection died: a frame
    /// that fails a check, a verified frame that does not decode, or EOF.
    #[test]
    fn reader_counts_connection_deaths_by_cause() {
        use crate::shard::net::codec::encode_up;
        use crate::shard::net::frame::encode_frame;
        use std::io::Write;
        use std::os::unix::net::UnixStream;

        let mut damaged = encode_frame(1, &encode_up(&UpMsg::<i64>::Heartbeat { shard: 0 }));
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        let cases = [
            (Some(damaged), COUNTER_CONN_DEAD_DAMAGE),
            (Some(encode_frame(1, &[0xFF])), COUNTER_CONN_DEAD_DECODE),
            (None, COUNTER_CONN_DEAD_CLOSED),
        ];
        for (bytes, cause) in cases {
            let rec = MemoryRecorder::shared();
            let closing = Arc::new(AtomicBool::new(false));
            let (ours, mut peer) = UnixStream::pair().expect("socket pair");
            let conn = Conn::new(NetStream::Unix(ours), None, None).expect("conn");
            let (up_tx, up_rx) = mpsc::channel::<UpMsg<i64>>();
            let reader = spawn_reader(0, conn, &closing, Some(rec.clone()), &up_tx);
            match bytes {
                Some(bytes) => peer.write_all(&bytes).expect("peer write"),
                None => drop(peer),
            }
            let wait = Duration::from_secs(5);
            assert_eq!(up_rx.recv_timeout(wait), Ok(UpMsg::Crashed { shard: 0 }));
            reader.join().expect("reader thread");
            for key in [
                COUNTER_CONN_DEAD_DAMAGE,
                COUNTER_CONN_DEAD_DECODE,
                COUNTER_CONN_DEAD_CLOSED,
            ] {
                assert_eq!(rec.counter_value(key), u64::from(key == cause), "{key}");
            }
        }
    }
}
