//! The supervisor side of the socket fabric: listener, worker fleet
//! launch, per-connection reader threads, and the **keeper** — the
//! connection supervisor that respawns dead workers with jittered
//! backoff until a per-shard reconnect budget runs out.
//!
//! ## Division of labour
//!
//! The existing [`ShardSupervisor`] loop already recovers from *task*
//! loss: a shard that stops answering has its tasks requeued onto
//! survivors. This module adds the *connection* layer underneath it:
//!
//! * each accepted connection gets a reader thread that decodes
//!   [`UpMsg`] frames into one shared up-queue (so `recv_up` stays a
//!   single bounded wait, exactly like the channel fabric);
//! * a reader observing stream death synthesizes [`UpMsg::Crashed`]
//!   (the supervisor requeues on survivors — never an indefinite hang)
//!   and notifies the keeper;
//! * the keeper respawns the worker (thread or process), re-handshakes,
//!   re-ships the job, and announces the revived slot with a synthetic
//!   [`UpMsg::Heartbeat`]. Reconnects are counted on the supervisor and
//!   under the `shard.supervisor.reconnects` recorder key;
//! * when the budget is exhausted the slot stays dead and the existing
//!   degradation ladder (requeue → `Unavailable` → single-node rerun)
//!   takes over.

use super::codec::{
    decode_ack, decode_hello, decode_up, encode_ack, encode_down, encode_job, Hello, TAG_HELLO_ACK,
    TAG_JOB_ACK, WIRE_VERSION,
};
use super::conn::{Conn, NetStream};
use super::wire::{wire_tag_of, NetError, WireOp, WireValue};
use super::worker::{run_inproc_worker, ENV_ADDR, ENV_INDEX, ENV_WORKER};
use super::DEFAULT_NAK_BUDGET;
use crate::chunked::PlainComb;
use crate::error::MpError;
use crate::obs::Recorder;
use crate::op::CombineOp;
use crate::problem::{Element, MultiprefixOutput};
use crate::resilience::{ChaosState, Deadline, RunContext};
use crate::shard::transport::{DownMsg, RecvOutcome, ShardSpan, Transport, UpMsg};
use crate::shard::{ShardConfig, ShardSupervisor, ShutdownGuard, COUNTER_RECONNECTS};
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

/// Socket-fabric configuration, orthogonal to [`ShardConfig`] (which
/// keeps owning the recovery tuning: timeouts, retries, reconnect
/// budget).
#[derive(Clone)]
pub struct NetConfig {
    /// Socket family.
    pub kind: SocketKind,
    /// Worker fleet mode.
    pub fleet: FleetMode,
    /// How long to wait for a worker to connect and finish its
    /// handshake (initial fleet launch and each keeper respawn).
    pub accept_timeout: Duration,
    /// Corrupt frames tolerated per connection before it is declared
    /// poisoned and handed to the keeper.
    pub nak_budget: u32,
    /// Extra environment for every spawned worker process.
    pub proc_env: Vec<(String, String)>,
    /// Extra per-shard environment for spawned worker processes (e.g. a
    /// fault-injection hook for one victim shard).
    pub shard_env: Option<Arc<ShardEnvFn>>,
}

impl NetConfig {
    fn with_kind(kind: SocketKind) -> Self {
        NetConfig {
            kind,
            fleet: FleetMode::InProc,
            accept_timeout: Duration::from_secs(3),
            nak_budget: DEFAULT_NAK_BUDGET,
            proc_env: Vec::new(),
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

    /// Set the handshake window.
    pub fn accept_timeout(mut self, timeout: Duration) -> Self {
        self.accept_timeout = timeout;
        self
    }

    /// Set the per-connection corrupt-frame (NAK) budget.
    pub fn nak_budget(mut self, budget: u32) -> Self {
        self.nak_budget = budget.max(1);
        self
    }

    /// Add an environment variable for every spawned worker process.
    pub fn proc_env(mut self, key: &str, value: &str) -> Self {
        self.proc_env.push((key.to_string(), value.to_string()));
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
            .field("accept_timeout", &self.accept_timeout)
            .field("nak_budget", &self.nak_budget)
            .field("proc_env", &self.proc_env)
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

/// A launched worker endpoint, owned (and reaped) by the keeper.
pub(crate) enum WorkerHandle {
    Thread(JoinHandle<()>),
    Proc(std::process::Child),
}

impl WorkerHandle {
    /// Reap the worker. Threads are joined (their connection has been
    /// shut down first, so the worker loop exits promptly); processes
    /// are killed and waited — a respawn must never race its
    /// predecessor for the shard slot.
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
pub(crate) trait WorkerLauncher: Send + Sync {
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
    nak_budget: u32,
}

impl<T: Element + WireValue, O: CombineOp<T>> WorkerLauncher for InProcLauncher<T, O> {
    fn launch(&self, shard: usize, addr: &str) -> std::io::Result<WorkerHandle> {
        let values = Arc::clone(&self.values);
        let labels = Arc::clone(&self.labels);
        let (m, op, heartbeat, nak_budget) = (self.m, self.op, self.heartbeat, self.nak_budget);
        let chaos = self.chaos.clone();
        let addr = addr.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("shard-net-worker-{shard}"))
            .spawn(move || {
                run_inproc_worker(
                    shard, &addr, values, labels, m, op, heartbeat, chaos, nak_budget,
                )
            })?;
        Ok(WorkerHandle::Thread(handle))
    }
}

/// Spawns worker processes by re-executing the current binary.
struct ProcLauncher {
    args: Vec<String>,
    env: Vec<(String, String)>,
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
        for (key, value) in &self.env {
            cmd.env(key, value);
        }
        if let Some(f) = &self.shard_env {
            for (key, value) in f(shard) {
                cmd.env(key, value);
            }
        }
        Ok(WorkerHandle::Proc(cmd.spawn()?))
    }
}

/// State shared between the transport, its reader threads, and the
/// keeper. Connection slots are per-shard so a revival swaps one slot
/// without touching in-flight traffic to others.
struct Shared {
    conns: Vec<Mutex<Option<Arc<Conn>>>>,
    /// The transport is being dropped: suppress crash synthesis and
    /// revival, and unblock every keeper/reader wait.
    shutdown: AtomicBool,
    /// `Shutdown` has been broadcast (the run is over): worker EOFs from
    /// here on are clean exits, not crashes — don't revive them.
    closing: AtomicBool,
    reconnects: AtomicU64,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// True once the run is winding down for any reason.
    fn winding_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || self.closing.load(Ordering::Acquire)
    }
}

/// Keeper → transport control messages.
enum KeeperMsg {
    /// A shard's connection died; try to revive it.
    Dead(usize),
    /// The transport is shutting down.
    Quit,
}

/// Deterministic jittered exponential backoff: seeded from the shard
/// slot and attempt number so chaos runs replay identically, spread in
/// `[0.5, 1.5) × base × 2^min(attempt-1, 4)`, capped at 500 ms.
fn jittered_backoff(base: Duration, shard: usize, attempt: u32) -> Duration {
    let mut x = (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let jitter = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 54) as f64 / 1024.0;
    let exp = 1u64 << u64::from(attempt.saturating_sub(1)).min(4);
    let ms = base.as_secs_f64() * 1e3 * exp as f64 * (0.5 + jitter);
    Duration::from_millis((ms.ceil() as u64).clamp(1, 500))
}

/// Sleep in small slices so a transport shutdown is never blocked
/// behind a backoff wait.
fn sleep_checking(total: Duration, shared: &Shared) {
    let end = Instant::now() + total;
    while !shared.winding_down() {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

/// Accept one connection and run the supervisor side of the handshake:
/// `Hello` → version + slot validation → `HelloAck` → (for processes)
/// `Job` → `JobAck`. Refused or garbled peers are dropped and the
/// accept loop continues until `deadline`.
#[allow(clippy::too_many_arguments)]
fn accept_one(
    listener: &NetListener,
    deadline: Instant,
    shared: &Shared,
    chaos: Option<Arc<ChaosState>>,
    run_deadline: Option<Deadline>,
    nak_budget: u32,
    job: Option<&[u8]>,
    expect: impl Fn(&Hello) -> Result<(), &'static str>,
) -> Result<(Arc<Conn>, Hello), NetError> {
    loop {
        if shared.winding_down() || Instant::now() >= deadline {
            return Err(NetError::Handshake("accept timed out"));
        }
        let Some(stream) = listener.try_accept()? else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let Ok(conn) = Conn::new(stream, chaos.clone(), run_deadline, nak_budget) else {
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
/// [`UpMsg`] frames into the shared up-queue; on stream death,
/// synthesize [`UpMsg::Crashed`] and notify the keeper.
fn spawn_reader<T: Element + WireValue>(
    shard: usize,
    conn: Arc<Conn>,
    shared: &Arc<Shared>,
    up_tx: &Sender<UpMsg<T>>,
    keeper_tx: &Sender<KeeperMsg>,
) {
    let shared_for_thread = Arc::clone(shared);
    let up_tx = up_tx.clone();
    let keeper_tx = keeper_tx.clone();
    let handle = std::thread::Builder::new()
        .name(format!("shard-net-reader-{shard}"))
        .spawn(move || {
            loop {
                if shared_for_thread.shutdown.load(Ordering::Acquire) {
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
                        Err(_) => break,
                    },
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            // Slam the socket so the worker side notices too (a poisoned
            // connection is only marked dead locally).
            conn.shutdown();
            if !shared_for_thread.winding_down() {
                let _ = up_tx.send(UpMsg::Crashed { shard });
                let _ = keeper_tx.send(KeeperMsg::Dead(shard));
            }
        })
        .expect("spawn shard-net reader thread");
    shared.readers.lock().unwrap().push(handle);
}

/// The connection supervisor: owns the listener and the worker handles,
/// revives dead shards with jittered backoff, and reaps the fleet at
/// shutdown.
struct Keeper<T: Element + WireValue> {
    shared: Arc<Shared>,
    listener: NetListener,
    addr: String,
    launcher: Arc<dyn WorkerLauncher>,
    job: Option<Arc<Vec<u8>>>,
    handles: Vec<Option<WorkerHandle>>,
    attempts: Vec<u32>,
    max_reconnects: u32,
    backoff: Duration,
    accept_timeout: Duration,
    nak_budget: u32,
    chaos: Option<Arc<ChaosState>>,
    run_deadline: Option<Deadline>,
    recorder: Option<Arc<dyn Recorder>>,
    rx: Receiver<KeeperMsg>,
    keeper_tx: Sender<KeeperMsg>,
    up_tx: Sender<UpMsg<T>>,
}

impl<T: Element + WireValue> Keeper<T> {
    fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.rx.recv_timeout(Duration::from_millis(100)) {
                Ok(KeeperMsg::Quit) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(KeeperMsg::Dead(shard)) => self.revive(shard),
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        let Keeper {
            listener,
            mut handles,
            ..
        } = self;
        // Close the listener before reaping: a worker parked in the
        // accept queue (launched by a revival the shutdown raced) gets
        // its connection reset and fails its handshake immediately,
        // instead of waiting out the handshake timeout under our join.
        drop(listener);
        for handle in &mut handles {
            if let Some(h) = handle.take() {
                h.terminate();
            }
        }
    }

    /// Bounded reconnect/respawn: each attempt burns one unit of the
    /// shard's budget, backs off with deterministic jitter, replaces the
    /// worker endpoint, and re-runs the full handshake (re-shipping the
    /// job to processes). Success re-arms the slot and beacons a
    /// synthetic heartbeat so the task supervisor marks it live again.
    fn revive(&mut self, shard: usize) {
        if let Some(conn) = self.shared.conns[shard].lock().unwrap().take() {
            conn.shutdown();
        }
        while self.attempts[shard] < self.max_reconnects {
            if self.shared.winding_down() {
                return;
            }
            self.attempts[shard] += 1;
            sleep_checking(
                jittered_backoff(self.backoff, shard, self.attempts[shard]),
                &self.shared,
            );
            if let Some(old) = self.handles[shard].take() {
                old.terminate();
            }
            let handle = match self.launcher.launch(shard, &self.addr) {
                Ok(handle) => handle,
                Err(_) => continue,
            };
            self.handles[shard] = Some(handle);
            let deadline = Instant::now() + self.accept_timeout;
            let got = accept_one(
                &self.listener,
                deadline,
                &self.shared,
                self.chaos.clone(),
                self.run_deadline,
                self.nak_budget,
                self.job.as_deref().map(Vec::as_slice),
                |hello| {
                    if hello.shard == shard {
                        Ok(())
                    } else {
                        Err("unexpected shard slot")
                    }
                },
            );
            match got {
                Ok((conn, _hello)) => {
                    *self.shared.conns[shard].lock().unwrap() = Some(Arc::clone(&conn));
                    spawn_reader::<T>(shard, conn, &self.shared, &self.up_tx, &self.keeper_tx);
                    self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
                    if let Some(rec) = &self.recorder {
                        rec.counter(COUNTER_RECONNECTS, 1);
                    }
                    // Revival beacon: drive_phase flips the slot back to
                    // live on any sign of life from it.
                    let _ = self.up_tx.send(UpMsg::Heartbeat { shard });
                    return;
                }
                Err(_) => continue,
            }
        }
        // Budget exhausted: the slot stays dead and the task supervisor's
        // degradation ladder takes over.
    }
}

/// Supervisor-side socket [`Transport`]: down-messages are encoded and
/// framed onto per-shard connections, up-messages arrive via the reader
/// threads' shared queue. The worker-side trait methods are unreachable
/// by construction (workers hold a
/// `WorkerSocket` instead).
pub struct SocketTransport<T> {
    shared: Arc<Shared>,
    up_rx: Mutex<Receiver<UpMsg<T>>>,
    keeper: Option<JoinHandle<()>>,
    keeper_tx: Sender<KeeperMsg>,
    nshards: usize,
}

impl<T: Element + WireValue> SocketTransport<T> {
    /// Bind a listener, launch the fleet, and handshake every shard
    /// slot. Slots that fail to connect within the window are reported
    /// as immediately crashed (the supervisor requeues their spans) and
    /// handed to the keeper for revival — a partially-connected fleet is
    /// degraded, not fatal.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn establish(
        nshards: usize,
        launcher: Arc<dyn WorkerLauncher>,
        job: Option<Arc<Vec<u8>>>,
        net: &NetConfig,
        max_reconnects: u32,
        reconnect_backoff: Duration,
        chaos: Option<Arc<ChaosState>>,
        run_deadline: Option<Deadline>,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<SocketTransport<T>, NetError> {
        let listener = NetListener::bind(net.kind)?;
        let addr = listener.addr_string();
        let shared = Arc::new(Shared {
            conns: (0..nshards).map(|_| Mutex::new(None)).collect(),
            shutdown: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
        });
        let (up_tx, up_rx) = mpsc::channel::<UpMsg<T>>();
        let (keeper_tx, keeper_rx) = mpsc::channel::<KeeperMsg>();

        let mut handles: Vec<Option<WorkerHandle>> = (0..nshards).map(|_| None).collect();
        for (shard, slot) in handles.iter_mut().enumerate() {
            *slot = launcher.launch(shard, &addr).ok();
        }

        let mut connected = vec![false; nshards];
        let deadline = Instant::now() + net.accept_timeout;
        while connected.iter().any(|c| !c) {
            let got = accept_one(
                &listener,
                deadline,
                &shared,
                chaos.clone(),
                run_deadline,
                net.nak_budget,
                job.as_deref().map(Vec::as_slice),
                |hello| {
                    if hello.shard >= nshards {
                        Err("shard index out of range")
                    } else if connected[hello.shard] {
                        Err("slot already connected")
                    } else {
                        Ok(())
                    }
                },
            );
            match got {
                Ok((conn, hello)) => {
                    connected[hello.shard] = true;
                    *shared.conns[hello.shard].lock().unwrap() = Some(Arc::clone(&conn));
                    spawn_reader::<T>(hello.shard, conn, &shared, &up_tx, &keeper_tx);
                }
                Err(_) => break,
            }
        }
        for (shard, ok) in connected.iter().enumerate() {
            if !*ok {
                let _ = up_tx.send(UpMsg::Crashed { shard });
                let _ = keeper_tx.send(KeeperMsg::Dead(shard));
            }
        }

        let keeper = Keeper {
            shared: Arc::clone(&shared),
            listener,
            addr,
            launcher,
            job,
            handles,
            attempts: vec![0; nshards],
            max_reconnects,
            backoff: reconnect_backoff,
            accept_timeout: net.accept_timeout,
            nak_budget: net.nak_budget,
            chaos,
            run_deadline,
            recorder,
            rx: keeper_rx,
            keeper_tx: keeper_tx.clone(),
            up_tx,
        };
        let keeper = std::thread::Builder::new()
            .name("shard-net-keeper".into())
            .spawn(move || keeper.run())?;

        Ok(SocketTransport {
            shared,
            up_rx: Mutex::new(up_rx),
            keeper: Some(keeper),
            keeper_tx,
            nshards,
        })
    }

    /// Reconnect/respawn attempts that succeeded during this transport's
    /// lifetime.
    pub(crate) fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }
}

impl<T: Element + WireValue> Transport<T> for SocketTransport<T> {
    fn shards(&self) -> usize {
        self.nshards
    }

    fn send_down(&self, shard: usize, msg: DownMsg<T>) {
        // Shutdown is protocol-critical: exempt from byte chaos, same
        // rule as the channel fabric. It also marks the run as winding
        // down, so worker EOFs from here on read as clean exits and the
        // keeper stops reviving slots nobody will ever task again.
        let exempt = matches!(msg, DownMsg::Shutdown);
        if exempt {
            self.shared.closing.store(true, Ordering::Release);
        }
        let payload = encode_down(&msg);
        let slot = self.shared.conns[shard].lock().unwrap();
        if let Some(conn) = slot.as_ref() {
            // A failed send is a lost message — the task supervisor's
            // attempt deadline requeues the span, and the reader thread
            // reports the dead stream to the keeper.
            let _ = conn.send(&payload, exempt);
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
            // Every sender gone (readers and keeper dead) — the fabric
            // itself is lost; the supervisor maps this to Unavailable.
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Disconnected,
        }
    }
}

impl<T> Drop for SocketTransport<T> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Close connections before waking the keeper: its teardown joins
        // worker threads, which only exit once their stream dies.
        for slot in &self.shared.conns {
            if let Some(conn) = slot.lock().unwrap().take() {
                conn.shutdown();
            }
        }
        let _ = self.keeper_tx.send(KeeperMsg::Quit);
        if let Some(keeper) = self.keeper.take() {
            let _ = keeper.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().unwrap());
        for reader in readers {
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
    /// loss, byte corruption, truncation and disconnects are absorbed by
    /// the requeue/reconnect ladder; exhausted recovery degrades to
    /// single-node chunked execution when
    /// [`ShardConfig::fallback_single_node`] is set, else fails with
    /// [`MpError::Unavailable`].
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
        let launcher: Arc<dyn WorkerLauncher> = match &net.fleet {
            FleetMode::InProc => Arc::new(InProcLauncher {
                values: Arc::new(values.to_vec()),
                labels: Arc::new(labels.to_vec()),
                m,
                op,
                heartbeat: cfg.heartbeat_interval,
                chaos: ctx.chaos_arc(),
                nak_budget: net.nak_budget,
            }),
            FleetMode::SelfExec { args } => Arc::new(ProcLauncher {
                args: args.clone(),
                env: net.proc_env.clone(),
                shard_env: net.shard_env.clone(),
            }),
        };
        let job = match &net.fleet {
            FleetMode::InProc => None,
            FleetMode::SelfExec { .. } => Some(Arc::new(encode_job::<T>(
                &wire_tag_of::<T>(),
                O::WIRE_OP,
                m,
                (cfg.heartbeat_interval.as_millis() as u64).max(1),
                values,
                labels,
            ))),
        };

        let transport: SocketTransport<T> = SocketTransport::establish(
            nshards,
            launcher,
            job,
            net,
            cfg.max_reconnects,
            cfg.reconnect_backoff,
            ctx.chaos_arc(),
            ctx.deadline(),
            ctx.recorder_arc(),
        )
        .map_err(|_| MpError::Unavailable)?;

        let result = {
            let _guard = ShutdownGuard {
                transport: &transport,
                _elements: PhantomData,
            };
            self.supervise(&transport, spans, values.len(), m, PlainComb(op), ctx)
        };
        // Fold the transport's reconnect tally into the supervisor's
        // cross-run counter (recorder emission happened live, in the
        // keeper).
        self.reconnects
            .fetch_add(transport.reconnects(), Ordering::Relaxed);
        result
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
        let launcher: Arc<dyn WorkerLauncher> = Arc::new(InProcLauncher {
            values: Arc::new(values.clone()),
            labels: Arc::new(labels.clone()),
            m: 1,
            op: Plus,
            heartbeat: Duration::from_millis(10),
            chaos: None,
            nak_budget: 8,
        });
        let transport: SocketTransport<i64> = SocketTransport::establish(
            2,
            launcher,
            None,
            &NetConfig::uds(),
            1,
            Duration::from_millis(5),
            None,
            None,
            None,
        )
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

    /// Deterministic pin for the reconnect ladder: sever one shard's
    /// socket at the transport level, then wait for the keeper to
    /// respawn the worker, re-handshake, and tick
    /// `shard.supervisor.reconnects` — no chaos timing races involved.
    /// The revived connection must then carry a full run bit-identically.
    #[test]
    fn keeper_revives_severed_connection_and_ticks_counter() {
        let (values, labels) = problem(2_000, 16);
        let launcher: Arc<dyn WorkerLauncher> = Arc::new(InProcLauncher {
            values: Arc::new(values.clone()),
            labels: Arc::new(labels.clone()),
            m: 16,
            op: Plus,
            heartbeat: Duration::from_millis(10),
            chaos: None,
            nak_budget: 2,
        });
        let transport: SocketTransport<i64> = SocketTransport::establish(
            2,
            launcher,
            None,
            &NetConfig::uds(),
            4,
            Duration::from_millis(2),
            None,
            None,
            None,
        )
        .expect("establish");

        // Kill shard 1's socket out from under both endpoints: the
        // reader thread sees EOF and reports the shard dead.
        transport.shared.conns[1]
            .lock()
            .unwrap()
            .as_ref()
            .expect("shard 1 connected at establish")
            .shutdown();

        let deadline = Instant::now() + Duration::from_secs(10);
        while transport.reconnects() == 0 {
            assert!(
                Instant::now() < deadline,
                "keeper never revived the severed connection"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        // The revived endpoint must carry real traffic end to end.
        let sup = ShardSupervisor::new(ShardConfig::default().shards(2).max_reconnects(4));
        let spans = [
            ShardSpan {
                index: 0,
                start: 0,
                end: 1_000,
            },
            ShardSpan {
                index: 1,
                start: 1_000,
                end: 2_000,
            },
        ];
        let ctx = RunContext::new();
        let out = {
            let _guard = ShutdownGuard {
                transport: &transport,
                _elements: PhantomData,
            };
            sup.supervise(&transport, &spans, 2_000, 16, PlainComb(Plus), &ctx)
                .expect("supervise after revival")
        };
        assert!(transport.reconnects() >= 1);
        drop(transport);
        assert_eq!(out, oracle(&values, &labels, 16));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for shard in 0..8 {
            for attempt in 1..6 {
                let a = jittered_backoff(Duration::from_millis(10), shard, attempt);
                let b = jittered_backoff(Duration::from_millis(10), shard, attempt);
                assert_eq!(a, b, "same inputs must give the same backoff");
                assert!(a >= Duration::from_millis(1) && a <= Duration::from_millis(500));
            }
        }
    }
}
