//! The chaos harness: seeded, deterministic fault injection at engine
//! checkpoints.
//!
//! PR 1's PRAM fault layer (`pram::fault`) corrupts arbitration commits in
//! the *simulated* machine; this module generalizes the idea to the
//! production engines. A [`ChaosPlan`] describes a fault mix — engine
//! panics, allocation failures, and artificial stalls — as parts-per-
//! million probabilities over a seeded stream. Arm it ([`ChaosPlan::arm`])
//! and hang the resulting [`ChaosState`] on a
//! [`crate::resilience::RunContext`]: every engine checkpoint then draws
//! from the stream and may
//!
//! * **panic** (`panic_ppm`) — a real `panic!`, exercising the panic
//!   containment of the chunked engine and of the dispatcher;
//! * **fail an allocation** (`alloc_fail_ppm`) — returns
//!   [`MpError::AllocationFailed`] (with `bytes = 0`, marking it injected),
//!   exercising the fallback path;
//! * **stall** (`stall_ppm`) — sleeps for [`ChaosPlan::stall`], exercising
//!   deadlines (the checkpoint *after* a stall observes the expired
//!   deadline).
//!
//! A second, independent fault surface targets the **service pool**
//! ([`crate::service`]): `worker_panic_ppm` / `worker_stall_ppm` fire at
//! *worker* checkpoints (between dequeuing a batch and executing it), and
//! `only_worker` scopes them to one worker index. A worker panic kills the
//! worker thread itself — upstream of the dispatcher's `catch_unwind` — so
//! it exercises supervision (respawn, `MpError::WorkerLost` resolution of
//! the in-flight tickets) rather than engine-level containment. A plan
//! that arms either keeps every service request on the pool, so none runs
//! on its submitter's thread.
//!
//! The draw stream is a single atomic xorshift state, so a fixed seed gives
//! a reproducible fault *sequence* under sequential execution and a
//! reproducible fault *mix* under parallel execution (threads interleave
//! draws, but every draw comes from the same deterministic stream — no OS
//! entropy anywhere).

use crate::api::Engine;
use crate::error::MpError;
use crate::resilience::ctx::Deadline;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A seeded fault mix for the chaos harness. Probabilities are per
/// checkpoint, in parts per million; `1_000_000` fires on every draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Probability an armed checkpoint panics.
    pub panic_ppm: u32,
    /// Probability an armed checkpoint reports an (injected) allocation
    /// failure.
    pub alloc_fail_ppm: u32,
    /// Probability an armed checkpoint stalls for [`ChaosPlan::stall`].
    pub stall_ppm: u32,
    /// Length of one injected stall.
    pub stall: Duration,
    /// Restrict injection to one engine (`None` faults every engine). Lets
    /// a test wedge the primary of a fallback chain while its fallbacks
    /// stay healthy.
    pub only: Option<Engine>,
    /// Probability a **worker checkpoint** (drawn by a
    /// [`crate::service::Service`] pool worker between dequeuing a batch
    /// and executing it) panics, killing the worker thread itself — the
    /// injection point for supervision/respawn testing. Engine checkpoints
    /// never draw from this. A nonzero value keeps every service request
    /// on the pool: none runs on its submitter's thread, which has no
    /// worker to kill.
    pub worker_panic_ppm: u32,
    /// Probability a worker checkpoint stalls for [`ChaosPlan::stall`]
    /// (e.g. to let a test deterministically build up queue depth behind a
    /// slow worker). Like `worker_panic_ppm`, a nonzero value keeps every
    /// service request on the pool.
    pub worker_stall_ppm: u32,
    /// Restrict **worker** injection to one worker index (`None` faults
    /// every worker). Lets a test kill one worker of a pool while the rest
    /// stay healthy.
    pub only_worker: Option<usize>,
    /// Probability a **shard-worker checkpoint** (drawn by a
    /// [`crate::shard::ShardSupervisor`] worker at task entry) panics,
    /// killing that shard — the injection point for shard-loss recovery
    /// testing. Engine and pool-worker checkpoints never draw from this.
    pub shard_panic_ppm: u32,
    /// Probability a shard-worker checkpoint stalls for
    /// [`ChaosPlan::stall`] (clamped to the active deadline), exercising
    /// the supervisor's task-deadline requeue path.
    pub shard_stall_ppm: u32,
    /// Probability a shard-transport **data** message is dropped at send
    /// time (protocol-critical `Shutdown`/`Crashed` messages are exempt).
    pub shard_drop_ppm: u32,
    /// Probability a shard-transport data message is duplicated at send
    /// time.
    pub shard_dup_ppm: u32,
    /// Restrict **shard** panic/stall injection to one shard index
    /// (`None` faults every shard).
    pub only_shard: Option<usize>,
    /// Probability a socket-transport **data frame** has one bit flipped
    /// after its checksum is computed (the receiver must reject it with a
    /// typed error and close the connection, never deliver it; the
    /// supervisor requeues the lost task).
    pub net_corrupt_ppm: u32,
    /// Probability a socket-transport data frame is truncated mid-write
    /// with the stream left open (the next frame's bytes then fail the
    /// receiver's checks and close the connection, a cut at byte 0 fails
    /// its sequence check, and a frame nothing follows ends in a task
    /// timeout).
    pub net_truncate_ppm: u32,
    /// Probability a socket-transport data frame's write turns into a
    /// mid-message disconnect (partial write, then both stream directions
    /// shut down) — the connection-supervision / respawn trigger.
    pub net_disconnect_ppm: u32,
    /// Probability a socket-transport frame write stalls for
    /// [`ChaosPlan::stall`] first (clamped to the active deadline),
    /// exercising attempt-deadline requeues through a slow writer.
    pub net_stall_ppm: u32,
    /// Probability a durable-session WAL record write is **torn**: only a
    /// prefix of the encoded record reaches the file and the append
    /// reports [`MpError::Storage`] (the op is *not* acknowledged). The
    /// recovery path must detect the torn tail and truncate the log at
    /// the last whole record.
    pub wal_torn_write_ppm: u32,
    /// Probability one bit of a WAL record is flipped **after** its
    /// checksums were computed, then written whole and silently
    /// acknowledged — media corruption. Recovery must reject the record
    /// (and everything after it) rather than replay damage.
    pub wal_bit_flip_ppm: u32,
    /// Probability a snapshot's bytes are corrupted at write time (one
    /// flipped bit, post-checksum). Recovery must fail that generation's
    /// validation and fall back to the previous one.
    pub snapshot_corrupt_ppm: u32,
    /// Probability an `fsync` (WAL sync or snapshot durability barrier)
    /// reports failure. The session surfaces [`MpError::Storage`] and
    /// does not acknowledge the op — though the bytes may in fact have
    /// reached the disk, exactly like a real fsync failure.
    pub fsync_fail_ppm: u32,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0,
            panic_ppm: 0,
            alloc_fail_ppm: 0,
            stall_ppm: 0,
            stall: Duration::from_millis(1),
            only: None,
            worker_panic_ppm: 0,
            worker_stall_ppm: 0,
            only_worker: None,
            shard_panic_ppm: 0,
            shard_stall_ppm: 0,
            shard_drop_ppm: 0,
            shard_dup_ppm: 0,
            only_shard: None,
            net_corrupt_ppm: 0,
            net_truncate_ppm: 0,
            net_disconnect_ppm: 0,
            net_stall_ppm: 0,
            wal_torn_write_ppm: 0,
            wal_bit_flip_ppm: 0,
            snapshot_corrupt_ppm: 0,
            fsync_fail_ppm: 0,
        }
    }
}

impl ChaosPlan {
    /// A plan with `seed` and no faults; set the mix with the builders.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..Default::default()
        }
    }

    /// Set the panic probability (ppm per checkpoint).
    pub fn panic_ppm(mut self, ppm: u32) -> Self {
        self.panic_ppm = ppm;
        self
    }

    /// Set the injected-allocation-failure probability (ppm per checkpoint).
    pub fn alloc_fail_ppm(mut self, ppm: u32) -> Self {
        self.alloc_fail_ppm = ppm;
        self
    }

    /// Set the stall probability (ppm per checkpoint) and stall length.
    pub fn stall(mut self, ppm: u32, length: Duration) -> Self {
        self.stall_ppm = ppm;
        self.stall = length;
        self
    }

    /// Restrict injection to `engine` ([`Engine::Auto`] targets the
    /// chunked engine it runs).
    pub fn only(mut self, engine: Engine) -> Self {
        self.only = Some(engine.resolve());
        self
    }

    /// Set the worker-checkpoint panic probability (ppm per batch).
    pub fn worker_panic_ppm(mut self, ppm: u32) -> Self {
        self.worker_panic_ppm = ppm;
        self
    }

    /// Set the worker-checkpoint stall probability (ppm per batch; stall
    /// length is [`ChaosPlan::stall`], shared with engine stalls).
    pub fn worker_stall_ppm(mut self, ppm: u32) -> Self {
        self.worker_stall_ppm = ppm;
        self
    }

    /// Restrict worker injection to the worker with index `worker`.
    pub fn only_worker(mut self, worker: usize) -> Self {
        self.only_worker = Some(worker);
        self
    }

    /// Set the shard-worker panic probability (ppm per task entry).
    pub fn shard_panic_ppm(mut self, ppm: u32) -> Self {
        self.shard_panic_ppm = ppm;
        self
    }

    /// Set the shard-worker stall probability (ppm per task entry; stall
    /// length is [`ChaosPlan::stall`], shared with engine stalls).
    pub fn shard_stall_ppm(mut self, ppm: u32) -> Self {
        self.shard_stall_ppm = ppm;
        self
    }

    /// Set the shard-transport message-drop probability (ppm per data
    /// message sent).
    pub fn shard_drop_ppm(mut self, ppm: u32) -> Self {
        self.shard_drop_ppm = ppm;
        self
    }

    /// Set the shard-transport message-duplication probability (ppm per
    /// data message sent).
    pub fn shard_dup_ppm(mut self, ppm: u32) -> Self {
        self.shard_dup_ppm = ppm;
        self
    }

    /// Restrict shard panic/stall injection to the shard with index
    /// `shard`.
    pub fn only_shard(mut self, shard: usize) -> Self {
        self.only_shard = Some(shard);
        self
    }

    /// Set the socket-frame bit-corruption probability (ppm per data
    /// frame written).
    pub fn net_corrupt_ppm(mut self, ppm: u32) -> Self {
        self.net_corrupt_ppm = ppm;
        self
    }

    /// Set the socket-frame truncation probability (ppm per data frame
    /// written).
    pub fn net_truncate_ppm(mut self, ppm: u32) -> Self {
        self.net_truncate_ppm = ppm;
        self
    }

    /// Set the socket mid-message-disconnect probability (ppm per data
    /// frame written).
    pub fn net_disconnect_ppm(mut self, ppm: u32) -> Self {
        self.net_disconnect_ppm = ppm;
        self
    }

    /// Set the socket slow-writer stall probability (ppm per data frame
    /// written; stall length is [`ChaosPlan::stall`], shared with engine
    /// stalls and clamped to the active deadline).
    pub fn net_stall_ppm(mut self, ppm: u32) -> Self {
        self.net_stall_ppm = ppm;
        self
    }

    /// Set the WAL torn-write probability (ppm per record appended).
    pub fn wal_torn_write_ppm(mut self, ppm: u32) -> Self {
        self.wal_torn_write_ppm = ppm;
        self
    }

    /// Set the WAL bit-flip probability (ppm per record appended).
    pub fn wal_bit_flip_ppm(mut self, ppm: u32) -> Self {
        self.wal_bit_flip_ppm = ppm;
        self
    }

    /// Set the snapshot-corruption probability (ppm per snapshot written).
    pub fn snapshot_corrupt_ppm(mut self, ppm: u32) -> Self {
        self.snapshot_corrupt_ppm = ppm;
        self
    }

    /// Set the fsync-failure probability (ppm per fsync issued).
    pub fn fsync_fail_ppm(mut self, ppm: u32) -> Self {
        self.fsync_fail_ppm = ppm;
        self
    }

    /// Arm the plan: the returned state carries the live draw stream and
    /// injection counters, and is what a
    /// [`crate::resilience::RunContext::with_chaos`] takes. One armed state
    /// can serve many runs; the stream continues across them.
    pub fn arm(self) -> Arc<ChaosState> {
        Arc::new(ChaosState {
            plan: self,
            rng: AtomicU64::new(self.seed | 1),
            panics: AtomicUsize::new(0),
            alloc_fails: AtomicUsize::new(0),
            stalls: AtomicUsize::new(0),
            worker_panics: AtomicUsize::new(0),
            worker_stalls: AtomicUsize::new(0),
            chunk_panics: AtomicUsize::new(0),
            chunk_stalls: AtomicUsize::new(0),
            shard_panics: AtomicUsize::new(0),
            shard_stalls: AtomicUsize::new(0),
            msg_drops: AtomicUsize::new(0),
            msg_dups: AtomicUsize::new(0),
            net_corrupts: AtomicUsize::new(0),
            net_truncates: AtomicUsize::new(0),
            net_disconnects: AtomicUsize::new(0),
            net_stalls: AtomicUsize::new(0),
            wal_torn_writes: AtomicUsize::new(0),
            wal_bit_flips: AtomicUsize::new(0),
            snapshot_corrupts: AtomicUsize::new(0),
            fsync_fails: AtomicUsize::new(0),
        })
    }
}

/// The fate of one socket-transport data frame, drawn at write time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetFault {
    /// Flip one bit of the encoded frame (after the checksum was
    /// computed).
    Corrupt,
    /// Write only a prefix of the frame.
    Truncate,
    /// Write a partial frame, then shut both stream directions down.
    Disconnect,
    /// Sleep (clamped to the active deadline), then write normally.
    Stall,
}

/// The fate of one durable-session WAL record, drawn at write time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalFault {
    /// Write only a prefix of the record, then report the write failed.
    TornWrite,
    /// Flip one bit (post-checksum), write whole, acknowledge silently.
    BitFlip,
}

/// The fate of one shard-transport data message, drawn at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageFault {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
}

/// An armed [`ChaosPlan`]: the live draw stream plus injection counters.
#[derive(Debug)]
pub struct ChaosState {
    plan: ChaosPlan,
    rng: AtomicU64,
    panics: AtomicUsize,
    alloc_fails: AtomicUsize,
    stalls: AtomicUsize,
    worker_panics: AtomicUsize,
    worker_stalls: AtomicUsize,
    chunk_panics: AtomicUsize,
    chunk_stalls: AtomicUsize,
    shard_panics: AtomicUsize,
    shard_stalls: AtomicUsize,
    msg_drops: AtomicUsize,
    msg_dups: AtomicUsize,
    net_corrupts: AtomicUsize,
    net_truncates: AtomicUsize,
    net_disconnects: AtomicUsize,
    net_stalls: AtomicUsize,
    wal_torn_writes: AtomicUsize,
    wal_bit_flips: AtomicUsize,
    snapshot_corrupts: AtomicUsize,
    fsync_fails: AtomicUsize,
}

impl ChaosState {
    /// The plan this state was armed from.
    pub fn plan(&self) -> ChaosPlan {
        self.plan
    }

    /// Panics injected so far.
    pub fn panics_injected(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// Allocation failures injected so far.
    pub fn alloc_fails_injected(&self) -> usize {
        self.alloc_fails.load(Ordering::Relaxed)
    }

    /// Stalls injected so far.
    pub fn stalls_injected(&self) -> usize {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Worker-thread panics injected so far (service pool supervision).
    pub fn worker_panics_injected(&self) -> usize {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Worker-thread stalls injected so far.
    pub fn worker_stalls_injected(&self) -> usize {
        self.worker_stalls.load(Ordering::Relaxed)
    }

    /// Chunk-worker panics injected so far (chunked engine local phase).
    pub fn chunk_panics_injected(&self) -> usize {
        self.chunk_panics.load(Ordering::Relaxed)
    }

    /// Chunk-worker stalls injected so far.
    pub fn chunk_stalls_injected(&self) -> usize {
        self.chunk_stalls.load(Ordering::Relaxed)
    }

    /// Shard-worker panics injected so far (shard supervisor recovery).
    pub fn shard_panics_injected(&self) -> usize {
        self.shard_panics.load(Ordering::Relaxed)
    }

    /// Shard-worker stalls injected so far.
    pub fn shard_stalls_injected(&self) -> usize {
        self.shard_stalls.load(Ordering::Relaxed)
    }

    /// Shard-transport messages dropped so far.
    pub fn msg_drops_injected(&self) -> usize {
        self.msg_drops.load(Ordering::Relaxed)
    }

    /// Shard-transport messages duplicated so far.
    pub fn msg_dups_injected(&self) -> usize {
        self.msg_dups.load(Ordering::Relaxed)
    }

    /// Socket frames bit-corrupted so far.
    pub fn net_corrupts_injected(&self) -> usize {
        self.net_corrupts.load(Ordering::Relaxed)
    }

    /// Socket frames truncated so far.
    pub fn net_truncates_injected(&self) -> usize {
        self.net_truncates.load(Ordering::Relaxed)
    }

    /// Socket mid-message disconnects injected so far.
    pub fn net_disconnects_injected(&self) -> usize {
        self.net_disconnects.load(Ordering::Relaxed)
    }

    /// Socket slow-writer stalls injected so far.
    pub fn net_stalls_injected(&self) -> usize {
        self.net_stalls.load(Ordering::Relaxed)
    }

    /// WAL torn writes injected so far.
    pub fn wal_torn_writes_injected(&self) -> usize {
        self.wal_torn_writes.load(Ordering::Relaxed)
    }

    /// WAL bit flips injected so far.
    pub fn wal_bit_flips_injected(&self) -> usize {
        self.wal_bit_flips.load(Ordering::Relaxed)
    }

    /// Snapshot corruptions injected so far.
    pub fn snapshot_corrupts_injected(&self) -> usize {
        self.snapshot_corrupts.load(Ordering::Relaxed)
    }

    /// fsync failures injected so far.
    pub fn fsync_fails_injected(&self) -> usize {
        self.fsync_fails.load(Ordering::Relaxed)
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> usize {
        self.panics_injected()
            + self.alloc_fails_injected()
            + self.stalls_injected()
            + self.worker_panics_injected()
            + self.worker_stalls_injected()
            + self.chunk_panics_injected()
            + self.chunk_stalls_injected()
            + self.shard_panics_injected()
            + self.shard_stalls_injected()
            + self.msg_drops_injected()
            + self.msg_dups_injected()
            + self.net_corrupts_injected()
            + self.net_truncates_injected()
            + self.net_disconnects_injected()
            + self.net_stalls_injected()
            + self.wal_torn_writes_injected()
            + self.wal_bit_flips_injected()
            + self.snapshot_corrupts_injected()
            + self.fsync_fails_injected()
    }

    /// Does the plan arm pool-worker faults (`worker_panic_ppm` or
    /// `worker_stall_ppm`)? Such a plan keeps every service request on the
    /// pool: the faults model a worker's death or stall, and a request run
    /// on its submitter's thread has no worker.
    pub(crate) fn arms_worker_faults(&self) -> bool {
        self.plan.worker_panic_ppm != 0 || self.plan.worker_stall_ppm != 0
    }

    /// Sleep for the plan's stall length, clamped to the remaining budget
    /// of the active deadline: an injected stall may push a run *to* its
    /// deadline (the next checkpoint observes the expiry) but never burns
    /// wall-clock past it, so a chaos soak's total runtime stays bounded by
    /// the deadlines it configures.
    pub(crate) fn stall_sleep(&self, deadline: Option<Deadline>) {
        let length = match deadline {
            Some(d) => self.plan.stall.min(d.remaining()),
            None => self.plan.stall,
        };
        if !length.is_zero() {
            std::thread::sleep(length);
        }
    }

    /// One checkpoint draw on behalf of `engine`. May panic, err, stall
    /// (clamped to `deadline`), or (usually) do nothing.
    pub(crate) fn inject(
        &self,
        engine: Option<Engine>,
        deadline: Option<Deadline>,
    ) -> Result<(), MpError> {
        if let Some(only) = self.plan.only {
            if engine != Some(only) {
                return Ok(());
            }
        }
        let draw = self.next_draw() % 1_000_000;
        let panic_edge = self.plan.panic_ppm as u64;
        let alloc_edge = panic_edge + self.plan.alloc_fail_ppm as u64;
        let stall_edge = alloc_edge + self.plan.stall_ppm as u64;
        if draw < panic_edge {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected engine panic");
        } else if draw < alloc_edge {
            self.alloc_fails.fetch_add(1, Ordering::Relaxed);
            // bytes = 0 marks the failure as injected rather than a real
            // allocator refusal.
            Err(MpError::AllocationFailed { bytes: 0 })
        } else if draw < stall_edge {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            self.stall_sleep(deadline);
            Ok(())
        } else {
            Ok(())
        }
    }

    /// One **worker** checkpoint draw on behalf of pool worker `worker`
    /// ([`crate::service::Service`] calls this between dequeuing a batch
    /// and executing it). May panic — killing the worker thread and
    /// exercising the pool's supervision — or stall; never returns an
    /// error (a worker has no per-request error channel of its own; the
    /// in-flight tickets are resolved by the pool's teardown guard).
    ///
    /// A plan with no worker faults burns no draw, so arming worker faults
    /// off leaves the engine-fault sequence of a given seed untouched.
    pub(crate) fn inject_worker(&self, worker: usize, deadline: Option<Deadline>) {
        if !self.arms_worker_faults() {
            return;
        }
        if let Some(only) = self.plan.only_worker {
            if worker != only {
                return;
            }
        }
        let draw = self.next_draw() % 1_000_000;
        let panic_edge = self.plan.worker_panic_ppm as u64;
        let stall_edge = panic_edge + self.plan.worker_stall_ppm as u64;
        if draw < panic_edge {
            self.worker_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected worker panic (worker {worker})");
        } else if draw < stall_edge {
            self.worker_stalls.fetch_add(1, Ordering::Relaxed);
            self.stall_sleep(deadline);
        }
    }

    /// One **chunk-worker** draw on behalf of the chunked engine's local
    /// worker `worker`. Fires only for a plan explicitly scoped to the
    /// chunked engine (`only(Engine::Chunked)`); every other plan burns
    /// **no draw**, keeping the engine-checkpoint sequence and the service
    /// pool's worker-panic accounting (which equates its own panics with
    /// `worker_panics_injected()`) untouched. A fired panic unwinds through
    /// the scope join into the engine's `catch_unwind` and surfaces as
    /// [`MpError::EnginePanicked`] — the dispatcher's fallback path.
    pub(crate) fn inject_chunk_worker(&self, worker: usize, deadline: Option<Deadline>) {
        if self.plan.only != Some(Engine::Chunked) || !self.arms_worker_faults() {
            return;
        }
        if let Some(only) = self.plan.only_worker {
            if worker != only {
                return;
            }
        }
        let draw = self.next_draw() % 1_000_000;
        let panic_edge = self.plan.worker_panic_ppm as u64;
        let stall_edge = panic_edge + self.plan.worker_stall_ppm as u64;
        if draw < panic_edge {
            self.chunk_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected chunk-worker panic (chunk {worker})");
        } else if draw < stall_edge {
            self.chunk_stalls.fetch_add(1, Ordering::Relaxed);
            self.stall_sleep(deadline);
        }
    }

    /// One **shard-worker** draw on behalf of shard `shard`, fired by a
    /// [`crate::shard::ShardSupervisor`] worker at task entry. A panic
    /// kills the shard (its worker loop catches the unwind, reports
    /// `Crashed`, and exits — the supervisor requeues the task); a stall
    /// (clamped to `deadline`) overruns the task's attempt deadline and
    /// exercises the timeout-requeue path.
    ///
    /// A plan with no shard faults burns **no draw**, keeping the engine-
    /// and worker-fault sequences of a given seed untouched.
    pub(crate) fn inject_shard_worker(&self, shard: usize, deadline: Option<Deadline>) {
        if self.plan.shard_panic_ppm == 0 && self.plan.shard_stall_ppm == 0 {
            return;
        }
        if let Some(only) = self.plan.only_shard {
            if shard != only {
                return;
            }
        }
        let draw = self.next_draw() % 1_000_000;
        let panic_edge = self.plan.shard_panic_ppm as u64;
        let stall_edge = panic_edge + self.plan.shard_stall_ppm as u64;
        if draw < panic_edge {
            self.shard_panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected shard-worker panic (shard {shard})");
        } else if draw < stall_edge {
            self.shard_stalls.fetch_add(1, Ordering::Relaxed);
            self.stall_sleep(deadline);
        }
    }

    /// One **shard-transport** draw for a data message about to be sent.
    /// A plan with neither drop nor duplication armed burns **no draw**.
    pub(crate) fn transport_fault(&self) -> MessageFault {
        if self.plan.shard_drop_ppm == 0 && self.plan.shard_dup_ppm == 0 {
            return MessageFault::Deliver;
        }
        let draw = self.next_draw() % 1_000_000;
        let drop_edge = self.plan.shard_drop_ppm as u64;
        let dup_edge = drop_edge + self.plan.shard_dup_ppm as u64;
        if draw < drop_edge {
            self.msg_drops.fetch_add(1, Ordering::Relaxed);
            MessageFault::Drop
        } else if draw < dup_edge {
            self.msg_dups.fetch_add(1, Ordering::Relaxed);
            MessageFault::Duplicate
        } else {
            MessageFault::Deliver
        }
    }

    /// One **socket-frame** draw for a data frame about to be written.
    /// `None` means write normally. A plan with no net faults armed burns
    /// **no draw**, keeping the engine-, worker- and shard-fault sequences
    /// of a given seed untouched. Counters are bumped here, at the draw,
    /// so an injected `Disconnect` is counted even if the stream was
    /// already gone.
    pub(crate) fn net_fault(&self) -> Option<NetFault> {
        let p = &self.plan;
        if p.net_corrupt_ppm == 0
            && p.net_truncate_ppm == 0
            && p.net_disconnect_ppm == 0
            && p.net_stall_ppm == 0
        {
            return None;
        }
        let draw = self.next_draw() % 1_000_000;
        let corrupt_edge = p.net_corrupt_ppm as u64;
        let truncate_edge = corrupt_edge + p.net_truncate_ppm as u64;
        let disconnect_edge = truncate_edge + p.net_disconnect_ppm as u64;
        let stall_edge = disconnect_edge + p.net_stall_ppm as u64;
        if draw < corrupt_edge {
            self.net_corrupts.fetch_add(1, Ordering::Relaxed);
            Some(NetFault::Corrupt)
        } else if draw < truncate_edge {
            self.net_truncates.fetch_add(1, Ordering::Relaxed);
            Some(NetFault::Truncate)
        } else if draw < disconnect_edge {
            self.net_disconnects.fetch_add(1, Ordering::Relaxed);
            Some(NetFault::Disconnect)
        } else if draw < stall_edge {
            self.net_stalls.fetch_add(1, Ordering::Relaxed);
            Some(NetFault::Stall)
        } else {
            None
        }
    }

    /// One **WAL-record** draw for a record about to be appended. `None`
    /// means write normally. A plan with no WAL faults armed burns **no
    /// draw**, keeping every other fault sequence of a seed untouched.
    pub(crate) fn wal_fault(&self) -> Option<WalFault> {
        let p = &self.plan;
        if p.wal_torn_write_ppm == 0 && p.wal_bit_flip_ppm == 0 {
            return None;
        }
        let draw = self.next_draw() % 1_000_000;
        let torn_edge = p.wal_torn_write_ppm as u64;
        let flip_edge = torn_edge + p.wal_bit_flip_ppm as u64;
        if draw < torn_edge {
            self.wal_torn_writes.fetch_add(1, Ordering::Relaxed);
            Some(WalFault::TornWrite)
        } else if draw < flip_edge {
            self.wal_bit_flips.fetch_add(1, Ordering::Relaxed);
            Some(WalFault::BitFlip)
        } else {
            None
        }
    }

    /// One **snapshot** draw for a snapshot image about to be written.
    /// `true` means corrupt one bit of the image (post-checksum). Burns no
    /// draw when unarmed.
    pub(crate) fn snapshot_fault(&self) -> bool {
        if self.plan.snapshot_corrupt_ppm == 0 {
            return false;
        }
        let fired = self.next_draw() % 1_000_000 < self.plan.snapshot_corrupt_ppm as u64;
        if fired {
            self.snapshot_corrupts.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// One **fsync** draw. `true` means report the fsync failed (the
    /// session surfaces [`MpError::Storage`] without acknowledging the
    /// op). Burns no draw when unarmed.
    pub(crate) fn fsync_fault(&self) -> bool {
        if self.plan.fsync_fail_ppm == 0 {
            return false;
        }
        let fired = self.next_draw() % 1_000_000 < self.plan.fsync_fail_ppm as u64;
        if fired {
            self.fsync_fails.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// A uniform index in `[0, bound)` from the fault stream — used to
    /// pick the corrupted bit / truncation point of a faulted frame. Only
    /// called after a fault already fired, so it never perturbs the clean
    /// sequence.
    pub(crate) fn net_index(&self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.next_draw() % bound as u64) as usize
    }

    /// Advance the shared xorshift64* stream by one draw.
    fn next_draw(&self) -> u64 {
        let mut prev = self.rng.load(Ordering::Relaxed);
        loop {
            let mut x = prev;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match self
                .rng
                .compare_exchange_weak(prev, x, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return x.wrapping_mul(0x2545_F491_4F6C_DD1D),
                Err(seen) => prev = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let state = ChaosPlan::seeded(42).arm();
        for _ in 0..10_000 {
            assert!(state.inject(None, None).is_ok());
        }
        assert_eq!(state.faults_injected(), 0);
    }

    #[test]
    fn certain_alloc_failure_fires_every_draw() {
        let state = ChaosPlan::seeded(7).alloc_fail_ppm(1_000_000).arm();
        for _ in 0..100 {
            assert_eq!(
                state.inject(None, None),
                Err(MpError::AllocationFailed { bytes: 0 })
            );
        }
        assert_eq!(state.alloc_fails_injected(), 100);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let state = ChaosPlan::seeded(3).alloc_fail_ppm(250_000).arm();
        let mut fails = 0;
        for _ in 0..10_000 {
            if state.inject(None, None).is_err() {
                fails += 1;
            }
        }
        // 25% ± a generous band.
        assert!((1_500..3_500).contains(&fails), "got {fails}");
    }

    #[test]
    fn same_seed_same_sequence() {
        let a = ChaosPlan::seeded(99).alloc_fail_ppm(500_000).arm();
        let b = ChaosPlan::seeded(99).alloc_fail_ppm(500_000).arm();
        for i in 0..1000 {
            assert_eq!(a.inject(None, None), b.inject(None, None), "draw {i}");
        }
    }

    #[test]
    fn targeted_plan_spares_other_engines() {
        let state = ChaosPlan::seeded(5)
            .alloc_fail_ppm(1_000_000)
            .only(Engine::Chunked)
            .arm();
        assert!(state.inject(Some(Engine::Serial), None).is_ok());
        assert!(state.inject(None, None).is_ok());
        assert!(state.inject(Some(Engine::Chunked), None).is_err());
        assert_eq!(state.faults_injected(), 1);
    }

    #[test]
    fn injected_panic_is_a_real_panic() {
        let state = ChaosPlan::seeded(1).panic_ppm(1_000_000).arm();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = state.inject(None, None);
        }));
        assert!(caught.is_err());
        assert_eq!(state.panics_injected(), 1);
    }

    #[test]
    fn worker_scoped_plan_spares_other_workers() {
        let state = ChaosPlan::seeded(9)
            .worker_panic_ppm(1_000_000)
            .only_worker(2)
            .arm();
        // Untargeted workers never draw, let alone panic.
        state.inject_worker(0, None);
        state.inject_worker(1, None);
        assert_eq!(state.worker_panics_injected(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.inject_worker(2, None);
        }));
        assert!(caught.is_err());
        assert_eq!(state.worker_panics_injected(), 1);
    }

    #[test]
    fn worker_faults_do_not_perturb_engine_stream() {
        // Same seed, one plan with worker faults armed (but only polled by
        // untargeted workers): the engine-fault sequences must match.
        let plain = ChaosPlan::seeded(77).alloc_fail_ppm(400_000).arm();
        let with_worker = ChaosPlan::seeded(77)
            .alloc_fail_ppm(400_000)
            .worker_panic_ppm(1_000_000)
            .only_worker(5)
            .arm();
        for i in 0..500 {
            with_worker.inject_worker(0, None); // scoped away: burns no draw
            assert_eq!(
                plain.inject(None, None),
                with_worker.inject(None, None),
                "draw {i}"
            );
        }
    }

    #[test]
    fn worker_stall_sleeps_and_counts() {
        let state = ChaosPlan::seeded(4)
            .worker_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(5))
            .arm();
        let start = std::time::Instant::now();
        state.inject_worker(7, None);
        assert!(start.elapsed() >= Duration::from_millis(4));
        assert_eq!(state.worker_stalls_injected(), 1);
        assert_eq!(state.faults_injected(), 1);
    }

    #[test]
    fn stall_actually_sleeps() {
        let state = ChaosPlan::seeded(2)
            .stall(1_000_000, Duration::from_millis(5))
            .arm();
        let start = std::time::Instant::now();
        assert!(state.inject(None, None).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(4));
        assert_eq!(state.stalls_injected(), 1);
    }

    #[test]
    fn stall_is_clamped_to_the_active_deadline() {
        // Regression: a stall far longer than the attempt deadline must
        // sleep only the deadline's remaining budget, not the full stall —
        // otherwise a chaos soak's wall-clock is unbounded by its deadlines.
        let state = ChaosPlan::seeded(2)
            .stall(1_000_000, Duration::from_secs(3600))
            .arm();
        let deadline = Deadline::after(Duration::from_millis(20));
        let start = std::time::Instant::now();
        assert!(state.inject(None, Some(deadline)).is_ok());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stall overshot the deadline budget"
        );
        assert_eq!(state.stalls_injected(), 1);
        // An already-expired deadline skips the sleep entirely.
        let start = std::time::Instant::now();
        state.inject_worker(0, Some(Deadline::at(std::time::Instant::now())));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn shard_faults_do_not_perturb_engine_stream() {
        // Arming shard faults that never fire (no shard draws happen) must
        // leave the engine-fault sequence of a seed untouched, and
        // transport draws burn nothing when drop/dup are unarmed.
        let plain = ChaosPlan::seeded(31).alloc_fail_ppm(400_000).arm();
        let with_shard = ChaosPlan::seeded(31)
            .alloc_fail_ppm(400_000)
            .shard_panic_ppm(1_000_000)
            .only_shard(9)
            .arm();
        for i in 0..500 {
            with_shard.inject_shard_worker(0, None); // scoped away: no draw
            assert_eq!(with_shard.transport_fault(), MessageFault::Deliver);
            assert_eq!(
                plain.inject(None, None),
                with_shard.inject(None, None),
                "draw {i}"
            );
        }
    }

    #[test]
    fn shard_panic_and_stall_fire_and_count() {
        let state = ChaosPlan::seeded(8).shard_panic_ppm(1_000_000).arm();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.inject_shard_worker(3, None);
        }));
        assert!(caught.is_err());
        assert_eq!(state.shard_panics_injected(), 1);

        let state = ChaosPlan::seeded(8)
            .shard_stall_ppm(1_000_000)
            .stall(0, Duration::from_millis(5))
            .arm();
        let start = std::time::Instant::now();
        state.inject_shard_worker(3, None);
        assert!(start.elapsed() >= Duration::from_millis(4));
        assert_eq!(state.shard_stalls_injected(), 1);
        assert_eq!(state.faults_injected(), 1);
    }

    #[test]
    fn net_faults_split_and_burn_no_draw_when_unarmed() {
        // Unarmed: no draw, so the engine stream of a seed is untouched.
        let plain = ChaosPlan::seeded(21).alloc_fail_ppm(400_000).arm();
        let with_net = ChaosPlan::seeded(21).alloc_fail_ppm(400_000).arm();
        for i in 0..200 {
            assert_eq!(with_net.net_fault(), None);
            assert_eq!(
                plain.inject(None, None),
                with_net.inject(None, None),
                "draw {i}"
            );
        }
        // Armed at full rate, the four classes split the draw space.
        let state = ChaosPlan::seeded(22)
            .net_corrupt_ppm(250_000)
            .net_truncate_ppm(250_000)
            .net_disconnect_ppm(250_000)
            .net_stall_ppm(250_000)
            .arm();
        for _ in 0..400 {
            assert!(state.net_fault().is_some());
        }
        assert!(state.net_corrupts_injected() > 0);
        assert!(state.net_truncates_injected() > 0);
        assert!(state.net_disconnects_injected() > 0);
        assert!(state.net_stalls_injected() > 0);
        assert_eq!(state.faults_injected(), 400);
    }

    #[test]
    fn storage_faults_split_and_burn_no_draw_when_unarmed() {
        // Unarmed storage faults burn no draw: the engine-fault sequence
        // of a seed is untouched.
        let plain = ChaosPlan::seeded(51).alloc_fail_ppm(400_000).arm();
        let with_storage = ChaosPlan::seeded(51).alloc_fail_ppm(400_000).arm();
        for i in 0..200 {
            assert_eq!(with_storage.wal_fault(), None);
            assert!(!with_storage.snapshot_fault());
            assert!(!with_storage.fsync_fault());
            assert_eq!(
                plain.inject(None, None),
                with_storage.inject(None, None),
                "draw {i}"
            );
        }
        // Armed at full rate, torn/flip split the WAL draw space and the
        // snapshot/fsync draws fire every time.
        let state = ChaosPlan::seeded(52)
            .wal_torn_write_ppm(500_000)
            .wal_bit_flip_ppm(500_000)
            .snapshot_corrupt_ppm(1_000_000)
            .fsync_fail_ppm(1_000_000)
            .arm();
        for _ in 0..200 {
            assert!(state.wal_fault().is_some());
            assert!(state.snapshot_fault());
            assert!(state.fsync_fault());
        }
        assert!(state.wal_torn_writes_injected() > 0);
        assert!(state.wal_bit_flips_injected() > 0);
        assert_eq!(
            state.wal_torn_writes_injected() + state.wal_bit_flips_injected(),
            200
        );
        assert_eq!(state.snapshot_corrupts_injected(), 200);
        assert_eq!(state.fsync_fails_injected(), 200);
        assert_eq!(state.faults_injected(), 600);
    }

    #[test]
    fn transport_faults_split_between_drop_and_dup() {
        let state = ChaosPlan::seeded(6)
            .shard_drop_ppm(500_000)
            .shard_dup_ppm(500_000)
            .arm();
        for _ in 0..200 {
            assert_ne!(state.transport_fault(), MessageFault::Deliver);
        }
        assert_eq!(state.msg_drops_injected() + state.msg_dups_injected(), 200);
        assert!(state.msg_drops_injected() > 0);
        assert!(state.msg_dups_injected() > 0);
    }
}
