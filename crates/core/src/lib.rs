#![warn(missing_docs)]

//! # multiprefix
//!
//! A reproduction of the multiprefix operation of
//! *Implementing the Multiprefix Operation on Parallel and Vector Computers*
//! (Thomas J. Sheffler, CMU-CS-92-173, SPAA 1993).
//!
//! For an ordered set of `n` values `A = (a_0, .., a_{n-1})`, each with an
//! integer label `l_i ∈ [0, m)`, the **multiprefix** operation computes
//!
//! * a partial sum `s_i = ⊕ { a_j | l_j = l_i and j < i }` for every element
//!   (the ⊕-sum of all *preceding* values with the *same* label — an
//!   exclusive scan-by-key over **unsorted** labels, in vector-index order),
//! * a reduction `r_k = ⊕ { a_j | l_j = k }` for every label.
//!
//! `⊕` is any binary associative operator (see [`op`]); labels that never
//! appear get the operator identity in the reduction vector, and the
//! first element of every label class receives the identity as its sum.
//!
//! ## Engines
//!
//! | Engine | Module | What it is |
//! |---|---|---|
//! | [`Engine::Serial`] | [`serial`] | the paper's Figure 2 bucket loop — the reference semantics |
//! | [`Engine::Spinetree`] | [`spinetree`] | the paper's `O(√n)`-step CRCW-ARB algorithm, executed as the paper did on the CRAY Y-MP: one vector loop per parallel step |
//! | [`Engine::Chunked`] | [`chunked`] | the two-level local/combine/apply engine: label-indexed chunk tables that each run owns (probed maps when `m ≫ n`), scoped worker threads — what [`Engine::Auto`] runs, on one chunk |
//! | [`Engine::Atomic`] | [`atomic`] | a genuinely concurrent spinetree build for `i64`/`Plus`: the overwrite-and-test races are resolved by relaxed atomic stores, a faithful CRCW-ARB realization |
//! | [`Engine::Sharded`] | [`shard`] | the chunked phases distributed across supervised shard workers, with shard-loss recovery |
//!
//! The atomic and sharded engines run through a [`Dispatcher`]: they need
//! an `i64` entry and a shard supervisor.
//!
//! On integer operators (and any other exactly associative one, such as
//! [`op::FirstLast`] over integers) every engine returns the bits of
//! [`serial::multiprefix_serial`]. On floats only [`Engine::Serial`] and
//! the chunked engine on one chunk — every [`ExecConfig`] entry,
//! [`Engine::Auto`] among them, unless [`ExecConfig::threads`] is set or
//! the opt-in [`ExecConfig::simd_f32`] kernel runs — combine in serial
//! order and return serial's bits; a split chunked run, the spinetree and
//! the sharded engine group the combines their own way, so a float sum
//! that rounds can come out different (see [`try_multiprefix`]). Under
//! the engines sits [`simd`]: runtime-dispatched AVX2
//! scan/broadcast/reduce kernels (portable fallback elsewhere) that the
//! chunked engine's single-label fast paths, the [`scan`] partition
//! sweeps, and the session store's bulk Fenwick rebuild call through —
//! engaged by default only for operators with an exact machine
//! counterpart, so those results stay bit-identical.
//!
//! ## Quick start
//!
//! ```
//! use multiprefix::{multiprefix, op::Plus, Engine};
//!
//! // The paper's Figure 1 example style: values with unsorted labels.
//! let values = [1i64, 3, 2, 1, 1, 2, 3, 1];
//! let labels = [1usize, 2, 1, 1, 2, 2, 1, 1];
//! let out = multiprefix(&values, &labels, 4, Plus, Engine::Auto).unwrap();
//! assert_eq!(out.sums, vec![0, 0, 1, 3, 3, 4, 4, 7]);
//! assert_eq!(out.reductions, vec![0, 8, 6, 0]);
//! ```
//!
//! ## Hardened execution
//!
//! [`try_multiprefix`] / [`try_multireduce`] run the same engines under an
//! [`exec::ExecConfig`]: overflow policies (wrap / checked / saturating,
//! with serial-order semantics shared by every engine), bucket and memory
//! budgets enforced before allocation, fallible allocation for the large
//! engine blocks, and panic containment in the chunked engine.
//! [`multiprefix_verified`] cross-validates any engine's output against an
//! independent serial evaluation. See [`exec`] for the contract.
//!
//! ## Resilient dispatch
//!
//! [`resilience`] turns the engine ladder into a runtime: a [`Dispatcher`]
//! runs requests through a fallback chain (by default chunked → serial:
//! the engine [`Engine::Auto`] runs, then the Figure 2 loop) with
//! deadlines and cooperative cancellation ([`CancelToken`],
//! polled at engine phase boundaries and every few thousand loop
//! iterations). Each entry runs at most once per request: a failed
//! allocation, a panic or a blown attempt deadline moves on to the next
//! entry, and nothing carries over to the next request, so a request whose
//! own operator panics gets [`MpError::EnginePanicked`] and harms no other
//! request. A seeded chaos harness
//! ([`resilience::ChaosPlan`]) injects panics, allocation failures and
//! stalls to prove the guarantee: every request returns the serial-oracle
//! answer or a typed error — never a hang, wrong answer, or abort.
//!
//! ## Service layer
//!
//! [`service`] lifts the dispatcher into a concurrent, overload-safe
//! [`service::Service`]: a supervised worker pool behind a bounded
//! two-priority submission queue. Submissions return a [`service::Ticket`];
//! overload is met with backpressure ([`service::Service::submit`]),
//! fail-fast refusal ([`service::Service::try_submit`] →
//! [`MpError::Overloaded`]), or load shedding of lower-priority work.
//! Workers that panic resolve their in-flight tickets
//! ([`MpError::WorkerLost`]) and are respawned; small requests can be
//! coalesced into one fused multiprefix call (the paper's §4.4 fixed-cost
//! amortization) with exact, bit-for-bit splitting. The accounting
//! invariant — every admitted request resolves to a reply or a typed
//! error — is tracked by [`service::ServiceMetrics`].
//!
//! ## Observability
//!
//! [`obs`] is a zero-dependency metrics layer: a [`obs::Recorder`] trait
//! (counters, gauges, lock-free latency histograms with p50/p95/p99
//! snapshots, discrete events) threaded through the engines (per-phase
//! timings matching the paper's SPINETREE/ROWSUMS/SPINESUMS/MULTISUMS
//! breakdown), the [`Dispatcher`] (attempt latency, attempts and
//! fallbacks) and the [`service::Service`] (queue depth, queue-wait vs.
//! execution split). Install a [`obs::MemoryRecorder`] and export the
//! snapshot as JSON or text; with no recorder installed, instrumentation
//! reduces to one branch per site and reads no clocks.
//!
//! ## Durable sessions
//!
//! [`session`] makes the multiprefix *stateful and crash-durable*: a
//! [`session::DurableSession`] maintains per-label Fenwick trees for
//! O(log n) `append` / `update` / `prefix_query` / `label_total` over a
//! growing element log, with every mutation acknowledged by a
//! checksummed write-ahead log (the same MPXF frame discipline as the
//! socket transport) before it applies. Periodic snapshots (atomic
//! tmp+rename, independent header/payload CRCs, generation-numbered)
//! bound replay length; recovery loads the newest valid snapshot,
//! replays the WAL tail — detecting torn, truncated and bit-flipped
//! records and truncating the log at the first invalid one — and
//! cross-checks the rebuilt state with the Träff exclusive-scan
//! structure before serving. A store damaged beyond recovery fails
//! closed with [`MpError::CorruptStore`]. The
//! [`service::Service`] session API (`open_session` / `session_append` /
//! `session_query` / …) routes these stores through the dispatcher's
//! request deadline and a per-session storage breaker.
//!
//! ## Derived primitives
//!
//! The paper argues multiprefix subsumes many parallel primitives; the
//! corresponding modules are [`segmented`] (segmented scans), [`fetch_op`]
//! (deterministic fetch-and-op), [`histogram`] (multireduce / "vector update
//! loop"), and [`scan`] (plain prefix sums, including the partition method
//! the paper uses for the bucket-cumulation step of its sorting benchmark).

pub mod api;
pub mod atomic;
pub mod chunked;
pub mod error;
pub mod exec;
pub mod fetch_op;
pub mod histogram;
pub mod keyed;
pub mod obs;
pub mod op;
pub mod oracle;
pub mod problem;
pub mod resilience;
pub mod scan;
pub mod segmented;
pub mod serial;
pub mod service;
pub mod session;
pub mod shard;
pub mod simd;
pub mod spinetree;
pub mod split;
pub mod stream;

/// The former blocked engine's entry point, folded into [`chunked`]. Kept
/// only because the end-to-end benchmark still times it under this path.
pub mod blocked {
    pub use crate::chunked::multiprefix_chunked as multiprefix_blocked;
}

pub use api::{
    multiprefix, multiprefix_inclusive, multiprefix_verified, multireduce, try_multiprefix,
    try_multiprefix_ctx, try_multireduce, try_multireduce_ctx, Engine,
};
pub use error::MpError;
pub use exec::{ExecConfig, OverflowPolicy};
pub use obs::{MemoryRecorder, ObsSnapshot, Recorder};
pub use op::{InvertibleOp, TryCombineOp};
pub use problem::{validate, Element, MultiprefixOutput};
pub use resilience::{
    CancelToken, Deadline, DispatchOpts, DispatchOutcome, Dispatcher, DispatcherConfig, EngineKind,
    RunContext,
};
pub use session::{DurableSession, RecoveryReport, SessionCore, SessionOptions};
pub use shard::net::{
    maybe_run_worker_from_env, multiprefix_socket, try_multiprefix_socket_ctx, NetConfig, NetError,
    SocketKind, WireOp, WireValue,
};
pub use shard::{
    exscan_over_summaries, multiprefix_sharded, ShardConfig, ShardSummary, ShardSupervisor,
};
