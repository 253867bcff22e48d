//! The resilient dispatch runtime: keep answering when an engine is slow,
//! wedged, or failing.
//!
//! PR 1's hardened layer ([`crate::exec`]) makes a *single* engine call
//! fail cleanly; this module makes a *service* built on those calls degrade
//! gracefully. The pieces:
//!
//! * [`RunContext`] / [`Deadline`] / [`CancelToken`] ([`ctx`]) — cooperative
//!   stopping: every hardened engine polls the context at phase boundaries
//!   and every [`CHECK_STRIDE`] inner iterations, so deadlines and
//!   cancellation are honored promptly and an interrupted run returns a
//!   typed error with **no partial output** (the output buffers are owned
//!   by the run and dropped on the early exit);
//! * [`Dispatcher`] ([`dispatcher`]) — a fallback chain of [`crate::Engine`]s
//!   with a per-request deadline, running each entry at most once per
//!   request: a failed allocation or a panic moves on to the next entry,
//!   and nothing carries over to the next request;
//! * a crate-private circuit breaker (`health`) for a fault from outside
//!   the request: a service session keeps one over its storage (a
//!   failing disk); its threshold and cooldown are fixed. The
//!   [`crate::shard::ShardSupervisor`] keeps none: every run launches a
//!   fresh worker fleet, so a lost worker does not outlive its run;
//! * [`ChaosPlan`] ([`chaos`]) — seeded fault injection (panics, allocation
//!   failures, stalls) at those same checkpoints, extending the `pram`
//!   crate's arbitration-fault harness to the production engines; the soak
//!   tests drive the dispatcher through it and assert every request ends in
//!   the serial-oracle answer or a typed error.
//!
//! The semantic guarantee throughout: *which* engine serves a request never
//! changes *what* it answers. Fallback is invisible in the output — only in
//! [`DispatchOutcome`]'s bookkeeping.
//!
//! [`crate::service`] builds the concurrent front door on top of this
//! module: a supervised worker pool feeds submissions through a
//! [`Dispatcher`], with a bounded two-priority queue, load shedding, and
//! worker respawn driven by the same chaos checkpoints
//! ([`ChaosPlan::worker_panic_ppm`]).

pub mod chaos;
pub mod ctx;
pub mod dispatcher;
pub(crate) mod health;

pub use chaos::{ChaosPlan, ChaosState};
pub use ctx::{CancelToken, Deadline, RunContext, CHECK_STRIDE};
pub use dispatcher::{DispatchOpts, DispatchOutcome, Dispatcher, DispatcherConfig, EngineKind};
