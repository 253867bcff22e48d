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
//!   with per-attempt deadlines, retry with jittered exponential backoff
//!   for transient failures, and per-engine circuit breakers
//!   ([`EngineHealth`], [`health`]);
//! * [`ChaosPlan`] ([`chaos`]) — seeded fault injection (panics, allocation
//!   failures, stalls) at those same checkpoints, extending the `pram`
//!   crate's arbitration-fault harness to the production engines; the soak
//!   tests drive the dispatcher through it and assert every request ends in
//!   the serial-oracle answer or a typed error.
//!
//! The semantic guarantee throughout: *which* engine serves a request never
//! changes *what* it answers. Fallback and retry are invisible in the
//! output — only in [`DispatchOutcome`]'s bookkeeping.
//!
//! [`crate::service`] builds the concurrent front door on top of this
//! module: a supervised worker pool feeds submissions through a
//! [`Dispatcher`], with a bounded two-priority queue, load shedding, and
//! worker respawn driven by the same chaos checkpoints
//! ([`ChaosPlan::worker_panic_ppm`]).

pub mod chaos;
pub mod ctx;
pub mod dispatcher;
pub mod health;

pub use chaos::{ChaosPlan, ChaosState};
pub use ctx::{CancelToken, Deadline, RunContext, CHECK_STRIDE};
pub use dispatcher::{
    DispatchOpts, DispatchOutcome, Dispatcher, DispatcherConfig, EngineKind, RetryPolicy,
};
pub use health::{BreakerConfig, CircuitState, EngineHealth};
