//! Error types for multiprefix problem validation.

use std::fmt;

/// Errors reported when the inputs to a multiprefix operation are malformed
/// or when a hardened ([`crate::try_multiprefix`]) execution fails.
///
/// The paper assumes labels lie in `[1, m]` and that `values` and `labels`
/// have the same length; this crate checks both (with 0-based labels in
/// `[0, m)`) and reports precise diagnostics instead of panicking deep
/// inside an engine. The hardened execution layer adds overflow, resource
/// and panic-containment failures.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so future hardening work can add variants without a breaking
/// release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpError {
    /// `values` and `labels` differ in length.
    LengthMismatch {
        /// Length of the value vector.
        values: usize,
        /// Length of the label vector.
        labels: usize,
    },
    /// Some label is `>= m`.
    LabelOutOfRange {
        /// Index of the offending element.
        index: usize,
        /// The offending label.
        label: usize,
        /// The declared number of buckets.
        m: usize,
    },
    /// A combine overflowed the element type under
    /// [`crate::exec::OverflowPolicy::Checked`]. `index` is the position of
    /// the element whose combination first overflows **in serial (Figure 2)
    /// order** — every engine reports the same index for the same input.
    ArithmeticOverflow {
        /// Vector index of the element whose serial-order combine overflows.
        index: usize,
    },
    /// A requested size exceeds a configured resource budget
    /// ([`crate::exec::ExecConfig::max_buckets`] /
    /// [`crate::exec::ExecConfig::max_mem_bytes`]). Returned *before* any
    /// allocation is attempted.
    CapacityOverflow {
        /// What was being sized (e.g. `"buckets"`, `"engine memory"`).
        what: &'static str,
        /// The size the input demanded.
        requested: usize,
        /// The configured limit it exceeded.
        limit: usize,
    },
    /// The allocator refused a fallible (`try_reserve`) allocation.
    AllocationFailed {
        /// Bytes requested from the allocator.
        bytes: usize,
    },
    /// A user-supplied [`crate::op::CombineOp`] panicked inside a parallel
    /// engine; the panic was contained instead of aborting the host.
    EnginePanicked,
    /// Self-checking mode ([`crate::multiprefix_verified`]) found an output
    /// cell that disagrees with the serial oracle.
    VerificationFailed {
        /// Which vector disagreed: `"sum"` or `"reduction"`.
        what: &'static str,
        /// Index of the first disagreeing cell.
        index: usize,
    },
    /// The run outlived its [`crate::resilience::Deadline`]. The engine
    /// stopped at the next checkpoint (a phase boundary or an in-loop
    /// stride check) and no partial output was returned.
    DeadlineExceeded,
    /// The run's [`crate::resilience::CancelToken`] was cancelled. As with
    /// [`MpError::DeadlineExceeded`], the engine unwound cleanly at the
    /// next checkpoint and no partial output escaped.
    Cancelled,
    /// An [`crate::exec::ExecConfig`] is self-contradictory — it could
    /// never admit any non-trivial request (e.g. `max_buckets == 0`, or
    /// `max_mem_bytes` smaller than a single element). Reported at use
    /// instead of letting the request "succeed" vacuously.
    InvalidConfig {
        /// What is wrong with the configuration.
        what: &'static str,
    },
    /// Nothing could take the request: every engine in a
    /// [`crate::resilience::Dispatcher`] fallback chain was skipped for it
    /// (an atomic entry, an unconfigured sharded entry, a sharded entry of
    /// a reduce), a session's storage breaker was open, or the service was
    /// stopped. (A [`crate::shard::ShardSupervisor`] with no live shard
    /// left degrades to the single-node run instead.) The API calls also return it for
    /// [`crate::Engine::Atomic`], which only [`crate::atomic`]'s own
    /// entries run, and [`crate::Engine::Sharded`], which only a dispatcher
    /// runs.
    Unavailable,
    /// A [`crate::service::Service`] refused or shed a request because its
    /// bounded submission queue was full. Reported both to a submitter that
    /// could not be admitted ([`crate::service::Service::try_submit`]) and
    /// to an already-admitted request that was evicted by the load shedder
    /// to make room for higher-priority work — in the latter case the
    /// request's ticket resolves with this error (no silent drops).
    Overloaded {
        /// Queue depth observed when the request was refused or shed.
        queue_depth: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The [`crate::service::Service`] worker executing the request died
    /// (panicked) mid-flight. The supervisor respawns the worker and no
    /// queued request is lost, but the in-flight request cannot be
    /// transparently replayed — its ticket resolves with this error and the
    /// caller decides whether to resubmit.
    WorkerLost {
        /// Index of the worker that died; `usize::MAX` when the request
        /// ran on the caller's thread (a small request at an idle service,
        /// or the shutdown drain) and a panic outside the dispatcher ended
        /// that run.
        worker: usize,
    },
    /// A session op named an element index that was never appended
    /// ([`crate::session`] `update`/`prefix_query`).
    IndexOutOfRange {
        /// The requested element index.
        index: u64,
        /// Elements in the session log.
        len: u64,
    },
    /// A durable-session storage operation ([`crate::session`]) failed at
    /// the I/O layer — a write, fsync, rename or open refused by the OS
    /// (or injected by [`crate::resilience::ChaosPlan::fsync_fail_ppm`] and
    /// friends). The operation was **not** acknowledged: the in-memory
    /// session state excludes it and a recovery will not replay it.
    Storage {
        /// Which storage step failed (e.g. `"wal.append"`,
        /// `"snapshot.rename"`).
        op: &'static str,
        /// The OS error class.
        kind: std::io::ErrorKind,
    },
    /// A [`crate::service::Service`] session call named a
    /// [`SessionId`](crate::service::SessionId) that is not open — never
    /// opened, already closed, or force-closed after its storage breaker
    /// tripped.
    UnknownSession {
        /// The id the caller presented.
        id: u64,
    },
    /// A durable-session store is damaged beyond what the recovery state
    /// machine can repair: every snapshot generation failed validation, a
    /// non-final WAL segment is torn, or the replay chain has a gap. The
    /// store **fails closed** — no partial or guessed state is ever
    /// surfaced.
    CorruptStore {
        /// What the recovery pass found (e.g. `"no valid snapshot
        /// generation"`).
        what: &'static str,
    },
}

impl MpError {
    /// Is this failure **transient** — a property of the moment (resource
    /// pressure, a wedged engine, a dead worker) that another engine, or
    /// the caller at a later time, could plausibly clear?
    ///
    /// The [`crate::resilience::Dispatcher`] moves a transient failure on
    /// to the next engine in its chain, running each entry once; permanent
    /// failures — properties of the *request* (validation, overflow,
    /// budgets, configuration) — are returned immediately. A panic in the
    /// request's own operator is transient here too (the dispatcher cannot
    /// tell it from an engine fault), so it costs one run per chain entry.
    /// [`MpError::Cancelled`] is classified permanent: it is explicit
    /// caller intent, not a fault.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MpError::AllocationFailed { .. }
                | MpError::EnginePanicked
                | MpError::DeadlineExceeded
                | MpError::Unavailable
                | MpError::Overloaded { .. }
                | MpError::WorkerLost { .. }
                | MpError::Storage { .. }
        )
    }

    /// The complement of [`MpError::is_transient`]: the request itself can
    /// never succeed as posed, so retrying is futile.
    pub fn is_permanent(&self) -> bool {
        !self.is_transient()
    }
}

impl fmt::Display for MpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MpError::LengthMismatch { values, labels } => write!(
                f,
                "values ({values}) and labels ({labels}) have different lengths"
            ),
            MpError::LabelOutOfRange { index, label, m } => write!(
                f,
                "label {label} at index {index} is out of range for m = {m} buckets"
            ),
            MpError::ArithmeticOverflow { index } => write!(
                f,
                "combining element {index} overflows the element type (serial order)"
            ),
            MpError::CapacityOverflow {
                what,
                requested,
                limit,
            } => write!(
                f,
                "{what} of {requested} exceeds the configured budget of {limit}"
            ),
            MpError::AllocationFailed { bytes } => {
                write!(f, "allocation of {bytes} bytes failed")
            }
            MpError::EnginePanicked => {
                write!(f, "a combine operator panicked inside a parallel engine")
            }
            MpError::VerificationFailed { what, index } => write!(
                f,
                "self-check failed: {what} {index} disagrees with the serial oracle"
            ),
            MpError::DeadlineExceeded => {
                write!(f, "the run exceeded its deadline and was stopped")
            }
            MpError::Cancelled => write!(f, "the run was cancelled"),
            MpError::InvalidConfig { what } => {
                write!(f, "invalid execution config: {what}")
            }
            MpError::Unavailable => write!(
                f,
                "no engine in the fallback chain was available for the request"
            ),
            MpError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "service overloaded: queue depth {queue_depth} at capacity {capacity}"
            ),
            MpError::WorkerLost { worker } => {
                write!(
                    f,
                    "service worker {worker} died while executing the request"
                )
            }
            MpError::IndexOutOfRange { index, len } => {
                write!(
                    f,
                    "element index {index} is out of range for a session of {len} elements"
                )
            }
            MpError::Storage { op, kind } => {
                write!(f, "session storage operation {op} failed: {kind:?}")
            }
            MpError::UnknownSession { id } => {
                write!(f, "session {id} is not open on this service")
            }
            MpError::CorruptStore { what } => {
                write!(f, "session store corrupted beyond recovery: {what}")
            }
        }
    }
}

impl std::error::Error for MpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_length_mismatch() {
        let e = MpError::LengthMismatch {
            values: 3,
            labels: 4,
        };
        assert_eq!(
            e.to_string(),
            "values (3) and labels (4) have different lengths"
        );
    }

    #[test]
    fn display_label_out_of_range() {
        let e = MpError::LabelOutOfRange {
            index: 7,
            label: 9,
            m: 8,
        };
        assert_eq!(
            e.to_string(),
            "label 9 at index 7 is out of range for m = 8 buckets"
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MpError::LengthMismatch {
            values: 1,
            labels: 2,
        });
        assert!(e.to_string().contains("different lengths"));
    }

    #[test]
    fn display_hardened_variants() {
        assert_eq!(
            MpError::ArithmeticOverflow { index: 3 }.to_string(),
            "combining element 3 overflows the element type (serial order)"
        );
        assert_eq!(
            MpError::CapacityOverflow {
                what: "buckets",
                requested: 100,
                limit: 10
            }
            .to_string(),
            "buckets of 100 exceeds the configured budget of 10"
        );
        assert_eq!(
            MpError::AllocationFailed { bytes: 1 << 40 }.to_string(),
            format!("allocation of {} bytes failed", 1u64 << 40)
        );
        assert!(MpError::EnginePanicked.to_string().contains("panicked"));
        assert!(MpError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(MpError::Cancelled.to_string().contains("cancelled"));
        assert_eq!(
            MpError::InvalidConfig {
                what: "max_buckets is zero"
            }
            .to_string(),
            "invalid execution config: max_buckets is zero"
        );
        assert!(MpError::Unavailable.to_string().contains("fallback chain"));
        assert_eq!(
            MpError::VerificationFailed {
                what: "sum",
                index: 7
            }
            .to_string(),
            "self-check failed: sum 7 disagrees with the serial oracle"
        );
    }

    #[test]
    fn display_service_variants() {
        assert_eq!(
            MpError::Overloaded {
                queue_depth: 64,
                capacity: 64
            }
            .to_string(),
            "service overloaded: queue depth 64 at capacity 64"
        );
        assert_eq!(
            MpError::WorkerLost { worker: 3 }.to_string(),
            "service worker 3 died while executing the request"
        );
    }

    /// Every variant is classified, deliberately: a new variant added
    /// without updating this table (and [`MpError::is_transient`]) fails
    /// here, not silently in the dispatcher's fallback loop.
    #[test]
    fn classification_covers_every_variant() {
        let table: [(MpError, bool); 12] = [
            (
                MpError::LengthMismatch {
                    values: 1,
                    labels: 2,
                },
                false,
            ),
            (
                MpError::LabelOutOfRange {
                    index: 0,
                    label: 5,
                    m: 3,
                },
                false,
            ),
            (MpError::ArithmeticOverflow { index: 0 }, false),
            (
                MpError::CapacityOverflow {
                    what: "buckets",
                    requested: 9,
                    limit: 3,
                },
                false,
            ),
            (MpError::AllocationFailed { bytes: 64 }, true),
            (MpError::EnginePanicked, true),
            (
                MpError::VerificationFailed {
                    what: "sum",
                    index: 0,
                },
                false,
            ),
            (MpError::DeadlineExceeded, true),
            // Cancellation is explicit caller intent — never falls through.
            (MpError::Cancelled, false),
            (MpError::InvalidConfig { what: "x" }, false),
            (MpError::Unavailable, true),
            (
                MpError::Overloaded {
                    queue_depth: 1,
                    capacity: 1,
                },
                true,
            ),
        ];
        for (err, transient) in table {
            assert_eq!(err.is_transient(), transient, "{err}");
            assert_eq!(err.is_permanent(), !transient, "{err}");
        }
        // WorkerLost, IndexOutOfRange, Storage, UnknownSession and
        // CorruptStore close the set (17 variants total). A refused fsync
        // is a property of the moment (disk pressure, a flaky mount) —
        // transient; a store that failed recovery validation and a request
        // naming a nonexistent element or session can never succeed as
        // posed — permanent.
        assert!(MpError::WorkerLost { worker: 0 }.is_transient());
        assert!(MpError::IndexOutOfRange { index: 9, len: 3 }.is_permanent());
        assert!(MpError::UnknownSession { id: 42 }.is_permanent());
        assert!(MpError::Storage {
            op: "wal.append",
            kind: std::io::ErrorKind::Other,
        }
        .is_transient());
        assert!(MpError::CorruptStore {
            what: "no valid snapshot generation",
        }
        .is_permanent());
    }

    #[test]
    fn display_session_variants() {
        let e = MpError::Storage {
            op: "snapshot.rename",
            kind: std::io::ErrorKind::PermissionDenied,
        };
        assert!(e.to_string().contains("snapshot.rename"));
        let e = MpError::CorruptStore {
            what: "wal segment gap",
        };
        assert!(e.to_string().contains("fails") || e.to_string().contains("corrupted"));
    }
}
