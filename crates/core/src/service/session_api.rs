//! The [`Service`] session API: durable streaming sessions behind a
//! storage circuit breaker.
//!
//! A [`Service`] built over an invertible operator can host any number of
//! [`DurableSession`] stores alongside its batch traffic:
//! [`Service::open_session`] runs the recovery state machine and
//! registers the store, the per-session calls
//! ([`Service::session_append`], [`Service::session_update`],
//! [`Service::session_query`], [`Service::session_total`],
//! [`Service::session_snapshot`]) operate on it, and
//! [`Service::session_close`] seals and unregisters it.
//!
//! Each session carries its own **storage breaker** (an
//! [`EngineHealth`]): three consecutive storage failures open it, and
//! while it is open every storage-touching call fails fast with
//! [`MpError::Unavailable`] instead of hammering a sick disk — queries,
//! which touch only memory, keep being served, and
//! [`Service::session_snapshot`] is still admitted because it is the
//! remediation path out of a poisoned store. The session inherits the
//! service's chaos plan and recorder unless the [`SessionOptions`]
//! override them.

use super::queue::QueuePhase;
use super::Service;
use crate::error::MpError;
use crate::op::{InvertibleOp, TryCombineOp};
use crate::problem::Element;
use crate::resilience::health::EngineHealth;
use crate::session::{DurableSession, RecoveryReport, SessionOptions};
use crate::shard::net::wire::WireValue;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Handle to a session opened on a [`Service`] — see
/// [`Service::open_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

pub(crate) struct SessionSlot<T, O> {
    store: DurableSession<T, O>,
    /// Storage circuit breaker: opened by consecutive storage failures,
    /// half-opened after the cooldown, closed again by a success.
    health: EngineHealth,
}

/// The open-session registry hanging off the service's `Shared` state.
pub(crate) struct SessionRegistry<T, O> {
    next_id: u64,
    open: HashMap<u64, SessionSlot<T, O>>,
}

impl<T, O> std::fmt::Debug for SessionRegistry<T, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("open", &self.open.len())
            .finish()
    }
}

impl<T, O> Default for SessionRegistry<T, O> {
    fn default() -> Self {
        SessionRegistry {
            next_id: 0,
            open: HashMap::new(),
        }
    }
}

pub(crate) fn new_registry<T, O>() -> Mutex<SessionRegistry<T, O>> {
    Mutex::new(SessionRegistry::default())
}

impl<T, O> Service<T, O>
where
    T: Element + WireValue + PartialEq,
    O: TryCombineOp<T> + InvertibleOp<T>,
{
    /// Open (or create, or recover) the durable session store at `dir`
    /// for `m` buckets, and register it on this service.
    ///
    /// Unset [`SessionOptions`] fields inherit the service's wiring: the
    /// chaos plan and the recorder. The store's operator is the
    /// service's operator. Returns the handle the other `session_*`
    /// calls take.
    pub fn open_session(
        &self,
        dir: &Path,
        m: usize,
        mut opts: SessionOptions,
    ) -> Result<SessionId, MpError> {
        if self.shared.ingress.phase() != QueuePhase::Accepting {
            return Err(MpError::Unavailable);
        }
        if opts.chaos.is_none() {
            opts.chaos = self.shared.cfg.chaos.clone();
        }
        if opts.recorder.is_none() {
            opts.recorder = self.shared.cfg.recorder.clone();
        }
        let store = DurableSession::open(dir, m, self.shared.op, opts)?;
        let mut reg = self.lock_sessions();
        let id = reg.next_id;
        reg.next_id += 1;
        reg.open.insert(
            id,
            SessionSlot {
                store,
                health: EngineHealth::new(),
            },
        );
        if let Some(rec) = self.shared.stats.recorder() {
            rec.counter("session.open", 1);
            rec.gauge("session.open_count", reg.open.len() as i64);
        }
        Ok(SessionId(id))
    }

    /// What recovery did when session `id` was opened.
    pub fn session_recovery_report(&self, id: SessionId) -> Result<RecoveryReport, MpError> {
        let reg = self.lock_sessions();
        let slot = reg
            .open
            .get(&id.0)
            .ok_or(MpError::UnknownSession { id: id.0 })?;
        Ok(slot.store.recovery_report())
    }

    /// Durably append `(label, value)` to session `id`; `Ok(index)` is a
    /// durability acknowledgment (the record is fsynced in the WAL).
    pub fn session_append(&self, id: SessionId, label: usize, value: T) -> Result<u64, MpError> {
        self.with_session_storage(id, |slot| slot.store.append(label, value))
    }

    /// Durably re-assign element `index` of session `id` to `value`.
    pub fn session_update(&self, id: SessionId, index: u64, value: T) -> Result<(), MpError> {
        self.with_session_storage(id, |slot| slot.store.update(index, value))
    }

    /// The multiprefix sum of element `index` in session `id` — the
    /// ⊕-combination of every earlier same-label element. Memory-only:
    /// served even while the session's storage breaker is open.
    pub fn session_query(&self, id: SessionId, index: u64) -> Result<T, MpError> {
        let reg = self.lock_sessions();
        let slot = reg
            .open
            .get(&id.0)
            .ok_or(MpError::UnknownSession { id: id.0 })?;
        slot.store.prefix_query(index)
    }

    /// The ⊕-reduction of every element of session `id` with `label`.
    /// Memory-only, like [`Service::session_query`].
    pub fn session_total(&self, id: SessionId, label: usize) -> Result<T, MpError> {
        let reg = self.lock_sessions();
        let slot = reg
            .open
            .get(&id.0)
            .ok_or(MpError::UnknownSession { id: id.0 })?;
        slot.store.label_total(label)
    }

    /// Cut a snapshot of session `id` (rotate the WAL, write the image
    /// atomically, reap old generations). Also the recovery path out of
    /// a poisoned session — and therefore admitted even while the
    /// storage breaker is open: fast-failing the one call that can cure
    /// the fault would wedge the session permanently. Success closes the
    /// breaker. Returns the new generation.
    pub fn session_snapshot(&self, id: SessionId) -> Result<u64, MpError> {
        self.session_storage_call(id, false, |slot| slot.store.snapshot())
    }

    /// Seal session `id` (final fsync) and unregister it. The store
    /// directory remains on disk and can be reopened later.
    pub fn session_close(&self, id: SessionId) -> Result<(), MpError> {
        let slot = {
            let mut reg = self.lock_sessions();
            let slot = reg
                .open
                .remove(&id.0)
                .ok_or(MpError::UnknownSession { id: id.0 })?;
            if let Some(rec) = self.shared.stats.recorder() {
                rec.counter("session.close", 1);
                rec.gauge("session.open_count", reg.open.len() as i64);
            }
            slot
        };
        slot.store.close()
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, SessionRegistry<T, O>> {
        self.shared
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(test)]
    pub(crate) fn session_breaker_state(
        &self,
        id: SessionId,
    ) -> Result<crate::resilience::health::CircuitState, MpError> {
        let reg = self.lock_sessions();
        let slot = reg
            .open
            .get(&id.0)
            .ok_or(MpError::UnknownSession { id: id.0 })?;
        Ok(slot.health.state())
    }

    /// Common path for storage-touching session calls: breaker admission,
    /// the operation, breaker bookkeeping. Transient storage failures trip
    /// the breaker; permanent request errors (label/index out of range)
    /// are the caller's problem and leave it untouched.
    fn with_session_storage<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut SessionSlot<T, O>) -> Result<R, MpError>,
    ) -> Result<R, MpError> {
        self.session_storage_call(id, true, f)
    }

    /// [`with_session_storage`](Self::with_session_storage) with the
    /// breaker's admission gate optional: remediation calls (snapshot)
    /// run even while the breaker is open, but still report their
    /// outcome so a successful cure closes it.
    fn session_storage_call<R>(
        &self,
        id: SessionId,
        gated: bool,
        f: impl FnOnce(&mut SessionSlot<T, O>) -> Result<R, MpError>,
    ) -> Result<R, MpError> {
        let mut reg = self.lock_sessions();
        let slot = reg
            .open
            .get_mut(&id.0)
            .ok_or(MpError::UnknownSession { id: id.0 })?;
        if gated && !slot.health.admit() {
            if let Some(rec) = self.shared.stats.recorder() {
                rec.counter("session.breaker.fast_fail", 1);
            }
            return Err(MpError::Unavailable);
        }
        match f(slot) {
            Ok(out) => {
                slot.health.on_success();
                Ok(out)
            }
            Err(e) => {
                if e.is_transient() {
                    slot.health.on_failure();
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;
    use crate::resilience::health::CircuitState;
    use crate::resilience::ChaosPlan;
    use crate::service::ServiceConfig;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mpx-svc-session-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service() -> Service<i64, Plus> {
        Service::new(
            Plus,
            ServiceConfig {
                workers: Some(1),
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn session_lifecycle_through_service() {
        let dir = tmpdir("lifecycle");
        let svc = service();
        let sid = svc
            .open_session(&dir, 8, SessionOptions::default())
            .unwrap();
        for i in 0..40i64 {
            let idx = svc.session_append(sid, (i % 8) as usize, i).unwrap();
            assert_eq!(idx, i as u64);
        }
        svc.session_update(sid, 9, -100).unwrap();
        // Element 17 has label 1; earlier label-1 elements are 1 and the
        // updated 9 (-100).
        assert_eq!(svc.session_query(sid, 17).unwrap(), 1 - 100);
        assert_eq!(svc.session_total(sid, 1).unwrap(), 1 - 100 + 17 + 25 + 33);
        let gen = svc.session_snapshot(sid).unwrap();
        assert_eq!(gen, 1);
        svc.session_close(sid).unwrap();
        // Closed: the id no longer resolves.
        assert!(matches!(
            svc.session_query(sid, 0),
            Err(MpError::UnknownSession { id }) if id == sid.0
        ));
        // Reopen recovers from the snapshot.
        let sid2 = svc
            .open_session(&dir, 8, SessionOptions::default())
            .unwrap();
        assert_ne!(sid2, sid);
        let rep = svc.session_recovery_report(sid2).unwrap();
        assert_eq!(rep.snapshot_ops, 41);
        assert_eq!(svc.session_query(sid2, 17).unwrap(), 1 - 100);
        svc.session_close(sid2).unwrap();
        svc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_breaker_opens_and_spares_queries() {
        let dir = tmpdir("breaker");
        let svc = service();
        // Open clean, get some durable state, then arm 100% fsync faults.
        let sid = svc
            .open_session(&dir, 4, SessionOptions::default())
            .unwrap();
        svc.session_append(sid, 0, 5).unwrap();
        svc.session_append(sid, 0, 7).unwrap();
        svc.session_close(sid).unwrap();
        let chaos = ChaosPlan::seeded(3).fsync_fail_ppm(1_000_000).arm();
        let opts = SessionOptions {
            chaos: Some(chaos),
            ..SessionOptions::default()
        };
        let sid = svc.open_session(&dir, 4, opts).unwrap();
        // Three consecutive storage failures (the default threshold) trip
        // the breaker…
        for value in 1..=3 {
            assert!(matches!(
                svc.session_append(sid, 1, value),
                Err(MpError::Storage { .. })
            ));
        }
        assert_eq!(svc.session_breaker_state(sid).unwrap(), CircuitState::Open);
        // …after which storage calls fail fast without touching the disk…
        assert!(matches!(
            svc.session_append(sid, 1, 4),
            Err(MpError::Unavailable)
        ));
        // …while memory-only queries keep being served.
        assert_eq!(svc.session_query(sid, 1).unwrap(), 5);
        assert_eq!(svc.session_total(sid, 0).unwrap(), 12);
        // Permanent request errors never trip or trigger the breaker.
        assert!(matches!(
            svc.session_query(sid, 99),
            Err(MpError::IndexOutOfRange { .. })
        ));
        // Snapshot — the cure for a poisoned store — is admitted past
        // the open breaker: it reaches the disk (and here fails there,
        // 100% fsync faults) instead of fast-failing Unavailable.
        assert!(matches!(
            svc.session_snapshot(sid),
            Err(MpError::Storage { .. })
        ));
        svc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_and_shutdown_sessions_are_typed() {
        let dir = tmpdir("unknown");
        let svc = service();
        assert!(matches!(
            svc.session_append(SessionId(99), 0, 1),
            Err(MpError::UnknownSession { id: 99 })
        ));
        svc.shutdown();
        // A stopped service refuses new sessions like it refuses requests.
        assert!(matches!(
            svc.open_session(&dir, 4, SessionOptions::default()),
            Err(MpError::Unavailable)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
