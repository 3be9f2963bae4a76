//! A deliberately non-idempotent append-log service, compiled from
//! [`idl/log.idl`](../idl/log.idl): the client ([`log::AppendLog`]) and the
//! skeleton ([`log::AppendLogSkeleton`]) are generated; this module is the
//! servant.
//!
//! The at-most-once machinery (call identity + server reply cache) exists
//! for exactly this shape of operation: `append` applies its payload
//! unconditionally, so executing a retried attempt twice is observable as
//! two log entries. The servant counts every application on the server
//! side ([`AppendLogState::applied`]), which is what the fault-injection
//! suite compares against the client's view of successful calls.
//!
//! The state is shared (`Arc`) so a replica group can serve one log from
//! several skeletons — standing in for the state synchronization the paper
//! requires replicated servers to perform themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::idl::log;

/// The log itself: entries plus a server-side application counter. It is
/// the servant: export it wrapped in a [`log::AppendLogSkeleton`].
#[derive(Debug, Default)]
pub struct AppendLogState {
    entries: Mutex<Vec<u64>>,
    applied: AtomicU64,
}

impl AppendLogState {
    /// Creates an empty shared log.
    pub fn new() -> Arc<AppendLogState> {
        Arc::new(AppendLogState::default())
    }

    /// How many appends have *executed* on the server — the ground truth
    /// the exactly-once suite checks client observations against.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Snapshot of the entries, in application order.
    pub fn entries(&self) -> Vec<u64> {
        self.entries.lock().clone()
    }
}

impl log::AppendLogServant for AppendLogState {
    fn append(&self, value: u64) -> Result<u64, log::AppendLogError> {
        let mut entries = self.entries.lock();
        entries.push(value);
        let len = entries.len() as u64;
        drop(entries);
        self.applied.fetch_add(1, Ordering::Relaxed);
        Ok(len)
    }

    fn len(&self) -> Result<u64, log::AppendLogError> {
        Ok(self.entries.lock().len() as u64)
    }
}
