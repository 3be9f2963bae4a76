//! Cross-layer pipelining hints: how callers tell the transport that more
//! calls are coming.
//!
//! Promise-pipelining subcontracts (see `spring-subcontracts`' `Pipeline`)
//! issue several calls before collecting any reply. The transport can then
//! coalesce the queued calls into one wire frame — but only if it knows
//! whether waiting for more traffic is worthwhile. That knowledge lives
//! here, in the kernel, because it is the one crate both the subcontract
//! runtime (producers of calls) and the network (consumer of calls) already
//! depend on.
//!
//! Three tiny primitives, all process-global and allocation-free on the
//! fast path:
//!
//! * **Announcements** — a counter of logical calls currently in flight
//!   through a pipelining-aware path. A batcher holding fewer queued calls
//!   than the announced count may keep coalescing; when the counter is
//!   zero nothing else is coming and queued traffic should leave
//!   immediately. Plain synchronous calls never announce, so they are never
//!   delayed.
//! * **Urgency** — an epoch bumped by a collector that is blocked on a
//!   reply. Batchers compare the epoch against the value they sampled when
//!   their batch started forming: a change means someone is waiting on
//!   (possibly) one of the queued calls, and further coalescing trades
//!   real latency for hypothetical wins.
//! * **Wakers** — callbacks registered by batchers so an urgency bump can
//!   interrupt their linger sleep instead of waiting for it to time out.
//!
//! These are *hints*: every flush decision remains bounded by the
//! transport's own linger budget, so a stale announcement can delay a
//! frame by at most that budget, never forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Logical calls currently in flight through pipelining-aware paths.
static ANNOUNCED: AtomicU64 = AtomicU64::new(0);

/// Epoch bumped each time a collector blocks on a reply.
static URGENT: AtomicU64 = AtomicU64::new(0);

/// Batcher wakeups to run on an urgency bump. Weak so a torn-down network
/// unregisters itself by dropping; dead entries are pruned on each urge.
static WAKERS: Mutex<Vec<Weak<dyn Fn() + Send + Sync>>> = Mutex::new(Vec::new());

/// Declares one more pipelined call in flight. Pair with [`retract`], or
/// use [`announce_scope`] for panic-safe balancing.
pub fn announce() {
    ANNOUNCED.fetch_add(1, Ordering::Relaxed);
}

/// Withdraws one [`announce`]. Saturates at zero rather than wrapping, so
/// an unbalanced retract cannot convince batchers that traffic is coming
/// forever.
pub fn retract() {
    let _ = ANNOUNCED.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
}

/// The number of pipelined calls currently announced.
pub fn announced() -> u64 {
    ANNOUNCED.load(Ordering::Relaxed)
}

/// RAII balance for [`announce`]/[`retract`].
pub struct AnnounceGuard(());

/// Announces a pipelined call for the lifetime of the returned guard.
pub fn announce_scope() -> AnnounceGuard {
    announce();
    AnnounceGuard(())
}

impl Drop for AnnounceGuard {
    fn drop(&mut self) {
        retract();
    }
}

/// Signals that a collector is blocked on a reply: bumps the urgency epoch
/// and runs every registered waker so lingering batchers flush now.
pub fn urge() {
    URGENT.fetch_add(1, Ordering::Relaxed);
    let wakers: Vec<Arc<dyn Fn() + Send + Sync>> = {
        let mut registered = WAKERS.lock().unwrap_or_else(|p| p.into_inner());
        registered.retain(|w| w.strong_count() > 0);
        registered.iter().filter_map(Weak::upgrade).collect()
    };
    for w in wakers {
        w();
    }
}

/// The current urgency epoch. Batchers sample it when a batch starts
/// forming; a later change means a collector is waiting.
pub fn urgent_epoch() -> u64 {
    URGENT.load(Ordering::Relaxed)
}

/// Registers a wakeup to run on every [`urge`]. Held weakly: dropping the
/// last `Arc` unregisters the waker.
pub fn register_waker(waker: &Arc<dyn Fn() + Send + Sync>) {
    WAKERS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(Arc::downgrade(waker));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn announce_retract_balance() {
        let base = announced();
        announce();
        announce();
        assert_eq!(announced(), base + 2);
        retract();
        retract();
        assert_eq!(announced(), base);
    }

    #[test]
    fn retract_saturates_at_zero() {
        while announced() > 0 {
            retract();
        }
        retract();
        assert_eq!(announced(), 0);
    }

    #[test]
    fn guard_balances_on_drop() {
        let base = announced();
        {
            let _g = announce_scope();
            assert_eq!(announced(), base + 1);
        }
        assert_eq!(announced(), base);
    }

    #[test]
    fn urge_bumps_epoch_and_runs_live_wakers() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
            HITS.fetch_add(1, Ordering::Relaxed);
        });
        register_waker(&waker);
        let before = urgent_epoch();
        let hits_before = HITS.load(Ordering::Relaxed);
        urge();
        assert_eq!(urgent_epoch(), before + 1);
        assert_eq!(HITS.load(Ordering::Relaxed), hits_before + 1);

        // Dropping the Arc unregisters: further urges do not run it.
        drop(waker);
        urge();
        assert_eq!(HITS.load(Ordering::Relaxed), hits_before + 1);
    }
}
