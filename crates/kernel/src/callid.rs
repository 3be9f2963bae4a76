//! Per-invocation call identity for at-most-once delivery.
//!
//! Retrying subcontracts (replicon §5.1.3, reconnectable §8.3) re-issue a
//! call on any communications error. When the loss hit the *reply* hop, the
//! server has already executed the call, so a blind retry double-executes
//! non-idempotent operations. The fix is the paper's own piggyback
//! convention: subcontract control data rides the call envelope next to the
//! out-of-band door identifiers. [`CallId`] is that control data — a client
//! nonce naming the logical invocation, an attempt counter, and a deadline
//! — and the server-side reply cache keyed by the nonce turns at-least-once
//! retries into at-most-once invocations.
//!
//! The all-zero value ([`CallId::NONE`]) means "no identity": ordinary
//! non-retrying calls carry it at zero cost (no allocation, no bytes on the
//! wire, and every dedup lookup is skipped). In a process the deadline is
//! absolute on [`now_micros`]; between processes the frame codec carries
//! the time left and the receiver re-anchors it on its own clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The identity of one logical invocation, piggybacked in the
/// [`crate::Message`] envelope exactly like the trace context.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct CallId {
    /// Client-chosen nonce naming the logical call; all retry attempts of
    /// one call share it. Zero means "no identity" (non-retrying calls).
    pub nonce: u64,
    /// Attempt counter, starting at 1 for the first transmission.
    pub attempt: u32,
    /// Absolute per-invocation deadline on the process clock
    /// ([`now_micros`]), or 0 for "no deadline". Servers may refuse
    /// to execute expired calls; clients stop retrying past it.
    pub deadline_micros: u64,
}

impl CallId {
    /// The absent identity (not sent on the wire).
    pub const NONE: CallId = CallId {
        nonce: 0,
        attempt: 0,
        deadline_micros: 0,
    };

    /// Returns true when this is the absent identity.
    #[inline]
    pub fn is_none(self) -> bool {
        self.nonce == 0
    }

    /// Returns true when this names a real invocation.
    #[inline]
    pub fn is_some(self) -> bool {
        self.nonce != 0
    }

    /// Returns true when the deadline is set and has passed.
    #[inline]
    pub fn is_expired(self) -> bool {
        self.deadline_micros != 0 && now_micros() > self.deadline_micros
    }
}

/// Process-wide nonce allocator. Deterministic (a counter, not a random
/// source) so tests can assert on orderings; uniqueness within the process
/// is all the simulated network needs, exactly as for trace identifiers.
static NEXT_NONCE: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh nonzero call nonce.
pub fn next_nonce() -> u64 {
    NEXT_NONCE.fetch_add(1, Ordering::Relaxed)
}

/// Microseconds on the process clock ([`spring_trace::now_ns`]) — the
/// clock [`CallId::deadline_micros`], cache leases and publish stamps are
/// expressed in. It means nothing in another process, so a deadline
/// crosses a socket as the time left.
pub fn now_micros() -> u64 {
    spring_trace::now_ns() / 1_000
}

/// The [`now_micros`] value `d` from now, saturating, never returning the
/// reserved 0 ("no deadline").
pub fn deadline_after(d: Duration) -> u64 {
    (now_micros().saturating_add(d.as_micros() as u64)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deadlines, leases and span timestamps read one timeline.
    #[test]
    fn one_process_clock() {
        let a = now_micros();
        let b = spring_trace::now_ns();
        let c = now_micros();
        assert!(a <= b / 1_000 && b / 1_000 <= c, "{a} µs, {b} ns, {c} µs");
    }

    #[test]
    fn none_is_none() {
        assert!(CallId::NONE.is_none());
        assert!(!CallId::NONE.is_some());
        assert!(!CallId::NONE.is_expired());
        assert!(CallId {
            nonce: 1,
            ..CallId::NONE
        }
        .is_some());
    }

    #[test]
    fn nonces_are_unique_and_nonzero() {
        let a = next_nonce();
        let b = next_nonce();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn deadlines_expire() {
        // Anchor the process clock first: the epoch initializes on first
        // use, so uptime must accrue before a 1 µs deadline can pass.
        let _ = now_micros();
        let past = CallId {
            nonce: 1,
            attempt: 1,
            deadline_micros: 1,
        };
        std::thread::sleep(Duration::from_micros(10));
        assert!(past.is_expired());
        let future = CallId {
            nonce: 1,
            attempt: 1,
            deadline_micros: deadline_after(Duration::from_secs(3600)),
        };
        assert!(!future.is_expired());
    }
}
