//! The propagated trace context: a trace/span identifier pair.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The identifier pair piggybacked on every traced message: which end-to-end
/// trace a message belongs to and which span is its immediate parent.
///
/// The all-zero value means "no context" ([`TraceCtx::NONE`]); identifier
/// allocation starts at 1 so the zero trace id is never issued. Only a set
/// context is sent on a socket (the frame codec's envelope lays it out); an
/// absent one costs nothing there and arrives as [`TraceCtx::NONE`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TraceCtx {
    /// End-to-end trace identifier, shared by every span of one logical call.
    pub trace: u64,
    /// The span the carrying message was sent from (the parent for spans
    /// opened on the receiving side).
    pub span: u64,
}

impl TraceCtx {
    /// The absent context (not sent on the wire).
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// Returns true when this is the absent context.
    #[inline]
    pub fn is_none(self) -> bool {
        self.trace == 0
    }

    /// Returns true when this carries a real trace identifier.
    #[inline]
    pub fn is_some(self) -> bool {
        self.trace != 0
    }
}

thread_local! {
    /// The context of the innermost open span on this thread. Door calls
    /// shuttle the caller's thread into the serving domain, so within one
    /// machine this cell alone would propagate correctly; the piggybacked
    /// message copy exists for the boundaries where the thread identity is
    /// not meaningful (the simulated network hop, and any future async
    /// delivery).
    static CURRENT: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
}

/// The current thread's innermost open span context ([`TraceCtx::NONE`]
/// outside any span).
#[inline]
pub fn current() -> TraceCtx {
    CURRENT.with(|c| c.get())
}

/// Replaces the current context, returning the previous one (span machinery
/// only).
pub(crate) fn swap_current(ctx: TraceCtx) -> TraceCtx {
    CURRENT.with(|c| c.replace(ctx))
}

/// Process-wide identifier allocator. Deterministic (a counter, not a
/// random source) so tests can assert on orderings; uniqueness within the
/// process is all the simulated network needs.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh nonzero identifier (trace or span).
pub(crate) fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(TraceCtx::NONE.is_none());
        assert!(!TraceCtx::NONE.is_some());
        assert!(TraceCtx { trace: 1, span: 0 }.is_some());
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
