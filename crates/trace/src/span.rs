//! The span API: `span_start` / `span_end` around any traced operation.
//!
//! A span is open from `span_start` to `span_end` (or the guard's drop).
//! While open it is the thread's *current* context — door calls shuttle the
//! caller's thread, so nesting falls out naturally — and at the end one
//! [`Event`] is recorded into the scope's ring buffer plus, when the span
//! carries a subcontract/door key, one sample into the matching latency
//! histogram.
//!
//! With tracing disabled, `span_start` is one relaxed atomic load returning
//! an inert guard: no clock read, no thread-local access, no allocation.

use crate::ctx::{self, TraceCtx};
use crate::ring::Event;
use crate::{now_ns, sink};

/// RAII guard for one open span. Ends the span on drop; [`span_end`] (or
/// [`SpanGuard::end`]) makes the end point explicit.
#[must_use = "dropping the guard immediately ends the span"]
pub struct SpanGuard {
    ctx: TraceCtx,
    parent_span: u64,
    prev: TraceCtx,
    start_ns: u64,
    key: &'static str,
    scope: u64,
    scid: u64,
    failed: bool,
    armed: bool,
}

impl SpanGuard {
    /// The inert guard handed out while tracing is disabled.
    fn disarmed() -> SpanGuard {
        SpanGuard {
            ctx: TraceCtx::NONE,
            parent_span: 0,
            prev: TraceCtx::NONE,
            start_ns: 0,
            key: "",
            scope: 0,
            scid: 0,
            failed: false,
            armed: false,
        }
    }

    /// This span's context — what a message sent from inside the span
    /// should carry as its piggybacked header. [`TraceCtx::NONE`] when
    /// tracing is disabled.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// Marks the span as failed (recorded in the event; a dropped network
    /// hop uses this so retries read as a failed sibling plus a successful
    /// one).
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Ends the span explicitly (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        ctx::swap_current(self.prev);
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        sink::record(Event {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent_span,
            scope: self.scope,
            scid: self.scid,
            key: self.key,
            start_ns: self.start_ns,
            dur_ns,
            failed: self.failed,
        });
    }
}

/// Opens a span as a child of the thread's current span (or as a new trace
/// root when there is none).
///
/// `scope` tags the domain the span executes in; `scid` keys the latency
/// histogram (a subcontract identifier or door token; 0 records no
/// histogram sample).
#[inline]
pub fn span_start(key: &'static str, scope: u64, scid: u64) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disarmed();
    }
    span_open(key, ctx::current(), scope, scid)
}

/// Opens a span under an explicit parent — the receiving side of a
/// piggybacked context uses this with the pair read from the message
/// header. A `NONE` parent starts a fresh trace.
#[inline]
pub fn span_child_of(key: &'static str, parent: TraceCtx, scope: u64, scid: u64) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disarmed();
    }
    span_open(key, parent, scope, scid)
}

fn span_open(key: &'static str, parent: TraceCtx, scope: u64, scid: u64) -> SpanGuard {
    let trace = if parent.is_none() {
        ctx::next_id()
    } else {
        parent.trace
    };
    let span_ctx = TraceCtx {
        trace,
        span: ctx::next_id(),
    };
    let prev = ctx::swap_current(span_ctx);
    SpanGuard {
        ctx: span_ctx,
        parent_span: parent.span,
        prev,
        start_ns: now_ns(),
        key,
        scope,
        scid,
        failed: false,
        armed: true,
    }
}

/// Ends a span (named counterpart to [`span_start`]; identical to dropping
/// the guard).
pub fn span_end(guard: SpanGuard) {
    drop(guard);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{hist, ring};

    // The enable flag is process-global and tests run concurrently within
    // this crate, so every test that reads or flips it serializes on one
    // lock.
    pub(crate) static GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = GATE.lock();
        crate::reset();
        crate::set_enabled(true);
        let r = f();
        crate::set_enabled(false);
        crate::reset();
        r
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = GATE.lock();
        crate::set_enabled(false);
        let before = ring::events().len();
        let mut s = span_start("noop", 7, 7);
        assert!(s.ctx().is_none());
        s.fail();
        span_end(s);
        assert_eq!(ring::events().len(), before);
        assert!(ctx::current().is_none());
    }

    #[test]
    fn nesting_links_parent_and_restores_current() {
        with_tracing(|| {
            let outer = span_start("outer", 1, 0);
            let outer_ctx = outer.ctx();
            {
                let inner = span_start("inner", 1, 0);
                assert_eq!(inner.ctx().trace, outer_ctx.trace);
                assert_eq!(ctx::current(), inner.ctx());
            }
            assert_eq!(ctx::current(), outer_ctx);
            drop(outer);
            assert!(ctx::current().is_none());

            let evs = ring::events_for(1);
            assert_eq!(evs.len(), 2);
            let inner = evs.iter().find(|e| e.key == "inner").unwrap();
            let outer = evs.iter().find(|e| e.key == "outer").unwrap();
            assert_eq!(inner.parent, outer.span);
            assert_eq!(outer.parent, 0);
            assert_eq!(inner.trace, outer.trace);
        });
    }

    #[test]
    fn explicit_parent_continues_the_trace() {
        with_tracing(|| {
            let parent = TraceCtx {
                trace: 999_999,
                span: 123,
            };
            let child = span_child_of("remote", parent, 2, 0);
            assert_eq!(child.ctx().trace, 999_999);
            drop(child);
            let evs = ring::events_for(2);
            assert_eq!(evs[0].trace, 999_999);
            assert_eq!(evs[0].parent, 123);
        });
    }

    #[test]
    fn scid_spans_feed_histograms() {
        with_tracing(|| {
            drop(span_start("invoke", 3, 42));
            let snap = hist::histogram(42, "invoke").snapshot();
            assert_eq!(snap.count, 1);
        });
    }

    #[test]
    fn a_reset_is_seen_by_a_thread_that_already_recorded() {
        with_tracing(|| {
            drop(span_start("invoke", 5, 43));
            crate::reset();
            drop(span_start("invoke", 5, 43));
            assert_eq!(ring::events_for(5).len(), 1);
            assert_eq!(hist::histogram(43, "invoke").snapshot().count, 1);
        });
    }

    #[test]
    fn failed_flag_is_recorded() {
        with_tracing(|| {
            let mut s = span_start("hop", 4, 0);
            s.fail();
            drop(s);
            assert!(ring::events_for(4)[0].failed);
        });
    }
}
