//! Process-wide hot-path counters for the socket transport.
//!
//! These live in the kernel crate for the same reason the buffer-pool
//! counters do: the `kernel_counters!` snapshot is the one place the
//! benchmark harness and the stats door read hardware-independent numbers
//! from, and the socket layer (in `spring-net`) cannot reach into a
//! specific kernel's `KernelStats` — a connection serves whatever kernels
//! its node hosts. Like the pool counters they are process-global, so
//! every kernel's snapshot reports the same values.
//!
//! The counters tell the story of one optimized send/receive cycle:
//!
//! * [`count_fastpath_send`] — a caller wrote its frame on its own thread
//!   (writer queue empty, writer lock uncontended) instead of handing it
//!   to the writer thread.
//! * [`count_writev_wakeup`] — the writer thread woke and drained `n`
//!   queued frames in one vectored write. `writev_frames / writev_wakeups`
//!   is the syscall-level coalescing factor.
//! * [`dispatch_enqueued`] / [`dispatch_done`] — a decoded request entered
//!   or left a connection's dispatcher pool; the difference is the live
//!   queue depth across all connections.
//! * [`count_dispatch_spawned`] / [`count_dispatch_reaped`] — pool worker
//!   threads created on demand and reaped after sitting idle.
//! * [`count_oneway_frame`] — a reply-less `KIND_ONEWAY` frame was shipped
//!   (no waiter registered, no reply crossing).

use std::sync::atomic::{AtomicU64, Ordering};

static FASTPATH_SENDS: AtomicU64 = AtomicU64::new(0);
static WRITEV_WAKEUPS: AtomicU64 = AtomicU64::new(0);
static WRITEV_FRAMES: AtomicU64 = AtomicU64::new(0);
static DISPATCH_ENQUEUED: AtomicU64 = AtomicU64::new(0);
static DISPATCH_DONE: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SPAWNED: AtomicU64 = AtomicU64::new(0);
static DISPATCH_REAPED: AtomicU64 = AtomicU64::new(0);
static ONEWAY_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Records a frame written inline on the caller's thread.
pub fn count_fastpath_send() {
    FASTPATH_SENDS.fetch_add(1, Ordering::Relaxed);
}

/// Records one writer-thread wakeup that drained `frames` queued frames
/// into a single vectored write.
pub fn count_writev_wakeup(frames: u64) {
    WRITEV_WAKEUPS.fetch_add(1, Ordering::Relaxed);
    WRITEV_FRAMES.fetch_add(frames, Ordering::Relaxed);
}

/// Records a request entering a connection's dispatcher pool.
pub fn dispatch_enqueued() {
    DISPATCH_ENQUEUED.fetch_add(1, Ordering::Relaxed);
}

/// Records a request leaving a connection's dispatcher pool (dispatched
/// or discarded at teardown).
pub fn dispatch_done() {
    DISPATCH_DONE.fetch_add(1, Ordering::Relaxed);
}

/// Records a pool worker thread spawned on demand.
pub fn count_dispatch_spawned() {
    DISPATCH_SPAWNED.fetch_add(1, Ordering::Relaxed);
}

/// Records a pool worker thread exiting after its idle timeout.
pub fn count_dispatch_reaped() {
    DISPATCH_REAPED.fetch_add(1, Ordering::Relaxed);
}

/// Records a reply-less one-way frame shipped on the wire.
pub fn count_oneway_frame() {
    ONEWAY_FRAMES.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time values of every hot-path counter, under the names
/// [`crate::StatsSnapshot`] reports them by (each is documented there).
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    pub fastpath_sends: u64,
    pub writev_wakeups: u64,
    pub writev_frames: u64,
    /// A gauge: enqueued minus done, saturating.
    pub dispatch_pool_depth: u64,
    pub dispatch_pool_spawned: u64,
    pub dispatch_pool_reaped: u64,
    pub oneway_frames: u64,
}

/// Reads every hot-path counter.
pub fn counters() -> Counters {
    let enq = DISPATCH_ENQUEUED.load(Ordering::Relaxed);
    let done = DISPATCH_DONE.load(Ordering::Relaxed);
    Counters {
        fastpath_sends: FASTPATH_SENDS.load(Ordering::Relaxed),
        writev_wakeups: WRITEV_WAKEUPS.load(Ordering::Relaxed),
        writev_frames: WRITEV_FRAMES.load(Ordering::Relaxed),
        dispatch_pool_depth: enq.saturating_sub(done),
        dispatch_pool_spawned: DISPATCH_SPAWNED.load(Ordering::Relaxed),
        dispatch_pool_reaped: DISPATCH_REAPED.load(Ordering::Relaxed),
        oneway_frames: ONEWAY_FRAMES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_event_moves_its_own_counter() {
        let before = counters();
        count_fastpath_send();
        count_writev_wakeup(3);
        dispatch_enqueued();
        count_dispatch_spawned();
        count_oneway_frame();
        let mid = counters();
        assert!(mid.fastpath_sends > before.fastpath_sends);
        assert!(mid.writev_wakeups > before.writev_wakeups);
        assert!(mid.writev_frames >= before.writev_frames + 3);
        assert!(mid.dispatch_pool_spawned > before.dispatch_pool_spawned);
        assert!(mid.oneway_frames > before.oneway_frames);
        dispatch_done();
        count_dispatch_reaped();
        let after = counters();
        assert!(after.dispatch_pool_reaped > mid.dispatch_pool_reaped);
    }

    #[test]
    fn depth_gauge_saturates() {
        // Unbalanced `done` calls must clamp the gauge at zero rather
        // than wrapping to u64::MAX.
        for _ in 0..4 {
            dispatch_done();
        }
        let depth = counters().dispatch_pool_depth;
        assert!(depth < u64::MAX / 2, "depth gauge wrapped: {depth}");
        for _ in 0..4 {
            dispatch_enqueued(); // restore balance for other tests
        }
    }
}
