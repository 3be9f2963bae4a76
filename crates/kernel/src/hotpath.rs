//! Process-wide hot-path counters for the socket transport.
//!
//! These live in the kernel crate for the same reason the buffer-pool
//! counters do: the `kernel_counters!` snapshot is the one place the
//! benchmark harness and the stats door read hardware-independent numbers
//! from, and the socket layer (in `spring-net`) cannot reach into a
//! specific kernel's `KernelStats` — a link serves whatever kernels its
//! node hosts. Like the pool counters they are one process-wide
//! [`Tally`], so every kernel's snapshot reports the same values.
//!
//! The counters follow the call-socket mechanism (DESIGN.md §5.15):
//!
//! * [`count_fastpath_send`] — a frame was written to a call socket. Every
//!   frame is written by the thread that produced it, so this counts all
//!   of them (the name predates call sockets, when only some were).
//! * [`count_dispatch_spawned`] / [`count_dispatch_reaped`] — a serving
//!   thread (one per call socket this process serves) started or ended.
//! * [`count_oneway_frame`] — a reply-less `KIND_ONEWAY` frame was shipped
//!   (one crossing, no reply read).

use crate::tally::{Slot, Tally};

/// Cell indices into [`COUNTS`].
const FASTPATH_SENDS: usize = 0;
const DISPATCH_SPAWNED: usize = 1;
const DISPATCH_REAPED: usize = 2;
const ONEWAY_FRAMES: usize = 3;

/// Kept like the pool's counts (`crate::pool`, *Counter scope*): each
/// thread bumps cells of its own, [`counters`] sums all threads'.
static COUNTS: Tally<4> = Tally::new();

thread_local! {
    static MINE: Slot<4> = COUNTS.register();
}

fn count(event: usize) {
    MINE.with(|mine| mine.add(event, 1));
}

/// Records a frame written to a call socket by the thread that produced it.
pub fn count_fastpath_send() {
    count(FASTPATH_SENDS);
}

/// Records a serving thread starting on a call socket.
pub fn count_dispatch_spawned() {
    count(DISPATCH_SPAWNED);
}

/// Records a serving thread ending (its socket closed or its link died).
pub fn count_dispatch_reaped() {
    count(DISPATCH_REAPED);
}

/// Records a reply-less one-way frame shipped on the wire.
pub fn count_oneway_frame() {
    count(ONEWAY_FRAMES);
}

/// Point-in-time values of every hot-path counter, under the names
/// [`crate::StatsSnapshot`] reports them by (each is documented there).
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    pub fastpath_sends: u64,
    pub dispatch_pool_spawned: u64,
    pub dispatch_pool_reaped: u64,
    pub oneway_frames: u64,
}

/// Reads every hot-path counter.
pub fn counters() -> Counters {
    let counts = COUNTS.read();
    Counters {
        fastpath_sends: counts[FASTPATH_SENDS],
        dispatch_pool_spawned: counts[DISPATCH_SPAWNED],
        dispatch_pool_reaped: counts[DISPATCH_REAPED],
        oneway_frames: counts[ONEWAY_FRAMES],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_event_moves_its_own_counter() {
        let before = counters();
        count_fastpath_send();
        count_dispatch_spawned();
        count_oneway_frame();
        let mid = counters();
        assert!(mid.fastpath_sends > before.fastpath_sends);
        assert!(mid.dispatch_pool_spawned > before.dispatch_pool_spawned);
        assert!(mid.oneway_frames > before.oneway_frames);
        count_dispatch_reaped();
        let after = counters();
        assert!(after.dispatch_pool_reaped > mid.dispatch_pool_reaped);
    }
}
