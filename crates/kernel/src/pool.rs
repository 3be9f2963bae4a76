//! Thread-local pool of heap buffer backings for the door-call fast path.
//!
//! Every door call copies its payload across the simulated address-space
//! boundary (the paper's mandatory cross-domain copy). Without pooling, each
//! call allocates a fresh `Vec<u8>` for the copy and frees the source, so a
//! steady stream of calls churns the allocator. The pool keeps a small
//! per-thread free list of byte vectors: the kernel's translate step takes
//! its copy target from the pool and donates the consumed source backing
//! back, and `spring-buf`'s `CommBuffer` does the same for marshalling
//! buffers. In steady state a null call performs zero payload allocations.
//!
//! The free list is thread-local, so `take`/`give` never contend on a lock,
//! and both are `#[inline]`: a buffer's `pooled`/`Drop` compile down to the
//! free-list probe in the caller's own code (DESIGN.md §5.2).
//!
//! # Counter scope (footgun)
//!
//! Hits and misses are counted **per thread** (a [`Tally`]: the taking
//! thread is the only writer of its cells, so a bump is a plain load and
//! store), and [`counters`] sums every thread's, exited ones included. The
//! sum is still **per process**, not per kernel: `KernelStats::snapshot`
//! surfaces it, every kernel in the process reports the same pool numbers,
//! and a test that diffs two snapshots is disturbed by any test running
//! concurrently in the same process — whichever thread that one runs on.
//! Code asserting on pool behaviour must either diff two snapshots with
//! nothing else running (what the benchmark harness does), or call
//! [`reset_counters`] first and accept that it zeroes the counts for every
//! observer at once.

use std::cell::RefCell;

use crate::tally::{Slot, Tally};

/// Minimum address alignment of every pooled backing's payload region.
///
/// Flat wire frames (`spring_buf::flat`) start at 8-byte-aligned offsets
/// within a buffer; keeping the backing itself 8-byte aligned means the
/// frame start is 8-byte aligned in memory too, so whole-frame casts are
/// sound by construction. Rust's global allocator returns ≥ 8-byte-aligned
/// blocks for all practical sizes on 64-bit targets; [`take`] verifies the
/// invariant and [`give`] refuses to retain a backing that violates it.
pub const PAYLOAD_ALIGN: usize = 8;

/// Maximum number of backings retained per thread.
const MAX_POOLED: usize = 32;

/// Backings larger than this are dropped rather than retained, so one huge
/// payload does not pin a megabyte per thread forever. Buffers reused
/// outside the pool (a socket's frame buffers) keep no more than this
/// either.
pub const MAX_RETAINED_CAPACITY: usize = 1 << 20;

/// Cell indices into [`COUNTS`].
const HIT: usize = 0;
const MISS: usize = 1;

static COUNTS: Tally<2> = Tally::new();

/// What a thread owns of the pool: its free list and its cells of
/// [`COUNTS`], behind one thread-local access per `take`/`give`.
struct Local {
    free: RefCell<Vec<Vec<u8>>>,
    counts: Slot<2>,
}

thread_local! {
    static LOCAL: Local = Local {
        free: RefCell::new(Vec::new()),
        counts: COUNTS.register(),
    };
}

/// True when a backing satisfies [`PAYLOAD_ALIGN`]. Capacity-0 vectors hold
/// no storage (their pointer is a dangling sentinel), so they are vacuously
/// aligned.
#[inline]
fn is_aligned(v: &Vec<u8>) -> bool {
    v.capacity() == 0 || (v.as_ptr() as usize).is_multiple_of(PAYLOAD_ALIGN)
}

/// Allocates a fresh backing with [`PAYLOAD_ALIGN`]ed storage. The global
/// allocator already aligns to at least 8 on every supported target; the
/// retry loop turns that practical fact into a checked guarantee without
/// resorting to a custom allocator. The miss path: kept out of line so an
/// inlined [`take`] is only the free-list probe.
#[cold]
#[inline(never)]
fn alloc_aligned(min_capacity: usize) -> Vec<u8> {
    let mut parked = Vec::new();
    for _ in 0..8 {
        let v = Vec::with_capacity(min_capacity);
        if is_aligned(&v) {
            return v;
        }
        // Keep the misaligned block alive so the next attempt gets a
        // different address.
        parked.push(v);
    }
    debug_assert!(false, "allocator never produced an 8-byte-aligned block");
    parked.pop().unwrap()
}

/// Takes an empty byte vector with at least `min_capacity` spare capacity,
/// reusing a pooled backing when one is large enough. The result's storage
/// (when it has any) is [`PAYLOAD_ALIGN`]-byte aligned.
///
/// A thread-local destructor that runs after the pool's own allocates
/// instead, uncounted.
#[inline]
pub fn take(min_capacity: usize) -> Vec<u8> {
    let taken = LOCAL.try_with(|local| {
        let reused = {
            let mut free = local.free.borrow_mut();
            // Best fit: the smallest adequate backing. Taking any adequate
            // one lets a tiny request steal a large backing and starve the
            // next large request into a miss.
            let best = free
                .iter()
                .enumerate()
                .filter(|(_, v)| v.capacity() >= min_capacity)
                .min_by_key(|(_, v)| v.capacity())
                .map(|(idx, _)| idx);
            best.map(|idx| free.swap_remove(idx))
        };
        match reused {
            Some(v) => {
                local.counts.add(HIT, 1);
                debug_assert!(v.is_empty());
                debug_assert!(is_aligned(&v), "pool retained a misaligned backing");
                v
            }
            None => {
                local.counts.add(MISS, 1);
                alloc_aligned(min_capacity)
            }
        }
    });
    taken.unwrap_or_else(|_| alloc_aligned(min_capacity))
}

/// Returns a no-longer-needed byte vector to the current thread's pool.
///
/// Zero-capacity vectors (nothing to reuse), oversized ones, any that lost
/// the [`PAYLOAD_ALIGN`] guarantee, and any given after the pool's
/// thread-local destructor ran are dropped.
#[inline]
pub fn give(mut v: Vec<u8>) {
    if v.capacity() == 0 || v.capacity() > MAX_RETAINED_CAPACITY || !is_aligned(&v) {
        return;
    }
    v.clear();
    _ = LOCAL.try_with(|local| {
        let mut free = local.free.borrow_mut();
        if free.len() < MAX_POOLED {
            free.push(v);
        }
    });
}

/// Process-wide pool counts since start (or since the last
/// [`reset_counters`]).
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    /// Requests served from a thread's free list.
    pub hits: u64,
    /// Requests that had to allocate.
    pub misses: u64,
}

/// Reads the process-wide hit/miss counts: the sum over every thread that
/// ever took from its pool.
pub fn counters() -> Counters {
    let counts = COUNTS.read();
    Counters {
        hits: counts[HIT],
        misses: counts[MISS],
    }
}

/// Zeroes the process-wide hit/miss counters.
///
/// This affects every observer in the process at once — including other
/// kernels and concurrently running tests — so it belongs at the start of a
/// single-threaded measurement section, not in library code. The pooled
/// backings themselves are untouched (each thread keeps its free list).
pub fn reset_counters() {
    COUNTS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capacities of this thread's pooled backings. The counters are
    /// process-wide and other tests bump them in parallel, so these tests
    /// assert on this thread's backings instead.
    fn pooled() -> Vec<usize> {
        LOCAL.with(|local| local.free.borrow().iter().map(Vec::capacity).collect())
    }

    /// Empties this thread's pool, so nothing an earlier test left on the
    /// thread answers a request.
    fn drain() {
        LOCAL.with(|local| local.free.borrow_mut().clear());
    }

    #[test]
    fn reuse_round_trip() {
        // Prime the pool, then verify the same backing comes back.
        drain();
        let primed = Vec::with_capacity(128);
        let at = primed.as_ptr();
        give(primed);
        let v = take(64);
        assert!(v.capacity() >= 64);
        assert_eq!(v.as_ptr(), at);
        assert_eq!(pooled(), []);
    }

    #[test]
    fn small_requests_do_not_steal_nothing() {
        drain();
        give(Vec::with_capacity(64));
        // No large-enough backing: the request allocates, and the small
        // one stays pooled.
        let v = take(MAX_RETAINED_CAPACITY + 1);
        assert!(v.capacity() > MAX_RETAINED_CAPACITY);
        assert_eq!(pooled(), [64]);
        // Oversized backings are not retained.
        give(v);
        assert_eq!(pooled(), [64]);
    }

    #[test]
    fn give_clears_contents() {
        give(vec![1, 2, 3]);
        let v = take(1);
        assert!(v.is_empty());
    }

    #[test]
    fn payload_regions_are_eight_byte_aligned() {
        // Fresh allocations across a spread of sizes, including ones small
        // enough that a naive allocator might under-align them.
        for size in [1usize, 2, 3, 7, 8, 9, 64, 1000, 4096] {
            let v = take(size);
            assert!(v.capacity() >= size);
            assert_eq!(
                v.as_ptr() as usize % PAYLOAD_ALIGN,
                0,
                "take({size}) returned a misaligned backing"
            );
            give(v);
        }
        // Reused backings keep the guarantee.
        for _ in 0..16 {
            let v = take(32);
            assert!(is_aligned(&v));
            give(v);
        }
    }
}
