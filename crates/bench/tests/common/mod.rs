//! A counting global allocator scoped to the measuring thread, shared by the
//! zero-allocation proofs (each installs it in its own test binary).
//!
//! A process-wide count misattributes other threads' allocations to the
//! call path: the libtest harness's main thread lazily initializes its mpsc
//! receiver context at an arbitrary moment, and a sibling test's set-up
//! allocates freely. The paths measured here run synchronously on the
//! calling thread, so a per-thread count loses nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-init TLS lives in .tdata and never allocates on access.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns how many times the calling thread allocated in it.
pub fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.load(Ordering::Relaxed) - before
}
