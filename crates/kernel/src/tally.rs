//! Event counts kept per thread and summed on demand.
//!
//! A count bumped on the call path (pool hits, decoded bytes) must not cost
//! a locked read-modify-write per event. A [`Tally`] keeps one [`Slot`] of
//! cells per thread instead: the owning thread is a slot's only writer, so
//! a bump is a plain load and a plain store; a reader locks the registry
//! and sums every live slot plus what exited threads left behind.
//!
//! A use site declares the tally and the thread's slot of it, then bumps
//! through the slot:
//!
//! ```
//! use spring_kernel::tally::{Slot, Tally};
//!
//! static EVENTS: Tally<1> = Tally::new();
//! thread_local! {
//!     static MINE: Slot<1> = EVENTS.register();
//! }
//!
//! MINE.with(|mine| mine.add(0, 3));
//! assert_eq!(EVENTS.read(), [3]);
//! ```

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

type Cells<const N: usize> = [AtomicU64; N];

/// `N` process-wide counts, each the sum of one cell per thread.
pub struct Tally<const N: usize> {
    inner: Mutex<Inner<N>>,
}

struct Inner<const N: usize> {
    /// The slots of threads that are still running.
    live: Vec<Arc<Cells<N>>>,
    /// What the slots of exited threads held when they were dropped.
    retired: [u64; N],
    /// The totals at the last [`Tally::reset`]. Resetting moves this floor
    /// rather than writing other threads' cells, so every cell keeps exactly
    /// one writer and no bump is ever lost to a reset.
    floor: [u64; N],
}

impl<const N: usize> Inner<N> {
    fn totals(&self) -> [u64; N] {
        let mut sum = self.retired;
        for slot in &self.live {
            for (s, cell) in sum.iter_mut().zip(slot.iter()) {
                *s = s.wrapping_add(cell.load(Ordering::Relaxed));
            }
        }
        sum
    }
}

impl<const N: usize> Tally<N> {
    /// An empty tally, for a `static`.
    pub const fn new() -> Self {
        Tally {
            inner: Mutex::new(Inner {
                live: Vec::new(),
                retired: [0; N],
                floor: [0; N],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<N>> {
        // Every update under the lock leaves the registry valid, so a
        // panicking holder poisons nothing worth refusing.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers the calling thread's slot; the initialiser of the use
    /// site's `thread_local!`. Dropping the slot (at thread exit) folds its
    /// counts into the tally, so an exited thread's events stay counted.
    pub fn register(&'static self) -> Slot<N> {
        let cells: Arc<Cells<N>> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        self.lock().live.push(cells.clone());
        Slot {
            cells,
            tally: self,
            single_writer: PhantomData,
        }
    }

    /// The counts since start or the last [`Tally::reset`], over every
    /// thread that ever bumped them.
    pub fn read(&self) -> [u64; N] {
        let inner = self.lock();
        let mut out = inner.totals();
        for (o, f) in out.iter_mut().zip(inner.floor) {
            *o = o.wrapping_sub(f);
        }
        out
    }

    /// Zeroes the counts for every reader at once.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.floor = inner.totals();
    }
}

impl<const N: usize> Default for Tally<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// One thread's cells of a [`Tally`]. Not `Sync`: a second thread bumping
/// through a shared reference would make the unlocked load-then-store of
/// [`Slot::add`] lose counts.
pub struct Slot<const N: usize> {
    cells: Arc<Cells<N>>,
    tally: &'static Tally<N>,
    single_writer: PhantomData<Cell<()>>,
}

impl<const N: usize> Slot<N> {
    /// Adds `n` to count `i`: an unlocked load-then-store, exact because
    /// the thread that holds the slot is the cells' only writer.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        let cell = &self.cells[i];
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

impl<const N: usize> Drop for Slot<N> {
    fn drop(&mut self) {
        let mut inner = self.tally.lock();
        inner.live.retain(|c| !Arc::ptr_eq(c, &self.cells));
        for (r, cell) in inner.retired.iter_mut().zip(self.cells.iter()) {
            *r = r.wrapping_add(cell.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_live_and_exited_threads_and_resets() {
        static T: Tally<2> = Tally::new();
        thread_local! {
            static MINE: Slot<2> = T.register();
        }
        MINE.with(|m| m.add(0, 1));
        let workers: Vec<_> = (0..3)
            .map(|k| {
                std::thread::spawn(move || {
                    MINE.with(|m| {
                        m.add(0, 10);
                        m.add(1, k);
                    })
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(T.read(), [31, 3]);
        // `join` returns after the thread's destructors ran: only this
        // thread's slot is still registered.
        assert_eq!(T.lock().live.len(), 1);

        T.reset();
        assert_eq!(T.read(), [0, 0]);
        MINE.with(|m| m.add(1, 5));
        assert_eq!(T.read(), [0, 5]);
    }
}
