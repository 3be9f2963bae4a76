//! Event counts kept per thread and summed on demand.
//!
//! A count bumped on the call path (door calls, bytes copied, pool hits,
//! wire messages) must not cost a locked read-modify-write on a cache line
//! every calling thread shares. A [`Tally`] keeps one [`Slot`] of cells per
//! thread instead: the owning thread is a slot's only writer, so a bump is
//! a plain load and a plain store; a reader locks the registry and sums
//! every live slot plus what exited threads left behind.
//!
//! A tally that is a `static` counts for the process. The use site
//! declares it and the thread's slot of it, then bumps through the slot:
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
//!
//! A tally owned by a value (one per kernel, one per network) counts for
//! that value. A thread cannot name its slot of an owner it has yet to
//! meet, so the use site declares the thread's [`Slots`] — one slot per
//! owner the thread has bumped, two or three in practice, found by a scan —
//! and bumps through [`bump`] (or [`bump_many`], for several counts at one
//! site):
//!
//! ```
//! use std::sync::Arc;
//! use spring_kernel::tally::{self, Slots, Tally};
//!
//! thread_local! {
//!     static MINE: Slots<1> = const { Slots::new() };
//! }
//!
//! let (a, b) = (Arc::new(Tally::new()), Arc::new(Tally::new()));
//! tally::bump(&MINE, &a, 0, 3);
//! tally::bump(&MINE, &b, 0, 4);
//! assert_eq!((a.read(), b.read()), ([3], [4]));
//! ```

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::LocalKey;

type Cells<const N: usize> = [AtomicU64; N];

/// `N` counts, each the sum of one cell per thread: process-wide when the
/// tally is a `static`, per owner when a value holds it in an `Arc`.
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
    /// An empty tally.
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

    fn slot(&self, home: Home<N>) -> Slot<N> {
        let cells: Arc<Cells<N>> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        self.lock().live.push(cells.clone());
        Slot {
            cells,
            home,
            single_writer: PhantomData,
        }
    }

    /// Registers the calling thread's slot of a `static` tally; the
    /// initialiser of the use site's `thread_local!`. Dropping the slot (at
    /// thread exit) folds its counts into the tally, so an exited thread's
    /// events stay counted.
    pub fn register(&'static self) -> Slot<N> {
        self.slot(Home::Static(self))
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

impl<const N: usize> std::fmt::Debug for Tally<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Tally").field(&self.read()).finish()
    }
}

/// Where a slot folds its counts when its thread exits.
enum Home<const N: usize> {
    /// A `static` tally, which outlives every thread.
    Static(&'static Tally<N>),
    /// A tally some value owns, which may be gone by then.
    Owned(Weak<Tally<N>>),
}

/// One thread's cells of a [`Tally`]. Not `Sync`: a second thread bumping
/// through a shared reference would make the unlocked load-then-store of
/// [`Slot::add`] lose counts.
pub struct Slot<const N: usize> {
    cells: Arc<Cells<N>>,
    home: Home<N>,
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

    #[inline]
    fn add_all(&self, counts: &[(usize, u64)]) {
        for &(i, n) in counts {
            self.add(i, n);
        }
    }

    /// Whether this is a slot of `owner`. A `Weak` keeps its allocation, so
    /// the address of an owner that is gone is never a later owner's.
    #[inline]
    fn is_of(&self, owner: &Arc<Tally<N>>) -> bool {
        matches!(&self.home, Home::Owned(home) if home.as_ptr() == Arc::as_ptr(owner))
    }

    fn is_orphan(&self) -> bool {
        matches!(&self.home, Home::Owned(home) if home.strong_count() == 0)
    }
}

impl<const N: usize> Drop for Slot<N> {
    fn drop(&mut self) {
        let owned;
        let tally = match &self.home {
            Home::Static(tally) => *tally,
            Home::Owned(home) => match home.upgrade() {
                Some(tally) => {
                    owned = tally;
                    &*owned
                }
                // Nobody is left to read the counts.
                None => return,
            },
        };
        let mut inner = tally.lock();
        inner.live.retain(|c| !Arc::ptr_eq(c, &self.cells));
        for (r, cell) in inner.retired.iter_mut().zip(self.cells.iter()) {
            *r = r.wrapping_add(cell.load(Ordering::Relaxed));
        }
    }
}

/// One thread's slots of the owned tallies it has bumped: what a use site
/// with one tally per value declares in its `thread_local!`.
pub struct Slots<const N: usize> {
    held: RefCell<Vec<Slot<N>>>,
}

impl<const N: usize> Slots<N> {
    /// No slots yet; the first bump of each owner registers one.
    pub const fn new() -> Self {
        Slots {
            held: RefCell::new(Vec::new()),
        }
    }

    #[inline]
    fn add(&self, owner: &Arc<Tally<N>>, counts: &[(usize, u64)]) {
        let held = self.held.borrow();
        match held.iter().find(|s| s.is_of(owner)) {
            Some(slot) => slot.add_all(counts),
            None => {
                drop(held);
                self.add_first(owner, counts);
            }
        }
    }

    /// This thread's first bump of `owner` registers its slot. Slots of
    /// owners dropped since the last registration go, so a thread that
    /// outlives many owners scans only the living ones.
    #[cold]
    fn add_first(&self, owner: &Arc<Tally<N>>, counts: &[(usize, u64)]) {
        let slot = owner.slot(Home::Owned(Arc::downgrade(owner)));
        slot.add_all(counts);
        let mut held = self.held.borrow_mut();
        held.retain(|s| !s.is_orphan());
        held.push(slot);
    }
}

impl<const N: usize> Default for Slots<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Adds `n` to count `i` of `owner` through the calling thread's slot of
/// it. A bump made while the thread's locals are being torn down (by the
/// destructor of another thread-local) goes straight to the owner's books
/// under its lock.
#[inline]
pub fn bump<const N: usize>(
    slots: &'static LocalKey<Slots<N>>,
    owner: &Arc<Tally<N>>,
    i: usize,
    n: u64,
) {
    bump_many(slots, owner, &[(i, n)]);
}

/// Adds, for each `(i, n)` of `counts`, `n` to count `i` of `owner`: what
/// [`bump`] does for one count, with one thread-local access and one scan
/// for the slot however many counts a site makes.
#[inline]
pub fn bump_many<const N: usize>(
    slots: &'static LocalKey<Slots<N>>,
    owner: &Arc<Tally<N>>,
    counts: &[(usize, u64)],
) {
    if slots.try_with(|slots| slots.add(owner, counts)).is_err() {
        let retired = &mut owner.lock().retired;
        for &(i, n) in counts {
            retired[i] = retired[i].wrapping_add(n);
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

    #[test]
    fn owned_tallies_count_apart_and_dead_owners_are_pruned() {
        thread_local! {
            static MINE: Slots<1> = const { Slots::new() };
        }
        let held = || MINE.with(|m| m.held.borrow().len());
        let (a, b) = (Arc::new(Tally::new()), Arc::new(Tally::new()));
        for _ in 0..3 {
            bump(&MINE, &a, 0, 1);
            bump(&MINE, &b, 0, 10);
        }
        assert_eq!((a.read(), b.read()), ([3], [30]));
        assert_eq!(held(), 2);

        // A worker's counts outlive it; its slot does not.
        let worker = {
            let a = a.clone();
            std::thread::spawn(move || bump(&MINE, &a, 0, 100))
        };
        worker.join().unwrap();
        assert_eq!(a.read(), [103]);
        assert_eq!(a.lock().live.len(), 1);

        // A dropped owner's slot stays until the next registration, and an
        // owner allocated in its place is not mistaken for it.
        drop(b);
        assert_eq!(held(), 2);
        let c = Arc::new(Tally::new());
        bump(&MINE, &c, 0, 7);
        assert_eq!((a.read(), c.read()), ([103], [7]));
        assert_eq!(held(), 2);
    }

    /// Several counts at one site land in their own cells, on the slot
    /// the first bump registered.
    #[test]
    fn bump_many_adds_each_count_to_its_cell() {
        thread_local! {
            static MINE: Slots<3> = const { Slots::new() };
        }
        let t = Arc::new(Tally::new());
        bump_many(&MINE, &t, &[(0, 1), (2, 40)]);
        bump_many(&MINE, &t, &[(0, 1), (1, 0), (2, 2)]);
        bump(&MINE, &t, 1, 5);
        assert_eq!(t.read(), [2, 5, 42]);
        assert_eq!(t.lock().live.len(), 1);
    }

    #[test]
    fn a_bump_during_thread_teardown_is_counted() {
        thread_local! {
            static MINE: Slots<1> = const { Slots::new() };
            static LAST: RefCell<Option<BumpOnDrop>> = const { RefCell::new(None) };
        }
        struct BumpOnDrop(Arc<Tally<1>>);
        impl Drop for BumpOnDrop {
            fn drop(&mut self) {
                bump(&MINE, &self.0, 0, 5);
            }
        }
        let t = Arc::new(Tally::new());
        let owner = t.clone();
        std::thread::spawn(move || {
            // Registered first, so destroyed last: `MINE` is torn down (or
            // being torn down) when `LAST`'s destructor bumps.
            LAST.with(|l| *l.borrow_mut() = Some(BumpOnDrop(owner.clone())));
            bump(&MINE, &owner, 0, 1);
        })
        .join()
        .unwrap();
        assert_eq!(t.read(), [6]);
    }
}
