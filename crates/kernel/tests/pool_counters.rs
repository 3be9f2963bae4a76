//! The pool's hit/miss counts are kept per thread and summed by the reader
//! (`spring_kernel::pool`, *Counter scope*): the sum covers running and
//! exited threads alike, and a reset zeroes all of them.
//!
//! The counts are per process, so the cases here — alone in this test
//! binary — take turns under one lock and assert exact figures.

use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

use spring_kernel::pool::{self, Counters};

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    let turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    pool::reset_counters();
    turn
}

fn counts() -> (u64, u64) {
    let Counters { hits, misses } = pool::counters();
    (hits, misses)
}

/// One miss (a fresh thread's pool is empty), then `hits` hits.
fn churn(hits: usize) {
    let mut v = pool::take(64);
    for _ in 0..hits {
        pool::give(v);
        v = pool::take(64);
    }
    pool::give(v);
}

type Worker = (mpsc::Sender<()>, mpsc::Receiver<()>, JoinHandle<()>);

/// A thread that churns once per message, in step with the other parties of
/// `start`, and exits when the sender drops.
fn worker(start: Arc<Barrier>, hits: usize) -> Worker {
    let (go, inbox) = mpsc::channel::<()>();
    let (outbox, done) = mpsc::channel::<()>();
    let handle = thread::spawn(move || {
        while inbox.recv().is_ok() {
            start.wait();
            churn(hits);
            outbox.send(()).expect("test thread is listening");
        }
    });
    (go, done, handle)
}

#[test]
fn concurrent_threads_are_summed_and_exited_threads_keep_their_counts() {
    let _turn = my_turn();
    const HITS: usize = 1_000;
    let start = Arc::new(Barrier::new(2));
    let (go_a, done_a, a) = worker(start.clone(), HITS);
    let (go_b, done_b, b) = worker(start, HITS);
    // Both churn at once, released by the barrier.
    go_a.send(()).unwrap();
    go_b.send(()).unwrap();
    done_a.recv().unwrap();
    done_b.recv().unwrap();
    // Both threads are alive, parked in `recv`: the sum of two live slots.
    assert_eq!(counts(), (2 * HITS as u64, 2));

    drop(go_a);
    a.join().unwrap();
    // One slot folded into the retired total, one live.
    assert_eq!(counts(), (2 * HITS as u64, 2));
    drop(go_b);
    b.join().unwrap();
    assert_eq!(counts(), (2 * HITS as u64, 2));

    // This thread's own slot joins the same sum.
    pool::give(Vec::with_capacity(64));
    drop(pool::take(1));
    assert_eq!(counts(), (2 * HITS as u64 + 1, 2));
}

#[test]
fn reset_zeroes_every_threads_counts() {
    let _turn = my_turn();
    let start = Arc::new(Barrier::new(1));
    let (go, done, handle) = worker(start.clone(), 10);
    go.send(()).unwrap();
    done.recv().unwrap();
    let (gone_go, gone_done, gone) = worker(start, 5);
    gone_go.send(()).unwrap();
    gone_done.recv().unwrap();
    drop(gone_go);
    gone.join().unwrap();
    churn(3);
    // A live thread, an exited one, and this one — whose first take hits
    // instead of missing when an earlier case ran on it and primed its pool.
    let (hits, misses) = counts();
    assert_eq!(hits + misses, (10 + 5 + 3) + 3);
    assert!(misses == 2 || misses == 3, "{misses}");

    pool::reset_counters();
    assert_eq!(counts(), (0, 0));

    // Counting goes on from zero on a thread that was reset while alive;
    // its pooled backing is untouched, so nothing misses.
    go.send(()).unwrap();
    done.recv().unwrap();
    assert_eq!(counts(), (11, 0));
    drop(go);
    handle.join().unwrap();
    assert_eq!(counts(), (11, 0));
}

/// Takes a backing from the pool and gives it back when it is dropped.
struct GivesOnDrop;

impl Drop for GivesOnDrop {
    fn drop(&mut self) {
        pool::give(pool::take(64));
    }
}

thread_local! {
    static GIVES_ON_DROP: GivesOnDrop = const { GivesOnDrop };
}

/// A thread-local destructor that runs after the pool's own may still take
/// and give: it allocates uncounted, and what it gives is dropped. A thread
/// runs its thread-local destructors in the reverse order of first use, so
/// a value touched before the pool is dropped after it — as a route cache
/// holding the last reference to a kernel would be.
#[test]
fn a_destructor_that_runs_after_the_pools_own_takes_and_gives() {
    let _turn = my_turn();
    thread::spawn(|| {
        GIVES_ON_DROP.with(|_| {});
        churn(0);
    })
    .join()
    .expect("the thread exits cleanly");
    // The churn's one miss, folded in when the pool's destructor ran; the
    // later take counted nothing (had it run first, it would have hit).
    assert_eq!(counts(), (0, 1));
}
