//! A kernel's counts are cells of a tally the kernel owns
//! (`spring_kernel::tally`): every thread bumps cells of its own per kernel,
//! `Kernel::stats` sums them. Two kernels in one process therefore count
//! apart, exactly, whatever threads call on them and whether or not those
//! threads are still running.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;

use spring_kernel::{CallCtx, Domain, DoorError, DoorId, Kernel, Message};

fn echo(_ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
    Ok(msg)
}

/// A kernel with an echo door, and a client domain holding an identifier.
fn echo_kernel(name: &str) -> (Kernel, Domain, DoorId) {
    let kernel = Kernel::new(name);
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();
    (kernel, client, id)
}

fn call(client: &Domain, id: DoorId, payload: usize) {
    let reply = client.call(id, Message::from_bytes(vec![7; payload]));
    assert_eq!(reply.unwrap().bytes.len(), payload);
}

/// (door calls, bytes copied): a call copies its payload in and back out.
fn counts(kernel: &Kernel) -> (u64, u64) {
    let stats = kernel.stats();
    (stats.door_calls, stats.bytes_copied)
}

#[test]
fn two_kernels_bumped_alternately_from_one_thread_count_apart() {
    let (a, client_a, id_a) = echo_kernel("a");
    let (b, client_b, id_b) = echo_kernel("b");
    for _ in 0..100 {
        call(&client_a, id_a, 10);
        call(&client_b, id_b, 3);
        call(&client_b, id_b, 3);
    }
    assert_eq!(counts(&a), (100, 100 * 20));
    assert_eq!(counts(&b), (200, 200 * 6));
}

#[test]
fn eight_threads_are_summed_exactly_alive_and_after_they_exit() {
    const THREADS: u64 = 8;
    const CALLS: u64 = 500;
    let (a, client_a, id_a) = echo_kernel("a");
    let (b, client_b, id_b) = echo_kernel("b");
    let start = Arc::new(Barrier::new(THREADS as usize));
    let (done, finished) = mpsc::channel();
    let release = Arc::new(Barrier::new(THREADS as usize + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (client_a, client_b) = (client_a.clone(), client_b.clone());
            let (start, release, done) = (start.clone(), release.clone(), done.clone());
            thread::spawn(move || {
                start.wait();
                for _ in 0..CALLS {
                    call(&client_a, id_a, 8);
                    call(&client_b, id_b, 1);
                }
                done.send(()).unwrap();
                // Stay alive until the live sums have been read.
                release.wait();
            })
        })
        .collect();
    for _ in 0..THREADS {
        finished.recv().unwrap();
    }
    let live = (counts(&a), counts(&b));
    assert_eq!(live.0, (THREADS * CALLS, THREADS * CALLS * 16));
    assert_eq!(live.1, (THREADS * CALLS, THREADS * CALLS * 2));

    release.wait();
    for worker in workers {
        worker.join().unwrap();
    }
    // Every slot folded into its kernel's retired totals: nothing moved.
    assert_eq!((counts(&a), counts(&b)), live);
}

#[test]
fn a_kernel_dropped_under_a_running_thread_costs_it_nothing() {
    let (next, inbox) = mpsc::channel::<(Domain, DoorId)>();
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        // One kernel after another, each dropped by the time the next
        // arrives; the last is dropped before this thread exits, so its
        // destructors find a slot whose owner is gone.
        for (client, id) in inbox {
            call(&client, id, 4);
            drop(client);
            done.send(()).unwrap();
        }
    });
    let (survivor, client_s, id_s) = echo_kernel("survivor");
    for round in 0..4 {
        let (kernel, client, id) = echo_kernel("short-lived");
        next.send((client, id)).unwrap();
        finished.recv().unwrap();
        assert_eq!(counts(&kernel), (1, 8));
        drop(kernel);
        // The worker keeps counting for a kernel that outlives the others.
        next.send((client_s.clone(), id_s)).unwrap();
        finished.recv().unwrap();
        assert_eq!(counts(&survivor), (round + 1, (round + 1) * 8));
    }
    let (kernel, client, id) = echo_kernel("last");
    next.send((client, id)).unwrap();
    finished.recv().unwrap();
    drop(kernel);
    drop(next);
    worker.join().unwrap();
    assert_eq!(counts(&survivor), (4, 32));
}
