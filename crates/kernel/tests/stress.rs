//! Concurrency stress: many threads hammering doors, crashes included —
//! the kernel must stay consistent and deadlock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_kernel::{CallCtx, DoorError, DoorHandler, Kernel, Message};

struct Work {
    calls: AtomicU64,
}

impl DoorHandler for Work {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(msg)
    }
}

#[test]
fn concurrent_callers_and_lifecycle_churn() {
    let kernel = Kernel::new("stress");
    let server = kernel.create_domain("server");
    let work = Arc::new(Work {
        calls: AtomicU64::new(0),
    });
    let door = server.create_door(work.clone() as Arc<_>).unwrap();

    let threads = 8;
    let per_thread = 300;
    let mut joins = Vec::new();
    for t in 0..threads {
        let client = kernel.create_domain(format!("client-{t}"));
        let copy = server.copy_door(door).unwrap();
        let id = server.transfer_door(copy, &client).unwrap();
        joins.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                // Interleave calls with identifier churn.
                let extra = client.copy_door(id).unwrap();
                let reply = client.call(id, Message::from_bytes(vec![i as u8])).unwrap();
                assert_eq!(reply.bytes, vec![i as u8]);
                client.delete_door(extra).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(work.calls.load(Ordering::Relaxed), threads * per_thread);
}

#[test]
fn distinct_doors_parallel_callers_stay_live() {
    // One kernel, many independent client/server pairs: with per-domain
    // door tables these calls should proceed in parallel, and most of all
    // must never deadlock against each other.
    let kernel = Kernel::new("stress");
    let threads = 8;
    let per_thread = 2000u64;
    let work = Arc::new(Work {
        calls: AtomicU64::new(0),
    });

    let mut joins = Vec::new();
    for t in 0..threads {
        let server = kernel.create_domain(format!("server-{t}"));
        let client = kernel.create_domain(format!("client-{t}"));
        let door = server.create_door(work.clone() as Arc<_>).unwrap();
        let id = server.transfer_door(door, &client).unwrap();
        joins.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let reply = client
                    .call(id, Message::from_bytes(vec![(i % 251) as u8; 32]))
                    .unwrap();
                assert_eq!(reply.bytes[0], (i % 251) as u8);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(work.calls.load(Ordering::Relaxed), threads * per_thread);
    assert_eq!(kernel.stats().door_calls, threads * per_thread);
}

#[test]
fn door_carrying_messages_under_concurrency() {
    // Calls that transfer identifiers take two domain-table locks; run many
    // in parallel (including re-entrant same-domain transfers via the reply)
    // to exercise the ordered-acquisition path.
    let kernel = Kernel::new("stress");
    let threads = 8;
    let per_thread = 300;

    let mut joins = Vec::new();
    for t in 0..threads {
        let server = kernel.create_domain(format!("server-{t}"));
        let client = kernel.create_domain(format!("client-{t}"));
        // The handler passes every received identifier straight back.
        let door = server
            .create_door(Arc::new(|_: &CallCtx, m: Message| Ok(m)))
            .unwrap();
        let id = server.transfer_door(door, &client).unwrap();
        joins.push(std::thread::spawn(move || {
            for _ in 0..per_thread {
                // Ship a copy of our own door identifier through the call
                // and get it back (re-issued twice by translation).
                let extra = client.copy_door(id).unwrap();
                let reply = client
                    .call(
                        id,
                        Message {
                            bytes: vec![1, 2, 3],
                            doors: vec![extra],
                            ..Message::default()
                        },
                    )
                    .unwrap();
                assert_eq!(reply.doors.len(), 1);
                client.delete_door(reply.doors[0]).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let stats = kernel.stats();
    assert!(stats.ids_issued + stats.ids_transferred >= stats.ids_deleted);
}

#[test]
fn crash_races_with_callers_without_corruption() {
    let kernel = Kernel::new("stress");
    let mut joins = Vec::new();
    for round in 0..10 {
        let server = kernel.create_domain(format!("server-{round}"));
        let door = server
            .create_door(Arc::new(|_: &CallCtx, m: Message| Ok(m)))
            .unwrap();

        let mut clients = Vec::new();
        for c in 0..4 {
            let client = kernel.create_domain(format!("client-{round}-{c}"));
            let copy = server.copy_door(door).unwrap();
            let id = server.transfer_door(copy, &client).unwrap();
            clients.push((client, id));
        }

        // Callers race a crash; every call must either succeed or fail with
        // a crash-class error.
        for (client, id) in clients {
            joins.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    match client.call(id, Message::new()) {
                        Ok(_) => {}
                        Err(DoorError::Revoked) | Err(DoorError::DomainDead) => break,
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
            }));
        }
        let crasher = server.clone();
        joins.push(std::thread::spawn(move || {
            std::thread::yield_now();
            crasher.crash();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // The kernel's books still balance.
    let stats = kernel.stats();
    assert!(stats.ids_issued + stats.ids_transferred >= stats.ids_deleted);
}

/// A target that counts its `unreferenced` notifications.
struct Counted {
    unrefs: AtomicU64,
}

impl Counted {
    fn new() -> Arc<Self> {
        Arc::new(Counted {
            unrefs: AtomicU64::new(0),
        })
    }
}

impl DoorHandler for Counted {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }

    fn unreferenced(&self) {
        self.unrefs.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn last_identifier_deleted_while_a_call_is_inside_the_door() {
    use std::sync::mpsc::channel;

    /// Parks inside `invoke` until the test has deleted the identifier.
    struct Parked {
        entered: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
        resume: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        unrefs: AtomicU64,
    }
    impl DoorHandler for Parked {
        fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            self.entered.lock().unwrap().send(()).unwrap();
            self.resume.lock().unwrap().recv().unwrap();
            Ok(msg)
        }
        fn unreferenced(&self) {
            self.unrefs.fetch_add(1, Ordering::SeqCst);
        }
    }

    let kernel = Kernel::new("stress");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let baseline = kernel.live_doors();
    let (entered_tx, entered) = channel();
    let (resume, resume_rx) = channel();
    let target = Arc::new(Parked {
        entered: std::sync::Mutex::new(entered_tx),
        resume: std::sync::Mutex::new(resume_rx),
        unrefs: AtomicU64::new(0),
    });
    let door = server.create_door(target.clone() as Arc<_>).unwrap();
    let id = server.transfer_door(door, &client).unwrap();

    let caller = {
        let client = client.clone();
        std::thread::spawn(move || client.call(id, Message::from_bytes(vec![7])))
    };
    entered.recv().unwrap();
    // The caller is inside the door; its only identifier goes away.
    client.delete_door(id).unwrap();
    assert_eq!(target.unrefs.load(Ordering::SeqCst), 1);
    assert_eq!(kernel.live_doors(), baseline);
    resume.send(()).unwrap();
    // The call in flight completes on the door it already entered.
    assert_eq!(caller.join().unwrap().unwrap().bytes, vec![7]);
    assert_eq!(target.unrefs.load(Ordering::SeqCst), 1);
    assert_eq!(kernel.audit(), Ok(()));
    assert!(!client.door_is_valid(id));
}

#[test]
fn copy_races_delete_of_its_source() {
    let kernel = Kernel::new("stress");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let baseline = kernel.live_doors();
    for round in 0..500 {
        let target = Counted::new();
        let door = server.create_door(target.clone() as Arc<_>).unwrap();
        let id = server.transfer_door(door, &client).unwrap();
        let start = std::sync::Barrier::new(2);
        let copied = std::thread::scope(|s| {
            let copier = s.spawn(|| {
                start.wait();
                client.copy_door(id)
            });
            start.wait();
            client.delete_door(id).unwrap();
            copier.join().unwrap()
        });
        match copied {
            // The copy won: the door lives on under it alone.
            Ok(copy) => {
                assert_eq!(target.unrefs.load(Ordering::SeqCst), 0, "round {round}");
                assert_eq!(kernel.live_doors(), baseline + 1);
                client.call(copy, Message::new()).unwrap();
                client.delete_door(copy).unwrap();
            }
            // The delete won: there was nothing left to copy.
            Err(e) => assert_eq!(e, DoorError::InvalidDoor),
        }
        assert_eq!(target.unrefs.load(Ordering::SeqCst), 1, "round {round}");
        assert_eq!(kernel.live_doors(), baseline);
    }
    assert_eq!(kernel.audit(), Ok(()));
}

#[test]
fn crash_races_create_copy_and_door_carrying_calls() {
    let kernel = Kernel::new("stress");
    for round in 0..200 {
        let victim = kernel.create_domain(format!("victim-{round}"));
        let peer = kernel.create_domain(format!("peer-{round}"));
        let echo = peer
            .create_door(Arc::new(|_: &CallCtx, m: Message| Ok(m)))
            .unwrap();
        let echo = peer.transfer_door(echo, &victim).unwrap();
        let seed = victim.create_door(Counted::new()).unwrap();
        let start = std::sync::Barrier::new(4);

        std::thread::scope(|s| {
            // Each worker runs until the crash reaches it.
            s.spawn(|| {
                start.wait();
                while victim.create_door(Counted::new()).is_ok() {}
            });
            s.spawn(|| {
                start.wait();
                while victim.copy_door(seed).is_ok() {}
            });
            s.spawn(|| {
                start.wait();
                while let Ok(extra) = victim.copy_door(echo) {
                    let msg = Message {
                        doors: vec![extra],
                        ..Message::default()
                    };
                    if victim.call(echo, msg).is_err() {
                        break;
                    }
                }
            });
            start.wait();
            std::thread::yield_now();
            victim.crash();
        });

        // Every identifier the victim held died with it, none twice; what a
        // call left stranded in the peer dies with the peer.
        assert_eq!(kernel.audit(), Ok(()), "round {round}");
        assert!(!victim.door_is_valid(seed) && !victim.door_is_valid(echo));
        peer.crash();
        assert_eq!(kernel.audit(), Ok(()), "round {round}");
        assert_eq!(kernel.live_doors(), 0, "round {round}");
        let stats = kernel.stats();
        assert_eq!(stats.ids_issued, stats.ids_deleted);
        assert_eq!(stats.unref_notifications, stats.doors_created);
    }
}
