//! Per-link batching under concurrency and faults.
//!
//! Concurrent callers on one (source, destination) link coalesce into
//! shared wire frames. These tests prove the properties the batcher must
//! not trade away: every call still completes and is counted exactly once
//! (stress), no parked follower ever misses its wake-up, a request frame
//! lost on the wire releases the export pins of *every* call aboard (not
//! just the leader's), and a lost reply frame releases every reply-door
//! export the serving node just pinned.
//!
//! The fault tests append their seeds to `target/pipeline-seeds.txt` so a
//! CI failure reports exactly which RNG seeds were exercised.

use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use spring_kernel::{batching, CallCtx, DoorError, DoorHandler, FaultRng, Message};
use spring_net::{NetConfig, Network};

/// The announced-call count is process-global, so tests that raise it must
/// not overlap (a parallel test's single calls would wait out the linger).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

/// Mints a fresh door into every reply — the call shape whose lost reply
/// would strand an export-table pin on the serving node.
struct DoorMaker;

impl DoorHandler for DoorMaker {
    fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
        let d = ctx.server.create_door(Arc::new(Echo))?;
        Ok(Message {
            doors: vec![d],
            ..Message::default()
        })
    }
}

/// Live identifier count for one kernel: issued minus deleted.
fn live_ids(kernel: &spring_kernel::Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

/// Records the seeds a fault sweep ran, for CI to upload on failure.
fn record_seeds(suite: &str, drop_prob: f64, seeds: &[u64]) {
    // Tests run with the package dir as cwd; aim at the workspace-level
    // target/ so CI's artifact upload finds the file.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("pipeline-seeds.txt"))
    {
        let list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(f, "{suite}: drop_prob={drop_prob} seeds={}", list.join(","));
    }
}

/// Ships a door served by `handler` from a fresh server domain on
/// `server_node` into a fresh client domain on `client_node`, returning
/// (client domain, proxy door).
fn echo_proxy(
    net: &Network,
    server_node: &spring_net::Node,
    client_node: &spring_net::Node,
    handler: Arc<dyn DoorHandler>,
) -> (spring_kernel::Domain, spring_kernel::DoorId) {
    let server = server_node.kernel().create_domain("server");
    let client = client_node.kernel().create_domain("client");
    let door = server.create_door(handler).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    (client, arrived.doors[0])
}

/// Eight threads hammer one link concurrently, each announcing itself so
/// the batcher actually coalesces. Every call must succeed, and the
/// batched/unbatched counters must account for every forwarded call
/// exactly once.
#[test]
fn concurrent_callers_all_complete_and_are_counted_once() {
    let _gate = gate();
    const THREADS: usize = 8;
    const CALLS_PER_THREAD: usize = 50;

    // A generous linger (vs the 200 µs default) so that on a single-core
    // host a waiting leader reliably yields to the follower threads
    // instead of timing out before they are ever scheduled.
    let net = Network::new(NetConfig {
        batch_linger: Duration::from_millis(10),
        ..NetConfig::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (client, proxy) = echo_proxy(&net, &b, &a, Arc::new(Echo));
    let client = Arc::new(client);

    let before = net.stats();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = Arc::clone(&client);
            let start = &start;
            s.spawn(move || {
                // Announce one in-flight call for the thread's whole run, so
                // leaders hold frames open for the other threads; the barrier
                // makes every announcement visible before the first call, so
                // early frames cannot flush as singletons just because the
                // scheduler ran one thread's whole loop first.
                let _announced = batching::announce_scope();
                start.wait();
                for i in 0..CALLS_PER_THREAD {
                    let payload = vec![t as u8, i as u8];
                    let reply = client
                        .call(proxy, Message::from_bytes(payload.clone()))
                        .unwrap();
                    assert_eq!(reply.bytes, payload, "echo must round-trip per call");
                }
            });
        }
    });
    let delta = net.stats().since(&before);

    let total = (THREADS * CALLS_PER_THREAD) as u64;
    assert_eq!(delta.calls_forwarded, total);
    assert_eq!(
        delta.calls_batched + delta.calls_unbatched,
        total,
        "every forwarded call must be counted as batched or unbatched, once",
    );
    assert!(
        delta.calls_batched > 0,
        "eight announced concurrent callers must share at least one frame",
    );
    assert!(
        delta.batch_flushes < total,
        "coalescing must produce fewer flushes than calls",
    );
}

/// A settler notifies a slot's condvar only when its waiter is parked. With
/// every caller announced, each frame waits for all of them: one leads, the
/// rest push their entry and then park — or find the outcome already there,
/// when the leader shipped in between. Both orders occur over a thousand
/// frames, and a wake-up lost in either would hang its caller for good, so
/// the callers run detached under a watchdog.
#[test]
fn parked_followers_are_always_woken() {
    let _gate = gate();
    const THREADS: usize = 4;
    const ROUNDS: usize = 1_000;

    let net = Network::new(NetConfig {
        // Far above the test's runtime: frames flush because everyone
        // announced is aboard, never because time passed.
        batch_linger: Duration::from_secs(30),
        ..NetConfig::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (client, proxy) = echo_proxy(&net, &b, &a, Arc::new(Echo));
    let client = Arc::new(client);

    let before = net.stats();
    let start = Arc::new(std::sync::Barrier::new(THREADS));
    let (done, finished) = std::sync::mpsc::channel();
    for t in 0..THREADS {
        let (client, start, done) = (Arc::clone(&client), Arc::clone(&start), done.clone());
        std::thread::spawn(move || {
            let _announced = batching::announce_scope();
            start.wait();
            for i in 0..ROUNDS {
                let payload = vec![t as u8, i as u8];
                let reply = client.call(proxy, Message::from_bytes(payload.clone()));
                assert_eq!(reply.unwrap().bytes, payload);
            }
            done.send(()).unwrap();
        });
    }
    for _ in 0..THREADS {
        finished
            .recv_timeout(Duration::from_secs(20))
            .expect("a caller never returned: lost wake-up");
    }

    // Every frame carried one call from each thread, so followers existed
    // in every round.
    let delta = net.stats().since(&before);
    assert_eq!(delta.batch_flushes, ROUNDS as u64);
    assert_eq!(delta.calls_batched, (THREADS * ROUNDS) as u64);
}

/// A request frame lost on the wire fails every call aboard and releases
/// every export pin — the batch generalization of
/// `lost_call_attempts_do_not_pin_argument_exports`.
#[test]
fn lost_request_frame_releases_every_callers_exports() {
    let _gate = gate();
    const CALLERS: usize = 6;

    let net = Network::new(NetConfig {
        // A linger far above the test's runtime: the frame must flush
        // because all announced calls arrived, not because time passed.
        batch_linger: Duration::from_secs(5),
        ..NetConfig::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (client, proxy) = echo_proxy(&net, &b, &a, Arc::new(Echo));
    let client = Arc::new(client);

    let baseline = live_ids(a.kernel());
    net.set_config(NetConfig {
        drop_prob: 1.0,
        batch_linger: Duration::from_secs(5),
        ..NetConfig::default()
    });

    // Announce all callers up front so the leader holds the frame open
    // until every one of them is aboard — one frame, one loss, six losers.
    for _ in 0..CALLERS {
        batching::announce();
    }
    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            let client = Arc::clone(&client);
            s.spawn(move || {
                // Every call pins a door-argument export before the frame
                // ships; the frame-wide rollback must release it.
                let arg = client.create_door(Arc::new(Echo)).unwrap();
                let msg = Message {
                    bytes: vec![1],
                    doors: vec![arg],
                    ..Message::default()
                };
                match client.call(proxy, msg).unwrap_err() {
                    DoorError::Comm(why) => assert!(why.contains("lost"), "{why}"),
                    other => panic!("expected loss, got {other:?}"),
                }
            });
        }
    });
    for _ in 0..CALLERS {
        batching::retract();
    }

    net.set_config(NetConfig::default());
    assert_eq!(
        live_ids(a.kernel()),
        baseline,
        "a lost batch frame must release the pinned exports of all {CALLERS} calls",
    );
}

/// A reply frame lost on the wire releases the reply-door exports of every
/// call aboard. Seeded so exactly the reply roll drops: the batcher rolls
/// the RNG once per frame per direction, request first.
#[test]
fn lost_reply_frame_releases_every_reply_export() {
    let _gate = gate();
    const CALLERS: usize = 4;
    const DROP: f64 = 0.5;

    // Find a seed whose first roll survives and whose second drops.
    let mut seed = 0u64;
    loop {
        let mut rng = FaultRng::seed_from_u64(seed);
        if rng.unit_f64() >= DROP && rng.unit_f64() < DROP {
            break;
        }
        seed += 1;
    }
    record_seeds("lost_reply_frame", DROP, &[seed]);

    let net = Network::new(NetConfig {
        batch_linger: Duration::from_secs(5),
        ..NetConfig::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (client, proxy) = echo_proxy(&net, &b, &a, Arc::new(DoorMaker));
    let client = Arc::new(client);

    let baseline = live_ids(b.kernel());
    net.reseed(seed);
    net.set_config(NetConfig {
        drop_prob: DROP,
        batch_linger: Duration::from_secs(5),
        ..NetConfig::default()
    });

    for _ in 0..CALLERS {
        batching::announce();
    }
    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            let client = Arc::clone(&client);
            s.spawn(move || {
                // The handler executes and mints a reply door; the reply
                // frame is then dropped, so the call fails and the serving
                // node must unpin (and thereby destroy) the minted door.
                assert!(client.call(proxy, Message::new()).is_err());
            });
        }
    });
    for _ in 0..CALLERS {
        batching::retract();
    }

    net.set_config(NetConfig::default());
    assert_eq!(
        live_ids(b.kernel()),
        baseline,
        "a lost reply frame must release every reply-door export it carried",
    );
}

/// Rejects the poisoned payload, echoes everything else — one bad call in
/// an otherwise healthy frame.
struct Picky;

impl DoorHandler for Picky {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        if msg.bytes == [0xFF] {
            return Err(DoorError::Handler("poisoned".into()));
        }
        Ok(msg)
    }
}

/// Batching keeps per-call failure isolation: a frame with one failing
/// call aboard fails only that call; its seatmates land normally.
#[test]
fn one_bad_call_does_not_fail_its_seatmates() {
    let _gate = gate();
    const GOOD: usize = 3;

    let net = Network::new(NetConfig {
        batch_linger: Duration::from_secs(5),
        ..NetConfig::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (client, proxy) = echo_proxy(&net, &b, &a, Arc::new(Picky));
    let client = Arc::new(client);

    // All four callers announced: they ride one frame together.
    for _ in 0..GOOD + 1 {
        batching::announce();
    }
    let good_results: Vec<bool> = std::thread::scope(|s| {
        let bad = {
            let client = Arc::clone(&client);
            s.spawn(move || client.call(proxy, Message::from_bytes(vec![0xFF])).is_err())
        };
        let goods: Vec<_> = (0..GOOD)
            .map(|i| {
                let client = Arc::clone(&client);
                s.spawn(move || {
                    let reply = client.call(proxy, Message::from_bytes(vec![i as u8]));
                    reply.is_ok_and(|r| r.bytes == vec![i as u8])
                })
            })
            .collect();
        assert!(bad.join().unwrap(), "the poisoned call must fail");
        goods.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for _ in 0..GOOD + 1 {
        batching::retract();
    }
    assert!(
        good_results.iter().all(|&ok| ok),
        "calls sharing a frame with a failing one must still succeed: {good_results:?}",
    );
}
