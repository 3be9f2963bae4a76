//! Socket transport tests: two independent `Network` instances in one test
//! process stand in for two OS processes — they share no state except the
//! socket between them, exactly like separate processes do (the true
//! multi-process proof, with release binaries, lives in the bench crate's
//! `multi_process` test). Raw hand-crafted frames play the byzantine peer.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spring_kernel::{CallCtx, DoorError, DoorHandler, Message, NodeId};
use spring_net::{NetConfig, Network};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

/// Invokes the first door in the message (a callback through whatever
/// proxy chain delivered it) and returns that door's reply bytes.
struct CallsBack;

impl DoorHandler for CallsBack {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let mut doors = msg.doors.into_iter();
        let target = doors.next().ok_or(DoorError::InvalidDoor)?;
        let nested = ctx.server.call(
            target,
            Message {
                bytes: msg.bytes,
                ..Message::default()
            },
        )?;
        Ok(Message {
            bytes: nested.bytes,
            ..Message::default()
        })
    }
}

/// Live identifier count for one kernel: issued minus deleted. Leak
/// regressions assert this returns to its pre-failure baseline.
fn live_ids(kernel: &spring_kernel::Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

/// Spins until `cond` holds, for assertions on counters bumped by the
/// connection's own threads slightly after the failing call returns.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

fn temp_sock(tag: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("spring-{}-{}-{n}.sock", std::process::id(), tag))
        .to_string_lossy()
        .into_owned()
}

/// One simulated "process": its own network, one node, an echo bootstrap.
fn echo_process(node: u64) -> (Arc<Network>, spring_net::Node) {
    let net = Network::new(NetConfig::default());
    let n = net.add_node_with_id(format!("proc-{node}"), node);
    let domain = n.kernel().create_domain("servants");
    let door = domain.create_door(Arc::new(Echo)).unwrap();
    net.set_bootstrap(n.id(), &domain, door).unwrap();
    (net, n)
}

fn roundtrip(client: &spring_kernel::Domain, door: spring_kernel::DoorId, payload: &[u8]) {
    let reply = client
        .call(
            door,
            Message {
                bytes: payload.to_vec(),
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.bytes, payload);
}

#[test]
fn door_calls_over_uds() {
    let (server_net, server_node) = echo_process(101);
    let path = temp_sock("uds");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 102);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    assert_eq!(peer.remote_node(), Some(NodeId::from_raw(101)));
    assert_eq!(peer.remote_name().as_deref(), Some("proc-101"));

    let door = peer.bootstrap_door(&client).unwrap();
    for i in 0..32u8 {
        roundtrip(&client, door, &[i, i ^ 0xff]);
    }

    let sent = client_net.socket_stats();
    assert!(sent.frames_sent >= 32);
    assert!(sent.frames_received >= 32);
    assert!(sent.bytes_sent > 0);
    let served = server_net.socket_stats();
    assert!(served.frames_received >= 32);
}

#[test]
fn door_calls_over_tcp() {
    let (server_net, server_node) = echo_process(111);
    let listener = server_net
        .listen_tcp(server_node.id(), "127.0.0.1:0")
        .unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 112);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net
        .connect_tcp(client_node.id(), listener.local_addr())
        .unwrap();

    let door = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, door, b"over tcp");
    roundtrip(&client, door, &[]);
}

/// A door identifier sent through the socket becomes a proxy on the far
/// side, and invoking it calls *back* across the same connection — the
/// nested call must not deadlock the link's reader.
#[test]
fn callback_across_the_same_connection() {
    let net_b = Network::new(NetConfig::default());
    let node_b = net_b.add_node_with_id("proc-b", 121);
    let domain_b = node_b.kernel().create_domain("servants");
    let caller = domain_b.create_door(Arc::new(CallsBack)).unwrap();
    net_b.set_bootstrap(node_b.id(), &domain_b, caller).unwrap();
    let path = temp_sock("callback");
    let _listener = net_b.listen_uds(node_b.id(), &path).unwrap();

    let net_a = Network::new(NetConfig::default());
    let node_a = net_a.add_node_with_id("proc-a", 122);
    let domain_a = node_a.kernel().create_domain("app");
    let peer = net_a.connect_uds(node_a.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&domain_a).unwrap();

    // Send our own echo door along; the servant invokes it re-entrantly.
    let echo = domain_a.create_door(Arc::new(Echo)).unwrap();
    let reply = domain_a
        .call(
            remote,
            Message {
                bytes: b"boomerang".to_vec(),
                doors: vec![echo],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.bytes, b"boomerang");
}

/// Satellite regression: a send that fails mid-frame must release every
/// export freshly pinned for the frame — and the next call must redial and
/// succeed, re-pinning from scratch.
#[test]
fn send_failure_releases_pinned_exports_and_redials() {
    let (server_net, server_node) = echo_process(131);
    let path = temp_sock("sendfail");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 132);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, remote, b"warm");

    let baseline = live_ids(client_node.kernel());
    peer.inject_write_faults(1);
    let payload = client.create_door(Arc::new(Echo)).unwrap();
    let carried = client.copy_door(payload).unwrap();
    let err = client
        .call(
            remote,
            Message {
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    // The carried copy was consumed by the call and the export pinned for
    // it rolled back: only `payload` itself may remain.
    assert_eq!(live_ids(client_node.kernel()), baseline + 1);
    wait_until("client disconnect count", || {
        client_net.socket_stats().disconnects == 1
    });

    // The connection died with the injected fault; the next call redials.
    let reply = client
        .call(
            remote,
            Message {
                doors: vec![payload],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.doors.len(), 1);
    // The successful send leaves exactly two identifiers above baseline:
    // the export-table pin for the shipped door and the returned copy that
    // came home in the echo — and crucially not a third from the failed
    // attempt.
    assert_eq!(live_ids(client_node.kernel()), baseline + 2);
}

/// Keeps the first door it is handed, for the test to call later.
struct Stash(std::sync::Mutex<Option<spring_kernel::DoorId>>);

impl DoorHandler for Stash {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        *self.0.lock().unwrap() = msg.doors.first().copied();
        Ok(Message::default())
    }
}

/// A proxy door caches its route, transport included. When the client's
/// connection dies and it dials again, the accepting side registers a *new*
/// transport for the client's node; a callback door the server used over
/// the old connection must follow it, not fail on the dead one forever.
#[test]
fn warm_callback_proxy_follows_the_redialled_transport() {
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-server", 171);
    let servants = server_node.kernel().create_domain("servants");
    let stash = Arc::new(Stash(std::sync::Mutex::new(None)));
    let door = servants.create_door(stash.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = temp_sock("reroute");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 172);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let echo = client.create_door(Arc::new(Echo)).unwrap();
    let hand_over = Message {
        doors: vec![echo],
        ..Message::default()
    };
    client.call(remote, hand_over).unwrap();
    let callback = stash.0.lock().unwrap().expect("the server kept the door");
    roundtrip(&servants, callback, b"over the first connection");

    // Kill the connection from the client's side, then let the client's
    // next call dial a fresh one.
    peer.inject_write_faults(1);
    assert!(client.call(remote, Message::default()).is_err());
    client.call(remote, Message::default()).unwrap();
    assert_eq!(peer.redials(), 1);

    roundtrip(&servants, callback, b"over the second connection");
}

/// Satellite regression: a *reply* frame lost on the wire must release the
/// exports the serving side pinned while staging it (the identifiers a
/// servant minted into the reply), while the caller sees `Comm`.
#[test]
fn lost_reply_releases_server_side_reply_exports() {
    struct DoorMaker;
    impl DoorHandler for DoorMaker {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            let fresh = ctx.server.create_door(Arc::new(Echo))?;
            Ok(Message {
                doors: vec![fresh],
                ..Message::default()
            })
        }
    }

    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-maker", 161);
    let domain = server_node.kernel().create_domain("servants");
    let door = domain.create_door(Arc::new(DoorMaker)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &domain, door)
        .unwrap();
    let path = temp_sock("replyloss");
    let listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 162);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    // Warm call: the reply delivers a freshly minted door as a proxy.
    let warm = client.call(remote, Message::new()).unwrap();
    assert_eq!(warm.doors.len(), 1);
    let server_baseline = live_ids(server_node.kernel());

    // The next reply frame dies in the server's writer: the servant minted
    // and pinned a door for it, and both must be released.
    listener.inject_write_faults(1);
    let err = client.call(remote, Message::new()).unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    wait_until("server reply exports released", || {
        live_ids(server_node.kernel()) == server_baseline
    });

    // The client redials and the service keeps working.
    let again = client.call(remote, Message::new()).unwrap();
    assert_eq!(again.doors.len(), 1);
}

// ---------------------------------------------------------------------------
// Hand-crafted frames: the byzantine peer.
// ---------------------------------------------------------------------------

fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A wire-format HELLO: `[kind=1][u64 node][u8 has_boot][u64 boot][u16
/// name_len][name]`.
fn hello_payload(node: u64, boot: Option<u64>) -> Vec<u8> {
    let mut p = vec![1u8];
    p.extend_from_slice(&node.to_le_bytes());
    p.push(boot.is_some() as u8);
    p.extend_from_slice(&boot.unwrap_or(0).to_le_bytes());
    p.extend_from_slice(&0u16.to_le_bytes());
    p
}

/// Reads one length-prefixed frame off a raw socket.
fn read_raw_frame(s: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    s.read_exact(&mut payload)?;
    Ok(payload)
}

/// Satellite regression: frames whose declared counts or lengths disagree
/// with the bytes received are rejected with a typed error — the serving
/// process neither panics nor hangs, and keeps accepting fresh
/// connections.
#[test]
fn malformed_frames_are_rejected_not_trusted() {
    let (server_net, server_node) = echo_process(141);
    let listener = server_net
        .listen_tcp(server_node.id(), "127.0.0.1:0")
        .unwrap();
    let addr = listener.local_addr().to_string();

    // Byzantine frames, each tried on a fresh connection after a valid
    // handshake: a request whose cap count lies far past the frame end, a
    // request cut off mid-payload, trailing garbage past the declared
    // counts, an unknown frame kind, and a length prefix promising bytes
    // that never arrive.
    let lying_caps = {
        let mut p = vec![2u8];
        p.extend_from_slice(&1u64.to_le_bytes()); // frame id
        p.extend_from_slice(&1u32.to_le_bytes()); // one call
        p.extend_from_slice(&1u64.to_le_bytes()); // export
        p.extend_from_slice(&[0u8; 36]); // call id + trace
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // ncaps: a lie
        p
    };
    let truncated = {
        let mut p = vec![2u8];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.truncate(9); // cut mid-header
        p
    };
    let trailing = {
        let mut p = vec![2u8];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes()); // zero calls...
        p.push(0xEE); // ...but one stray byte
        p
    };
    let bad_kind = vec![9u8, 0, 0, 0];
    for payload in [&lying_caps, &truncated, &trailing, &bad_kind] {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bytes = Vec::new();
        put_frame(&mut bytes, &hello_payload(999, None));
        put_frame(&mut bytes, payload);
        s.write_all(&bytes).unwrap();
        let _their_hello = read_raw_frame(&mut s).unwrap();
        // The server must tear the connection down (typed rejection), never
        // hang on it: EOF, not a timeout.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server sent {} stray bytes", rest.len());
    }

    // A length prefix that promises more than arrives, then EOF: the
    // reader reports the truncation rather than waiting forever.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut bytes = Vec::new();
        put_frame(&mut bytes, &hello_payload(999, None));
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[7u8; 10]); // 10 of the promised 100
        s.write_all(&bytes).unwrap();
        drop(s);
    }

    // The server survived it all and still serves real peers.
    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 142);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), &addr).unwrap();
    let door = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, door, b"still alive");
    assert!(server_net.socket_stats().disconnects >= 4);
}

/// Satellite regression: a peer that disconnects mid-call fails the
/// in-flight calls with `Comm` and releases every export pinned for the
/// frame — nothing hangs, nothing leaks.
#[test]
fn peer_disconnect_mid_call_fails_with_comm_and_releases_pins() {
    // A byzantine peer that completes the handshake, reads one request,
    // and vanishes without replying.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _client_hello = read_raw_frame(&mut s).unwrap();
        let mut hello = Vec::new();
        put_frame(&mut hello, &hello_payload(901, Some(7)));
        s.write_all(&hello).unwrap();
        let _request = read_raw_frame(&mut s).unwrap();
        // Vanish with the call in flight.
        drop(s);
    });

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 151);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), &addr).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let baseline = live_ids(client_node.kernel());
    let carried = client.create_door(Arc::new(Echo)).unwrap();
    let err = client
        .call(
            remote,
            Message {
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    assert_eq!(live_ids(client_node.kernel()), baseline);
    fake.join().unwrap();

    // With the peer gone for good, later calls keep failing with `Comm`
    // (the redial finds nobody listening) rather than wedging.
    let err = client.call(remote, Message::new()).unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
}

/// Servant for the fault sweep: byte 0 echoes, byte 1 mints a fresh door
/// into the reply (so a lost reply frame exercises the serving side's
/// reply-pin rollback).
struct EchoOrMint;

impl DoorHandler for EchoOrMint {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        if msg.bytes.first() == Some(&1) {
            let fresh = ctx.server.create_door(Arc::new(Echo))?;
            return Ok(Message {
                doors: vec![fresh],
                ..Message::default()
            });
        }
        Ok(msg)
    }
}

/// One deterministic run of the socket fault sweep: warm call, injected
/// send-frame fault with a carried door, redial, minted-door round trip,
/// injected reply-frame fault, recovery. Returns the observed taxonomy —
/// one label per step, including the error class and the live-identifier
/// deltas on both sides — so runs under different configurations can be
/// compared verbatim.
fn socket_fault_sweep(fastpath: bool, tag: &str) -> Vec<String> {
    let cfg = NetConfig {
        socket_fastpath: fastpath,
        ..NetConfig::default()
    };
    let server_net = Network::new(cfg);
    let server_node = server_net.add_node_with_id("sweep-server", 171);
    let server_domain = server_node.kernel().create_domain("servants");
    let boot = server_domain.create_door(Arc::new(EchoOrMint)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &server_domain, boot)
        .unwrap();
    let path = temp_sock(tag);
    let listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(cfg);
    let client_node = client_net.add_node_with_id("sweep-client", 172);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let mut taxonomy = Vec::new();
    let mut step = |label: String| taxonomy.push(label);

    // Step 1: warm round trip.
    roundtrip(&client, remote, b"\0warm");
    step("warm:ok".into());
    let base = live_ids(client_node.kernel());
    let server_base = live_ids(server_node.kernel());

    // Step 2: a send-frame fault with a carried door — Comm, and the pin
    // for the carried copy rolls back (only the original door remains).
    peer.inject_write_faults(1);
    let payload = client.create_door(Arc::new(Echo)).unwrap();
    let carried = client.copy_door(payload).unwrap();
    let err = client
        .call(
            remote,
            Message {
                bytes: vec![0],
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    step(format!("sendfault:comm={}", err.is_comm_failure()));
    step(format!(
        "sendfault:pins=+{}",
        live_ids(client_node.kernel()) - base
    ));

    // Step 3: the next call redials and succeeds, shipping the door.
    let reply = client
        .call(
            remote,
            Message {
                bytes: vec![0],
                doors: vec![payload],
                ..Message::default()
            },
        )
        .unwrap();
    step(format!("redial:doors={}", reply.doors.len()));
    for d in reply.doors {
        // `payload` itself was consumed by the call (transferred to the
        // server, which echoed back a proxy); only the copies that came
        // home are ours to delete.
        client.delete_door(d).unwrap();
    }

    // Step 4: minted-door round trip (pins reply-side exports), clean.
    let minted = client
        .call(remote, Message::from_bytes(vec![1]))
        .unwrap()
        .doors;
    step(format!("mint:doors={}", minted.len()));
    for d in minted {
        client.delete_door(d).unwrap();
    }

    // Unref notifications from the deletes above propagate asynchronously;
    // wait for the server's identifier count to stop moving, then take
    // that as the pre-reply-fault snapshot.
    let server_mid = {
        let mut last = live_ids(server_node.kernel());
        let mut stable = 0;
        while stable < 20 {
            std::thread::sleep(Duration::from_millis(10));
            let now = live_ids(server_node.kernel());
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        last
    };
    step(format!(
        "settled:server=+{}",
        server_mid as i64 - server_base as i64
    ));

    // Step 5: a reply-frame fault on a minting call — Comm on the caller,
    // and the server releases the export (and the minted door) it pinned
    // while staging the reply.
    listener.inject_write_faults(1);
    let err = client
        .call(remote, Message::from_bytes(vec![1]))
        .unwrap_err();
    step(format!("replyfault:comm={}", err.is_comm_failure()));
    wait_until("server reply pins released", || {
        live_ids(server_node.kernel()) == server_mid
    });
    step("replyfault:server-pins=+0".into());

    // Step 6: recovery, then the final accounting on both sides.
    roundtrip(&client, remote, b"\0recovered");
    step("recovered:ok".into());
    step(format!(
        "final:client=+{} server=+{}",
        live_ids(client_node.kernel()) as i64 - base as i64,
        live_ids(server_node.kernel()) as i64 - server_mid as i64
    ));
    // Both sides observed exactly the two injected deaths (the counters
    // are bumped by connection threads, so settle them first).
    wait_until("disconnect counters settle", || {
        client_net.socket_stats().disconnects == 2 && server_net.socket_stats().disconnects == 2
    });
    step("disconnects:client=2 server=2".into());
    taxonomy
}

/// Tentpole invariant: the same-thread send fast path is a pure handoff
/// elision. The full fault sweep — send faults, reply faults, redials,
/// carried and minted doors — must produce the identical error taxonomy,
/// pin-release accounting, and disconnect counts with the fast path forced
/// on and forced off.
#[test]
fn fault_sweep_taxonomy_identical_with_fastpath_on_and_off() {
    let on = socket_fault_sweep(true, "sweep-on");
    let off = socket_fault_sweep(false, "sweep-off");
    assert_eq!(
        on, off,
        "fast path changed observable failure semantics:\n on={on:#?}\noff={off:#?}"
    );
    // And the sweep itself saw what it was designed to see.
    assert!(on.contains(&"sendfault:comm=true".to_string()), "{on:?}");
    assert!(on.contains(&"replyfault:comm=true".to_string()), "{on:?}");
    assert!(on.contains(&"sendfault:pins=+1".to_string()), "{on:?}");
}

/// Satellite regression: sends racing a link that died mid-burst run their
/// failure cleanups immediately from the dead check — they must not queue
/// behind the writer lock of a corpse. Every concurrent caller settles
/// with `Comm` (the byzantine peer is gone for good), nothing hangs, and
/// every export pinned across the burst rolls back.
#[test]
fn dead_link_burst_fails_fast_and_releases_pins() {
    // A byzantine peer: handshake, read exactly one request, vanish.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _client_hello = read_raw_frame(&mut s).unwrap();
        let mut hello = Vec::new();
        put_frame(&mut hello, &hello_payload(902, Some(7)));
        s.write_all(&hello).unwrap();
        let _request = read_raw_frame(&mut s).unwrap();
        drop(s);
        // The listener drops here too: every redial finds nobody home.
    });

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 181);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), &addr).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let baseline = live_ids(client_node.kernel());

    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..8u8 {
            let client = &client;
            let client_node = &client_node;
            s.spawn(move || {
                // Each caller ships a carried door so a leak is visible.
                let payload = client.create_door(Arc::new(Echo)).unwrap();
                let err = client
                    .call(
                        remote,
                        Message {
                            bytes: vec![t],
                            doors: vec![payload],
                            ..Message::default()
                        },
                    )
                    .unwrap_err();
                assert!(
                    err.is_comm_failure(),
                    "thread {t}: expected Comm, got {err:?}"
                );
                let _ = client_node; // pins checked after the scope joins
            });
        }
    });
    fake.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "burst took {:?} — dead-link sends are queueing instead of failing fast",
        started.elapsed()
    );
    // All carried copies were consumed and their pins rolled back.
    wait_until("burst pins released", || {
        live_ids(client_node.kernel()) == baseline
    });
}

/// Satellite regression: shippers racing a dead connection must produce
/// exactly one redial per observed death — never one connection (and one
/// writer thread) per racer — and the slot lock is never held across the
/// blocking dial, so the stampede itself makes progress. Hammered across
/// several injected-fault rounds.
#[test]
fn redial_is_single_flight_under_concurrent_hammer() {
    let (server_net, server_node) = echo_process(141);
    let path = temp_sock("redial");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 142);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, remote, b"warm");
    assert_eq!(peer.redials(), 0, "a healthy link never redials");

    const ROUNDS: u64 = 5;
    const THREADS: u8 = 12;
    for round in 1..=ROUNDS {
        // One armed fault kills the connection on the next write...
        peer.inject_write_faults(1);
        let _ = client.call(remote, Message::from_bytes(vec![0]));
        wait_until("client disconnect count", || {
            client_net.socket_stats().disconnects == round
        });
        // ...then a stampede races the lazy redial. Calls overlapping the
        // corpse may fail with Comm; each thread retries until the link is
        // back, and every thread must get there.
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let client = &client;
                s.spawn(move || {
                    for _ in 0..500 {
                        match client.call(remote, Message::from_bytes(vec![t])) {
                            Ok(reply) => {
                                assert_eq!(reply.bytes, vec![t]);
                                return;
                            }
                            Err(e) => {
                                assert!(e.is_comm_failure(), "only Comm expected, got {e:?}")
                            }
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    panic!("link never came back in round {round}");
                });
            }
        });
        assert_eq!(
            peer.redials(),
            round,
            "exactly one dial per death, however many shippers race it"
        );
    }
    roundtrip(&client, remote, b"after the storm");
    assert_eq!(peer.redials(), ROUNDS);
}
