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
        let nested = ctx.server().call(
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

/// Echoes the payload in a reply of its own, which carries no envelope.
fn fresh_reply(_: &CallCtx, msg: Message) -> Result<Message, DoorError> {
    Ok(Message::from_bytes(msg.bytes))
}

/// The wire bytes of one call as the benchmark counts them — both frames,
/// length prefixes included, from `socket_stats()`: an untraced,
/// identity-free echo of k bytes moves 61 + 2k, each envelope being its
/// one flag byte, and a call identity on the request adds its 20 bytes.
#[test]
fn an_envelope_sends_only_what_is_set() {
    assert!(!spring_trace::enabled());
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-bytes", 121);
    let servants = server_node.kernel().create_domain("servants");
    let door = servants.create_door(Arc::new(fresh_reply)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = temp_sock("bytes");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 122);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let wire_bytes = |k: u64, call: spring_kernel::CallId| {
        let before = client_net.socket_stats();
        let msg = Message {
            bytes: vec![7; k as usize],
            call,
            ..Message::default()
        };
        assert_eq!(client.call(remote, msg).unwrap().bytes.len(), k as usize);
        let s = client_net.socket_stats().since(&before);
        assert_eq!((s.frames_sent, s.frames_received), (1, 1));
        s.bytes_sent + s.bytes_received + 4 * (s.frames_sent + s.frames_received)
    };
    for k in [0, 1, 16, 1000] {
        assert_eq!(wire_bytes(k, spring_kernel::CallId::NONE), 61 + 2 * k);
        let id = spring_kernel::CallId {
            nonce: spring_kernel::callid::next_nonce(),
            attempt: 1,
            deadline_micros: spring_kernel::callid::deadline_after(Duration::from_secs(60)),
        };
        assert_eq!(wire_bytes(k, id), 81 + 2 * k);
    }
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
            let fresh = ctx.server().create_door(Arc::new(Echo))?;
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

/// HELLO role: the dialer calls on the socket.
const CALLS: u8 = 0;
/// HELLO role: the dialer serves the socket.
const SERVES: u8 = 1;

/// A wire-format HELLO: `[kind=1][u64 node][u8 has_boot][u64 boot][u8
/// role][u64 generation][u16 name_len][name]`.
fn hello_payload(node: u64, boot: Option<u64>, role: u8, generation: u64) -> Vec<u8> {
    let mut p = vec![1u8];
    p.extend_from_slice(&node.to_le_bytes());
    p.push(boot.is_some() as u8);
    p.extend_from_slice(&boot.unwrap_or(0).to_le_bytes());
    p.push(role);
    p.extend_from_slice(&generation.to_le_bytes());
    p.extend_from_slice(&0u16.to_le_bytes());
    p
}

/// The role and generation a dialer's HELLO asked for (the byzantine
/// acceptors echo them, as a real one does).
fn asked(hello: &[u8]) -> (u8, u64) {
    (
        hello[18],
        u64::from_le_bytes(hello[19..27].try_into().unwrap()),
    )
}

/// Reads one length-prefixed frame off a raw socket.
fn read_raw_frame(s: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    s.read_exact(&mut payload)?;
    Ok(payload)
}

/// A byzantine acceptor's half of the HELLO exchange on the next inbound
/// socket: read the dialer's HELLO, answer as `node` echoing the role and
/// generation it asked for. Returns the socket and that role.
fn fake_accept(listener: &std::net::TcpListener, node: u64) -> (TcpStream, u8) {
    let (mut s, _) = listener.accept().unwrap();
    let theirs = read_raw_frame(&mut s).unwrap();
    let (role, generation) = asked(&theirs);
    let mut hello = Vec::new();
    put_frame(&mut hello, &hello_payload(node, Some(7), role, generation));
    s.write_all(&hello).unwrap();
    (s, role)
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
        p.push(0); // envelope: no call id, no trace
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
    // Each fresh connection is the next generation of the byzantine
    // dialer's link, as a real dialer's redial would be.
    let mut generation = 0;
    for payload in [&lying_caps, &truncated, &trailing, &bad_kind] {
        generation += 1;
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bytes = Vec::new();
        put_frame(&mut bytes, &hello_payload(999, None, CALLS, generation));
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
        put_frame(&mut bytes, &hello_payload(999, None, CALLS, generation + 1));
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
        // The link opens with a calling socket and a spare serving one.
        let (mut calls, role) = fake_accept(&listener, 901);
        assert_eq!(role, CALLS);
        let (_spare, role) = fake_accept(&listener, 901);
        assert_eq!(role, SERVES);
        let _request = read_raw_frame(&mut calls).unwrap();
        // Vanish with the call in flight.
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
            let fresh = ctx.server().create_door(Arc::new(Echo))?;
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
/// deltas on both sides.
fn socket_fault_sweep() -> Vec<String> {
    let cfg = NetConfig::default();
    let server_net = Network::new(cfg);
    let server_node = server_net.add_node_with_id("sweep-server", 171);
    let server_domain = server_node.kernel().create_domain("servants");
    let boot = server_domain.create_door(Arc::new(EchoOrMint)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &server_domain, boot)
        .unwrap();
    let path = temp_sock("sweep");
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

    // The deletes above stay on the client (nothing crosses the wire for
    // them); the server may still be finishing the replies the client has
    // read. Once it has counted each of them as sent, it is done with
    // their calls and its identifier count is the pre-reply-fault snapshot.
    wait_until("the server to finish the replies the client read", || {
        server_net.socket_stats().frames_sent == client_net.socket_stats().frames_received
    });
    let server_mid = live_ids(server_node.kernel());
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

/// The full fault sweep — send faults, reply faults, redials, carried and
/// minted doors — produces exactly this error taxonomy, pin-release
/// accounting and disconnect count: every frame is written by the thread
/// that owns its cleanup, so there is one shipping path to sweep.
#[test]
fn fault_sweep_taxonomy() {
    assert_eq!(
        socket_fault_sweep(),
        [
            "warm:ok",
            "sendfault:comm=true",
            "sendfault:pins=+1",
            "redial:doors=1",
            "mint:doors=1",
            "settled:server=+2",
            "replyfault:comm=true",
            "replyfault:server-pins=+0",
            "recovered:ok",
            "final:client=+2 server=+0",
            "disconnects:client=2 server=2",
        ]
    );
}

/// Satellite regression: calls racing a link that died mid-burst fail from
/// the dead check or their own socket's EOF — none waits on a corpse.
/// Every concurrent caller settles
/// with `Comm` (the byzantine peer is gone for good), nothing hangs, and
/// every export pinned across the burst rolls back.
#[test]
fn dead_link_burst_fails_fast_and_releases_pins() {
    // A byzantine peer: handshake, read exactly one request, vanish.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut calls, _) = fake_accept(&listener, 902);
        let (_spare, _) = fake_accept(&listener, 902);
        let _request = read_raw_frame(&mut calls).unwrap();
        // The listener drops here too: the further call sockets the burst
        // is dialling are reset in its backlog, and every redial finds
        // nobody home.
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
/// exactly one redial per observed death — never one link generation per
/// racer — and the slot lock is never held across the
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
                let (client, peer) = (&client, &peer);
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
                        // A call fails only once a shipper has redialled
                        // (each ship on a dead link redials first): wait
                        // for that redial, not for a guess at its length.
                        wait_until("the redial", || peer.redials() >= round);
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

// ---------------------------------------------------------------------------
// Call sockets: what one-call-per-socket guarantees, and what bounds it.
// ---------------------------------------------------------------------------

/// Dials `addr` as a raw peer and runs the dialer's half of the HELLO
/// exchange. `None` if the acceptor dropped the socket instead of
/// answering; the echo must name the role and generation asked for.
fn raw_dial(addr: &str, node: u64, role: u8, generation: u64) -> Option<TcpStream> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut bytes = Vec::new();
    put_frame(&mut bytes, &hello_payload(node, None, role, generation));
    s.write_all(&bytes).unwrap();
    let echo = read_raw_frame(&mut s).ok()?;
    assert_eq!(asked(&echo), (role, generation));
    Some(s)
}

/// A REQUEST frame carrying one identity-free call with no capabilities.
fn request_payload(frame_id: u64, export: u64, payload: &[u8]) -> Vec<u8> {
    let mut p = vec![2u8];
    p.extend_from_slice(&frame_id.to_le_bytes());
    p.extend_from_slice(&1u32.to_le_bytes());
    p.extend_from_slice(&export.to_le_bytes());
    p.push(0); // envelope: no call id, no trace
    p.extend_from_slice(&0u32.to_le_bytes());
    p.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    p.extend_from_slice(payload);
    p
}

/// Byte 0 of the payload picks the behaviour: 0 echoes at once, 1 parks
/// the serving thread until the test lets go of `release` (a live peer
/// that never answers), announcing itself on `parked` first and counting
/// itself in `answered` when it finally returns.
struct EchoOrPark {
    parked: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    answered: AtomicU64,
}

impl DoorHandler for EchoOrPark {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        for d in &msg.doors {
            let _ = ctx.server().delete_door(*d);
        }
        if msg.bytes.first() == Some(&1) {
            self.parked.lock().unwrap().send(()).unwrap();
            let _ = self.release.lock().unwrap().recv();
            self.answered.fetch_add(1, Ordering::SeqCst);
        }
        Ok(Message::from_bytes(msg.bytes))
    }
}

/// ROADMAP 3(a): a live-but-silent peer must not hang a caller whose call
/// carries a deadline. The caller returns `Comm` at the deadline, the pins
/// for what it carried are released, and *only its socket* is closed: a
/// call to a healthy door on the same link, in flight at the same time,
/// succeeds, and the link never redials — not even when the late reply is
/// finally written to the closed socket.
#[test]
fn silent_peer_fails_the_call_at_its_deadline_and_only_that_socket_closes() {
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel();
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-silent", 191);
    let servants = server_node.kernel().create_domain("servants");
    let silent = Arc::new(EchoOrPark {
        parked: std::sync::Mutex::new(parked_tx),
        release: std::sync::Mutex::new(release_rx),
        answered: AtomicU64::new(0),
    });
    let door = servants.create_door(silent.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = temp_sock("deadline");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 192);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, remote, b"\0warm");
    let baseline = live_ids(client_node.kernel());

    const DEADLINE: Duration = Duration::from_millis(400);
    std::thread::scope(|s| {
        let doomed = s.spawn(|| {
            let carried = client.create_door(Arc::new(Echo)).unwrap();
            let started = std::time::Instant::now();
            let err = client
                .call(
                    remote,
                    Message {
                        bytes: vec![1],
                        doors: vec![carried],
                        call: spring_kernel::CallId {
                            nonce: spring_kernel::callid::next_nonce(),
                            attempt: 1,
                            deadline_micros: spring_kernel::callid::deadline_after(DEADLINE),
                        },
                        ..Message::default()
                    },
                )
                .unwrap_err();
            (err, started.elapsed())
        });
        // The servant is parked with the doomed call in flight: a second
        // call over the same link completes beside it.
        parked_rx.recv().unwrap();
        roundtrip(&client, remote, b"\0beside the silent call");
        let (err, took) = doomed.join().unwrap();
        assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
        assert!(
            took >= DEADLINE && took < DEADLINE + Duration::from_secs(1),
            "the call returned after {took:?}, deadline {DEADLINE:?}"
        );
    });
    assert_eq!(live_ids(client_node.kernel()), baseline);
    roundtrip(&client, remote, b"\0after the deadline");

    // The servant finally answers — into a socket nobody holds any more.
    // That closes the serving side's end of it and nothing else.
    drop(release_tx);
    wait_until("the silent servant to answer", || {
        silent.answered.load(Ordering::SeqCst) == 1
    });
    for _ in 0..8 {
        roundtrip(&client, remote, b"\0after the late reply");
    }
    assert_eq!(
        peer.redials(),
        0,
        "a deadline closes a socket, not the link"
    );
    assert_eq!(client_net.socket_stats().disconnects, 0);
    assert_eq!(server_net.socket_stats().disconnects, 0);
}

/// Appends each call's payload to a log, in execution order.
struct Recorder(std::sync::Mutex<Vec<Vec<u8>>>);

impl DoorHandler for Recorder {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        for d in &msg.doors {
            let _ = ctx.server().delete_door(*d);
        }
        self.0.lock().unwrap().push(msg.bytes);
        Ok(Message::default())
    }
}

/// One-way frames over a real socket: N from one sender arrive in order,
/// no reply frame is ever written for them, and a one-way ship that fails
/// at the write says so synchronously with its fresh pins released.
#[test]
fn oneway_frames_arrive_in_order_unanswered_and_fail_synchronously() {
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-recorder", 201);
    let servants = server_node.kernel().create_domain("servants");
    let log = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
    let door = servants.create_door(log.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = temp_sock("oneway");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 202);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    const N: u8 = 64;
    let served_before = server_net.socket_stats();
    let client_before = client_net.socket_stats();
    for i in 0..N {
        let reply = client
            .call_one_way(remote, Message::from_bytes(vec![i]))
            .unwrap();
        assert!(reply.bytes.is_empty() && reply.doors.is_empty());
    }
    // A round trip behind them on the same (sole idle) socket: when it
    // returns, every one-way frame ahead of it has executed.
    client.call(remote, Message::from_bytes(vec![N])).unwrap();
    let expected: Vec<Vec<u8>> = (0..=N).map(|i| vec![i]).collect();
    assert_eq!(*log.0.lock().unwrap(), expected);
    // Only the round trip is answered. (The serving thread counts a frame
    // after writing it, so its count may trail the reply by a moment.)
    let sent = client_net.socket_stats().since(&client_before);
    assert_eq!(sent.frames_sent, N as u64 + 1);
    assert_eq!(sent.frames_received, 1);
    wait_until("the one reply to be counted", || {
        server_net.socket_stats().since(&served_before).frames_sent == 1
    });
    let served = server_net.socket_stats().since(&served_before);
    assert_eq!(served.frames_received, N as u64 + 1);

    // A one-way ship whose write fails is a synchronous, provable failure:
    // `Err`, the link dead, the pin for the carried door rolled back.
    let baseline = live_ids(client_node.kernel());
    peer.inject_write_faults(1);
    let carried = client.create_door(Arc::new(Echo)).unwrap();
    let err = client
        .call_one_way(
            remote,
            Message {
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    assert_eq!(live_ids(client_node.kernel()), baseline);
    wait_until("client disconnect count", || {
        client_net.socket_stats().disconnects == 1
    });
    // The next one redials and goes through.
    client
        .call_one_way(remote, Message::from_bytes(vec![N + 1]))
        .unwrap();
    client
        .call(remote, Message::from_bytes(vec![N + 2]))
        .unwrap();
    assert_eq!(log.0.lock().unwrap().last(), Some(&vec![N + 2]));
    assert_eq!(peer.redials(), 1);
}

/// Echoes once `n` calls are inside it at the same time.
struct Rendezvous(std::sync::Barrier);

impl DoorHandler for Rendezvous {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        self.0.wait();
        Ok(msg)
    }
}

/// Why a socket carries one call: a servant parked until a *second*
/// request over the same link arrives is released by it, because that
/// request travels on another socket to another serving thread. (Serving
/// requests inline on one shared socket would deadlock here.)
#[test]
fn a_parked_servant_is_released_by_a_second_request_over_the_same_link() {
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-rendezvous", 211);
    let servants = server_node.kernel().create_domain("servants");
    let door = servants
        .create_door(Arc::new(Rendezvous(std::sync::Barrier::new(2))))
        .unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = temp_sock("rendezvous");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 212);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    std::thread::scope(|s| {
        for t in 0..2u8 {
            let client = &client;
            s.spawn(move || roundtrip(client, remote, &[t]));
        }
    });
}

/// Calls the first door it is handed, passing the rest along; with no door
/// left it echoes. A list of doors alternating between two processes makes
/// a callback chain of that depth.
struct Relay;

impl DoorHandler for Relay {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let mut doors = msg.doors.into_iter();
        let Some(next) = doors.next() else {
            return Ok(Message::from_bytes(msg.bytes));
        };
        let reply = ctx.server().call(
            next,
            Message {
                bytes: msg.bytes,
                doors: doors.collect(),
                ..Message::default()
            },
        );
        let _ = ctx.server().delete_door(next);
        reply
    }
}

/// The reverse direction: the accepting process calls a door of the dialing
/// process, over sockets only the dialer can open. Eight of its threads at
/// once all complete — and truly are in flight together, since the servant
/// waits for all eight: the dialer replaces each spare serving socket as
/// it is taken.
#[test]
fn acceptor_calls_the_dialer_from_eight_threads_at_once() {
    const CALLERS: usize = 8;
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-b", 221);
    let servants = server_node.kernel().create_domain("servants");
    let stash = Arc::new(Stash(std::sync::Mutex::new(None)));
    let stash_door = servants.create_door(stash.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, stash_door)
        .unwrap();
    let path = temp_sock("reverse");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("proc-a", 222);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let rendezvous = client
        .create_door(Arc::new(Rendezvous(std::sync::Barrier::new(CALLERS))))
        .unwrap();
    let hand_over = Message {
        doors: vec![rendezvous],
        ..Message::default()
    };
    client.call(remote, hand_over).unwrap();
    let callback = stash.0.lock().unwrap().expect("B kept the door");
    std::thread::scope(|s| {
        for t in 0..CALLERS as u8 {
            let servants = &servants;
            s.spawn(move || roundtrip(servants, callback, &[t]));
        }
    });
    assert_eq!(client_net.socket_stats().disconnects, 0);
    assert_eq!(server_net.socket_stats().disconnects, 0);
}

/// A callback chain A→B→A→B→A: every hop nests inside the one before, so
/// each needs a socket (and a serving thread) of its own in its direction.
#[test]
fn callback_chain_nests_four_deep_across_one_link() {
    let net_b = Network::new(NetConfig::default());
    let node_b = net_b.add_node_with_id("proc-b", 225);
    let domain_b = node_b.kernel().create_domain("servants");
    let relay_b = domain_b.create_door(Arc::new(Relay)).unwrap();
    net_b
        .set_bootstrap(node_b.id(), &domain_b, relay_b)
        .unwrap();
    let path = temp_sock("chain");
    let _listener = net_b.listen_uds(node_b.id(), &path).unwrap();

    let net_a = Network::new(NetConfig::default());
    let node_a = net_a.add_node_with_id("proc-a", 226);
    let domain_a = node_a.kernel().create_domain("app");
    let peer = net_a.connect_uds(node_a.id(), &path).unwrap();
    let relay_b = peer.bootstrap_door(&domain_a).unwrap();

    // B's relay calls A's relay, which calls B's relay (its door coming
    // home through the list), which calls A's echo.
    let relay_a = domain_a.create_door(Arc::new(Relay)).unwrap();
    let relay_b_again = domain_a.copy_door(relay_b).unwrap();
    let echo_a = domain_a.create_door(Arc::new(Echo)).unwrap();
    let reply = domain_a
        .call(
            relay_b,
            Message {
                bytes: b"four deep".to_vec(),
                doors: vec![relay_a, relay_b_again, echo_a],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.bytes, b"four deep");
}

/// The race the design must order: a socket of generation *g* whose
/// handshake completes after *g* died — before or after generation *g + 1*
/// registered — is a straggler (a spare dialled just before its link
/// died). It must be dropped: not adopted into, and above all not allowed
/// to displace, the generation that replaced it, nor to raise the dead one
/// again as a link nobody is at the other end of. A restarted dialer,
/// which counts from 1 again under another run number, is no straggler.
#[test]
fn a_straggler_of_an_older_generation_is_dropped_not_adopted() {
    let (server_net, server_node) = echo_process(231);
    let listener = server_net
        .listen_tcp(server_node.id(), "127.0.0.1:0")
        .unwrap();
    let addr = listener.local_addr().to_string();

    let mut newer = raw_dial(&addr, 977, CALLS, 2).expect("generation 2 is adopted");
    assert!(
        raw_dial(&addr, 977, SERVES, 1).is_none(),
        "a generation-1 socket arriving after generation 2 must be dropped"
    );
    assert!(raw_dial(&addr, 977, CALLS, 1).is_none());
    // Generation 2 was neither displaced nor torn down: it still serves,
    // and still takes further sockets of its own generation.
    let mut bytes = Vec::new();
    put_frame(&mut bytes, &request_payload(5, 1, b"still generation two"));
    newer.write_all(&bytes).unwrap();
    let reply = read_raw_frame(&mut newer).unwrap();
    assert_eq!(reply[0], 3, "expected a REPLY frame");
    assert!(reply.ends_with(b"still generation two"));
    let _spare = raw_dial(&addr, 977, SERVES, 2).expect("same generation joins");
    assert_eq!(server_net.socket_stats().disconnects, 0);

    // A newer generation supersedes the held one as a unit.
    let newest = raw_dial(&addr, 977, CALLS, 3).expect("generation 3 is adopted");
    assert_eq!(
        newer.read(&mut [0u8; 1]).unwrap(),
        0,
        "generation 2's sockets are shut when generation 3 registers"
    );
    wait_until("the superseded generation to be counted", || {
        server_net.socket_stats().disconnects == 1
    });

    // Generation 3 dies (its dialer hangs up). Until generation 4 arrives
    // the acceptor holds a dead link — and a spare of generation 3 turning
    // up now must not raise it again (the sweep would count that zombie as
    // a third disconnect when generation 4 superseded it).
    drop(newest);
    wait_until("generation 3 to be counted dead", || {
        server_net.socket_stats().disconnects == 2
    });
    assert!(raw_dial(&addr, 977, SERVES, 3).is_none());
    assert!(raw_dial(&addr, 977, CALLS, 3).is_none());
    let _next = raw_dial(&addr, 977, CALLS, 4).expect("generation 4 is adopted");
    // The same node after a restart: generation 1 of another run.
    let _restarted = raw_dial(&addr, 977, CALLS, (7 << 32) | 1).expect("a new run is adopted");
    wait_until("the old run's link to be superseded", || {
        server_net.socket_stats().disconnects == 3
    });
}

/// The serving loop reuses its outcome vector from frame to frame: a
/// one-way frame and then two requests on one socket get exactly two
/// replies, each carrying its own request's one outcome — nothing the
/// one-way frame staged rides along to settle a later call.
#[test]
fn requests_after_a_oneway_frame_on_one_socket_are_answered_alone() {
    let (server_net, server_node) = echo_process(251);
    let listener = server_net
        .listen_tcp(server_node.id(), "127.0.0.1:0")
        .unwrap();
    let addr = listener.local_addr().to_string();
    let mut s = raw_dial(&addr, 978, CALLS, 1).expect("a new dialer is adopted");

    let mut oneway = request_payload(1, 1, b"one-way");
    oneway[0] = 4; // KIND_ONEWAY: the request layout, no reply
    let mut bytes = Vec::new();
    put_frame(&mut bytes, &oneway);
    put_frame(&mut bytes, &request_payload(2, 1, b"first request"));
    put_frame(&mut bytes, &request_payload(3, 1, b"second request"));
    s.write_all(&bytes).unwrap();
    for (id, payload) in [(2u64, &b"first request"[..]), (3, b"second request")] {
        let reply = read_raw_frame(&mut s).unwrap();
        assert_eq!(reply[0], 3, "expected a REPLY frame");
        assert_eq!(u64::from_le_bytes(reply[1..9].try_into().unwrap()), id);
        assert_eq!(
            u32::from_le_bytes(reply[9..13].try_into().unwrap()),
            1,
            "one outcome for the one call of request {id}"
        );
        assert_eq!(reply[13], 0, "status ok");
        assert!(reply.ends_with(payload));
    }
    assert_eq!(server_net.socket_stats().disconnects, 0);
}

/// Holds every call until the gate opens, tracking how many are inside.
struct Gate {
    inside: AtomicU64,
    most: AtomicU64,
    open: (std::sync::Mutex<bool>, std::sync::Condvar),
}

impl DoorHandler for Gate {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let now = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.most.fetch_max(now, Ordering::SeqCst);
        let mut open = self.open.0.lock().unwrap();
        while !*open {
            open = self.open.1.wait(open).unwrap();
        }
        drop(open);
        self.inside.fetch_sub(1, Ordering::SeqCst);
        Ok(msg)
    }
}

/// More callers than a link opens call sockets for: the link fills up to
/// its per-direction cap (32), the rest queue for a socket, and once the
/// servant lets go every caller completes.
#[test]
fn callers_beyond_the_socket_cap_queue_and_all_complete() {
    const CAP: u64 = 32;
    const CALLERS: u64 = CAP + 8;
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-gate", 241);
    let servants = server_node.kernel().create_domain("servants");
    let gate = Arc::new(Gate {
        inside: AtomicU64::new(0),
        most: AtomicU64::new(0),
        open: (std::sync::Mutex::new(false), std::sync::Condvar::new()),
    });
    let door = servants.create_door(gate.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = temp_sock("cap");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 242);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    std::thread::scope(|s| {
        for t in 0..CALLERS {
            let client = &client;
            s.spawn(move || roundtrip(client, remote, &t.to_le_bytes()));
        }
        wait_until("the link to fill to its cap", || {
            gate.inside.load(Ordering::SeqCst) == CAP
        });
        *gate.open.0.lock().unwrap() = true;
        gate.open.1.notify_all();
    });
    assert_eq!(gate.most.load(Ordering::SeqCst), CAP);
    assert_eq!(client_net.socket_stats().disconnects, 0);
}
