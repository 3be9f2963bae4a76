//! Malformed-frame rejection: a seeded corpus of truncated, over-length,
//! and corrupted flat frames must all come back as typed [`WireError`]s —
//! never a panic, never an out-of-bounds read (the validate-then-cast
//! contract of DESIGN.md §5.13).
//!
//! Each sweep appends its seeds to `target/flat-frame-seeds.txt` so a CI
//! failure can report exactly which seeds were exercised.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use spring_bench::flatbench::{Sample, SampleView};
use spring_buf::{CommBuffer, WireError};
use spring_kernel::{CallCtx, DoorError, DoorHandler, Message};
use spring_net::{NetConfig, Network};

/// The seeds every sweep runs; kept in one place so the recorded list in
/// `target/flat-frame-seeds.txt` matches what actually ran.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Mutations tried per seed.
const MUTATIONS: usize = 256;

/// Records the seeds a sweep ran, for CI to upload on failure.
fn record_seeds(suite: &str, seeds: &[u64]) {
    // Tests run with the package dir as cwd; aim at the workspace-level
    // target/ so CI's artifact upload finds the file.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("flat-frame-seeds.txt"))
    {
        let list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(f, "{suite}: mutations={MUTATIONS} seeds={}", list.join(","));
    }
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants); the high bits are
/// the usable ones.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A canonical valid frame: marshal the fixture through the real encoder
/// and take the buffer's bytes (the frame starts at offset 0, which is
/// 8-aligned, so the flat offsets apply directly).
fn valid_frame() -> Vec<u8> {
    let mut buf = CommBuffer::new();
    spring_bench::fixtures::sample_fixture().idl_encode(&mut buf);
    let bytes = buf.into_message().bytes;
    assert_eq!(bytes.len(), Sample::footprint());
    bytes
}

#[test]
fn truncated_and_overlength_frames_fail_with_exact_lengths() {
    let frame = valid_frame();
    let footprint = Sample::footprint();
    for n in 0..footprint {
        assert_eq!(
            Sample::validate(&frame[..n]),
            Err(WireError::Truncated {
                needed: footprint,
                actual: n
            }),
            "truncation to {n} bytes must be rejected"
        );
    }
    for extra in 1..=16 {
        let mut long = frame.clone();
        long.extend(std::iter::repeat_n(0, extra));
        assert_eq!(
            Sample::validate(&long),
            Err(WireError::OverLength {
                expected: footprint,
                actual: footprint + extra
            }),
            "{extra} trailing bytes must be rejected"
        );
    }
}

#[test]
fn out_of_range_tags_and_bools_are_typed_errors() {
    let frame = valid_frame();
    assert!(Sample::validate(&frame).is_ok());

    // `urgent` is the bool at offset 53; anything but 0/1 is malformed.
    for value in [2u8, 7, 0x80, 0xFF] {
        let mut bad = frame.clone();
        bad[53] = value;
        assert_eq!(
            Sample::validate(&bad),
            Err(WireError::BadBool { offset: 53, value })
        );
    }

    // `m` is the 3-variant enum tag at offset 56.
    for value in [3u32, 4, 1000, u32::MAX] {
        let mut bad = frame.clone();
        bad[56..60].copy_from_slice(&value.to_le_bytes());
        assert_eq!(
            Sample::validate(&bad),
            Err(WireError::BadTag { offset: 56, value })
        );
    }
}

#[test]
fn seeded_mutation_sweep_never_panics_and_errors_are_typed() {
    let frame = valid_frame();
    let footprint = Sample::footprint();
    for &seed in &SEEDS {
        let mut state = seed;
        for _ in 0..MUTATIONS {
            let mutated = match lcg(&mut state) % 3 {
                0 => {
                    // Truncate to a strictly shorter prefix.
                    let n = (lcg(&mut state) as usize) % footprint;
                    frame[..n].to_vec()
                }
                1 => {
                    // Append 1..=16 junk bytes.
                    let extra = 1 + (lcg(&mut state) as usize) % 16;
                    let mut v = frame.clone();
                    v.extend((0..extra).map(|_| lcg(&mut state) as u8));
                    v
                }
                _ => {
                    // Corrupt one byte in place (length stays exact, so
                    // validate may legitimately accept it — most bytes are
                    // unconstrained scalars).
                    let pos = (lcg(&mut state) as usize) % footprint;
                    let mut v = frame.clone();
                    v[pos] ^= 1 + (lcg(&mut state) as u8 & 0xFE);
                    v
                }
            };
            // The contract under test: validate never panics, and a
            // rejection is a typed error. Exercise the view path too —
            // after a successful validate the accessors must be usable.
            match SampleView::new(&mutated) {
                Ok(view) => {
                    assert_eq!(mutated.len(), footprint);
                    let owned = view.to_owned();
                    assert_eq!(owned.when.secs, view.when().secs());
                }
                Err(e) => match e {
                    WireError::Truncated { needed, actual } => {
                        assert_eq!(needed, footprint);
                        assert!(actual < footprint);
                    }
                    WireError::OverLength { expected, actual } => {
                        assert_eq!(expected, footprint);
                        assert!(actual > footprint);
                    }
                    WireError::BadTag { offset, .. } => assert_eq!(offset, 56),
                    WireError::BadBool { offset, value } => {
                        assert_eq!(offset, 53);
                        assert!(value > 1);
                    }
                },
            }
            // Determinism: validating the same bytes twice agrees.
            assert_eq!(Sample::validate(&mutated), Sample::validate(&mutated));
        }
    }
    record_seeds("flat-frame-mutations", &SEEDS);
}

// ---------------------------------------------------------------------------
// The same corpus idea over a *real* socket pair.
// ---------------------------------------------------------------------------

/// Socket-sweep seeds and per-seed mutation count — smaller than the
/// in-memory sweep because each iteration crosses a real TCP connection.
const SOCKET_SEEDS: [u64; 4] = [1, 2, 3, 5];
const SOCKET_MUTATIONS: usize = 48;

/// Frame kinds of the transport codec (DESIGN.md §5.15).
const KIND_HELLO: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_REPLY: u8 = 3;
const KIND_ONEWAY: u8 = 4;

/// Wire layout mirrored from the transport codec: `[kind][u64 frame
/// id][u32 ncalls]` then per call `[u64 export][u8 envelope flags, then
/// the fields they name][u32 ncaps][caps][u32 nbytes][payload]` — the same
/// under `KIND_REQUEST` and `KIND_ONEWAY`.
fn encode_raw_call(kind: u8, frame_id: u64, export: u64, payload: &[u8]) -> Vec<u8> {
    let mut p = vec![kind];
    p.extend_from_slice(&frame_id.to_le_bytes());
    p.extend_from_slice(&1u32.to_le_bytes());
    p.extend_from_slice(&export.to_le_bytes());
    p.push(0); // envelope: no call id, no trace
    p.extend_from_slice(&0u32.to_le_bytes()); // no caps
    p.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    p.extend_from_slice(payload);
    p
}

/// Offset of the envelope's flag byte in [`encode_raw_call`]'s frame.
const ENVELOPE_AT: usize = 21;

/// A dialer's HELLO: `[kind=1][u64 node][u8 has_boot][u64 boot][u8
/// role][u64 generation][u16 name_len][name]`, advertising no bootstrap and
/// an empty name. Role 0: the dialer calls on the socket.
fn encode_raw_hello(node: u64, role: u8, generation: u64) -> Vec<u8> {
    let mut p = vec![KIND_HELLO];
    p.extend_from_slice(&node.to_le_bytes());
    p.push(0);
    p.extend_from_slice(&0u64.to_le_bytes());
    p.push(role);
    p.extend_from_slice(&generation.to_le_bytes());
    p.extend_from_slice(&0u16.to_le_bytes());
    p
}

/// Offset of the role byte in a HELLO.
const HELLO_ROLE_AT: usize = 18;

fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

fn write_raw_frame(s: &mut TcpStream, payload: &[u8]) -> bool {
    let mut bytes = Vec::new();
    put_frame(&mut bytes, payload);
    s.write_all(&bytes).is_ok() && s.flush().is_ok()
}

/// Reads one length-prefixed frame; `Ok(None)` when the peer tore the
/// connection down (clean EOF, or a reset because it closed with our bytes
/// unread). A read timeout stays an error: a wedged server fails the test.
fn read_raw_frame(s: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let gone = |e: &std::io::Error| {
        matches!(
            e.kind(),
            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
        )
    };
    let mut prefix = [0u8; 4];
    match s.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if gone(&e) => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    match s.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if gone(&e) => Ok(None),
        Err(e) => Err(e),
    }
}

fn raw_connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Dials the listener and completes the HELLO exchange as a raw byzantine
/// peer opening a calling socket. Every call is the next generation of the
/// peer's link, as a real dialer's redial after a teardown would be (a
/// socket of a generation that already died is a straggler, and dropped).
fn raw_handshake(addr: &str, node: u64) -> TcpStream {
    static GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let generation = GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut s = raw_connect(addr);
    let hello = encode_raw_hello(node, 0, generation);
    assert!(write_raw_frame(&mut s, &hello));
    let server_hello = read_raw_frame(&mut s).unwrap().expect("server hello");
    assert_eq!(server_hello[0], KIND_HELLO, "expected HELLO frame");
    assert_eq!(
        server_hello[HELLO_ROLE_AT..HELLO_ROLE_AT + 9],
        hello[HELLO_ROLE_AT..HELLO_ROLE_AT + 9],
        "the acceptor echoes role and generation"
    );
    s
}

struct ValidatesFlat;

impl DoorHandler for ValidatesFlat {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        // Validate-in-place on the received bytes: a corrupt payload is
        // a typed rejection, never a panic.
        let ok = Sample::validate(&msg.bytes).is_ok();
        Ok(Message::from_bytes(vec![ok as u8]))
    }
}

/// One serving "process": a flat-validating bootstrap door behind a TCP
/// listener.
fn flat_validator(node: u64) -> (Arc<Network>, Arc<spring_net::SocketListener>, String) {
    let net = Network::new(NetConfig::default());
    let n = net.add_node_with_id("flat-validator", node);
    let domain = n.kernel().create_domain("servants");
    let door = domain.create_door(Arc::new(ValidatesFlat)).unwrap();
    net.set_bootstrap(n.id(), &domain, door).unwrap();
    let listener = net.listen_tcp(n.id(), "127.0.0.1:0").unwrap();
    let addr = listener.local_addr().to_string();
    (net, listener, addr)
}

/// A real peer dials `addr` and gets a flat frame validated: the listener
/// still serves fresh peers.
fn assert_still_serving(addr: &str, node: u64) {
    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", node);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), addr).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let reply = client
        .call(remote, Message::from_bytes(valid_frame()))
        .unwrap();
    assert_eq!(reply.bytes, vec![1u8]);
}

/// One seeded mutation of `valid`: a strictly shorter prefix, 1..=16 junk
/// bytes appended, or one byte corrupted in place.
fn mutate(valid: &[u8], state: &mut u64) -> Vec<u8> {
    match lcg(state) % 3 {
        0 => {
            let n = (lcg(state) as usize) % valid.len();
            valid[..n].to_vec()
        }
        1 => {
            let extra = 1 + (lcg(state) as usize) % 16;
            let mut v = valid.to_vec();
            v.extend((0..extra).map(|_| lcg(state) as u8));
            v
        }
        _ => {
            let pos = (lcg(state) as usize) % valid.len();
            let mut v = valid.to_vec();
            v[pos] ^= 1 + (lcg(state) as u8 & 0xFE);
            v
        }
    }
}

/// The seeded mutation sweep delivered over real TCP: every mutated
/// request frame must end in a reply or a typed teardown (EOF) — never a
/// wedged connection, never a server panic — and the server must keep
/// serving fresh connections throughout. The servant validates the flat
/// payload in place, so valid frames also prove the IDL bytes crossed the
/// socket unmodified.
#[test]
fn seeded_mutation_sweep_over_real_socket() {
    run_socket_mutation_sweep(KIND_REQUEST, 301, "flat-frame-mutations-socket");
}

/// The same mutations re-run under `KIND_ONEWAY`, whose frames share the
/// request layout but are owed no reply: a mutated one-way frame is either
/// executed in silence or tears the link down — told apart by the valid
/// request sent right behind it on the same socket.
#[test]
fn seeded_mutation_sweep_over_real_socket_oneway() {
    run_socket_mutation_sweep(KIND_ONEWAY, 311, "flat-frame-mutations-socket-oneway");
}

fn run_socket_mutation_sweep(kind: u8, node_base: u64, suite: &str) {
    let (net, _listener, addr) = flat_validator(node_base);
    let flat = valid_frame();
    let valid = encode_raw_call(kind, 1, 1, &flat);
    // Sent behind every frame under test: its reply (recognised by frame
    // id) proves the socket survived the frame and the server is serving.
    const PROBE_ID: u64 = 0xFACE_0000_0000_0001;
    let probe = encode_raw_call(KIND_REQUEST, PROBE_ID, 1, &flat);
    let reply_id = |reply: &[u8]| u64::from_le_bytes(reply[1..9].try_into().unwrap());

    // Sanity: the unmutated frame crosses the socket byte-identical and
    // validates on the server's copy — a request is answered, a one-way
    // frame is not (the first reply back is already the probe's).
    let mut conn = raw_handshake(&addr, 990);
    assert!(write_raw_frame(&mut conn, &valid) && write_raw_frame(&mut conn, &probe));
    let first = read_raw_frame(&mut conn).unwrap().expect("reply");
    assert_eq!(first[0], KIND_REPLY, "expected REPLY frame");
    assert_eq!(
        first.last(),
        Some(&1u8),
        "flat payload must validate after crossing the socket"
    );
    if kind == KIND_REQUEST {
        assert_eq!(reply_id(&first), 1);
        let second = read_raw_frame(&mut conn).unwrap().expect("probe reply");
        assert_eq!(reply_id(&second), PROBE_ID);
    } else {
        assert_eq!(
            reply_id(&first),
            PROBE_ID,
            "a one-way frame is owed no reply"
        );
    }

    for &seed in &SOCKET_SEEDS {
        let mut state = seed;
        for _ in 0..SOCKET_MUTATIONS {
            let mutated = mutate(&valid, &mut state);
            // The writes themselves may race a teardown from the previous
            // mutation; that just counts as a dead connection.
            let wrote = write_raw_frame(&mut conn, &mutated) && write_raw_frame(&mut conn, &probe);
            // The contract under test: the probe's reply arrives (behind
            // the mutated frame's own, if it was still a well-formed
            // request) or the server tears the connection down. A read
            // timeout means a wedged server and fails the test.
            let survived = wrote
                && loop {
                    match read_raw_frame(&mut conn) {
                        Ok(Some(reply)) => {
                            assert_eq!(reply[0], KIND_REPLY, "expected REPLY frame");
                            if reply_id(&reply) == PROBE_ID {
                                break true;
                            }
                        }
                        Ok(None) => break false,
                        Err(e) => panic!("server wedged on mutated frame: {e}"),
                    }
                };
            if !survived {
                conn = raw_handshake(&addr, 990 + seed);
            }
        }
    }

    // An envelope flag byte naming a field nobody defined: the link dies
    // with a typed error rather than guess at the bytes behind it.
    let mut unknown = valid.clone();
    unknown[ENVELOPE_AT] |= 0x80;
    let disconnects = net.socket_stats().disconnects;
    // The probe's write may already meet the teardown.
    assert!(write_raw_frame(&mut conn, &unknown));
    let _ = write_raw_frame(&mut conn, &probe);
    assert_eq!(
        read_raw_frame(&mut conn).unwrap(),
        None,
        "an unknown envelope bit must tear the link down"
    );
    for _ in 0..500 {
        if net.socket_stats().disconnects > disconnects {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(net.socket_stats().disconnects, disconnects + 1);

    // After the whole sweep the server still serves real peers.
    assert_still_serving(&addr, node_base + 1);
    record_seeds(suite, &SOCKET_SEEDS);
}

/// The HELLO corpus, acceptor side: a HELLO truncated at every offset, a
/// role outside {0, 1}, seeded corruptions, and a HELLO arriving where a
/// request is expected are each rejected — the socket is dropped or the
/// link torn down, nothing hangs — and the listener keeps serving fresh
/// peers.
#[test]
fn malformed_hellos_are_rejected_and_the_listener_keeps_serving() {
    let (net, _listener, addr) = flat_validator(321);
    let hello = encode_raw_hello(995, 0, 1);

    // Truncations at every offset (0 is an empty frame).
    for cut in 0..hello.len() {
        let mut s = raw_connect(&addr);
        assert!(write_raw_frame(&mut s, &hello[..cut]));
        assert_eq!(
            read_raw_frame(&mut s).unwrap(),
            None,
            "HELLO cut at {cut} must be dropped, not answered"
        );
    }

    // A role that names neither side.
    for role in [2u8, 7, 0xFF] {
        let mut s = raw_connect(&addr);
        assert!(write_raw_frame(&mut s, &encode_raw_hello(995, role, 1)));
        assert_eq!(read_raw_frame(&mut s).unwrap(), None, "role {role}");
    }
    assert_eq!(
        net.socket_stats().disconnects,
        0,
        "a socket that never finished its HELLO was never part of a link"
    );

    // A HELLO where a request is expected is a protocol violation: the
    // link is torn down (and counted), not the frame skipped.
    let mut s = raw_handshake(&addr, 996);
    assert!(write_raw_frame(&mut s, &hello));
    assert_eq!(read_raw_frame(&mut s).unwrap(), None);
    for _ in 0..500 {
        if net.socket_stats().disconnects > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(net.socket_stats().disconnects, 1);

    // Seeded corruptions: the acceptor answers with its own HELLO or drops
    // the socket; it never wedges, whatever the bytes claim.
    for &seed in &SOCKET_SEEDS {
        let mut state = seed;
        for _ in 0..SOCKET_MUTATIONS {
            let mut s = raw_connect(&addr);
            assert!(write_raw_frame(&mut s, &mutate(&hello, &mut state)));
            match read_raw_frame(&mut s) {
                Ok(Some(answer)) => assert_eq!(answer[0], KIND_HELLO),
                Ok(None) => {}
                Err(e) => panic!("acceptor wedged on mutated HELLO: {e}"),
            }
        }
    }

    assert_still_serving(&addr, 322);
    record_seeds("hello-mutations-socket", &SOCKET_SEEDS);
}

/// The HELLO corpus, dialer side: an acceptor whose echo names another
/// role or another generation than the dialer asked for is refused with a
/// typed `Comm` error — the dialer never adopts a socket whose two ends
/// disagree about who calls on it or which link it belongs to.
#[test]
fn mismatched_hello_echo_is_refused_by_the_dialer() {
    for (flip_role, bump_generation) in [(true, false), (false, true)] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let theirs = read_raw_frame(&mut s).unwrap().expect("dialer hello");
            let role = theirs[HELLO_ROLE_AT];
            let generation = u64::from_le_bytes(
                theirs[HELLO_ROLE_AT + 1..HELLO_ROLE_AT + 9]
                    .try_into()
                    .unwrap(),
            );
            let echo = encode_raw_hello(
                997,
                role ^ flip_role as u8,
                generation + bump_generation as u64,
            );
            assert!(write_raw_frame(&mut s, &echo));
            // Hold the socket until the dialer hangs up on it.
            let _ = read_raw_frame(&mut s);
        });
        let net = Network::new(NetConfig::default());
        let node = net.add_node_with_id("client", 331);
        let err = match net.connect_tcp(node.id(), &addr) {
            Err(e) => e,
            Ok(_) => panic!("a mismatched echo must not yield a link"),
        };
        assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
        assert!(err.to_string().contains("bad handshake"), "{err}");
        fake.join().unwrap();
    }
}
