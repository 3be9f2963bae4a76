//! The steady-state forwarded-call fast path must not allocate — over the
//! simulated network and over a real socket — and a reply that carries a
//! door allocates only the door list its handler built.
//!
//! This binary installs a counting global allocator (which is why the tests
//! live alone in their own integration-test file). A byte-only cross-node
//! call moves its payload through the wire boundary — `to_wire` and
//! `from_wire` transfer the backing storage, they never copy it — and the
//! batching layer recycles its frame vectors and call slots, so after
//! warmup a forwarded call performs zero heap allocations even though it
//! now passes through the link batcher. Over a socket, each end reuses the
//! frame buffer and outcome vector its call socket owns, and every payload
//! it copies off the wire is drawn from the buffer pool and given back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use spring_kernel::{pool, CallCtx, DoorError, DoorHandler, DoorId, Message};
use spring_net::{NetConfig, Network};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every thread's allocations, for a call served on another thread.
static COUNTING_ALL: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Count only the measuring thread's allocations. The libtest harness's
    // main thread lazily initializes its mpsc receiver context at an
    // arbitrary moment, which a process-wide count would misattribute to
    // the call path. The whole forwarded call runs synchronously on the
    // calling thread, so a per-thread count loses nothing. Const-init TLS
    // lives in .tdata and never allocates on access.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING_ALL.load(Ordering::Relaxed) || COUNTING.try_with(Cell::get).unwrap_or(false) {
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

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One test at a time: a process-wide count must not see the other test.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

#[test]
fn steady_state_forwarded_call_does_not_allocate() {
    let _serial = serial();
    assert!(!spring_trace::enabled());

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
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
    let proxy = arrived.doors[0];

    let forwarded_call = || {
        let mut bytes = pool::take(8);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let reply = client.call(proxy, Message::from_bytes(bytes)).unwrap();
        assert_eq!(reply.bytes.len(), 8);
        pool::give(reply.bytes);
    };

    // Warm the buffer pool, the batcher's recycled frame storage, and the
    // call-slot pool.
    for _ in 0..100 {
        forwarded_call();
    }

    COUNTING.set(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        forwarded_call();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.set(false);
    assert_eq!(
        after - before,
        0,
        "steady-state forwarded calls allocated {} times",
        after - before
    );
}

/// Replies with a fresh identifier for the door it holds.
struct HandsOut(DoorId);

impl DoorHandler for HandsOut {
    fn invoke(&self, ctx: &CallCtx, mut msg: Message) -> Result<Message, DoorError> {
        msg.doors = vec![ctx.server().copy_door(self.0)?];
        Ok(msg)
    }
}

/// A forwarded call whose reply carries a door identifier: once the door is
/// exported and its proxy exists on the caller's node, the reply's door list
/// is the one vector its handler built, rewritten in place at every hop —
/// the kernel's translation into the network server, the wire form, the
/// import, the translation into the caller. One allocation per call.
#[test]
fn steady_state_reply_carrying_a_door_allocates_only_its_door_list() {
    let _serial = serial();
    assert!(!spring_trace::enabled());

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let held = server.create_door(Arc::new(Echo)).unwrap();
    let door = server.create_door(Arc::new(HandsOut(held))).unwrap();
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
    let proxy = arrived.doors[0];

    let forwarded_call = || {
        let mut bytes = pool::take(8);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let reply = client.call(proxy, Message::from_bytes(bytes)).unwrap();
        assert_eq!(reply.doors.len(), 1);
        client.delete_door(reply.doors[0]).unwrap();
        pool::give(reply.bytes);
    };

    // The first call exports the held door and builds its proxy; the rest
    // warm the pools.
    for _ in 0..100 {
        forwarded_call();
    }

    COUNTING.set(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        forwarded_call();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.set(false);
    assert_eq!(
        after - before,
        1_000,
        "1000 door-carrying replies allocated {} times",
        after - before
    );
}

/// Two `Network`s in one process joined by a Unix-domain socket: after
/// warmup, a window of 1000 null calls, 1000 one-way calls and 1000 calls
/// carrying 1 KiB allocates nothing in the whole process — caller and
/// serving thread alike — and misses the buffer pool not once.
///
/// Counting process-wide also counts what the harness and the links' idle
/// threads happen to do meanwhile, so the rule is *zero in any of three
/// windows*: a call path that allocates does so in every window, a stray
/// allocation elsewhere in one.
#[test]
fn steady_state_socket_calls_do_not_allocate_on_either_end() {
    let _serial = serial();
    assert!(!spring_trace::enabled());

    let path = std::env::temp_dir()
        .join(format!("spring-no-alloc-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("server", 301);
    let servants = server_node.kernel().create_domain("servants");
    let echo = servants.create_door(Arc::new(Echo)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, echo)
        .unwrap();
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 302);
    let client = client_node.kernel().create_domain("client");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let door = peer.bootstrap_door(&client).unwrap();

    let request = |len: usize| {
        let mut bytes = pool::take(len);
        bytes.resize(len, 7);
        Message::from_bytes(bytes)
    };
    let call = |len: usize| {
        let reply = client.call(door, request(len)).unwrap();
        assert_eq!(reply.bytes.len(), len);
        pool::give(reply.bytes);
    };
    let window = || {
        for _ in 0..1_000 {
            call(8);
        }
        for _ in 0..1_000 {
            client.call_one_way(door, request(8)).unwrap();
        }
        // On the one socket the one-way frames went out on: these are
        // served after every one of them.
        for _ in 0..1_000 {
            call(1024);
        }
    };

    // Warm both ends' buffer pools, the serving thread's spare, and every
    // thread's counter cells.
    window();

    let mut windows = Vec::new();
    for _ in 0..3 {
        let misses = pool::counters().misses;
        let before = ALLOCS.load(Ordering::Relaxed);
        COUNTING_ALL.store(true, Ordering::Relaxed);
        window();
        COUNTING_ALL.store(false, Ordering::Relaxed);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        windows.push((allocs, pool::counters().misses - misses));
        if windows.last() == Some(&(0, 0)) {
            return;
        }
    }
    panic!("steady-state socket calls allocated in every window: (allocations, pool misses) {windows:?}");
}
