//! Passing an object allocates only what the arriving object keeps.
//!
//! This binary installs a counting global allocator, which is why its test
//! lives alone in its own integration-test file. A copy of a simplex object
//! shipped across two simulated nodes is marshalled by simplex's own
//! `marshal_copy` (no intermediate object), its door list is rewritten in
//! place at every hop, its type name is read in place and resolved in the
//! receiver's type registry, and unmarshalling it needs no consumed-slot
//! bitset on the heap. What remains is the door list the marshal built and
//! the arriving object's representation.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{ctx_on, CounterServant, COUNTER_TYPE};
use spring_net::{NetConfig, Network};
use spring_subcontracts::Simplex;
use subcontract::{ship_object_copy, ServerSubcontract};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Count only the measuring thread's allocations: the shipment runs
    // synchronously on it, and the harness's own threads do not count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_object_copy_across_nodes_allocates_at_most_two() {
    assert!(!spring_trace::enabled());

    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("server");
    let client_node = net.add_node("client");
    let server = ctx_on(server_node.kernel(), "server");
    let client = ctx_on(client_node.kernel(), "client");
    let obj = Simplex.export(&server, CounterServant::new(7)).unwrap();

    let pass = || {
        let arrived = ship_object_copy(&*net, &obj, &client, &COUNTER_TYPE).unwrap();
        assert_eq!(arrived.type_name(), COUNTER_TYPE.name);
        drop(arrived);
    };

    // The first pass exports the door and builds the client node's proxy;
    // the rest warm the buffer pool.
    for _ in 0..100 {
        pass();
    }

    COUNTING.set(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        pass();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.set(false);
    assert!(
        allocs <= 2_000,
        "1000 object copies allocated {allocs} times (more than two each)"
    );
}
