//! With tracing disabled, the steady-state E1 fast path must not allocate.
//!
//! This binary installs a counting global allocator, scoped to the
//! measuring thread (which is why the test lives alone in its own
//! integration-test file). The null-call path it drives is the one E1
//! measures: request bytes come from the buffer pool, the kernel's two
//! cross-address-space copies draw from and return to the pool, and the
//! caller gives the reply backing store back — so after warmup a call
//! performs zero heap allocations, and the disabled tracing instrumentation
//! must keep it that way (its fast path is one relaxed atomic load).

use std::sync::Arc;

use spring_kernel::{pool, CallCtx, DoorError, DoorHandler, Kernel, Message};

mod common;

#[global_allocator]
static ALLOCATOR: common::CountingAlloc = common::CountingAlloc;

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

#[test]
fn disabled_tracing_steady_state_call_does_not_allocate() {
    assert!(!spring_trace::enabled());

    let kernel = Kernel::new("no-alloc");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let door = server.transfer_door(door, &client).unwrap();

    let null_call = || {
        let mut bytes = pool::take(8);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let reply = client.call(door, Message::from_bytes(bytes)).unwrap();
        assert_eq!(reply.bytes.len(), 8);
        pool::give(reply.bytes);
    };

    // Warm the thread-local buffer pool.
    for _ in 0..100 {
        null_call();
    }

    let allocs = common::allocations_in(|| {
        for _ in 0..1_000 {
            null_call();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state null calls allocated {allocs} times"
    );
}
