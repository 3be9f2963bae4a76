//! Integration tests for door semantics: capability ownership, transfer,
//! copy, delete, revoke, crash, and unreferenced notification.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_kernel::{CallCtx, DoorError, DoorHandler, Kernel, Message};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

struct CountingTarget {
    calls: AtomicU64,
    unrefs: AtomicU64,
}

impl CountingTarget {
    fn new() -> Arc<Self> {
        Arc::new(CountingTarget {
            calls: AtomicU64::new(0),
            unrefs: AtomicU64::new(0),
        })
    }
}

impl DoorHandler for CountingTarget {
    fn invoke(&self, _ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        Ok(Message::new())
    }

    fn unreferenced(&self) {
        self.unrefs.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn basic_call_roundtrip() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();
    let reply = client.call(id, Message::from_bytes(vec![9, 8, 7])).unwrap();
    assert_eq!(reply.bytes, vec![9, 8, 7]);
}

#[test]
fn identifiers_are_capabilities() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let thief = kernel.create_domain("thief");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    // The thief never received the identifier; using it must fail.
    assert_eq!(
        thief.call(door, Message::new()).unwrap_err(),
        DoorError::InvalidDoor
    );
    assert_eq!(thief.copy_door(door).unwrap_err(), DoorError::InvalidDoor);
    assert_eq!(thief.delete_door(door).unwrap_err(), DoorError::InvalidDoor);
    // The owner can still use it.
    assert!(server.call(door, Message::new()).is_ok());
}

#[test]
fn transfer_invalidates_senders_handle() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();
    assert!(!server.door_is_valid(door));
    assert!(client.door_is_valid(id));
    assert_eq!(
        server.call(door, Message::new()).unwrap_err(),
        DoorError::InvalidDoor
    );
}

#[test]
fn copy_yields_independent_identifier() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let copy = server.copy_door(door).unwrap();
    assert_ne!(door, copy);
    server.delete_door(door).unwrap();
    // The copy is still valid.
    assert!(server.call(copy, Message::new()).is_ok());
}

#[test]
fn message_transfers_identifiers_to_server() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let target = CountingTarget::new();

    // Handler asserts the received identifier is owned by the server domain
    // and usable there.
    struct Receiver;
    impl DoorHandler for Receiver {
        fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            assert_eq!(msg.doors.len(), 1);
            let id = msg.doors[0];
            assert_eq!(id.owner(), ctx.server().id());
            // The identifier works from the server domain.
            ctx.server().call(id, Message::new())?;
            Ok(Message::new())
        }
    }

    let recv_door = server.create_door(Arc::new(Receiver)).unwrap();
    let recv_id = server.transfer_door(recv_door, &client).unwrap();

    let inner = server
        .create_door(target.clone() as Arc<dyn DoorHandler>)
        .unwrap();
    let inner_id = server.transfer_door(inner, &client).unwrap();

    let msg = Message {
        bytes: vec![],
        doors: vec![inner_id],
        ..Message::default()
    };
    client.call(recv_id, msg).unwrap();
    assert_eq!(target.calls.load(Ordering::SeqCst), 1);
    // The client's handle was moved away by the send.
    assert!(!client.door_is_valid(inner_id));
}

#[test]
fn reply_can_carry_identifiers_back() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");

    struct Minter;
    impl DoorHandler for Minter {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            let new_door = ctx.server().create_door(Arc::new(Echo))?;
            Ok(Message {
                bytes: vec![],
                doors: vec![new_door],
                ..Message::default()
            })
        }
    }

    let mint = server.create_door(Arc::new(Minter)).unwrap();
    let mint_id = server.transfer_door(mint, &client).unwrap();
    let reply = client.call(mint_id, Message::new()).unwrap();
    assert_eq!(reply.doors.len(), 1);
    let fresh = reply.doors[0];
    assert_eq!(fresh.owner(), client.id());
    assert!(client.call(fresh, Message::from_bytes(vec![1])).is_ok());
}

#[test]
fn unreferenced_fires_when_last_identifier_dies() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let target = CountingTarget::new();
    let door = server
        .create_door(target.clone() as Arc<dyn DoorHandler>)
        .unwrap();
    let copy = server.copy_door(door).unwrap();
    let sent = server.transfer_door(copy, &client).unwrap();

    server.delete_door(door).unwrap();
    assert_eq!(target.unrefs.load(Ordering::SeqCst), 0);
    client.delete_door(sent).unwrap();
    assert_eq!(target.unrefs.load(Ordering::SeqCst), 1);
    // The door is gone entirely.
    assert_eq!(kernel.live_doors(), 0);
}

#[test]
fn revoke_blocks_future_calls_but_not_identifiers() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let copy = server.copy_door(door).unwrap();
    let id = server.transfer_door(copy, &client).unwrap();

    assert!(client.call(id, Message::new()).is_ok());
    server.revoke_door(door).unwrap();
    assert_eq!(
        client.call(id, Message::new()).unwrap_err(),
        DoorError::Revoked
    );
    // The identifier itself is still owned; deleting it is fine.
    assert!(client.door_is_valid(id));
    client.delete_door(id).unwrap();
}

#[test]
fn only_server_may_revoke() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();
    assert_eq!(client.revoke_door(id).unwrap_err(), DoorError::NotPermitted);
}

#[test]
fn crash_revokes_served_doors_and_drops_owned_identifiers() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let other = kernel.create_domain("other");

    let target = CountingTarget::new();
    let other_door = other
        .create_door(target.clone() as Arc<dyn DoorHandler>)
        .unwrap();
    let held_by_server = other.transfer_door(other_door, &server).unwrap();
    let _ = held_by_server;

    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();

    server.crash();
    assert!(!server.is_alive());
    // Calls on the crashed server's doors fail.
    assert_eq!(
        client.call(id, Message::new()).unwrap_err(),
        DoorError::Revoked
    );
    // The identifier the server held on `other`'s door was deleted, firing
    // the unreferenced notification.
    assert_eq!(target.unrefs.load(Ordering::SeqCst), 1);
}

#[test]
fn handler_panic_is_contained() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");

    struct Bomb;
    impl DoorHandler for Bomb {
        fn invoke(&self, _ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            panic!("boom");
        }
    }

    let door = server.create_door(Arc::new(Bomb)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();
    match client.call(id, Message::new()) {
        Err(DoorError::Handler(_)) => {}
        other => panic!("expected handler error, got {other:?}"),
    }
    // The kernel is still healthy.
    assert!(client.is_alive());
}

#[test]
fn bad_identifier_in_message_leaves_sender_intact() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();

    let good = client.copy_door(id).unwrap();
    let bogus = {
        // A deleted identifier.
        let c = client.copy_door(id).unwrap();
        client.delete_door(c).unwrap();
        c
    };
    let msg = Message {
        bytes: vec![],
        doors: vec![good, bogus],
        ..Message::default()
    };
    assert_eq!(client.call(id, msg).unwrap_err(), DoorError::InvalidDoor);
    // The good identifier was not moved.
    assert!(client.door_is_valid(good));
}

#[test]
fn an_identifier_named_twice_in_one_message_is_rejected_before_anything_moves() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();

    let target = CountingTarget::new();
    let passed = client.create_door(target.clone() as Arc<_>).unwrap();
    let other = client.copy_door(id).unwrap();
    let before = kernel.stats();
    let msg = Message {
        bytes: vec![],
        doors: vec![other, passed, passed],
        ..Message::default()
    };
    // One reference cannot land as two identifiers.
    assert_eq!(client.call(id, msg).unwrap_err(), DoorError::InvalidDoor);
    let moved = kernel.stats().since(&before);
    assert_eq!(moved.ids_transferred, 0);
    assert!(client.door_is_valid(other));
    assert!(client.door_is_valid(passed));
    // The single reference is still exactly one reference.
    client.delete_door(passed).unwrap();
    assert_eq!(target.unrefs.load(Ordering::SeqCst), 1);
    assert!(!client.door_is_valid(passed));
}

#[test]
fn nested_calls_reenter_the_kernel() {
    let kernel = Kernel::new("t");
    let front = kernel.create_domain("front");
    let back = kernel.create_domain("back");
    let client = kernel.create_domain("client");

    let back_door = back.create_door(Arc::new(Echo)).unwrap();
    let back_id = back.transfer_door(back_door, &front).unwrap();

    struct Forwarder {
        target: spring_kernel::DoorId,
    }
    impl DoorHandler for Forwarder {
        fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            ctx.server().call(self.target, msg)
        }
    }

    let fwd = front
        .create_door(Arc::new(Forwarder { target: back_id }))
        .unwrap();
    let fwd_id = front.transfer_door(fwd, &client).unwrap();
    let reply = client.call(fwd_id, Message::from_bytes(vec![5])).unwrap();
    assert_eq!(reply.bytes, vec![5]);
}

#[test]
fn stats_track_doors_and_calls() {
    let kernel = Kernel::new("t");
    let before = kernel.stats();
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let id = server.transfer_door(door, &client).unwrap();
    client.call(id, Message::from_bytes(vec![0; 100])).unwrap();
    let delta = kernel.stats().since(&before);
    assert_eq!(delta.doors_created, 1);
    assert_eq!(delta.door_calls, 1);
    assert!(delta.bytes_copied >= 100);
    assert!(delta.ids_transferred >= 1);
}

#[test]
fn dead_domain_cannot_operate() {
    let kernel = Kernel::new("t");
    let d = kernel.create_domain("d");
    let door = d.create_door(Arc::new(Echo)).unwrap();
    d.crash();
    assert_eq!(
        d.create_door(Arc::new(Echo)).unwrap_err(),
        DoorError::DomainDead
    );
    assert_eq!(
        d.call(door, Message::new()).unwrap_err(),
        DoorError::DomainDead
    );
    // Crashing twice is a no-op.
    d.crash();
}

#[test]
fn shm_roundtrip_through_kernel() {
    let kernel = Kernel::new("t");
    let region = kernel.create_shm(64);
    let id = region.id();
    let found = kernel.lookup_shm(id).unwrap();
    found.map_mut().unwrap()[0] = 42;
    assert_eq!(region.with(|d| d[0]).unwrap(), 42);
    kernel.destroy_shm(id);
    assert_eq!(kernel.lookup_shm(id).unwrap_err(), DoorError::InvalidShm);
}

#[test]
fn door_tokens_identify_doors() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let a = server.create_door(Arc::new(Echo)).unwrap();
    let b = server.create_door(Arc::new(Echo)).unwrap();
    let a2 = server.copy_door(a).unwrap();
    let moved = server.transfer_door(a2, &client).unwrap();

    // Copies and transfers of one door share a token; distinct doors do not.
    let ta = server.door_token(a).unwrap();
    assert_eq!(client.door_token(moved).unwrap(), ta);
    assert_ne!(server.door_token(b).unwrap(), ta);
    // Ownership is still enforced.
    assert!(client.door_token(a).is_err());
}

#[test]
fn closure_handlers_work() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let door = server
        .create_door(Arc::new(|_ctx: &CallCtx, msg: Message| {
            Ok(Message::from_bytes(
                msg.bytes.iter().rev().copied().collect(),
            ))
        }))
        .unwrap();
    let reply = server
        .call(door, Message::from_bytes(vec![1, 2, 3]))
        .unwrap();
    assert_eq!(reply.bytes, vec![3, 2, 1]);
}
