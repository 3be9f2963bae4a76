//! Core-crate tests that need a live kernel: transports, context plumbing,
//! and the discovery error ladder.

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{DoorError, Kernel, Message};
use subcontract::{
    DomainCtx, KernelTransport, LibraryStore, MapLibraryNames, ScId, SpringError, Transport,
};

#[test]
fn kernel_transport_moves_identifiers() {
    let kernel = Kernel::new("t");
    let a = kernel.create_domain("a");
    let b = kernel.create_domain("b");
    let door = a
        .create_door(Arc::new(|_: &spring_kernel::CallCtx, m| Ok(m)))
        .unwrap();

    let t = KernelTransport;
    let moved = t
        .ship(
            &a,
            &b,
            Message {
                bytes: vec![1, 2],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(moved.bytes, vec![1, 2]);
    assert_eq!(moved.doors[0].owner(), b.id());
    assert!(!a.door_is_valid(door));
    assert!(b.door_is_valid(moved.doors[0]));
}

/// A message the kernel cannot move whole is lost whole: nothing lands in
/// the receiver, and the sender's identifiers in it are deleted rather than
/// dropped undeleted.
#[test]
fn kernel_transport_failure_leaves_no_identifier_behind() {
    let kernel = Kernel::new("t");
    let a = kernel.create_domain("a");
    let b = kernel.create_domain("b");
    let other = kernel.create_domain("other");
    let echo = || Arc::new(|_: &spring_kernel::CallCtx, m| Ok(m));
    let live = || {
        let s = kernel.stats();
        s.ids_issued - s.ids_deleted
    };
    let foreign = other.create_door(echo()).unwrap();
    let base = live();
    let valid = a.create_door(echo()).unwrap();

    let shipped = KernelTransport.ship(
        &a,
        &b,
        Message {
            doors: vec![valid, foreign],
            ..Message::default()
        },
    );
    assert_eq!(shipped.unwrap_err(), DoorError::InvalidDoor);
    assert!(!a.door_is_valid(valid));
    assert!(other.door_is_valid(foreign), "not the sender's to delete");
    assert_eq!(live(), base, "identifiers left behind by a failed ship");
    kernel.audit().unwrap();
}

#[test]
fn a_door_marshalled_twice_into_one_buffer_is_refused_by_the_kernel() {
    let kernel = Kernel::new("t");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let echo = server
        .create_door(Arc::new(|_: &spring_kernel::CallCtx, m| Ok(m)))
        .unwrap();
    let echo = server.transfer_door(echo, &client).unwrap();
    let passed = client.copy_door(echo).unwrap();

    // Two `put_door`s of one identifier name one reference twice; landed as
    // two identifiers, deleting the first would destroy the door under the
    // second.
    let mut buf = CommBuffer::new();
    buf.put_door(passed);
    buf.put_door(passed);
    assert_eq!(
        client.call(echo, buf.into_message()).unwrap_err(),
        DoorError::InvalidDoor
    );
    // Nothing moved: the sender still holds its one identifier.
    assert!(client.door_is_valid(passed));
    assert_eq!(kernel.stats().ids_transferred, 1);
}

#[test]
fn kernel_transport_refuses_cross_machine() {
    let k1 = Kernel::new("one");
    let k2 = Kernel::new("two");
    let a = k1.create_domain("a");
    let b = k2.create_domain("b");
    let t = KernelTransport;
    match t.ship(&a, &b, Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("network")),
        other => panic!("expected comm error, got {other:?}"),
    }
}

#[test]
fn lookup_error_ladder() {
    // No naming context configured at all.
    let kernel = Kernel::new("t");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let ghost = ScId::from_name("ghost");
    assert_eq!(
        ctx.lookup_subcontract(ghost).err().unwrap(),
        SpringError::UnknownSubcontract(ghost)
    );

    // Naming context configured, but it does not know the id.
    ctx.set_library_names(MapLibraryNames::new());
    ctx.configure_loader(LibraryStore::new(), vec!["/lib".into()]);
    assert_eq!(
        ctx.lookup_subcontract(ghost).err().unwrap(),
        SpringError::UnknownLibrary(ghost)
    );

    // Naming context maps it, but the library is not installed.
    let names = MapLibraryNames::new();
    names.bind(ghost, "ghost.so");
    ctx.set_library_names(names);
    assert_eq!(
        ctx.lookup_subcontract(ghost).err().unwrap(),
        SpringError::ResolveFailed("ghost.so".into())
    );
}

#[test]
fn loaded_library_that_lacks_the_id_still_errors() {
    // A mapped, trusted library that does not actually provide the wanted
    // subcontract leaves the registry miss in place.
    let kernel = Kernel::new("t");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let wanted = ScId::from_name("wanted");
    let store = LibraryStore::new();
    store.install("empty.so", "/lib", Arc::new(Vec::new));
    let names = MapLibraryNames::new();
    names.bind(wanted, "empty.so");
    ctx.configure_loader(store, vec!["/lib".into()]);
    ctx.set_library_names(names);
    assert_eq!(
        ctx.lookup_subcontract(wanted).err().unwrap(),
        SpringError::UnknownSubcontract(wanted)
    );
}

#[test]
fn resolver_unconfigured_is_a_clean_error() {
    let kernel = Kernel::new("t");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    assert!(matches!(
        ctx.resolver().err().unwrap(),
        SpringError::Unsupported(_)
    ));
}

#[test]
fn search_path_can_be_changed_at_runtime() {
    let kernel = Kernel::new("t");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let id = ScId::from_name("thing");
    let store = LibraryStore::new();
    store.install("thing.so", "/opt/untrusted", Arc::new(Vec::new));
    let names = MapLibraryNames::new();
    names.bind(id, "thing.so");
    ctx.configure_loader(store, vec!["/lib".into()]);
    ctx.set_library_names(names);

    assert!(matches!(
        ctx.lookup_subcontract(id).err().unwrap(),
        SpringError::UntrustedLibrary { .. }
    ));

    // The administrator blesses the directory; the load now proceeds (and
    // fails later only because the library is empty).
    ctx.configure_loader(
        {
            let store = LibraryStore::new();
            store.install("thing.so", "/opt/untrusted", Arc::new(Vec::new));
            store
        },
        vec!["/opt/untrusted".into()],
    );
    assert_eq!(
        ctx.lookup_subcontract(id).err().unwrap(),
        SpringError::UnknownSubcontract(id)
    );
}

#[test]
fn obj_header_survives_ignorant_intermediaries() {
    // The wire type name written by put_obj_header comes back intact even
    // when the reader's registry is empty.
    let kernel = Kernel::new("t");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let mut buf = CommBuffer::new();
    subcontract::put_obj_header(&mut buf, ScId::from_name("x"), "exotic::type");
    let (id, name, info) =
        subcontract::get_obj_header(&ctx, &subcontract::OBJECT_TYPE, &mut buf).unwrap();
    assert_eq!(id, ScId::from_name("x"));
    assert_eq!(name, "exotic::type");
    assert_eq!(info.name, "object");
}
