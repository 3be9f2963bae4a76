//! The §7 life cycle on singleton and simplex: birth, transmission,
//! invocation, copying, death, and revocation — plus the same-address-space
//! fast path, and the death notice on every single-servant subcontract.

mod common;

use std::sync::Arc;

use common::{
    ctx_on, ship, ship_copy, CounterClient, CounterServant, TestNames, COUNTER_TYPE, OP_GET,
};
use spring_kernel::{DoorError, Kernel};
use spring_subcontracts::priority::Priority;
use spring_subcontracts::stream::Stream;
use spring_subcontracts::txn::Txn;
use spring_subcontracts::{
    CacheManager, Caching, Reconnectable, ReplicaGroup, RepliconServer, Shmem, Simplex, Singleton,
};
use subcontract::{ServerSubcontract, SpringError};

#[test]
fn singleton_full_lifecycle() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    // Birth: the server creates a Spring object from a language-level object.
    let servant = CounterServant::new(10);
    let obj = Singleton.export(&server, servant.clone()).unwrap();

    // Transmission: the object moves to the client's address space.
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();
    let counter = CounterClient(obj);

    // Invocation: calls flow through the stubs, subcontract, kernel, and
    // server-side stubs into the server application.
    assert_eq!(counter.get().unwrap(), 10);
    assert_eq!(counter.add(5).unwrap(), 15);
    assert_eq!(*servant.value.lock(), 15);

    // Reproduction: a shallow copy shares the underlying state.
    let copy = CounterClient(counter.0.copy().unwrap());
    assert_eq!(copy.get().unwrap(), 15);
    copy.add(1).unwrap();
    assert_eq!(counter.get().unwrap(), 16);

    // Death: consuming the objects deletes the identifiers; when the last
    // one dies the kernel notifies the door's target.
    let before = kernel.stats();
    copy.0.consume().unwrap();
    counter.0.consume().unwrap();
    let delta = kernel.stats().since(&before);
    assert_eq!(delta.ids_deleted, 2);
    assert_eq!(delta.unref_notifications, 1);
}

#[test]
fn simplex_lifecycle_and_user_exception() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let obj = Simplex.export(&server, CounterServant::new(0)).unwrap();
    let counter = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());

    assert_eq!(counter.add(7).unwrap(), 7);
    assert_eq!(counter.get().unwrap(), 7);
    match counter.fail().unwrap_err() {
        SpringError::UnknownUserException(name) => assert_eq!(name, "counter_error"),
        other => panic!("expected user exception, got {other:?}"),
    }
    assert_eq!(counter.echo(b"roundtrip").unwrap(), b"roundtrip");
}

#[test]
fn revocation_blocks_clients() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let obj = Singleton.export(&server, CounterServant::new(0)).unwrap();
    let client_obj = ship_copy(&obj, &client, &COUNTER_TYPE).unwrap();
    let counter = CounterClient(client_obj);
    assert_eq!(counter.get().unwrap(), 0);

    // The server discards the state without waiting for client consent
    // (§5.2.3).
    Singleton.revoke(&obj).unwrap();
    match counter.get().unwrap_err() {
        SpringError::Door(DoorError::Revoked) => {}
        other => panic!("expected revoked, got {other:?}"),
    }
}

#[test]
fn local_fast_path_avoids_doors_until_marshal() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let before = kernel.stats();
    let obj = Simplex::export_local(&server, CounterServant::new(3)).unwrap();
    let local = CounterClient(obj);

    // Local invocations touch no doors at all (§5.2.1).
    assert_eq!(local.get().unwrap(), 3);
    assert_eq!(local.add(4).unwrap(), 7);
    let mid = kernel.stats().since(&before);
    assert_eq!(mid.doors_created, 0);
    assert_eq!(mid.door_calls, 0);

    // First transmission creates the cross-domain resources.
    let remote = CounterClient(ship(local.0, &client, &COUNTER_TYPE).unwrap());
    let after = kernel.stats().since(&before);
    assert_eq!(after.doors_created, 1);
    assert_eq!(remote.get().unwrap(), 7);
}

#[test]
fn local_copy_shares_state() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");

    let obj = Simplex::export_local(&server, CounterServant::new(0)).unwrap();
    let a = CounterClient(obj);
    let b = CounterClient(a.0.copy().unwrap());
    a.add(2).unwrap();
    b.add(3).unwrap();
    assert_eq!(a.get().unwrap(), 5);
    assert_eq!(b.get().unwrap(), 5);
}

#[test]
fn drop_consumes_implicitly() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let obj = Singleton.export(&server, CounterServant::new(0)).unwrap();
    let before = kernel.stats();
    drop(obj);
    let delta = kernel.stats().since(&before);
    assert_eq!(delta.ids_deleted, 1);
    assert_eq!(delta.unref_notifications, 1);
    assert_eq!(kernel.live_doors(), 0);
}

#[test]
fn unknown_op_reported() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let obj = Singleton.export(&server, CounterServant::new(0)).unwrap();
    let call = obj.start_call(0xDEAD_BEEF).unwrap();
    let mut reply = obj.invoke(call).unwrap();
    match subcontract::decode_reply_status(&mut reply).unwrap_err() {
        SpringError::UnknownOp(op) => assert_eq!(op, 0xDEAD_BEEF),
        other => panic!("expected unknown op, got {other:?}"),
    }
}

#[test]
fn narrow_and_type_queries() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let obj = Singleton.export(&server, CounterServant::new(0)).unwrap();
    assert!(obj.is_a(&COUNTER_TYPE));
    assert!(obj.is_a(&subcontract::OBJECT_TYPE));
    obj.narrow(&COUNTER_TYPE).unwrap();
    obj.narrow(&subcontract::OBJECT_TYPE).unwrap();
    assert!(matches!(
        obj.narrow(&spring_subcontracts::caching::CACHE_MANAGER_TYPE),
        Err(SpringError::TypeMismatch { .. })
    ));
}

#[test]
fn marshal_copy_leaves_original_usable() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client_a = ctx_on(&kernel, "a");
    let client_b = ctx_on(&kernel, "b");

    let obj = Singleton.export(&server, CounterServant::new(1)).unwrap();
    let a = CounterClient(ship_copy(&obj, &client_a, &COUNTER_TYPE).unwrap());
    let b = CounterClient(ship_copy(&obj, &client_b, &COUNTER_TYPE).unwrap());
    let orig = CounterClient(obj);

    orig.add(1).unwrap();
    a.add(1).unwrap();
    b.add(1).unwrap();
    assert_eq!(orig.get().unwrap(), 4);
}

#[test]
fn concurrent_clients_through_one_door() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let obj = Singleton.export(&server, CounterServant::new(0)).unwrap();

    let mut joins = Vec::new();
    for i in 0..8 {
        let client = ctx_on(&kernel, format!("client-{i}").as_str());
        let mine = ship_copy(&obj, &client, &COUNTER_TYPE).unwrap();
        joins.push(std::thread::spawn(move || {
            let c = CounterClient(mine);
            for _ in 0..100 {
                c.add(1).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(CounterClient(obj).get().unwrap(), 800);
}

#[test]
fn servant_observes_unreferenced() {
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Observer {
        inner: Arc<CounterServant>,
        unrefs: AtomicU64,
    }
    impl subcontract::Dispatch for Observer {
        fn type_info(&self) -> &'static subcontract::TypeInfo {
            &COUNTER_TYPE
        }
        fn dispatch(
            &self,
            sctx: &subcontract::ServerCtx,
            op: u32,
            args: &mut spring_buf::CommBuffer,
            reply: &mut spring_buf::CommBuffer,
        ) -> subcontract::Result<()> {
            self.inner.dispatch(sctx, op, args, reply)
        }
        fn unreferenced(&self) {
            self.unrefs.fetch_add(1, Ordering::SeqCst);
        }
    }

    // Every single-servant subcontract of the conformance matrix (cluster
    // shares one door among many servants, so nobody is told).
    for which in [
        "singleton",
        "simplex",
        "simplex-local",
        "replicon",
        "caching",
        "reconnectable",
        "shmem",
        "priority",
        "txn",
        "stream",
    ] {
        let kernel = Kernel::new("t");
        let server = ctx_on(&kernel, "server");
        let client = ctx_on(&kernel, "client");
        for ctx in [&server, &client] {
            ctx.register_subcontract(Priority::new());
            ctx.register_subcontract(Txn::new());
            ctx.register_subcontract(Stream::new());
        }
        let names = TestNames::new();
        let manager = CacheManager::new(&ctx_on(&kernel, "manager"), [OP_GET]);
        names.bind("cache_manager", manager.export().unwrap());
        client.set_resolver(names.resolver_for(&client));

        let observer = Arc::new(Observer {
            inner: CounterServant::new(0),
            unrefs: AtomicU64::new(0),
        });
        let disp = observer.clone();
        let obj = match which {
            "singleton" => Singleton.export(&server, disp),
            "simplex" => Simplex.export(&server, disp),
            "simplex-local" => Simplex::export_local(&server, disp),
            "replicon" => {
                let group = ReplicaGroup::new();
                group
                    .add(RepliconServer::new(&server, disp).unwrap())
                    .unwrap();
                group.object_for(&server)
            }
            "caching" => Caching::export(&server, disp, "cache_manager"),
            "reconnectable" => Reconnectable::export(&server, disp, "svc/x"),
            "shmem" => Shmem::export(&server, disp, 4096),
            "priority" => Priority.export(&server, disp),
            "txn" => Txn::export_with_journal(&server, disp).map(|(obj, _)| obj),
            _ => Stream::export(&server, disp, Arc::new(|_: u64, _: &[u8]| {})).map(|(obj, _)| obj),
        }
        .unwrap();
        let moved = ship(obj, &client, &COUNTER_TYPE).unwrap();
        assert_eq!(CounterClient(moved.copy().unwrap()).add(1).unwrap(), 1);
        let copy = moved.copy().unwrap();
        copy.consume().unwrap();
        assert_eq!(observer.unrefs.load(Ordering::SeqCst), 0, "{which}");
        moved.consume().unwrap();
        if which == "replicon" {
            // A replica keeps identifiers for its own door (and its
            // group's), so the last one dies with its domain.
            assert_eq!(observer.unrefs.load(Ordering::SeqCst), 0, "{which}");
            server.domain().crash();
        }
        // The last identifier died; the servant heard about it (§7).
        assert_eq!(observer.unrefs.load(Ordering::SeqCst), 1, "{which}");
    }
}
