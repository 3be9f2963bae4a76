//! The §8.4 future-direction subcontracts (priority, txn), built as third
//! parties would: on the public API only, discoverable at run time.

mod common;

use std::sync::Arc;

use common::{ctx_on, ship, ship_copy, CounterClient, COUNTER_TYPE};
use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use spring_subcontracts::priority::{current_call_priority, stamp_enqueue_ns, Priority};
use spring_subcontracts::txn::{current_txn, Txn, TxnScope};
use spring_subcontracts::{extensions_library, Singleton};
use subcontract::{
    encode_ok, LibraryStore, MapLibraryNames, Repr, Result, ServerCtx, ServerSubcontract,
    SpringError, SpringObj,
};

/// A servant that records the priority and transaction it observed.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<(u32, u64)>>,
}

impl subcontract::Dispatch for Recorder {
    fn type_info(&self) -> &'static subcontract::TypeInfo {
        &COUNTER_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        if op == common::OP_GET {
            self.seen
                .lock()
                .push((current_call_priority(), current_txn()));
            encode_ok(reply);
            reply.put_i64(self.seen.lock().len() as i64);
            Ok(())
        } else {
            Err(SpringError::UnknownOp(op))
        }
    }
}

fn register_extensions(ctx: &Arc<subcontract::DomainCtx>) {
    ctx.register_subcontract(Priority::new());
    ctx.register_subcontract(Txn::new());
}

#[test]
fn priority_travels_in_the_control_region() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    register_extensions(&server);
    register_extensions(&client);

    let recorder = Arc::new(Recorder::default());
    let obj = Priority.export(&server, recorder.clone()).unwrap();
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();

    Priority::set_priority(&obj, 7).unwrap();
    CounterClient(obj.copy().unwrap()).get().unwrap();
    Priority::set_priority(&obj, 99).unwrap();
    // The copy kept priority 7; the original now carries 99.
    CounterClient(obj).get().unwrap();

    let seen: Vec<u32> = recorder.seen.lock().iter().map(|(p, _)| *p).collect();
    assert_eq!(seen, vec![7, 99]);
    // Outside a call the thread-local is clear.
    assert_eq!(current_call_priority(), 0);
}

#[test]
fn priority_survives_marshalling() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let a = ctx_on(&kernel, "a");
    let b = ctx_on(&kernel, "b");
    for ctx in [&server, &a, &b] {
        register_extensions(ctx);
    }

    let recorder = Arc::new(Recorder::default());
    let obj = Priority.export(&server, recorder.clone()).unwrap();
    let obj = ship(obj, &a, &COUNTER_TYPE).unwrap();
    Priority::set_priority(&obj, 42).unwrap();
    // The configured priority travels with the marshalled form.
    let obj = ship(obj, &b, &COUNTER_TYPE).unwrap();
    assert_eq!(Priority::priority(&obj).unwrap(), 42);
    CounterClient(obj).get().unwrap();
    assert_eq!(recorder.seen.lock()[0].0, 42);
}

#[test]
fn transactions_scope_per_thread_and_journal_on_the_server() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    register_extensions(&server);
    register_extensions(&client);

    let recorder = Arc::new(Recorder::default());
    let (obj, journal) = Txn::export_with_journal(&server, recorder.clone()).unwrap();
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();
    let c = CounterClient(obj);

    // Outside a transaction: nothing journaled.
    c.get().unwrap();
    assert!(journal.entries().is_empty());

    {
        let _scope = TxnScope::begin(1001);
        c.get().unwrap();
        c.get().unwrap();
        {
            let _nested = TxnScope::begin(2002);
            c.get().unwrap();
        }
        // Nested scope closed: back to 1001.
        c.get().unwrap();
    }
    c.get().unwrap(); // Scope closed: no transaction again.

    assert_eq!(journal.ops_in(1001).len(), 3);
    assert_eq!(journal.ops_in(2002).len(), 1);
    assert_eq!(journal.entries().len(), 4);
    // Every journaled op was the GET operation.
    assert!(journal
        .entries()
        .iter()
        .all(|(_, op)| *op == common::OP_GET));
    // The servant saw matching transaction ids.
    let txns: Vec<u64> = recorder.seen.lock().iter().map(|(_, t)| *t).collect();
    assert_eq!(txns, vec![0, 1001, 1001, 2002, 1001, 0]);
}

#[test]
fn extensions_load_via_dynamic_discovery() {
    // A program that has never heard of the priority subcontract receives a
    // priority object; §6.2's machinery fetches the extension library.
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    register_extensions(&server);

    let client = subcontract::DomainCtx::new(kernel.create_domain("old-client"));
    client.register_subcontract(Singleton::new());
    client.types().register(&COUNTER_TYPE);
    let store = LibraryStore::new();
    store.install(
        "extensions.so",
        "/usr/lib/subcontracts",
        extensions_library(),
    );
    let names = MapLibraryNames::new();
    names.bind(Priority::ID, "extensions.so");
    client.configure_loader(store, vec!["/usr/lib/subcontracts".into()]);
    client.set_library_names(names);

    let recorder = Arc::new(Recorder::default());
    let obj = Priority.export(&server, recorder).unwrap();
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();
    assert_eq!(obj.subcontract().name(), "priority");
    // Loading one library registered both extensions.
    assert!(client.registry().contains(Txn::ID));
    CounterClient(obj).get().unwrap();
}

#[test]
fn priority_copy_and_consume_behave() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    register_extensions(&server);
    let obj = Priority
        .export(&server, Arc::new(Recorder::default()))
        .unwrap();
    Priority::set_priority(&obj, 5).unwrap();
    let copy = obj.copy().unwrap();
    assert_eq!(Priority::priority(&copy).unwrap(), 5);
    obj.consume().unwrap();
    let _ = ship_copy(&copy, &server, &COUNTER_TYPE); // Still marshal-able.
}

/// A servant that, while serving, calls onward on the same thread under a
/// transaction and a priority of its own, and notes what the thread-locals
/// read before and after.
struct Nester {
    onward: Vec<CounterClient>,
    seen: Mutex<Vec<(u32, u64)>>,
}

impl subcontract::Dispatch for Nester {
    fn type_info(&self) -> &'static subcontract::TypeInfo {
        &COUNTER_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        _op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        self.seen
            .lock()
            .push((current_call_priority(), current_txn()));
        {
            let _scope = TxnScope::begin(777);
            for next in &self.onward {
                next.get()?;
            }
        }
        self.seen
            .lock()
            .push((current_call_priority(), current_txn()));
        encode_ok(reply);
        reply.put_i64(0);
        Ok(())
    }
}

#[test]
fn a_nested_outgoing_call_leaves_the_serving_scope_as_it_found_it() {
    // Thread scope is call scope only because a door call runs on the
    // caller's thread and every serve step restores what it replaced: a
    // servant that calls onward under another transaction and priority must
    // read its own again afterwards.
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    register_extensions(&server);
    register_extensions(&client);

    let inner = Arc::new(Recorder::default());
    let inner_priority = Priority.export(&server, inner.clone()).unwrap();
    Priority::set_priority(&inner_priority, 3).unwrap();
    let (inner_txn, _journal) = Txn::export_with_journal(&server, inner.clone()).unwrap();
    let nester = Arc::new(Nester {
        onward: vec![CounterClient(inner_priority), CounterClient(inner_txn)],
        seen: Mutex::default(),
    });

    let by_priority = ship(
        Priority.export(&server, nester.clone()).unwrap(),
        &client,
        &COUNTER_TYPE,
    )
    .unwrap();
    Priority::set_priority(&by_priority, 7).unwrap();
    CounterClient(by_priority).get().unwrap();

    let (by_txn, _journal) = Txn::export_with_journal(&server, nester.clone()).unwrap();
    let by_txn = CounterClient(ship(by_txn, &client, &COUNTER_TYPE).unwrap());
    {
        let _scope = TxnScope::begin(1001);
        by_txn.get().unwrap();
    }

    // Before and after the nested calls, under each outer subcontract.
    assert_eq!(*nester.seen.lock(), [(7, 0), (7, 0), (0, 1001), (0, 1001)]);
    // The inner servant saw the nested scopes: priority 3 on the priority
    // object (no txn control there), transaction 777 on the txn object.
    assert_eq!(*inner.seen.lock(), [(3, 0), (7, 777), (3, 1001), (0, 777)]);
    assert_eq!((current_call_priority(), current_txn()), (0, 0));
}

#[test]
fn a_stamp_whose_call_fails_in_its_preamble_does_not_reach_the_next_call() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    register_extensions(&server);
    let good = Priority
        .export(&server, Arc::new(Recorder::default()))
        .unwrap();
    // A priority object whose representation is not a priority one: its
    // preamble fails before a byte of control region is written.
    let broken = SpringObj::assemble(
        server.clone(),
        &COUNTER_TYPE,
        server.lookup_subcontract(Priority::ID).unwrap(),
        Repr::new(0u8),
    );
    let stamp_of = |obj: &SpringObj| {
        let mut call = obj.start_call(common::OP_GET).unwrap();
        call.get_u32().unwrap(); // The priority.
        call.get_u64().unwrap()
    };

    stamp_enqueue_ns(u64::MAX);
    assert_eq!(stamp_of(&good), u64::MAX, "a stamp rides the next call");
    assert_ne!(stamp_of(&good), u64::MAX, "and only that one");

    stamp_enqueue_ns(u64::MAX);
    assert!(matches!(
        broken.start_call(common::OP_GET),
        Err(SpringError::BadRepresentation("priority"))
    ));
    assert_ne!(stamp_of(&good), u64::MAX, "the failed call kept its stamp");
}
