//! Reconnectable subcontract (§8.3): quiet recovery from server crashes via
//! name re-resolution and periodic retries.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{ctx_on, ship, CounterClient, CounterServant, TestNames, COUNTER_TYPE};
use spring_kernel::Kernel;
use spring_subcontracts::{Reconnectable, RetryPolicy};
use subcontract::SpringError;

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        interval: Duration::from_millis(1),
        ..RetryPolicy::default()
    }
}

/// Registers a reconnectable subcontract with a fast test policy in `ctx`.
fn use_fast_reconnectable(ctx: &Arc<subcontract::DomainCtx>) {
    ctx.register_subcontract(Reconnectable::with_policy(fast_policy()));
}

#[test]
fn survives_crash_and_restart() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();

    // Generation one of the server.
    let server1 = ctx_on(&kernel, "server-gen1");
    use_fast_reconnectable(&server1);
    let obj = Reconnectable::export(&server1, CounterServant::new(100), "svc/counter").unwrap();
    names.bind("svc/counter", obj.copy().unwrap());

    let client = ctx_on(&kernel, "client");
    use_fast_reconnectable(&client);
    client.set_resolver(names.resolver_for(&client));
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    assert_eq!(c.get().unwrap(), 100);

    // Crash; restart as a new domain with recovered state; re-bind.
    server1.domain().crash();
    names.unbind("svc/counter");
    let server2 = ctx_on(&kernel, "server-gen2");
    use_fast_reconnectable(&server2);
    let obj2 = Reconnectable::export(&server2, CounterServant::new(100), "svc/counter").unwrap();
    names.bind("svc/counter", obj2);

    // The client's next call quietly reconnects.
    assert_eq!(c.get().unwrap(), 100);
    assert_eq!(c.add(1).unwrap(), 101);
}

#[test]
fn retries_until_rebind_appears() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();

    let server1 = ctx_on(&kernel, "server-gen1");
    use_fast_reconnectable(&server1);
    let obj = Reconnectable::export(&server1, CounterServant::new(5), "svc/x").unwrap();
    names.bind("svc/x", obj.copy().unwrap());

    let client = ctx_on(&kernel, "client");
    use_fast_reconnectable(&client);
    client.set_resolver(names.resolver_for(&client));
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    assert_eq!(c.get().unwrap(), 5);

    server1.domain().crash();
    names.unbind("svc/x");

    // Restart the server from another thread after a few retry intervals.
    let kernel2 = kernel.clone();
    let names2 = names.clone();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(4));
        let server2 = ctx_on(&kernel2, "server-gen2");
        use_fast_reconnectable(&server2);
        let obj2 = Reconnectable::export(&server2, CounterServant::new(5), "svc/x").unwrap();
        names2.bind("svc/x", obj2);
    });

    // This call spans the outage: it must retry periodically and succeed.
    assert_eq!(c.get().unwrap(), 5);
    restarter.join().unwrap();
}

#[test]
fn gives_up_after_retry_budget() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();

    let server = ctx_on(&kernel, "server");
    let policy = RetryPolicy {
        max_attempts: 3,
        interval: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    server.register_subcontract(Reconnectable::with_policy(policy));
    let obj = Reconnectable::export(&server, CounterServant::new(0), "svc/dead").unwrap();

    let client = ctx_on(&kernel, "client");
    client.register_subcontract(Reconnectable::with_policy(policy));
    client.set_resolver(names.resolver_for(&client));
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());

    server.domain().crash();
    // Nothing ever re-binds the name.
    match c.get().unwrap_err() {
        SpringError::Exhausted(_) => {}
        other => panic!("expected exhaustion, got {other:?}"),
    }
}

#[test]
fn adopts_door_from_singleton_binding() {
    // A restarted server may bind a plain singleton object under the name;
    // reconnectable adopts its door.
    let kernel = Kernel::new("t");
    let names = TestNames::new();

    let server1 = ctx_on(&kernel, "server-gen1");
    use_fast_reconnectable(&server1);
    let obj = Reconnectable::export(&server1, CounterServant::new(9), "svc/y").unwrap();
    names.bind("svc/y", obj.copy().unwrap());

    let client = ctx_on(&kernel, "client");
    use_fast_reconnectable(&client);
    client.set_resolver(names.resolver_for(&client));
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    assert_eq!(c.get().unwrap(), 9);

    server1.domain().crash();
    let server2 = ctx_on(&kernel, "server-gen2");
    let singleton_obj = subcontract::ServerSubcontract::export(
        &*spring_subcontracts::Singleton::new(),
        &server2,
        CounterServant::new(9),
    )
    .unwrap();
    names.bind("svc/y", singleton_obj);

    assert_eq!(c.add(1).unwrap(), 10);
}

#[test]
fn adopts_door_from_simplex_binding() {
    // A simplex-served door expects a control byte this client never writes
    // (and prefixes one to replies it never strips), so it is not adopted:
    // such a binding is a failed attempt like "name not bound yet" — typed,
    // leak-free — and a usable rebind within a later call's budget recovers.
    let kernel = Kernel::new("t");
    let names = TestNames::new();

    let server1 = ctx_on(&kernel, "server-gen1");
    use_fast_reconnectable(&server1);
    let obj = Reconnectable::export(&server1, CounterServant::new(9), "svc/s").unwrap();
    names.bind("svc/s", obj.copy().unwrap());

    let client = ctx_on(&kernel, "client");
    // A short budget: the refused call below spends all of it.
    client.register_subcontract(Reconnectable::with_policy(RetryPolicy {
        max_attempts: 4,
        ..fast_policy()
    }));
    client.set_resolver(names.resolver_for(&client));
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    assert_eq!(c.get().unwrap(), 9);

    server1.domain().crash();
    let server2 = ctx_on(&kernel, "server-gen2");
    let servant = CounterServant::new(9);
    let simplex_obj = subcontract::ServerSubcontract::export(
        &*spring_subcontracts::Simplex::new(),
        &server2,
        servant.clone(),
    )
    .unwrap();
    names.bind("svc/s", simplex_obj);

    let before = kernel.stats();
    match c.add(1).unwrap_err() {
        SpringError::Exhausted(_) => {}
        other => panic!("expected exhaustion, got {other:?}"),
    }
    assert_eq!(*servant.value.lock(), 9, "nothing reached the servant");
    let delta = kernel.stats().since(&before);
    assert_eq!(
        delta.ids_issued, delta.ids_deleted,
        "every refused binding's identifiers were released"
    );

    let singleton_obj = subcontract::ServerSubcontract::export(
        &*spring_subcontracts::Singleton::new(),
        &server2,
        servant,
    )
    .unwrap();
    names.bind("svc/s", singleton_obj);
    assert_eq!(c.add(1).unwrap(), 10);
}

#[test]
fn non_comm_failures_are_not_retried() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    use_fast_reconnectable(&server);
    let obj = Reconnectable::export(&server, CounterServant::new(0), "svc/z").unwrap();

    let client = ctx_on(&kernel, "client");
    use_fast_reconnectable(&client);
    client.set_resolver(names.resolver_for(&client));
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());

    // Unknown user exception: the call must fail immediately, not retry.
    let start = std::time::Instant::now();
    assert!(c.fail().is_err());
    assert!(start.elapsed() < Duration::from_millis(50));
}
