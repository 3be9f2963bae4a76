//! Caching subcontract (§8.2): attach-on-unmarshal, local cache hits,
//! write-through invalidation.

mod common;

use common::{ctx_on, ship, CounterClient, CounterServant, TestNames, COUNTER_TYPE, OP_GET};
use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use spring_subcontracts::{CacheManager, Caching};
use subcontract::SpringError;

/// Builds a client context wired to a local cache manager bound as
/// `"cache_manager"`, returning the manager for stats inspection.
fn client_with_manager(
    kernel: &Kernel,
    names: &std::sync::Arc<TestNames>,
) -> (
    std::sync::Arc<subcontract::DomainCtx>,
    std::sync::Arc<CacheManager>,
) {
    let mgr_ctx = ctx_on(kernel, "cache-manager");
    let manager = CacheManager::new(&mgr_ctx, [OP_GET, common::OP_ECHO]);
    names.bind("cache_manager", manager.export().unwrap());

    let client = ctx_on(kernel, "client");
    client.set_resolver(names.resolver_for(&client));
    (client, manager)
}

#[test]
fn unmarshal_attaches_and_reads_hit_the_cache() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    let (client, manager) = client_with_manager(&kernel, &names);

    let obj = Caching::export(&server, CounterServant::new(42), "cache_manager").unwrap();
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();
    assert_eq!(manager.stats().attaches(), 1);

    let c = CounterClient(obj);
    // First read misses and fills the cache; the rest hit locally.
    for _ in 0..5 {
        assert_eq!(c.get().unwrap(), 42);
    }
    assert_eq!(manager.stats().misses(), 1);
    assert_eq!(manager.stats().hits(), 4);
}

#[test]
fn writes_forward_and_invalidate() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    let (client, manager) = client_with_manager(&kernel, &names);

    let servant = CounterServant::new(0);
    let obj = Caching::export(&server, servant.clone(), "cache_manager").unwrap();
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());

    assert_eq!(c.get().unwrap(), 0); // Miss, cached.
    assert_eq!(c.get().unwrap(), 0); // Hit.
    assert_eq!(c.add(5).unwrap(), 5); // Forwarded, invalidates.
    assert_eq!(manager.stats().forwards(), 1);
    assert_eq!(manager.stats().invalidations(), 1);
    // The stale cached read must not resurface.
    assert_eq!(c.get().unwrap(), 5);
    assert_eq!(*servant.value.lock(), 5);
}

#[test]
fn exporting_server_needs_no_cache() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    // No resolver, no manager: the server's own object invokes directly.
    let obj = Caching::export(&server, CounterServant::new(7), "cache_manager").unwrap();
    let c = CounterClient(obj);
    assert_eq!(c.get().unwrap(), 7);
    assert_eq!(c.add(1).unwrap(), 8);
}

#[test]
fn unmarshal_without_resolver_fails_cleanly() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client"); // No resolver configured.

    let obj = Caching::export(&server, CounterServant::new(0), "cache_manager").unwrap();
    match ship(obj, &client, &COUNTER_TYPE) {
        Err(SpringError::Unsupported(_)) => {}
        other => panic!("expected missing-resolver error, got {other:?}"),
    }
}

#[test]
fn unmarshal_with_unknown_manager_fails_cleanly() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    client.set_resolver(names.resolver_for(&client));

    let obj = Caching::export(&server, CounterServant::new(0), "nonexistent_manager").unwrap();
    match ship(obj, &client, &COUNTER_TYPE) {
        Err(SpringError::ResolveFailed(name)) => assert_eq!(name, "nonexistent_manager"),
        other => panic!("expected resolve failure, got {other:?}"),
    }
}

#[test]
fn two_clients_get_independent_caches() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    let (client_a, manager) = client_with_manager(&kernel, &names);
    // Second client shares the same machine-local manager.
    let client_b = ctx_on(&kernel, "client-b");
    client_b.set_resolver(names.resolver_for(&client_b));

    let obj = Caching::export(&server, CounterServant::new(1), "cache_manager").unwrap();
    let a = CounterClient(common::ship_copy(&obj, &client_a, &COUNTER_TYPE).unwrap());
    let b = CounterClient(common::ship_copy(&obj, &client_b, &COUNTER_TYPE).unwrap());
    assert_eq!(manager.stats().attaches(), 2);

    assert_eq!(a.get().unwrap(), 1);
    assert_eq!(b.get().unwrap(), 1);
    // Each attachment missed once: the caches are per attachment.
    assert_eq!(manager.stats().misses(), 2);
}

#[test]
fn copied_caching_object_shares_cache_door() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    let (client, manager) = client_with_manager(&kernel, &names);

    let obj = Caching::export(&server, CounterServant::new(3), "cache_manager").unwrap();
    let a = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    let b = CounterClient(a.0.copy().unwrap());

    assert_eq!(a.get().unwrap(), 3);
    assert_eq!(b.get().unwrap(), 3);
    // The copy reuses the same attachment: one miss, one hit.
    assert_eq!(manager.stats().attaches(), 1);
    assert_eq!(manager.stats().misses(), 1);
    assert_eq!(manager.stats().hits(), 1);
}

/// §5.1.5 on caching: a `marshal_copy` of an attached object puts a copy of
/// D1 in the buffer and issues nothing else — no copy of D2 that the
/// marshal would delete again — and writes what `copy().marshal()` writes.
#[test]
fn marshal_copy_of_an_attached_object_copies_only_d1() {
    let kernel = Kernel::new("t");
    let names = TestNames::new();
    let server = ctx_on(&kernel, "server");
    let (client, manager) = client_with_manager(&kernel, &names);

    let obj = Caching::export(&server, CounterServant::new(5), "cache_manager").unwrap();
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();
    assert_eq!(manager.stats().attaches(), 1);

    let before = kernel.stats();
    let mut short_cut = CommBuffer::new();
    obj.marshal_copy(&mut short_cut).unwrap();
    let after = kernel.stats();
    let issued = after.ids_issued - before.ids_issued;
    let deleted = after.ids_deleted - before.ids_deleted;
    assert_eq!((issued, deleted), (1, 0), "identifiers (issued, deleted)");

    let mut long_way = CommBuffer::new();
    obj.copy().unwrap().marshal(&mut long_way).unwrap();
    let (short_cut, long_way) = (short_cut.into_message(), long_way.into_message());
    assert_eq!(short_cut.bytes, long_way.bytes);
    for door in short_cut.doors.into_iter().chain(long_way.doors) {
        client.domain().delete_door(door).unwrap();
    }
}
