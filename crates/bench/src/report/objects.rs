//! Moving objects about: E2 (transmission), E3 (cluster's door sharing),
//! E4b (unmarshal cost by subcontract), E7 (`marshal_copy`), E9 (dynamic
//! discovery) and E11 (compatible-subcontract re-dispatch).

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use spring_subcontracts::{
    standard_library, CacheManager, Caching, ClusterServer, Reconnectable, ReplicaGroup,
    RepliconServer, Simplex, Singleton,
};
use subcontract::{
    ship_object, ship_object_copy, unmarshal_object, DomainCtx, KernelTransport, LibraryStore,
    MapLibraryNames, ServerSubcontract, SpringObj,
};

use super::{servant, Names, Scale, Table, Value::*};
use crate::fixtures::{ctx_on, ping, OP_PING, PINGER_TYPE};
use crate::row;
use crate::timing::{ns_per_iter, time_once};

fn iters(scale: Scale) -> u64 {
    scale.pick(2_000, 50_000)
}

/// Times shipping a copy of `obj` to `to` and consuming it there: one
/// marshal_copy + unmarshal, nothing left behind.
fn copy_and_consume_ns(iters: u64, obj: &SpringObj, to: &Arc<DomainCtx>) -> f64 {
    ns_per_iter(iters, || {
        let copy = ship_object_copy(&KernelTransport, obj, to, &PINGER_TYPE).unwrap();
        copy.consume().unwrap();
    })
}

/// E2 — §9.3: the cost of transmitting an object (marshal + unmarshal +
/// subcontract ID) versus transmitting a bare door identifier.
pub fn e2_transmit(scale: Scale) -> Table {
    let iters = iters(scale);
    let mut t = Table::new(
        "e2",
        "E2: object transmission",
        "paper §9.3",
        &["arm", "ns/transmit"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e2");
    let a = ctx_on(&kernel, "a");
    let b = ctx_on(&kernel, "b");

    // Baseline: move a bare identifier back and forth.
    let raw = {
        let door = a
            .domain()
            .create_door(Arc::new(|_: &spring_kernel::CallCtx, m| Ok(m)))
            .unwrap();
        let mut held_by_a = true;
        let mut current = door;
        ns_per_iter(iters, || {
            let (from, to) = if held_by_a { (&a, &b) } else { (&b, &a) };
            current = from.domain().transfer_door(current, to.domain()).unwrap();
            held_by_a = !held_by_a;
        })
    };

    // Full subcontract transmission of a singleton object.
    let server = ctx_on(&kernel, "server");
    let obj = Singleton.export(&server, servant()).unwrap();
    let mut slot = Some(ship_object(&KernelTransport, obj, &a, &PINGER_TYPE).unwrap());
    let marshalled_size = {
        let mut buf = CommBuffer::new();
        slot.as_ref().unwrap().marshal_copy(&mut buf).unwrap();
        // Clean up the probe copy.
        let mut rb = CommBuffer::from_message(buf.into_message());
        let len = rb.len();
        let probe = unmarshal_object(&a, &PINGER_TYPE, &mut rb).unwrap();
        probe.consume().unwrap();
        len
    };
    let mut held_by_a = true;
    let full = ns_per_iter(iters, || {
        let obj = slot.take().unwrap();
        let to = if held_by_a { &b } else { &a };
        slot = Some(ship_object(&KernelTransport, obj, to, &PINGER_TYPE).unwrap());
        held_by_a = !held_by_a;
    });

    row![t; "bare door identifier (kernel transfer)", Ns(raw)];
    row![t; "singleton object (marshal+unmarshal+ID)", Ns(full)];
    t.figure("machinery_ns", Ns(full - raw));
    t.figure("marshalled_bytes", marshalled_size);
    t.note(
        "subcontract machinery adds {machinery_ns} per transmission; marshalled form is \
         {marshalled_bytes} bytes (subcontract ID + type name + door slot)",
    );
    t
}

/// E3 — §8.1: cluster shares one kernel door among N objects.
pub fn e3_cluster(_: Scale) -> Table {
    let mut t = Table::new(
        "e3",
        "E3: cluster vs simplex resource usage",
        "paper §8.1",
        &[
            "objects",
            "simplex doors",
            "cluster doors",
            "simplex µs",
            "cluster µs",
        ],
    );
    let mut doors_at_max = (0, 0);
    for n in [1usize, 10, 100, 1000, 10000] {
        let kernel = Kernel::new("e3");
        let server = ctx_on(&kernel, "server");

        let before = kernel.stats();
        let mut simplex_objs = Vec::with_capacity(n);
        let simplex_time = time_once(|| {
            for _ in 0..n {
                simplex_objs.push(Simplex.export(&server, servant()).unwrap());
            }
        });
        let simplex_doors = kernel.stats().since(&before).doors_created;

        let before = kernel.stats();
        let cluster = ClusterServer::new(&server).unwrap();
        let mut cluster_objs = Vec::with_capacity(n);
        let cluster_time = time_once(|| {
            for _ in 0..n {
                cluster_objs.push(cluster.export(servant()).unwrap());
            }
        });
        let cluster_doors = kernel.stats().since(&before).doors_created;

        // Both remain invocable.
        ping(&simplex_objs[0]).unwrap();
        ping(&cluster_objs[0]).unwrap();

        row![
            t;
            n,
            simplex_doors,
            cluster_doors,
            Ratio(simplex_time.as_secs_f64() * 1e6, 1),
            Ratio(cluster_time.as_secs_f64() * 1e6, 1),
        ];
        doors_at_max = (simplex_doors, cluster_doors);
    }
    t.figure("simplex_doors_at_10000", doors_at_max.0);
    t.figure("cluster_doors_at_10000", doors_at_max.1);
    t.note("(cluster's door count is O(1); per-object cost is an identifier + a tag)");
    t
}

/// The caching subcontract's unmarshal overhead in isolation (§9.3's
/// "significant overhead to object unmarshalling"), complementing E4.
pub fn e4b_unmarshal_overhead(scale: Scale) -> Table {
    let iters = iters(scale).min(5000);
    let mut t = Table::new(
        "e4b",
        "E4b: unmarshal cost by subcontract",
        "paper §9.3",
        &["subcontract", "ns/unmarshal"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e4b");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    let mgr_ctx = ctx_on(&kernel, "manager");

    // Machine-local resolver for the caching arm.
    let manager = CacheManager::new(&mgr_ctx, [OP_PING]);
    Names::install(Arc::new(KernelTransport), &client)
        .bind("cache_manager", manager.export().unwrap());

    let singleton = Singleton.export(&server, servant()).unwrap();
    let caching = Caching::export(&server, servant(), "cache_manager").unwrap();
    let cluster_server = ClusterServer::new(&server).unwrap();
    let cluster = cluster_server.export(servant()).unwrap();

    let mut ns = Vec::new();
    for (name, obj) in [
        ("singleton", &singleton),
        ("cluster", &cluster),
        ("caching (attaches to manager)", &caching),
    ] {
        ns.push(copy_and_consume_ns(iters, obj, &client));
        row![t; name, Ns(ns[ns.len() - 1])];
    }
    t.figure("caching_over_singleton", Ratio(ns[2] / ns[0], 2));
    t
}

/// E7 — §5.1.5: `marshal_copy` optimizes out the intermediate copy.
pub fn e7_marshal_copy(scale: Scale) -> Table {
    let iters = iters(scale);
    let mut t = Table::new(
        "e7",
        "E7: marshal_copy vs copy-then-marshal",
        "paper §5.1.5",
        &["subcontract", "copy+marshal", "marshal_copy"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e7");
    let server = ctx_on(&kernel, "server");
    // Deletes the identifiers a probe marshal produced, so loops do not leak.
    let cleanup = |buf: CommBuffer| {
        for d in buf.into_message().doors {
            let _ = server.domain().delete_door(d);
        }
    };

    let singleton = Singleton.export(&server, servant()).unwrap();
    let simplex = Simplex.export(&server, servant()).unwrap();
    let reconnectable = Reconnectable::export(&server, servant(), "e7/reconnectable").unwrap();
    // Replicon with three replicas.
    let group = ReplicaGroup::new();
    for i in 0..3 {
        let ctx = ctx_on(&kernel, &format!("r{i}"));
        group
            .add(RepliconServer::new(&ctx, servant()).unwrap())
            .unwrap();
    }
    let replicon = group.object_for(&server).unwrap();

    for (name, figure, obj) in [
        ("singleton", "singleton_saving_ns", &singleton),
        ("simplex", "simplex_saving_ns", &simplex),
        ("reconnectable", "reconnectable_saving_ns", &reconnectable),
        ("replicon (3 doors)", "replicon_saving_ns", &replicon),
    ] {
        let naive = ns_per_iter(iters, || {
            let copy = obj.copy().unwrap();
            let mut buf = CommBuffer::new();
            copy.marshal(&mut buf).unwrap();
            cleanup(buf);
        });
        let optimized = ns_per_iter(iters, || {
            let mut buf = CommBuffer::new();
            obj.marshal_copy(&mut buf).unwrap();
            cleanup(buf);
        });
        row![t; name, Ns(naive), Ns(optimized)];
        t.figure(figure, Ns(naive - optimized));
    }
    t
}

/// E9 — §6.2: the dynamic-discovery cost is paid exactly once.
pub fn e9_discovery(scale: Scale) -> Table {
    let iters = iters(scale);
    let mut t = Table::new(
        "e9",
        "E9: dynamic subcontract discovery",
        "paper §6.2",
        &["arm", "ns/unmarshal"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e9");
    let server = ctx_on(&kernel, "server");
    let obj = Simplex.export(&server, servant()).unwrap();

    let store = LibraryStore::new();
    store.install("standard.so", "/usr/lib/subcontracts", standard_library());

    // Cold: a freshly "linked" program that only knows singleton; every
    // iteration pays registry miss + naming lookup + dynamic link.
    let cold = ns_per_iter(iters.min(2000), || {
        let fresh = DomainCtx::new(kernel.create_domain("fresh"));
        fresh.register_subcontract(Singleton::new());
        fresh.types().register(&PINGER_TYPE);
        let names = MapLibraryNames::new();
        names.bind(Simplex::ID, "standard.so");
        fresh.configure_loader(store.clone(), vec!["/usr/lib/subcontracts".into()]);
        fresh.set_library_names(names);
        let copy = ship_object_copy(&KernelTransport, &obj, &fresh, &PINGER_TYPE).unwrap();
        copy.consume().unwrap();
    });

    // Warm: the same flow with the subcontract already registered.
    let warm = copy_and_consume_ns(iters, &obj, &ctx_on(&kernel, "warm"));

    row![t; "cold (registry miss + naming + dynamic link)", Ns(cold)];
    row![t; "warm (registry hit)", Ns(warm)];
    t.figure("discovery_ns", Ns(cold - warm));
    t.note("(after the first load the library is registered; see compat tests)");
    t
}

/// E11 — §6.1: the compatible-subcontract re-dispatch is cheap.
pub fn e11_compat(scale: Scale) -> Table {
    let iters = iters(scale);
    let mut t = Table::new(
        "e11",
        "E11: compatible-subcontract re-dispatch",
        "paper §6.1",
        &["arm", "ns/unmarshal"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e11");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    // PINGER_TYPE defaults to singleton; a singleton object matches the
    // expected subcontract, a simplex object triggers the re-dispatch.
    let matching = Singleton.export(&server, servant()).unwrap();
    let foreign = Simplex.export(&server, servant()).unwrap();
    let match_ns = copy_and_consume_ns(iters, &matching, &client);
    let foreign_ns = copy_and_consume_ns(iters, &foreign, &client);

    row![t; "expected subcontract (singleton)", Ns(match_ns)];
    row![t; "foreign subcontract (simplex, re-dispatch)", Ns(foreign_ns)];
    t.figure("redispatch_ns", Ns(foreign_ns - match_ns));
    t.note("re-dispatch overhead: {redispatch_ns}");
    t
}
