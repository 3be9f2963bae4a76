//! The stats door: kernel counters and latency percentiles readable by an
//! ordinary client across a `spring-net` link while the server is working.

use std::sync::Arc;

use spring_kernel::Kernel;
use spring_net::{NetConfig, Network};
use spring_services::{
    AppendLogClient, AppendLogServant, AppendLogState, StatsClient, StatsServant, APPEND_LOG_TYPE,
    STATS_TYPE,
};
use spring_subcontracts::{register_standard, Singleton};
use subcontract::{ship_object, DomainCtx, ServerSubcontract};

fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    ctx.types().register(&STATS_TYPE);
    ctx.types().register(&APPEND_LOG_TYPE);
    ctx
}

#[test]
fn stats_door_reports_live_counters_across_the_net() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("observer-machine");
    let b = net.add_node("server-machine");
    let server = ctx_on(b.kernel(), "server");
    let client = ctx_on(a.kernel(), "observer");

    // The server does real work: an append-log servant takes door calls.
    let log = AppendLogState::new();
    let log_obj = Singleton
        .export(&server, AppendLogServant::new(log))
        .unwrap();
    let log_client =
        AppendLogClient(ship_object(&*net, log_obj, &client, &APPEND_LOG_TYPE).unwrap());

    // The stats door is just another exported object on the same machine.
    let stats_obj = Singleton
        .export(&server, StatsServant::new(b.kernel().clone()))
        .unwrap();
    let stats = StatsClient(ship_object(&*net, stats_obj, &client, &STATS_TYPE).unwrap());

    for i in 0..10 {
        log_client.append(i).unwrap();
    }

    // Counter names travel with the values, so the reader needs no shared
    // struct layout with the server. The names are the `StatsSnapshot`
    // field names, and readers (the repo benchmark is one) match on them.
    let counters = stats.kernel_stats().unwrap();
    let names: Vec<&str> = counters.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "doors_created",
            "door_calls",
            "bytes_copied",
            "local_deliveries",
            "ids_issued",
            "ids_deleted",
            "ids_transferred",
            "unref_notifications",
            "revocations",
            "table_lock_waits",
            "shard_lock_waits",
            "pool_hits",
            "pool_misses",
            "fastpath_sends",
            "writev_wakeups",
            "writev_frames",
            "dispatch_pool_spawned",
            "dispatch_pool_reaped",
            "oneway_frames",
        ]
    );
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing from {counters:?}"))
    };
    assert!(get("door_calls") >= 10, "appends are door calls");
    assert!(get("doors_created") >= 2, "log and stats doors exist");

    // And the snapshot is *live*: more work moves the counters.
    let before = get("door_calls");
    for i in 0..5 {
        log_client.append(i).unwrap();
    }
    let counters = stats.kernel_stats().unwrap();
    let after = counters
        .iter()
        .find(|(n, _)| n == "door_calls")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(after > before);
}

#[test]
fn stats_door_serves_histogram_percentiles() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("observer");
    let b = net.add_node("server");
    let server = ctx_on(b.kernel(), "server");
    let client = ctx_on(a.kernel(), "observer");

    // Unique key so parallel tests sharing the process registry can't
    // collide with this one.
    const KEY: u64 = 0x57A7_5D00;
    let hist = spring_trace::histogram(KEY, "stats_door_test_op");
    for ns in [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
        hist.record(ns);
    }

    let stats_obj = Singleton
        .export(&server, StatsServant::new(b.kernel().clone()))
        .unwrap();
    let stats = StatsClient(ship_object(&*net, stats_obj, &client, &STATS_TYPE).unwrap());

    let summary = stats
        .hist_summary(KEY, "stats_door_test_op")
        .unwrap()
        .expect("histogram is registered");
    assert_eq!(summary.count, 10);
    assert_eq!(summary.sum_ns, 5500);
    assert_eq!(summary.max_ns, 1000);
    assert!(summary.p50_ns >= 500 && summary.p50_ns <= 500 + 500 / 16);
    assert!(summary.p99_ns >= 1000 && summary.p99_ns <= 1000 + 1000 / 16);
    assert!(summary.p999_ns >= summary.p99_ns);
    assert!(summary.max_ns <= summary.p999_ns.max(summary.max_ns));

    // Unknown histograms are a typed "no", not an error.
    assert_eq!(stats.hist_summary(KEY, "no_such_op").unwrap(), None);

    // The list op shows the histogram with its sample count.
    let rows = stats.hist_list().unwrap();
    assert!(rows
        .iter()
        .any(|(k, op, count)| *k == KEY && op == "stats_door_test_op" && *count == 10));
}
