//! E4 — §8.2/§9.3: caching pays at unmarshal, wins on repeated reads; the
//! coherent arm prices invalidation callbacks + leases against the
//! incoherent cache on a read-mostly workload and measures how long a
//! write takes to become visible on another machine.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spring_naming::{NameClient, NameServer, NAMING_CONTEXT_TYPE};
use spring_net::{NetConfig, Network};
use spring_services::{file_cache_manager, fs, FileServer};
use subcontract::{ship_object, ship_object_copy, DomainCtx};

use super::{Names, Scale, Table, Value::*};
use crate::fixtures::ctx_on;
use crate::row;
use crate::timing::{time_once, timed, warm, Arm, Rounds};

pub fn e4_caching(scale: Scale) -> Table {
    let latencies: &[u64] = scale.pick(&[0, 100], &[0, 100, 1000]);
    let read_counts: &[u32] = scale.pick(&[1, 16, 64], &[1, 4, 16, 64, 256]);
    let rounds: u32 = scale.pick(5, 3);
    let mut t = Table::new(
        "e4",
        "E4: caching vs simplex over the network",
        "paper §8.2, §9.3",
        &[
            "latency µs",
            "reads",
            "simplex",
            "caching",
            "sx msgs",
            "ca msgs",
        ],
    );
    t.param("rounds", rounds);
    let mut speedup = f64::NAN;
    for &latency_us in latencies {
        for &k in read_counts {
            let net = Network::new(NetConfig::with_latency(Duration::from_micros(latency_us)));
            let server_node = net.add_node("server");
            let client_node = net.add_node("client");
            let server_ctx = ctx_on(server_node.kernel(), "fileserver");
            let client_ctx = ctx_on(client_node.kernel(), "client");
            let mgr_ctx = ctx_on(client_node.kernel(), "manager");
            let ns_ctx = ctx_on(client_node.kernel(), "naming");

            let ns = NameServer::new(&ns_ctx);
            let manager = file_cache_manager(&mgr_ctx);
            let names_for = |ctx: &Arc<DomainCtx>| {
                let root = ns.root_object().unwrap();
                NameClient::from_obj(ship_object(&*net, root, ctx, &NAMING_CONTEXT_TYPE).unwrap())
                    .unwrap()
            };
            names_for(&mgr_ctx)
                .bind("cache_manager", &manager.export().unwrap())
                .unwrap();
            client_ctx.set_resolver(Arc::new(names_for(&client_ctx)));

            let fileserver = FileServer::new(&server_ctx, "cache_manager");
            fileserver.put("data", &vec![9u8; 4096]);

            // One execution of an arm: receive the object, read it `k`
            // times; the messages it cost are counted around the timed
            // part. Every export is a fresh object with a cache of its own,
            // so each round's caching arm misses once, as the first did.
            let counted = |msgs: &Cell<u64>, n: u64, exec: &dyn Fn()| {
                let before = net.stats();
                let ns = timed(n, exec);
                msgs.set(net.stats().since(&before).messages / n);
                ns
            };
            let (sx_msgs, ca_msgs) = (Cell::new(0), Cell::new(0));
            // Simplex arm: unmarshal + K reads, all remote.
            let simplex: Arm = Box::new(|n| {
                counted(&sx_msgs, n, &|| {
                    let obj = fileserver.export_file("data").unwrap();
                    let obj = ship_object(&*net, obj, &client_ctx, &fs::FILE_TYPE).unwrap();
                    let f = fs::File::from_obj(obj).unwrap();
                    for _ in 0..k {
                        let _ = f.read(0, 1024).unwrap();
                    }
                })
            });
            // Caching arm: expensive unmarshal (attach), then local reads.
            let caching: Arm = Box::new(|n| {
                counted(&ca_msgs, n, &|| {
                    let obj = fileserver.export_cacheable("data").unwrap();
                    let obj =
                        ship_object(&*net, obj, &client_ctx, &fs::CACHEABLE_FILE_TYPE).unwrap();
                    let f = fs::CacheableFile::from_obj(obj).unwrap();
                    for _ in 0..k {
                        let _ = f.read(0, 1024).unwrap();
                    }
                })
            });
            let mut arms = [simplex, caching];
            warm(1, &mut arms);
            let measured = Rounds::measure(rounds, 1, &mut arms);
            drop(arms);
            row![
                t;
                latency_us,
                k,
                Ns(measured.best(0)),
                Ns(measured.best(1)),
                sx_msgs.get(),
                ca_msgs.get(),
            ];
            speedup = measured.ratio(0, 1);
        }
    }
    t.figure("caching_speedup", Ratio(speedup, 2));
    t.note("(caching messages stay flat in K: only the first read misses)");
    coherent_arm(scale, &mut t);
    t
}

/// Builds one machine of the coherent-caching topology: a cache manager
/// plus a resolver that hands out copies of it under `cache_manager`.
fn cache_machine(net: &Arc<Network>, node: &spring_net::Node, tag: &str) -> Arc<DomainCtx> {
    let client_ctx = ctx_on(node.kernel(), &format!("client-{tag}"));
    let mgr_ctx = ctx_on(node.kernel(), &format!("manager-{tag}"));
    let manager = file_cache_manager(&mgr_ctx);
    Names::install(net.clone(), &client_ctx).bind("cache_manager", manager.export().unwrap());
    client_ctx
}

/// The coherent arm of E4: read-mostly throughput against the incoherent
/// cache, and the latency for a write on one machine to become visible on
/// another.
fn coherent_arm(scale: Scale, t: &mut Table) {
    let lease = Duration::from_millis(5);
    let reads: u64 = scale.pick(20_000, 200_000);
    let write_every: u64 = 1_000;
    let trials: usize = scale.pick(10, 50);
    t.param("lease_ns", Ns(lease.as_nanos() as f64));
    t.param("coherent_reads", reads);
    t.param("write_every", write_every);
    t.param("trials", trials);

    // Read-mostly throughput: one writer interleaved into a stream of
    // cached reads, incoherent vs coherent attachment on the same topology.
    let throughput = |coherent: bool| -> f64 {
        let net = Network::new(NetConfig::default());
        let server_node = net.add_node("server");
        let client_node = net.add_node("client");
        let server_ctx = ctx_on(server_node.kernel(), "fileserver");
        let client_ctx = cache_machine(&net, &client_node, "t");

        let fileserver = FileServer::new(&server_ctx, "cache_manager");
        fileserver.put("data", &vec![9u8; 4096]);
        let obj = if coherent {
            fileserver.export_coherent("data", lease).unwrap().0
        } else {
            fileserver.export_cacheable("data").unwrap()
        };
        let f = fs::CacheableFile::from_obj(
            ship_object(&*net, obj, &client_ctx, &fs::CACHEABLE_FILE_TYPE).unwrap(),
        )
        .unwrap();
        let _ = f.read(0, 1024).unwrap(); // warm the memo
        let elapsed = time_once(|| {
            for i in 0..reads {
                let _ = f.read(0, 1024).unwrap();
                if i % write_every == write_every - 1 {
                    f.write(0, &i.to_le_bytes()).unwrap();
                }
            }
        });
        reads as f64 / elapsed.as_secs_f64()
    };
    let incoherent_rps = throughput(false);
    let coherent_rps = throughput(true);

    // Invalidation propagation: write through machine A's cache, poll
    // machine B until the new contents are served. The broadcast runs
    // before the writer's reply, so this bounds the post-ack staleness
    // window (≈ one revalidating read).
    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("server");
    let node_a = net.add_node("a");
    let node_b = net.add_node("b");
    let server_ctx = ctx_on(server_node.kernel(), "fileserver");
    let ctx_a = cache_machine(&net, &node_a, "a");
    let ctx_b = cache_machine(&net, &node_b, "b");

    let fileserver = FileServer::new(&server_ctx, "cache_manager");
    fileserver.put("data", &0u64.to_le_bytes());
    let (obj, stats) = fileserver.export_coherent("data", lease).unwrap();
    let attach = |ctx: &Arc<DomainCtx>| {
        fs::CacheableFile::from_obj(
            ship_object_copy(&*net, &obj, ctx, &fs::CACHEABLE_FILE_TYPE).unwrap(),
        )
        .unwrap()
    };
    let file_a = attach(&ctx_a);
    let file_b = attach(&ctx_b);
    let mut latencies_ns = Vec::with_capacity(trials);
    for trial in 1..=trials as u64 {
        let _ = file_b.read(0, 8).unwrap(); // make sure B is serving hits
        file_a.write(0, &trial.to_le_bytes()).unwrap();
        let wrote = Instant::now();
        while file_b.read(0, 8).unwrap() != trial.to_le_bytes() {}
        latencies_ns.push(wrote.elapsed().as_nanos() as f64);
    }
    latencies_ns.sort_by(f64::total_cmp);
    let mean = latencies_ns.iter().sum::<f64>() / trials as f64;

    t.figure("incoherent_reads_per_sec", Ratio(incoherent_rps, 0));
    t.figure("coherent_reads_per_sec", Ratio(coherent_rps, 0));
    t.figure(
        "coherent_throughput_ratio",
        Ratio(coherent_rps / incoherent_rps, 3),
    );
    t.figure("invalidation_min_ns", Ns(latencies_ns[0]));
    t.figure("invalidation_mean_ns", Ns(mean));
    let p95 = latencies_ns[(trials * 95).div_ceil(100) - 1];
    t.figure("invalidation_p95_ns", Ns(p95));
    t.figure("invalidation_max_ns", Ns(latencies_ns[trials - 1]));
    t.figure("broadcasts", stats.broadcasts());
    t.note("");
    t.note("coherent arm (lease {lease_ns}, 1 write per {write_every} reads):");
    t.note(
        "  reads/s incoherent {incoherent_reads_per_sec}   coherent {coherent_reads_per_sec}   \
         ratio {coherent_throughput_ratio}",
    );
    t.note(
        "  invalidation visible on the other machine after: min {invalidation_min_ns}  mean \
         {invalidation_mean_ns}  p95 {invalidation_p95_ns}  max {invalidation_max_ns}  \
         ({trials} trials, {broadcasts} broadcasts)",
    );
}
