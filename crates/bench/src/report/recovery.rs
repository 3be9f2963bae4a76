//! Surviving a crash: E5 (replicon failover) and E6 (reconnectable).

use std::sync::Arc;
use std::time::Duration;

use spring_kernel::Kernel;
use spring_subcontracts::{Reconnectable, ReplicaGroup, Replicon, RepliconServer, RetryPolicy};
use subcontract::{ship_object, KernelTransport};

use super::{servant, Names, Scale, Table, Value::*};
use crate::fixtures::{ctx_on, ping, PINGER_TYPE};
use crate::row;
use crate::timing::{ns_per_iter, time_once};

/// E5 — §5.1.3: replicon failover deletes dead doors and keeps serving.
pub fn e5_replicon(scale: Scale) -> Table {
    let iters: u64 = scale.pick(2_000, 50_000);
    let mut t = Table::new(
        "e5",
        "E5: replicon failover",
        "paper §5.1.3",
        &[
            "replicas",
            "normal",
            "killed",
            "failover call",
            "doors after",
        ],
    );
    t.param("iters", iters);
    let mut last = (0.0, 0);
    for r in [1usize, 2, 3, 5] {
        let kernel = Kernel::new("e5");
        let group = ReplicaGroup::new();
        let mut ctxs = Vec::new();
        for i in 0..r {
            let ctx = ctx_on(&kernel, &format!("replica-{i}"));
            group
                .add(RepliconServer::new(&ctx, servant()).unwrap())
                .unwrap();
            ctxs.push(ctx);
        }
        let client = ctx_on(&kernel, "client");
        let obj = group.object_for(&client).unwrap();

        let normal = ns_per_iter(iters, || ping(&obj).unwrap());

        // Kill all but the last replica; the next call walks the dead ones.
        let killed = r - 1;
        for ctx in ctxs.iter().take(killed) {
            ctx.domain().crash();
        }
        let failover = time_once(|| ping(&obj).unwrap()).as_nanos() as f64;
        let after = Replicon::live_replicas(&obj).unwrap();

        row![t; r, Ns(normal), killed, Ns(failover), after];
        last = (failover, after);
    }
    t.figure("failover_ns_at_5_replicas", Ns(last.0));
    t.figure("doors_after_at_5_replicas", last.1);
    t.note("(only the failover call pays; dead identifiers are deleted from the set)");
    t
}

/// E6 — §8.3: reconnect latency is governed by the retry interval.
pub fn e6_reconnect(_: Scale) -> Table {
    let outage = Duration::from_millis(10);
    let mut t = Table::new(
        "e6",
        "E6: reconnectable recovery",
        "paper §8.3",
        &["retry interval ms", "outage", "call recovers in"],
    );
    let mut slowest = 0f64;
    for interval_ms in [1u64, 5, 20] {
        let kernel = Kernel::new("e6");
        let policy = RetryPolicy {
            max_attempts: 500,
            interval: Duration::from_millis(interval_ms),
            ..RetryPolicy::default()
        };
        let gen1 = ctx_on(&kernel, "gen1");
        gen1.register_subcontract(Reconnectable::with_policy(policy));
        let obj = Reconnectable::export(&gen1, servant(), "svc").unwrap();

        let client = ctx_on(&kernel, "client");
        client.register_subcontract(Reconnectable::with_policy(policy));
        let names = Names::install(Arc::new(KernelTransport), &client);
        names.bind("svc", obj.copy().unwrap());
        let client_obj = ship_object(&KernelTransport, obj, &client, &PINGER_TYPE).unwrap();
        ping(&client_obj).unwrap();

        // Crash, then restart after a fixed outage from a helper thread
        // while the client's call retries.
        gen1.domain().crash();
        names.unbind("svc");
        let recover = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(outage);
                let gen2 = ctx_on(&kernel, "gen2");
                gen2.register_subcontract(Reconnectable::with_policy(policy));
                let fresh = Reconnectable::export(&gen2, servant(), "svc").unwrap();
                names.bind("svc", fresh);
            });
            time_once(|| ping(&client_obj).unwrap()).as_nanos() as f64
        });
        row![t; interval_ms, Ns(outage.as_nanos() as f64), Ns(recover)];
        slowest = slowest.max(recover);
    }
    t.figure("slowest_recovery_ns", Ns(slowest));
    t.note("(recovery ≈ outage, quantized by the retry interval)");
    t
}
