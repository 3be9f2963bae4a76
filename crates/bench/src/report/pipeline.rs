//! E14 — pipelined invocation plus per-link batching: N overlapping calls
//! share wire frames, so a latency-bound burst approaches one round trip
//! instead of N.
//!
//! Two arms: a 1 ms-latency link (the latency-bound regime, where the
//! speedup should approach the burst size) and a zero-latency link (the
//! overhead-bound regime, where pipelining must at least not lose). The
//! network counters report how many calls actually shared frames.

use std::time::Duration;

use spring_net::{NetConfig, NetStatsSnapshot, Network};
use spring_subcontracts::Pipeline;
use subcontract::ship_object;

use super::{servant, Scale, Table, Value::*};
use crate::fixtures::{ctx_on, ping, ping_async, ping_collect, PINGER_TYPE};
use crate::row;
use crate::timing::{arm, Rounds};

const CALLS: usize = 8;

pub fn e14_pipeline(scale: Scale) -> Table {
    let rounds: u32 = scale.pick(5, 10);
    let mut t = Table::new(
        "e14",
        "E14: pipelined invocation + per-link batching",
        "paper §8.4 spirit",
        &["arm", "sequential/burst", "pipelined/burst", "ratio"],
    );
    t.param("rounds", rounds);
    t.param("calls_per_burst", CALLS);

    let run_arm = |latency: Duration| -> (Rounds, NetStatsSnapshot) {
        let net = Network::new(NetConfig::with_latency(latency));
        let server_node = net.add_node("e14-server");
        let client_node = net.add_node("e14-client");
        let server_ctx = ctx_on(server_node.kernel(), "server");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        let obj = Pipeline::export(&server_ctx, servant()).unwrap();
        let client_obj = ship_object(&*net, obj, &client_ctx, &PINGER_TYPE).unwrap();
        let pipelined_burst = || {
            let promises: Vec<_> = (0..CALLS)
                .map(|_| ping_async(&client_obj).unwrap())
                .collect();
            for p in promises {
                ping_collect(p).unwrap();
            }
        };

        // Warm up both paths: fabricate the proxy, spawn the worker pool,
        // prime the buffer and slot pools.
        ping(&client_obj).unwrap();
        pipelined_burst();

        let before = net.stats();
        let sequential_burst = || (0..CALLS).for_each(|_| ping(&client_obj).unwrap());
        let measured = Rounds::measure(
            rounds,
            1,
            &mut [arm(sequential_burst), arm(pipelined_burst)],
        );
        (measured, net.stats().since(&before))
    };

    let (at_1ms, stats_1ms) = run_arm(Duration::from_millis(1));
    let (at_0, _) = run_arm(Duration::ZERO);
    for (label, figure, measured) in [
        ("8 calls @ 1ms latency", "speedup_1ms", &at_1ms),
        ("8 calls @ 0 latency", "ratio_0_latency", &at_0),
    ] {
        let ratio = measured.ratio(0, 1);
        let (sequential, pipelined) = (Ns(measured.best(0)), Ns(measured.best(1)));
        row![t; label, sequential, pipelined, Ratio(ratio, 2)];
        t.figure(figure, Ratio(ratio, 2));
    }
    t.figure("batch_flushes", stats_1ms.batch_flushes);
    t.figure("calls_batched", stats_1ms.calls_batched);
    t.figure("calls_unbatched", stats_1ms.calls_unbatched);
    // Of the pipelined calls (the sequential ones never share a frame).
    let pipelined_calls = (rounds as usize * CALLS) as f64;
    let batched_share = stats_1ms.calls_batched as f64 / pipelined_calls;
    t.figure("batched_share", Ratio(batched_share, 2));
    t.note(
        "1ms arm ({rounds} bursts each way): {batch_flushes} flushes, {calls_batched} calls \
         batched, {calls_unbatched} unbatched",
    );
    t
}
