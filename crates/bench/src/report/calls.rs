//! The call path: E1/E10 (what a subcontract adds to a null call), E1t
//! (null calls from many threads) and E12 (the same-address-space path).

use std::sync::Barrier;
use std::time::Instant;

use spring_kernel::Kernel;
use spring_subcontracts::{Reconnectable, Simplex, Singleton};
use subcontract::{ship_object, KernelTransport, ServerSubcontract};

use super::{servant, untraced, Scale, Table, Value::*};
use crate::fixtures::{self, ctx_on, ping, FusedPing, RawDoor, PINGER_TYPE};
use crate::row;
use crate::timing::{arm, ns_per_iter, warm, Arm, Rounds};

/// Timed batches per E1 arm. The reported figure of an arm is its fastest
/// batch; the ratios are medians over the rounds (see [`Rounds`]).
const E1_ROUNDS: u32 = 5;

/// E1 + E10 — §9.3: the cost a subcontract adds to a minimal remote call,
/// and §9.1's specialized-stub escape hatch.
pub fn e1_null_call(scale: Scale) -> Table {
    let iters: u64 = scale.pick(2_000, 50_000);
    let mut t = Table::new(
        "e1",
        "E1/E10: minimal cross-domain call",
        "paper §9.3, §9.1",
        &["arm", "ns/call", "extra indirect calls"],
    );
    t.param("iters", iters);
    t.param("rounds", E1_ROUNDS);

    let kernel = Kernel::new("e1");
    spring_kernel::pool::reset_counters();
    let before = kernel.stats();

    let raw = RawDoor::new(&kernel);
    let fused = FusedPing::new(&kernel);
    // Generated flat-path stubs (validate-in-place, §5.13): the IDL
    // compiler's zero-copy wire format, driven same-domain so the kernel's
    // D2 delivery moves the frame by ownership instead of a copy. The gap
    // this arm closes is measured against the hand-fused stubs above.
    let flat = fixtures::flat_ping_same_domain(&kernel);
    // Struct-payload pair: the same 60-byte `sample` echoed over the same
    // same-domain transport, decoded either in place (flat view) or
    // field-by-field (`idl_decode`, the pre-flat stub shape). The two arms
    // differ only in the wire-format code, so their ratio isolates the
    // validate-in-place win from invoke machinery.
    let sample = fixtures::sample_fixture();
    let copy_obj = fixtures::copy_sample_same_domain(&kernel);

    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    let shipped = |obj| ship_object(&KernelTransport, obj, &client, &PINGER_TYPE).unwrap();
    let singleton_obj = shipped(Singleton.export(&server, servant()).unwrap());
    let simplex_obj = shipped(Simplex.export(&server, servant()).unwrap());
    // At-most-once arm: every call carries a fresh call identity and the
    // server records its reply in the dedup cache. The id-free arms all
    // pass `CallId::NONE` through the same serve path (one branch), so any
    // drift in *their* numbers is the disabled-path cost. The delta of this
    // arm against singleton is the full price of the identity machinery
    // when it is switched on.
    let amo_obj = shipped(Reconnectable::export(&server, servant(), "e1-amo").unwrap());

    let labels = [
        ("raw kernel door (no RPC)", "0"),
        ("specialized fused stubs (§9.1)", "0"),
        ("idl flat stubs, same domain (D2)", "2 client + 1 server"),
        ("flat echo_sample (60 B, in place)", "2 client + 1 server"),
        ("copying echo_sample (60 B)", "2 client + 1 server"),
        ("general stubs + singleton", "2 client + 1 server"),
        ("general stubs + simplex", "2 client + 2 server"),
        ("at-most-once (reconnectable)", "2 client + 1 server"),
    ];
    let mut arms = [
        arm(|| raw.call().unwrap()),
        arm(|| fused.call().unwrap()),
        arm(|| _ = flat.ping(7).unwrap()),
        arm(|| _ = flat.echo_sample(&sample).unwrap()),
        arm(|| _ = fixtures::echo_sample_copying(&copy_obj, &sample).unwrap()),
        arm(|| ping(&singleton_obj).unwrap()),
        arm(|| ping(&simplex_obj).unwrap()),
        arm(|| ping(&amo_obj).unwrap()),
    ];
    warm(iters, &mut arms);
    let rounds = Rounds::measure(E1_ROUNDS, iters, &mut arms);
    drop(arms);
    let delta = kernel.stats().since(&before);

    let ns: [f64; 8] = std::array::from_fn(|i| rounds.best(i));
    for ((label, extra), ns) in labels.into_iter().zip(ns) {
        row![t; label, Ns(ns), extra];
    }
    let [raw, fused, flat, flat_echo, copy_echo, singleton, simplex, amo] = ns;
    t.figure("at_most_once_vs_singleton_ns", Ns(amo - singleton));
    t.figure("singleton_vs_raw_ns", Ns(singleton - raw));
    t.figure("simplex_vs_raw_ns", Ns(simplex - raw));
    t.figure("simplex_vs_fused_ns", Ns(simplex - fused));
    t.figure("idl_flat_vs_fused_ns", Ns(flat - fused));
    t.figure("copy_echo_vs_flat_echo_ns", Ns(copy_echo - flat_echo));
    t.figure("simplex_over_raw", Ratio(rounds.ratio(6, 0), 2));
    t.figure("idl_flat_over_fused", Ratio(rounds.ratio(2, 1), 2));
    t.figure("flat_over_copy_echo", Ratio(rounds.ratio(3, 4), 3));
    t.figure("copy_over_flat_echo", Ratio(rounds.ratio(4, 3), 2));
    for (name, count) in delta.fields() {
        t.figure(&format!("kernel_{name}"), count);
    }
    t.note("at-most-once identity + reply cache vs singleton: +{at_most_once_vs_singleton_ns}");
    t.note(
        "subcontract overhead vs raw: singleton +{singleton_vs_raw_ns}, simplex \
         +{simplex_vs_raw_ns} (paper: < 2 µs on a SPARCstation 2)",
    );
    t.note(
        "specialization wins back {simplex_vs_fused_ns} of the {simplex_vs_raw_ns} \
         general-stub cost",
    );
    t.note(
        "flat stubs sit {idl_flat_vs_fused_ns} above the fused floor (general stubs: \
         +{simplex_vs_fused_ns})",
    );
    t.note(
        "in-place decode saves {copy_echo_vs_flat_echo_ns} per 60-byte echo \
         ({copy_over_flat_echo}x over copying)",
    );
    t
}

/// E1t — concurrent null-call throughput: one raw door per caller thread,
/// all on a single kernel. Callers in distinct domains take disjoint locks
/// (each its own door table), so aggregate throughput should scale with
/// cores; the contention counters show residual lock traffic. The gated
/// figure is the scaling as a share of what the host can deliver at all:
/// on a single-core host the aggregate cannot exceed the 1-thread rate.
pub fn e1_threaded(scale: Scale) -> Table {
    const THREADS: [usize; 3] = [1, 4, 16];
    const E1T_ROUNDS: u32 = 15;
    let iters: u64 = scale.pick(5_000, 50_000);
    let mut t = Table::new(
        "e1t",
        "E1t: concurrent null-call throughput (per-domain door tables)",
        "",
        &[
            "threads",
            "calls/s (agg)",
            "ns/call",
            "table waits",
            "shard waits",
            "pool hit %",
        ],
    );
    t.param("iters_per_thread", iters);
    t.param("rounds", E1T_ROUNDS);
    // One kernel per thread count; the fused ping is the minimal
    // *payload-carrying* null call (an 8-byte wire header each way), so it
    // also exercises the pool.
    let setups = THREADS.map(|threads| {
        let kernel = Kernel::new(format!("e1t-{threads}"));
        let doors: Vec<FusedPing> = (0..threads).map(|_| FusedPing::new(&kernel)).collect();
        (kernel, doors)
    });
    // What the host can deliver is measured, not assumed: the same rounds
    // time threads that share nothing (a spin of about a call's length),
    // one thread against as many as the hardware claims to run at once. On
    // a shared host the second hardware thread comes and goes by the
    // second, and a scaling figure divided by the nominal count would swing
    // with it.
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spinners = [vec![(); 1], vec![(); hardware.min(THREADS[2])]];
    let spin = |_: &()| {
        let mut x = 1u64;
        for _ in 0..128 {
            x = std::hint::black_box(x).wrapping_mul(6364136223846793005) | 1;
        }
    };
    let call = |d: &FusedPing| d.call().unwrap();
    let mut arms: Vec<Arm> = Vec::new();
    for (_, doors) in &setups {
        arms.push(Box::new(|n| concurrent_ns(doors, n, call)));
    }
    for threads in &spinners {
        arms.push(Box::new(|n| concurrent_ns(threads, n, spin)));
    }
    warm(iters, &mut arms);
    let before = setups.each_ref().map(|(kernel, _)| kernel.stats());
    let rounds = untraced(|| Rounds::measure(E1T_ROUNDS, iters, &mut arms));
    drop(arms);
    for (i, (kernel, doors)) in setups.iter().enumerate() {
        let after = kernel.stats().since(&before[i]);
        let hit_rate = 100.0 * after.pool_hits as f64
            / ((after.pool_hits + after.pool_misses) as f64).max(1.0);
        let ns = rounds.best(i);
        row![
            t;
            doors.len(),
            Ratio(1e9 / ns, 0),
            Ns(ns),
            after.table_lock_waits,
            after.shard_lock_waits,
            Ratio(hit_rate, 1),
        ];
    }
    t.figure("scaling_16_vs_1", Ratio(rounds.ratio(0, 2), 2));
    t.figure("hardware_threads", hardware);
    t.figure("host_parallelism", Ratio(rounds.ratio(3, 4), 2));
    // Per round: (calls, 1 thread / 16 threads) over (spin, 1 thread / N).
    let efficiency = rounds.median_of(|ns| (ns[0] / ns[2]) / (ns[3] / ns[4]));
    t.figure("parallel_efficiency", Ratio(efficiency, 3));
    t.note(
        "16-thread aggregate = {scaling_16_vs_1}x the 1-thread rate ({hardware_threads} \
         hardware threads available)",
    );
    t.note(
        "threads sharing nothing scaled {host_parallelism}x in the same rounds: parallel \
         efficiency {parallel_efficiency}",
    );
    t
}

/// Runs `op` `n` times on one thread per element of `each`, all at once,
/// and returns wall-clock ns per operation in aggregate. Every thread starts
/// its clock when all of them stand ready, so what is timed is operations,
/// not sixteen thread creations; the run lasts from the first start to the
/// last finish.
fn concurrent_ns<T: Sync>(each: &[T], n: u64, op: impl Fn(&T) + Sync) -> f64 {
    let ready = Barrier::new(each.len());
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let threads: Vec<_> = (each.iter())
            .map(|item| {
                s.spawn(|| {
                    ready.wait();
                    let start = Instant::now();
                    for _ in 0..n {
                        op(item);
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let first_start = spans.iter().map(|span| span.0).min().expect("a thread");
    let last_end = spans.iter().map(|span| span.1).max().expect("a thread");
    (last_end - first_start).as_nanos() as f64 / (each.len() as u64 * n) as f64
}

/// E12 — §5.2.1: the same-address-space fast path.
pub fn e12_local(scale: Scale) -> Table {
    let iters: u64 = scale.pick(2_000, 50_000);
    let mut t = Table::new(
        "e12",
        "E12: same-address-space fast path",
        "paper §5.2.1",
        &["arm", "ns/call", "doors created"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e12");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let before = kernel.stats();
    let local = Simplex::export_local(&server, servant()).unwrap();
    let local_doors = kernel.stats().since(&before).doors_created;
    let local_ns = ns_per_iter(iters, || ping(&local).unwrap());
    row![t; "local fast path", Ns(local_ns), local_doors];

    let before = kernel.stats();
    let remote_obj = Simplex.export(&server, servant()).unwrap();
    let remote = ship_object(&KernelTransport, remote_obj, &client, &PINGER_TYPE).unwrap();
    let remote_doors = kernel.stats().since(&before).doors_created;
    let remote_ns = ns_per_iter(iters, || ping(&remote).unwrap());
    row![t; "cross-domain simplex", Ns(remote_ns), remote_doors];
    t.figure("local_over_remote", Ratio(local_ns / remote_ns, 2));

    // The lazy door appears only when the object is first marshalled.
    let before = kernel.stats();
    let moved = ship_object(&KernelTransport, local, &client, &PINGER_TYPE).unwrap();
    let lazy_doors = kernel.stats().since(&before).doors_created;
    ping(&moved).expect("the moved object still works remotely");
    t.figure("doors_on_first_marshal", lazy_doors);
    t.note(
        "first marshal of the local object created {doors_on_first_marshal} door(s); it \
         still works remotely",
    );
    t
}
