//! E15 — open-loop tail latency and overload shedding (§8.4 priority).
//!
//! Measures the server's closed-loop capacity, then offers open-loop
//! (coordinated-omission-safe) load at multiples of it, with and without
//! the priority subcontract's admission controller. The *knee* is the
//! highest offered rate at which the served-calls p99 (measured from each
//! call's intended start) stays under a bound. Without shedding, any rate
//! past capacity grows the backlog linearly and the p99 explodes; with
//! shedding, low-priority calls past the queue bound are rejected in
//! microseconds, the backlog stays near the bound, and served calls keep a
//! bounded tail well past capacity — the knee moves right.

use std::time::{Duration, Instant};

use spring_kernel::Kernel;
use spring_subcontracts::priority::{self, AdmissionConfig};
use spring_subcontracts::Priority;
use subcontract::{ship_object, KernelTransport, ServerSubcontract, SpringObj};

use super::{Scale, Table, Value::*};
use crate::fixtures::{ctx_on, work, SpinServant, PINGER_TYPE};
use crate::openloop::{self, OpenLoopConfig, OpenLoopReport};
use crate::row;

// Service time is *timed occupancy* (the servant sleeps, not spins): the
// queueing behaviour is what the experiment is about, and sleeping keeps a
// 1-2 core CI host from turning worker preemption into multi-millisecond
// measurement noise. The p99 bound is set well above residual scheduler
// jitter (~1-2 ms here) and well below the backlog blow-up an overloaded
// open-loop arm produces (tens of ms per 0.1 s of overload), so the knee
// detects saturation, not host hiccups.
const SERVICE_NS: u64 = 200_000;
const WORKERS: usize = 2;
const QUEUE_BOUND: Duration = Duration::from_millis(1);
const SHED_BELOW: u32 = 5;
const HIGH_PRI: u32 = 10;
const P99_BOUND_NS: u64 = 10_000_000;
const SWEEP_X: [f64; 5] = [0.5, 0.8, 1.2, 1.6, 2.0];
/// Sweeps per arm; the arms alternate sweep by sweep, so both see the same
/// stretch of host weather.
const ROUNDS: usize = 3;

/// Highest sweep multiple whose prefix all held the p99 bound — the knee.
/// A point past the first violation does not count even if it squeaks
/// under the bound: the knee is where bounded service *stops*, not the
/// last lucky sample.
fn knee(p99_ns: &[u64]) -> f64 {
    let held = p99_ns.iter().take_while(|&&p99| p99 <= P99_BOUND_NS);
    held.zip(SWEEP_X).last().map_or(0.0, |(_, x)| x)
}

pub fn e15_open_loop(scale: Scale) -> Table {
    let point_secs: f64 = scale.pick(0.25, 0.5);
    let mut t = Table::new(
        "e15",
        "E15: open-loop tail latency + overload shedding",
        "paper §8.4",
        &[
            "arm",
            "offered×",
            "served",
            "shed",
            "p50",
            "p99",
            "p999",
            "max",
        ],
    );
    t.param("service_ns", Ns(SERVICE_NS as f64));
    t.param("workers", WORKERS);
    t.param("point_secs", Ratio(point_secs, 2));
    t.param("p99_bound_ns", Ns(P99_BOUND_NS as f64));
    t.param("queue_bound_ns", Ns(QUEUE_BOUND.as_nanos() as f64));
    t.param("shed_below", SHED_BELOW);
    t.param("high_priority", HIGH_PRI);
    t.param("top_x", Ratio(SWEEP_X[SWEEP_X.len() - 1], 1));

    let kernel = Kernel::new("e15");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    server.register_subcontract(Priority::new());
    client.register_subcontract(Priority::new());
    let shipped = |obj| ship_object(&KernelTransport, obj, &client, &PINGER_TYPE).unwrap();
    // A (low-priority, high-priority) pair of handles on one object.
    let pair = |low: SpringObj| {
        let high = low.copy().unwrap();
        Priority::set_priority(&high, HIGH_PRI).unwrap();
        (low, high)
    };

    // Capacity: the same worker pool driving the same servant closed-loop,
    // flat out. All offered rates below are multiples of this, so the sweep
    // is machine-independent by construction.
    let servant = || SpinServant::sleeping(SERVICE_NS);
    let cap_obj = shipped(Priority.export(&server, servant()).unwrap());
    for _ in 0..50 {
        work(&cap_obj).unwrap();
    }
    let per_thread = ((point_secs * 1e9) / SERVICE_NS as f64 / WORKERS as f64) as u64;
    let flat_out = || {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        work(&cap_obj).unwrap();
                    }
                });
            }
        });
        (per_thread * WORKERS as u64) as f64 / t0.elapsed().as_secs_f64()
    };
    t.note("capacity: {capacity_per_sec} calls/s ({workers} workers, {service_ns} service time)");

    // One sweep of one arm: every offered rate once, against a (low-pri,
    // high-pri) pair; ~25% of arrivals are high priority.
    type Pair = (SpringObj, SpringObj);
    let sweep = |capacity: f64, (low, high): &Pair, hist_key: u64| -> Vec<OpenLoopReport> {
        let point = |x: f64| {
            let rate = capacity * x;
            let cfg = OpenLoopConfig {
                rate_per_sec: rate,
                total_calls: (rate * point_secs) as u64,
                workers: WORKERS,
                registry_hist: Some((hist_key, "e15.open_loop")),
            };
            openloop::run(&cfg, |i, intended| {
                // Server-side queue delay is measured from the *intended*
                // start, same as the client latency.
                priority::stamp_enqueue_ns(intended);
                work(if i % 4 == 0 { high } else { low })
            })
        };
        SWEEP_X.iter().map(|&x| point(x)).collect()
    };

    // No-shedding arm: plain priority export, queue grows without limit.
    let plain = pair(shipped(Priority.export(&server, servant()).unwrap()));
    // Shedding arm: the admission controller rejects low-priority calls
    // once the measured queue delay passes the bound.
    let admission_cfg = AdmissionConfig {
        queue_bound: QUEUE_BOUND,
        shed_below: SHED_BELOW,
    };
    let (guarded, admission) =
        Priority::export_with_admission(&server, servant(), admission_cfg).unwrap();
    let guarded = pair(shipped(guarded));
    // The server's capacity is the host's to give and drifts by a fifth
    // within a run, and a sweep scaled by a stale figure overloads nothing
    // at 1.2x or everything at 0.8x. So a round sweeps both arms at
    // multiples of the capacity measured just before it, and counts only
    // if the capacity measured just after agrees to within a tenth; a
    // round that does not is run again, within a budget of as many again.
    let mut rounds: Vec<(f64, [Vec<OpenLoopReport>; 2], bool)> = Vec::new();
    let mut capacity = flat_out();
    while rounds.len() < 2 * ROUNDS && rounds.iter().filter(|round| round.2).count() < ROUNDS {
        let arms = [
            sweep(capacity, &plain, 0xE150),
            sweep(capacity, &guarded, 0xE151),
        ];
        let after = flat_out();
        rounds.push((capacity, arms, (after / capacity - 1.0).abs() <= 0.1));
        capacity = after;
    }
    if rounds.iter().any(|round| round.2) {
        rounds.retain(|round| round.2);
    }
    let scaled_by = rounds.iter().map(|round| round.0).fold(0.0, f64::max);
    t.figure("capacity_per_sec", Ratio(scaled_by, 0));
    t.param("rounds", rounds.len());

    // A point's row: counts summed over the rounds, percentiles from the
    // round with the lowest served p99 (a host stall must hit the same
    // point in every round to move it). The gated figures are read off
    // these rows, not off each round's own sweep: a knee is a property of a
    // prefix of five points, so one stall anywhere in a sweep moves that
    // round's knee.
    let mut errors = 0;
    let mut p99 = [[0u64; SWEEP_X.len()]; 2];
    for (arm, name) in ["no_shed", "shed"].into_iter().enumerate() {
        for (i, x) in SWEEP_X.into_iter().enumerate() {
            let reports = || rounds.iter().map(|round| &round.1[arm][i]);
            let best = reports()
                .map(|r| r.served_hist)
                .min_by_key(|h| h.p99_ns())
                .expect("at least one round");
            row![
                t;
                name,
                Ratio(x, 1),
                reports().map(|r| r.served).sum::<u64>(),
                reports().map(|r| r.shed).sum::<u64>(),
                Ns(best.p50_ns() as f64),
                Ns(best.p99_ns() as f64),
                Ns(best.p999_ns() as f64),
                Ns(best.max_ns as f64),
            ];
            errors += reports().map(|r| r.errors).sum::<u64>();
            p99[arm][i] = best.p99_ns();
        }
    }

    // A knee of zero means the very first point blew the bound; the ratio
    // floors it at half the first sweep step to stay finite.
    let [knee_no_shed, knee_shed] = p99.map(|arm| knee(&arm));
    let floor = SWEEP_X[0] / 2.0;
    let top_p99 = p99.map(|arm| arm[SWEEP_X.len() - 1] as f64);
    t.figure("knee_x_no_shed", Ratio(knee_no_shed, 1));
    t.figure("knee_x_shed", Ratio(knee_shed, 1));
    t.figure("knee_ratio", Ratio(knee_shed / knee_no_shed.max(floor), 2));
    t.figure(
        "overload_p99_ratio",
        Ratio(top_p99[1] / top_p99[0].max(1.0), 4),
    );
    t.figure("top_p99_no_shed_ns", Ns(top_p99[0]));
    t.figure("top_p99_shed_ns", Ns(top_p99[1]));
    t.figure("errors", errors);
    t.figure("admitted", admission.admitted());
    t.figure("admission_shed", admission.shed());
    t.figure("max_queue_ns", Ns(admission.max_queue_ns() as f64));
    t.note(
        "knee (p99 ≤ {p99_bound_ns}): no_shed {knee_x_no_shed}x capacity, shed {knee_x_shed}x \
         → ratio {knee_ratio}",
    );
    t.note(
        "at {top_x}x capacity: served p99 {top_p99_shed_ns} (shed) vs {top_p99_no_shed_ns} (no \
         shed); admission admitted {admitted} / shed {admission_shed} (max queue {max_queue_ns})",
    );
    t
}
