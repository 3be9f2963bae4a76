//! Open-loop load generation: the coordinated-omission-safe way to measure
//! tail latency.
//!
//! A closed-loop driver issues the next call when the previous one returns,
//! so a server stall pauses the *load* as well as the measurement: one slow
//! call is recorded slow, and the calls that would have arrived during the
//! stall are silently never sent. That is *coordinated omission* — the
//! workload conspires with the server to hide its worst moments, and the
//! reported p99 describes a load no real client population generates.
//!
//! The generator here is open-loop: call number `i` has an *intended* start
//! time fixed in advance (`start + i/rate`), workers issue calls as close to
//! the schedule as they can, and every latency is measured from the intended
//! start — not from when a worker finally got around to sending. When the
//! server (or the worker pool) falls behind, the backlog shows up as queue
//! delay *in the recorded latencies*, which is exactly what a waiting client
//! would have experienced.
//!
//! Latencies are recorded into `spring-trace` histograms, so a run's
//! percentiles are readable live through the stats door while load runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use spring_trace::{now_ns, HistSnapshot, Histogram};
use subcontract::SpringError;

/// Sleep until roughly this far from the deadline, then spin: coarse OS
/// sleep for the bulk of the wait, busy-wait for the precision tail.
const SPIN_WINDOW_NS: u64 = 200_000;

/// Configuration of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Offered arrival rate, calls per second.
    pub rate_per_sec: f64,
    /// Total arrivals in the schedule.
    pub total_calls: u64,
    /// Worker threads draining the schedule (the client population size).
    pub workers: usize,
    /// When set, served latencies are also recorded into the process-wide
    /// registry histogram `(key, op)`, so the run's percentiles are
    /// readable live through the stats door while load runs.
    pub registry_hist: Option<(u64, &'static str)>,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            rate_per_sec: 1000.0,
            total_calls: 1000,
            workers: 1,
            registry_hist: None,
        }
    }
}

/// What one open-loop run measured.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopReport {
    /// Calls that completed successfully.
    pub served: u64,
    /// Calls the server shed with [`SpringError::Overloaded`].
    pub shed: u64,
    /// Calls that failed any other way.
    pub errors: u64,
    /// Latency distribution of *served* calls, measured from each call's
    /// intended start time.
    pub served_hist: HistSnapshot,
}

/// Runs one open-loop schedule.
///
/// `call` is invoked once per arrival with `(index, intended_start_ns)`;
/// it issues the door call (stamping the intended start on the wire when
/// the target uses the priority subcontract, so the server's admission
/// controller sees true queue delay). Latency classification:
/// `Ok` → served, `Err(Overloaded)` → shed, anything else → error.
///
/// Workers claim arrivals from one shared schedule; an arrival whose
/// intended time has already passed is issued immediately, and its wait is
/// charged to its latency. Nothing is ever skipped.
pub fn run<F>(cfg: &OpenLoopConfig, call: F) -> OpenLoopReport
where
    F: Fn(u64, u64) -> subcontract::Result<()> + Sync,
{
    assert!(cfg.rate_per_sec > 0.0, "open loop needs a positive rate");
    assert!(cfg.workers > 0, "open loop needs at least one worker");
    let period_ns = 1e9 / cfg.rate_per_sec;

    let served_hist = Histogram::default();
    let served = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let next = AtomicU64::new(0);

    // Schedule epoch: a little in the future so worker 0's first arrival
    // is not already late before the other workers have even spawned.
    let start_ns = now_ns() + 1_000_000;

    std::thread::scope(|scope| {
        for _ in 0..cfg.workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.total_calls {
                    break;
                }
                let intended = start_ns + (i as f64 * period_ns) as u64;
                loop {
                    let now = now_ns();
                    if now >= intended {
                        break;
                    }
                    let wait = intended - now;
                    if wait > SPIN_WINDOW_NS {
                        std::thread::sleep(Duration::from_nanos(wait - SPIN_WINDOW_NS));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let outcome = call(i, intended);
                let latency = now_ns().saturating_sub(intended);
                match outcome {
                    Ok(()) => {
                        served_hist.record(latency);
                        if let Some((key, op)) = cfg.registry_hist {
                            spring_trace::record(key, op, latency);
                        }
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(SpringError::Overloaded { .. }) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    OpenLoopReport {
        served: served.into_inner(),
        shed: shed.into_inner(),
        errors: errors.into_inner(),
        served_hist: served_hist.snapshot(),
    }
}
