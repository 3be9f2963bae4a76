//! The experiment harness behind the `report` binary.
//!
//! One function per experiment from DESIGN.md §4. Each measures timings
//! *and* hardware-independent counters (kernel door counts, network message
//! counts) and describes the result once, as a [`Table`]; printing,
//! `BENCH_<id>.json` and the CI gates are all read off that description.
//! [`EXPERIMENTS`] is the one list the `report` binary, `bench_compare` and
//! the tests iterate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use subcontract::{ship_object_copy, DomainCtx, SpringError, SpringObj, Transport, TypeInfo};

use crate::fixtures::PingServant;

mod caching;
mod calls;
mod objects;
mod overload;
mod payload;
mod pipeline;
mod pubsub;
mod recovery;
mod socket;
pub mod table;

pub use table::{Table, Value};

/// How much work a run does. Both scales run every experiment; `Smoke` uses
/// the small counts CI can afford on every push and is what the committed
/// baselines are recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Full,
}

impl Scale {
    /// `smoke` at smoke scale, `full` otherwise.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// The direction in which a gated figure improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One CI gate: `bench_compare` fails when the figure moves past the
/// tolerance in the bad direction relative to the committed baseline.
/// Every gated figure is a ratio within one run or a structural count, so
/// the host's absolute speed cancels.
pub struct Gate {
    /// Name of the figure in the experiment's [`Table`].
    pub figure: &'static str,
    pub better: Better,
    /// Overrides `bench_compare`'s run-wide tolerance (20 % by default).
    pub tolerance: Option<f64>,
}

/// One entry of the evaluation: how to run it and what CI holds it to.
pub struct Experiment {
    /// Names the section and its `BENCH_<id>.json`.
    pub id: &'static str,
    pub run: fn(Scale) -> Table,
    pub gates: &'static [Gate],
}

const fn gate(figure: &'static str, better: Better, tolerance: Option<f64>) -> Gate {
    Gate {
        figure,
        better,
        tolerance,
    }
}

const fn ungated(id: &'static str, run: fn(Scale) -> Table) -> Experiment {
    let gates = &[];
    Experiment { id, run, gates }
}

/// Every experiment, in the order `report` runs and prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "e1",
        run: calls::e1_null_call,
        // The same 60-byte struct over the same transport, decoded in place
        // or field by field: the arms differ only in decode strategy. On 60
        // bytes the in-place win is 3–10 %, inside this gate's band (an echo
        // arm switched to the copying decode reads +2…+5 %): what the gate
        // holds is that the flat path does not fall behind the copying
        // one; that it copies nothing is `tests/flat_zero_copy.rs`. E1's two
        // ratios over the raw-door arm (`simplex_over_raw`,
        // `idl_flat_over_fused`) are reported but not gated: they *rise*
        // when the door gets cheaper while every absolute figure falls, and
        // the absolute figures are held by `null_local`'s
        // `call_p50_us_norm` and `kernel.raw_door_ns` in `benchmark/`.
        gates: &[gate("flat_over_copy_echo", Better::Lower, None)],
    },
    Experiment {
        id: "e1t",
        run: calls::e1_threaded,
        // Throughput scaling over per-domain door tables, as a share of
        // what the host delivered to threads that share nothing in the same
        // rounds — so a baseline recorded on a 1-thread host binds on a
        // 2-thread one and the other way round. On one hardware thread
        // nothing is contended and it reads 1.0, on two it reads what the
        // shared lines cost (0.85–0.95) — a shared host moves between the
        // two by the second, hence the wider band; calls that serialise
        // read 1/threads.
        gates: &[gate("parallel_efficiency", Better::Higher, Some(0.35))],
    },
    ungated("e2", objects::e2_transmit),
    ungated("e3", objects::e3_cluster),
    Experiment {
        id: "e4",
        run: caching::e4_caching,
        // Simplex over caching time on the last sweep row (highest latency,
        // most reads): the caching win.
        gates: &[gate("caching_speedup", Better::Higher, None)],
    },
    ungated("e4b", objects::e4b_unmarshal_overhead),
    ungated("e5", recovery::e5_replicon),
    ungated("e6", recovery::e6_reconnect),
    ungated("e7", objects::e7_marshal_copy),
    ungated("e8", payload::e8_shmem),
    ungated("e9", objects::e9_discovery),
    ungated("e11", objects::e11_compat),
    ungated("e12", calls::e12_local),
    ungated("e13", payload::e13_stream),
    Experiment {
        id: "e14",
        run: pipeline::e14_pipeline,
        // Two things, told apart by breaking each: eight calls in flight
        // overlap their round trips (a burst collected call by call reads
        // 0.9x), and they share wire frames (one call per frame still reads
        // 7.5x, and a share of 0). The share is a count over a few dozen
        // calls that a stall between two of them moves by a third, hence
        // the wide band; what it guards reads zero.
        gates: &[
            gate("speedup_1ms", Better::Higher, None),
            gate("batched_share", Better::Higher, Some(0.50)),
        ],
    },
    Experiment {
        id: "e15",
        run: overload::e15_open_loop,
        // The admission controller's headline effect (shedding moves the
        // saturation knee right, both knees in multiples of one measured
        // capacity) and the tail-latency win itself (served p99 at the top
        // of the sweep, shed over no-shed). The second is wider than the
        // default: its numerator is a p99 of ≈ 1.5 ms over a quarter second
        // of arrivals, which one host stall of a few milliseconds in each
        // round moves by a third, and what it guards — shedding that stops
        // working — moves it a hundredfold.
        gates: &[
            gate("knee_ratio", Better::Higher, None),
            gate("overload_p99_ratio", Better::Lower, Some(0.50)),
        ],
    },
    Experiment {
        id: "e16",
        run: socket::e16_socket,
        // The socket transport's per-call overhead — framing, two socket
        // crossings, the serving thread's wake-up — against the in-process
        // floor. Wider than the default: what is left of the run-to-run
        // spread is scheduler wake-up timing between two processes.
        gates: &[gate("uds_over_sim_null", Better::Lower, Some(0.40))],
    },
    Experiment {
        id: "e17",
        run: pubsub::e17_pubsub,
        // Structural counters, not timings. A publish to L links costs
        // exactly L frames, so the worst ratio is 1.0 by construction (one
        // frame per *subscriber* would read subscribers/links). With every
        // subscriber best-effort and fewer publishes than the lazy-ack
        // window every delivery ships one-way: 1.0 crossings per frame,
        // 2.0 if request+reply pairs came back.
        gates: &[
            gate("frames_per_publish_per_link", Better::Lower, Some(0.05)),
            gate("wire_crossings_per_delivery", Better::Lower, Some(0.05)),
        ],
    },
];

fn servant() -> Arc<PingServant> {
    Arc::new(PingServant)
}

/// Runs `measure` with span recording off, whatever the run. For the two
/// experiments whose figure compares arms that tracing loads unequally, so
/// that with `--trace` the figure would measure the spans: E16's simulated
/// arm has its server half traced in this process and a socket arm's runs
/// untraced in the peer; E1t's sixteen callers would contend on the span
/// rings, not on anything a door call takes.
fn untraced<T>(measure: impl FnOnce() -> T) -> T {
    let traced = spring_trace::enabled();
    spring_trace::set_enabled(false);
    let measured = measure();
    spring_trace::set_enabled(traced);
    measured
}

/// A minimal name service for one domain: its resolver, handing out copies
/// of the objects bound here, shipped to the domain over `transport`.
struct Names {
    bound: Mutex<HashMap<String, SpringObj>>,
    transport: Arc<dyn Transport>,
    ctx: Arc<DomainCtx>,
}

impl Names {
    /// Creates the service and makes it `ctx`'s resolver.
    fn install(transport: Arc<dyn Transport>, ctx: &Arc<DomainCtx>) -> Arc<Names> {
        let names = Arc::new(Names {
            bound: Mutex::default(),
            transport,
            ctx: ctx.clone(),
        });
        ctx.set_resolver(names.clone());
        names
    }

    fn bind(&self, name: &str, obj: SpringObj) {
        self.bound.lock().insert(name.to_owned(), obj);
    }

    fn unbind(&self, name: &str) {
        self.bound.lock().remove(name);
    }
}

impl subcontract::Resolver for Names {
    fn resolve(&self, name: &str, expected: &'static TypeInfo) -> subcontract::Result<SpringObj> {
        let bound = self.bound.lock();
        let obj = bound
            .get(name)
            .ok_or_else(|| SpringError::ResolveFailed(name.to_owned()))?;
        ship_object_copy(&*self.transport, obj, &self.ctx, expected)
    }
}
