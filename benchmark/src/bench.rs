//! One set-up instance of a workload, as the end-to-end and layer passes
//! see it, and the generic implementation the five single-interface
//! workloads share.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use spring_kernel::Kernel;
use subcontract::{DomainCtx, ServerCtx};

use crate::host::Calibrator;

use crate::drive::{block_for, drive, Rec, Rung, Span, Stop};
use crate::rungs::{
    capture, door_of, DoorRung, InvokeRung, RawDoorRung, ServantRung, SkeletonRung, StubRung,
};
use crate::service::Service;
use crate::topo::{export_local, live_ids, Remote, Sim, Topo};

/// Fixed-count warm-up before the first timed call (per caller).
pub const WARMUP_CALLS: u64 = 3000;

/// One rung's result in the layer pass.
pub struct RungStat {
    pub name: &'static str,
    /// Each slice's p50, rescaled by the slice's own calibration bracket
    /// (ns per call, host-normalised), in the order the slices ran.
    pub slices: Vec<f64>,
    /// Median of `slices`.
    pub p50_ns: f64,
    pub samples: usize,
    /// Heap allocations per call made inside the timed region.
    pub allocs_per_call: f64,
    pub spans: Vec<Span>,
}

/// How long the ladder measures: every rung gets `passes` slices of
/// `slice` each, and the rungs take turns, so a slow minute on the host
/// falls on all of them alike and cancels in their differences.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub passes: usize,
    pub slice: Duration,
}

/// One rung the ladder loop can run for a while: `(stop, keep spans)`.
pub type Runner<'a> = (&'static str, &'a mut dyn FnMut(Stop, bool) -> Rec);

/// The name of the entry `interleave` appends after the rungs.
pub const UNTRACED: &str = "untraced";

/// Runs `rungs` in turn, `plan.passes` times over, each slice bracketed by
/// calibration readings, and folds every rung's slices into one stat.
///
/// The last rung is the workload itself. Its turn is two half-length
/// slices, each followed at once by a half-length slice of the same
/// workload with the benchmark's spans off; those come back as one more
/// entry, `UNTRACED`, after the rungs. `ladder.closure_err` is the median
/// ratio of such a pair, so the two must see the same stretch of host time:
/// on the sizing host, untraced slices taken before and after the ladder
/// instead of inside it disagreed with the top rung by up to 30 %, and ten
/// full-length pairs still left one layer pass in fifty beyond 0.10 by
/// chance where twenty half-length ones leave one in three hundred.
pub fn interleave(
    cal: &Calibrator,
    plan: Plan,
    rungs: &mut [Runner<'_>],
) -> Result<Vec<RungStat>, String> {
    #[derive(Default)]
    struct Acc {
        p50s: Vec<f64>,
        samples: usize,
        allocs: u64,
        calls: u64,
        spans: Vec<Span>,
    }
    let top = rungs.len().checked_sub(1).ok_or("ladder has no rungs")?;
    // (runner, keep spans, slice length), in the order a pass runs them.
    let half = plan.slice / 2;
    let mut turns: Vec<(usize, bool, Duration)> = (0..top).map(|i| (i, true, plan.slice)).collect();
    turns.extend([(top, true, half), (top, false, half)].repeat(2));
    // One accumulator per runner, and one more for the untraced slices.
    let mut accs: Vec<Acc> = (0..top + 2).map(|_| Acc::default()).collect();
    for pass in 0..plan.passes {
        for &(i, spans, len) in &turns {
            let (name, run) = &mut rungs[i];
            let acc = &mut accs[if spans { i } else { top + 1 }];
            let before = cal.read();
            let rec = run(Stop::After(len), spans);
            let after = cal.read();
            if rec.failed > 0 {
                return Err(format!(
                    "ladder rung {name}: {} of {} calls returned a wrong reply",
                    rec.failed, rec.attempted
                ));
            }
            acc.p50s.push(crate::est::norm_time(
                rec.percentile(50.0),
                (before + after) / 2.0,
            ));
            acc.samples += rec.samples();
            // Allocations per call are a steady-state figure: the first
            // slice also pays for pools and tables filling up.
            if pass > 0 || plan.passes == 1 {
                acc.allocs += rec.allocs;
                acc.calls += rec.attempted;
            }
            acc.spans.extend(rec.spans);
        }
    }
    let names = rungs.iter().map(|(name, _)| *name).chain([UNTRACED]);
    Ok(names
        .zip(accs)
        .map(|(name, acc)| RungStat {
            name,
            p50_ns: crate::est::median(&mut acc.p50s.clone()),
            slices: acc.p50s,
            samples: acc.samples,
            allocs_per_call: acc.allocs as f64 / acc.calls.max(1) as f64,
            spans: acc.spans,
        })
        .collect())
}

/// Raw counter readings; the layer pass reports differences between them.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn add(counts: &mut Counts, key: &'static str, v: u64) {
    *counts.entry(key).or_insert(0.0) += v as f64;
}

/// Adds this process's counters for `kernels` (per-kernel fields summed,
/// process-global ones read once).
pub fn local_counts(counts: &mut Counts, kernels: &[Kernel]) {
    for k in kernels {
        let s = k.stats();
        add(counts, "door_calls", s.door_calls);
        add(counts, "local_deliveries", s.local_deliveries);
        add(counts, "bytes_copied", s.bytes_copied);
        add(counts, "ids_issued", s.ids_issued);
        add(
            counts,
            "lock_waits",
            s.table_lock_waits + s.shard_lock_waits,
        );
    }
    if let Some(k) = kernels.first() {
        let s = k.stats();
        add(counts, "pool_hits", s.pool_hits);
        add(counts, "pool_misses", s.pool_misses);
        add(counts, "fastpath_sends", s.fastpath_sends);
        add(counts, "writev_wakeups", s.writev_wakeups);
        add(counts, "writev_frames", s.writev_frames);
        add(counts, "dispatch_spawned", s.dispatch_pool_spawned);
    }
    let (allocs, bytes) = crate::alloc::counters();
    add(counts, "client_allocs", allocs);
    add(counts, "client_alloc_bytes", bytes);
    add(
        counts,
        "decode_copied",
        spring_buf::flat::decode_bytes_copied(),
    );
    let (spans, failed_spans) = crate::measure::span_totals();
    add(counts, "spans", spans);
    add(counts, "failed_spans", failed_spans);
}

pub fn net_counts(counts: &mut Counts, net: &spring_net::Network) {
    let n = net.stats();
    add(counts, "net_messages", n.messages);
    add(counts, "net_bytes", n.bytes);
    add(counts, "net_drops", n.drops);
    add(counts, "net_exports", n.exports);
    add(counts, "net_proxies", n.proxies_created);
    add(counts, "calls_batched", n.calls_batched);
    add(counts, "calls_unbatched", n.calls_unbatched);
    let s = net.socket_stats();
    add(counts, "frames", s.frames_sent + s.frames_received);
    add(counts, "frames_sent", s.frames_sent);
    // Each frame carries a 4-byte length prefix the byte counters omit.
    add(
        counts,
        "socket_bytes",
        s.bytes_sent + s.bytes_received + 4 * (s.frames_sent + s.frames_received),
    );
    add(counts, "disconnects", s.disconnects);
}

/// Adds the serving process's counters, read through its stats door and
/// its control door.
pub fn remote_counts(counts: &mut Counts, remote: &Remote) -> Result<(), String> {
    let kernel = remote
        .stats
        .kernel_stats()
        .map_err(|e| format!("stats door: {e}"))?;
    for (name, v) in kernel {
        let key = match name.as_str() {
            "door_calls" => "door_calls",
            "local_deliveries" => "local_deliveries",
            "bytes_copied" => "bytes_copied",
            "ids_issued" => "ids_issued",
            "table_lock_waits" | "shard_lock_waits" => "lock_waits",
            "pool_hits" => "pool_hits",
            "pool_misses" => "pool_misses",
            "fastpath_sends" => "fastpath_sends",
            "writev_wakeups" => "writev_wakeups",
            "writev_frames" => "writev_frames",
            "dispatch_pool_spawned" => "dispatch_spawned",
            _ => continue,
        };
        add(counts, key, v);
    }
    let own = remote
        .control
        .snapshot()
        .map_err(|e| format!("control door: {e}"))?;
    for (name, v) in own {
        let key = match name.as_str() {
            "allocs" => "server_allocs",
            "decode_bytes_copied" => "decode_copied",
            "frames_sent" => "frames_sent",
            "disconnects" => "disconnects",
            "spans" => "spans",
            "failed_spans" => "failed_spans",
            _ => continue,
        };
        add(counts, key, v);
    }
    add(counts, "redials", remote.peer.redials());
    Ok(())
}

fn remote_live_ids(remote: &Remote) -> Result<i64, String> {
    let own = remote
        .control
        .snapshot()
        .map_err(|e| format!("control door: {e}"))?;
    own.iter()
        .find(|(n, _)| n == "live_ids")
        .map(|(_, v)| *v as i64)
        .ok_or_else(|| "control door reports no live_ids".to_owned())
}

/// What the layer pass gets back from a workload's ladder.
pub struct Ladder {
    /// As `interleave` returns them: bottom to top, the last rung being the
    /// workload itself with spans on, then the `UNTRACED` entry.
    pub rungs: Vec<RungStat>,
    /// Layer metrics derived from the rungs (self times and the like).
    pub metrics: Vec<(&'static str, f64)>,
}

pub trait Bench {
    /// Calls per latency sample.
    fn block(&self) -> usize;
    /// Runs the workload itself (every caller) until `stop`.
    fn round(&mut self, stop: Stop, spans: bool) -> Rec;
    /// Processes whose CPU time and memory count: this one and the child.
    fn pids(&self) -> Vec<u32>;
    /// Live door identifiers, both processes.
    fn live_ids(&self) -> Result<i64, String>;
    /// Calls in one cycle of the op table(s), all callers.
    fn cycle(&self) -> u64;
    /// Application bytes one cycle moves.
    fn cycle_payload(&self) -> u64;
    fn counts(&self) -> Result<Counts, String>;
    /// Turns tracing on or off wherever the workload's calls execute.
    fn trace(&self, on: bool) -> Result<(), String>;
    /// Runs the ladder: every rung for `plan.passes` slices, in turns.
    fn ladder(&mut self, plan: Plan, cal: &Calibrator) -> Result<Ladder, String>;
}

/// The self times every simplex ladder yields; rungs a workload does not
/// have contribute 0.
pub fn simplex_metrics(rungs: &[RungStat]) -> Vec<(&'static str, f64)> {
    let p50 = |name: &str| rungs.iter().find(|r| r.name == name).map(|r| r.p50_ns);
    let diff = |hi: &str, lo: &str| match (p50(hi), p50(lo)) {
        (Some(h), Some(l)) => h - l,
        _ => 0.0,
    };
    let servant = p50("servant").unwrap_or(0.0);
    let raw = p50("raw_door").unwrap_or(0.0);
    vec![
        ("services.self_ns", servant),
        ("idl.server_self_ns", diff("skeleton", "servant")),
        ("kernel.raw_door_ns", raw),
        (
            "subcontracts.server_self_ns",
            diff("door", "skeleton") - raw,
        ),
        ("subcontracts.client_self_ns", diff("invoke", "door")),
        ("idl.client_self_ns", diff("stub", "invoke")),
        ("net.sim_self_ns", diff("sim", "stub")),
        ("net.socket_self_ns", diff("uds", "sim")),
    ]
}

/// Runs a simplex ladder for `svc`: the same-kernel rungs — servant,
/// skeleton, raw door, door, invoke and, unless the first of `upper` is the
/// stub itself, stub — interleaved with the `upper` rungs the caller
/// supplies (the topology's own top rungs). `server` and `client` are two
/// domains of one kernel; `cursor` is the table position of `svc`'s
/// servant state, shared with any `upper` rung that calls the same servant.
#[allow(clippy::too_many_arguments)]
pub fn simplex_ladder<S: Service>(
    svc: &S,
    table: &[S::Op],
    server: &Arc<DomainCtx>,
    client: &Arc<DomainCtx>,
    cursor: &Cell<usize>,
    block: usize,
    with_stub: bool,
    upper: &mut [Runner<'_>],
    plan: Plan,
    cal: &Calibrator,
) -> Result<Vec<RungStat>, String> {
    let stub = S::narrow(export_local(
        server,
        client,
        svc.skeleton(),
        S::type_info(),
    )?)
    .map_err(|e| format!("narrow: {e}"))?;
    let top = StubRung {
        svc,
        table,
        stub: &stub,
    };
    // Drives `rung` from the shared cursor.
    fn at<R: Rung>(rung: &R, cursor: &Cell<usize>, block: usize, stop: Stop, spans: bool) -> Rec {
        let mut c = cursor.get();
        let rec = drive(rung, &mut c, block, stop, spans);
        cursor.set(c);
        rec
    }

    // The capture pass walks whole cycles from position 0 of the table, so
    // first bring the servant's state to a cycle boundary.
    while cursor.get() != 0 {
        if at(&top, cursor, 1, Stop::Calls(1), false).failed > 0 {
            return Err("ladder: wrong reply while aligning to the table".into());
        }
    }
    let captured = capture(
        svc,
        table,
        client,
        |skel| {
            use subcontract::ServerSubcontract as _;
            spring_subcontracts::Simplex.export(server, skel)
        },
        |obj| subcontract::ship_object(&subcontract::KernelTransport, obj, client, S::type_info()),
    )?;
    let caps = &captured.caps[..];

    let servant = ServantRung { svc, table };
    let skeleton = SkeletonRung {
        skel: svc.skeleton(),
        sctx: ServerCtx {
            ctx: server.clone(),
            caller: captured.caller,
        },
        caps,
    };
    let raw = RawDoorRung::new(server.domain(), client.domain(), caps)
        .map_err(|e| format!("raw door: {e}"))?;
    let door_id = door_of(S::obj(&stub))?;
    let door = DoorRung {
        domain: client.domain().clone(),
        door: door_id,
        caps,
    };
    let invoke = InvokeRung {
        obj: S::obj(&stub),
        caps,
    };
    // The raw door has no servant behind it, so it neither needs nor moves
    // the table state: it runs on a cursor of its own.
    let raw_cursor = Cell::new(0);

    let mut run_servant = |stop, spans| at(&servant, cursor, block, stop, spans);
    let mut run_skeleton = |stop, spans| at(&skeleton, cursor, block, stop, spans);
    let mut run_raw = |stop, spans| at(&raw, &raw_cursor, block, stop, spans);
    let mut run_door = |stop, spans| at(&door, cursor, block, stop, spans);
    let mut run_invoke = |stop, spans| at(&invoke, cursor, block, stop, spans);
    let mut run_stub = |stop, spans| at(&top, cursor, block, stop, spans);
    let mut rungs: Vec<Runner<'_>> = vec![
        ("servant", &mut run_servant),
        ("skeleton", &mut run_skeleton),
        ("raw_door", &mut run_raw),
        ("door", &mut run_door),
        ("invoke", &mut run_invoke),
    ];
    if with_stub {
        rungs.push(("stub", &mut run_stub));
    }
    for (name, run) in upper.iter_mut() {
        rungs.push((name, &mut **run));
    }
    let stats = interleave(cal, plan, &mut rungs);
    let _ = client.domain().delete_door(door_id);
    stats
}

/// The workloads that call one simplex-exported interface: `null_local`,
/// `kv_sim`, `bulk_sim`, `null_uds`, `kv_uds`.
pub struct ServiceBench<S: Service, T: Topo> {
    block: usize,
    svc: S,
    /// One table, cursor and stub per caller.
    tables: Vec<Vec<S::Op>>,
    cursors: Vec<Cell<usize>>,
    stubs: Vec<S::Stub>,
    /// For the cross-process workloads, how to make a replica of the
    /// servant for the rungs below `uds`, which cannot reach into the
    /// serving process. Made only when the ladder runs, so the end-to-end
    /// pass neither waits for it nor carries its memory.
    replica: Option<fn(u64) -> Replica<S>>,
    seed: u64,
    // Declared after the stubs so the objects are consumed while their
    // topology (and the serving process) is still there.
    topo: T,
}

/// A second instance of the service (own servant, same seed so same keys
/// and payloads) and the writes that populate it.
pub struct Replica<S: Service> {
    pub svc: S,
    pub populate: Vec<S::Op>,
}

/// How a workload shapes its service: per-caller tables plus the writes
/// that establish their start state.
pub struct Shaped<S: Service> {
    pub svc: S,
    pub tables: Vec<Vec<S::Op>>,
    pub populate: Vec<S::Op>,
}

/// Issues `ops` once, in order, through `stub`, checking each reply.
fn run_all<S: Service>(svc: &S, ops: &[S::Op], stub: &S::Stub, what: &str) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate() {
        if !svc.ok(op, &svc.call_stub(stub, op)) {
            return Err(format!("{what}: wrong reply at op {i}"));
        }
    }
    Ok(())
}

/// The workload itself: every caller runs the closed loop through its own
/// stub until `stop`. Callers start together so their windows line up.
fn callers_round<S: Service>(
    svc: &S,
    tables: &[Vec<S::Op>],
    stubs: &[S::Stub],
    cursors: &[Cell<usize>],
    block: usize,
    stop: Stop,
    spans: bool,
) -> Rec {
    let mut at: Vec<usize> = cursors.iter().map(Cell::get).collect();
    let rec = if let ([table], [stub], [cursor]) = (tables, stubs, &mut at[..]) {
        drive(&StubRung { svc, table, stub }, cursor, block, stop, spans)
    } else {
        let gate = Barrier::new(stubs.len());
        let mut merged = Rec::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = stubs
                .iter()
                .zip(tables)
                .zip(at.iter_mut())
                .map(|((stub, table), cursor)| {
                    let gate = &gate;
                    scope.spawn(move || {
                        let rung = StubRung { svc, table, stub };
                        gate.wait();
                        drive(&rung, cursor, block, stop, spans)
                    })
                })
                .collect();
            for h in handles {
                merged.merge(h.join().expect("caller thread panicked"));
            }
        });
        merged
    };
    for (cell, v) in cursors.iter().zip(at) {
        cell.set(v);
    }
    rec
}

impl<S: Service, T: Topo> ServiceBench<S, T> {
    /// Builds the topology's client side, populates the server and warms
    /// every caller up: everything `setup_s` covers.
    ///
    /// `name` is the registry name of the interface's object when the
    /// server is another process.
    pub fn build(
        name: &'static str,
        block: usize,
        topo: T,
        shaped: Shaped<S>,
        replica: Option<fn(u64) -> Replica<S>>,
        seed: u64,
    ) -> Result<Self, String> {
        let Shaped {
            svc,
            tables,
            populate,
        } = shaped;
        let first = S::narrow(topo.fetch(name, svc.skeleton(), S::type_info())?)
            .map_err(|e| format!("narrow: {e}"))?;
        let mut stubs = vec![first];
        for _ in 1..tables.len() {
            // Further callers call through their own copy of the object
            // (their own door identifier), over the same connection.
            let copy = S::obj(&stubs[0])
                .copy()
                .and_then(S::narrow)
                .map_err(|e| format!("copy for caller: {e}"))?;
            stubs.push(copy);
        }
        run_all(&svc, &populate, &stubs[0], "populate")?;
        let mut bench = ServiceBench {
            block,
            svc,
            cursors: tables.iter().map(|_| Cell::new(0)).collect(),
            tables,
            stubs,
            replica,
            seed,
            topo,
        };
        let warm = bench.round(Stop::Calls(WARMUP_CALLS), false);
        if warm.failed > 0 {
            return Err(format!("warm-up: {} wrong replies", warm.failed));
        }
        Ok(bench)
    }
}

impl<S: Service, T: Topo> Bench for ServiceBench<S, T> {
    fn block(&self) -> usize {
        self.block
    }

    fn round(&mut self, stop: Stop, spans: bool) -> Rec {
        callers_round(
            &self.svc,
            &self.tables,
            &self.stubs,
            &self.cursors,
            self.block,
            stop,
            spans,
        )
    }

    fn pids(&self) -> Vec<u32> {
        let mut pids = vec![std::process::id()];
        pids.extend(self.topo.remote().map(Remote::pid));
        pids
    }

    fn live_ids(&self) -> Result<i64, String> {
        let local: i64 = self.topo.kernels().iter().map(live_ids).sum();
        match self.topo.remote() {
            Some(remote) => Ok(local + remote_live_ids(remote)?),
            None => Ok(local),
        }
    }

    fn cycle(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64).sum()
    }

    fn cycle_payload(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .map(|op| self.svc.payload_bytes(op))
            .sum()
    }

    fn counts(&self) -> Result<Counts, String> {
        let mut counts = Counts::new();
        local_counts(&mut counts, &self.topo.kernels());
        if let Some(net) = self.topo.net() {
            net_counts(&mut counts, net);
        }
        if let Some(remote) = self.topo.remote() {
            remote_counts(&mut counts, remote)?;
        }
        Ok(counts)
    }

    fn trace(&self, on: bool) -> Result<(), String> {
        if let Some(remote) = self.topo.remote() {
            remote
                .control
                .trace(on)
                .map_err(|e| format!("control door: {e}"))?;
        }
        spring_trace::reset();
        spring_trace::set_enabled(on);
        Ok(())
    }

    fn ladder(&mut self, plan: Plan, cal: &Calibrator) -> Result<Ladder, String> {
        let ServiceBench {
            block,
            svc,
            tables,
            cursors,
            stubs,
            replica,
            seed,
            topo,
        } = self;
        // The top rung is the workload itself: every caller, spans on.
        let mut top = |stop, spans| callers_round(svc, tables, stubs, cursors, *block, stop, spans);
        let table = &tables[0];
        let rungs = match (topo.near(), replica) {
            (Some((server, near)), _) => {
                // The servant is in this process: the rungs below the
                // workload's own call it from a domain on its kernel, and
                // share the workload's table position.
                let with_stub = T::TOP != "stub";
                let upper = &mut [(T::TOP, &mut top as &mut dyn FnMut(Stop, bool) -> Rec)];
                simplex_ladder(
                    svc,
                    table,
                    server,
                    near,
                    &cursors[0],
                    *block,
                    with_stub,
                    upper,
                    plan,
                    cal,
                )?
            }
            (None, Some(make)) => {
                // The servant is in another process: the rungs below `uds`
                // run on a replica of it on a simulated network here.
                let replica = make(*seed);
                let sim = Sim::new();
                let stub = S::narrow(sim.fetch("", replica.svc.skeleton(), S::type_info())?)
                    .map_err(|e| format!("narrow: {e}"))?;
                run_all(&replica.svc, &replica.populate, &stub, "replica populate")?;
                let cursor = Cell::new(0);
                let sim_rung = StubRung {
                    svc: &replica.svc,
                    table,
                    stub: &stub,
                };
                // The replica is in-process however far away the real
                // server is, so its rungs are timed in blocks.
                let payload: u64 = table.iter().map(|op| svc.payload_bytes(op)).sum();
                let block = block_for(payload / table.len() as u64);
                let mut sim_top = |stop, spans| {
                    let mut c = cursor.get();
                    let rec = drive(&sim_rung, &mut c, block, stop, spans);
                    cursor.set(c);
                    rec
                };
                let upper = &mut [
                    ("sim", &mut sim_top as &mut dyn FnMut(Stop, bool) -> Rec),
                    (T::TOP, &mut top),
                ];
                simplex_ladder(
                    &replica.svc,
                    table,
                    &sim.server,
                    &sim.near,
                    &cursor,
                    block,
                    true,
                    upper,
                    plan,
                    cal,
                )?
            }
            (None, None) => return Err("no servant within reach for the lower rungs".into()),
        };
        let metrics = simplex_metrics(&rungs);
        Ok(Ladder { rungs, metrics })
    }
}
