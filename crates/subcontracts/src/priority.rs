//! The *priority* subcontract: one of the paper's future directions (§8.4).
//!
//! "Another is to develop a subcontract that transfers scheduling priority
//! information between clients and servers for time-critical operations."
//! The paper's point is that such subcontracts can be written by third
//! parties without modifying the base system — and indeed this module uses
//! only the public `subcontract` API: `invoke_preamble` piggybacks the
//! caller's priority *and enqueue timestamp* in the control region, and the
//! server-side subcontract publishes the priority to the servant for the
//! duration of the call. What that costs its author is what is new about
//! it: the client half is one `DoorSubcontract` impl (control bytes, and a
//! `u32` that travels beside the door); marshal, unmarshal, copy and consume
//! are `subcontract::client`'s. The smallest worked example is
//! [`crate::txn`], whose client half is some twenty lines.
//!
//! The enqueue timestamp is what makes the priority subcontract earn its
//! keep under overload: [`Priority::export_with_admission`] wraps the
//! server in an admission controller that measures each call's queue delay
//! (now − enqueue stamp) and sheds low-priority calls with a typed
//! [`subcontract::SpringError::Overloaded`] reply when the delay exceeds a bound.
//! Rejection costs microseconds instead of a full service time, so the
//! server keeps serving admitted calls at bounded latency instead of
//! letting the queue — and everyone's tail — grow without limit (the E15
//! knee experiment). Each shed is recorded as a failed `priority.shed` span
//! so shedding is visible in traces and latency histograms.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId};
use subcontract::{
    client, encode_overloaded, export_door, Call, Dispatch, DomainCtx, DoorRepr, DoorSubcontract,
    Result, ScId, ServerSubcontract, SpringObj,
};

/// Span key recorded (failed) for every call the admission controller
/// sheds; keyed under [`Priority::ID`], so sheds show up both in trace
/// trees and in the `(priority, "priority.shed")` latency histogram.
pub const SHED_SPAN: &str = "priority.shed";

// Why thread-locals and not fields of the call (see also `txn`): a door call
// shuttles the caller's thread into the server and back, so a value set on
// the thread is seen by that call and the calls nested inside it, and by
// nothing else; each serve step restores what it replaced. Both are pinned
// in tests/extensions.rs (`a_nested_outgoing_call_…`, `a_stamp_whose_call_…`).
thread_local! {
    /// The priority of the call currently executing on this thread, set by
    /// the server-side priority subcontract and restored when its dispatch
    /// returns, so a servant reads its own call's priority even after it
    /// has called onward.
    static CURRENT_CALL_PRIORITY: Cell<u32> = const { Cell::new(0) };

    /// Enqueue timestamp (trace-epoch ns) to stamp on the *next* priority
    /// call issued from this thread, set by an open-loop load generator so
    /// the server sees queue delay measured from the intended start time.
    /// `preamble` takes it as its first act — before anything that can
    /// fail — so a stamp never outlives the call it was set for; `None`
    /// means "stamp at send".
    static PENDING_ENQUEUE_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Reads the priority of the in-flight call (0 outside one) — what a
/// time-critical servant consults to order its work.
pub fn current_call_priority() -> u32 {
    CURRENT_CALL_PRIORITY.with(Cell::get)
}

/// Stamps the next priority call issued from this thread as having been
/// enqueued at `ns` (trace-epoch nanoseconds, see [`spring_trace::now_ns`]).
///
/// An open-loop generator sets this to the call's *intended* start time, so
/// the server's admission controller measures true queue delay — including
/// the time the call spent waiting for a free caller thread — rather than
/// just the wire time (the coordinated-omission discipline, server side).
/// Without a stamp, `invoke_preamble` uses the send time.
pub fn stamp_enqueue_ns(ns: u64) {
    PENDING_ENQUEUE_NS.with(|c| c.set(Some(ns)));
}

/// Admission-control policy for [`Priority::export_with_admission`].
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Queue-delay bound: calls arriving with more measured queue delay
    /// than this are candidates for shedding.
    pub queue_bound: Duration,
    /// Calls with priority below this value are shed when over the bound;
    /// calls at or above it are always served (they paid for the
    /// fast-rejection headroom).
    pub shed_below: u32,
}

/// Counters published by an admission controller — hardware-independent
/// evidence of what shedding did during a run.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    admitted: AtomicU64,
    shed: AtomicU64,
    max_queue_ns: AtomicU64,
}

impl AdmissionStats {
    /// Calls that passed admission and were served.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Calls rejected with [`subcontract::SpringError::Overloaded`].
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Largest queue delay the controller measured, in nanoseconds.
    pub fn max_queue_ns(&self) -> u64 {
        self.max_queue_ns.load(Ordering::Relaxed)
    }
}

/// The priority subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Priority;

impl Priority {
    /// The identifier carried in priority objects' marshalled form.
    pub const ID: ScId = ScId::from_name("priority");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Priority> {
        Arc::new(Priority)
    }

    /// Sets the priority future calls on this object will carry.
    pub fn set_priority(obj: &SpringObj, priority: u32) -> Result<()> {
        let repr = client::repr::<Priority>(obj)?;
        repr.state.store(priority, Ordering::Relaxed);
        Ok(())
    }

    /// The priority currently configured on this object.
    pub fn priority(obj: &SpringObj) -> Result<u32> {
        Ok(client::repr::<Priority>(obj)?.state.load(Ordering::Relaxed))
    }
}

/// Server-side priority code: publishes the piggybacked priority for the
/// call's duration, then forwards to the skeleton. When an admission
/// policy is configured, calls are triaged first: low-priority calls that
/// have already waited longer than the queue bound are rejected in
/// microseconds with [`subcontract::SpringError::Overloaded`] instead of consuming a
/// full service time the server cannot afford.
fn control(
    admission: &Option<(AdmissionConfig, Arc<AdmissionStats>)>,
    call: &mut Call<'_>,
    disp: &dyn Dispatch,
) -> std::result::Result<(), DoorError> {
    let priority = call
        .args
        .get_u32()
        .map_err(|e| DoorError::Handler(format!("bad priority control: {e}")))?;
    let enqueue_ns = call
        .args
        .get_u64()
        .map_err(|e| DoorError::Handler(format!("bad enqueue stamp: {e}")))?;

    if let Some((cfg, stats)) = admission {
        let queue_ns = spring_trace::now_ns().saturating_sub(enqueue_ns);
        stats.max_queue_ns.fetch_max(queue_ns, Ordering::Relaxed);
        if queue_ns > cfg.queue_bound.as_nanos() as u64 && priority < cfg.shed_below {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            let scope = call.ctx().domain().trace_scope();
            spring_trace::span_start(SHED_SPAN, scope, Priority::ID.raw()).fail();
            encode_overloaded(&mut call.reply, queue_ns);
            return Ok(());
        }
        stats.admitted.fetch_add(1, Ordering::Relaxed);
    }

    // Publish for the servant; restore afterwards (calls can nest).
    let previous = CURRENT_CALL_PRIORITY.with(|c| c.replace(priority));
    let result = call.dispatch(disp);
    CURRENT_CALL_PRIORITY.with(|c| c.set(previous));
    result
}

/// Client representation: the door, then the priority this object's calls
/// carry (it travels with the object and each copy keeps its own).
impl DoorSubcontract for Priority {
    const ID: ScId = Priority::ID;
    const NAME: &'static str = "priority";
    type State = AtomicU32;

    fn preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Transfer the scheduling priority in the control region (§8.4),
        // plus the enqueue timestamp the admission controller subtracts
        // from its own clock to measure queue delay. The stamp is taken
        // before anything can fail: it belongs to this call, issued or not.
        let enqueue_ns = PENDING_ENQUEUE_NS.with(Cell::take);
        let priority = &client::repr::<Self>(obj)?.state;
        call.put_u32(priority.load(Ordering::Relaxed));
        call.put_u64(enqueue_ns.unwrap_or_else(spring_trace::now_ns));
        Ok(())
    }

    fn put(&self, priority: &AtomicU32, buf: &mut CommBuffer) {
        buf.put_u32(priority.load(Ordering::Relaxed));
    }

    fn get(&self, _ctx: &Arc<DomainCtx>, _door: DoorId, buf: &mut CommBuffer) -> Result<AtomicU32> {
        Ok(AtomicU32::new(buf.get_u32()?))
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, priority: &AtomicU32) -> Result<AtomicU32> {
        Ok(AtomicU32::new(priority.load(Ordering::Relaxed)))
    }
}

impl Priority {
    fn export_inner(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        admission: Option<(AdmissionConfig, Arc<AdmissionStats>)>,
    ) -> Result<SpringObj> {
        export_door(
            ctx,
            "priority.serve",
            Self::ID,
            disp,
            move |call, disp| control(&admission, call, disp),
            |_| Ok(|door| DoorRepr::of(door, AtomicU32::new(0))),
        )
    }

    /// Exports a servant behind an admission controller: calls whose
    /// measured queue delay exceeds `cfg.queue_bound` and whose priority is
    /// below `cfg.shed_below` are rejected with
    /// [`subcontract::SpringError::Overloaded`] before reaching the servant. Returns
    /// the exported object plus the controller's live counters.
    pub fn export_with_admission(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        cfg: AdmissionConfig,
    ) -> Result<(SpringObj, Arc<AdmissionStats>)> {
        let stats = Arc::new(AdmissionStats::default());
        let obj = Self::export_inner(ctx, disp, Some((cfg, stats.clone())))?;
        Ok((obj, stats))
    }
}

impl ServerSubcontract for Priority {
    fn export(&self, ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        Self::export_inner(ctx, disp, None)
    }
}
