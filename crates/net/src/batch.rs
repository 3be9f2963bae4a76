//! Per-link call batching: coalescing concurrent forwarded calls into one
//! wire frame.
//!
//! Every (source node, destination node) pair owns a [`LinkBatcher`].
//! Callers hand it their wire-form call and block until a reply (or error)
//! lands in their [`CallSlot`]. The first caller to find the queue empty
//! becomes the *leader* for the frame now forming: it waits — bounded by
//! the flush policy below — for more calls to join, then takes the whole
//! queue and ships it as one frame. Followers just park on their slot.
//!
//! Leadership is per *frame*, not per link: while a leader is off shipping
//! its frame (sleeping out the simulated latency, executing the batch's
//! calls), the next arrival finds an empty queue and starts forming the
//! next frame concurrently. A link therefore carries as many concurrent
//! frames as it has concurrent callers, exactly like the unbatched path —
//! batching only ever *merges* calls that would have overlapped anyway.
//!
//! The flush policy is driven by the pipelining hint each call carries
//! ([`spring_kernel::CallCtx::company`]): a frame keeps coalescing only
//! while fewer calls are aboard than the largest company any of them
//! reported, and the size/count/linger budgets still have room. A plain
//! synchronous call (company 0) flushes immediately, so the batcher is
//! invisible to non-pipelined traffic — on this link and on every other.

use std::cell::RefCell;
use std::mem;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spring_kernel::{DoorError, Message};

use crate::server::{NetServer, Served, WireMessage};
use crate::transport::ReplyOutcome;

/// Flush budgets, snapshotted from [`crate::NetConfig`] by the caller.
#[derive(Clone, Copy)]
pub(crate) struct BatchBudget {
    pub max_calls: usize,
    pub max_bytes: usize,
    pub linger: Duration,
}

/// One call riding in a frame: its request in wire form, the export-table
/// entries freshly pinned for it, the slot its caller is parked on, and —
/// filled in by a shipper that serves the call in this process — what the
/// destination made of it.
pub(crate) struct PendingEntry {
    /// Export-table index of the target door on the destination node.
    pub export: u64,
    /// The request; a shipper that serves the call in this process takes it
    /// for delivery.
    pub wire: WireMessage,
    /// Export ids freshly pinned by `to_wire_tracked` for this request;
    /// released if the call is never delivered.
    pub fresh: Vec<u64>,
    /// Where the caller waits for the outcome.
    slot: Arc<CallSlot>,
    /// The served call, staged between execution and the reply frame.
    pub served: Option<Served>,
}

impl PendingEntry {
    /// Settles the call with what came back for it, on behalf of `from`,
    /// the network server that sent it (DESIGN.md §5.19).
    pub fn settle(&self, from: &Arc<NetServer>, outcome: ReplyOutcome) {
        let outcome = match outcome {
            ReplyOutcome::Ok(wire) => from.from_wire(wire),
            ReplyOutcome::NotDelivered(e) => {
                // The call never reached its serving domain: nothing can
                // ever reference the exports freshly pinned for it.
                from.unexport(&self.fresh);
                Err(e)
            }
            // Delivered, then failed: the pins stay, as the destination's
            // proxy table may reference them.
            ReplyOutcome::Failed(e) => Err(e),
        };
        self.slot.settle(|| outcome);
    }
}

/// A one-shot rendezvous between a queued caller and the frame shipper.
///
/// Parked-flag protocol (DESIGN.md §5.12): `parked` is written only under
/// the slot's mutex — set by the waiter immediately before `Condvar::wait`
/// releases that mutex, cleared when the waiter takes its outcome — and a
/// settler stores the outcome and reads `parked` in one critical section.
/// So either the waiter finds the outcome before it parks, or the settler
/// finds `parked` set and notifies: no wake-up is lost, and nobody pays a
/// `FUTEX_WAKE` for a waiter that is not asleep.
pub(crate) struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    outcome: Option<Result<Message, DoorError>>,
    /// Whether the slot's one waiter is asleep on `cv`.
    parked: bool,
}

fn aborted() -> DoorError {
    DoorError::Comm("batch frame aborted".into())
}

impl CallSlot {
    fn new() -> CallSlot {
        CallSlot {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        }
    }

    /// Settles the slot with an abort error if nothing has been delivered
    /// yet — the batcher's backstop, constructed lazily so settled slots
    /// (the universal case) cost nothing.
    fn abort_if_unsettled(&self) {
        self.settle(|| Err(aborted()));
    }

    /// Delivers the call's outcome. First write wins; the batcher's
    /// backstop fill is a no-op on slots already settled.
    fn settle(&self, outcome: impl FnOnce() -> Result<Message, DoorError>) {
        let mut state = lock(&self.state);
        if state.outcome.is_none() {
            state.outcome = Some(outcome());
            if state.parked {
                self.cv.notify_one();
            }
        }
    }

    fn wait_take(&self) -> Result<Message, DoorError> {
        let mut state = lock(&self.state);
        loop {
            if let Some(outcome) = state.outcome.take() {
                state.parked = false;
                return outcome;
            }
            state.parked = true;
            state = self.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Locks state whose every update is a counter bump or a list push/pop,
/// valid at every step, so a poisoned guard is recovered as is.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    /// Recycled call slots: a steady-state caller reuses the slot from its
    /// previous call instead of allocating a fresh `Arc` per call.
    static SLOT_POOL: RefCell<Vec<Arc<CallSlot>>> = const { RefCell::new(Vec::new()) };
    /// Recycled frame storage: a leader swaps a vector it shipped earlier
    /// in for the queue it takes, so neither side reallocates. More than
    /// one, because a servant run by `ship` may forward calls of its own
    /// on this thread while the outer frame is still out.
    static SPARE_FRAMES: RefCell<Vec<Vec<PendingEntry>>> = const { RefCell::new(Vec::new()) };
}

/// Thread-local pools keep at most this many idle items each.
const POOL_CAP: usize = 8;

fn recycle<T>(pool: &'static std::thread::LocalKey<RefCell<Vec<T>>>, item: T) {
    pool.with_borrow_mut(|pool| {
        if pool.len() < POOL_CAP {
            pool.push(item);
        }
    });
}

fn take_slot() -> Arc<CallSlot> {
    SLOT_POOL
        .with_borrow_mut(Vec::pop)
        .unwrap_or_else(|| Arc::new(CallSlot::new()))
}

/// Recycles a slot no other thread can reach any more — its frame has been
/// cleared, so every settler (backstop included) is done with it — and
/// returns the outcome it still held. A slot still referenced elsewhere is
/// dropped instead, and reads as empty.
fn retire(mut slot: Arc<CallSlot>) -> Option<Result<Message, DoorError>> {
    let state = Arc::get_mut(&mut slot)?
        .state
        .get_mut()
        .unwrap_or_else(|p| p.into_inner());
    let outcome = mem::take(state).outcome;
    recycle(&SLOT_POOL, slot);
    outcome
}

/// Ships one call as a frame of its own, built on the caller's stack: the
/// way of a call with no reply to wait for (a one-way call), which has
/// nothing to coalesce against and so bypasses the link batcher. `ship`
/// must settle the entry.
pub(crate) fn ship_alone(
    export: u64,
    wire: WireMessage,
    fresh: Vec<u64>,
    ship: impl FnOnce(&mut [PendingEntry]),
) -> Result<Message, DoorError> {
    let mut frame = [PendingEntry {
        export,
        wire,
        fresh,
        slot: take_slot(),
        served: None,
    }];
    ship(&mut frame);
    let [entry] = frame;
    retire(entry.slot).unwrap_or_else(|| Err(aborted()))
}

#[derive(Default)]
struct BatchState {
    /// The frame currently forming.
    forming: Vec<PendingEntry>,
    forming_bytes: usize,
    /// The largest company reported by a call aboard the forming frame:
    /// how many calls the frame is worth holding for.
    expected: u32,
    /// Whether a leader is already collecting the forming frame. The
    /// leader takes the whole queue when it stands down, so a new leader
    /// always finds `forming` empty and its own entry lands at index 0.
    leader_present: bool,
}

/// The batcher for one (source, destination) link.
#[derive(Default)]
pub(crate) struct LinkBatcher {
    state: Mutex<BatchState>,
    /// Wakes the leader: new arrivals notify here.
    arrivals: Condvar,
}

impl LinkBatcher {
    /// Queues one wire-form call and blocks until its outcome arrives.
    ///
    /// `company` is the call's pipelining hint (0 for a plain call). `ship`
    /// is invoked (on the leader's thread, with no batcher lock held) with
    /// the full frame once the flush policy fires; it must settle every
    /// entry's slot.
    pub fn submit(
        &self,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
        company: u32,
        budget: BatchBudget,
        ship: &dyn Fn(&mut [PendingEntry]),
    ) -> Result<Message, DoorError> {
        let slot = take_slot();
        let wire_len = wire.bytes.len();
        let mut state = lock(&self.state);
        let leading = !state.leader_present;
        // A follower waits on its slot from another thread, so it shares
        // it with its entry; a leader ships its own entry and takes the
        // slot back out of the frame, so it moves it in.
        let waiting = (!leading).then(|| slot.clone());
        state.forming.push(PendingEntry {
            export,
            wire,
            fresh,
            slot,
            served: None,
        });
        state.forming_bytes += wire_len;
        state.expected = state.expected.max(company);

        if let Some(slot) = waiting {
            // The leader may now have enough calls to flush.
            self.arrivals.notify_all();
            drop(state);
            let outcome = slot.wait_take();
            // Reusable only if the leader has already cleared the frame;
            // all it can still hold then is a stale backstop fill.
            retire(slot);
            return outcome;
        }

        // Leader: linger (bounded) for pipelined company, then ship. The
        // linger clock is read only once the frame actually has something
        // to wait for, so a plain synchronous call never reads it.
        state.leader_present = true;
        let mut started = None;
        while !Self::should_flush(&state, budget) {
            let started = *started.get_or_insert_with(Instant::now);
            let remaining = budget.linger.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                break;
            }
            let (relocked, _) = self
                .arrivals
                .wait_timeout(state, remaining)
                .unwrap_or_else(|p| p.into_inner());
            state = relocked;
        }
        let mut frame = SPARE_FRAMES.with_borrow_mut(Vec::pop).unwrap_or_default();
        mem::swap(&mut frame, &mut state.forming);
        state.forming_bytes = 0;
        state.expected = 0;
        state.leader_present = false;
        drop(state);

        ship(&mut frame);

        // Our own entry is back in our hands and its slot was never
        // shared, so the outcome comes out without a lock or a wait. Every
        // other caller wakes, even off a path `ship` missed.
        let slot = frame.swap_remove(0).slot;
        for entry in &frame {
            entry.slot.abort_if_unsettled();
        }
        frame.clear();
        recycle(&SPARE_FRAMES, frame);
        retire(slot).unwrap_or_else(|| Err(aborted()))
    }

    /// The flush conditions that need no clock.
    fn should_flush(state: &BatchState, budget: BatchBudget) -> bool {
        let queued = state.forming.len();
        queued >= budget.max_calls
            || state.forming_bytes >= budget.max_bytes
            // Everyone the calls aboard said was coming is aboard (and a
            // plain synchronous call, expecting nobody, flushes at once).
            || queued >= state.expected as usize
    }
}
