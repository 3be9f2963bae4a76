//! Per-link call batching: coalescing concurrent forwarded calls into one
//! wire frame.
//!
//! Every (source node, destination node) pair owns a [`LinkBatcher`].
//! Callers hand it their wire-form call and block until a reply (or error)
//! comes back for it. The first caller to find the queue empty becomes the
//! *leader* for the frame now forming: it waits — bounded by the flush
//! policy below — for more calls to join, then takes the whole queue and
//! ships it as one frame; its own outcome is written into its entry, which
//! it reads when the shipper returns. Followers park on a [`CallSlot`].
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

/// Most calls one frame coalesces.
const MAX_CALLS: usize = 64;

/// Most payload bytes one frame coalesces.
const MAX_BYTES: usize = 256 * 1024;

/// One call riding in a frame: its request in wire form, the export-table
/// entries freshly pinned for it, where its caller will find the outcome,
/// and — filled in by a shipper that serves the call in this process — what
/// the destination made of it.
pub(crate) struct PendingEntry {
    /// Export-table index of the target door on the destination node.
    pub export: u64,
    /// The request; a shipper that serves the call in this process takes it
    /// for delivery.
    pub wire: WireMessage,
    /// Export ids freshly pinned by `to_wire_tracked` for this request;
    /// released if the call is never delivered.
    pub fresh: Vec<u64>,
    waiter: Waiter,
    /// The served call, staged between execution and the reply frame.
    pub served: Option<Served>,
}

/// Where a call's outcome goes.
enum Waiter {
    /// The caller is the thread shipping the frame (a frame's leader, every
    /// plain and every one-way call): the outcome waits in the entry until
    /// the shipper returns. Nothing is shared, so nothing is locked.
    Shipper(Option<Result<Message, DoorError>>),
    /// The caller is parked on another thread (a follower).
    Parked(Arc<CallSlot>),
}

impl PendingEntry {
    fn new(export: u64, wire: WireMessage, fresh: Vec<u64>, waiter: Waiter) -> PendingEntry {
        PendingEntry {
            export,
            wire,
            fresh,
            waiter,
            served: None,
        }
    }

    /// An entry whose caller is the thread holding it, as a frame's leader
    /// is: the codec's tests build frames of these.
    #[cfg(test)]
    pub(crate) fn shipped_by_caller(export: u64, wire: WireMessage) -> PendingEntry {
        PendingEntry::new(export, wire, Vec::new(), Waiter::Shipper(None))
    }

    /// The outcome of an entry back in its shipping caller's hands; an
    /// abort if the shipper settled nothing, and for a follower's entry.
    fn into_outcome(self) -> Result<Message, DoorError> {
        match self.waiter {
            Waiter::Shipper(Some(outcome)) => outcome,
            _ => Err(aborted()),
        }
    }

    /// Settles the call with what came back for it, on behalf of `from`,
    /// the network server that sent it (DESIGN.md §5.19). First write wins.
    pub fn settle(&mut self, from: &Arc<NetServer>, outcome: ReplyOutcome) {
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
        match &mut self.waiter {
            Waiter::Shipper(settled) => {
                settled.get_or_insert(outcome);
            }
            Waiter::Parked(slot) => slot.settle(|| outcome),
        }
    }
}

/// A one-shot rendezvous between a follower and the frame shipper.
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

/// Recycles a follower's slot once no other thread can reach it — the
/// leader has cleared the frame, so every settler (backstop included) is
/// done with it; all it can still hold is a stale backstop fill. A slot
/// still referenced elsewhere is dropped instead.
fn retire(mut slot: Arc<CallSlot>) {
    if let Some(unshared) = Arc::get_mut(&mut slot) {
        *unshared.state.get_mut().unwrap_or_else(|p| p.into_inner()) = SlotState::default();
        recycle(&SLOT_POOL, slot);
    }
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
    let mut frame = [PendingEntry::new(
        export,
        wire,
        fresh,
        Waiter::Shipper(None),
    )];
    ship(&mut frame);
    let [entry] = frame;
    entry.into_outcome()
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
    /// `company` is the call's pipelining hint (0 for a plain call), and
    /// `linger` the longest a frame waits for the company it expects. `ship`
    /// is invoked (on the leader's thread, with no batcher lock held) with
    /// the full frame once the flush policy fires; it must settle every
    /// entry's slot.
    pub fn submit(
        &self,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
        company: u32,
        linger: Duration,
        ship: &dyn Fn(&mut [PendingEntry]),
    ) -> Result<Message, DoorError> {
        let wire_len = wire.bytes.len();
        let mut state = lock(&self.state);
        state.forming_bytes += wire_len;
        state.expected = state.expected.max(company);

        if state.leader_present {
            // A follower waits from another thread than the one that ships
            // its entry, so the two share a slot.
            let slot = take_slot();
            let waiter = Waiter::Parked(slot.clone());
            state
                .forming
                .push(PendingEntry::new(export, wire, fresh, waiter));
            // The leader may now have enough calls to flush.
            self.arrivals.notify_all();
            drop(state);
            let outcome = slot.wait_take();
            retire(slot);
            return outcome;
        }
        state.forming.push(PendingEntry::new(
            export,
            wire,
            fresh,
            Waiter::Shipper(None),
        ));

        // Leader: linger (bounded) for pipelined company, then ship. The
        // linger clock is read only once the frame actually has something
        // to wait for, so a plain synchronous call never reads it.
        state.leader_present = true;
        let mut started = None;
        while !Self::should_flush(&state) {
            let started = *started.get_or_insert_with(Instant::now);
            let remaining = linger.saturating_sub(started.elapsed());
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

        // Our own entry is back in our hands with its outcome in it.
        // Every other caller wakes, even off a path `ship` missed.
        let mine = frame.swap_remove(0);
        for entry in &frame {
            if let Waiter::Parked(slot) = &entry.waiter {
                slot.abort_if_unsettled();
            }
        }
        frame.clear();
        recycle(&SPARE_FRAMES, frame);
        mine.into_outcome()
    }

    /// The flush conditions that need no clock.
    fn should_flush(state: &BatchState) -> bool {
        let queued = state.forming.len();
        queued >= MAX_CALLS
            || state.forming_bytes >= MAX_BYTES
            // Everyone the calls aboard said was coming is aboard (and a
            // plain synchronous call, expecting nobody, flushes at once).
            || queued >= state.expected as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Network};

    /// Far above the tests' runtime: a frame flushes because everyone
    /// expected is aboard, never because time passed.
    const ROOMY: Duration = Duration::from_secs(30);

    /// A network server to settle on behalf of (kept alive by its network).
    fn sender() -> (Arc<Network>, Arc<NetServer>) {
        let net = Network::new(NetConfig::default());
        let node = net.add_node("n");
        let server = net.inner.server(node.id().raw()).unwrap();
        (net, server)
    }

    fn wire(bytes: &[u8]) -> WireMessage {
        WireMessage {
            bytes: bytes.to_vec(),
            ..WireMessage::default()
        }
    }

    fn echoed(entry: &PendingEntry) -> ReplyOutcome {
        ReplyOutcome::Ok(wire(&entry.wire.bytes))
    }

    fn pooled_slots() -> usize {
        SLOT_POOL.with_borrow(Vec::len)
    }

    fn is_abort(outcome: Result<Message, DoorError>) -> bool {
        matches!(outcome, Err(DoorError::Comm(why)) if why == "batch frame aborted")
    }

    /// A caller that ships its own entry — a plain call through the
    /// batcher, a one-way call around it — finds its outcome in the entry:
    /// the first one settled, an abort if none was, and no slot either way.
    #[test]
    fn a_shipping_caller_reads_its_outcome_from_its_entry() {
        let (_net, from) = sender();
        let batcher = LinkBatcher::default();
        let lost = || ReplyOutcome::Failed(DoorError::Comm("lost".into()));
        // Each shipper sees one-entry frames only.
        let echo = |frame: &mut [PendingEntry]| frame[0].settle(&from, echoed(&frame[0]));
        let echo_then_lose = |frame: &mut [PendingEntry]| {
            echo(frame);
            frame[0].settle(&from, lost());
        };
        let lose_then_echo = |frame: &mut [PendingEntry]| {
            frame[0].settle(&from, lost());
            echo(frame);
        };
        let forget = |_: &mut [PendingEntry]| {};
        let plain = |ship: &dyn Fn(&mut [PendingEntry])| {
            batcher.submit(7, wire(b"plain"), Vec::new(), 0, ROOMY, ship)
        };
        let one_way =
            |ship: &dyn Fn(&mut [PendingEntry])| ship_alone(7, wire(b"one-way"), Vec::new(), ship);

        // On a thread of its own, whose slot pool starts empty: a slot
        // taken for any of these calls would have been recycled into it.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(plain(&echo).unwrap().bytes, b"plain");
                assert_eq!(one_way(&echo).unwrap().bytes, b"one-way");
                assert_eq!(plain(&echo_then_lose).unwrap().bytes, b"plain");
                assert_eq!(one_way(&echo_then_lose).unwrap().bytes, b"one-way");
                let is_lost =
                    |outcome| matches!(outcome, Err(DoorError::Comm(why)) if why == "lost");
                assert!(is_lost(plain(&lose_then_echo)));
                assert!(is_lost(one_way(&lose_then_echo)));
                assert!(is_abort(plain(&forget)));
                assert!(is_abort(one_way(&forget)));
                assert_eq!(pooled_slots(), 0);
            });
        });
    }

    /// A frame of three: the leader reads its outcome from its entry, the
    /// two followers wake from their slots, each with its own reply — and
    /// with an abort when the shipper skipped them.
    #[test]
    fn followers_wake_from_their_slots_and_the_leader_from_its_entry() {
        let (_net, from) = sender();
        for skip_followers in [false, true] {
            let batcher = LinkBatcher::default();
            let ship = |frame: &mut [PendingEntry]| {
                assert_eq!(frame.len(), 3);
                let served = if skip_followers { 1 } else { 3 };
                for entry in frame.iter_mut().take(served) {
                    let reply = echoed(entry);
                    entry.settle(&from, reply);
                }
            };
            let call = |tag: u8| batcher.submit(7, wire(&[tag]), Vec::new(), 3, ROOMY, &ship);
            std::thread::scope(|s| {
                let leader = s.spawn(|| (call(0), pooled_slots()));
                // The leader's entry is aboard, at index 0, before anyone
                // else's: the followers start once it is seen waiting.
                while !lock(&batcher.state).leader_present {
                    std::thread::yield_now();
                }
                let followers = [1, 2].map(|tag| s.spawn(move || call(tag)));

                let (led, slots_on_leader) = leader.join().unwrap();
                assert_eq!(led.unwrap().bytes, [0]);
                assert_eq!(slots_on_leader, 0);
                for (tag, follower) in [1, 2].into_iter().zip(followers) {
                    let outcome = follower.join().unwrap();
                    if skip_followers {
                        assert!(is_abort(outcome));
                    } else {
                        assert_eq!(outcome.unwrap().bytes, [tag]);
                    }
                }
            });
        }
    }
}
