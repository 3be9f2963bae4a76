//! Per-link call batching: coalescing concurrent forwarded calls into one
//! wire frame.
//!
//! Every (source node, destination node) pair owns a [`LinkBatcher`].
//! Pipelined callers hand it their wire-form call and block until a reply
//! (or error) comes back for it. The first caller to find the queue empty
//! becomes the *leader* for the frame now forming: it waits — bounded by
//! the flush policy below — for more calls to join, then takes the whole
//! queue and ships it as one frame; its own outcome is written into its
//! entry, which it reads when the shipper returns. Followers park on a [`CallSlot`].
//!
//! Leadership is per *frame*, not per link: while a leader is off shipping
//! its frame (sleeping out the simulated latency, executing the batch's
//! calls), the next arrival finds an empty queue and starts forming the
//! next frame concurrently. A link therefore carries as many concurrent
//! frames as it has concurrent callers: batching only ever *merges* calls
//! that overlap anyway.
//!
//! The flush policy is driven by the pipelining hint each call carries
//! ([`spring_kernel::CallCtx::company`]): a frame keeps coalescing only
//! while the calls aboard number fewer than the largest company any of
//! them reported, and the size/count/linger budgets still have room. Only
//! calls that report company come here: forwarding sends a plain
//! synchronous call (company 0) and a one-way call alone ([`ship_alone`]),
//! so the batcher is invisible to non-pipelined traffic — on this link and
//! on every other.
//!
//! Every decision is the I/O-free core's (`batch/core.rs`, DESIGN.md
//! §5.12); this module is its shell: the lock, the condvar, the clock and
//! the followers' slots.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spring_kernel::{CallId, DoorError, Message};
use spring_trace::TraceCtx;

use crate::server::{NetServer, Served, WireMessage};
use crate::transport::ReplyOutcome;

mod core;

use self::core::{land, settle, Cell, Forming};

/// One call riding in a frame: the export it targets, the export-table
/// entries freshly pinned for it, where it is on its way — request, staged
/// reply, outcome — and, for a follower, the slot its caller is parked on.
pub(crate) struct PendingEntry {
    /// Export-table index of the target door on the destination node.
    pub export: u64,
    /// Export ids freshly pinned by `to_wire_tracked` for this request;
    /// released if the call is never delivered.
    fresh: Vec<u64>,
    stage: Stage,
    /// A follower's rendezvous: its caller waits on another thread than
    /// the one that ships its entry, so its outcome goes here. `None` when
    /// the caller is the thread shipping the frame (a frame's leader, a
    /// call shipped alone), which reads it from `stage`.
    slot: Option<Arc<CallSlot>>,
}

// Moved by value into and out of every frame; DESIGN.md §5.2 audits it. The
// three stages share one place, so the entry is its largest stage plus
// three words.
const _: () = assert!(size_of::<PendingEntry>() <= 160);

/// Where a call is on its way, in the one place it lives.
enum Stage {
    /// The request in wire form. A shipper that serves the call in this
    /// process takes it for delivery, leaving an empty one.
    Request(WireMessage),
    /// What the destination made of the call, staged between execution and
    /// the reply frame.
    Served(Served),
    /// What a shipping caller reads; the first outcome settled wins.
    Settled(Result<Message, DoorError>),
}

/// A request with nothing in it: what a taken or settled entry shows.
static NO_REQUEST: WireMessage = WireMessage {
    bytes: Vec::new(),
    caps: Vec::new(),
    trace: TraceCtx::NONE,
    call: CallId::NONE,
};

impl Cell for Stage {
    type Outcome = Result<Message, DoorError>;

    fn is_settled(&self) -> bool {
        matches!(self, Stage::Settled(_))
    }

    fn write(&mut self, outcome: Self::Outcome) {
        *self = Stage::Settled(outcome);
    }
}

impl PendingEntry {
    fn new(
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
        slot: Option<Arc<CallSlot>>,
    ) -> PendingEntry {
        PendingEntry {
            export,
            fresh,
            stage: Stage::Request(wire),
            slot,
        }
    }

    /// An entry whose caller is the thread holding it, as a frame's leader
    /// is: the codec's tests build frames of these.
    #[cfg(test)]
    pub(crate) fn shipped_by_caller(export: u64, wire: WireMessage) -> PendingEntry {
        PendingEntry::new(export, wire, Vec::new(), None)
    }

    /// The request aboard: empty once it was taken for serving.
    pub fn request(&self) -> &WireMessage {
        match &self.stage {
            Stage::Request(wire) => wire,
            _ => &NO_REQUEST,
        }
    }

    /// The request's payload, taken once it is on the wire (empty if it
    /// was taken before).
    pub fn take_payload(&mut self) -> Vec<u8> {
        match &mut self.stage {
            Stage::Request(wire) => std::mem::take(&mut wire.bytes),
            _ => Vec::new(),
        }
    }

    /// Serves the request aboard with `serve` and stages what it made of
    /// the call; `None`, and nothing served, if there is no request left.
    pub fn serve(&mut self, serve: impl FnOnce(u64, WireMessage) -> Served) -> Option<&Served> {
        let Stage::Request(wire) = &mut self.stage else {
            return None;
        };
        let wire = std::mem::take(wire);
        self.stage = Stage::Served(serve(self.export, wire));
        match &self.stage {
            Stage::Served(served) => Some(served),
            _ => None,
        }
    }

    /// Takes the call's staged reply, if it was served.
    pub fn take_served(&mut self) -> Option<Served> {
        if !matches!(self.stage, Stage::Served(_)) {
            return None;
        }
        match std::mem::replace(&mut self.stage, Stage::Request(WireMessage::default())) {
            Stage::Served(served) => Some(served),
            _ => None,
        }
    }

    /// The outcome of an entry back in its shipping caller's hands; an
    /// abort if the shipper settled nothing, and for a follower's entry.
    fn into_outcome(self) -> Result<Message, DoorError> {
        match self.stage {
            Stage::Settled(outcome) => outcome,
            _ => Err(aborted()),
        }
    }

    /// Settles the call with what came back for it, on behalf of `from`,
    /// the network server that sent it (DESIGN.md §5.19): first write wins,
    /// pins included.
    pub fn settle(&mut self, from: &Arc<NetServer>, outcome: ReplyOutcome) {
        let fresh = &self.fresh;
        let release = || from.unexport(fresh);
        let outcome = || land(outcome, |wire| from.from_wire(wire), release);
        write(&mut self.stage, &self.slot, outcome);
    }

    /// Settles the call with an abort unless it was settled before.
    fn abort(&mut self) {
        write(&mut self.stage, &self.slot, || Err(aborted()));
    }
}

/// Writes a call's outcome where its caller reads it — the entry's `stage`
/// for a shipping caller, a follower's `slot` — unless it was settled
/// before.
fn write(
    stage: &mut Stage,
    slot: &Option<Arc<CallSlot>>,
    outcome: impl FnOnce() -> Result<Message, DoorError>,
) {
    match slot {
        None => _ = settle(stage, outcome),
        Some(slot) => slot.settle(outcome),
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
#[derive(Default)]
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

impl CallSlot {
    /// Settles the slot with `outcome()` unless it was settled before, and
    /// wakes its caller if it is asleep.
    fn settle(&self, outcome: impl FnOnce() -> Result<Message, DoorError>) {
        let mut state = lock(&self.state);
        if settle(&mut state.outcome, outcome) && state.parked {
            self.cv.notify_one();
        }
    }
}

fn aborted() -> DoorError {
    DoorError::Comm("batch frame aborted".into())
}

/// A follower's wait for the outcome its slot is settled with.
fn wait_take(slot: &CallSlot) -> Result<Message, DoorError> {
    let mut state = lock(&slot.state);
    loop {
        if let Some(outcome) = state.outcome.take() {
            state.parked = false;
            return outcome;
        }
        state.parked = true;
        state = slot.cv.wait(state).unwrap_or_else(|p| p.into_inner());
    }
}

/// Locks state whose every update is a counter bump or a list push/pop,
/// valid at every step, so a poisoned guard is recovered as is.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Ships one call as a frame of its own, built on the caller's stack: the
/// way of a call that reported no company — a plain call, and a one-way
/// call, which has no reply to wait for. `ship` must settle the entry.
pub(crate) fn ship_alone(
    export: u64,
    wire: WireMessage,
    fresh: Vec<u64>,
    ship: impl FnOnce(&mut [PendingEntry]),
) -> Result<Message, DoorError> {
    let mut frame = [PendingEntry::new(export, wire, fresh, None)];
    ship(&mut frame);
    let [entry] = frame;
    entry.into_outcome()
}

/// The batcher for one (source, destination) link.
#[derive(Default)]
pub(crate) struct LinkBatcher {
    state: Mutex<Forming<PendingEntry>>,
    /// Wakes the leader: new arrivals notify here.
    arrivals: Condvar,
}

impl LinkBatcher {
    /// Queues one wire-form call and blocks until its outcome arrives.
    ///
    /// `company` is the call's pipelining hint, at least 1 (a plain call
    /// ships alone), and `linger` the longest a frame waits for the company
    /// it expects. `ship` is invoked (on the leader's thread, with no
    /// batcher lock held) with the full frame once the flush policy fires;
    /// it must settle every entry's slot.
    pub fn submit(
        &self,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
        company: u32,
        linger: Duration,
        ship: &dyn Fn(&mut [PendingEntry]),
    ) -> Result<Message, DoorError> {
        let mut state = lock(&self.state);
        let mut slot = None;
        state.arrive(wire.bytes.len(), company, |leads| {
            // A follower waits from another thread than the one that ships
            // its entry, so the two share a slot.
            let parked = (!leads).then(|| slot.insert(Arc::<CallSlot>::default()).clone());
            PendingEntry::new(export, wire, fresh, parked)
        });
        if let Some(slot) = slot {
            // The leader may now have enough calls to flush.
            self.arrivals.notify_all();
            drop(state);
            return wait_take(&slot);
        }

        // Leader: linger (bounded) for pipelined company, then ship. The
        // linger clock is read only once the frame actually has something
        // to wait for, so a leader expecting no one never reads it.
        let mut deadline = None;
        while !state.should_flush(deadline.is_some_and(|d| Instant::now() >= d)) {
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + linger);
            let remaining = deadline.saturating_duration_since(Instant::now());
            let woken = self.arrivals.wait_timeout(state, remaining);
            state = woken.unwrap_or_else(|p| p.into_inner()).0;
        }
        let mut frame = state.take();
        drop(state);

        ship(&mut frame);

        // Our own entry is back in our hands with its outcome in it.
        // Every other caller wakes, even off a path `ship` missed.
        let mine = frame.swap_remove(0);
        for entry in &mut frame {
            entry.abort();
        }
        mine.into_outcome()
    }
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Network};
    use spring_kernel::CallCtx;
    use std::time::Instant;

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
        ReplyOutcome::Ok(wire(&entry.request().bytes))
    }

    /// `ship`, once it has checked that the caller shipping the frame put
    /// no slot in its own entry, the frame's first.
    fn slotless(ship: impl Fn(&mut [PendingEntry])) -> impl Fn(&mut [PendingEntry]) {
        move |frame| {
            assert!(
                frame[0].slot.is_none(),
                "the shipper's own entry has a slot"
            );
            ship(frame)
        }
    }

    fn is_abort(outcome: Result<Message, DoorError>) -> bool {
        matches!(outcome, Err(DoorError::Comm(why)) if why == "batch frame aborted")
    }

    /// A caller that ships its own entry — a frame's leader, a call shipped
    /// alone — finds its outcome in the entry: the first one settled, an
    /// abort if none was, and no slot either way.
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
        // A leader expecting no one but itself ships at once.
        let led = |ship: &dyn Fn(&mut [PendingEntry])| {
            batcher.submit(7, wire(b"led"), Vec::new(), 1, ROOMY, &slotless(ship))
        };
        let alone = |ship: &dyn Fn(&mut [PendingEntry])| {
            ship_alone(7, wire(b"alone"), Vec::new(), slotless(ship))
        };

        assert_eq!(led(&echo).unwrap().bytes, b"led");
        assert_eq!(alone(&echo).unwrap().bytes, b"alone");
        assert_eq!(led(&echo_then_lose).unwrap().bytes, b"led");
        assert_eq!(alone(&echo_then_lose).unwrap().bytes, b"alone");
        let is_lost = |outcome| matches!(outcome, Err(DoorError::Comm(why)) if why == "lost");
        assert!(is_lost(led(&lose_then_echo)));
        assert!(is_lost(alone(&lose_then_echo)));
        assert!(is_abort(led(&forget)));
        assert!(is_abort(alone(&forget)));
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
                assert!(frame[1..].iter().all(|follower| follower.slot.is_some()));
                let served = if skip_followers { 1 } else { 3 };
                for entry in frame.iter_mut().take(served) {
                    let reply = echoed(entry);
                    entry.settle(&from, reply);
                }
            };
            let ship = slotless(ship);
            let call = |tag: u8| batcher.submit(7, wire(&[tag]), Vec::new(), 3, ROOMY, &ship);
            std::thread::scope(|s| {
                let leader = s.spawn(|| call(0));
                // The leader's entry is aboard, at index 0, before anyone
                // else's: the followers start once it is seen waiting.
                while lock(&batcher.state).calls.is_empty() {
                    std::thread::yield_now();
                }
                let followers = [1, 2].map(|tag| s.spawn(move || call(tag)));

                assert_eq!(leader.join().unwrap().unwrap().bytes, [0]);
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

    /// A plain call (company 0) on a link where a pipelined frame is
    /// forming leaves at once, alone: it never boards, so it neither waits
    /// out the frame's linger nor counts toward the company the frame
    /// waits for. The frame flushes once that company is aboard.
    #[test]
    fn a_plain_call_leaves_beside_a_forming_frame() {
        let net = Network::new(NetConfig {
            // Far above the test's runtime: nothing here flushes on time.
            batch_linger: ROOMY,
            ..NetConfig::default()
        });
        let (a, b) = (net.add_node("a"), net.add_node("b"));
        let server = b.kernel().create_domain("server");
        let client = a.kernel().create_domain("client");
        let echo = |_: &CallCtx, msg: Message| Ok(msg);
        let shipped = Message {
            doors: vec![server.create_door(Arc::new(echo)).unwrap()],
            ..Message::default()
        };
        let proxy = net.ship_message(&server, &client, shipped).unwrap().doors[0];
        let batcher = net.inner.link(a.id().raw(), b.id().raw());
        // Waits until `calls` calls are aboard the forming frame.
        let aboard = |calls: usize| {
            let deadline = Instant::now() + ROOMY;
            while lock(&batcher.state).calls.len() < calls {
                assert!(Instant::now() < deadline, "call {calls} never boarded");
                std::thread::yield_now();
            }
        };

        let before = net.stats();
        std::thread::scope(|s| {
            // The leader expects two calls of its own, itself included.
            let leader = s.spawn(|| client.call_in_company(proxy, Message::from_bytes(vec![1]), 2));
            aboard(1);

            // The plain call returns while the frame is still forming.
            let plain = s.spawn(|| client.call(proxy, Message::from_bytes(vec![2])));
            let deadline = Instant::now() + Duration::from_secs(5);
            while !plain.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let left_alone = plain.is_finished();
            let forming = lock(&batcher.state);
            let (held, ready) = (forming.calls.len(), forming.should_flush(false));
            drop(forming);
            let meanwhile = net.stats().since(&before);

            // The leader's second call completes the company it reported
            // (and, were the plain call aboard, lets it out).
            let second = client.call_in_company(proxy, Message::from_bytes(vec![3]), 1);
            assert_eq!(second.unwrap().bytes, [3]);
            assert_eq!(leader.join().unwrap().unwrap().bytes, [1]);
            assert_eq!(plain.join().unwrap().unwrap().bytes, [2]);

            assert!(left_alone, "a plain call waited for a forming frame");
            assert_eq!(
                (held, ready),
                (1, false),
                "the frame holds its leader alone"
            );
            assert_eq!(
                (meanwhile.batch_flushes, meanwhile.calls_unbatched),
                (1, 1),
                "the plain call travels in a frame of its own",
            );
        });
        let framed = net.stats().since(&before);
        assert_eq!(
            (
                framed.batch_flushes,
                framed.calls_batched,
                framed.calls_unbatched
            ),
            (2, 2, 1),
        );
    }
}
