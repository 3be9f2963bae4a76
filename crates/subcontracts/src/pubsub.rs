//! The *pub/sub* subcontract: topic fan-out with per-link frame coalescing.
//!
//! The paper's thesis is that new communication disciplines should be
//! buildable *as subcontracts*, without touching the base system (§5, §8).
//! This module applies that to publish/subscribe: a topic is an ordinary
//! Spring object (bindable in the name service like anything else), and the
//! entire fan-out protocol — subscription, sequencing, delivery, loss
//! accounting, slow-subscriber eviction — lives in the subcontract's control
//! region and its door handlers.
//!
//! Three design points, each built on an existing mechanism in this repo
//! and composed:
//!
//! * **Per-link coalescing** (the callback channel, `callback.rs`,
//!   which the caching subcontract's broadcast runs over too): subscribers
//!   are grouped by the kernel *token* of their callback door. All
//!   subscriptions made through one [`SubscriberHub`] share one callback
//!   door, so all of a process's subscribers to a topic land in one group
//!   and one publish becomes **one delivery frame per destination link**,
//!   carrying the payload once plus the `(nonce, baseline)` of every
//!   subscriber it addresses — never one frame per subscriber.
//! * **Fire-and-forget delivery** (from the stream subcontract): delivery
//!   frames are sequence-numbered datagrams. `Comm` failures mean the frame
//!   is gone; the hub records a failed [`pubsub.drop`] span and moves on.
//!   [`DeliveryMode::BestEffort`] subscribers simply never see the frame;
//!   [`DeliveryMode::Monitored`] subscribers detect the sequence gap on the
//!   next arrival and get exactly one [`Subscriber::lost`] callback for it.
//! * **Slow-subscriber policy** (the §8.4 concern made explicit): each
//!   link has one pending queue, and a subscriber is owed the frames in it
//!   numbered above its subscribe-time baseline. A publish that finds a
//!   subscriber owed [`TopicConfig::queue_bound`] frames waits up to
//!   [`TopicConfig::backpressure`] for the link worker to drain them, then
//!   *evicts* the subscriber — the eviction is delivered as a callback-door
//!   notification, the way the coherent cache delivers invalidations, so
//!   the subscriber application learns it was dropped.
//!
//! [`pubsub.drop`]: spring_trace::keys::PUBSUB_DROP

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::callid::now_micros;
use spring_kernel::{Domain, DoorError, DoorId, Message};
use spring_trace::keys;
use subcontract::{
    client, export_door, Call, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId,
    ServerCtx, SpringError, SpringObj, TypeInfo, OBJECT_TYPE,
};

use crate::callback::{self, Inbox, Link};

/// Control-region kind: an ordinary request/reply operation.
const KIND_CALL: u8 = 0;
/// Control-region kind: publish one datum to the topic.
const KIND_PUBLISH: u8 = 1;
/// Control-region kind: attach a subscriber — the delivery mode, then a
/// callback-channel request (nonce + callback door).
const KIND_SUBSCRIBE: u8 = 2;
/// Control-region kind: detach a subscriber — a callback-channel request,
/// whose door's kernel token scopes the removal to the caller's own link
/// group (nonces collide across subscriber hubs).
const KIND_UNSUBSCRIBE: u8 = 3;

/// Delivery-frame tag: a published datum addressed to a list of
/// `(nonce, baseline)` pairs — the baseline rides along so the receiver
/// can account for gaps even when a delivery beats the subscribe reply.
const NOTE_DELIVER: u8 = 1;
/// Delivery-frame tag: eviction notices (nonce + reason pairs).
const NOTE_EVICT: u8 = 2;

/// Sentinel for "no sequence baseline yet" in subscriber-side tracking.
/// (0 is meaningful: it is the baseline of a topic nothing was published
/// to, so losing the very first frames still surfaces as a gap.)
const SEQ_UNSET: u64 = u64::MAX;

/// Consecutive `Comm` delivery failures after which a destination link is
/// written off and all its subscribers dropped. Deliberately generous: frames are
/// fire-and-forget over a possibly lossy wire, so a run of drops must mean
/// a dead link, not bad luck — at 30% per-hop loss a call fails ~half the
/// time, and a run of 32 is a once-in-10^9 event.
const MAX_DELIVERY_FAILURES: u32 = 32;

/// How a subscriber wants loss surfaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Lost frames vanish silently; the application tolerates gaps.
    BestEffort = 0,
    /// Lost frames surface as exactly one [`Subscriber::lost`] callback per
    /// contiguous gap, detected from the per-topic sequence numbers.
    Monitored = 1,
}

impl DeliveryMode {
    fn from_wire(b: u8) -> Result<DeliveryMode> {
        match b {
            0 => Ok(DeliveryMode::BestEffort),
            1 => Ok(DeliveryMode::Monitored),
            other => Err(SpringError::Remote(format!("bad delivery mode {other}"))),
        }
    }
}

/// What happened to one publish, as seen by the publisher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The hub accepted the datum and stamped it with this sequence number.
    Accepted(u64),
    /// The network lost the publish (or its reply) on the way to the hub;
    /// best-effort semantics, not an error.
    Dropped,
}

/// Receives topic events on the subscriber side. Callbacks for one
/// subscription are serialized (one link worker delivers per group).
pub trait Subscriber: Send + Sync {
    /// One published datum, in sequence order.
    fn deliver(&self, seq: u64, data: &[u8]);
    /// A contiguous gap `[from_seq, to_seq]` was lost (monitored mode only;
    /// called exactly once per gap, before the delivery that revealed it).
    fn lost(&self, from_seq: u64, to_seq: u64) {
        let _ = (from_seq, to_seq);
    }
    /// The hub evicted this subscription (slow consumer or topic removal).
    /// No further callbacks will arrive.
    fn evicted(&self, reason: &str) {
        let _ = reason;
    }
}

/// Tuning knobs for one topic hub.
#[derive(Clone, Copy, Debug)]
pub struct TopicConfig {
    /// How many pending frames a subscriber may be owed; beyond it the
    /// slow-subscriber policy kicks in.
    pub queue_bound: usize,
    /// How long a publish waits for a subscriber at the bound to be drained
    /// before evicting it.
    pub backpressure: Duration,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            queue_bound: 64,
            backpressure: Duration::from_millis(10),
        }
    }
}

/// Hub-side counters.
#[derive(Debug, Default)]
pub struct PubSubStats {
    published: AtomicU64,
    frames_sent: AtomicU64,
    frames_oneway: AtomicU64,
    frames_dropped: AtomicU64,
    subscribes: AtomicU64,
    unsubscribes: AtomicU64,
    evictions: AtomicU64,
    reaped: AtomicU64,
    links_pruned: AtomicU64,
}

impl PubSubStats {
    /// Publishes accepted and stamped.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
    /// Delivery frames that reached their destination link.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }
    /// Delivery frames that crossed the wire one-way (no reply frame):
    /// every addressed subscriber was best-effort and no lazy ack was due.
    /// Always `<=` [`frames_sent`](Self::frames_sent); zero when the
    /// transport ignores the one-way hint or a link carries any monitored
    /// subscriber.
    pub fn frames_oneway(&self) -> u64 {
        self.frames_oneway.load(Ordering::Relaxed)
    }
    /// Delivery frames lost on the wire (each one is a gap for every
    /// subscriber it addressed).
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.load(Ordering::Relaxed)
    }
    /// Subscriptions accepted.
    pub fn subscribes(&self) -> u64 {
        self.subscribes.load(Ordering::Relaxed)
    }
    /// Explicit unsubscribes processed.
    pub fn unsubscribes(&self) -> u64 {
        self.unsubscribes.load(Ordering::Relaxed)
    }
    /// Subscribers evicted by the slow-subscriber policy or topic teardown.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
    /// Subscribers reaped because the receiving hub no longer knew their
    /// nonce (stale registrations reported back in delivery replies).
    pub fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }
    /// Destination links written off after repeated delivery failures.
    pub fn links_pruned(&self) -> u64 {
        self.links_pruned.load(Ordering::Relaxed)
    }
}

/// One frame queued for delivery. The payload is shared across every link
/// — publish copies the datum exactly once.
struct Frame {
    seq: u64,
    stamp_us: u64,
    data: Arc<[u8]>,
}

/// One subscriber's hub-side state.
#[derive(Clone)]
struct SubEntry {
    /// The last sequence published before this subscription attached (read
    /// under the publish lock at subscribe time), so the subscriber is owed
    /// exactly its link's pending frames numbered above it. It also rides
    /// in every delivery frame addressed to this subscriber, so the
    /// receiving side can install it even when the first delivery beats the
    /// subscribe reply back — gap accounting must not depend on that
    /// ordering.
    baseline: u64,
    /// How this subscriber wants loss surfaced. Monitored subscribers also
    /// pin their link's delivery frames to the two-way path: one-way frames
    /// have no reply to carry the stale-nonce list promptly, and a gap
    /// report owed to *any* subscriber means the link cannot go silent.
    mode: DeliveryMode,
}

/// Mutable state of one destination link's group, guarded by a std mutex so
/// the link worker can block on the condvar. Its methods make every
/// decision `publish` and the link worker take under that mutex, and take
/// no lock, read no clock and touch no door themselves: the model in
/// `pubsub/explore.rs` calls them as the shell does.
#[derive(Clone)]
struct GroupState {
    /// The callback door reaching this link and the subscribers behind it.
    link: Link<SubEntry>,
    /// Frames published to this link and not yet taken by its worker, in
    /// sequence order: the one queue every subscriber behind it draws on.
    pending: VecDeque<Arc<Frame>>,
    /// Eviction notices awaiting delivery; these ride a separate lane so an
    /// eviction can always be enqueued even when the link is at its bound.
    evict_notes: Vec<(u64, String)>,
    closed: bool,
}

/// All subscribers reachable through one callback door (= one destination
/// link). A dedicated worker thread drains it: one `NOTE_DELIVER` frame per
/// sequence number per link, regardless of how many subscribers it
/// addresses.
struct LinkGroup {
    token: u64,
    state: StdMutex<GroupState>,
    cv: Condvar,
}

impl GroupState {
    /// Closes the group when nothing (subscribers or pending notices)
    /// remains.
    fn close_if_empty(&mut self) {
        if self.link.subs.is_empty() && self.evict_notes.is_empty() {
            self.closed = true;
        }
    }

    /// The subscribers owed `bound` pending frames or more (the queue holds
    /// at least `bound`). A subscriber is owed every pending frame numbered
    /// above its baseline, so these are the ones whose baseline lies below
    /// the `bound`-th newest frame.
    fn owed_the_bound(&self, bound: usize) -> Vec<u64> {
        let cutoff = self.pending.get(self.pending.len() - bound);
        let cutoff = cutoff.map_or(u64::MAX, |f| f.seq);
        let owed = self.link.subs.iter().filter(|(_, s)| s.baseline < cutoff);
        owed.map(|(n, _)| *n).collect()
    }

    /// Drops the frames at the head of the queue that no subscriber is owed
    /// (their subscribers left), so the queue never outgrows the bound.
    fn trim(&mut self) {
        let floor = self.link.subs.values().map(|s| s.baseline).min();
        let floor = floor.unwrap_or(u64::MAX);
        while self.pending.front().is_some_and(|f| f.seq <= floor) {
            self.pending.pop_front();
        }
    }

    /// A publish's turn at this link with `frame`: `None` while the link's
    /// queue is at `bound` and the subscribers owed that many may still be
    /// drained before the backpressure deadline (`expired`, an input: the
    /// shell owns the clock). Past it, those subscribers are evicted and
    /// the queue trimmed. Then the frame is queued, unless the link is
    /// closed or nobody behind it is left to owe it to; the answer is how
    /// many subscribers were evicted.
    fn admit(&mut self, frame: &Arc<Frame>, bound: usize, expired: bool) -> Option<usize> {
        let mut evicted = 0;
        if !self.closed && self.pending.len() >= bound {
            let full = self.owed_the_bound(bound);
            if !full.is_empty() && !expired {
                return None;
            }
            evicted = full.len();
            for nonce in full {
                self.link.subs.remove(&nonce);
                let why = "slow subscriber: queue full past backpressure";
                self.evict_notes.push((nonce, why.into()));
            }
            self.trim();
        }
        if !self.closed && !self.link.subs.is_empty() {
            self.pending.push_back(frame.clone());
        }
        Some(evicted)
    }

    /// What the link worker does next, or `None` to wait: deliver the
    /// eviction notices, else ship the oldest pending frame anybody is still
    /// owed (addressed to everyone owed it: those whose baseline lies below
    /// it), else exit once the group is closed. Frames nobody is owed any
    /// more — their subscribers left — are dropped on the way.
    fn next(&mut self) -> Option<Work> {
        if !self.evict_notes.is_empty() {
            let notes = std::mem::take(&mut self.evict_notes);
            self.close_if_empty();
            return Some(Work::Evicts(notes));
        }
        while let Some(frame) = self.pending.pop_front() {
            let (mut subs, mut all_best_effort) = (Vec::new(), true);
            for (nonce, sub) in self
                .link
                .subs
                .iter()
                .filter(|(_, s)| s.baseline < frame.seq)
            {
                subs.push((*nonce, sub.baseline));
                all_best_effort &= sub.mode == DeliveryMode::BestEffort;
            }
            if !subs.is_empty() {
                return Some(Work::Frame(frame, subs, all_best_effort));
            }
        }
        self.closed.then_some(Work::Exit)
    }
}

/// What a subscriber that has accounted for every sequence up to `last`
/// makes of frame `seq`: `None` for a duplicate (or a frame from before
/// what it accounted for), else a delivery, with the range it reveals as
/// lost if `seq` skips any.
fn arrival(last: u64, seq: u64) -> Option<Option<(u64, u64)>> {
    (seq > last).then(|| (seq > last + 1).then(|| (last + 1, seq - 1)))
}

/// What the link worker found to do on one iteration.
enum Work {
    Evicts(Vec<(u64, String)>),
    /// A frame, the `(nonce, baseline)` of every subscriber it addresses,
    /// and whether every one of them is [`DeliveryMode::BestEffort`]: then
    /// the frame may ship one-way (no reply crossing), modulo the lazy-ack
    /// schedule.
    Frame(Arc<Frame>, Vec<(u64, u64)>, bool),
    Exit,
}

/// Every this-many consecutive one-way deliveries, a best-effort link sends
/// one ordinary two-way frame anyway. Its reply carries the stale-nonce
/// list, so subscribers whose receiving hub forgot them are still reaped —
/// lazily, but boundedly — even on a link that never owes a gap report.
const LAZY_ACK_EVERY: u64 = 64;

/// The serving half of a topic: owns the subscriber table and the link
/// workers. Exposed so co-located publishers and the topic registry can
/// drive it without a door crossing.
pub struct TopicHub {
    ctx: Arc<DomainCtx>,
    name: String,
    cfg: TopicConfig,
    /// Serializes sequence stamping with enqueueing (and with subscriber
    /// baseline capture), so every queue sees sequence numbers in order and
    /// a new subscriber's baseline is exact.
    publish_lock: Mutex<()>,
    next_seq: AtomicU64,
    groups: Mutex<HashMap<u64, Arc<LinkGroup>>>,
    stats: Arc<PubSubStats>,
    down: AtomicBool,
}

impl TopicHub {
    fn domain(&self) -> &Domain {
        self.ctx.domain()
    }

    /// The topic's name (as exported; the naming path is the registry's
    /// business).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hub-side counters.
    pub fn stats(&self) -> &Arc<PubSubStats> {
        &self.stats
    }

    /// The sequence number the next publish will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Destination links currently subscribed (diagnostics).
    pub fn link_count(&self) -> usize {
        self.groups.lock().len()
    }

    /// Live subscribers across all links (diagnostics).
    pub fn subscriber_count(&self) -> usize {
        let groups: Vec<Arc<LinkGroup>> = self.groups.lock().values().cloned().collect();
        groups
            .iter()
            .map(|g| g.state.lock().unwrap().link.subs.len())
            .sum()
    }

    /// Publishes one datum locally (no door crossing) and returns its
    /// sequence number. Fails only if the topic has been shut down.
    pub fn publish(&self, data: &[u8]) -> Result<u64> {
        if self.down.load(Ordering::SeqCst) {
            return Err(SpringError::Remote(format!("topic {} closed", self.name)));
        }
        let _publishing = self.publish_lock.lock();
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let frame = Arc::new(Frame {
            seq,
            stamp_us: now_micros(),
            data: Arc::from(data),
        });
        let groups: Vec<Arc<LinkGroup>> = self.groups.lock().values().cloned().collect();
        let mut span = spring_trace::span_start(
            keys::PUBSUB_PUBLISH,
            self.domain().trace_scope(),
            groups.len() as u64,
        );
        // Slow-subscriber policy: a link whose queue is shorter than the
        // bound owes no subscriber that many frames. At the bound, give the
        // subscribers owed it one bounded chance to drain, then evict whoever
        // still is. The deadline is shared across every group — a publish
        // stalls at most one backpressure window total, never one per
        // congested link, so N slow links cannot multiply the head-of-line
        // blocking under `publish_lock`.
        let deadline = Instant::now() + self.cfg.backpressure;
        let evictions = &self.stats.evictions;
        for group in groups {
            let (mut st, mut expired) = (group.state.lock().unwrap(), false);
            let evicted = loop {
                if let Some(evicted) = st.admit(&frame, self.cfg.queue_bound, expired) {
                    break evicted;
                }
                let now = Instant::now();
                expired = now >= deadline;
                if !expired {
                    st = group.cv.wait_timeout(st, deadline - now).unwrap().0;
                }
            };
            evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            group.cv.notify_all();
        }
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        let _ = &mut span;
        Ok(seq)
    }

    /// Tears the topic down: every subscriber is evicted with `reason`
    /// (delivered best-effort over its link), the link workers exit, and
    /// their doors are deleted. Idempotent. Used by the registry when a
    /// topic is removed while remote proxies still pin the hub's door.
    pub fn shutdown(&self, reason: &str) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        let groups: Vec<Arc<LinkGroup>> = self.groups.lock().values().cloned().collect();
        for group in groups {
            let mut st = group.state.lock().unwrap();
            for (nonce, _) in std::mem::take(&mut st.link.subs) {
                st.evict_notes.push((nonce, reason.to_string()));
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            st.closed = true;
            group.cv.notify_all();
        }
    }

    fn handle_publish(&self, call: &mut Call<'_>) -> std::result::Result<(), DoorError> {
        let data = call
            .args
            .get_bytes()
            .map_err(|e| DoorError::Handler(format!("bad publish: {e}")))?;
        let seq = self
            .publish(&data)
            .map_err(|e| DoorError::Handler(e.to_string()))?;
        call.reply.put_u64(seq);
        Ok(())
    }

    fn handle_subscribe(
        self: &Arc<Self>,
        call: &mut Call<'_>,
    ) -> std::result::Result<(), DoorError> {
        // The mode byte is judged only once the carried door is under
        // guard (if it is missing, so is the request behind it).
        let mode = call.args.get_u8();
        let req = callback::read_request(self.domain(), &mut call.args, "subscribe")?;
        let mode = mode
            .map_err(SpringError::from)
            .and_then(DeliveryMode::from_wire)
            .map_err(|e| DoorError::Handler(format!("subscribe: {e}")))?;
        if self.down.load(Ordering::SeqCst) {
            return Err(DoorError::Handler(format!("topic {} closed", self.name)));
        }
        // Baseline capture and group insertion happen with publishing
        // stalled, so "every frame stamped after `cur`" is exactly the set
        // this subscriber is owed (delivery modulo wire loss).
        let _publishing = self.publish_lock.lock();
        let cur = self.next_seq.load(Ordering::SeqCst) - 1;
        let entry = SubEntry {
            baseline: cur,
            mode,
        };
        let mut groups = self.groups.lock();
        let known = groups.get(&req.token).cloned();
        let open = known
            .as_ref()
            .map(|group| group.state.lock().unwrap())
            .filter(|st| !st.closed);
        match open {
            Some(mut st) => st.link.join(req, entry),
            None => {
                // First subscriber over this link — or the link's group is
                // closed: its worker is mid-exit and about to delete its
                // door, so the fresh identifier cannot join it and a new
                // group, built around the carried door, takes its place.
                let group = Arc::new(LinkGroup {
                    token: req.token,
                    state: StdMutex::new(GroupState {
                        link: Link::open(req, entry),
                        pending: VecDeque::new(),
                        evict_notes: Vec::new(),
                        closed: false,
                    }),
                    cv: Condvar::new(),
                });
                groups.insert(group.token, group.clone());
                self.spawn_worker(group);
            }
        }
        drop(groups);
        self.stats.subscribes.fetch_add(1, Ordering::Relaxed);
        call.reply.put_u64(cur);
        Ok(())
    }

    fn handle_unsubscribe(&self, call: &mut Call<'_>) -> std::result::Result<(), DoorError> {
        // The carried door only proves which link group the caller is on;
        // the request's guard deletes it: unsubscribe never pins anything.
        let req = callback::read_request(self.domain(), &mut call.args, "unsubscribe")?;
        let group = self.groups.lock().get(&req.token).cloned();
        if let Some(group) = group {
            let mut st = group.state.lock().unwrap();
            if st.link.subs.remove(&req.nonce).is_some() {
                st.close_if_empty();
                self.stats.unsubscribes.fetch_add(1, Ordering::Relaxed);
                group.cv.notify_all();
            }
        }
        Ok(())
    }

    fn spawn_worker(self: &Arc<Self>, group: Arc<LinkGroup>) {
        let hub = Arc::downgrade(self);
        let domain = self.domain().clone();
        let scope = domain.trace_scope();
        let stats = self.stats.clone();
        let name = format!("pubsub-{}-{:x}", self.name, group.token);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || link_worker(hub, group, domain, scope, stats))
            .expect("spawn pubsub link worker");
    }
}

/// The per-link delivery loop: pops the link's oldest pending frame, ships
/// it as one frame addressing every subscriber owed it (its baseline lies
/// below the frame), and settles the outcome with the link.
fn link_worker(
    hub: Weak<TopicHub>,
    group: Arc<LinkGroup>,
    domain: Domain,
    scope: u64,
    stats: Arc<PubSubStats>,
) {
    let door = group.state.lock().unwrap().link.door;
    // One-way frames delivered since the last two-way (reply-bearing) one;
    // drives the lazy-ack schedule on all-best-effort links.
    let mut since_ack: u64 = 0;
    loop {
        let mut st = group.state.lock().unwrap();
        let work = loop {
            if let Some(work) = st.next() {
                // Space freed: a publisher may be waiting on a subscriber
                // at the bound.
                group.cv.notify_all();
                break work;
            }
            st = group.cv.wait(st).unwrap();
        };
        drop(st);
        match work {
            Work::Exit => break,
            Work::Evicts(notes) => {
                let mut buf = CommBuffer::pooled();
                buf.put_u8(NOTE_EVICT);
                buf.put_u32(notes.len() as u32);
                for (nonce, reason) in &notes {
                    buf.put_u64(*nonce);
                    buf.put_string(reason);
                }
                // Best-effort: an eviction notice lost to the same dead
                // link it is reporting on is fine.
                let _ = domain.call(door, buf.into_message());
            }
            Work::Frame(frame, subs, all_best_effort) => {
                let mut span =
                    spring_trace::span_start(keys::PUBSUB_FANOUT, scope, subs.len() as u64);
                let mut buf = CommBuffer::pooled();
                buf.put_u8(NOTE_DELIVER);
                buf.put_u64(frame.seq);
                buf.put_u64(frame.stamp_us);
                buf.put_bytes(&frame.data);
                callback::put_addresses(&mut buf, subs.iter().copied(), CommBuffer::put_u64);
                // A purely best-effort frame rides the one-way wire path
                // (no reply crossing) — except every LAZY_ACK_EVERY'th
                // frame, which goes two-way so the reply's stale-nonce
                // list still reaps forgotten subscribers. A handler that
                // ignores the request (a co-located subscriber's door)
                // replies anyway, and both outcomes are handled below by
                // looking at the reply itself.
                let one_way = all_best_effort && since_ack + 1 < LAZY_ACK_EVERY;
                let outcome = if one_way {
                    domain.call_one_way(door, buf.into_message())
                } else {
                    domain.call(door, buf.into_message())
                };
                match &outcome {
                    Ok(reply) => {
                        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                        if one_way && reply.bytes.is_empty() {
                            // The elision actually happened (a real
                            // delivery reply always carries at least its
                            // stale-nonce count).
                            stats.frames_oneway.fetch_add(1, Ordering::Relaxed);
                            since_ack += 1;
                        } else {
                            since_ack = 0;
                        }
                    }
                    Err(e) => {
                        span.fail();
                        if matches!(e, DoorError::Comm(_)) {
                            stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                            spring_trace::span_start(keys::PUBSUB_DROP, scope, subs.len() as u64)
                                .fail();
                        }
                    }
                }
                let mut st = group.state.lock().unwrap();
                let settled = st.link.settle(outcome, MAX_DELIVERY_FAILURES);
                if settled.dead {
                    // Wedged (the far side rejected the frame outright) or
                    // lossy past belief: every subscriber is dropped
                    // without notification, since none is deliverable.
                    st.evict_notes.clear();
                    stats
                        .evictions
                        .fetch_add(settled.dropped as u64, Ordering::Relaxed);
                    stats.links_pruned.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats
                        .reaped
                        .fetch_add(settled.dropped as u64, Ordering::Relaxed);
                }
                if settled.dropped > 0 || settled.dead {
                    st.close_if_empty();
                    group.cv.notify_all();
                }
            }
        }
    }
    // Last one out: deregister the group (unless a re-subscribe already
    // replaced it with a fresh group under the same token) and release the
    // hub's copy of the callback door.
    if let Some(hub) = hub.upgrade() {
        let mut groups = hub.groups.lock();
        if groups
            .get(&group.token)
            .is_some_and(|cur| Arc::ptr_eq(cur, &group))
        {
            groups.remove(&group.token);
        }
    }
    let _ = domain.delete_door(door);
}

/// Built-in operations every topic object answers over `KIND_CALL`.
pub const OP_TOPIC_INFO: u32 = subcontract::op_hash("topic.info");

/// Interface of a bare topic object (no application operations).
pub static PUBSUB_TOPIC_TYPE: TypeInfo = TypeInfo {
    name: "pubsub.topic",
    parents: &[&OBJECT_TYPE],
    default_subcontract: PubSub::ID,
};

/// Snapshot returned by [`PubSub::info`].
#[derive(Clone, Debug)]
pub struct TopicInfo {
    /// The hub's topic name.
    pub name: String,
    /// The sequence number the next publish will receive.
    pub next_seq: u64,
    /// Destination links currently attached.
    pub links: u32,
    /// Subscribers currently attached.
    pub subscribers: u32,
}

/// The default dispatcher for topic objects: answers `topic.info`.
struct TopicDispatch {
    hub: Weak<TopicHub>,
}

impl Dispatch for TopicDispatch {
    fn type_info(&self) -> &'static TypeInfo {
        &PUBSUB_TOPIC_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            OP_TOPIC_INFO => {
                let hub = self
                    .hub
                    .upgrade()
                    .ok_or_else(|| SpringError::Remote("topic hub gone".into()))?;
                subcontract::encode_ok(reply);
                reply.put_string(hub.name());
                reply.put_u64(hub.next_seq());
                reply.put_u32(hub.link_count() as u32);
                reply.put_u32(hub.subscriber_count() as u32);
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }

    fn unreferenced(&self) {
        // The last identifier for the topic died (e.g. the naming binding
        // was dropped and no proxies remain): evict everyone and stop.
        if let Some(hub) = self.hub.upgrade() {
            hub.shutdown("topic deleted");
        }
    }
}

/// The pub/sub subcontract (client and server side).
#[derive(Debug, Default)]
pub struct PubSub;

impl PubSub {
    /// The identifier carried in topic objects' marshalled form.
    pub const ID: ScId = ScId::from_name("pubsub");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<PubSub> {
        Arc::new(PubSub)
    }

    /// Exports a new topic: returns the topic object (bind it somewhere)
    /// and the hub for local publishing and teardown.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        name: &str,
        cfg: TopicConfig,
    ) -> Result<(SpringObj, Arc<TopicHub>)> {
        let hub = Arc::new(TopicHub {
            ctx: ctx.clone(),
            name: name.to_owned(),
            cfg,
            publish_lock: Mutex::new(()),
            next_seq: AtomicU64::new(1),
            groups: Mutex::new(HashMap::new()),
            stats: Arc::new(PubSubStats::default()),
            down: AtomicBool::new(false),
        });
        let disp = Arc::new(TopicDispatch {
            hub: Arc::downgrade(&hub),
        });
        // Demultiplexes the topic door: ordinary dispatched calls,
        // publishes, and subscription management.
        let served = hub.clone();
        let control = move |call: &mut Call<'_>, disp: &dyn Dispatch| {
            let kind = call
                .args
                .get_u8()
                .map_err(|e| DoorError::Handler(format!("bad pubsub control: {e}")))?;
            match kind {
                KIND_PUBLISH => served.handle_publish(call),
                KIND_SUBSCRIBE => served.handle_subscribe(call),
                KIND_UNSUBSCRIBE => served.handle_unsubscribe(call),
                KIND_CALL => call.dispatch(disp),
                other => Err(DoorError::Handler(format!(
                    "unknown pubsub packet kind {other}"
                ))),
            }
        };
        let obj = export_door(ctx, "pubsub.serve", Self::ID, disp, control, |_| {
            Ok(|door| DoorRepr::of(door, name.to_owned()))
        })?;
        Ok((obj, hub))
    }

    /// Publishes one datum through a topic object (possibly a proxy).
    /// Best-effort at the transport level: a lost publish returns
    /// [`PublishOutcome::Dropped`], never an error.
    pub fn publish(obj: &SpringObj, data: &[u8]) -> Result<PublishOutcome> {
        let repr = client::repr::<PubSub>(obj)?;
        let mut buf = CommBuffer::pooled();
        buf.put_u8(KIND_PUBLISH);
        buf.put_bytes(data);
        match obj.ctx().domain().call(repr.door, buf.into_message()) {
            Ok(reply) => {
                let mut reply = CommBuffer::from_message(reply);
                Ok(PublishOutcome::Accepted(reply.get_u64()?))
            }
            Err(DoorError::Comm(_)) => Ok(PublishOutcome::Dropped),
            Err(e) => Err(e.into()),
        }
    }

    /// The topic name the object was exported under.
    pub fn topic_name(obj: &SpringObj) -> Result<String> {
        Ok(client::repr::<PubSub>(obj)?.state.clone())
    }

    /// Fetches the hub's current shape over the ordinary call path.
    pub fn info(obj: &SpringObj) -> Result<TopicInfo> {
        let call = obj.start_call(OP_TOPIC_INFO)?;
        let mut reply = obj.invoke(call)?;
        match subcontract::decode_reply_status(&mut reply)? {
            subcontract::ReplyStatus::Ok => Ok(TopicInfo {
                name: reply.get_string()?,
                next_seq: reply.get_u64()?,
                links: reply.get_u32()?,
                subscribers: reply.get_u32()?,
            }),
            subcontract::ReplyStatus::UserException(name) => {
                Err(SpringError::Remote(format!("topic.info raised {name}")))
            }
        }
    }
}

/// Client representation: the topic door, then its name (diagnostics).
impl DoorSubcontract for PubSub {
    const ID: ScId = PubSub::ID;
    const NAME: &'static str = "pubsub";
    type State = String;

    fn preamble(&self, _obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        call.put_u8(KIND_CALL);
        Ok(())
    }

    fn put(&self, topic: &String, buf: &mut CommBuffer) {
        buf.put_string(topic);
    }

    fn get(&self, _ctx: &Arc<DomainCtx>, _door: DoorId, buf: &mut CommBuffer) -> Result<String> {
        Ok(buf.get_string()?)
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, topic: &String) -> Result<String> {
        Ok(topic.clone())
    }
}

// ---------------------------------------------------------------------------
// Subscriber side
// ---------------------------------------------------------------------------

/// One subscription's receiving-side state.
struct SubState {
    sink: Arc<dyn Subscriber>,
    mode: DeliveryMode,
    /// Highest sequence number accounted for ([`SEQ_UNSET`] before the
    /// baseline is known).
    last_seq: AtomicU64,
    delivered: AtomicU64,
    lost_frames: AtomicU64,
    lost_reports: AtomicU64,
    evicted: AtomicBool,
}

/// The receiving half of pub/sub for one domain: owns the inbox whose one
/// callback door all of this hub's subscriptions advertise, which is what
/// makes hub-side per-link coalescing possible.
pub struct SubscriberHub {
    inbox: Arc<Inbox<Arc<SubState>>>,
}

impl SubscriberHub {
    /// Creates the hub (no door yet; it is minted on first subscribe).
    pub fn new(ctx: &Arc<DomainCtx>) -> Arc<SubscriberHub> {
        // Delivery latency is recorded under the callback door's token; a
        // frame can only arrive through the door, so it exists by then.
        let hist = OnceLock::new();
        let inbox = Inbox::new(ctx, move |inbox, msg| {
            let mut args = CommBuffer::from_message(msg);
            let tag = args
                .get_u8()
                .map_err(|e| DoorError::Handler(format!("bad pubsub note: {e}")))?;
            match tag {
                NOTE_DELIVER => {
                    let hist = hist.get_or_init(|| {
                        let token = inbox.token().expect("a frame arrived through the door");
                        spring_trace::histogram(token, keys::PUBSUB_DELIVER)
                    });
                    handle_deliver(inbox, hist, args)
                }
                NOTE_EVICT => handle_evict(inbox, args),
                other => Err(DoorError::Handler(format!("unknown pubsub note {other}"))),
            }
        });
        Arc::new(SubscriberHub { inbox })
    }

    /// The histogram key delivery latency is recorded under (None before
    /// the first subscription).
    pub fn latency_key(&self) -> Option<u64> {
        self.inbox.token()
    }

    /// Publish-to-deliver latency percentiles observed by this hub, if any
    /// deliveries have arrived.
    pub fn delivery_latency(&self) -> Option<spring_trace::HistSnapshot> {
        let key = self.latency_key()?;
        spring_trace::snapshot_of(key, keys::PUBSUB_DELIVER)
    }

    /// Subscribes `sink` to `topic` (a topic object or proxy). The returned
    /// handle unsubscribes on drop.
    pub fn subscribe(
        self: &Arc<Self>,
        topic: &SpringObj,
        mode: DeliveryMode,
        sink: Arc<dyn Subscriber>,
    ) -> Result<Subscription> {
        let repr = client::repr::<PubSub>(topic)?;
        let state = Arc::new(SubState {
            sink,
            mode,
            last_seq: AtomicU64::new(SEQ_UNSET),
            delivered: AtomicU64::new(0),
            lost_frames: AtomicU64::new(0),
            lost_reports: AtomicU64::new(0),
            evicted: AtomicBool::new(false),
        });
        let nonce = self.inbox.insert(state.clone());
        let mut call = CommBuffer::pooled();
        call.put_u8(KIND_SUBSCRIBE);
        call.put_u8(mode as u8);
        let baseline = self
            .inbox
            .request(repr.door, call, nonce)
            .and_then(|mut reply| {
                reply.get_u64().map_err(|e| {
                    // The hub accepted the subscription but the reply is
                    // garbage: tear the half-open subscription down on its
                    // side too, or the entry there lives on with no handle
                    // left to detach it.
                    let _ = self.wire_unsubscribe(repr.door, nonce);
                    e.into()
                })
            });
        let baseline = match baseline {
            Ok(b) => b,
            Err(e) => {
                self.inbox.remove(nonce);
                return Err(e);
            }
        };
        // A delivery racing the reply may already have advanced last_seq;
        // only install the baseline if it has not.
        let _ = state.last_seq.compare_exchange(
            SEQ_UNSET,
            baseline,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        Ok(Subscription {
            hub: self.clone(),
            // The raw door identifier, deliberately NOT a pinning copy: a
            // subscription must not keep a dead topic's door alive (the
            // unbind-orphan class). If the caller drops its topic object
            // before unsubscribing, the detach call simply fails and the
            // hub reaps the stale nonce from a later delivery reply.
            topic_door: repr.door,
            nonce,
            state,
        })
    }

    /// Sends `KIND_UNSUBSCRIBE` for `nonce` through `topic_door`.
    fn wire_unsubscribe(&self, topic_door: DoorId, nonce: u64) -> Result<()> {
        let mut call = CommBuffer::pooled();
        call.put_u8(KIND_UNSUBSCRIBE);
        self.inbox.request(topic_door, call, nonce)?;
        Ok(())
    }

    /// Live subscriptions routed through this hub.
    pub fn active(&self) -> usize {
        self.inbox.len()
    }
}

/// A live subscription. Dropping it unsubscribes (best-effort over the
/// wire, always locally). It does not hold an identifier for the topic:
/// the topic's lifetime belongs to its publisher and its name bindings,
/// and a torn-down topic evicts its subscribers rather than being kept
/// alive by them.
pub struct Subscription {
    hub: Arc<SubscriberHub>,
    topic_door: DoorId,
    nonce: u64,
    state: Arc<SubState>,
}

impl Subscription {
    /// The wire nonce identifying this subscription (diagnostics).
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Frames delivered to the sink.
    pub fn delivered(&self) -> u64 {
        self.state.delivered.load(Ordering::Relaxed)
    }

    /// Total frames covered by `lost` callbacks (monitored mode).
    pub fn lost_frames(&self) -> u64 {
        self.state.lost_frames.load(Ordering::Relaxed)
    }

    /// Number of `lost` callbacks issued (one per contiguous gap).
    pub fn lost_reports(&self) -> u64 {
        self.state.lost_reports.load(Ordering::Relaxed)
    }

    /// Whether the hub evicted this subscription.
    pub fn was_evicted(&self) -> bool {
        self.state.evicted.load(Ordering::SeqCst)
    }

    /// Highest sequence number accounted for (delivered or reported lost);
    /// the subscribe-time baseline before any traffic.
    pub fn last_seq(&self) -> u64 {
        let v = self.state.last_seq.load(Ordering::Acquire);
        if v == SEQ_UNSET {
            0
        } else {
            v
        }
    }

    /// Explicit unsubscribe (equivalent to drop, but reports wire errors).
    /// Requires the caller's topic object to still exist — the subscription
    /// does not pin the topic door itself.
    pub fn unsubscribe(mut self) -> Result<()> {
        self.detach(true)
    }

    fn detach(&mut self, strict: bool) -> Result<()> {
        if self.hub.inbox.remove(self.nonce).is_none() {
            // Already detached (evicted, or unsubscribe ran).
            return Ok(());
        }
        if self.state.evicted.load(Ordering::SeqCst) {
            // The hub already forgot us; nothing to say.
            return Ok(());
        }
        match self.hub.wire_unsubscribe(self.topic_door, self.nonce) {
            Ok(()) => Ok(()),
            Err(e) if strict => Err(e),
            Err(_) => Ok(()),
        }
    }

    /// Test hook: forgets the reply-installed baseline, as if the first
    /// delivery were racing ahead of the subscribe reply. Deliveries
    /// re-install the baseline from the frame itself; this exists so tests
    /// can pin that path deterministically. The race itself cannot be
    /// driven from outside: it is between the hub's link worker and the
    /// reply to the very call that created the worker's first entry, both
    /// inside one `subscribe`, with no point in between where a test could
    /// hold the reply back while letting a delivery through.
    #[doc(hidden)]
    pub fn forget_baseline(&self) {
        self.state.last_seq.store(SEQ_UNSET, Ordering::SeqCst);
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let _ = self.detach(false);
    }
}

/// A delivery frame, behind a hub's callback door.
fn handle_deliver(
    inbox: &Inbox<Arc<SubState>>,
    hist: &spring_trace::Histogram,
    mut args: CommBuffer,
) -> std::result::Result<Message, DoorError> {
    let bad = |e: spring_buf::BufError| DoorError::Handler(format!("bad delivery: {e}"));
    let seq = args.get_u64().map_err(bad)?;
    let stamp_us = args.get_u64().map_err(bad)?;
    let data = args.get_bytes().map_err(bad)?;
    let (hit, reply) = inbox.split(&mut args, CommBuffer::get_u64)?;
    let latency_ns = now_micros().saturating_sub(stamp_us).saturating_mul(1000);
    for (state, baseline) in hit {
        // Install the subscribe-time baseline if the subscribe reply has
        // not done it yet — a delivery can beat the reply back to the
        // subscriber. The hub repeats it in every frame precisely so the
        // gap accounting below never depends on that ordering: after this
        // point last_seq is a real sequence number and "delivered ∪ lost
        // tiles the space above the baseline" holds from the very first
        // frame.
        let _ = state.last_seq.compare_exchange(
            SEQ_UNSET,
            baseline,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        let Some(lost) = arrival(state.last_seq.load(Ordering::Acquire), seq) else {
            continue;
        };
        state.last_seq.store(seq, Ordering::Release);
        if let Some((from, to)) = lost.filter(|_| state.mode == DeliveryMode::Monitored) {
            state.lost_reports.fetch_add(1, Ordering::Relaxed);
            state
                .lost_frames
                .fetch_add(to - from + 1, Ordering::Relaxed);
            state.sink.lost(from, to);
        }
        state.delivered.fetch_add(1, Ordering::Relaxed);
        state.sink.deliver(seq, &data);
        hist.record(latency_ns);
    }
    Ok(reply)
}

/// Eviction notices, behind a hub's callback door.
fn handle_evict(
    inbox: &Inbox<Arc<SubState>>,
    mut args: CommBuffer,
) -> std::result::Result<Message, DoorError> {
    let bad = |e: spring_buf::BufError| DoorError::Handler(format!("bad eviction: {e}"));
    let count = args.get_u32().map_err(bad)?;
    for _ in 0..count {
        let nonce = args.get_u64().map_err(bad)?;
        let reason = args.get_string().map_err(bad)?;
        if let Some(state) = inbox.remove(nonce) {
            state.evicted.store(true, Ordering::SeqCst);
            state.sink.evicted(&reason);
        }
    }
    Ok(Message::new())
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use spring_kernel::{CallCtx, DoorHandler, Kernel};

    struct Nop;
    impl DoorHandler for Nop {
        fn invoke(&self, _cctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
            Ok(msg)
        }
    }

    fn pending_seqs(st: &GroupState) -> Vec<u64> {
        st.pending.iter().map(|f| f.seq).collect()
    }

    #[test]
    fn a_subscriber_is_owed_the_pending_frames_above_its_baseline() {
        let kernel = Kernel::new("t");
        let domain = kernel.create_domain("hub");
        let door = domain.create_door(Arc::new(Nop)).unwrap();
        let request = |nonce: u64| {
            let mut args = CommBuffer::new();
            args.put_u64(nonce);
            args.put_door(domain.copy_door(door).unwrap());
            callback::read_request(&domain, &mut args, "test").unwrap()
        };
        let entry = |baseline| SubEntry {
            baseline,
            mode: DeliveryMode::BestEffort,
        };
        // Subscriber 1 joined before seq 1 and is owed 1..=5; subscriber 2
        // joined after seq 2 and is owed 3..=5.
        let mut link = Link::open(request(1), entry(0));
        link.join(request(2), entry(2));
        let frame = |seq| {
            let data: Arc<[u8]> = Arc::from(&[][..]);
            Arc::new(Frame {
                seq,
                stamp_us: 0,
                data,
            })
        };
        let mut st = GroupState {
            link,
            pending: (1..=5).map(frame).collect(),
            evict_notes: Vec::new(),
            closed: false,
        };
        let owed = |bound| {
            let mut nonces = st.owed_the_bound(bound);
            nonces.sort_unstable();
            nonces
        };
        assert_eq!(owed(5), [1]);
        assert_eq!(owed(4), [1]);
        assert_eq!(owed(3), [1, 2]);
        assert_eq!(owed(0), [1, 2], "with no bound, everyone is past it");

        // Nothing at the head is unowed while subscriber 1 stays.
        st.trim();
        assert_eq!(pending_seqs(&st), [1, 2, 3, 4, 5]);
        // Once it leaves, seqs 1-2 are owed to nobody; with nobody left,
        // nothing is.
        st.link.subs.remove(&1);
        st.trim();
        assert_eq!(pending_seqs(&st), [3, 4, 5]);
        st.link.subs.clear();
        st.trim();
        assert!(st.pending.is_empty());
    }
}
