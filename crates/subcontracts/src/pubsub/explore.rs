//! The pub/sub link queue's model for the workspace explorer
//! (`spring-explore`).
//!
//! A [`World`] is one destination link of a topic, modelled on the shell
//! in `pubsub.rs`: the link's state is a real [`GroupState`], driven
//! through the very methods `publish`, the subscribe and unsubscribe
//! handlers and the link worker call under its mutex (`admit`, `next`,
//! `close_if_empty`), and each receiver reads its frames with the same gap
//! rule, [`arrival`]. What the shell does around them — a publish waiting
//! on the condvar until its backpressure deadline, subscribers coming and
//! going, the worker's send arriving or failing — is an [`Ev`]. The
//! explorer runs every interleaving of those events to a bounded depth and
//! checks DESIGN.md §5.16's five proof obligations after every step.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::result::Result;

use spring_buf::CommBuffer;
use spring_explore::Model;
use spring_kernel::{CallCtx, Kernel};

use super::*;

/// One step of the world. Numbers are subscribers.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(super) enum Ev {
    /// The next datum is published to the link (publishes are serialized
    /// by the publish lock, so one at a time).
    Publish,
    /// A publish waiting at the bound is woken and looks again.
    Woken,
    /// A waiting publish's backpressure deadline passes.
    Deadline,
    /// A subscriber attaches, under the publish lock.
    Subscribe(u8),
    /// A subscriber detaches.
    Unsubscribe(u8),
    /// The idle link worker takes its next work.
    Pop,
    /// The worker's frame (or eviction notice) reaches the receivers.
    Send,
    /// The worker's frame is lost on the wire.
    SendFail,
}

/// What the worker is doing.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum Worker {
    Idle,
    /// Sending frame `seq` to these `(nonce, baseline)`s.
    Sending(u64, Vec<(u64, u64)>),
    /// Sending eviction notices.
    Noting,
    Exited,
}

/// One subscriber as its receiving hub sees it.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
struct Receiver {
    subscribed: bool,
    left: bool,
    baseline: u64,
    /// The highest sequence accounted for.
    last: u64,
    /// What it accounted for, in order: a delivery `(s, s)` or a reported
    /// loss `(from, to)`.
    seen: Vec<(u64, u64)>,
}

/// What the explorer runs: each subscriber's mode, the queue bound, how
/// many publishes, and how deep.
#[derive(Clone, Copy, Debug)]
pub(super) struct Scenario {
    pub name: &'static str,
    pub modes: &'static [DeliveryMode],
    pub bound: usize,
    pub publishes: u8,
    pub depth: usize,
}

#[derive(Clone)]
pub(super) struct World {
    group: GroupState,
    modes: &'static [DeliveryMode],
    bound: usize,
    publishes: u8,
    next_seq: u64,
    /// A publish waiting at the link with its frame.
    waiting: Option<Arc<Frame>>,
    worker: Worker,
    receivers: Vec<Receiver>,
}

impl Hash for World {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let g = &self.group;
        let mut subs: Vec<_> = (g.link.subs.iter())
            .map(|(n, s)| (*n, s.baseline, s.mode as u8))
            .collect();
        subs.sort_unstable();
        let pending: Vec<u64> = g.pending.iter().map(|f| f.seq).collect();
        let mut notes: Vec<u64> = g.evict_notes.iter().map(|(n, _)| *n).collect();
        notes.sort_unstable();
        (subs, pending, notes, g.closed).hash(h);
        (
            self.publishes,
            self.next_seq,
            self.waiting.as_ref().map(|f| f.seq),
        )
            .hash(h);
        (&self.worker, &self.receivers).hash(h);
    }
}

fn fail<T>(n: u8, why: String) -> Result<T, String> {
    Err(format!("invariant {n}: {why}"))
}

fn nonce(n: u8) -> u64 {
    n as u64 + 1
}

/// A link with nobody behind it yet: its door is real (a `Link` is opened
/// from a request that carries one), and outlives its kernel as a number.
fn empty_group() -> GroupState {
    let kernel = Kernel::new("model");
    let domain = kernel.create_domain("hub");
    let echo = |_: &CallCtx, msg: Message| Ok(msg);
    let door = domain.create_door(Arc::new(echo)).unwrap();
    let mut args = CommBuffer::new();
    args.put_u64(0);
    args.put_door(domain.copy_door(door).unwrap());
    let req = callback::read_request(&domain, &mut args, "model").unwrap();
    let entry = SubEntry {
        baseline: 0,
        mode: DeliveryMode::BestEffort,
    };
    let mut link = Link::open(req, entry);
    link.subs.clear();
    GroupState {
        link,
        pending: VecDeque::new(),
        evict_notes: Vec::new(),
        closed: false,
    }
}

impl World {
    fn new(scn: &Scenario) -> World {
        World {
            group: empty_group(),
            modes: scn.modes,
            bound: scn.bound,
            publishes: scn.publishes,
            next_seq: 1,
            waiting: None,
            worker: Worker::Idle,
            receivers: vec![Receiver::default(); scn.modes.len()],
        }
    }

    /// A publish's turn at the link, as `TopicHub::publish` takes it.
    fn admit(&mut self, frame: Arc<Frame>, expired: bool) {
        let done = self.group.admit(&frame, self.bound, expired).is_some();
        self.waiting = (!done).then_some(frame);
    }

    /// How many pending frames subscriber `n` is owed, counted one by one.
    fn owed(&self, n: u64) -> usize {
        let baseline = self.group.link.subs[&n].baseline;
        self.group
            .pending
            .iter()
            .filter(|f| f.seq > baseline)
            .count()
    }
}

impl Model for World {
    type Event = Ev;

    fn events(&self) -> Vec<Ev> {
        let mut evs = Vec::new();
        if self.waiting.is_some() {
            evs.extend([Ev::Woken, Ev::Deadline]);
        } else {
            if self.publishes > 0 {
                evs.push(Ev::Publish);
            }
            for (n, r) in self.receivers.iter().enumerate() {
                if !r.subscribed && !self.group.closed {
                    evs.push(Ev::Subscribe(n as u8));
                }
            }
        }
        for (n, r) in self.receivers.iter().enumerate() {
            if r.subscribed && !r.left {
                evs.push(Ev::Unsubscribe(n as u8));
            }
        }
        match self.worker {
            Worker::Idle if self.group.clone().next().is_some() => evs.push(Ev::Pop),
            Worker::Sending(..) => evs.extend([Ev::Send, Ev::SendFail]),
            Worker::Noting => evs.push(Ev::Send),
            _ => {}
        }
        evs
    }

    fn apply(&mut self, ev: Ev) -> Result<(), String> {
        match ev {
            Ev::Publish => {
                self.publishes -= 1;
                let frame = Arc::new(Frame {
                    seq: self.next_seq,
                    stamp_us: 0,
                    data: Arc::from(&[][..]),
                });
                self.next_seq += 1;
                self.admit(frame, false);
            }
            Ev::Woken => self.admit(self.waiting.clone().unwrap(), false),
            Ev::Deadline => {
                self.admit(self.waiting.clone().unwrap(), true);
                if self.waiting.is_some() {
                    return Err("a publish past its deadline still waits".into());
                }
            }
            Ev::Subscribe(n) => {
                let baseline = self.next_seq - 1;
                let mode = self.modes[n as usize];
                let entry = SubEntry { baseline, mode };
                self.group.link.subs.insert(nonce(n), entry);
                let r = &mut self.receivers[n as usize];
                (r.subscribed, r.baseline, r.last) = (true, baseline, baseline);
            }
            Ev::Unsubscribe(n) => {
                self.receivers[n as usize].left = true;
                if self.group.link.subs.remove(&nonce(n)).is_some() {
                    self.group.close_if_empty();
                }
            }
            Ev::Pop => {
                // Sorted: the group's subscribers are a hash map, and one
                // state must hash one way whatever order they come out in.
                self.worker = match self.group.next().expect("enabled with work to do") {
                    Work::Frame(frame, mut subs, _) => {
                        subs.sort_unstable();
                        Worker::Sending(frame.seq, subs)
                    }
                    Work::Evicts(_) => Worker::Noting,
                    Work::Exit => Worker::Exited,
                }
            }
            Ev::Send => {
                // Eviction notices ask nothing of the model's receivers.
                let sent = std::mem::replace(&mut self.worker, Worker::Idle);
                let Worker::Sending(seq, subs) = sent else {
                    return Ok(());
                };
                for (n, baseline) in subs {
                    let mode = self.modes[n as usize - 1];
                    let r = &mut self.receivers[n as usize - 1];
                    if r.baseline != baseline {
                        return Err(format!("frame {seq} names the wrong baseline"));
                    }
                    let Some(lost) = arrival(r.last, seq) else {
                        continue;
                    };
                    r.last = seq;
                    if let Some(range) = lost.filter(|_| mode == DeliveryMode::Monitored) {
                        r.seen.push(range);
                    }
                    r.seen.push((seq, seq));
                }
            }
            Ev::SendFail => self.worker = Worker::Idle,
        }
        Ok(())
    }

    fn check(&self, prev: &World, ev: Ev) -> Result<(), String> {
        // 1: for each monitored subscriber, what it was delivered and what
        // it was told it lost tile the sequences above its baseline.
        for (n, r) in self.receivers.iter().enumerate() {
            let mut next = r.baseline + 1;
            for &(from, to) in &r.seen {
                let monitored = self.modes[n] == DeliveryMode::Monitored;
                if (monitored && from != next) || from < next || to < from {
                    let why = format!("subscriber {n} above {} saw {:?}", r.baseline, r.seen);
                    return fail(1, why);
                }
                next = to + 1;
            }
            if next != r.last + 1 {
                return fail(
                    1,
                    format!("subscriber {n} saw {:?} up to {}", r.seen, r.last),
                );
            }
        }
        // 2: the queue never outgrows the bound.
        if self.group.pending.len() > self.bound {
            let why = format!(
                "{} frames queued, bound {}",
                self.group.pending.len(),
                self.bound
            );
            return fail(2, why);
        }
        // 3: a publish evicts nobody but at its deadline, and then exactly
        // those owed the bound (counted one pending frame at a time).
        if matches!(ev, Ev::Publish | Ev::Woken | Ev::Deadline) {
            let gone = |n: &&u64| !self.group.link.subs.contains_key(n);
            let mut evicted: Vec<u64> = prev.group.link.subs.keys().filter(gone).copied().collect();
            evicted.sort_unstable();
            let at_bound = !prev.group.closed && prev.group.pending.len() >= self.bound;
            let mut owed: Vec<u64> = (prev.group.link.subs.keys())
                .filter(|n| ev == Ev::Deadline && at_bound && prev.owed(**n) >= self.bound)
                .copied()
                .collect();
            owed.sort_unstable();
            if evicted != owed {
                return fail(
                    3,
                    format!("{ev:?} evicted {evicted:?}, owed the bound {owed:?}"),
                );
            }
        }
        // 4: a publish queues at most one frame per link.
        let seqs: Vec<u64> = self.group.pending.iter().map(|f| f.seq).collect();
        if seqs.windows(2).any(|w| w[0] >= w[1]) {
            return fail(4, format!("the link queues {seqs:?}"));
        }
        // 5: no frame ships addressed to nobody.
        if let Worker::Sending(seq, subs) = &self.worker {
            if subs.is_empty() {
                return fail(5, format!("frame {seq} ships to nobody"));
            }
        }
        Ok(())
    }
}

impl spring_explore::Scenario for Scenario {
    type Model = World;

    fn name(&self) -> &'static str {
        self.name
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn start(&self) -> World {
        World::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_explore::{deep, replay, run};

    use DeliveryMode::{BestEffort, Monitored};

    /// Two monitored subscribers and a best-effort one on a link with room
    /// for two frames, four publishes: backpressure, eviction at the
    /// deadline, losses, joins and departures racing the worker.
    const LAGGING: Scenario = Scenario {
        name: "lagging",
        modes: &[Monitored, Monitored, BestEffort],
        bound: 2,
        publishes: 4,
        depth: deep(21),
    };

    /// A monitored and a best-effort subscriber and room for one frame:
    /// every second publish meets a full queue.
    const TIGHT: Scenario = Scenario {
        name: "tight",
        modes: &[Monitored, BestEffort],
        bound: 1,
        publishes: 5,
        depth: deep(24),
    };

    #[test]
    fn every_interleaving_of_a_lagging_link_holds() {
        run(&LAGGING);
    }

    #[test]
    fn every_interleaving_of_a_link_with_room_for_one_frame_holds() {
        run(&TIGHT);
    }

    #[test]
    fn a_subscribe_while_the_worker_sends_is_owed_only_what_follows() {
        use Ev::*;
        let w = replay(
            &LAGGING,
            &[Subscribe(0), Publish, Pop, Subscribe(1), Publish, Send],
        );
        assert_eq!(w.receivers[1].baseline, 1, "it joined after frame 1");
        let w = replay(
            &LAGGING,
            &[Subscribe(0), Publish, Pop, Subscribe(1), Publish, Send, Pop],
        );
        let Worker::Sending(2, mut subs) = w.worker else {
            panic!("{:?}", w.worker);
        };
        subs.sort_unstable();
        assert_eq!(subs, [(1, 0), (2, 1)], "frame 2 is owed to both");
        assert!(w.receivers[1].seen.is_empty());
    }

    /// The gap rule's edges: a duplicate, a frame from before the
    /// baseline, the next frame, and a gap of exactly one frame.
    #[test]
    fn the_gap_rule_at_its_edges() {
        assert_eq!(arrival(5, 5), None, "a duplicate");
        assert_eq!(arrival(5, 3), None, "a frame from before the baseline");
        assert_eq!(arrival(5, 6), Some(None), "the next frame");
        assert_eq!(arrival(5, 7), Some(Some((6, 6))), "a gap of exactly one");
    }

    /// With a bound of zero no subscriber may be owed even the frame being
    /// published: past the deadline, everyone owed anything is evicted,
    /// and the frame is queued for nobody.
    #[test]
    fn a_bound_of_zero_evicts_everyone_owed_anything() {
        let mut group = empty_group();
        for (nonce, baseline) in [(1, 0), (2, 1)] {
            let mode = BestEffort;
            group.link.subs.insert(nonce, SubEntry { baseline, mode });
        }
        let frame = |seq| {
            let data: Arc<[u8]> = Arc::from(&[][..]);
            Arc::new(Frame {
                seq,
                stamp_us: 0,
                data,
            })
        };
        group.pending.extend([frame(1), frame(2)]);
        assert_eq!(group.admit(&frame(3), 0, false), None, "it waits first");
        assert_eq!(group.admit(&frame(3), 0, true), Some(2));
        assert!(group.link.subs.is_empty() && group.pending.is_empty());
        let mut noted: Vec<u64> = group.evict_notes.iter().map(|n| n.0).collect();
        noted.sort_unstable();
        assert_eq!(noted, [1, 2]);
    }
}
