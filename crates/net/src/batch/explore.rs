//! The link batcher's model for the workspace explorer (`spring-explore`).
//!
//! A [`World`] is a few callers on one link, modelled on the shell in
//! `batch.rs`: the frame forming on the link is a real [`Forming`], every
//! call's outcome cell is written with the core's [`settle`] and [`land`],
//! and what the shell does around them — a leader waiting on the condvar
//! and its linger deadline passing, a shipper settling calls and returning
//! to run the backstop, a follower waking on its slot — is an [`Ev`]. The
//! explorer runs every interleaving of those events and checks DESIGN.md
//! §5.12's four batcher invariants after every step. Every caller reports
//! company: a plain call never reaches the batcher.

use spring_explore::Model;

use super::core::{land, settle, Forming};
use crate::transport::ReplyOutcome;

/// Why a call read no reply.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(super) enum Lost {
    NotDelivered,
    Failed,
    /// The batcher's backstop: nobody settled the call.
    Aborted,
}

/// What a caller reads: its own id as the reply, or why not.
type Read = Result<u8, Lost>;

/// What a shipper settles a call with.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(super) enum Fate {
    Ok,
    NotDelivered,
    Failed,
}

/// One step of the world. Numbers are callers, or frame and call indices.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(super) enum Ev {
    /// An idle caller calls: it boards the forming frame, and a leader
    /// that need not wait takes the frame at once.
    Arrive(u8),
    /// A waiting leader's linger deadline passes.
    Linger(u8),
    /// A waiting leader, woken, finds its frame ready and takes it.
    Flush(u8),
    /// A frame's shipper settles one of its calls.
    Settle(u8, u8, Fate),
    /// A frame's shipper returns to its leader: the backstop runs and the
    /// leader reads its own outcome.
    Return(u8),
    /// A follower whose call is settled wakes and reads it.
    Wake(u8),
}

#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum Caller {
    Idle,
    /// Leads the forming frame, waiting on the condvar.
    Leading {
        lingered: bool,
    },
    /// Follows; its call is in the forming frame or a shipped one.
    Parked,
    /// Leads a shipped frame while its shipper runs.
    Shipping,
}

#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
struct Entry {
    caller: u8,
    /// The cell the shell keeps in the entry (a leader's) or the slot (a
    /// follower's).
    cell: Option<Read>,
    /// The model's own record of the first write, the shipper's or the
    /// backstop's.
    first: Option<Read>,
    /// The shipper settled it. It settles each call at most once, as the
    /// transport contract requires: the backstop is the second writer.
    shipped: bool,
    /// Its caller has read it.
    read: bool,
    /// Times its fresh pins were released.
    released: u8,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct Frame {
    leader: u8,
    calls: Vec<Entry>,
    returned: bool,
}

/// What the explorer runs: each caller's company, how many calls each
/// makes one after the other, and how deep.
#[derive(Clone, Copy, Debug)]
pub(super) struct Scenario {
    pub name: &'static str,
    pub companies: &'static [u32],
    pub calls: u8,
    pub depth: usize,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(super) struct World {
    companies: &'static [u32],
    forming: Forming<Entry>,
    /// The callers aboard the forming frame, in the order they arrived.
    boarded: Vec<u8>,
    /// Shipped frames someone is still to come back from.
    frames: Vec<Frame>,
    callers: Vec<Caller>,
    /// Calls each caller has still to make.
    left: Vec<u8>,
}

fn fail<T>(n: u8, why: String) -> Result<T, String> {
    Err(format!("invariant {n}: {why}"))
}

impl World {
    fn new(scn: &Scenario) -> World {
        World {
            companies: scn.companies,
            forming: Forming::default(),
            boarded: Vec::new(),
            frames: Vec::new(),
            callers: vec![Caller::Idle; scn.companies.len()],
            left: vec![scn.calls; scn.companies.len()],
        }
    }

    /// The frame and index of caller `c`'s shipped, unread call.
    fn shipped(&self, c: u8) -> Option<(usize, usize)> {
        self.frames.iter().enumerate().find_map(|(f, frame)| {
            let i = frame.calls.iter().position(|e| e.caller == c && !e.read)?;
            Some((f, i))
        })
    }

    fn leading(&self, c: u8) -> usize {
        self.frames
            .iter()
            .position(|f| f.leader == c && !f.returned)
            .expect("a shipping leader has a frame out")
    }

    /// The leader `c` takes the frame, which must hold every call boarded
    /// since the last take, in arrival order, its own first.
    fn take(&mut self, c: u8) -> Result<(), String> {
        let calls = self.forming.take(Vec::new());
        let order: Vec<u8> = calls.iter().map(|e| e.caller).collect();
        if order != self.boarded || order.first() != Some(&c) {
            let why = format!("leader {c} took {order:?}, boarded {:?}", self.boarded);
            return fail(2, why);
        }
        self.boarded.clear();
        self.callers[c as usize] = Caller::Shipping;
        self.frames.push(Frame {
            leader: c,
            calls,
            returned: false,
        });
        Ok(())
    }

    /// Caller `c` reads `read` from its call at `(f, i)`: it must be the
    /// call's first write.
    fn read(&mut self, c: u8, (f, i): (usize, usize), read: Read) -> Result<(), String> {
        let entry = &mut self.frames[f].calls[i];
        if Some(read) != entry.first {
            let why = format!("caller {c} read {read:?}, first settled {:?}", entry.first);
            return fail(1, why);
        }
        entry.read = true;
        self.callers[c as usize] = Caller::Idle;
        // A frame everyone is back from is forgotten.
        self.frames
            .retain(|frame| !(frame.returned && frame.calls.iter().all(|e| e.read)));
        Ok(())
    }
}

impl Model for World {
    type Event = Ev;

    fn events(&self) -> Vec<Ev> {
        let mut evs = Vec::new();
        for (i, caller) in self.callers.iter().enumerate() {
            let c = i as u8;
            match *caller {
                Caller::Idle if self.left[i] > 0 => evs.push(Ev::Arrive(c)),
                Caller::Leading { lingered } => {
                    if !lingered {
                        evs.push(Ev::Linger(c));
                    }
                    if self.forming.should_flush(lingered) {
                        evs.push(Ev::Flush(c));
                    }
                }
                Caller::Shipping => evs.push(Ev::Return(c)),
                Caller::Parked => {
                    let settled = self.shipped(c);
                    if settled.is_some_and(|(f, i)| self.frames[f].calls[i].cell.is_some()) {
                        evs.push(Ev::Wake(c));
                    }
                }
                Caller::Idle => {}
            }
        }
        for (f, frame) in self.frames.iter().enumerate() {
            if frame.returned {
                continue;
            }
            for (i, entry) in frame.calls.iter().enumerate() {
                if !entry.shipped {
                    let settle = |fate| Ev::Settle(f as u8, i as u8, fate);
                    evs.extend([Fate::Ok, Fate::NotDelivered, Fate::Failed].map(settle));
                }
            }
        }
        evs
    }

    fn apply(&mut self, ev: Ev) -> Result<(), String> {
        match ev {
            Ev::Arrive(c) => {
                self.left[c as usize] -= 1;
                let entry = Entry {
                    caller: c,
                    ..Entry::default()
                };
                let company = self.companies[c as usize];
                let leads = self.forming.arrive(1, company, |_| entry);
                self.boarded.push(c);
                self.callers[c as usize] = if !leads {
                    Caller::Parked
                } else if self.forming.should_flush(false) {
                    // Still under the lock it boarded under.
                    return self.take(c);
                } else {
                    Caller::Leading { lingered: false }
                };
            }
            Ev::Linger(c) => self.callers[c as usize] = Caller::Leading { lingered: true },
            Ev::Flush(c) => self.take(c)?,
            Ev::Settle(f, i, fate) => {
                let entry = &mut self.frames[f as usize].calls[i as usize];
                let outcome = match fate {
                    Fate::Ok => ReplyOutcome::Ok(entry.caller),
                    Fate::NotDelivered => ReplyOutcome::NotDelivered(Lost::NotDelivered),
                    Fate::Failed => ReplyOutcome::Failed(Lost::Failed),
                };
                let released = &mut entry.released;
                let read = || land(outcome, Ok, || *released += 1);
                settle(&mut entry.cell, read);
                entry.shipped = true;
                let recorded = match fate {
                    Fate::Ok => Ok(entry.caller),
                    Fate::NotDelivered => Err(Lost::NotDelivered),
                    Fate::Failed => Err(Lost::Failed),
                };
                entry.first.get_or_insert(recorded);
            }
            Ev::Return(c) => {
                let f = self.leading(c);
                let frame = &mut self.frames[f];
                frame.returned = true;
                // The backstop, for every caller but the leader, which reads
                // its own entry: an abort if nothing settled it.
                for entry in frame.calls.iter_mut().skip(1) {
                    settle(&mut entry.cell, || Err(Lost::Aborted));
                }
                for entry in frame.calls.iter_mut() {
                    entry.first.get_or_insert(Err(Lost::Aborted));
                }
                let read = frame.calls[0].cell.take().unwrap_or(Err(Lost::Aborted));
                self.read(c, (f, 0), read)?;
            }
            Ev::Wake(c) => {
                let at = self.shipped(c).expect("a woken follower's call shipped");
                let read = self.frames[at.0].calls[at.1].cell.take();
                self.read(c, at, read.expect("enabled once settled"))?;
            }
        }
        Ok(())
    }

    fn check(&self, _prev: &World, _ev: Ev) -> Result<(), String> {
        let entries = self.frames.iter().flat_map(|f| &f.calls);
        for e in entries.chain(&self.forming.calls) {
            // 1: a written cell keeps its first write until it is read.
            if !e.read && e.cell.is_some() && e.cell != e.first {
                let why = format!("caller {}'s call holds {:?}", e.caller, e.cell);
                return fail(1, format!("{why}, first settled {:?}", e.first));
            }
            // 3: the pins go exactly when the call never reached its door.
            let undelivered = e.first == Some(Err(Lost::NotDelivered));
            if e.released > 1 || (e.released == 1) != undelivered {
                let why = format!("caller {}'s pins released {} times", e.caller, e.released);
                return fail(3, format!("{why}, first settled {:?}", e.first));
            }
        }
        for (i, caller) in self.callers.iter().enumerate() {
            // 6: no follower sleeps once its frame is back, and a leader
            // whose linger passed ships.
            let stuck = match caller {
                Caller::Parked => self.shipped(i as u8).is_some_and(|(f, at)| {
                    self.frames[f].returned && self.frames[f].calls[at].cell.is_none()
                }),
                Caller::Leading { lingered } => *lingered && !self.forming.should_flush(true),
                _ => false,
            };
            if stuck {
                return fail(6, format!("caller {i} is left waiting"));
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
    use spring_explore::{deep, run};

    /// A pipelined call expecting one more and two that expect no one
    /// else, twice each: leaders and followers in every order, a frame
    /// that waits and frames that flush at once, frames overlapping their
    /// successors.
    const PIPELINED: Scenario = Scenario {
        name: "pipelined",
        companies: &[2, 1, 1],
        calls: 2,
        depth: deep(30),
    };

    #[test]
    fn every_interleaving_of_pipelined_callers_holds() {
        run(&PIPELINED);
    }
}
