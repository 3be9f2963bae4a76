//! An exhaustive interleaving explorer for the link core.
//!
//! A [`World`] is two processes joined by one link, modelled on the shell
//! in `socket.rs`: the dialer's generations and the acceptor's links are
//! each a real [`LinkState`] (sockets and their shutdown handles are plain
//! ids), and everything the shell does around a core call — the condvar,
//! the redial lock, a dial's HELLO reaching the acceptor and its echo
//! coming back, a serving thread reading a frame or EOF, a process restart
//! — is an [`Ev`]. A depth-first search runs every interleaving of those
//! events to a bounded depth, remembering the states it has seen (by hash),
//! and checks DESIGN.md §5.15's nine invariants after every step. A
//! violation prints its event path as a unit test that replays it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use super::*;

type Core = LinkState<u8, u8>;

/// One step of the world. Numbers are caller or socket indices.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub(super) enum Ev {
    /// An idle caller starts a call: checkout (a dialer-side caller that
    /// finds its link dead goes for the redial lock instead).
    Call(u8),
    /// A caller woken on the link's condvar asks again.
    Woken(u8),
    /// The reply arrives: checkin.
    Reply(u8),
    /// A write or read fails (or the reply is garbage): the link dies.
    Fail(u8),
    /// The call's deadline expires: its socket alone is closed.
    Deadline(u8),
    /// A shipper waiting for the redial lock takes it.
    TakeRedial(u8),
    /// The redial lock's holder looks again and dials `g + 1` if needed.
    Redial(u8),
    /// A dialled socket's HELLO reaches the acceptor, which judges it.
    Hello(u8),
    /// The acceptor's answer reaches the dialer (or its refusal does).
    Echo(u8),
    /// A dial fails before the acceptor hears of it.
    DialFail(u8),
    /// A spare serving socket reads its first frame.
    FirstFrame(u8),
    /// A serving thread's reply write fails: its peer closed that socket.
    LateReply(u8),
    /// A serving thread reads EOF: its peer's end is gone.
    PeerGone(u8),
    /// The dialer process restarts: a new run counts from 1 again.
    Restart,
}

/// Which link: a dialer generation or an acceptor link, by index.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum At {
    D(usize),
    A(usize),
}

#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum Caller {
    Idle,
    Parked {
        at: At,
        woken: bool,
    },
    /// Its checkout said dial; the socket is in flight.
    Dialing,
    Calling {
        at: At,
        sock: u8,
    },
    AwaitRedial,
    Redialing,
    /// Holds the redial lock while the next generation's first socket is
    /// in flight.
    Opening,
}

/// Who waits on a socket being dialled.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum Opener {
    Caller(u8),
    Spare,
    /// The first socket of a redialled generation, by this caller.
    Open(u8),
    /// The first socket of a (re)started process.
    Connect,
}

#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum Phase {
    Dialing,
    Joined,
    Refused,
    Done,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct Sock {
    /// The generation its HELLO names.
    gen: u64,
    /// The dialer calls on it (else the dialer serves it).
    calls: bool,
    opener: Opener,
    phase: Phase,
    dlink: Option<usize>,
    dkey: Option<u64>,
    alink: Option<usize>,
    akey: Option<u64>,
    /// A dialer-served socket that has carried no frame yet.
    spare: bool,
    /// A request is in flight on it.
    in_call: bool,
    /// A deadline closed its calling end.
    abandoned: bool,
    /// The process that dialled it is gone.
    orphan: bool,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct DLink {
    gen: u64,
    core: Core,
    /// Its process restarted.
    gone: bool,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct ALink {
    gen: u64,
    core: Core,
}

/// What the explorer runs: how many callers on each side, the socket cap,
/// how many dialer restarts, and how deep.
#[derive(Clone, Copy, Debug)]
pub(super) struct Scenario {
    pub name: &'static str,
    pub dialers: u8,
    pub acceptors: u8,
    pub cap: usize,
    pub restarts: u8,
    pub depth: usize,
    /// Invariant 9 without the exception for another run: a generation is
    /// never founded twice, whatever came between.
    pub strict: bool,
}

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(super) struct World {
    cap: usize,
    dialers: u8,
    run: u64,
    restarts: u8,
    dlinks: Vec<DLink>,
    /// The dialer's current generation (its `SocketPeer`'s link).
    peer: Option<usize>,
    /// The caller holding the peer's redial lock.
    redialing: Option<u8>,
    redials: u32,
    alinks: Vec<ALink>,
    /// The link the acceptor holds (and has registered) for the dialer.
    held: Option<usize>,
    socks: Vec<Sock>,
    callers: Vec<Caller>,
    /// Disconnects counted by the dialer's current run and the acceptor.
    disconnects: [u32; 2],
}

fn has(core: &Core, key: Option<u64>) -> bool {
    key.is_some_and(|k| core.handles.iter().any(|(h, _)| *h == k))
}

impl World {
    fn new(scn: &Scenario) -> World {
        let mut w = World {
            cap: scn.cap,
            dialers: scn.dialers,
            run: 0,
            restarts: scn.restarts,
            dlinks: Vec::new(),
            peer: None,
            redialing: None,
            redials: 0,
            alinks: Vec::new(),
            held: None,
            socks: Vec::new(),
            callers: vec![Caller::Idle; (scn.dialers + scn.acceptors) as usize],
            disconnects: [0; 2],
        };
        // Connected: the first socket's HELLO and echo, its spare in flight.
        w.dial(first_generation(0), true, Opener::Connect, None);
        for ev in [Ev::Hello(0), Ev::Echo(0)] {
            w.apply(ev).expect("connecting breaks nothing");
        }
        w
    }

    fn core(&mut self, at: At) -> &mut Core {
        match at {
            At::D(l) => &mut self.dlinks[l].core,
            At::A(l) => &mut self.alinks[l].core,
        }
    }

    fn core_ref(&self, at: At) -> &Core {
        match at {
            At::D(l) => &self.dlinks[l].core,
            At::A(l) => &self.alinks[l].core,
        }
    }

    fn dialer_open(&self, s: &Sock) -> bool {
        s.dlink
            .is_some_and(|l| !self.dlinks[l].gone && has(&self.dlinks[l].core, s.dkey))
    }

    fn acceptor_open(&self, s: &Sock) -> bool {
        s.alink.is_some_and(|l| has(&self.alinks[l].core, s.akey))
    }

    /// Whether the end `at` holds of socket `s` is still open.
    fn end_open(&self, at: At, s: u8) -> bool {
        let s = &self.socks[s as usize];
        match at {
            At::D(_) => self.dialer_open(s),
            At::A(_) => self.acceptor_open(s),
        }
    }

    /// The (serving end open, calling end open) of a socket.
    fn ends(&self, s: &Sock) -> (bool, bool) {
        let (d, a) = (self.dialer_open(s), self.acceptor_open(s));
        if s.calls {
            (a, d)
        } else {
            (d, a)
        }
    }

    fn is_acceptor(&self, c: u8) -> bool {
        c >= self.dialers
    }

    fn dial(&mut self, gen: u64, calls: bool, opener: Opener, dlink: Option<usize>) {
        self.socks.push(Sock {
            gen,
            calls,
            opener,
            phase: Phase::Dialing,
            dlink,
            dkey: None,
            alink: None,
            akey: None,
            spare: false,
            in_call: false,
            abandoned: false,
            orphan: false,
        });
    }

    /// The condvar: `notify_one` wakes one caller blocked on it, if any.
    fn wake(&mut self, at: At, one: bool) {
        if !one {
            return;
        }
        for c in self.callers.iter_mut() {
            if *c == (Caller::Parked { at, woken: false }) {
                *c = Caller::Parked { at, woken: true };
                return;
            }
        }
    }

    fn die(&mut self, at: At) {
        if self.core(at).die().is_some() {
            self.disconnects[matches!(at, At::A(_)) as usize] += 1;
            for c in self.callers.iter_mut() {
                if *c == (Caller::Parked { at, woken: false }) {
                    *c = Caller::Parked { at, woken: true };
                }
            }
        }
    }

    fn spawn_spare(&mut self, l: usize) {
        if self.dlinks[l].core.spare_owed() {
            self.dial(self.dlinks[l].gen, false, Opener::Spare, Some(l));
        }
    }

    fn checkout(&mut self, c: u8, at: At, woken: bool) -> Result<(), String> {
        self.callers[c as usize] = match self.core(at).checkout(woken) {
            Checkout::Idle(sock) => {
                self.socks[sock as usize].in_call = true;
                Caller::Calling { at, sock }
            }
            Checkout::Dial => {
                let At::D(l) = at else {
                    return Err("invariant 5: the accepting side was told to dial".into());
                };
                self.dial(self.dlinks[l].gen, true, Opener::Caller(c), Some(l));
                Caller::Dialing
            }
            Checkout::Wait => Caller::Parked { at, woken: false },
            Checkout::Dead => Caller::Idle,
        };
        Ok(())
    }

    /// A dial that failed, at the dialer.
    fn dial_failed(&mut self, s: u8) {
        let sock = &mut self.socks[s as usize];
        sock.phase = Phase::Done;
        if sock.orphan {
            return;
        }
        let (opener, dlink) = (sock.opener, sock.dlink);
        match (opener, dlink) {
            (Opener::Caller(c), Some(l)) => {
                let wake = self.dlinks[l].core.release(Side::Calling);
                self.wake(At::D(l), wake);
                self.callers[c as usize] = Caller::Idle;
            }
            (Opener::Spare, Some(l)) => {
                let wake = self.dlinks[l].core.release(Side::Serving);
                self.wake(At::D(l), wake);
                self.die(At::D(l));
            }
            (Opener::Open(c), _) => {
                self.redialing = None;
                self.callers[c as usize] = Caller::Idle;
            }
            _ => {}
        }
    }

    /// The enabled events, in a fixed order.
    fn events(&self) -> Vec<Ev> {
        let mut evs = Vec::new();
        for (i, caller) in self.callers.iter().enumerate() {
            let c = i as u8;
            match *caller {
                Caller::Idle => {
                    let can = if self.is_acceptor(c) {
                        self.held.is_some_and(|h| !self.alinks[h].core.dead)
                    } else {
                        self.peer.is_some()
                    };
                    if can {
                        evs.push(Ev::Call(c));
                    }
                }
                Caller::Parked { woken: true, .. } => evs.push(Ev::Woken(c)),
                Caller::Calling { at, sock } => {
                    evs.push(Ev::Fail(c));
                    if self.end_open(at, sock) {
                        evs.push(Ev::Deadline(c));
                        let s = &self.socks[sock as usize];
                        let (serving, _) = self.ends(s);
                        if serving && !(self.is_acceptor(c) && s.spare) {
                            evs.push(Ev::Reply(c));
                        }
                    }
                }
                Caller::AwaitRedial if self.redialing.is_none() => evs.push(Ev::TakeRedial(c)),
                Caller::Redialing => evs.push(Ev::Redial(c)),
                _ => {}
            }
        }
        for (i, s) in self.socks.iter().enumerate() {
            let n = i as u8;
            match s.phase {
                Phase::Dialing => evs.extend([Ev::Hello(n), Ev::DialFail(n)]),
                Phase::Joined | Phase::Refused => evs.push(Ev::Echo(n)),
                Phase::Done => {
                    let (serving, calling) = self.ends(s);
                    let carried = self
                        .callers
                        .iter()
                        .any(|c| matches!(c, Caller::Calling { at: At::A(_), sock } if *sock == n));
                    if !s.calls && s.spare && serving && carried {
                        evs.push(Ev::FirstFrame(n));
                    }
                    // A spare's serving thread is still waiting for its
                    // first frame, not executing one.
                    if serving && !calling {
                        evs.push(if s.in_call && !s.spare {
                            Ev::LateReply(n)
                        } else {
                            Ev::PeerGone(n)
                        });
                    }
                }
            }
        }
        if self.restarts > 0 {
            evs.push(Ev::Restart);
        }
        evs
    }

    fn apply(&mut self, ev: Ev) -> Result<(), String> {
        match ev {
            Ev::Call(c) if self.is_acceptor(c) => {
                let h = self.held.expect("enabled only while a link is held");
                self.checkout(c, At::A(h), false)?;
            }
            Ev::Call(c) => {
                let p = self.peer.expect("enabled only once connected");
                if self.dlinks[p].core.dead {
                    self.callers[c as usize] = if self.redialing.is_none() {
                        self.redialing = Some(c);
                        Caller::Redialing
                    } else {
                        Caller::AwaitRedial
                    };
                } else {
                    self.checkout(c, At::D(p), false)?;
                }
            }
            Ev::Woken(c) => {
                let Caller::Parked { at, .. } = self.callers[c as usize] else {
                    unreachable!()
                };
                self.checkout(c, at, true)?;
            }
            Ev::Reply(c) => {
                let Caller::Calling { at, sock } = self.callers[c as usize] else {
                    unreachable!()
                };
                self.socks[sock as usize].in_call = false;
                let wake = self.core(at).checkin(sock);
                self.wake(at, wake);
                self.callers[c as usize] = Caller::Idle;
            }
            Ev::Fail(c) => {
                let Caller::Calling { at, .. } = self.callers[c as usize] else {
                    unreachable!()
                };
                self.die(at);
                self.callers[c as usize] = Caller::Idle;
            }
            Ev::Deadline(c) => {
                let Caller::Calling { at, sock } = self.callers[c as usize] else {
                    unreachable!()
                };
                let s = &mut self.socks[sock as usize];
                s.abandoned = true;
                let key = match at {
                    At::D(_) => s.dkey,
                    At::A(_) => s.akey,
                };
                let (handle, wake) = self.core(at).close(key.expect("registered"), Side::Calling);
                if handle != Some(sock) {
                    return Err(format!(
                        "invariant 2: closing socket {sock} shut handle {handle:?}"
                    ));
                }
                self.wake(at, wake);
                self.callers[c as usize] = Caller::Idle;
            }
            Ev::TakeRedial(c) => {
                self.redialing = Some(c);
                self.callers[c as usize] = Caller::Redialing;
            }
            Ev::Redial(c) => {
                let p = self.peer.expect("a redial follows a link");
                let (gen, dead) = (self.dlinks[p].gen, self.dlinks[p].core.dead);
                match redial(gen, dead) {
                    None => {
                        self.redialing = None;
                        self.callers[c as usize] = Caller::Idle;
                    }
                    Some(next) => {
                        self.redials += 1;
                        self.dial(next, true, Opener::Open(c), None);
                        self.callers[c as usize] = Caller::Opening;
                    }
                }
            }
            Ev::Hello(s) => self.hello(s),
            Ev::Echo(s) => self.echo(s)?,
            Ev::DialFail(s) => self.dial_failed(s),
            Ev::FirstFrame(s) => {
                let sock = &mut self.socks[s as usize];
                sock.spare = false;
                let l = sock.dlink.expect("a dialer's serving socket");
                self.spawn_spare(l);
            }
            Ev::LateReply(s) => {
                let sock = &mut self.socks[s as usize];
                sock.in_call = false;
                let (at, key) = if sock.calls {
                    (At::A(sock.alink.unwrap()), sock.akey.unwrap())
                } else {
                    (At::D(sock.dlink.unwrap()), sock.dkey.unwrap())
                };
                let (_, wake) = self.core(at).close(key, Side::Serving);
                self.wake(at, wake);
                if let At::D(l) = at {
                    self.spawn_spare(l);
                }
            }
            Ev::PeerGone(s) => {
                let sock = &self.socks[s as usize];
                let at = if sock.calls {
                    At::A(sock.alink.unwrap())
                } else {
                    At::D(sock.dlink.unwrap())
                };
                self.die(at);
            }
            Ev::Restart => self.restart(),
        }
        Ok(())
    }

    /// The acceptor's handshake: judge the HELLO, found or join, admit.
    fn hello(&mut self, s: u8) {
        let gen = self.socks[s as usize].gen;
        let held = self
            .held
            .map(|h| (self.alinks[h].gen, self.alinks[h].core.dead));
        let l = match verdict(held, gen) {
            Verdict::Straggler => {
                self.socks[s as usize].phase = Phase::Refused;
                return;
            }
            Verdict::Join => self.held.expect("a join needs a held link"),
            Verdict::Found | Verdict::Supersede => {
                let l = self.alinks.len();
                self.alinks.push(ALink {
                    gen,
                    core: Core::new(false, self.cap),
                });
                if let Some(old) = self.held.replace(l) {
                    self.die(At::A(old));
                }
                l
            }
        };
        let calls = self.socks[s as usize].calls;
        let side = if calls { Side::Serving } else { Side::Calling };
        let sock = &mut self.socks[s as usize];
        match self.alinks[l].core.admit(side, s) {
            Some(key) => {
                (sock.alink, sock.akey, sock.phase) = (Some(l), Some(key), Phase::Joined);
                if !calls {
                    let wake = self.alinks[l].core.checkin(s);
                    self.wake(At::A(l), wake);
                }
            }
            None => sock.phase = Phase::Refused,
        }
    }

    /// The dialer hears the acceptor's answer.
    fn echo(&mut self, s: u8) -> Result<(), String> {
        let sock = &self.socks[s as usize];
        if sock.orphan || sock.phase == Phase::Refused {
            self.dial_failed(s);
            return Ok(());
        }
        let (gen, opener, dlink) = (sock.gen, sock.opener, sock.dlink);
        self.socks[s as usize].phase = Phase::Done;
        match (opener, dlink) {
            (Opener::Caller(c), Some(l)) => match self.dlinks[l].core.register(Side::Calling, s) {
                Some(key) => {
                    let sock = &mut self.socks[s as usize];
                    (sock.dkey, sock.in_call) = (Some(key), true);
                    self.callers[c as usize] = Caller::Calling {
                        at: At::D(l),
                        sock: s,
                    };
                }
                None => self.callers[c as usize] = Caller::Idle,
            },
            (Opener::Spare, Some(l)) => match self.dlinks[l].core.register(Side::Serving, s) {
                Some(key) => {
                    let sock = &mut self.socks[s as usize];
                    (sock.dkey, sock.spare) = (Some(key), true);
                }
                None => self.die(At::D(l)),
            },
            (Opener::Open(_) | Opener::Connect, _) => {
                if let Some(p) = self.peer.filter(|&p| !self.dlinks[p].core.dead) {
                    return Err(format!(
                        "invariant 8: generation {gen} was dialled while generation {} lives",
                        self.dlinks[p].gen
                    ));
                }
                let l = self.dlinks.len();
                let mut core = Core::new(true, self.cap);
                let key = core.admit(Side::Calling, s).expect("a new link has room");
                let _ = core.checkin(s);
                self.dlinks.push(DLink {
                    gen,
                    core,
                    gone: false,
                });
                let sock = &mut self.socks[s as usize];
                (sock.dlink, sock.dkey) = (Some(l), Some(key));
                self.peer = Some(l);
                self.spawn_spare(l);
                if let Opener::Open(c) = opener {
                    self.redialing = None;
                    self.callers[c as usize] = Caller::Idle;
                }
            }
            _ => unreachable!("a caller's or spare's dial names its link"),
        }
        Ok(())
    }

    /// The dialer process dies and starts again: its links, callers and
    /// counters are gone with it; sockets it was dialling may still reach
    /// the acceptor.
    fn restart(&mut self) {
        self.restarts -= 1;
        for d in self.dlinks.iter_mut() {
            d.gone = true;
        }
        for s in self.socks.iter_mut() {
            s.orphan = true;
            s.dkey = None;
        }
        for c in &mut self.callers[..self.dialers as usize] {
            *c = Caller::Idle;
        }
        (self.peer, self.redialing, self.redials) = (None, None, 0);
        self.disconnects[0] = 0;
        self.run += 1;
        self.dial(first_generation(self.run), true, Opener::Connect, None);
    }

    /// Every link that is not gone with its process.
    fn cores(&self) -> impl Iterator<Item = (At, &Core)> {
        let d = self.dlinks.iter().enumerate();
        let d = d.filter(|(_, l)| !l.gone).map(|(i, l)| (At::D(i), &l.core));
        let a = self.alinks.iter().enumerate();
        d.chain(a.map(|(i, l)| (At::A(i), &l.core)))
    }

    fn check(&self, prev: &World, ev: Ev, strict: bool) -> Result<(), String> {
        let fail = |n: u8, why: String| Err(format!("invariant {n}: {why}"));
        let holder = |s: u8| {
            self.callers
                .iter()
                .position(|c| matches!(c, Caller::Calling { sock, .. } if *sock == s))
        };
        let link_of = |s: &Sock, at: At| match at {
            At::D(l) => s.dlink == Some(l),
            At::A(l) => s.alink == Some(l),
        };
        // 3: a deadline closes its socket and nothing else.
        if let Ev::Deadline(c) = ev {
            let Caller::Calling { at, sock } = prev.callers[c as usize] else {
                unreachable!()
            };
            let (before, after) = (prev.core_ref(at), self.core_ref(at));
            let s = &self.socks[sock as usize];
            let key = match at {
                At::D(_) => s.dkey,
                At::A(_) => s.akey,
            };
            let rest: Vec<_> = before
                .handles
                .iter()
                .filter(|(k, _)| Some(*k) != key)
                .collect();
            let now: Vec<_> = after.handles.iter().collect();
            let same = rest.len() == now.len() && rest.iter().all(|h| now.contains(h));
            if after.dead || !same || self.redials != prev.redials {
                return fail(
                    3,
                    format!("a deadline on {at:?} closed more than socket {sock}"),
                );
            }
        }
        for (at, core) in self.cores() {
            let key_of = |s: u8| {
                let s = &self.socks[s as usize];
                match at {
                    At::D(_) => s.dkey,
                    At::A(_) => s.akey,
                }
            };
            // 1: one socket, one handle; an idle socket is registered and
            // nobody's; a caller's socket is its own.
            for (i, (k, s)) in core.handles.iter().enumerate() {
                let dup = core.handles[..i].iter().any(|(k2, s2)| k2 == k || s2 == s);
                if dup || key_of(*s) != Some(*k) || !link_of(&self.socks[*s as usize], at) {
                    return fail(1, format!("{at:?} handle {k} of socket {s} is not its own"));
                }
            }
            for (i, s) in core.idle.iter().enumerate() {
                if core.idle[..i].contains(s) || !has(core, key_of(*s)) || holder(*s).is_some() {
                    return fail(1, format!("idle socket {s} of {at:?} is not free"));
                }
                if self.socks[*s as usize].abandoned {
                    return fail(2, format!("abandoned socket {s} is idle again"));
                }
            }
            // 4: the cap, the waiter count, and no caller left asleep with
            // something to wake it for.
            if core.open.iter().any(|&n| n > self.cap) {
                return fail(
                    4,
                    format!("{at:?} opened {:?}, cap {}", core.open, self.cap),
                );
            }
            let parked = |w: bool| {
                let c = self.callers.iter();
                c.filter(|c| **c == Caller::Parked { at, woken: w }).count()
            };
            let (asleep, woken) = (parked(false), parked(true));
            if core.waiting != asleep + woken {
                return fail(4, format!("{at:?} counts {} waiting", core.waiting));
            }
            let free = if core.dialer {
                self.cap - core.open[Side::Calling as usize]
            } else {
                0
            };
            if asleep > 0 && (core.dead || core.idle.len() + free > woken) {
                return fail(
                    4,
                    format!("a caller sleeps on {at:?} with a socket to take"),
                );
            }
            // 8: a dead generation holds nothing.
            if core.dead && !(core.handles.is_empty() && core.idle.is_empty()) {
                return fail(8, format!("dead {at:?} still holds sockets"));
            }
        }
        for (c, caller) in self.callers.iter().enumerate() {
            if let Caller::Calling { at, sock } = caller {
                let s = &self.socks[*sock as usize];
                if holder(*sock) != Some(c) || !link_of(s, *at) || s.abandoned {
                    return fail(1, format!("caller {c} does not own socket {sock}"));
                }
            }
        }
        for (i, s) in self.socks.iter().enumerate() {
            // 2: an abandoned socket's calling end never opens again.
            let (_, calling) = self.ends(s);
            if s.abandoned && calling {
                return fail(2, format!("abandoned socket {i} is registered"));
            }
            // 7: an open socket belongs to the registered link of its own
            // generation on each side.
            let a = s.alink.filter(|_| self.acceptor_open(s));
            if a.is_some_and(|l| self.held != Some(l) || self.alinks[l].gen != s.gen) {
                return fail(
                    7,
                    format!("socket {i} is served by a link not registered for it"),
                );
            }
            let d = s.dlink.filter(|_| self.dialer_open(s));
            if d.is_some_and(|l| self.peer != Some(l) || self.dlinks[l].gen != s.gen) {
                return fail(7, format!("socket {i} is not the installed generation's"));
            }
        }
        // 6: the installed generation keeps a spare serving socket parked
        // with the acceptor, or one on its way, until the cap.
        if let Some(p) = self.peer.filter(|&p| !self.dlinks[p].core.dead) {
            let spare = self.socks.iter().any(|s| {
                !s.calls
                    && s.dlink == Some(p)
                    && ((s.spare && self.dialer_open(s)) || s.phase != Phase::Done)
            });
            if !spare && self.dlinks[p].core.open[Side::Serving as usize] < self.cap {
                return fail(6, "the acceptor has no spare serving socket".into());
            }
        }
        // 8: once, as a unit, and single-flight: this run's generations are
        // consecutive, all but the installed one dead, and deaths are each
        // counted once.
        for (at, core) in prev.cores() {
            let gone = matches!(at, At::D(l) if self.dlinks[l].gone);
            if core.dead && !gone && !self.core_ref(at).dead {
                return fail(8, format!("{at:?} came back to life"));
            }
        }
        let ours: Vec<_> = self.dlinks.iter().filter(|d| !d.gone).collect();
        for (i, d) in ours.iter().enumerate() {
            let last = i + 1 == ours.len();
            if d.gen != first_generation(self.run) + i as u64 || (!last && !d.core.dead) {
                return fail(8, format!("generation {:#x} is out of order", d.gen));
            }
        }
        let dead = |n: usize| n as u32;
        let d_dead = dead(ours.iter().filter(|d| d.core.dead).count());
        let a_dead = dead(self.alinks.iter().filter(|a| a.core.dead).count());
        if self.disconnects != [d_dead, a_dead] {
            return fail(
                8,
                format!(
                    "{:?} disconnects for {d_dead}/{a_dead} deaths",
                    self.disconnects
                ),
            );
        }
        // 9: within one run the acceptor's generations only grow — unless
        // another run came in between (a restarted dialer supersedes).
        for (i, a) in self.alinks.iter().enumerate() {
            let earlier = &self.alinks[..i];
            let clash = if strict {
                earlier
                    .iter()
                    .any(|e| e.gen >> 32 == a.gen >> 32 && e.gen >= a.gen)
            } else {
                earlier
                    .last()
                    .is_some_and(|e| e.gen >> 32 == a.gen >> 32 && e.gen >= a.gen)
            };
            if clash {
                return fail(
                    9,
                    format!("the acceptor founded generation {:#x} out of order", a.gen),
                );
            }
        }
        Ok(())
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// What one exploration saw.
#[derive(Debug)]
pub(super) struct Report {
    pub states: usize,
    pub steps: usize,
    pub depth: usize,
}

/// Explores every interleaving of `scn` to its depth. On a violation,
/// returns the shortest event path to one and why.
pub(super) fn explore(scn: &Scenario) -> Result<Report, (Vec<Ev>, String)> {
    let mut shortest = match search(scn, scn.depth) {
        Ok(report) => return Ok(report),
        Err(violation) => violation,
    };
    // Depth first finds some path; the shortest one is the one to read.
    while let Err(shorter) = search(scn, shortest.0.len() - 1) {
        shortest = shorter;
    }
    Err(shortest)
}

fn search(scn: &Scenario, depth: usize) -> Result<Report, (Vec<Ev>, String)> {
    let scn = Scenario { depth, ..*scn };
    let mut report = Report {
        states: 0,
        steps: 0,
        depth: 0,
    };
    let (mut seen, mut path) = (HashMap::new(), Vec::new());
    dfs(&scn, &World::new(&scn), &mut seen, &mut path, &mut report)?;
    Ok(report)
}

fn dfs(
    scn: &Scenario,
    w: &World,
    seen: &mut HashMap<u64, usize>,
    path: &mut Vec<Ev>,
    report: &mut Report,
) -> Result<(), (Vec<Ev>, String)> {
    let left = scn.depth - path.len();
    match seen.get(&w.fingerprint()) {
        Some(&had) if had >= left => return Ok(()),
        _ => seen.insert(w.fingerprint(), left),
    };
    report.states = seen.len();
    report.depth = report.depth.max(path.len());
    if left == 0 {
        return Ok(());
    }
    for ev in w.events() {
        let mut next = w.clone();
        path.push(ev);
        report.steps += 1;
        let checked = next.apply(ev).and_then(|()| next.check(w, ev, scn.strict));
        if let Err(why) = checked {
            return Err((path.clone(), why));
        }
        dfs(scn, &next, seen, path, report)?;
        path.pop();
    }
    Ok(())
}

/// Replays `path` from `scn`'s start, checking every invariant after every
/// step; panics on an event that is not enabled or on a violation.
pub(super) fn replay(scn: &Scenario, path: &[Ev]) -> World {
    let mut w = World::new(scn);
    for (i, &ev) in path.iter().enumerate() {
        assert!(w.events().contains(&ev), "step {i}: {ev:?} is not enabled");
        let prev = w.clone();
        if let Err(why) = w.apply(ev).and_then(|()| w.check(&prev, ev, scn.strict)) {
            panic!("step {i}: {ev:?}: {why}");
        }
    }
    w
}

/// Runs `scn` and, on a violation, writes the path as a unit test under
/// `target/link-explorer/` and fails with it.
fn run(scn: &Scenario) -> Report {
    let started = Instant::now();
    match explore(scn) {
        Ok(report) => {
            println!(
                "{}: {} states, {} steps, depth {} in {:.1?}",
                scn.name,
                report.states,
                report.steps,
                report.depth,
                started.elapsed()
            );
            report
        }
        Err((path, why)) => {
            let events: Vec<String> = path.iter().map(|ev| format!("{ev:?}")).collect();
            let test = format!(
                "// {why}\n#[test]\nfn {name}_counterexample() {{\n    replay(&{scenario}, &[{events}]);\n}}\n",
                name = scn.name,
                scenario = scn.name.to_uppercase(),
                events = events.join(", "),
            );
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/link-explorer");
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(dir.join(format!("{}.rs", scn.name)), &test);
            panic!("{}: {} steps to a violation:\n{test}", scn.name, path.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Ev::*;
    use super::*;

    /// `depth` in an optimised build; three steps less in a debug build,
    /// which runs some ten times slower (CI runs the full depth in release).
    const fn deep(depth: usize) -> usize {
        if cfg!(debug_assertions) {
            depth - 3
        } else {
            depth
        }
    }

    /// Three dialer-side callers and one acceptor-side caller on two
    /// sockets per side: queueing at the cap, dials and spares racing link
    /// death and redial.
    const CALLERS: Scenario = Scenario {
        name: "callers",
        dialers: 3,
        acceptors: 1,
        cap: 2,
        restarts: 0,
        depth: deep(13),
        strict: false,
    };

    /// One caller per side and a dialer that restarts: stragglers of a
    /// generation, and of a run, against the links that replaced them.
    const RESTART: Scenario = Scenario {
        name: "restart",
        dialers: 1,
        acceptors: 1,
        cap: 2,
        restarts: 1,
        depth: deep(14),
        strict: false,
    };

    #[test]
    fn every_interleaving_of_three_callers_and_one_acceptor_caller_holds() {
        run(&CALLERS);
    }

    #[test]
    fn every_interleaving_of_a_restarting_dialer_holds() {
        run(&RESTART);
    }

    /// The interleaving invariant 9 leaves open: strictly, no generation of
    /// a run is ever founded twice. That holds while the dialer keeps its
    /// run, and the first path that breaks it needs a restart.
    #[test]
    fn only_a_restart_founds_a_generation_twice() {
        let strict = |restarts| Scenario {
            name: "strict",
            restarts,
            strict: true,
            ..RESTART
        };
        assert!(explore(&strict(0)).is_ok());
        let (path, why) = explore(&strict(1)).expect_err("a straggler of the old run");
        println!("{why}: {path:?}");
        assert!(why.starts_with("invariant 9"), "{why}");
        assert!(path.contains(&Restart), "{path:?}");
    }

    /// The path the strict rule prints, pinned as accepted behaviour: the
    /// dialer restarts (run 1) while the spare of run 0's generation 1 is
    /// still in flight. Run 1's first socket supersedes run 0's link; then
    /// the dead process's spare arrives and, being of another run,
    /// supersedes run 1's live link with a zombie of run 0 that has nobody
    /// at the other end. Run 1 loses only that link: its next call fails,
    /// it redials generation 2, and that supersedes the zombie.
    #[test]
    fn a_straggler_of_a_dead_run_costs_its_successor_one_redial() {
        let run1 = |g: u64| (1 << 32) | g;
        let w = replay(&RESTART, &[Restart, Hello(2), Hello(1)]);
        let held = &w.alinks[w.held.unwrap()];
        assert_eq!((held.gen, held.core.dead), (1, false), "run 0's zombie");
        assert_eq!(w.alinks[1].gen, run1(1));
        assert!(w.alinks[1].core.dead, "run 1's link, superseded");
        assert_eq!(w.disconnects[1], 2);

        let path = [
            Restart,
            Hello(2),
            Hello(1),
            // Run 1 learns it is connected and its call reads EOF.
            Echo(2),
            Echo(1),
            Call(0),
            Fail(0),
            // One redial: generation 2 of run 1 supersedes the zombie.
            Call(0),
            Redial(0),
            Hello(4),
            Echo(4),
        ];
        let w = replay(&RESTART, &path);
        let held = &w.alinks[w.held.unwrap()];
        assert_eq!((held.gen, held.core.dead), (run1(2), false));
        assert_eq!(w.dlinks[w.peer.unwrap()].gen, run1(2));
        assert_eq!((w.redials, w.disconnects), (1, [1, 3]));
    }
}
