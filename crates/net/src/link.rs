//! The socket backend's two state machines (DESIGN.md §5.15) without any
//! I/O: every decision its nine invariants govern, and nothing else.
//!
//! * **socket**: idle → calling → idle | closed. [`LinkState`] counts each
//!   side's sockets against its cap, keeps the idle calling sockets and the
//!   number of callers parked for one, and decides each checkout (an idle
//!   socket, one more to dial, wait, or the link is dead), checkin, close
//!   and when a spare serving socket is owed.
//! * **link generation**: alive → dead, never back. [`LinkState::die`]
//!   happens once; [`verdict`] is the acceptor's judgement of a HELLO
//!   against the link it holds, and [`redial`] the dialer's single-flight
//!   `g + 1`.
//!
//! The shell (`socket.rs`) holds the lock, asks, and carries out the answer:
//! it shuts sockets down, dials, spawns threads, notifies the condvar, reads
//! and writes. The state is generic over the socket value `S` and its
//! shutdown handle `H`, so the explorer in `link/explore.rs` drives it with
//! plain ids and checks every invariant after every step.

use std::mem;

use crate::transport::{ROLE_DIALER_CALLS, ROLE_DIALER_SERVES};

/// Most call sockets a link opens per direction, i.e. most calls in flight
/// each way and most serving threads per side. Each serving thread may
/// block on an outbound nested call, so the cap bounds thread count per
/// link while staying far above any realistic callback depth; callers
/// beyond it queue for a socket.
pub(crate) const CALL_SOCKET_CAP: usize = 32;

/// Which end of a call socket this process holds. Indexes the per-side
/// socket count; as `u8`, the HELLO role a dialer asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    /// We write requests on it and read replies.
    Calling = ROLE_DIALER_CALLS as isize,
    /// One of our threads reads requests on it and writes replies.
    Serving = ROLE_DIALER_SERVES as isize,
}

/// What a caller asking for a calling socket is to do.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Checkout<S> {
    /// Use this idle socket.
    Idle(S),
    /// Dial one more; its slot is reserved ([`LinkState::register`] or
    /// [`LinkState::release`] settles it).
    Dial,
    /// Park until notified, then ask again with `woken` set.
    Wait,
    /// The generation is dead.
    Dead,
}

/// One generation of a link, as the lock in the shell guards it.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(crate) struct LinkState<S, H> {
    /// Whether this end may dial (only the connecting side can).
    dialer: bool,
    cap: usize,
    dead: bool,
    next_key: u64,
    /// A shutdown handle for every open socket of the generation, wherever
    /// the socket itself currently is, under the key the socket carries.
    handles: Vec<(u64, H)>,
    /// Calling sockets nobody is using. (Read by the shell's tests.)
    pub(crate) idle: Vec<S>,
    /// Sockets open or being dialled, per [`Side`]; each at most `cap`.
    open: [usize; 2],
    /// Callers parked for a calling socket, so a checkin with nobody
    /// waiting pays no wake-up.
    waiting: usize,
}

impl<S, H> LinkState<S, H> {
    pub fn new(dialer: bool, cap: usize) -> Self {
        LinkState {
            dialer,
            cap,
            dead: false,
            next_key: 0,
            handles: Vec::new(),
            idle: Vec::new(),
            open: [0; 2],
            waiting: 0,
        }
    }

    /// Whether a freed socket or slot is news for a parked caller.
    fn wake_one(&self) -> bool {
        self.waiting > 0 && !self.dead
    }

    /// Claims one of `side`'s slots; `false` at the cap.
    pub fn reserve(&mut self, side: Side) -> bool {
        let room = self.open[side as usize] < self.cap;
        self.open[side as usize] += room as usize;
        room
    }

    /// Returns one of `side`'s slots. Returns whether to wake one parked
    /// caller (here and below).
    #[must_use]
    pub fn release(&mut self, side: Side) -> bool {
        self.open[side as usize] -= 1;
        self.wake_one()
    }

    /// A socket dialled into a reserved slot joins the generation under the
    /// returned key, from where [`LinkState::die`] reaches it — unless the
    /// generation died meanwhile, which gives the slot back. Both run under
    /// the shell's one lock: either the generation is dead here, or `die`
    /// finds this socket.
    pub fn register(&mut self, side: Side, handle: H) -> Option<u64> {
        if self.dead {
            let _ = self.release(side); // `die` has woken everyone
            return None;
        }
        let key = self.next_key;
        self.next_key += 1;
        self.handles.push((key, handle));
        Some(key)
    }

    /// A socket somebody else decided to open (the acceptor's inbound
    /// sockets, a new link's first) claims a slot and joins — unless the
    /// side is at its cap or the generation is dead.
    pub fn admit(&mut self, side: Side, handle: H) -> Option<u64> {
        if !self.reserve(side) {
            return None;
        }
        self.register(side, handle)
    }

    /// A calling socket for a caller: an idle one, else one more to dial
    /// where this end may and the cap allows, else a wait. `woken` says the
    /// caller is back from such a wait.
    pub fn checkout(&mut self, woken: bool) -> Checkout<S> {
        self.waiting -= woken as usize;
        if self.dead {
            return Checkout::Dead;
        }
        if let Some(sock) = self.idle.pop() {
            return Checkout::Idle(sock);
        }
        if self.dialer && self.reserve(Side::Calling) {
            return Checkout::Dial;
        }
        self.waiting += 1;
        Checkout::Wait
    }

    /// A calling socket whose round trip completed (or that just arrived)
    /// goes idle; on a dead link it is dropped, `die` having shut it.
    #[must_use]
    pub fn checkin(&mut self, sock: S) -> bool {
        if self.dead {
            return false;
        }
        self.idle.push(sock);
        self.wake_one()
    }

    /// Closes one socket and nothing else — an abandoned call's, or a
    /// serving socket whose reply could not be written: its handle, if the
    /// generation still held it, and whether to wake a caller for the slot.
    pub fn close(&mut self, key: u64, side: Side) -> (Option<H>, bool) {
        let at = self.handles.iter().position(|(k, _)| *k == key);
        let handle = at.map(|i| self.handles.swap_remove(i).1);
        (handle, self.release(side))
    }

    /// Whether this end owes the acceptor one more spare serving socket —
    /// at the link's start, and when a spare carries its first frame — and
    /// if so reserves its slot. Only a dialer can provide one.
    pub fn spare_owed(&mut self) -> bool {
        self.dialer && self.reserve(Side::Serving)
    }

    /// Kills the generation, once: the first time, drops the idle sockets
    /// and returns every socket's handle to shut (and every parked caller
    /// is to be woken); `None` ever after.
    pub fn die(&mut self) -> Option<Vec<(u64, H)>> {
        if mem::replace(&mut self.dead, true) {
            return None;
        }
        self.idle.clear();
        Some(mem::take(&mut self.handles))
    }
}

/// The generation of the first link a dialer of run `run` opens: a count of
/// 1 in the low half under the run in the high half. Redials count up from
/// it, so the generations of one run of a process are ordered, and a
/// restarted process — which counts from 1 again — is told apart from a
/// straggler of the run before it.
pub(crate) fn first_generation(run: u64) -> u64 {
    (run << 32) | 1
}

/// The acceptor's judgement of an inbound socket's HELLO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Verdict {
    /// A socket of the held, live generation.
    Join,
    /// The first socket from this node: found its link.
    Found,
    /// A newer generation, or another run of the dialer: found its link,
    /// and the held one dies.
    Supersede,
    /// Older than the held generation, or of the held one once it is dead:
    /// a socket whose handshake lost the race with its link's death. Drop
    /// it.
    Straggler,
}

/// Judges a HELLO of `generation` while holding `held` (its generation and
/// whether it is dead) for that node. The dialer dials `g + 1` only after
/// `g` died on its side, so only generations of one run are ordered; a new
/// run supersedes whatever is held.
pub(crate) fn verdict(held: Option<(u64, bool)>, generation: u64) -> Verdict {
    match held {
        None => Verdict::Found,
        Some((g, _)) if g >> 32 != generation >> 32 || generation > g => Verdict::Supersede,
        Some((g, false)) if generation == g => Verdict::Join,
        Some(_) => Verdict::Straggler,
    }
}

/// The dialer's single-flight redial, decided under the peer's redial
/// lock: a racing shipper may have redialled while we waited for it, so
/// the current generation is either live again (`None`: use it), or dead
/// and followed by exactly `generation + 1`.
pub(crate) fn redial(generation: u64, dead: bool) -> Option<u64> {
    dead.then_some(generation + 1)
}

#[cfg(test)]
mod explore;
