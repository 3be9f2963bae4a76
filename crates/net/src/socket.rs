//! The socket backend: doors over TCP and Unix-domain sockets between real
//! OS processes.
//!
//! Spring's doors are thread-shuttling: a call runs on the caller's thread.
//! This backend extends exactly that across a process boundary. A *link*
//! between two processes is a set of **call sockets**, each carrying one
//! frame at a time with exactly one thread at each end:
//!
//! * the **caller** checks an idle socket out of the link, writes its
//!   request frame, blocks in `read` on that same socket and is woken by
//!   the kernel with the reply — no writer thread, no reader thread, no
//!   waiter table, no hand-off;
//! * the **serving thread** blocks in `read`, runs the frame's calls
//!   itself, writes the reply and reads again.
//!
//! What a socket's frames travel through follows the address family. Over
//! TCP it is the socket itself. Over a UDS it is a pair of pipes, one each
//! way: the dialer makes them and hands the acceptor its two ends with the
//! HELLO, in one `sendmsg` (`SCM_RIGHTS`), and the UDS stream carries no
//! frame after that — a pipe's wake-up is cheaper than a socket's. Either
//! way a cross-process null call is four syscalls — two `writev`, two
//! `read` — and two context switches, for any frame that fits the socket's
//! 8 KiB `BufReader`: prefix and body then arrive in one `read` (a larger
//! frame takes more). Ordering and non-interference hold by construction:
//! a socket is a private queue between one caller and one handler (the
//! interference-free network-objects model of PAPERS.md). A servant that
//! calls back over the link, or parks until a *second* request over the
//! same link releases it, is safe for the same reason — that request
//! travels on another socket, to another serving thread.
//!
//! Two small state machines carry the rest — *socket* (idle → calling →
//! idle | closed) and *link generation* (alive → dead, never back) — and
//! every decision they make lives in the I/O-free core, [`crate::link`],
//! where an exhaustive explorer checks DESIGN.md §5.15's nine invariants
//! after every step. This module is the shell around it: it holds the
//! lock, asks the core, and carries out the answer. Only the connecting
//! side can dial, so every socket opens with a HELLO naming its *role*
//! (dialer calls / dialer serves) and its *generation*; the dialer opens
//! one more calling socket whenever none is idle (up to
//! [`CALL_SOCKET_CAP`]) and keeps one spare serving socket parked with the
//! acceptor, so acceptor-originated calls (callbacks, pub/sub deliveries)
//! always have somewhere to go. A socket whose call was abandoned (its
//! deadline expired) is closed, never reused. A link dies as a unit: a
//! failed request write, a missing or malformed reply, a malformed request
//! or a protocol violation wakes every blocked reader of the generation —
//! a TCP socket is shut down, a pipe gets a wake byte, and any read of a
//! dead link fails — so in-flight callers fail with `Comm` and serving
//! threads unblock and exit; one disconnect is counted. The peer learns at
//! once: its TCP sockets read EOF, and over a UDS a watcher thread on each
//! side reads EOF on the link's first stream. The dialer then redials the
//! next generation single-flight, and the acceptor drops stragglers.
//!
//! Failure mapping: everything transient (dial failure, peer EOF, write
//! error, stale export on a restarted peer, an expired deadline) surfaces
//! as [`DoorError::Comm`], so the replicon/reconnectable retry machinery
//! and at-most-once deduplication work unchanged over sockets. A deadline
//! bounds a reply wait through `poll` before each `read`, on either
//! carrier. Accepted peers cannot redial (the server can't call a client
//! back into existence), so their ships fail with `Comm` until the client
//! returns.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasher, Hasher};
use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::mem;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsFd, AsRawFd, OwnedFd};
use std::os::unix::fs::{FileTypeExt, OpenOptionsExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock, Weak};
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;
use spring_kernel::callid::now_micros;
use spring_kernel::{hotpath, pool, Domain, DoorError, DoorId, NodeId};
use spring_trace::keys;

use crate::batch::{lock, PendingEntry};
use crate::framing::{self, write_frame_vectored, FrameReadError};
use crate::link::{self, Checkout, LinkState, Side, Verdict, CALL_SOCKET_CAP};
use crate::network::NetworkInner;
use crate::server::{NetServer, WireCap, WireMessage};
use crate::sys;
use crate::transport::{
    decode_calls, decode_hello, decode_reply, encode_calls, encode_hello, encode_reply, Hello,
    ReplyOutcome, RequestCall, KIND_ONEWAY, KIND_REQUEST, ROLE_DIALER_CALLS,
};

/// How long the two-frame HELLO exchange may take before the socket is
/// abandoned (a peer that connects and goes silent must not wedge the
/// dialer or its handshake thread forever).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the accept loop pauses after a failed `accept` (out of
/// descriptors, say), so that a lasting failure does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

fn comm(e: impl std::fmt::Display) -> DoorError {
    DoorError::Comm(e.to_string())
}

/// The kind of a request-shaped frame: one-way unless its calls await a
/// reply.
fn request_kind(want_reply: bool) -> u8 {
    if want_reply {
        KIND_REQUEST
    } else {
        KIND_ONEWAY
    }
}

// ---------------------------------------------------------------------------
// Carriers: what a call socket's frames travel through.
// ---------------------------------------------------------------------------

/// A connected socket of either family, held as one type: the socket a
/// HELLO exchange runs on, and, over TCP, the socket that then carries the
/// frames. A TCP stream is held as this type once its one TCP-only option
/// is set ([`tcp`]); `read`, `writev`, `shutdown`, `SO_RCVTIMEO` and `dup`
/// are the same system call on any stream socket.
type Stream = UnixStream;

/// A TCP stream made ready for frames, which are latency-sensitive RPCs
/// (never Nagle them), and held as a [`Stream`].
fn tcp(s: TcpStream) -> Stream {
    let _ = s.set_nodelay(true);
    OwnedFd::from(s).into()
}

/// The two ends a call socket's frames travel through, and the handle that
/// wakes a thread blocked reading them when the link dies. Over TCP both
/// ends are the one socket; over a UDS they are two pipes the dialer handed
/// over with its HELLO ([`hand_over`], [`take_over`]), and the socket
/// carries no frame after that. The address family picks the carrier.
struct Carrier {
    rx: File,
    tx: File,
    wake: Wake,
}

impl Carrier {
    /// Frames over the TCP socket itself, the HELLO exchange done.
    fn socket(stream: Stream) -> io::Result<Carrier> {
        let rx = File::from(OwnedFd::from(stream.try_clone()?));
        let tx = File::from(OwnedFd::from(stream.try_clone()?));
        Ok(Carrier {
            rx,
            tx,
            wake: Wake::Shut(stream),
        })
    }

    /// Frames over a pipe pair: requests or replies are read from `rx` and
    /// written to `tx`.
    fn pipes(rx: File, tx: File) -> io::Result<Carrier> {
        let wake = Wake::Byte(rx.try_clone()?);
        Ok(Carrier { rx, tx, wake })
    }
}

/// How [`Link::die`] wakes whoever is blocked reading a socket of the
/// generation: the handle the link's state holds for each socket.
enum Wake {
    /// TCP: shut the socket down. Both ends read EOF.
    Shut(Stream),
    /// A pipe pair: a duplicate of the read end of the socket's `rx` pipe.
    /// To wake, a write end of that pipe is opened through `/proc/self/fd`
    /// and one byte written into it; the reader wakes and finds the link
    /// dead. The end is opened only then, and non-blocking — a pipe too
    /// full to take the byte already wakes its reader. Held open, a write
    /// end would keep the pipe from reading EOF when the peer closes its
    /// end, which is how a serving thread tells its caller that this one
    /// socket is gone (a reply it could not write); and a `dup` of the
    /// peer's write end would share the peer's file description, so
    /// `O_NONBLOCK` set on it would reach the peer's writes too.
    Byte(File),
}

impl Wake {
    fn wake(&self) {
        match self {
            Wake::Shut(s) => drop(s.shutdown(Shutdown::Both)),
            Wake::Byte(rx) => {
                let end = OpenOptions::new()
                    .write(true)
                    .custom_flags(sys::O_NONBLOCK)
                    .open(format!("/proc/self/fd/{}", rx.as_raw_fd()));
                if let Ok(mut end) = end {
                    let _ = end.write(&[0]);
                }
            }
        }
    }

    /// Closes one socket of a live link. A TCP socket is shut, so that its
    /// peer's blocked thread reads EOF; a pipe's ends close with the socket.
    fn close(self) {
        if let Wake::Shut(s) = self {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// A call socket's reading end: `read(2)` of a pipe or of a TCP socket, with
/// two rules added. While `due` is set (a reply wait bounded by a deadline,
/// in [`now_micros`] units) each read waits in `poll` for at most the time
/// left, and fails `TimedOut` once there is none. And every read is
/// followed by a check of the link's dead flag: once the link is dead, a
/// read fails whatever it returned — [`Link::die`]'s wake byte may have
/// landed inside a frame the peer was still writing, so nothing read after
/// death is trusted.
struct Rx {
    file: File,
    dead: Arc<AtomicBool>,
    due: u64,
}

impl Rx {
    /// Waits until `file` is readable or `due` has passed.
    fn await_readable(&self) -> io::Result<()> {
        loop {
            let left = self.due.saturating_sub(now_micros());
            let ms = left.div_ceil(1000).min(i32::MAX as u64) as i32;
            if sys::readable_within(self.file.as_fd(), ms)? {
                return Ok(());
            }
            if left == 0 {
                return Err(ErrorKind::TimedOut.into());
            }
        }
    }
}

impl Read for Rx {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.due != 0 {
            self.await_readable()?;
        }
        let read = (&self.file).read(buf);
        if self.dead.load(Ordering::SeqCst) {
            return Err(ErrorKind::ConnectionAborted.into());
        }
        read
    }
}

// ---------------------------------------------------------------------------
// Link: one generation of call sockets between two processes.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub(crate) enum Addr {
    Tcp(String),
    Uds(String),
}

impl Addr {
    fn kind(&self) -> &'static str {
        match self {
            Addr::Tcp(_) => "tcp",
            Addr::Uds(_) => "uds",
        }
    }
}

/// One call socket, owned by whichever thread is using it: a caller between
/// checkout and checkin, or the socket's serving thread. So are its
/// buffers, which are reused from frame to frame without a lock.
struct CallSocket {
    /// Key of this socket's wake handle in the link's state.
    id: u64,
    rx: BufReader<Rx>,
    tx: File,
    /// The frame buffer: every frame this end writes is encoded into it
    /// and every frame it reads lands in it.
    buf: Vec<u8>,
    /// A reply frame's outcomes: decoded into it by the caller, who
    /// settles from it; staged in it by the serving thread, which encodes
    /// the reply from it.
    outcomes: Vec<ReplyOutcome>,
}

impl CallSocket {
    fn new(id: u64, rx: File, tx: File, dead: Arc<AtomicBool>) -> CallSocket {
        CallSocket {
            id,
            rx: BufReader::new(Rx {
                file: rx,
                dead,
                due: 0,
            }),
            tx,
            buf: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Empties the socket's buffers once its frame is consumed.
    fn consumed(&mut self) {
        release(&mut self.buf);
        release(&mut self.outcomes);
    }
}

/// Empties a buffer reused from frame to frame, and lets go of capacity
/// beyond what the pool keeps of a payload: one huge frame must not pin its
/// size for as long as the buffer lives.
fn release<T>(buf: &mut Vec<T>) {
    buf.clear();
    buf.shrink_to(pool::MAX_RETAINED_CAPACITY / mem::size_of::<T>());
}

struct Link {
    net: Weak<NetworkInner>,
    kind: &'static str,
    /// The local node whose network server serves requests arriving here.
    local: u64,
    /// What the peer declared in the HELLO of the link's first socket; its
    /// `generation` is the link's.
    remote: Hello,
    /// Where further sockets are dialled; `None` on the accepting side,
    /// which can only wait for the dialer to open them.
    dial: Option<Addr>,
    /// Armed write faults (shared with the owning peer/listener handle).
    inject: Arc<AtomicU64>,
    next_frame: AtomicU64,
    /// The core's verdict that the generation is dead, published for
    /// checks that take no lock — among them every read of a call socket.
    dead: Arc<AtomicBool>,
    state: StdMutex<LinkState<CallSocket, Wake>>,
    /// Signalled when a calling socket is checked in, arrives or closes.
    freed: Condvar,
    /// Over a UDS, the first socket's stream, which carries nothing after
    /// its handover: a watcher thread blocks reading it ([`Link::watch`]),
    /// and [`Link::die`] shuts it down, which the peer's watcher reads as
    /// EOF.
    watched: Mutex<Option<Stream>>,
}

impl Link {
    fn new(
        net: &Arc<NetworkInner>,
        local: u64,
        remote: Hello,
        dial: Option<Addr>,
        kind: &'static str,
        inject: Arc<AtomicU64>,
    ) -> Arc<Link> {
        Arc::new(Link {
            net: Arc::downgrade(net),
            kind,
            local,
            remote,
            state: StdMutex::new(LinkState::new(dial.is_some(), CALL_SOCKET_CAP)),
            dial,
            inject,
            next_frame: AtomicU64::new(1),
            dead: Arc::default(),
            freed: Condvar::new(),
            watched: Mutex::new(None),
        })
    }

    /// Over a UDS, watches the peer for the link's first socket. A dying
    /// link's pipes do not all close at once — a serving thread inside a
    /// servant holds its socket until the servant returns — so the peer
    /// could wait on them. Instead a thread blocks in `read` on `stream`,
    /// which nobody writes after the handover, and kills the link whatever
    /// that read returns: EOF when the peer's process exits or its side of
    /// the link dies, EOF too when our own [`Link::die`] shuts the stream
    /// down. The watcher holds the link weakly, and a link dropped alive
    /// shuts the stream too.
    fn watch(self: &Arc<Link>, stream: &Stream) -> Result<(), DoorError> {
        let watched = stream.try_clone().map_err(comm)?;
        *self.watched.lock() = Some(stream.try_clone().map_err(comm)?);
        let link = Arc::downgrade(self);
        let spawned = thread::Builder::new()
            .name(format!("spring-sock-watch-{}", self.remote.node))
            .spawn(move || {
                let mut byte = [0u8];
                while let Err(e) = (&watched).read(&mut byte) {
                    if e.kind() != ErrorKind::Interrupted {
                        break;
                    }
                }
                if let Some(link) = link.upgrade() {
                    link.die(link.disconnected());
                }
            });
        if let Err(e) = spawned {
            return Err(self.die(comm(format!("watcher thread spawn failed: {e}"))));
        }
        Ok(())
    }

    /// Dials the first socket of generation `generation` — a calling one,
    /// whose HELLO reply tells us who the peer is.
    fn open(
        net: &Arc<NetworkInner>,
        local: u64,
        addr: &Addr,
        generation: u64,
        inject: Arc<AtomicU64>,
    ) -> Result<Arc<Link>, DoorError> {
        let (carrier, stream, remote) = dial(net, local, addr, ROLE_DIALER_CALLS, generation)?;
        let link = Link::new(net, local, remote, Some(addr.clone()), addr.kind(), inject);
        if let Some(stream) = stream {
            link.watch(&stream)?;
        }
        let sock = link.admit(carrier, Side::Calling)?;
        link.checkin(sock);
        Ok(link)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn disconnected(&self) -> DoorError {
        comm(format!("{} peer disconnected", self.kind))
    }

    /// Why a read that wanted a frame ends the link: the peer hung up or the
    /// link died under the read, or — `Truncated` (the stream ended short of
    /// the declared length), `Oversized` (a garbage prefix) — the peer sent
    /// what is typed rejection, never a hang on bytes that will not arrive.
    fn read_failed(&self, e: FrameReadError) -> DoorError {
        match e {
            FrameReadError::Closed => self.disconnected(),
            _ if self.is_dead() => self.disconnected(),
            e => comm(format!("{} link read failed: {e}", self.kind)),
        }
    }

    /// Carries out the core's "wake one parked caller".
    fn wake(&self, one: bool) {
        if one {
            self.freed.notify_one();
        }
    }

    /// How a socket somebody else decided to open (the acceptor's inbound
    /// sockets, a new link's first) joins the generation.
    fn admit(&self, carrier: Carrier, side: Side) -> Result<CallSocket, DoorError> {
        let Carrier { rx, tx, wake } = carrier;
        match lock(&self.state).admit(side, wake) {
            Some(id) => Ok(CallSocket::new(id, rx, tx, self.dead.clone())),
            None => Err(comm(format!(
                "{} link is dead or at its socket cap",
                self.kind
            ))),
        }
    }

    /// Dials one more socket of this generation for `side`, whose slot the
    /// core reserved (and takes back if the dial fails).
    fn dial_socket(&self, net: &NetworkInner, side: Side) -> Result<CallSocket, DoorError> {
        let dialled = self
            .dial
            .as_ref()
            .ok_or_else(|| comm("accepted links cannot dial"))
            .and_then(|addr| dial(net, self.local, addr, side as u8, self.remote.generation))
            // Only the link's first socket keeps its UDS stream.
            .and_then(|(carrier, _, remote)| {
                if remote.node != self.remote.node {
                    return Err(comm(format!(
                        "{} peer changed from node {} to node {} mid-link",
                        self.kind, self.remote.node, remote.node
                    )));
                }
                Ok(carrier)
            });
        let mut st = lock(&self.state);
        match dialled {
            Ok(Carrier { rx, tx, wake }) => match st.register(side, wake) {
                Some(id) => Ok(CallSocket::new(id, rx, tx, self.dead.clone())),
                None => Err(self.disconnected()),
            },
            Err(e) => {
                self.wake(st.release(side));
                Err(e)
            }
        }
    }

    /// Closes one socket and nothing else: the link lives on.
    fn close(&self, sock: CallSocket, side: Side) {
        let (handle, wake) = lock(&self.state).close(sock.id, side);
        self.wake(wake);
        if let Some(handle) = handle {
            handle.close();
        }
    }

    /// Takes an idle calling socket, dialling one more when none is idle
    /// and the cap allows (dialing side), otherwise queueing until one is
    /// checked in, arrives from the dialer, or the link dies.
    fn checkout(&self, net: &NetworkInner) -> Result<CallSocket, DoorError> {
        let mut st = lock(&self.state);
        let mut woken = false;
        loop {
            match st.checkout(woken) {
                Checkout::Idle(sock) => return Ok(sock),
                Checkout::Dial => {
                    drop(st);
                    return self.dial_socket(net, Side::Calling);
                }
                Checkout::Wait => st = self.freed.wait(st).unwrap_or_else(|p| p.into_inner()),
                Checkout::Dead => return Err(self.disconnected()),
            }
            woken = true;
        }
    }

    /// Returns a calling socket whose call completed (or, from the
    /// handshake, one that just arrived) to the idle list.
    fn checkin(&self, mut sock: CallSocket) {
        sock.consumed();
        let wake = lock(&self.state).checkin(sock);
        self.wake(wake);
    }

    /// Writes the frame encoded in `sock.buf` on the calling thread —
    /// unless an injected write fault is armed, which it consumes instead.
    fn send(&self, net: &NetworkInner, sock: &mut CallSocket) -> io::Result<()> {
        let fault = self
            .inject
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        if fault.is_ok() {
            return Err(io::Error::new(
                ErrorKind::BrokenPipe,
                "injected write fault",
            ));
        }
        write_frame_vectored(&mut sock.tx, &sock.buf)?;
        hotpath::count_fastpath_send();
        net.count_socket_send(sock.buf.len());
        Ok(())
    }

    /// Kills the generation, once: wakes every socket's blocked reader — a
    /// TCP socket is shut down, a pipe gets a wake byte, and either way an
    /// in-flight caller fails with `Comm` instead of hanging and a serving
    /// thread unblocks and exits — wakes queued callers and tells the peer
    /// (its sockets read EOF over TCP, its watcher over a UDS). The
    /// disconnect is counted first, before any wake-up: whoever sees the
    /// death, here or at the peer, already reads it in `socket_stats()`.
    /// Returns `reason` for the caller to fail with.
    fn die(&self, reason: DoorError) -> DoorError {
        let mut st = lock(&self.state);
        let Some(handles) = st.die() else {
            return reason;
        };
        self.dead.store(true, Ordering::SeqCst);
        if let Some(net) = self.net.upgrade() {
            net.count_socket_disconnect();
        }
        self.freed.notify_all();
        drop(st);
        for (_, handle) in handles {
            handle.wake();
        }
        if let Some(watched) = self.watched.lock().take() {
            let _ = watched.shutdown(Shutdown::Both);
        }
        reason
    }

    /// One request frame out — `frame`'s calls, encoded in `sock.buf` as
    /// frame `id` — on one socket and this thread, whose payloads then go
    /// back to the pool they came from, and, if the callers `want_reply`,
    /// its reply frame back. A request frame that could not be written kills
    /// the link. The reply is decoded into `sock.outcomes` and checked whole
    /// (frame id, outcome count, every outcome) before the socket is handed
    /// back for the caller to settle from. When every call aboard carries a
    /// deadline, the latest of them bounds the reply wait: on expiry the
    /// call fails with `Comm` and *only this socket* is closed, so the late
    /// reply can never be read by the next caller and other calls in flight
    /// on the link complete. Every other failure kills the link.
    fn round_trip(
        &self,
        net: &NetworkInner,
        mut sock: CallSocket,
        id: u64,
        frame: &mut [PendingEntry],
        want_reply: bool,
    ) -> Result<CallSocket, DoorError> {
        // Identity-free calls carry no deadline, and one-way calls wait for
        // nothing.
        let dues = frame
            .iter()
            .map(|entry| entry.request().call.deadline_micros);
        let bounded = want_reply && dues.clone().all(|due| due != 0);
        // The socket is exclusively ours until checkin, so its reads'
        // deadline affects nobody else.
        sock.rx.get_mut().due = if bounded { dues.max().unwrap_or(0) } else { 0 };
        self.send(net, &mut sock)
            .map_err(|e| self.die(comm(format!("send on {} link failed: {e}", self.kind))))?;
        for entry in frame.iter_mut() {
            pool::give(entry.take_payload());
        }
        if !want_reply {
            return Ok(sock);
        }
        let n = match framing::read_frame(&mut sock.rx, &mut sock.buf) {
            Ok(n) => n,
            Err(FrameReadError::Io(e)) if bounded && e.kind() == ErrorKind::TimedOut => {
                self.close(sock, Side::Calling);
                return Err(comm(format!(
                    "deadline expired awaiting the reply on {} link",
                    self.kind
                )));
            }
            Err(e) => return Err(self.die(self.read_failed(e))),
        };
        net.count_socket_receive(n);
        let reply = decode_reply(&sock.buf[..n], &mut sock.outcomes)
            .map_err(|e| self.die(comm(format!("malformed {} frame: {e}", self.kind))))?;
        if reply != id || sock.outcomes.len() != frame.len() {
            return Err(self.die(comm(format!(
                "protocol violation: reply {reply} with {} outcomes for request {id} with {} calls",
                sock.outcomes.len(),
                frame.len()
            ))));
        }
        Ok(sock)
    }

    /// Dialing side: parks one more serving socket with the acceptor, on a
    /// thread of its own that dials it and then serves it (so whoever asked
    /// is not held up by a handshake), whenever the core says one is owed:
    /// once when the link's transport is registered — a request served here
    /// may call straight back, and routing that call needs the registration
    /// — and then each time a spare carries its first frame, so until the
    /// cap the acceptor always holds a socket no call has claimed yet.
    /// Without it the acceptor's nested callbacks could queue forever, so
    /// failing to provide it kills the link.
    fn spawn_spare(self: &Arc<Link>) {
        if !lock(&self.state).spare_owed() {
            return;
        }
        let link = self.clone();
        let spawned = thread::Builder::new()
            .name(format!("spring-sock-serve-{}", self.remote.node))
            .spawn(move || {
                let Some(net) = link.net.upgrade() else {
                    return;
                };
                let dialled = link.dial_socket(&net, Side::Serving);
                drop(net);
                match dialled {
                    Ok(sock) => serve(&link, sock),
                    Err(e) => drop(link.die(e)),
                }
            });
        if let Err(e) = spawned {
            self.die(comm(format!("serving thread spawn failed: {e}")));
        }
    }
}

impl Drop for Link {
    /// A link dropped alive lets its watcher go, and its peer know.
    fn drop(&mut self) {
        if let Some(watched) = self.watched.get_mut().take() {
            let _ = watched.shutdown(Shutdown::Both);
        }
    }
}

/// Dials one socket and runs the dialer's half of the HELLO exchange: we
/// speak first, naming the socket's role and generation — over a UDS,
/// handing the socket's pipe pair over with it — and the acceptor's HELLO
/// must echo both. Returns the socket's carrier, the UDS stream (idle from
/// now on) and the peer's HELLO.
fn dial(
    net: &NetworkInner,
    local: u64,
    addr: &Addr,
    role: u8,
    generation: u64,
) -> Result<(Carrier, Option<Stream>, Hello), DoorError> {
    let server = net.server(local)?;
    let stream = match addr {
        Addr::Tcp(a) => TcpStream::connect(a).map(tcp),
        Addr::Uds(p) => UnixStream::connect(p),
    };
    let mut stream = stream.map_err(|e| comm(format!("connect {addr:?}: {e}")))?;
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(comm)?;
    let ours = encode_hello(&our_hello(&server, role, generation));
    let pipes = match addr {
        Addr::Tcp(_) => write_frame_vectored(&mut stream, &ours).map(|()| None),
        Addr::Uds(_) => hand_over(&stream, &ours).map(Some),
    };
    let pipes = pipes.map_err(comm)?;
    let remote = read_hello(&mut stream, local)?;
    if (remote.role, remote.generation) != (role, generation) {
        return Err(comm(format!(
            "bad handshake: asked for role {role} generation {generation}, acceptor echoed \
             role {} generation {}",
            remote.role, remote.generation
        )));
    }
    stream.set_read_timeout(None).map_err(comm)?;
    Ok(match pipes {
        Some(carrier) => (carrier, Some(stream), remote),
        None => (Carrier::socket(stream).map_err(comm)?, None, remote),
    })
}

/// The dialer's half of a UDS handover: makes the socket's two pipes and
/// sends the acceptor its ends — the read end of the pipe the dialer writes
/// and the write end of the pipe it reads — with the HELLO frame `hello`,
/// in one `sendmsg`.
fn hand_over(stream: &Stream, hello: &[u8]) -> io::Result<Carrier> {
    let (peer_rx, tx) = io::pipe()?;
    let (rx, peer_tx) = io::pipe()?;
    let mut frame = Vec::with_capacity(4 + hello.len());
    write_frame_vectored(&mut frame, hello)?;
    let sent = sys::send_with_fds(stream.as_fd(), &frame, &[peer_rx.as_fd(), peer_tx.as_fd()])?;
    (&*stream).write_all(&frame[sent..])?;
    Carrier::pipes(OwnedFd::from(rx).into(), OwnedFd::from(tx).into())
}

/// The acceptor's half of a UDS handover: the dialer's HELLO and the two
/// pipe ends that came with it. A HELLO with anything but exactly two
/// descriptors, both pipes, is refused, and every descriptor that came is
/// closed.
fn take_over(stream: &mut Stream, local: u64) -> Result<(Hello, Carrier), DoorError> {
    let mut head = [0u8; 256];
    let (n, fds) = sys::recv_with_fds(stream.as_fd(), &mut head).map_err(comm)?;
    let [rx, tx] = <[OwnedFd; 2]>::try_from(fds).map_err(|fds| {
        comm(format!(
            "bad handshake: a UDS HELLO carries 2 descriptors, not {}",
            fds.len()
        ))
    })?;
    let (rx, tx) = (File::from(rx), File::from(tx));
    for end in [&rx, &tx] {
        if !end.metadata().map_err(comm)?.file_type().is_fifo() {
            return Err(comm("bad handshake: a UDS HELLO carries pipes"));
        }
    }
    let hello = read_hello(&mut (&head[..n]).chain(&mut *stream), local)?;
    Ok((hello, Carrier::pipes(rx, tx).map_err(comm)?))
}

fn our_hello(server: &NetServer, role: u8, generation: u64) -> Hello {
    Hello {
        node: server.node.raw(),
        name: server.domain.kernel().name().to_owned(),
        bootstrap: server.bootstrap_export(),
        role,
        generation,
    }
}

fn read_hello(stream: &mut impl Read, local: u64) -> Result<Hello, DoorError> {
    let mut buf = Vec::new();
    let n = framing::read_frame(stream, &mut buf).map_err(comm)?;
    let hello = decode_hello(&buf[..n]).map_err(|e| comm(format!("bad handshake: {e}")))?;
    if hello.node == local {
        return Err(comm(format!(
            "peer claims our own node id {}: processes sharing a network must be \
             assigned distinct node ids (Network::add_node_with_id)",
            hello.node
        )));
    }
    Ok(hello)
}

/// A serving thread: read a frame, run its calls on this thread, write the
/// reply, read again — until the socket or the link goes.
///
/// Reading garbage (or EOF: the peer only ever closes an idle socket by
/// killing its link) kills the link. A reply that cannot be written closes
/// this socket alone: the caller hung up on it — its deadline expired, or
/// its whole link died and every other socket says so — or, if it is still
/// waiting, reads EOF and kills the link from its side.
///
/// Every buffer the loop touches is reused from frame to frame: the
/// socket's frame buffer and outcome vector, and `calls`, the decoded
/// request's calls. The loop's thread owns them all.
fn serve(link: &Arc<Link>, mut sock: CallSocket) {
    hotpath::count_dispatch_spawned();
    // A socket is a spare until its first frame arrives.
    let mut spare = true;
    let mut calls = Vec::new();
    loop {
        let n = match framing::read_frame(&mut sock.rx, &mut sock.buf) {
            Ok(n) => n,
            Err(e) => {
                link.die(link.read_failed(e));
                break;
            }
        };
        let Some(net) = link.net.upgrade() else {
            link.die(comm("network shut down"));
            break;
        };
        net.count_socket_receive(n);
        // A link whose serving node is gone can serve nothing: its death
        // fails the caller's frame undelivered.
        let Ok(server) = net.server(link.local) else {
            link.die(comm(format!("serving node {} is gone", link.local)));
            break;
        };
        if mem::take(&mut spare) {
            // Replaced before the frame executes: the servant may be about
            // to trigger a call back to us.
            link.spawn_spare();
        }
        let frame = &sock.buf[..n];
        let want_reply = frame.first() != Some(&KIND_ONEWAY);
        let id = match decode_calls(request_kind(want_reply), frame, &mut calls) {
            Ok(id) => id,
            Err(e) => {
                // A frame whose declared counts or lengths disagree with
                // the bytes received, or of a kind that has no business
                // here (a HELLO, a REPLY): the peer's framing is not
                // trustworthy. Reject it with the typed error and tear the
                // link down, so the peer's in-flight calls fail with `Comm`
                // rather than hang.
                link.die(comm(format!("malformed {} frame: {e}", link.kind)));
                break;
            }
        };
        let fresh = execute(&server, &mut calls, &mut sock.outcomes, want_reply);
        release(&mut calls);
        if want_reply {
            encode_reply(id, &sock.outcomes, &mut sock.buf);
            if link.send(&net, &mut sock).is_err() {
                // The lost-reply discipline: the calls executed, these
                // replies will not be re-sent, so the exports freshly
                // pinned for them are released as one batch.
                server.unexport(&fresh);
                link.close(sock, Side::Serving);
                // Below the cap again: a spare withheld at the cap is owed.
                link.spawn_spare();
                break;
            }
        }
        // Written or waived, the staged replies are done with: their
        // payloads go back to the pool, and no outcome of this frame is
        // left to be taken for the next one's.
        for outcome in sock.outcomes.drain(..) {
            if let ReplyOutcome::Ok(wire) = outcome {
                pool::give(wire.bytes);
            }
        }
        sock.consumed();
    }
    hotpath::count_dispatch_reaped();
}

/// Serves one inbound frame's calls, drained from `calls` in submission
/// order, each through [`NetServer::serve`], staging each call's outcome in
/// `outcomes`. Returns the exports freshly pinned by the staged replies;
/// for a one-way frame (`want_reply` false: the sender waived delivery
/// confirmation) the outcomes show in the trace span and are otherwise
/// dropped.
fn execute(
    server: &Arc<NetServer>,
    calls: &mut Vec<RequestCall>,
    outcomes: &mut Vec<ReplyOutcome>,
    want_reply: bool,
) -> Vec<u64> {
    let mut span = spring_trace::span_start(
        keys::NET_BATCH,
        server.domain.trace_scope(),
        calls.len() as u64,
    );
    let mut reply_fresh: Vec<u64> = Vec::new();
    for call in calls.drain(..) {
        let served = server.serve(call.export, call.wire, want_reply);
        if !matches!(served.outcome, ReplyOutcome::Ok(_)) {
            span.fail();
        }
        reply_fresh.extend(served.fresh);
        outcomes.push(served.outcome);
    }
    reply_fresh
}

// ---------------------------------------------------------------------------
// SocketPeer: what reaches one remote process.
// ---------------------------------------------------------------------------

/// A link to one remote OS process, registered in the network's reach table
/// for that process's node.
///
/// Obtained from [`crate::Network::connect_tcp`] /
/// [`crate::Network::connect_uds`] (dialing side, redials on failure) or
/// fabricated by a [`SocketListener`] when a new link generation arrives
/// (accepting side, fails with `Comm` once the client goes away).
pub struct SocketPeer {
    net: Weak<NetworkInner>,
    /// The current link generation, alive or dead. Generations of one peer
    /// share their local node, kind, address and armed write faults.
    link: Mutex<Arc<Link>>,
    /// Serializes redialling: exactly one dial of a new generation may be
    /// in flight per peer, or two concurrent shippers racing a dead link
    /// would each open one. The `link` slot lock is *never* held across the
    /// blocking dial, so `remote_node` / `bootstrap_door` and shippers that
    /// still hold the old generation are not stalled behind a handshake
    /// that can take [`HANDSHAKE_TIMEOUT`].
    redialing: Mutex<()>,
    /// Link generations dialled after construction (diagnostics: the
    /// single-flight guarantee is `redials == link deaths observed`, not
    /// `×` the number of racing shippers, nor the number of sockets).
    redials: AtomicU64,
    /// Self-reference for re-registering under a restarted peer's new node
    /// id.
    me: Weak<SocketPeer>,
}

impl SocketPeer {
    pub(crate) fn connect(
        net: &Arc<NetworkInner>,
        node: NodeId,
        addr: Addr,
    ) -> Result<Arc<SocketPeer>, DoorError> {
        // The run number of this process: drawn once, it tells the
        // generations this process dials from a predecessor's.
        static RUN: OnceLock<u64> = OnceLock::new();
        let run = *RUN.get_or_init(|| RandomState::new().build_hasher().finish());
        let generation = link::first_generation(run);
        let link = Link::open(net, node.raw(), &addr, generation, Arc::default())?;
        let peer = Self::adopt(net, link.clone());
        link.spawn_spare();
        Ok(peer)
    }

    /// Wraps `link` in a peer and registers it as what reaches the link's
    /// remote node (replacing, on the accepting side, the peer of an older
    /// generation wholesale).
    fn adopt(net: &Arc<NetworkInner>, link: Arc<Link>) -> Arc<SocketPeer> {
        let remote = link.remote.node;
        let peer = Arc::new_cyclic(|me| SocketPeer {
            net: Arc::downgrade(net),
            link: Mutex::new(link),
            redialing: Mutex::new(()),
            redials: AtomicU64::new(0),
            me: me.clone(),
        });
        net.register_peer(remote, peer.clone());
        peer
    }

    fn net(&self) -> Result<Arc<NetworkInner>, DoorError> {
        self.net.upgrade().ok_or_else(|| comm("network shut down"))
    }

    /// The current link generation if it is still alive.
    fn current_live(&self) -> Option<Arc<Link>> {
        let link = self.link.lock();
        (!link.is_dead()).then(|| link.clone())
    }

    /// The live link, dialling the next generation if the previous one died
    /// (dialing side only). Redial is single-flight per peer: the slot lock
    /// is only ever held for pointer reads and the final install, and the
    /// blocking dial runs under the dedicated `redialing` mutex, so
    /// shippers racing a dead link produce exactly one new generation (the
    /// losers adopt the winner's).
    fn live_link(&self, net: &Arc<NetworkInner>) -> Result<Arc<Link>, DoorError> {
        if let Some(link) = self.current_live() {
            return Ok(link);
        }
        let _dialing = self.redialing.lock();
        let dead = self.link.lock().clone();
        let Some(generation) = link::redial(dead.remote.generation, dead.is_dead()) else {
            return Ok(dead);
        };
        // Accepted peers cannot dial: their client must come back itself.
        let addr = dead.dial.as_ref().ok_or_else(|| dead.disconnected())?;
        self.redials.fetch_add(1, Ordering::Relaxed);
        let link = Link::open(net, dead.local, addr, generation, dead.inject.clone())?;
        if dead.remote.node != link.remote.node {
            // The peer restarted under a different node id: its new
            // identity routes through this peer too. (The old id's entry
            // stays and fails with "stale export", which is accurate.)
            if let Some(me) = self.me.upgrade() {
                net.register_peer(link.remote.node, me);
            }
        }
        *self.link.lock() = link.clone();
        link.spawn_spare();
        Ok(link)
    }

    /// Link generations dialled since this peer was constructed — one per
    /// observed link death, however many shippers raced the redial.
    pub fn redials(&self) -> u64 {
        self.redials.load(Ordering::Relaxed)
    }

    /// The remote process's node id, as declared in its HELLO.
    pub fn remote_node(&self) -> Option<NodeId> {
        Some(NodeId::from_raw(self.link.lock().remote.node))
    }

    /// The remote process's machine name, as declared in its HELLO.
    pub fn remote_name(&self) -> Option<String> {
        Some(self.link.lock().remote.name.clone())
    }

    /// Imports the peer's advertised bootstrap door as a proxy door owned
    /// by `into` — the first identifier a freshly connected process holds,
    /// from which all further doors are exchanged by ordinary calls.
    pub fn bootstrap_door(&self, into: &Domain) -> Result<DoorId, DoorError> {
        let net = self.net()?;
        let link = self.live_link(&net)?;
        let boot = link
            .remote
            .bootstrap
            .ok_or_else(|| comm("peer published no bootstrap door"))?;
        let server = net.server(link.local)?;
        let door = server.import_cap(WireCap {
            origin: link.remote.node,
            export: boot,
        })?;
        server.domain.transfer_door(door, into)
    }

    /// Arms `n` injected write faults: the next `n` frames written on this
    /// peer's link fail as if the socket write returned an error, killing
    /// the link exactly like a real mid-send failure.
    pub fn inject_write_faults(&self, n: u64) {
        self.link.lock().inject.store(n, Ordering::Relaxed);
    }

    fn ship_inner(
        &self,
        from: &Arc<NetServer>,
        frame: &mut [PendingEntry],
        want_reply: bool,
    ) -> Result<(), DoorError> {
        let net = self.net()?;
        let link = self.live_link(&net)?;
        // The frame is encoded straight into the socket that carries it.
        let mut sock = link.checkout(&net)?;
        let id = link.next_frame.fetch_add(1, Ordering::Relaxed);
        encode_calls(request_kind(want_reply), id, frame, &mut sock.buf);
        let mut sock = link.round_trip(&net, sock, id, frame, want_reply)?;
        if want_reply {
            for (entry, outcome) in frame.iter_mut().zip(sock.outcomes.drain(..)) {
                entry.settle(from, outcome);
            }
        } else {
            // One write on this thread and no read: a failure proves the
            // frame never left; success is all a one-way caller learns.
            hotpath::count_oneway_frame();
            for entry in frame.iter_mut() {
                entry.settle(from, ReplyOutcome::Ok(WireMessage::default()));
            }
        }
        link.checkin(sock);
        Ok(())
    }

    /// Ships one frame of forwarded calls over the link, settling every
    /// entry (the [`crate::transport::Reach`] contract).
    pub(crate) fn ship(&self, from: &Arc<NetServer>, frame: &mut [PendingEntry], want_reply: bool) {
        let calls = frame.len() as u64;
        let mut span = spring_trace::span_start(keys::NET_BATCH, from.domain.trace_scope(), calls);
        if let Err(e) = self.ship_inner(from, frame, want_reply) {
            // The frame failed wholesale (dial failure, send failure, peer
            // disconnect or expired deadline awaiting the reply): whether
            // the peer saw any of it is unknowable, but nobody will ever
            // hear its reply, so every call aboard settles undelivered —
            // the retrying subcontracts re-pin on the next attempt.
            span.fail();
            for entry in frame.iter_mut() {
                entry.settle(from, ReplyOutcome::NotDelivered(e.clone()));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SocketListener: the accepting side.
// ---------------------------------------------------------------------------

/// What the accept loop and the per-socket handshake threads share.
struct Accepting {
    node: NodeId,
    kind: &'static str,
    /// Whether inbound sockets hand over a pipe pair with their HELLO (a
    /// UDS listener) or carry their frames themselves (TCP).
    pipes: bool,
    inject: Arc<AtomicU64>,
    /// Remote node -> the newest link generation it has opened with us.
    links: Mutex<HashMap<u64, Arc<Link>>>,
}

impl Accepting {
    /// Runs the acceptor's half of the HELLO exchange on an inbound stream
    /// (over a UDS, taking the socket's pipe pair over with the HELLO) and
    /// joins it to the link the core's [`link::verdict`] finds for its
    /// HELLO — a straggler is dropped. Returns the socket if it is ours to
    /// serve (the dialer calls on it); one the dialer serves goes to the
    /// link's idle list for our callers.
    fn handshake(
        &self,
        net: &Arc<NetworkInner>,
        mut stream: Stream,
    ) -> Result<Option<(Arc<Link>, CallSocket)>, DoorError> {
        let server = net.server(self.node.raw())?;
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(comm)?;
        let (hello, pipes) = if self.pipes {
            let (hello, carrier) = take_over(&mut stream, self.node.raw())?;
            (hello, Some(carrier))
        } else {
            (read_hello(&mut stream, self.node.raw())?, None)
        };
        let side = if hello.role == ROLE_DIALER_CALLS {
            Side::Serving
        } else {
            Side::Calling
        };
        let echo = encode_hello(&our_hello(&server, hello.role, hello.generation));
        stream.set_read_timeout(None).map_err(comm)?;
        let carrier = match pipes {
            Some(carrier) => carrier,
            None => Carrier::socket(stream.try_clone().map_err(comm)?).map_err(comm)?,
        };
        // Held across the registration: a second socket of a new generation
        // must not be served before the first has registered its peer,
        // or a servant calling straight back finds no route.
        let mut links = self.links.lock();
        let held = links.get(&hello.node).cloned();
        let judged = held.as_ref().map(|l| (l.remote.generation, l.is_dead()));
        let link = match (link::verdict(judged, hello.generation), held) {
            (Verdict::Join, Some(held)) => held,
            (Verdict::Straggler, Some(held)) => {
                return Err(comm(format!(
                    "straggler of generation {} (holding {})",
                    hello.generation, held.remote.generation
                )));
            }
            // Found, or supersede: the held link dies.
            _ => {
                let (node, generation) = (hello.node, hello.generation);
                let local = self.node.raw();
                let link = Link::new(net, local, hello, None, self.kind, self.inject.clone());
                if self.pipes {
                    link.watch(&stream)?;
                }
                if let Some(old) = links.insert(node, link.clone()) {
                    old.die(comm(format!("superseded by generation {generation}")));
                }
                // Registration in the reach table keeps the peer alive.
                SocketPeer::adopt(net, link.clone());
                link
            }
        };
        let sock = link.admit(carrier, side)?;
        drop(links);
        // Joined before the echo leaves: once the dialer may use the socket
        // the link's peer is registered and `die` reaches the socket. The
        // echo goes back on the stream the HELLO came in on.
        if let Err(e) = write_frame_vectored(&mut stream, &echo) {
            link.close(sock, side);
            return Err(comm(e));
        }
        Ok(match side {
            Side::Serving => Some((link, sock)),
            Side::Calling => {
                link.checkin(sock);
                None
            }
        })
    }
}

/// Accepts socket connections for one node; dropping it stops the accept
/// loop (established links live on, but can open no further sockets).
pub struct SocketListener {
    stop: Arc<AtomicBool>,
    /// Where it listens: for TCP, the actual address bound.
    bound: Addr,
    inject: Arc<AtomicU64>,
}

impl SocketListener {
    pub(crate) fn bind(
        net: &Arc<NetworkInner>,
        node: NodeId,
        addr: Addr,
    ) -> Result<Arc<SocketListener>, DoorError> {
        let bind_failed = |e| comm(format!("bind {addr:?}: {e}"));
        let (accept, bound): (Box<dyn Fn() -> io::Result<Stream> + Send>, _) = match &addr {
            Addr::Tcp(a) => {
                let listener = TcpListener::bind(a).map_err(bind_failed)?;
                let local = listener.local_addr().map_err(comm)?.to_string();
                let accept = move || Ok(tcp(listener.accept()?.0));
                (Box::new(accept), Addr::Tcp(local))
            }
            Addr::Uds(p) => {
                // A stale socket file from a previous run would fail the bind.
                let _ = std::fs::remove_file(p);
                let listener = UnixListener::bind(p).map_err(bind_failed)?;
                let accept = move || Ok(listener.accept()?.0);
                (Box::new(accept), addr.clone())
            }
        };
        let (stop, inject) = (Arc::new(AtomicBool::new(false)), Arc::default());
        let accepting = Arc::new(Accepting {
            node,
            kind: addr.kind(),
            pipes: matches!(addr, Addr::Uds(_)),
            inject: Arc::clone(&inject),
            links: Mutex::new(HashMap::new()),
        });
        let (net, stopped) = (Arc::downgrade(net), stop.clone());
        thread::Builder::new()
            .name(format!("spring-sock-accept-{}", addr.kind()))
            .spawn(move || loop {
                // `accept` blocks; dropping the listener sets `stop` and
                // then connects once to wake it.
                let accepted = accept();
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
                // A connection that died in the backlog, or no descriptor
                // left to take one with: pause, so a lasting failure does
                // not spin.
                let Ok(stream) = accepted else {
                    thread::sleep(ACCEPT_BACKOFF);
                    continue;
                };
                let Some(net) = net.upgrade() else { return };
                let accepting = accepting.clone();
                // Each inbound socket handshakes on a thread of its own —
                // the one that goes on to serve it, if it is ours to serve —
                // so a peer that connects and goes silent holds up nobody
                // else. A bad handshake, a straggler or a failed spawn just
                // drops the socket; we keep accepting.
                let _ = thread::Builder::new()
                    .name(format!("spring-sock-serve-{}", accepting.kind))
                    .spawn(move || {
                        let served = accepting.handshake(&net, stream);
                        drop(net);
                        if let Ok(Some((link, sock))) = served {
                            serve(&link, sock);
                        }
                    });
            })
            .map_err(comm)?;
        Ok(Arc::new(SocketListener {
            stop,
            bound,
            inject,
        }))
    }

    /// The bound address — the actual one, so `127.0.0.1:0` reports its
    /// ephemeral port.
    pub fn local_addr(&self) -> &str {
        match &self.bound {
            Addr::Tcp(a) | Addr::Uds(a) => a,
        }
    }

    /// Arms `n` injected write faults on links accepted by this listener
    /// (shared across them): each fault fails one outbound frame as if the
    /// socket write errored, exercising the reply-loss cleanup path
    /// deterministically.
    pub fn inject_write_faults(&self, n: u64) {
        self.inject.store(n, Ordering::Relaxed);
    }
}

impl Drop for SocketListener {
    /// Stops the accept loop: sets `stop`, then wakes the blocked `accept`
    /// with one connection of our own, which the loop drops unserved.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match &self.bound {
            Addr::Tcp(a) => drop(TcpStream::connect(a)),
            Addr::Uds(p) => {
                drop(UnixStream::connect(p));
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Network};
    use spring_kernel::{CallCtx, Message};

    fn echo(_ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }

    /// A frame far larger than the pool keeps of a payload does not pin its
    /// size in the socket that carried it: after a 4 MiB echo the calling
    /// socket's frame buffer and outcome vector hold at most 1 MiB.
    #[test]
    fn a_large_frame_leaves_its_socket_no_larger_than_the_pool_keeps() {
        let path = std::env::temp_dir()
            .join(format!("spring-large-frame-{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let server_net = Network::new(NetConfig::default());
        let server_node = server_net.add_node_with_id("server", 401);
        let servants = server_node.kernel().create_domain("servants");
        let door = servants.create_door(Arc::new(echo)).unwrap();
        server_net
            .set_bootstrap(server_node.id(), &servants, door)
            .unwrap();
        let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

        let client_net = Network::new(NetConfig::default());
        let client_node = client_net.add_node_with_id("client", 402);
        let client = client_node.kernel().create_domain("client");
        let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
        let door = peer.bootstrap_door(&client).unwrap();

        let big = vec![5u8; 4 << 20];
        let reply = client.call(door, Message::from_bytes(big)).unwrap();
        assert_eq!(reply.bytes.len(), 4 << 20);

        let link = peer.link.lock().clone();
        let st = lock(&link.state);
        assert_eq!(st.idle.len(), 1, "one call, one calling socket");
        let sock = &st.idle[0];
        assert!(sock.buf.capacity() <= pool::MAX_RETAINED_CAPACITY);
        let outcomes = sock.outcomes.capacity() * mem::size_of::<ReplyOutcome>();
        assert!(outcomes <= pool::MAX_RETAINED_CAPACITY);
    }

    /// A node nobody introduced to this network fails a call to it where
    /// its frame ships. A dials B and B dials C, so a door of C's that B
    /// hands to A reaches A as a proxy to a node A has no reach for: A's
    /// call through it fails `Comm("unknown node …")`, counts as one
    /// forwarded call in one unbatched frame, and releases the pin made for
    /// its argument door, leaving A's live identifiers where they were.
    #[test]
    fn a_call_to_a_node_nobody_introduced_fails_and_releases_its_pins() {
        let sock = |tag: &str| {
            std::env::temp_dir()
                .join(format!("spring-unknown-{tag}-{}.sock", std::process::id()))
                .to_string_lossy()
                .into_owned()
        };
        let live_ids = |node: &crate::Node| {
            let stats = node.kernel().stats();
            stats.ids_issued - stats.ids_deleted
        };

        // C publishes an echo door.
        let c_net = Network::new(NetConfig::default());
        let c_node = c_net.add_node_with_id("c", 413);
        let servants = c_node.kernel().create_domain("servants");
        let door = servants.create_door(Arc::new(echo)).unwrap();
        c_net.set_bootstrap(c_node.id(), &servants, door).unwrap();
        let c_path = sock("c");
        let _c_listener = c_net.listen_uds(c_node.id(), &c_path).unwrap();

        // B reaches C and publishes a door that hands out C's.
        let b_net = Network::new(NetConfig::default());
        let b_node = b_net.add_node_with_id("b", 412);
        let broker = b_node.kernel().create_domain("broker");
        let to_c = b_net.connect_uds(b_node.id(), &c_path).unwrap();
        let c_echo = to_c.bootstrap_door(&broker).unwrap();
        let hand_out = move |ctx: &CallCtx, _: Message| {
            let doors = vec![ctx.server().copy_door(c_echo)?];
            Ok(Message {
                doors,
                ..Message::default()
            })
        };
        let door = broker.create_door(Arc::new(hand_out)).unwrap();
        b_net.set_bootstrap(b_node.id(), &broker, door).unwrap();
        let b_path = sock("b");
        let _b_listener = b_net.listen_uds(b_node.id(), &b_path).unwrap();

        // A reaches B alone, and is handed C's door.
        let a_net = Network::new(NetConfig::default());
        let a_node = a_net.add_node_with_id("a", 411);
        let client = a_node.kernel().create_domain("client");
        let to_b = a_net.connect_uds(a_node.id(), &b_path).unwrap();
        let broker = to_b.bootstrap_door(&client).unwrap();
        let c_echo = client.call(broker, Message::new()).unwrap().doors[0];

        let baseline = live_ids(&a_node);
        let before = a_net.stats();
        let argument = client.create_door(Arc::new(echo)).unwrap();
        let refused = client.call(
            c_echo,
            Message {
                doors: vec![argument],
                ..Message::default()
            },
        );
        assert!(
            matches!(&refused, Err(DoorError::Comm(why)) if why == "unknown node 413"),
            "{refused:?}",
        );
        assert_eq!(live_ids(&a_node), baseline);
        let shipped = a_net.stats().since(&before);
        assert_eq!(
            (
                shipped.calls_forwarded,
                shipped.batch_flushes,
                shipped.calls_unbatched,
                shipped.messages,
            ),
            (1, 1, 1, 0),
        );
    }

    /// The watcher carries a UDS link's death across the process boundary
    /// by itself: shutting the client's watched stream down — all that a
    /// dying or exiting peer does to it — kills the link on both sides, with
    /// no frame in flight and no socket of the link closed.
    #[test]
    fn a_shut_watched_stream_kills_the_uds_link_on_both_sides() {
        let path = std::env::temp_dir()
            .join(format!("spring-watch-{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let server_net = Network::new(NetConfig::default());
        let server_node = server_net.add_node_with_id("server", 421);
        let servants = server_node.kernel().create_domain("servants");
        let door = servants.create_door(Arc::new(echo)).unwrap();
        server_net
            .set_bootstrap(server_node.id(), &servants, door)
            .unwrap();
        let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();
        let client_net = Network::new(NetConfig::default());
        let client_node = client_net.add_node_with_id("client", 422);
        let client = client_node.kernel().create_domain("client");
        let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
        let door = peer.bootstrap_door(&client).unwrap();
        client.call(door, Message::from_bytes(vec![1])).unwrap();

        let link = peer.link.lock().clone();
        let watched = link.watched.lock().as_ref().unwrap().try_clone().unwrap();
        watched.shutdown(Shutdown::Both).unwrap();
        let started = std::time::Instant::now();
        while client_net.socket_stats().disconnects + server_net.socket_stats().disconnects < 2 {
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "the link lives on"
            );
            thread::sleep(Duration::from_millis(5));
        }
        assert!(link.is_dead());
    }

    /// A socket peer never displaces a node of the network it registers
    /// in: when one node dials a listener of another node of its own
    /// network, both stay reached in process, and a call between them
    /// crosses no socket.
    #[test]
    fn a_peer_never_displaces_a_node_of_its_own_network() {
        let path = std::env::temp_dir()
            .join(format!("spring-loopback-{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let net = Network::new(NetConfig::default());
        let (a, b) = (net.add_node("a"), net.add_node("b"));
        let _listener = net.listen_uds(b.id(), &path).unwrap();
        let peer = net.connect_uds(a.id(), &path).unwrap();
        assert_eq!(peer.remote_node(), Some(b.id()));

        let server = b.kernel().create_domain("server");
        let client = a.kernel().create_domain("client");
        let shipped = Message {
            doors: vec![server.create_door(Arc::new(echo)).unwrap()],
            ..Message::default()
        };
        let proxy = net.ship_message(&server, &client, shipped).unwrap().doors[0];
        let before = net.socket_stats();
        let reply = client.call(proxy, Message::from_bytes(vec![7])).unwrap();
        assert_eq!(reply.bytes, [7]);
        assert_eq!(net.socket_stats().since(&before).frames_sent, 0);
        for node in [a.id(), b.id()] {
            assert!(net.inner.server(node.raw()).is_ok());
        }
    }
}
