//! What reaches a node — the two frame shippers of the reach table, which
//! carry plain calls alone and pipelined calls in the frames
//! [`crate::batch::LinkBatcher`] forms — plus the byte-level frame codec the
//! socket backend speaks.
//!
//! Everything a call meets on its way — proxy doors, wire mapping, per-link
//! batching, how the destination serves it ([`NetServer::serve`]) and how
//! its outcome settles ([`PendingEntry::settle`]) — is written once; a
//! [`Reach`] only carries a formed frame of [`PendingEntry`]s to the node
//! that serves it and the outcomes back. A node of this network is reached
//! in process through the simulated network ([`Reach::Sim`], which
//! preserves the seeded fault behaviour bit for bit); a node in another OS
//! process through the socket backend ([`Reach::Socket`]), which ships the
//! same frames over TCP or Unix-domain sockets — one REQUEST out and its
//! REPLY back per call socket at a time, every socket opened by a HELLO
//! naming its role and link generation (layouts below). Subcontracts cannot
//! tell the difference except by the failure modes DESIGN.md §5.15
//! documents.

use std::sync::Arc;

use spring_kernel::callid::now_micros;
use spring_kernel::{pool, CallId, DoorError};
use spring_trace::TraceCtx;

use crate::batch::PendingEntry;
use crate::server::{NetServer, WireCap, WireMessage};
use crate::socket::SocketPeer;

/// What reaches one destination node: the network's reach table holds one
/// per known node, and a frame ships through one `match` on it.
///
/// Contract of both arms (DESIGN.md §5.15):
///
/// * Shipping runs with no batcher lock held and **settles every entry**
///   before returning; the batcher fails whatever is left unsettled with a
///   `Comm` abort rather than let its caller hang.
/// * Calls within one frame are served at the destination in submission
///   order, each through [`NetServer::serve`]; no ordering is promised
///   *across* frames.
/// * Every outcome reaches its caller through [`PendingEntry::settle`], so
///   failures speak one taxonomy: what a retrying subcontract should treat
///   as transient (lost frame, dead connection, stale export on a restarted
///   peer) is [`DoorError::Comm`], and a frame that fails before delivery
///   settles every call aboard [`ReplyOutcome::NotDelivered`], releasing
///   the exports freshly pinned for it.
/// * Without `want_reply` (DESIGN.md §5.16) the frame crosses the wire once
///   and no reply frame comes back: an error means the call provably did
///   not reach its handler (pins released), `Ok` that it was handed to the
///   wire — the simulator, omniscient, also reports a receiver-side
///   delivery failure; a socket reports only a failed write. Only
///   best-effort traffic belongs here.
#[derive(Clone)]
pub(crate) enum Reach {
    /// A node of this network: its network server, which serves frames in
    /// this process after the simulated hop
    /// ([`crate::network::NetworkInner`]'s `ship_frame`).
    Sim(Arc<NetServer>),
    /// A node in another OS process: the socket peer that reached it
    /// ([`SocketPeer::ship`]).
    Socket(Arc<SocketPeer>),
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------
//
// The socket backend exchanges length-prefixed frames (the prefix handled
// by `crate::framing`); the payload layout here is deliberately
// flat and little-endian throughout:
//
//   HELLO:   [kind=1][u64 node][u8 has_boot][u64 boot_export]
//            [u8 role][u64 generation][u16 name_len][name bytes]
//            (first frame on every socket, dialer first; role 0 = the
//            dialing side calls on this socket, 1 = it serves it; the
//            accepting side's HELLO echoes both)
//   REQUEST: [kind=2][u64 frame_id][u32 ncalls] then per call
//            [u64 export][envelope][u32 ncaps]
//            [ncaps × (u64 origin, u64 export)][u32 nbytes][payload]
//   REPLY:   [kind=3][u64 frame_id][u32 ncalls] then per call
//            [u8 status] where status 0 (ok) is followed by
//            [envelope][u32 ncaps][caps][u32 nbytes][payload]
//            and statuses 1 (not delivered) / 2 (failed in execution) by
//            [u8 error kind][u32 msg_len][utf-8 message]
//   ONEWAY:  [kind=4] then exactly the REQUEST layout after the kind byte;
//            no REPLY frame is ever produced for it
//
//   envelope: [u8 flags] then only the fields whose flag is set, in order:
//            bit 0, the call identity: [u64 nonce][u32 attempt][u64 µs left]
//            (the deadline as time left, at least 1; 0 = no deadline);
//            bit 1, the trace context: [u64 trace][u64 span].
//            Any other bit is a `BadTag`. An untraced, identity-free call's
//            envelope is the one flag byte.
//
// The envelope is the message's piggybacked control data (the paper's §5
// dialogue) and `put_envelope`/`get_envelope` are the only code that knows
// its bytes: the simulated network moves `WireMessage.call`/`.trace` as
// typed values. A deadline is absolute on the sending process's clock, so
// it travels as the time left and the receiver re-anchors it on its own.
//
// The payload bytes are the marshalled `WireMessage.bytes` **unmodified**:
// a flat IDL frame produced by the IDL compiler travels byte-identical and
// is validated in place on the receive side's one copy of it — the socket
// layer never re-marshals, re-aligns, or re-tags application payloads.
//
// Buffers: the encoders write into, and the decoders decode into, vectors
// their caller owns and reuses from frame to frame (a call socket's, or
// its serving loop's); a decoded payload is drawn from the buffer pool.
//
// Decoding is fully defensive and returns `spring_buf::WireError`: a frame
// whose declared counts or lengths disagree with the bytes received is
// rejected with `Truncated`/`OverLength`, unknown kind/status/error tags
// with `BadTag` — never a panic, never an out-of-bounds read, never a
// hang (the outer length prefix bounds every read up front).

use spring_buf::WireError;

pub(crate) const KIND_HELLO: u8 = 1;
pub(crate) const KIND_REQUEST: u8 = 2;
pub(crate) const KIND_REPLY: u8 = 3;
/// A reply-less request: per-call layout identical to `KIND_REQUEST`, but
/// the receiver sends nothing back and the sender reads nothing.
/// Doors a reply would have carried are deleted at the serving side.
pub(crate) const KIND_ONEWAY: u8 = 4;

/// Reply status: the call executed and this is its reply.
const STATUS_OK: u8 = 0;
/// Reply status: the call never reached its serving domain (stale export,
/// failed import); the sender must release the exports it pinned.
const STATUS_NOT_DELIVERED: u8 = 1;
/// Reply status: the call was delivered but failed in execution.
const STATUS_FAILED: u8 = 2;

/// HELLO role: the dialing side calls on this socket, the accepting side
/// serves it.
pub(crate) const ROLE_DIALER_CALLS: u8 = 0;
/// HELLO role: the dialing side serves this socket, the accepting side
/// calls on it (callbacks, pub/sub deliveries).
pub(crate) const ROLE_DIALER_SERVES: u8 = 1;

/// The socket-opening exchange: each side sends one HELLO first thing, the
/// dialer first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hello {
    pub node: u64,
    pub name: String,
    /// Export id of the node's bootstrap door, if it published one.
    pub bootstrap: Option<u64>,
    /// Which side calls on this socket ([`ROLE_DIALER_CALLS`] or
    /// [`ROLE_DIALER_SERVES`]); chosen by the dialer, echoed by the
    /// acceptor.
    pub role: u8,
    /// The link generation this socket belongs to: counted by the dialer,
    /// one per (re)dialled link, under a per-process number in the high
    /// half; echoed by the acceptor.
    pub generation: u64,
}

/// One call riding a request frame.
#[derive(Debug)]
pub(crate) struct RequestCall {
    pub export: u64,
    pub wire: WireMessage,
}

/// What became of one forwarded call: produced by [`NetServer::serve`] (and
/// by a shipper whose frame could not travel), carried by a reply frame,
/// consumed by [`PendingEntry::settle`]. Generic so the batcher's model
/// settles plain ids with it.
#[derive(Debug)]
pub(crate) enum ReplyOutcome<W = WireMessage, E = DoorError> {
    Ok(W),
    /// Failed before the call reached its serving domain: the *sender*
    /// still owns responsibility for the exports it pinned for this call
    /// and releases them.
    NotDelivered(E),
    /// Delivered but failed in execution, or a reply that could not
    /// travel; the serving side has already cleaned up what landed, the
    /// sender's pins stay (the receiving node's proxy table references
    /// them).
    Failed(E),
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_error(out: &mut Vec<u8>, e: &DoorError) {
    let (kind, msg): (u8, &str) = match e {
        DoorError::InvalidDoor => (0, ""),
        DoorError::Revoked => (1, ""),
        DoorError::DomainDead => (2, ""),
        DoorError::Comm(m) => (3, m),
        DoorError::Handler(m) => (4, m),
        DoorError::NotPermitted => (5, ""),
        DoorError::InvalidShm => (6, ""),
    };
    out.push(kind);
    put_u32(out, msg.len() as u32);
    out.extend_from_slice(msg.as_bytes());
}

/// Envelope flag: the call identity follows.
const ENVELOPE_CALL: u8 = 1;
/// Envelope flag: the trace context follows.
const ENVELOPE_TRACE: u8 = 2;

/// Writes a message's envelope: the flag byte, then only the fields that
/// are set, a deadline as the microseconds it has left (at least 1).
fn put_envelope(out: &mut Vec<u8>, call: CallId, trace: TraceCtx) {
    out.push((ENVELOPE_CALL * call.is_some() as u8) | (ENVELOPE_TRACE * trace.is_some() as u8));
    if call.is_some() {
        put_u64(out, call.nonce);
        put_u32(out, call.attempt);
        let left = match call.deadline_micros {
            0 => 0,
            due => due.saturating_sub(now_micros()).max(1),
        };
        put_u64(out, left);
    }
    if trace.is_some() {
        put_u64(out, trace.trace);
        put_u64(out, trace.span);
    }
}

fn put_wire(out: &mut Vec<u8>, wire: &WireMessage) {
    put_envelope(out, wire.call, wire.trace);
    put_u32(out, wire.caps.len() as u32);
    for cap in &wire.caps {
        put_u64(out, cap.origin);
        put_u64(out, cap.export);
    }
    put_u32(out, wire.bytes.len() as u32);
    out.extend_from_slice(&wire.bytes);
}

pub(crate) fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + hello.name.len());
    out.push(KIND_HELLO);
    put_u64(&mut out, hello.node);
    out.push(hello.bootstrap.is_some() as u8);
    put_u64(&mut out, hello.bootstrap.unwrap_or(0));
    out.push(hello.role);
    put_u64(&mut out, hello.generation);
    let name = &hello.name.as_bytes()[..hello.name.len().min(u16::MAX as usize)];
    put_u16(&mut out, name.len() as u16);
    out.extend_from_slice(name);
    out
}

/// Starts a frame of `kind` in `out`, replacing whatever it held: the
/// header every request-shaped and reply frame shares.
fn put_header(out: &mut Vec<u8>, kind: u8, id: u64, count: usize) {
    out.clear();
    out.push(kind);
    put_u64(out, id);
    put_u32(out, count as u32);
}

/// Encodes a request-shaped frame (`KIND_REQUEST` or `KIND_ONEWAY`) of the
/// calls aboard `frame` into `out`, which it replaces.
pub(crate) fn encode_calls(kind: u8, id: u64, frame: &[PendingEntry], out: &mut Vec<u8>) {
    put_header(out, kind, id, frame.len());
    for entry in frame {
        put_u64(out, entry.export);
        put_wire(out, entry.request());
    }
}

/// Encodes a reply frame of `outcomes` into `out`, which it replaces.
pub(crate) fn encode_reply(id: u64, outcomes: &[ReplyOutcome], out: &mut Vec<u8>) {
    put_header(out, KIND_REPLY, id, outcomes.len());
    for outcome in outcomes {
        match outcome {
            ReplyOutcome::Ok(wire) => {
                out.push(STATUS_OK);
                put_wire(out, wire);
            }
            ReplyOutcome::NotDelivered(e) => {
                out.push(STATUS_NOT_DELIVERED);
                put_error(out, e);
            }
            ReplyOutcome::Failed(e) => {
                out.push(STATUS_FAILED);
                put_error(out, e);
            }
        }
    }
}

/// A bounds-checked little-endian cursor over one received frame. Every
/// read is validated against the frame length, so a lying count or length
/// field produces a typed [`WireError`] instead of a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated {
            needed: usize::MAX,
            actual: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                needed: end,
                actual: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The frame must be fully consumed: trailing bytes mean the declared
    /// counts disagree with the received length.
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::OverLength {
                expected: self.pos,
                actual: self.buf.len(),
            });
        }
        Ok(())
    }
}

/// An unknown one-byte tag (kind, status, role, error kind or envelope
/// flags) read at `offset`.
fn bad_tag(offset: usize, value: u8) -> WireError {
    WireError::BadTag {
        offset,
        value: value.into(),
    }
}

fn get_error(c: &mut Cursor<'_>) -> Result<DoorError, WireError> {
    let kind_off = c.pos;
    let kind = c.u8()?;
    let len = c.u32()? as usize;
    let msg = String::from_utf8_lossy(c.take(len)?).into_owned();
    Ok(match kind {
        0 => DoorError::InvalidDoor,
        1 => DoorError::Revoked,
        2 => DoorError::DomainDead,
        3 => DoorError::Comm(msg),
        4 => DoorError::Handler(msg),
        5 => DoorError::NotPermitted,
        6 => DoorError::InvalidShm,
        other => return Err(bad_tag(kind_off, other)),
    })
}

/// Reads what [`put_envelope`] wrote, re-anchoring a deadline on this
/// process's clock; an absent field reads as its `NONE`.
fn get_envelope(c: &mut Cursor<'_>) -> Result<(CallId, TraceCtx), WireError> {
    let flags_off = c.pos;
    let flags = c.u8()?;
    if flags & !(ENVELOPE_CALL | ENVELOPE_TRACE) != 0 {
        return Err(bad_tag(flags_off, flags));
    }
    let mut call = CallId::NONE;
    if flags & ENVELOPE_CALL != 0 {
        call.nonce = c.u64()?;
        call.attempt = c.u32()?;
        call.deadline_micros = match c.u64()? {
            0 => 0,
            left => now_micros().saturating_add(left),
        };
    }
    let mut trace = TraceCtx::NONE;
    if flags & ENVELOPE_TRACE != 0 {
        trace.trace = c.u64()?;
        trace.span = c.u64()?;
    }
    Ok((call, trace))
}

fn get_wire(c: &mut Cursor<'_>) -> Result<WireMessage, WireError> {
    let (call, trace) = get_envelope(c)?;
    let ncaps = c.u32()? as usize;
    // Bound the pre-allocation by what the rest of the frame could hold (16
    // bytes per cap), so a lying count fails on the read, not the reserve.
    let mut caps = Vec::with_capacity(ncaps.min(c.remaining() / 16));
    for _ in 0..ncaps {
        let origin = c.u64()?;
        let export = c.u64()?;
        caps.push(WireCap { origin, export });
    }
    let nbytes = c.u32()? as usize;
    // The payload is copied out of the read buffer exactly once — the
    // receive copy a real network always pays — into a pooled backing,
    // which whoever consumes the message gives back. Downstream flat
    // decoding validates in place on this very allocation. An empty
    // payload draws nothing, as the kernel's copy draws nothing for one.
    let payload = c.take(nbytes)?;
    let mut bytes = Vec::new();
    if !payload.is_empty() {
        bytes = pool::take(payload.len());
        bytes.extend_from_slice(payload);
    }
    Ok(WireMessage {
        bytes,
        caps,
        trace,
        call,
    })
}

pub(crate) fn decode_hello(frame: &[u8]) -> Result<Hello, WireError> {
    let mut c = Cursor::new(frame);
    expect_kind(&mut c, KIND_HELLO)?;
    let node = c.u64()?;
    let has_boot = c.u8()?;
    if has_boot > 1 {
        return Err(WireError::BadBool {
            offset: 9,
            value: has_boot,
        });
    }
    let boot = c.u64()?;
    let role = c.u8()?;
    if role > ROLE_DIALER_SERVES {
        return Err(bad_tag(18, role));
    }
    let generation = c.u64()?;
    let name_len = c.u16()? as usize;
    let name = String::from_utf8_lossy(c.take(name_len)?).into_owned();
    c.finish()?;
    Ok(Hello {
        node,
        name,
        bootstrap: (has_boot == 1).then_some(boot),
        role,
        generation,
    })
}

fn expect_kind(c: &mut Cursor<'_>, kind: u8) -> Result<(), WireError> {
    let got = c.u8()?;
    if got != kind {
        return Err(bad_tag(0, got));
    }
    Ok(())
}

/// Decodes a frame of `kind` whose header declares its items, each read by
/// `item`, into `out` and returns the frame id. `out` is cleared first and
/// left empty if the frame is malformed, so nothing decoded from one frame
/// can be taken for another's; it grows only as items decode, never by a
/// count the frame declares.
fn decode_into<T>(
    kind: u8,
    frame: &[u8],
    out: &mut Vec<T>,
    mut item: impl FnMut(&mut Cursor<'_>) -> Result<T, WireError>,
) -> Result<u64, WireError> {
    out.clear();
    let decoded = (|| {
        let mut c = Cursor::new(frame);
        expect_kind(&mut c, kind)?;
        let id = c.u64()?;
        for _ in 0..c.u32()? {
            out.push(item(&mut c)?);
        }
        c.finish()?;
        Ok(id)
    })();
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

/// Decodes a request-shaped frame of the given `kind` (`KIND_REQUEST` or
/// `KIND_ONEWAY`) into `calls`; returns its frame id.
pub(crate) fn decode_calls(
    kind: u8,
    frame: &[u8],
    calls: &mut Vec<RequestCall>,
) -> Result<u64, WireError> {
    decode_into(kind, frame, calls, |c| {
        let export = c.u64()?;
        let wire = get_wire(c)?;
        Ok(RequestCall { export, wire })
    })
}

/// Decodes a reply frame into `outcomes`; returns its frame id.
pub(crate) fn decode_reply(
    frame: &[u8],
    outcomes: &mut Vec<ReplyOutcome>,
) -> Result<u64, WireError> {
    decode_into(KIND_REPLY, frame, outcomes, |c| {
        let status_off = c.pos;
        Ok(match c.u8()? {
            STATUS_OK => ReplyOutcome::Ok(get_wire(c)?),
            STATUS_NOT_DELIVERED => ReplyOutcome::NotDelivered(get_error(c)?),
            STATUS_FAILED => ReplyOutcome::Failed(get_error(c)?),
            other => return Err(bad_tag(status_off, other)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_kernel::callid::deadline_after;
    use std::time::Duration;

    fn sample_wire(payload: &[u8], caps: &[(u64, u64)]) -> WireMessage {
        WireMessage {
            bytes: payload.to_vec(),
            caps: caps
                .iter()
                .map(|&(origin, export)| WireCap { origin, export })
                .collect(),
            trace: TRACE,
            call: CALL,
        }
    }

    /// A call identity without a deadline, which reads back unchanged.
    const CALL: CallId = CallId {
        nonce: 0x0123_4567_89ab_cdef,
        attempt: 7,
        deadline_micros: 0,
    };
    const TRACE: TraceCtx = TraceCtx {
        trace: 0xfeed_f00d,
        span: 42,
    };

    fn envelope(call: CallId, trace: TraceCtx) -> Vec<u8> {
        let mut out = Vec::new();
        put_envelope(&mut out, call, trace);
        out
    }

    /// Offset of the first call's envelope in a request frame: kind 1 +
    /// frame id 8 + call count 4 + export 8.
    const ENVELOPE_AT: usize = 21;

    /// Each field is sent only when set: 1, 21, 17 and 37 bytes, and each
    /// comes back as it went, an absent one as its `NONE`.
    #[test]
    fn the_envelope_carries_only_what_is_set() {
        for (call, trace, len) in [
            (CallId::NONE, TraceCtx::NONE, 1),
            (CALL, TraceCtx::NONE, 21),
            (CallId::NONE, TRACE, 17),
            (CALL, TRACE, 37),
        ] {
            let enc = envelope(call, trace);
            assert_eq!(enc.len(), len);
            let mut c = Cursor::new(&enc);
            assert_eq!(get_envelope(&mut c).unwrap(), (call, trace));
            c.finish().unwrap();

            // Inside a frame, every cut inside a present field fails typed
            // and settles nothing.
            let wire = WireMessage {
                call,
                trace,
                ..WireMessage::default()
            };
            let enc = calls_frame(KIND_REQUEST, 1, vec![(5, wire)]);
            let (_, calls) = calls_of(KIND_REQUEST, &enc).unwrap();
            assert_eq!((calls[0].wire.call, calls[0].wire.trace), (call, trace));
            for cut in ENVELOPE_AT + 1..ENVELOPE_AT + len {
                let mut calls = vec![stale_call()];
                let err = decode_calls(KIND_REQUEST, &enc[..cut], &mut calls).unwrap_err();
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "len {len}, cut at {cut}: {err:?}"
                );
                assert!(calls.is_empty(), "len {len}, cut at {cut} left calls");
            }
        }
    }

    #[test]
    fn an_unknown_envelope_bit_gets_typed_rejection() {
        let enc = calls_frame(KIND_REQUEST, 1, vec![(5, sample_wire(b"x", &[]))]);
        for bit in 2..8 {
            let mut bad = enc.clone();
            bad[ENVELOPE_AT] |= 1 << bit;
            let mut calls = vec![stale_call()];
            assert_eq!(
                decode_calls(KIND_REQUEST, &bad, &mut calls).unwrap_err(),
                WireError::BadTag {
                    offset: ENVELOPE_AT,
                    value: bad[ENVELOPE_AT] as u32
                }
            );
            assert!(calls.is_empty());
        }
    }

    /// A deadline leaves as the microseconds it has left, never 0 (which
    /// is "no deadline"), and is re-anchored on the receiver's clock.
    #[test]
    fn a_deadline_travels_as_the_time_left() {
        let left_of = |deadline_micros| {
            let enc = envelope(
                CallId {
                    deadline_micros,
                    ..CALL
                },
                TraceCtx::NONE,
            );
            u64::from_le_bytes(enc[13..21].try_into().unwrap())
        };
        let d = 5_000_000;
        let due = deadline_after(Duration::from_micros(d));
        let left = left_of(due);
        assert!(0 < left && left <= d, "{left} µs left of {d}");
        while now_micros() < 2 {}
        assert_eq!(left_of(1), 1, "an expired deadline is sent as 1 µs left");
        assert_eq!(left_of(0), 0);

        let enc = envelope(
            CallId {
                deadline_micros: due,
                ..CALL
            },
            TraceCtx::NONE,
        );
        let before = now_micros();
        let (call, _) = get_envelope(&mut Cursor::new(&enc)).unwrap();
        let sent_left = u64::from_le_bytes(enc[13..21].try_into().unwrap());
        assert!(
            before + sent_left <= call.deadline_micros
                && call.deadline_micros <= now_micros() + sent_left
        );
    }

    #[test]
    fn hello_round_trip() {
        for (boot, role) in [(None, ROLE_DIALER_CALLS), (Some(41), ROLE_DIALER_SERVES)] {
            let hello = Hello {
                node: 12,
                name: "peer-a".into(),
                bootstrap: boot,
                role,
                generation: 3,
            };
            let enc = encode_hello(&hello);
            assert_eq!(enc[0], KIND_HELLO);
            assert_eq!(decode_hello(&enc).unwrap(), hello);
            for cut in 0..enc.len() {
                assert!(
                    matches!(
                        decode_hello(&enc[..cut]).unwrap_err(),
                        WireError::Truncated { .. }
                    ),
                    "cut at {cut}"
                );
            }
            // Role is a two-valued tag at offset 18.
            let mut bad = enc.clone();
            bad[18] = 2;
            assert_eq!(
                decode_hello(&bad).unwrap_err(),
                WireError::BadTag {
                    offset: 18,
                    value: 2
                }
            );
        }
    }

    /// A request-shaped frame of `kind` carrying `calls`, encoded over a
    /// buffer holding stale bytes the encoder must replace.
    fn calls_frame(kind: u8, id: u64, calls: Vec<(u64, WireMessage)>) -> Vec<u8> {
        let frame: Vec<PendingEntry> = calls
            .into_iter()
            .map(|(export, wire)| PendingEntry::shipped_by_caller(export, wire))
            .collect();
        let mut out = vec![0xEE; 3];
        encode_calls(kind, id, &frame, &mut out);
        out
    }

    /// A reply frame of `outcomes`, encoded like [`calls_frame`].
    fn reply_frame(id: u64, outcomes: &[ReplyOutcome]) -> Vec<u8> {
        let mut out = vec![0xEE; 3];
        encode_reply(id, outcomes, &mut out);
        out
    }

    /// A call the decoders are handed before they decode, standing for
    /// what an earlier frame left behind.
    fn stale_call() -> RequestCall {
        RequestCall {
            export: 99,
            wire: sample_wire(b"stale", &[]),
        }
    }

    fn calls_of(kind: u8, frame: &[u8]) -> Result<(u64, Vec<RequestCall>), WireError> {
        let mut calls = vec![stale_call()];
        decode_calls(kind, frame, &mut calls).map(|id| (id, calls))
    }

    fn outcomes_of(frame: &[u8]) -> Result<(u64, Vec<ReplyOutcome>), WireError> {
        let mut outcomes = vec![ReplyOutcome::Failed(DoorError::Revoked)];
        decode_reply(frame, &mut outcomes).map(|id| (id, outcomes))
    }

    #[test]
    fn request_round_trip_preserves_payload_and_envelope() {
        let w1 = sample_wire(b"abcdef", &[(1, 2), (3, 4)]);
        let w2 = sample_wire(b"", &[]);
        let enc = calls_frame(KIND_REQUEST, 77, vec![(10, w1), (11, w2)]);
        let (id, calls) = calls_of(KIND_REQUEST, &enc).unwrap();
        assert_eq!(id, 77);
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].export, 10);
        assert_eq!(calls[0].wire.bytes, b"abcdef");
        assert_eq!(calls[0].wire.caps.len(), 2);
        assert_eq!(calls[0].wire.caps[1].export, 4);
        assert_eq!(calls[0].wire.trace, TRACE);
        assert_eq!(calls[0].wire.call, CALL);
        assert_eq!(calls[1].export, 11);
        assert!(calls[1].wire.bytes.is_empty());
    }

    #[test]
    fn oneway_round_trip_shares_request_layout() {
        let w = || sample_wire(b"notify", &[(1, 2)]);
        let enc = calls_frame(KIND_ONEWAY, 42, vec![(10, w())]);
        assert_eq!(enc[0], KIND_ONEWAY);
        let (id, calls) = calls_of(KIND_ONEWAY, &enc).unwrap();
        assert_eq!(id, 42);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].export, 10);
        assert_eq!(calls[0].wire.bytes, b"notify");
        // Byte-identical to a request frame except the kind byte, so every
        // defensive-decoding property proven for requests carries over.
        let req = calls_frame(KIND_REQUEST, 42, vec![(10, w())]);
        assert_eq!(enc[1..], req[1..]);
        assert!(matches!(
            calls_of(KIND_REQUEST, &enc).unwrap_err(),
            WireError::BadTag { .. }
        ));
        assert!(matches!(
            calls_of(KIND_ONEWAY, &req).unwrap_err(),
            WireError::BadTag { .. }
        ));
        for cut in 0..enc.len() {
            assert!(calls_of(KIND_ONEWAY, &enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn reply_round_trip_all_statuses() {
        let enc = reply_frame(
            5,
            &[
                ReplyOutcome::Ok(sample_wire(b"xy", &[(8, 9)])),
                ReplyOutcome::NotDelivered(DoorError::Comm("stale export 3".into())),
                ReplyOutcome::Failed(DoorError::Handler("boom".into())),
                ReplyOutcome::Failed(DoorError::Revoked),
            ],
        );
        let (id, outcomes) = outcomes_of(&enc).unwrap();
        assert_eq!(id, 5);
        assert_eq!(outcomes.len(), 4);
        assert!(matches!(&outcomes[0], ReplyOutcome::Ok(w) if w.bytes == b"xy"));
        assert!(matches!(
            &outcomes[1],
            ReplyOutcome::NotDelivered(DoorError::Comm(m)) if m == "stale export 3"
        ));
        assert!(matches!(
            &outcomes[2],
            ReplyOutcome::Failed(DoorError::Handler(m)) if m == "boom"
        ));
        assert!(matches!(
            &outcomes[3],
            ReplyOutcome::Failed(DoorError::Revoked)
        ));
    }

    /// Every cut of a frame fails typed, and leaves the vector it decoded
    /// into empty: a frame that failed partway settles nothing.
    #[test]
    fn truncated_frames_get_typed_rejection() {
        let w = sample_wire(&[1; 100], &[(1, 2)]);
        let enc = calls_frame(KIND_REQUEST, 1, vec![(5, w)]);
        // Every possible truncation point must produce a typed error, and
        // in particular a payload length field pointing past the end must
        // come back Truncated, never panic.
        for cut in 0..enc.len() {
            let mut calls = vec![stale_call()];
            let err = decode_calls(KIND_REQUEST, &enc[..cut], &mut calls).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
            assert!(calls.is_empty(), "cut at {cut} left {} calls", calls.len());
        }
        let enc = reply_frame(
            1,
            &[
                ReplyOutcome::Ok(sample_wire(b"first", &[])),
                ReplyOutcome::Failed(DoorError::Handler("second".into())),
                ReplyOutcome::Ok(sample_wire(b"third", &[(3, 4)])),
            ],
        );
        for cut in 0..enc.len() {
            let mut outcomes = Vec::new();
            let err = decode_reply(&enc[..cut], &mut outcomes).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
            assert!(outcomes.is_empty(), "cut at {cut} left outcomes");
        }
    }

    #[test]
    fn trailing_bytes_get_typed_rejection() {
        let w = sample_wire(b"zz", &[]);
        let mut enc = calls_frame(KIND_REQUEST, 1, vec![(5, w)]);
        enc.push(0);
        let mut calls = Vec::new();
        assert!(matches!(
            decode_calls(KIND_REQUEST, &enc, &mut calls).unwrap_err(),
            WireError::OverLength { .. }
        ));
        // The one call decoded before the stray byte was found is gone.
        assert!(calls.is_empty());
    }

    #[test]
    fn lying_counts_get_typed_rejection() {
        let w = sample_wire(b"abc", &[(1, 2)]);
        // Inflate the cap count field, which follows the envelope, far past
        // the frame end.
        let at = ENVELOPE_AT + envelope(w.call, w.trace).len();
        let mut enc = calls_frame(KIND_REQUEST, 1, vec![(5, w)]);
        enc[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            calls_of(KIND_REQUEST, &enc).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    /// A reply that declares `u32::MAX` outcomes over 64 KiB of valid
    /// 6-byte ones fails `Truncated`, and the outcome vector grew only with
    /// what decoded: an 88-byte outcome per declared one would have been
    /// a reservation of hundreds of gigabytes.
    #[test]
    fn a_lying_reply_count_reserves_nothing() {
        let failed = ReplyOutcome::Failed(DoorError::InvalidDoor);
        let one = reply_frame(0, std::slice::from_ref(&failed)).split_off(13);
        assert_eq!(one.len(), 6);
        let mut enc = reply_frame(7, &[]);
        enc[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        while enc.len() + one.len() <= 13 + 64 * 1024 {
            enc.extend_from_slice(&one);
        }
        let mut outcomes = Vec::new();
        assert!(matches!(
            decode_reply(&enc, &mut outcomes).unwrap_err(),
            WireError::Truncated { .. }
        ));
        assert!(outcomes.is_empty());
        assert!(
            outcomes.capacity() <= 2 * (enc.len() / 6),
            "{} outcomes reserved for a {}-byte frame",
            outcomes.capacity(),
            enc.len()
        );
    }

    /// A decoder handed a vector an earlier frame filled clears it first,
    /// so no outcome of that frame can settle a call of this one.
    #[test]
    fn decoders_replace_what_they_are_handed() {
        let enc = calls_frame(KIND_REQUEST, 3, vec![(5, sample_wire(b"new", &[]))]);
        let (_, calls) = calls_of(KIND_REQUEST, &enc).unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(
            (calls[0].export, &calls[0].wire.bytes[..]),
            (5, &b"new"[..])
        );

        let enc = reply_frame(3, &[]);
        let (_, outcomes) = outcomes_of(&enc).unwrap();
        assert!(outcomes.is_empty());
    }

    /// A decoded payload is drawn from the decoding thread's buffer pool,
    /// whoever consumes it gives it back.
    #[test]
    fn decoded_payloads_come_from_the_pool() {
        // On a thread of its own, whose pool holds just this one backing.
        std::thread::scope(|s| {
            s.spawn(|| {
                let backing = Vec::with_capacity(64);
                let at = backing.as_ptr();
                pool::give(backing);
                let enc = calls_frame(KIND_REQUEST, 1, vec![(5, sample_wire(b"pooled", &[]))]);
                let (_, calls) = calls_of(KIND_REQUEST, &enc).unwrap();
                assert_eq!(calls[0].wire.bytes.as_ptr(), at);
            });
        });
    }

    #[test]
    fn bad_tags_get_typed_rejection() {
        let w = sample_wire(b"", &[]);
        let mut enc = reply_frame(1, &[ReplyOutcome::Ok(w)]);
        enc[13] = 9; // status byte
        assert!(matches!(
            outcomes_of(&enc).unwrap_err(),
            WireError::BadTag { value: 9, .. }
        ));
        let mut enc = calls_frame(KIND_REQUEST, 1, Vec::new());
        enc[0] = 200; // frame kind
        assert!(matches!(
            calls_of(KIND_REQUEST, &enc).unwrap_err(),
            WireError::BadTag { value: 200, .. }
        ));
    }
}
