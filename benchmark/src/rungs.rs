//! The ladder's rungs for an interface exported through simplex, and the
//! taps that make the lower rungs possible without knowing any wire format.
//!
//! Outside-in means the benchmark may only call public entry points. To
//! call a skeleton, a door or `SpringObj::invoke` directly it needs the
//! exact bytes a generated stub would have marshalled, positioned the way
//! the server subcontract would have left them. Rather than re-encode
//! arguments by hand (and silently drift when the IDL compiler changes),
//! a capture pass sends every table position once through two taps: a
//! client-side subcontract that wraps the real object and records the
//! marshalled call and the reply as the stub sees them, and a server-side
//! `Dispatch` that wraps the real skeleton and records where in the
//! request the skeleton starts reading and where in the reply it starts
//! writing. The lower rungs replay those bytes and compare replies with
//! the captured ones — which the stub-level model check vouched for.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, Domain, DomainId, DoorError, DoorHandler, DoorId, Message};
use subcontract::{
    Dispatch, DomainCtx, ObjParts, Repr, ScId, ServerCtx, SpringError, SpringObj, Subcontract,
    TypeInfo,
};

use crate::drive::Rung;
use crate::service::Service;

/// Everything the lower rungs need to replay one table position.
#[derive(Debug)]
pub struct Capture {
    /// The marshalled call: subcontract preamble, op number, arguments.
    pub req: Vec<u8>,
    /// The reply after the client subcontract stripped its control region:
    /// status byte plus results, exactly what the skeleton wrote.
    pub reply: Vec<u8>,
    /// The whole reply message as it crossed the door.
    pub reply_len: usize,
    pub op: u32,
    /// Read position in `req` when the skeleton takes over.
    pub args_pos: usize,
    /// Bytes already in the reply buffer when the skeleton takes over.
    pub reply_prefix: usize,
}

// ------------------------------------------------------------ client tap

#[derive(Debug)]
struct TapRepr {
    inner: SpringObj,
}

/// A pass-through subcontract: preamble and invoke go to the wrapped
/// object's own subcontract; `invoke` copies the bytes going by.
struct TapSc {
    seen: Mutex<Option<(Vec<u8>, Vec<u8>)>>,
}

impl Subcontract for TapSc {
    fn id(&self) -> ScId {
        ScId::from_name("benchmark-tap")
    }

    fn name(&self) -> &'static str {
        "benchmark-tap"
    }

    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> subcontract::Result<()> {
        let inner = &obj.repr().downcast::<TapRepr>(self.name())?.inner;
        inner.subcontract().invoke_preamble(inner, call)
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> subcontract::Result<CommBuffer> {
        let inner = &obj.repr().downcast::<TapRepr>(self.name())?.inner;
        let msg = call.into_message();
        let req = msg.bytes.clone();
        let reply = inner.invoke(CommBuffer::from_message(msg))?;
        // Copy what is left for the stub, then hand back an identical
        // buffer at the identical read position.
        let pos = reply.read_pos();
        let msg = reply.into_message();
        *self.seen.lock().expect("tap lock") = Some((req, msg.bytes[pos..].to_vec()));
        let mut reply = CommBuffer::from_message(msg);
        reply.get_raw(pos)?;
        Ok(reply)
    }

    fn marshal(
        &self,
        _ctx: &Arc<DomainCtx>,
        _parts: ObjParts,
        _buf: &mut CommBuffer,
    ) -> subcontract::Result<()> {
        Err(SpringError::Unsupported("tap objects stay where they are"))
    }

    fn unmarshal(
        &self,
        _ctx: &Arc<DomainCtx>,
        _expected: &'static TypeInfo,
        _buf: &mut CommBuffer,
    ) -> subcontract::Result<SpringObj> {
        Err(SpringError::Unsupported("tap objects stay where they are"))
    }

    fn copy(&self, _obj: &SpringObj) -> subcontract::Result<SpringObj> {
        Err(SpringError::Unsupported("tap objects stay where they are"))
    }

    fn consume(&self, _ctx: &Arc<DomainCtx>, _parts: ObjParts) -> subcontract::Result<()> {
        // Dropping the parts drops the wrapped object, which runs its own
        // subcontract's consume.
        Ok(())
    }
}

// ------------------------------------------------------------ server tap

#[derive(Clone, Copy, Debug)]
struct ServerSeen {
    op: u32,
    args_pos: usize,
    reply_prefix: usize,
    caller: DomainId,
}

/// A pass-through `Dispatch` around the real skeleton.
struct TapDispatch {
    inner: Arc<dyn Dispatch>,
    seen: Mutex<Option<ServerSeen>>,
}

impl Dispatch for TapDispatch {
    fn type_info(&self) -> &'static TypeInfo {
        self.inner.type_info()
    }

    fn dispatch(
        &self,
        sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> subcontract::Result<()> {
        *self.seen.lock().expect("tap lock") = Some(ServerSeen {
            op,
            args_pos: args.read_pos(),
            reply_prefix: reply.len(),
            caller: sctx.caller,
        });
        self.inner.dispatch(sctx, op, args, reply)
    }
}

// --------------------------------------------------------------- capture

/// The ladder's fixture for one service: a second, tapped export of the
/// same servant for the capture pass, and the captured bytes.
pub struct Captured {
    pub caps: Vec<Capture>,
    /// The calling domain as the server saw it (for `ServerCtx`).
    pub caller: DomainId,
}

/// Sends every table position once, in order, through a tapped export of
/// `svc`'s servant, checking each reply against the model. Runs whole
/// cycles only, so the servant's state is back at the table's start state
/// when it returns.
///
/// `export` and `ship` are the topology's: export a skeleton through
/// simplex in the server domain, and move an object to the client domain.
pub fn capture<S: Service>(
    svc: &S,
    table: &[S::Op],
    client: &Arc<DomainCtx>,
    export: impl FnOnce(Arc<dyn Dispatch>) -> subcontract::Result<SpringObj>,
    ship: impl FnOnce(SpringObj) -> subcontract::Result<SpringObj>,
) -> Result<Captured, String> {
    let server_tap = Arc::new(TapDispatch {
        inner: svc.skeleton(),
        seen: Mutex::new(None),
    });
    let exported = export(server_tap.clone()).map_err(|e| format!("tap export: {e}"))?;
    let inner = ship(exported).map_err(|e| format!("tap ship: {e}"))?;
    let client_tap = Arc::new(TapSc {
        seen: Mutex::new(None),
    });
    let tapped = SpringObj::assemble(
        client.clone(),
        S::type_info(),
        client_tap.clone(),
        Repr::new(TapRepr { inner }),
    );
    let stub = S::narrow(tapped).map_err(|e| format!("tap narrow: {e}"))?;

    let mut caps = Vec::with_capacity(table.len());
    let mut caller = None;
    for (i, op) in table.iter().enumerate() {
        let out = svc.call_stub(&stub, op);
        if !svc.ok(op, &out) {
            return Err(format!("capture: wrong reply at table position {i}"));
        }
        let (req, reply) = client_tap
            .seen
            .lock()
            .expect("tap lock")
            .take()
            .ok_or("capture: client tap saw nothing")?;
        let seen = server_tap
            .seen
            .lock()
            .expect("tap lock")
            .take()
            .ok_or("capture: server tap saw nothing")?;
        caller = Some(seen.caller);
        caps.push(Capture {
            reply_len: seen.reply_prefix + reply.len(),
            req,
            reply,
            op: seen.op,
            args_pos: seen.args_pos,
            reply_prefix: seen.reply_prefix,
        });
    }
    Ok(Captured {
        caps,
        caller: caller.ok_or("capture: empty table")?,
    })
}

// ----------------------------------------------------------------- rungs

/// A message holding `bytes` in a backing taken from the per-thread buffer
/// pool, as a stub's own marshalling buffer would be. The call path hands
/// every backing it consumes back to that pool; feeding it exact-size
/// vectors instead would fill the pool with backings too small to reuse
/// and charge the lower rungs for reallocations no real call makes.
fn pooled_message(bytes: &[u8]) -> Message {
    let mut buf = CommBuffer::pooled();
    buf.put_raw(bytes);
    buf.into_message()
}

/// Returns a reply's backing to the pool, as dropping the stub's reply
/// buffer would.
fn recycle(bytes: Vec<u8>) {
    spring_kernel::pool::give(bytes);
}

/// Top of every ladder, and the only rung the end-to-end runs use: the
/// generated client stub on an object in whatever topology it arrived by.
pub struct StubRung<'a, S: Service> {
    pub svc: &'a S,
    pub table: &'a [S::Op],
    pub stub: &'a S::Stub,
}

impl<S: Service> Rung for StubRung<'_, S> {
    type Prep = ();
    type Out = S::Out;

    fn len(&self) -> usize {
        self.table.len()
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, i: usize, (): ()) -> S::Out {
        self.svc.call_stub(self.stub, &self.table[i])
    }
    fn ok(&self, i: usize, out: S::Out) -> bool {
        self.svc.ok(&self.table[i], &out)
    }
}

/// Bottom rung: the servant's trait method, arguments already owned.
pub struct ServantRung<'a, S: Service> {
    pub svc: &'a S,
    pub table: &'a [S::Op],
}

impl<S: Service> Rung for ServantRung<'_, S> {
    type Prep = S::Owned;
    type Out = S::Out;

    fn len(&self) -> usize {
        self.table.len()
    }
    fn prep(&self, i: usize) -> S::Owned {
        self.svc.own(&self.table[i])
    }
    fn run(&self, _i: usize, owned: S::Owned) -> S::Out {
        self.svc.call_servant(owned)
    }
    fn ok(&self, i: usize, out: S::Out) -> bool {
        self.svc.ok(&self.table[i], &out)
    }
}

/// `Dispatch::dispatch` on the generated skeleton with the captured
/// request, positioned where the server subcontract would hand over.
pub struct SkeletonRung<'a> {
    pub skel: Arc<dyn Dispatch>,
    pub sctx: ServerCtx,
    pub caps: &'a [Capture],
}

const ZEROS: [u8; 64] = [0; 64];

impl Rung for SkeletonRung<'_> {
    type Prep = (CommBuffer, CommBuffer);
    type Out = Option<Vec<u8>>;

    fn len(&self) -> usize {
        self.caps.len()
    }
    fn prep(&self, i: usize) -> (CommBuffer, CommBuffer) {
        let cap = &self.caps[i];
        let mut args = CommBuffer::from_message(pooled_message(&cap.req));
        args.get_raw(cap.args_pos).expect("captured args position");
        let mut reply = CommBuffer::pooled();
        reply.put_raw(&ZEROS[..cap.reply_prefix]);
        (args, reply)
    }
    fn run(&self, i: usize, (mut args, mut reply): (CommBuffer, CommBuffer)) -> Option<Vec<u8>> {
        self.skel
            .dispatch(&self.sctx, self.caps[i].op, &mut args, &mut reply)
            .ok()
            .map(|()| reply.into_message().bytes)
    }
    fn ok(&self, i: usize, out: Option<Vec<u8>>) -> bool {
        reply_matches(&self.caps[i], out)
    }
}

/// Whether a whole reply message is the captured one: same length, same
/// skeleton-written tail (the subcontract's own prefix is not compared).
fn reply_matches(cap: &Capture, out: Option<Vec<u8>>) -> bool {
    out.is_some_and(|b| {
        let same = b.len() == cap.reply_len && b.ends_with(&cap.reply);
        recycle(b);
        same
    })
}

/// `Domain::call` on the exported door from the client domain with the
/// captured request: kernel, server subcontract, skeleton, servant.
pub struct DoorRung<'a> {
    pub domain: Domain,
    pub door: DoorId,
    pub caps: &'a [Capture],
}

impl Rung for DoorRung<'_> {
    type Prep = Message;
    type Out = Option<Vec<u8>>;

    fn len(&self) -> usize {
        self.caps.len()
    }
    fn prep(&self, i: usize) -> Message {
        pooled_message(&self.caps[i].req)
    }
    fn run(&self, _i: usize, msg: Message) -> Option<Vec<u8>> {
        self.domain.call(self.door, msg).ok().map(|m| m.bytes)
    }
    fn ok(&self, i: usize, out: Option<Vec<u8>>) -> bool {
        reply_matches(&self.caps[i], out)
    }
}

/// `SpringObj::invoke` with the captured call buffer: adds the client
/// subcontract to the door rung.
pub struct InvokeRung<'a> {
    pub obj: &'a SpringObj,
    pub caps: &'a [Capture],
}

impl Rung for InvokeRung<'_> {
    type Prep = CommBuffer;
    type Out = Option<(Vec<u8>, usize)>;

    fn len(&self) -> usize {
        self.caps.len()
    }
    fn prep(&self, i: usize) -> CommBuffer {
        CommBuffer::from_message(pooled_message(&self.caps[i].req))
    }
    fn run(&self, _i: usize, call: CommBuffer) -> Option<(Vec<u8>, usize)> {
        self.obj.invoke(call).ok().map(|reply| {
            let pos = reply.read_pos();
            (reply.into_message().bytes, pos)
        })
    }
    fn ok(&self, i: usize, out: Option<(Vec<u8>, usize)>) -> bool {
        out.is_some_and(|(b, pos)| {
            let same = b[pos..] == self.caps[i].reply[..];
            recycle(b);
            same
        })
    }
}

/// What `prep` leaves for the raw door's handler and what the handler
/// leaves for `ok`.
#[derive(Default)]
struct RawStash {
    /// Replies to hand back, oldest first.
    replies: VecDeque<Vec<u8>>,
    /// Requests the handler received, for `ok` to return to the pool.
    spent: Vec<Vec<u8>>,
}

thread_local! {
    /// The kernel runs a same-kernel handler on the calling thread, so
    /// `prep`, the handler and `ok` meet here without a lock or an atomic
    /// inside the timed region. Whatever the handler does there is charged
    /// to `kernel.raw_door_ns`, and `subcontracts.server_self_ns`, which
    /// subtracts it, then reads below zero: so the handler neither frees
    /// nor pools the request (the `skeleton` rung already pays for
    /// disposing of one), it only sets it aside.
    static RAW_STASH: RefCell<RawStash> = RefCell::default();
}

/// A door whose handler does nothing but hand back a reply of the right
/// size, called with a request of the right size: what the kernel alone
/// charges for this workload's messages (dispatch, identifier checks, and
/// the cross-domain payload copies both ways).
pub struct RawDoorRung<'a> {
    pub domain: Domain,
    pub door: DoorId,
    pub caps: &'a [Capture],
}

struct RawHandler;

impl DoorHandler for RawHandler {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let reply = RAW_STASH.with_borrow_mut(|s| {
            s.spent.push(msg.bytes);
            s.replies.pop_front()
        });
        Ok(Message::from_bytes(reply.unwrap_or_default()))
    }
}

impl<'a> RawDoorRung<'a> {
    pub fn new(
        server: &Domain,
        client: &Domain,
        caps: &'a [Capture],
    ) -> Result<RawDoorRung<'a>, DoorError> {
        let door = server.create_door(Arc::new(RawHandler))?;
        let door = server.transfer_door(door, client)?;
        Ok(RawDoorRung {
            domain: client.clone(),
            door,
            caps,
        })
    }
}

impl Drop for RawDoorRung<'_> {
    fn drop(&mut self) {
        let _ = self.domain.delete_door(self.door);
    }
}

impl Rung for RawDoorRung<'_> {
    type Prep = Message;
    type Out = Option<Vec<u8>>;

    fn len(&self) -> usize {
        self.caps.len()
    }
    fn prep(&self, i: usize) -> Message {
        let cap = &self.caps[i];
        // Blocks are prepared front to back and served front to back.
        let reply = pooled_message(&vec![0u8; cap.reply_len]).bytes;
        RAW_STASH.with_borrow_mut(|s| s.replies.push_back(reply));
        pooled_message(&cap.req)
    }
    fn run(&self, _i: usize, msg: Message) -> Option<Vec<u8>> {
        self.domain.call(self.door, msg).ok().map(|m| m.bytes)
    }
    fn ok(&self, i: usize, out: Option<Vec<u8>>) -> bool {
        RAW_STASH.with_borrow_mut(|s| s.spent.drain(..).for_each(recycle));
        out.is_some_and(|b| {
            let same = b.len() == self.caps[i].reply_len;
            recycle(b);
            same
        })
    }
}

/// Pulls the door identifier out of an object's marshalled form — the one
/// public way to learn which door an object calls. The identifier is the
/// copy `marshal_copy` made, owned by the object's domain; the caller
/// deletes it when done.
pub fn door_of(obj: &SpringObj) -> Result<DoorId, String> {
    let mut buf = CommBuffer::new();
    obj.marshal_copy(&mut buf)
        .map_err(|e| format!("marshal_copy: {e}"))?;
    let msg = buf.into_message();
    match msg.doors[..] {
        [door] => Ok(door),
        _ => {
            let n = msg.doors.len();
            for d in msg.doors {
                let _ = obj.ctx().domain().delete_door(d);
            }
            Err(format!("expected one door in the marshalled form, got {n}"))
        }
    }
}
