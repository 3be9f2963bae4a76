//! Server-side dispatch machinery shared by all subcontracts: the one export
//! path of a door-backed object ([`export_door`]), the one serve path every
//! server door runs ([`ServeDoor`], [`serve`]) and the skeleton entry point
//! under it ([`server_dispatch`]).

use std::mem::ManuallyDrop;
use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, DomainId, DoorError, DoorHandler, DoorId, Message};

use crate::ctx::DomainCtx;
use crate::dedup::ReplyCache;
use crate::error::{Result, SpringError};
use crate::object::SpringObj;
use crate::repr::Repr;
use crate::scid::ScId;
use crate::stub::{encode_system_error, encode_unknown_op};
use crate::traits::Subcontract;
use crate::types::TypeInfo;

/// Context available to a skeleton while dispatching one call.
pub struct ServerCtx {
    /// The serving domain's context (needed to unmarshal object arguments
    /// and marshal object results).
    pub ctx: Arc<DomainCtx>,
    /// The calling domain.
    pub caller: DomainId,
}

/// The server-side stub entry point: unmarshals arguments for each
/// operation and calls into the server application (§4).
///
/// Implementations are generated by the IDL compiler (the *skeleton*); the
/// method-table numbering is a 32-bit hash of the operation name, checked
/// collision-free per interface at generation time.
pub trait Dispatch: Send + Sync {
    /// The most-derived interface this dispatcher implements.
    fn type_info(&self) -> &'static TypeInfo;

    /// Handles one operation: reads arguments from `args`, invokes the
    /// servant, and writes a status byte plus results (or an encoded user
    /// exception) into `reply`.
    ///
    /// Returns `Err` only for transport-level failures (malformed arguments,
    /// failure to marshal results); application-level errors are encoded
    /// into `reply` as user exceptions and return `Ok`.
    fn dispatch(
        &self,
        sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()>;

    /// Called when the last door identifier for the exported object dies,
    /// forwarded from the kernel by door-holding subcontracts so the server
    /// application can reclaim state (§7: "the kernel will notify the
    /// door's target ... so that it can clean up").
    fn unreferenced(&self) {}
}

/// Runs one incoming request through a dispatcher, producing the reply
/// payload that follows the server subcontract's control region.
///
/// The contract with a subcontract's control step (see [`Call`]): the step
/// reads its own control information from the argument buffer and writes its
/// reply control region into `reply` *before* [`Call::dispatch`] calls this;
/// this function appends the status byte and results. Failures that leave
/// the reply prefix clean are
/// reported in-band (status `SYSTEM`); failures after results were partially
/// written become a [`DoorError::Handler`] so the client never sees a
/// half-written reply.
#[inline]
pub fn server_dispatch(
    sctx: &ServerCtx,
    disp: &dyn Dispatch,
    args: &mut CommBuffer,
    reply: &mut CommBuffer,
) -> std::result::Result<(), DoorError> {
    let clean_len = reply.len();
    let op = match args.get_u32() {
        Ok(op) => op,
        Err(e) => {
            encode_system_error(reply, &format!("malformed request: {e}"));
            return Ok(());
        }
    };
    match disp.dispatch(sctx, op, args, reply) {
        Ok(()) => Ok(()),
        Err(e) => dispatch_failed(e, reply, clean_len),
    }
}

/// The failure half of [`server_dispatch`], out of line.
fn dispatch_failed(
    e: SpringError,
    reply: &mut CommBuffer,
    clean_len: usize,
) -> std::result::Result<(), DoorError> {
    if reply.len() != clean_len {
        return Err(DoorError::Handler(format!(
            "reply construction failed: {e}"
        )));
    }
    match e {
        SpringError::UnknownOp(op) => encode_unknown_op(reply, op),
        e => encode_system_error(reply, &e.to_string()),
    }
    Ok(())
}

/// One request passing through [`serve`], as a subcontract's control step
/// sees it. The step reads the request control region off `args`, writes the
/// reply control region to `reply`, and then either calls
/// [`Call::dispatch`] (around which it may hold a guard, swap `args` for
/// another buffer, or pick the servant) or leaves a finished reply behind
/// and returns — the "reply now" cases.
pub struct Call<'a> {
    /// The request, read cursor at the subcontract's control region.
    pub args: CommBuffer,
    /// The reply under construction; pooled, empty on entry.
    pub reply: CommBuffer,
    ctx: &'a Arc<DomainCtx>,
    caller: DomainId,
}

// Two buffers under the 128-byte inline-copy limit of x86-64, plus two words.
const _: () = assert!(size_of::<Call<'_>>() <= 256);

impl Call<'_> {
    /// The serving domain's context.
    pub fn ctx(&self) -> &Arc<DomainCtx> {
        self.ctx
    }

    /// Hands what is left of `args` to a skeleton, which appends the status
    /// byte and results to `reply` (see [`server_dispatch`]).
    ///
    /// The skeleton's [`ServerCtx`] is lent, not built: its `ctx` is the
    /// serving domain's own handle, so a served call writes no reference
    /// count.
    pub fn dispatch(&mut self, disp: &dyn Dispatch) -> std::result::Result<(), DoorError> {
        // SAFETY: `ptr::read` makes a second handle on the `Arc` that
        // `self.ctx` borrows for `'a`, without raising its strong count. The
        // borrow keeps that `Arc`, and so the allocation, alive past this
        // call. The copy sits in a `ManuallyDrop` that is never dropped (not
        // on return, not when a panic unwinds through here), so the count it
        // never raised is never lowered; and it is lent only by `&`, through
        // which it can be cloned (a counted handle of its own) but neither
        // moved out nor dropped.
        let sctx = ManuallyDrop::new(ServerCtx {
            ctx: unsafe { std::ptr::read(self.ctx) },
            caller: self.caller,
        });
        server_dispatch(&sctx, disp, &mut self.args, &mut self.reply)
    }
}

/// A subcontract's control-region step: everything a serve path does that is
/// the subcontract's own.
pub type Control<'a> =
    dyn Fn(&mut Call<'_>) -> std::result::Result<(), DoorError> + Send + Sync + 'a;

/// Serves one request below the call-identity layer: a `span` keyed under
/// `scid` and marked failed on error, the message as argument buffer, a
/// pooled reply buffer, the subcontract's `control` step, the reply message.
/// [`ServeDoor`] runs every door call through this; a same-address-space
/// fast path (§5.2.1) calls it directly, without the door.
pub fn serve(
    ctx: &Arc<DomainCtx>,
    span: &'static str,
    scid: ScId,
    caller: DomainId,
    msg: Message,
    control: &Control<'_>,
) -> std::result::Result<Message, DoorError> {
    // On a door this runs on the caller's (shuttled) thread inside the
    // kernel's door_call span, so the span parents under it automatically.
    let mut guard = spring_trace::span_start(span, ctx.domain().trace_scope(), scid.raw());
    let mut call = Call {
        args: CommBuffer::from_message(msg),
        reply: CommBuffer::pooled(),
        ctx,
        caller,
    };
    match control(&mut call) {
        Ok(()) => Ok(call.reply.into_message()),
        Err(e) => {
            guard.fail();
            Err(e)
        }
    }
}

/// The door handler behind every exported object: at-most-once replay of
/// identity-carrying calls (identity-free ones skip the cache on one
/// branch), then [`serve`], and the §7 `unreferenced` notification passed on
/// to the servant. The layers are fixed; a subcontract supplies its span
/// key, its identifier and its control step.
pub struct ServeDoor {
    ctx: Arc<DomainCtx>,
    span: &'static str,
    scid: ScId,
    /// Replaceable so the members of a replica group can serve from one
    /// cache; read only by calls that carry an identity.
    cache: Mutex<Arc<ReplyCache>>,
    servant: Option<Arc<dyn Dispatch>>,
    control: Box<Control<'static>>,
}

impl ServeDoor {
    /// A door whose calls run `control`, which holds whatever it dispatches
    /// to. `servant` is who hears that the door's last identifier died:
    /// `None` only for a door multiplexed over many servants (cluster,
    /// §8.1), where nobody does.
    pub fn new(
        ctx: &Arc<DomainCtx>,
        span: &'static str,
        scid: ScId,
        servant: Option<Arc<dyn Dispatch>>,
        control: impl Fn(&mut Call<'_>) -> std::result::Result<(), DoorError> + Send + Sync + 'static,
    ) -> Arc<ServeDoor> {
        Arc::new(ServeDoor {
            ctx: ctx.clone(),
            span,
            scid,
            cache: Mutex::new(Arc::new(ReplyCache::default())),
            servant,
            control: Box::new(control),
        })
    }

    /// Serves identity-carrying calls from `cache` from now on.
    pub fn share_cache(&self, cache: Arc<ReplyCache>) {
        *self.cache.lock() = cache;
    }
}

impl DoorHandler for ServeDoor {
    fn invoke(&self, cctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
        let exec = |msg| {
            serve(
                &self.ctx,
                self.span,
                self.scid,
                cctx.caller,
                msg,
                &*self.control,
            )
        };
        // `ReplyCache::serve` would branch the same way; deciding here keeps
        // identity-free calls off the cache lock.
        if msg.call.is_none() {
            return exec(msg);
        }
        let cache = self.cache.lock().clone();
        cache.serve(msg, exec)
    }

    fn unreferenced(&self) {
        if let Some(servant) = &self.servant {
            servant.unreferenced();
        }
    }
}

/// Exports `servant` behind a fresh [`ServeDoor`]: the one export path of
/// every door-backed subcontract (§5.2). It looks up the client half `scid`
/// names and lets `repr` prepare the representation from that instance,
/// registers the servant's type, builds the door (calls run `control`
/// against the servant, under the span key `span`), mints it and assembles
/// the object around it. Nothing that can fail runs after the mint, so a
/// failed export leaves no door behind.
pub fn export_door<R: FnOnce(DoorId) -> Repr>(
    ctx: &Arc<DomainCtx>,
    span: &'static str,
    scid: ScId,
    servant: Arc<dyn Dispatch>,
    control: impl Fn(&mut Call<'_>, &dyn Dispatch) -> std::result::Result<(), DoorError>
        + Send
        + Sync
        + 'static,
    repr: impl FnOnce(&Arc<dyn Subcontract>) -> Result<R>,
) -> Result<SpringObj> {
    let sc = ctx.lookup_subcontract(scid)?;
    let repr = repr(&sc)?;
    let type_info = servant.type_info();
    ctx.types().register(type_info);
    let disp = servant.clone();
    let handler = ServeDoor::new(ctx, span, scid, Some(servant), move |call| {
        control(call, &*disp)
    });
    let door = ctx.domain().create_door(handler)?;
    Ok(SpringObj::assemble(ctx.clone(), type_info, sc, repr(door)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_kernel::Kernel;

    static NOTHING: TypeInfo = TypeInfo {
        name: "test::Nothing",
        parents: &[],
        default_subcontract: ScId::from_name("test"),
    };

    /// Records the serving context's strong count as the skeleton sees it,
    /// then does what `op` says: 1 keeps a clone past the call, 2 panics.
    #[derive(Default)]
    struct Peek {
        seen: Mutex<Vec<usize>>,
        kept: Mutex<Vec<Arc<DomainCtx>>>,
    }

    impl Dispatch for Peek {
        fn type_info(&self) -> &'static TypeInfo {
            &NOTHING
        }

        fn dispatch(
            &self,
            sctx: &ServerCtx,
            op: u32,
            _args: &mut CommBuffer,
            _reply: &mut CommBuffer,
        ) -> Result<()> {
            self.seen.lock().push(Arc::strong_count(&sctx.ctx));
            match op {
                1 => self.kept.lock().push(sctx.ctx.clone()),
                2 => panic!("skeleton panicked"),
                _ => {}
            }
            Ok(())
        }
    }

    /// The lent context raises no count: a skeleton sees the count its
    /// domain holds; one that clones it holds a counted handle of its own,
    /// which it gives back by dropping; and a panic through the skeleton
    /// leaves the count where it was.
    #[test]
    fn dispatch_lends_the_context_without_counting_it() {
        let ctx = DomainCtx::new(Kernel::new("t").create_domain("server"));
        let peek = Peek::default();
        let held = Arc::strong_count(&ctx);
        let run = |op: u32| {
            let mut args = CommBuffer::pooled();
            args.put_u32(op);
            let mut call = Call {
                args,
                reply: CommBuffer::pooled(),
                ctx: &ctx,
                caller: ctx.domain().id(),
            };
            call.dispatch(&peek)
        };

        run(0).unwrap();
        run(0).unwrap();
        assert_eq!(Arc::strong_count(&ctx), held);
        run(1).unwrap();
        assert_eq!(Arc::strong_count(&ctx), held + 1);
        run(0).unwrap();
        peek.kept.lock().clear();
        assert_eq!(Arc::strong_count(&ctx), held);

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(2)));
        assert!(panicked.is_err());
        assert_eq!(Arc::strong_count(&ctx), held);
        assert_eq!(
            *peek.seen.lock(),
            [held, held, held, held + 1, held],
            "the skeleton saw a count the lent context raised",
        );
    }
}
