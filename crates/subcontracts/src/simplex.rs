//! The *simplex* subcontract: client-server with a subcontract dialogue.
//!
//! §7 of the paper walks a file object through its whole life cycle on
//! simplex: "a very simple client-server subcontract, using a single kernel
//! door identifier to communicate with the server". Unlike singleton,
//! simplex routes incoming calls through server-side subcontract code first
//! (§5.2.2's common option), so the client and server subcontract halves
//! exchange a one-byte control region on every call and reply — the hook a
//! richer dialogue would piggyback on.
//!
//! Simplex also implements the §5.2.1 same-address-space fast path: an
//! object exported with [`Simplex::export_local`] invokes its dispatcher
//! directly, paying for a kernel door only when (and if) the object is
//! first marshalled to another domain.

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId};
use subcontract::{
    client, export_door, put_obj_header, serve, Call, Dispatch, DomainCtx, Landed, ObjParts, Repr,
    Result, ScId, ServeDoor, ServerSubcontract, SpringObj, Subcontract, TypeInfo,
};

/// Control-region flag: an ordinary call.
const CTRL_NORMAL: u8 = 0;

/// Span key of the server-side half.
const SERVE_SPAN: &str = "simplex.serve";

/// Server-side simplex code: strips the control region, adds the reply
/// control region, and forwards the call to the skeleton.
fn control(call: &mut Call<'_>, disp: &dyn Dispatch) -> std::result::Result<(), DoorError> {
    let _flags = call
        .args
        .get_u8()
        .map_err(|e| DoorError::Handler(format!("bad control region: {e}")))?;
    call.reply.put_u8(CTRL_NORMAL);
    call.dispatch(disp)
}

/// Client representation: a remote door, or the local fast path. No
/// operation changes it in place — `invoke`, `copy` and `revoke` read it,
/// `marshal` and `consume` own it — so it sits behind no lock.
enum SimplexRepr {
    /// The common case: the server is reached through a door.
    Remote(DoorId),
    /// Same-address-space fast path: calls go straight to the dispatcher; a
    /// door is created if the object is marshalled, which consumes it.
    Local(Arc<dyn Dispatch>),
}

/// Objects cross threads, so their representation must.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<SimplexRepr>();
};

impl std::fmt::Debug for SimplexRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplexRepr::Remote(d) => write!(f, "Remote({d:?})"),
            SimplexRepr::Local(_) => write!(f, "Local"),
        }
    }
}

/// The simplex subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Simplex;

impl Simplex {
    /// The identifier carried in simplex objects' marshalled form.
    pub const ID: ScId = ScId::from_name("simplex");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Simplex> {
        Arc::new(Simplex)
    }

    /// Exports an object on the same-address-space fast path (§5.2.1): no
    /// kernel door is created until the object is first marshalled for
    /// transmission to another domain.
    pub fn export_local(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let type_info = disp.type_info();
        ctx.types().register(type_info);
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(SimplexRepr::Local(disp)),
        ))
    }

    /// First transmission of a local object: create the cross-domain
    /// resources now (§5.2.1: "When and if the object is actually marshalled
    /// ... the subcontract will finally create these resources").
    fn mint_door(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<DoorId> {
        let servant = Some(disp.clone());
        let handler = ServeDoor::new(ctx, SERVE_SPAN, Self::ID, servant, move |call| {
            control(call, &*disp)
        });
        Ok(ctx.domain().create_door(handler)?)
    }
}

impl Subcontract for Simplex {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "simplex"
    }

    fn invoke_preamble(&self, _obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        call.put_u8(CTRL_NORMAL);
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let ctx = obj.ctx();
        let reply = match obj.repr().downcast::<SimplexRepr>(self.name())? {
            SimplexRepr::Remote(door) => ctx.domain().call(*door, call.into_message())?,
            // The same-address-space optimized invocation: the serve path
            // without the kernel. The buffer was built by our own
            // invoke_preamble, so the read cursor sits at the control byte.
            SimplexRepr::Local(disp) => serve(
                ctx,
                SERVE_SPAN,
                Self::ID,
                ctx.domain().id(),
                call.into_message(),
                &|call| control(call, &**disp),
            )?,
        };
        let mut reply = CommBuffer::from_message(reply);
        let _flags = reply.get_u8()?;
        Ok(reply)
    }

    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let door = match *parts.repr.into_downcast::<SimplexRepr>(self.name())? {
            SimplexRepr::Remote(d) => d,
            SimplexRepr::Local(disp) => Self::mint_door(ctx, disp)?,
        };
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(door);
        Ok(())
    }

    /// §5.1.5: the copy's door goes straight into the buffer — the bytes of
    /// `copy()` then `marshal`, with no intermediate object built and
    /// destroyed. A local object mints the door its copy's marshal would.
    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        let ctx = obj.ctx();
        let door = match obj.repr().downcast::<SimplexRepr>(self.name())? {
            SimplexRepr::Remote(d) => ctx.domain().copy_door(*d)?,
            SimplexRepr::Local(disp) => Self::mint_door(ctx, disp.clone())?,
        };
        put_obj_header(buf, Self::ID, obj.type_name());
        buf.put_door(door);
        Ok(())
    }

    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj> {
        client::unmarshal(
            Self::ID,
            ctx,
            expected,
            buf,
            |buf| Landed::take(ctx.domain(), buf),
            |door, _| Ok(Repr::new(SimplexRepr::Remote(door.keep()))),
        )
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let copy = match obj.repr().downcast::<SimplexRepr>(self.name())? {
            SimplexRepr::Remote(d) => SimplexRepr::Remote(obj.ctx().domain().copy_door(*d)?),
            // A copy of a local object shares the dispatcher (shallow copy:
            // same underlying state); it grows its own door if it is ever
            // marshalled.
            SimplexRepr::Local(disp) => SimplexRepr::Local(disp.clone()),
        };
        Ok(obj.assemble_like(Repr::new(copy)))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        match *parts.repr.into_downcast::<SimplexRepr>(self.name())? {
            SimplexRepr::Remote(d) => ctx.domain().delete_door(d)?,
            SimplexRepr::Local(_) => {}
        }
        Ok(())
    }
}

impl ServerSubcontract for Simplex {
    fn export(&self, ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        export_door(ctx, SERVE_SPAN, Self::ID, disp, control, |_| {
            Ok(|door| Repr::new(SimplexRepr::Remote(door)))
        })
    }

    fn revoke(&self, obj: &SpringObj) -> Result<()> {
        match obj.repr().downcast::<SimplexRepr>(self.name())? {
            SimplexRepr::Remote(d) => {
                obj.ctx().domain().revoke_door(*d)?;
                Ok(())
            }
            SimplexRepr::Local(_) => Err(subcontract::SpringError::Unsupported(
                "cannot revoke a local object that has no door yet",
            )),
        }
    }
}
