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

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId};
use subcontract::{
    client, put_obj_header, serve, Call, Dispatch, DomainCtx, Landed, ObjParts, Repr, Result, ScId,
    ServeDoor, ServerSubcontract, SpringObj, Subcontract, TypeInfo,
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

/// Client representation: a remote door, or the local fast path.
enum SimplexState {
    /// The common case: the server is reached through a door.
    Remote(DoorId),
    /// Same-address-space fast path: calls go straight to the dispatcher; a
    /// door is created lazily on first marshal.
    Local {
        disp: Arc<dyn Dispatch>,
        door: Option<DoorId>,
    },
}

#[derive(Debug)]
struct SimplexReprInner {
    state: SimplexState,
}

#[derive(Debug)]
struct SimplexRepr {
    inner: Mutex<SimplexReprInner>,
}

impl SimplexRepr {
    fn remote(door: DoorId) -> Self {
        SimplexRepr {
            inner: Mutex::new(SimplexReprInner {
                state: SimplexState::Remote(door),
            }),
        }
    }

    /// The door identifier, when the object is in the remote state.
    fn remote_door(&self) -> Option<DoorId> {
        match &self.inner.lock().state {
            SimplexState::Remote(d) => Some(*d),
            SimplexState::Local { door, .. } => *door,
        }
    }
}

impl std::fmt::Debug for SimplexState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplexState::Remote(d) => write!(f, "Remote({d:?})"),
            SimplexState::Local { door, .. } => write!(f, "Local(door: {door:?})"),
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
            Repr::new(SimplexRepr {
                inner: Mutex::new(SimplexReprInner {
                    state: SimplexState::Local { disp, door: None },
                }),
            }),
        ))
    }

    fn create_server_door(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<DoorId> {
        let handler = ServeDoor::new(ctx, SERVE_SPAN, Self::ID, Some(disp.clone()), move |call| {
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
        let repr = obj.repr().downcast::<SimplexRepr>(self.name())?;
        // Decide the path under the lock, but run remote calls outside it.
        enum Path {
            Remote(DoorId),
            Local(Arc<dyn Dispatch>),
        }
        let path = {
            let inner = repr.inner.lock();
            match &inner.state {
                SimplexState::Remote(d) => Path::Remote(*d),
                SimplexState::Local { disp, .. } => Path::Local(disp.clone()),
            }
        };
        let ctx = obj.ctx();
        let reply = match path {
            Path::Remote(door) => ctx.domain().call(door, call.into_message())?,
            // The same-address-space optimized invocation: the serve path
            // without the kernel. The buffer was built by our own
            // invoke_preamble, so the read cursor sits at the control byte.
            Path::Local(disp) => serve(
                ctx,
                SERVE_SPAN,
                Self::ID,
                ctx.domain().id(),
                call.into_message(),
                &|call| control(call, &*disp),
            )?,
        };
        let mut reply = CommBuffer::from_message(reply);
        let _flags = reply.get_u8()?;
        Ok(reply)
    }

    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<SimplexRepr>(self.name())?;
        let inner = repr.inner.into_inner();
        let door = match inner.state {
            SimplexState::Remote(d) => d,
            // First transmission of a local object: create the
            // cross-domain resources now (§5.2.1: "When and if the object is
            // actually marshalled ... the subcontract will finally create
            // these resources").
            SimplexState::Local { disp, door } => match door {
                Some(d) => d,
                None => Self::create_server_door(ctx, disp)?,
            },
        };
        put_obj_header(buf, Self::ID, &parts.type_name);
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
            |door, _| Ok(Repr::new(SimplexRepr::remote(door.keep()))),
        )
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<SimplexRepr>(self.name())?;
        let new_state = {
            let inner = repr.inner.lock();
            match &inner.state {
                SimplexState::Remote(d) => SimplexState::Remote(obj.ctx().domain().copy_door(*d)?),
                // A copy of a local object shares the dispatcher (shallow
                // copy: same underlying state); it grows its own door if it
                // is ever marshalled.
                SimplexState::Local { disp, .. } => SimplexState::Local {
                    disp: disp.clone(),
                    door: None,
                },
            }
        };
        Ok(obj.assemble_like(Repr::new(SimplexRepr {
            inner: Mutex::new(SimplexReprInner { state: new_state }),
        })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<SimplexRepr>(self.name())?;
        match repr.inner.into_inner().state {
            SimplexState::Remote(d) => ctx.domain().delete_door(d)?,
            SimplexState::Local { door: Some(d), .. } => ctx.domain().delete_door(d)?,
            SimplexState::Local { door: None, .. } => {}
        }
        Ok(())
    }
}

impl ServerSubcontract for Simplex {
    fn export(&self, ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let type_info = disp.type_info();
        ctx.types().register(type_info);
        let door = Self::create_server_door(ctx, disp)?;
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(SimplexRepr::remote(door)),
        ))
    }

    fn revoke(&self, obj: &SpringObj) -> Result<()> {
        let repr = obj.repr().downcast::<SimplexRepr>(self.name())?;
        match repr.remote_door() {
            Some(d) => {
                obj.ctx().domain().revoke_door(d)?;
                Ok(())
            }
            None => Err(subcontract::SpringError::Unsupported(
                "cannot revoke a local object that has no door yet",
            )),
        }
    }
}
