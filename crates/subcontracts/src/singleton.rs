//! The *singleton* subcontract: the simplest client-server subcontract.
//!
//! Singleton is the default subcontract for standard types (§6.1: "the
//! standard type *file* is specified to use a simple subcontract called
//! *singleton*"). A singleton object's representation is a single kernel
//! door identifier, and its door delivers incoming calls directly to the
//! server-side stubs (§5.2.2's first option — no server-side subcontract
//! dialogue, and no control regions on the wire).

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::DoorId;
use subcontract::{
    get_obj_header, put_obj_header, redispatch_if_foreign, Dispatch, DomainCtx, ObjParts, Repr,
    Result, ScId, ServeDoor, ServerSubcontract, SpringObj, Subcontract, TypeInfo,
};

/// Client representation: one kernel door identifier.
#[derive(Debug)]
pub(crate) struct SingletonRepr {
    pub(crate) door: DoorId,
}

/// The singleton subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Singleton;

impl Singleton {
    /// The identifier carried in singleton objects' marshalled form.
    pub const ID: ScId = ScId::from_name("singleton");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Singleton> {
        Arc::new(Singleton)
    }

    /// Assembles a singleton object directly from a door identifier owned by
    /// `ctx`'s domain (used by infrastructure and tests).
    pub fn object_from_door(
        self: &Arc<Self>,
        ctx: &Arc<DomainCtx>,
        type_info: &'static TypeInfo,
        door: DoorId,
    ) -> SpringObj {
        SpringObj::assemble(
            ctx.clone(),
            type_info,
            self.clone() as Arc<dyn Subcontract>,
            Repr::new(SingletonRepr { door }),
        )
    }
}

impl Subcontract for Singleton {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "singleton"
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<SingletonRepr>(self.name())?;
        let reply = obj.ctx().domain().call(repr.door, call.into_message())?;
        Ok(CommBuffer::from_message(reply))
    }

    fn marshal(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<SingletonRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(repr.door);
        Ok(())
    }

    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        // Optimized copy-then-marshal (§5.1.5): duplicate the identifier and
        // emit the marshalled form directly, without fabricating (and
        // immediately destroying) an intermediate object.
        let repr = obj.repr().downcast::<SingletonRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
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
        if let Some(obj) = redispatch_if_foreign(Self::ID, ctx, expected, buf)? {
            return Ok(obj);
        }
        let (_, wire_name, actual) = get_obj_header(ctx, expected, buf)?;
        let door = buf.get_door()?;
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(SingletonRepr { door }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<SingletonRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        Ok(obj.assemble_like(Repr::new(SingletonRepr { door })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<SingletonRepr>(self.name())?;
        ctx.domain().delete_door(repr.door)?;
        Ok(())
    }
}

impl ServerSubcontract for Singleton {
    fn export(&self, ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let type_info = disp.type_info();
        ctx.types().register(type_info);
        // No control region: the door delivers straight to the skeleton.
        let servant = Some(disp.clone());
        let handler = ServeDoor::new(ctx, "singleton.serve", Self::ID, servant, move |call| {
            call.dispatch(&*disp)
        });
        let door = ctx.domain().create_door(handler)?;
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(SingletonRepr { door }),
        ))
    }

    fn revoke(&self, obj: &SpringObj) -> Result<()> {
        let repr = obj.repr().downcast::<SingletonRepr>(self.name())?;
        obj.ctx().domain().revoke_door(repr.door)?;
        Ok(())
    }
}
