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
    client, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId, ServeDoor,
    ServerSubcontract, SpringObj, Subcontract, TypeInfo,
};

/// Client representation: one kernel door identifier.
pub(crate) type SingletonRepr = DoorRepr<()>;

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
            SingletonRepr::of(door, ()),
        )
    }
}

/// No control region and nothing beside the door: the whole client half is
/// the shared path.
impl DoorSubcontract for Singleton {
    const ID: ScId = Singleton::ID;
    const NAME: &'static str = "singleton";
    type State = ();

    fn get(&self, _ctx: &Arc<DomainCtx>, _buf: &mut CommBuffer) -> Result<()> {
        Ok(())
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, _state: &()) -> Result<()> {
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
            SingletonRepr::of(door, ()),
        ))
    }

    fn revoke(&self, obj: &SpringObj) -> Result<()> {
        obj.ctx()
            .domain()
            .revoke_door(client::repr::<Self>(obj)?.door)?;
        Ok(())
    }
}
