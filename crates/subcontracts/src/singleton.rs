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
    client, export_door, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId,
    ServerSubcontract, SpringObj,
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
}

/// No control region and nothing beside the door: the whole client half is
/// the shared path.
impl DoorSubcontract for Singleton {
    const ID: ScId = Singleton::ID;
    const NAME: &'static str = "singleton";
    type State = ();

    fn get(&self, _ctx: &Arc<DomainCtx>, _door: DoorId, _buf: &mut CommBuffer) -> Result<()> {
        Ok(())
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, _state: &()) -> Result<()> {
        Ok(())
    }
}

impl ServerSubcontract for Singleton {
    fn export(&self, ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        // No control region: the door delivers straight to the skeleton.
        export_door(
            ctx,
            "singleton.serve",
            Self::ID,
            disp,
            |call, disp| call.dispatch(disp),
            |_| Ok(|door| SingletonRepr::of(door, ())),
        )
    }

    fn revoke(&self, obj: &SpringObj) -> Result<()> {
        obj.ctx()
            .domain()
            .revoke_door(client::repr::<Self>(obj)?.door)?;
        Ok(())
    }
}
