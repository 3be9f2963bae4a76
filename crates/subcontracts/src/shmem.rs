//! The *shmem* subcontract: marshalling into shared memory (§5.1.4).
//!
//! The paper motivates `invoke_preamble` with subcontracts that "use shared
//! memory regions to communicate with their servers. In this case when
//! invoke_preamble is called, the subcontract can adjust the communications
//! buffer to point into the shared memory region so that arguments are
//! directly marshalled into the region, rather than having to be copied
//! there after all marshalling is complete."
//!
//! Layout on the wire: the argument bytes live in the shared region; the
//! kernel message carries only a small descriptor (`region id`, `length`)
//! plus the out-of-band capability vector (door identifiers must always be
//! visible to the kernel and can never live in shared memory). Replies
//! travel on the ordinary (copied) path — they are small for the workloads
//! that want this subcontract, and the asymmetry keeps the handler simple.

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId, ShmId, ShmRegion};
use subcontract::{
    get_obj_header, put_obj_header, redispatch_if_foreign, Dispatch, DomainCtx, ObjParts, Repr,
    Result, ScId, ServeDoor, SpringError, SpringObj, Subcontract, TypeInfo,
};

/// Client representation: the server door, this client's private region, and
/// the region size to advertise when the object moves on.
#[derive(Debug)]
struct ShmemRepr {
    door: DoorId,
    region: ShmRegion,
}

/// The shmem subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Shmem;

impl Shmem {
    /// The identifier carried in shmem objects' marshalled form.
    pub const ID: ScId = ScId::from_name("shmem");

    /// Default region size when none is configured.
    pub const DEFAULT_REGION: usize = 64 * 1024;

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Shmem> {
        Arc::new(Shmem)
    }

    /// Exports an object whose clients marshal arguments straight into a
    /// shared region. `region_size` is advertised to clients, each of which
    /// creates its own private region of that size.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        region_size: usize,
    ) -> Result<SpringObj> {
        let type_info = disp.type_info();
        ctx.types().register(type_info);
        // Server-side shmem code: maps the region named by the descriptor
        // and reads the arguments in place — no kernel copy of the payload.
        let servant = Some(disp.clone());
        let handler = ServeDoor::new(ctx, "shmem.serve", Self::ID, servant, move |call| {
            let desc = &mut call.args;
            let (region_id, _len) =
                (|| -> Result<(u64, u64)> { Ok((desc.get_u64()?, desc.get_u64()?)) })()
                    .map_err(|e| DoorError::Handler(format!("bad shm descriptor: {e}")))?;
            let kernel = call.ctx().domain().kernel();
            let mapped = kernel.lookup_shm(ShmId::from_raw(region_id))?.map_mut()?;
            let doors = call.args.drain_doors();
            call.args = CommBuffer::from_shm(mapped, doors);
            call.dispatch(&*disp)
        });
        let door = ctx.domain().create_door(handler)?;
        let region = ctx.domain().kernel().create_shm(region_size);
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(ShmemRepr { door, region }),
        ))
    }
}

impl Subcontract for Shmem {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "shmem"
    }

    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Redirect the buffer into the shared region before any argument
        // marshalling happens — the whole point of invoke_preamble.
        let repr = obj.repr().downcast::<ShmemRepr>(self.name())?;
        call.redirect_to_shm(repr.region.map_mut()?)?;
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<ShmemRepr>(self.name())?;
        if !call.is_shm_backed() {
            return Err(SpringError::Unsupported(
                "shmem invoke requires a call built via start_call",
            ));
        }
        let (mapped, len, caps) = call.take_shm()?;
        drop(mapped); // Publish the marshalled arguments to the region.

        let mut desc = CommBuffer::new();
        desc.put_u64(repr.region.id().raw());
        desc.put_u64(len as u64);
        let mut msg = desc.into_message();
        msg.doors = caps;

        let reply = obj.ctx().domain().call(repr.door, msg)?;
        Ok(CommBuffer::from_message(reply))
    }

    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<ShmemRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(repr.door);
        buf.put_u64(repr.region.size() as u64);
        // The region is private to this client; destroy it with the object.
        ctx.domain().kernel().destroy_shm(repr.region.id());
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
        let size = buf.get_u64()? as usize;
        let region = ctx.domain().kernel().create_shm(size);
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(ShmemRepr { door, region }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<ShmemRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        // Each object gets its own region: regions are single-mapper.
        let region = obj.ctx().domain().kernel().create_shm(repr.region.size());
        Ok(obj.assemble_like(Repr::new(ShmemRepr { door, region })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<ShmemRepr>(self.name())?;
        ctx.domain().kernel().destroy_shm(repr.region.id());
        ctx.domain().delete_door(repr.door)?;
        Ok(())
    }
}
