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

use spring_buf::BufError;
use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId, ShmId, ShmRegion};
use subcontract::{
    client, export_door, Call, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId,
    SpringError, SpringObj,
};

/// The shmem subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Shmem;

impl Shmem {
    /// The identifier carried in shmem objects' marshalled form.
    pub const ID: ScId = ScId::from_name("shmem");

    /// Default region size when none is configured.
    pub const DEFAULT_REGION: usize = 64 * 1024;

    /// Largest region an object may ask for. A mapping grows past the
    /// region's size on demand, so this bounds only the up-front allocation
    /// a marshalled object can make its receiver perform.
    pub const MAX_REGION: usize = 64 * 1024 * 1024;

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Shmem> {
        Arc::new(Shmem)
    }

    /// Creates a private region of the size an export or a marshalled object
    /// claims, bounding the claim before anything is allocated for it.
    fn create_region(ctx: &Arc<DomainCtx>, claimed: u64) -> Result<ShmRegion> {
        if claimed == 0 || claimed > Self::MAX_REGION as u64 {
            return Err(SpringError::Buf(BufError::LengthOverrun {
                claimed,
                limit: Self::MAX_REGION as u64,
            }));
        }
        Ok(ctx.domain().kernel().create_shm(claimed as usize))
    }

    /// Exports an object whose clients marshal arguments straight into a
    /// shared region. `region_size` is advertised to clients, each of which
    /// creates its own private region of that size. A failed export
    /// releases the region it made.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        region_size: usize,
    ) -> Result<SpringObj> {
        let region = Self::create_region(ctx, region_size as u64)?;
        let id = region.id();
        // Server-side shmem code: maps the region named by the descriptor
        // and reads the arguments in place — no kernel copy of the payload.
        let control = |call: &mut Call<'_>, disp: &dyn Dispatch| {
            let desc = &mut call.args;
            let (region_id, _len) =
                (|| -> Result<(u64, u64)> { Ok((desc.get_u64()?, desc.get_u64()?)) })()
                    .map_err(|e| DoorError::Handler(format!("bad shm descriptor: {e}")))?;
            let kernel = call.ctx().domain().kernel();
            let mapped = kernel.lookup_shm(ShmId::from_raw(region_id))?.map_mut()?;
            let doors = call.args.drain_doors();
            call.args = CommBuffer::from_shm(mapped, doors);
            call.dispatch(disp)
        };
        export_door(ctx, "shmem.serve", Self::ID, disp, control, |_| {
            Ok(|door| DoorRepr::of(door, region))
        })
        .inspect_err(|_| ctx.domain().kernel().destroy_shm(id))
    }
}

/// Client representation: the server door, then this client's private
/// region, whose size is what travels when the object moves on.
impl DoorSubcontract for Shmem {
    const ID: ScId = Shmem::ID;
    const NAME: &'static str = "shmem";
    type State = ShmRegion;

    fn preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Redirect the buffer into the shared region before any argument
        // marshalling happens — the whole point of invoke_preamble.
        call.redirect_to_shm(client::repr::<Self>(obj)?.state.map_mut()?)?;
        Ok(())
    }

    fn call(&self, obj: &SpringObj, args: CommBuffer) -> Result<CommBuffer> {
        let repr = client::repr::<Self>(obj)?;
        if !args.is_shm_backed() {
            return Err(SpringError::Unsupported(
                "shmem invoke requires a call built via start_call",
            ));
        }
        let (mapped, len, caps) = args.take_shm()?;
        drop(mapped); // Publish the marshalled arguments to the region.

        let mut desc = CommBuffer::new();
        desc.put_u64(repr.state.id().raw());
        desc.put_u64(len as u64);
        let mut msg = desc.into_message();
        msg.doors = caps;

        let reply = obj.ctx().domain().call(repr.door, msg)?;
        Ok(CommBuffer::from_message(reply))
    }

    fn put(&self, region: &ShmRegion, buf: &mut CommBuffer) {
        buf.put_u64(region.size() as u64);
    }

    fn get(&self, ctx: &Arc<DomainCtx>, _door: DoorId, buf: &mut CommBuffer) -> Result<ShmRegion> {
        Self::create_region(ctx, buf.get_u64()?)
    }

    fn fork(&self, ctx: &Arc<DomainCtx>, region: &ShmRegion) -> Result<ShmRegion> {
        // Each object gets its own region: regions are single-mapper.
        Ok(ctx.domain().kernel().create_shm(region.size()))
    }

    fn retire(&self, ctx: &Arc<DomainCtx>, region: ShmRegion) {
        // The region is private to this client; destroy it with the object.
        ctx.domain().kernel().destroy_shm(region.id());
    }
}
