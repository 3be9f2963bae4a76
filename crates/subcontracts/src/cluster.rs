//! The *cluster* subcontract: one door shared by many objects (§8.1).
//!
//! Simplex uses a distinct kernel door for each piece of server state, which
//! is right for distinctly protected resources but wasteful when "if a
//! client is granted access to any of the objects, it might as well be
//! granted access to all of them". Cluster represents each object as the
//! combination of a door identifier and an integer tag; the
//! `invoke_preamble` and `invoke` operations conspire to ship the tag along
//! to the server, whose cluster code uses it to dispatch to a particular
//! object.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId};
use subcontract::{
    client, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId, ServeDoor, SpringError,
    SpringObj,
};

/// The cluster subcontract (client side).
#[derive(Debug, Default)]
pub struct Cluster;

impl Cluster {
    /// The identifier carried in cluster objects' marshalled form.
    pub const ID: ScId = ScId::from_name("cluster");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Cluster> {
        Arc::new(Cluster)
    }
}

struct ClusterTable {
    by_tag: HashMap<u32, Arc<dyn Dispatch>>,
    next_tag: u32,
}

/// Server-side cluster code: owns the single shared door and the tag table.
///
/// Each [`ClusterServer::export`] adds one entry to the tag table and issues
/// one more *identifier* for the same door — the kernel-door count stays at
/// one no matter how many objects are exported, which is the resource
/// saving benchmark E3 measures.
pub struct ClusterServer {
    ctx: Arc<DomainCtx>,
    /// The server's own identifier for the shared door.
    master: DoorId,
    table: Arc<RwLock<ClusterTable>>,
}

impl ClusterServer {
    /// Creates the server-side cluster machinery: one door for the whole
    /// cluster.
    pub fn new(ctx: &Arc<DomainCtx>) -> Result<Arc<ClusterServer>> {
        let table = Arc::new(RwLock::new(ClusterTable {
            by_tag: HashMap::new(),
            next_tag: 1,
        }));
        let by_tag = table.clone();
        let handler = ServeDoor::new(ctx, "cluster.serve", Cluster::ID, None, move |call| {
            let tag = call
                .args
                .get_u32()
                .map_err(|e| DoorError::Handler(format!("bad cluster tag: {e}")))?;
            // A revoked tag behaves like a revoked door: the call fails,
            // the identifier survives (§5.2.3).
            let disp = by_tag.read().by_tag.get(&tag).cloned();
            call.dispatch(&*disp.ok_or(DoorError::Revoked)?)
        });
        let master = ctx.domain().create_door(handler)?;
        Ok(Arc::new(ClusterServer {
            ctx: ctx.clone(),
            master,
            table,
        }))
    }

    /// Exports one object through the cluster: copies the shared door
    /// identifier, assigns a tag, and fabricates the Spring object. The
    /// order is [`export_door`](subcontract::export_door)'s: nothing that
    /// can fail runs after the copy, so a failed export leaves neither an
    /// identifier nor a tag behind.
    pub fn export(&self, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let sc = self.ctx.lookup_subcontract(Cluster::ID)?;
        let type_info = disp.type_info();
        self.ctx.types().register(type_info);
        let door = self.ctx.domain().copy_door(self.master)?;
        let tag = {
            let mut table = self.table.write();
            let tag = table.next_tag;
            table.next_tag += 1;
            table.by_tag.insert(tag, disp);
            tag
        };
        Ok(SpringObj::assemble(
            self.ctx.clone(),
            type_info,
            sc,
            DoorRepr::of(door, tag),
        ))
    }

    /// Revokes one object of the cluster by removing its tag; other objects
    /// sharing the door are unaffected.
    pub fn revoke_tag(&self, obj: &SpringObj) -> Result<()> {
        let tag = client::repr::<Cluster>(obj)?.state;
        if self.table.write().by_tag.remove(&tag).is_none() {
            return Err(SpringError::Unsupported("tag already revoked"));
        }
        Ok(())
    }

    /// Number of live (exported, unrevoked) objects in the cluster.
    pub fn live_objects(&self) -> usize {
        self.table.read().by_tag.len()
    }
}

/// Client representation: the shared door, then this object's tag.
impl DoorSubcontract for Cluster {
    const ID: ScId = Cluster::ID;
    const NAME: &'static str = "cluster";
    type State = u32;

    fn preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Ship the tag as the control region (§8.1).
        call.put_u32(client::repr::<Self>(obj)?.state);
        Ok(())
    }

    fn put(&self, tag: &u32, buf: &mut CommBuffer) {
        buf.put_u32(*tag);
    }

    fn get(&self, _ctx: &Arc<DomainCtx>, _door: DoorId, buf: &mut CommBuffer) -> Result<u32> {
        Ok(buf.get_u32()?)
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, tag: &u32) -> Result<u32> {
        Ok(*tag)
    }
}
