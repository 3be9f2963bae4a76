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
    get_obj_header, put_obj_header, redispatch_if_foreign, Dispatch, DomainCtx, ObjParts, Repr,
    Result, ScId, ServeDoor, SpringError, SpringObj, Subcontract, TypeInfo,
};

/// Client representation: the shared door plus this object's tag.
#[derive(Debug)]
struct ClusterRepr {
    door: DoorId,
    tag: u32,
}

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

    /// Exports one object through the cluster: assigns a tag, copies the
    /// shared door identifier, and fabricates the Spring object.
    pub fn export(&self, disp: Arc<dyn Dispatch>) -> Result<SpringObj> {
        let type_info = disp.type_info();
        self.ctx.types().register(type_info);
        let tag = {
            let mut table = self.table.write();
            let tag = table.next_tag;
            table.next_tag += 1;
            table.by_tag.insert(tag, disp);
            tag
        };
        let door = self.ctx.domain().copy_door(self.master)?;
        Ok(SpringObj::assemble(
            self.ctx.clone(),
            type_info,
            self.ctx.lookup_subcontract(Cluster::ID)?,
            Repr::new(ClusterRepr { door, tag }),
        ))
    }

    /// Revokes one object of the cluster by removing its tag; other objects
    /// sharing the door are unaffected.
    pub fn revoke_tag(&self, obj: &SpringObj) -> Result<()> {
        let repr = obj.repr().downcast::<ClusterRepr>("cluster")?;
        if self.table.write().by_tag.remove(&repr.tag).is_none() {
            return Err(SpringError::Unsupported("tag already revoked"));
        }
        Ok(())
    }

    /// Number of live (exported, unrevoked) objects in the cluster.
    pub fn live_objects(&self) -> usize {
        self.table.read().by_tag.len()
    }
}

impl Subcontract for Cluster {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "cluster"
    }

    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Ship the tag as the control region (§8.1).
        let repr = obj.repr().downcast::<ClusterRepr>(self.name())?;
        call.put_u32(repr.tag);
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<ClusterRepr>(self.name())?;
        let reply = obj.ctx().domain().call(repr.door, call.into_message())?;
        Ok(CommBuffer::from_message(reply))
    }

    fn marshal(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<ClusterRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(repr.door);
        buf.put_u32(repr.tag);
        Ok(())
    }

    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        // Optimized copy-then-marshal (§5.1.5).
        let repr = obj.repr().downcast::<ClusterRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        put_obj_header(buf, Self::ID, obj.type_name());
        buf.put_door(door);
        buf.put_u32(repr.tag);
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
        let tag = buf.get_u32()?;
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(ClusterRepr { door, tag }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<ClusterRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        Ok(obj.assemble_like(Repr::new(ClusterRepr {
            door,
            tag: repr.tag,
        })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<ClusterRepr>(self.name())?;
        ctx.domain().delete_door(repr.door)?;
        Ok(())
    }
}
