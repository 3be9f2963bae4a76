//! The *replicon* subcontract: replication with failover (§5).
//!
//! In replicon, a set of server domains conspire to maintain the underlying
//! state associated with an object; each server accepts incoming calls on
//! its own door. A client object's representation is a set of door
//! identifiers, one per replica. The invoke operation tries each door in
//! turn: "If the door invocation fails due to a communications error, then
//! replicon deletes that door identifier from its set of targets and
//! proceeds to try the next door identifier" (§5.1.3).
//!
//! Replicon "also piggybacks some subcontract control information in the
//! call and reply buffers. This is used to support changes to the replica
//! set": the call carries the client's replica-set epoch; when the server's
//! membership is newer, the reply carries the current epoch and a fresh set
//! of door identifiers, which the client adopts.
//!
//! Clients talk to a single server at a time and "the servers are required
//! to perform their own state synchronization" — see the replicated file
//! service in `spring-services` for a server group that does.

use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::{Domain, DoorError, DoorId, Message};
use subcontract::{
    client, put_obj_header, DedupStats, Dispatch, DomainCtx, Landed, ObjParts, ReplyCache, Repr,
    Result, ScId, ServeDoor, SpringError, SpringObj, Subcontract, TypeInfo,
};

use crate::retry::{Invocation, RetryPolicy};

/// Reply control flag: the client's replica set is current.
const CTRL_CURRENT: u8 = 0;
/// Reply control flag: an updated replica set follows.
const CTRL_UPDATE: u8 = 1;

/// Client representation: the replica-set epoch and one door per replica.
#[derive(Debug)]
struct RepliconRepr {
    state: Mutex<ReplicaState>,
}

#[derive(Debug)]
struct ReplicaState {
    epoch: u64,
    doors: Vec<DoorId>,
}

impl RepliconRepr {
    /// The representation of an object assembled around `doors`, which pass
    /// from their guards to it.
    fn assemble(epoch: u64, doors: Vec<Landed<'_>>) -> Repr {
        let doors = doors.into_iter().map(Landed::keep).collect();
        Repr::new(RepliconRepr {
            state: Mutex::new(ReplicaState { epoch, doors }),
        })
    }
}

/// Takes the next `n` door identifiers out of `buf`; a bad slot releases the
/// ones before it.
fn land<'a>(domain: &'a Domain, buf: &mut CommBuffer, n: usize) -> Result<Vec<Landed<'a>>> {
    (0..n).map(|_| Landed::take(domain, buf)).collect()
}

/// The replicon subcontract (client side).
#[derive(Debug, Default)]
pub struct Replicon {
    policy: RetryPolicy,
}

impl Replicon {
    /// The identifier carried in replicon objects' marshalled form.
    pub const ID: ScId = ScId::from_name("replicon");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Replicon> {
        Arc::new(Replicon::default())
    }

    /// Creates the subcontract instance with a custom retry policy
    /// (pacing for transient-loss retries; replica failover itself is
    /// immediate and not budgeted).
    pub fn with_policy(policy: RetryPolicy) -> Arc<Replicon> {
        Arc::new(Replicon { policy })
    }

    /// Number of door identifiers a replicon object currently holds
    /// (shrinks as failovers delete dead replicas, grows back when a
    /// piggybacked update arrives).
    pub fn live_replicas(obj: &SpringObj) -> Result<usize> {
        let repr = obj.repr().downcast::<RepliconRepr>("replicon")?;
        Ok(repr.state.lock().doors.len())
    }

    /// The replica-set epoch the object currently knows.
    pub fn epoch(obj: &SpringObj) -> Result<u64> {
        let repr = obj.repr().downcast::<RepliconRepr>("replicon")?;
        Ok(repr.state.lock().epoch)
    }
}

impl Subcontract for Replicon {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "replicon"
    }

    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Piggyback the client's epoch so the server can detect staleness.
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        call.put_u64(repr.state.lock().epoch);
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        let domain = obj.ctx().domain();

        // One logical call across every failover and retry: all attempts
        // share the nonce, so whichever replica executed the first attempt
        // can be recognized through the group's shared reply cache.
        let mut inv = Invocation::begin(self.policy, call.into_message());
        loop {
            // Snapshot the first target under the lock; call outside it.
            let target = match repr.state.lock().doors.first() {
                Some(d) => *d,
                None => return Err(SpringError::Exhausted("no live replicas")),
            };
            // A failover shows up in the trace as a failed attempt followed
            // by the successful retry.
            let outcome = inv.attempt("replicon.attempt", domain, |attempt| {
                domain.call(target, attempt)
            });
            match outcome {
                Ok(reply) => {
                    let mut reply = CommBuffer::from_message(reply);
                    self.absorb_reply_control(obj, &mut reply)?;
                    return Ok(reply);
                }
                Err(DoorError::Comm(_)) => {
                    // Transient network failure: the replica behind the
                    // door may be healthy — and may already have executed
                    // this call. Keep the identifier, rotate it to the back
                    // of the set, and retry after a backoff against the
                    // attempt/deadline budget.
                    let mut state = repr.state.lock();
                    if let Some(pos) = state.doors.iter().position(|d| *d == target) {
                        let d = state.doors.remove(pos);
                        state.doors.push(d);
                    }
                    drop(state);
                    inv.backoff()?;
                }
                Err(e) if e.is_comm_failure() => {
                    // The replica itself is gone (door revoked, domain
                    // dead): delete the dead door identifier from the
                    // target set and fail over to the next one immediately
                    // (§5.1.3).
                    let mut state = repr.state.lock();
                    if let Some(pos) = state.doors.iter().position(|d| *d == target) {
                        state.doors.remove(pos);
                    }
                    drop(state);
                    let _ = domain.delete_door(target);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let _ = ctx;
        let repr = parts.repr.into_downcast::<RepliconRepr>(self.name())?;
        let state = repr.state.into_inner();
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_u64(state.epoch);
        buf.put_seq_len(state.doors.len());
        for d in state.doors {
            buf.put_door(d);
        }
        Ok(())
    }

    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        // Optimized copy-then-marshal (§5.1.5): duplicate every replica
        // identifier straight into the buffer, skipping the intermediate
        // object (and its Mutex, Box, and Vec) entirely.
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        let state = repr.state.lock();
        put_obj_header(buf, Self::ID, obj.type_name());
        buf.put_u64(state.epoch);
        buf.put_seq_len(state.doors.len());
        for d in &state.doors {
            buf.put_door(obj.ctx().domain().copy_door(*d)?);
        }
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
            |buf| {
                let epoch = buf.get_u64()?;
                let n = buf.get_seq_len(4)?;
                Ok((epoch, land(ctx.domain(), buf, n)?))
            },
            |(epoch, doors), _| Ok(RepliconRepr::assemble(epoch, doors)),
        )
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        let state = repr.state.lock();
        // A copy that fails releases the copies made before it.
        let doors = (state.doors.iter())
            .map(|d| Landed::copy_of(obj.ctx().domain(), *d))
            .collect::<Result<_>>()?;
        Ok(obj.assemble_like(RepliconRepr::assemble(state.epoch, doors)))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<RepliconRepr>(self.name())?;
        for d in repr.state.into_inner().doors {
            // A replica may have died; its identifier is still ours to
            // delete, and failures here must not mask the others.
            let _ = ctx.domain().delete_door(d);
        }
        Ok(())
    }
}

impl Replicon {
    /// Reads the reply control region and adopts a piggybacked replica-set
    /// update when present.
    fn absorb_reply_control(&self, obj: &SpringObj, reply: &mut CommBuffer) -> Result<()> {
        match reply.get_u8()? {
            CTRL_CURRENT => Ok(()),
            CTRL_UPDATE => {
                let epoch = reply.get_u64()?;
                let n = reply.get_seq_len(4)?;
                let fresh = land(obj.ctx().domain(), reply, n)?;
                let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
                let old = {
                    let mut state = repr.state.lock();
                    if epoch <= state.epoch {
                        // Raced with a newer update: the guards release
                        // the stale set once the lock is gone.
                        return Ok(());
                    }
                    state.epoch = epoch;
                    let fresh = fresh.into_iter().map(Landed::keep).collect();
                    std::mem::replace(&mut state.doors, fresh)
                };
                for d in old {
                    let _ = obj.ctx().domain().delete_door(d);
                }
                Ok(())
            }
            other => Err(SpringError::Remote(format!(
                "bad replicon control flag {other}"
            ))),
        }
    }
}

#[derive(Debug)]
struct Membership {
    epoch: u64,
    /// Identifiers for every member's door, owned by this server's domain.
    members: Vec<DoorId>,
}

/// One replica's server-side replicon machinery.
pub struct RepliconServer {
    ctx: Arc<DomainCtx>,
    disp: Arc<dyn Dispatch>,
    /// The server's own identifier for its own door.
    master: DoorId,
    membership: Arc<Mutex<Membership>>,
    /// The serve door. Joining a [`ReplicaGroup`] points it at the *group's*
    /// reply cache: a retried call that fails over to a sibling replica
    /// must still be recognized as a duplicate, which is part of the state
    /// synchronization the paper leaves to the servers.
    door: Arc<ServeDoor>,
}

impl RepliconServer {
    /// Creates one replica server: its door plus empty membership (joining a
    /// [`ReplicaGroup`] fills the membership in).
    pub fn new(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<Arc<RepliconServer>> {
        ctx.types().register(disp.type_info());
        let membership = Arc::new(Mutex::new(Membership {
            epoch: 0,
            members: Vec::new(),
        }));
        let members = membership.clone();
        let (servant, served) = (Some(disp.clone()), disp.clone());
        let door = ServeDoor::new(ctx, "replicon.serve", Replicon::ID, servant, move |call| {
            let client_epoch = call
                .args
                .get_u64()
                .map_err(|e| DoorError::Handler(format!("bad replicon control: {e}")))?;
            // Piggyback a replica-set update when the client is stale
            // (§5.1.3).
            {
                let membership = members.lock();
                if client_epoch < membership.epoch {
                    call.reply.put_u8(CTRL_UPDATE);
                    call.reply.put_u64(membership.epoch);
                    call.reply.put_seq_len(membership.members.len());
                    for d in &membership.members {
                        let copy = call
                            .ctx()
                            .domain()
                            .copy_door(*d)
                            .map_err(|e| DoorError::Handler(format!("membership copy: {e}")))?;
                        call.reply.put_door(copy);
                    }
                } else {
                    call.reply.put_u8(CTRL_CURRENT);
                }
            }
            call.dispatch(&*served)
        });
        let master = ctx.domain().create_door(door.clone())?;
        Ok(Arc::new(RepliconServer {
            ctx: ctx.clone(),
            disp,
            master,
            membership,
            door,
        }))
    }

    /// The serving domain's context.
    pub fn ctx(&self) -> &Arc<DomainCtx> {
        &self.ctx
    }

    /// Counter snapshot of the reply cache this replica currently serves
    /// from (the group-wide cache once the replica has joined a group).
    pub fn dedup_stats(&self) -> DedupStats {
        self.door.cache_stats()
    }

    /// True while the serving domain is alive.
    pub fn is_alive(&self) -> bool {
        self.ctx.domain().is_alive()
    }
}

/// Group coordinator: tracks the replica membership, bumps the epoch on
/// change, and distributes fresh door sets to every live replica.
///
/// In Spring this coordination is part of the server application ("the
/// servers are required to perform their own state synchronization"); the
/// group object plays that role for tests, examples, and benches. Replicas
/// may live on different machines when the group is built over a network
/// transport ([`ReplicaGroup::with_transport`]).
pub struct ReplicaGroup {
    inner: Mutex<GroupInner>,
    transport: Arc<dyn subcontract::Transport>,
    /// The group-wide reply cache every member serves from, so duplicate
    /// suppression survives failover between replicas.
    dedup: Arc<ReplyCache>,
}

impl Default for ReplicaGroup {
    fn default() -> Self {
        ReplicaGroup::new()
    }
}

#[derive(Default)]
struct GroupInner {
    epoch: u64,
    servers: Vec<Arc<RepliconServer>>,
}

impl ReplicaGroup {
    /// Creates an empty single-machine group.
    pub fn new() -> ReplicaGroup {
        ReplicaGroup::with_transport(Arc::new(subcontract::KernelTransport))
    }

    /// Creates an empty group whose door identifiers move through the given
    /// transport (for replicas spread across machines).
    pub fn with_transport(transport: Arc<dyn subcontract::Transport>) -> ReplicaGroup {
        ReplicaGroup {
            inner: Mutex::new(GroupInner::default()),
            transport,
            dedup: Arc::new(ReplyCache::default()),
        }
    }

    /// Copies `member`'s master identifier into the `to` domain via the
    /// group's transport.
    fn door_for(&self, member: &RepliconServer, to: &spring_kernel::Domain) -> Result<DoorId> {
        let copy = member.ctx.domain().copy_door(member.master)?;
        let msg = Message {
            bytes: Vec::new(),
            doors: vec![copy],
            ..Message::default()
        };
        let mut arrived = self.transport.ship(member.ctx.domain(), to, msg)?;
        arrived
            .doors
            .pop()
            .ok_or(SpringError::Exhausted("transport dropped the identifier"))
    }

    /// Adds a replica and redistributes membership. The joining replica is
    /// switched onto the group's shared reply cache, so a client retry that
    /// lands on a different member still deduplicates.
    pub fn add(&self, server: Arc<RepliconServer>) -> Result<()> {
        server.door.share_cache(self.dedup.clone());
        let mut inner = self.inner.lock();
        inner.servers.push(server);
        self.redistribute(&mut inner)
    }

    /// Drops replicas whose domains have crashed and redistributes
    /// membership (how the surviving servers learn about a failure).
    pub fn remove_dead(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.servers.retain(|s| s.is_alive());
        self.redistribute(&mut inner)
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Number of live replicas.
    pub fn len(&self) -> usize {
        self.inner.lock().servers.len()
    }

    /// True when the group has no replicas.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().servers.is_empty()
    }

    fn redistribute(&self, inner: &mut GroupInner) -> Result<()> {
        inner.epoch += 1;
        let epoch = inner.epoch;
        for receiver in &inner.servers {
            let mut fresh = Vec::with_capacity(inner.servers.len());
            for member in &inner.servers {
                fresh.push(self.door_for(member, receiver.ctx.domain())?);
            }
            let mut membership = receiver.membership.lock();
            let old = std::mem::replace(&mut membership.members, fresh);
            membership.epoch = epoch;
            drop(membership);
            for d in old {
                let _ = receiver.ctx.domain().delete_door(d);
            }
        }
        Ok(())
    }

    /// Fabricates a client object for the group in `ctx`'s domain, holding
    /// one door identifier per live replica.
    pub fn object_for(&self, ctx: &Arc<DomainCtx>) -> Result<SpringObj> {
        let inner = self.inner.lock();
        let first = inner
            .servers
            .first()
            .ok_or(SpringError::Exhausted("replica group is empty"))?;
        let type_info = first.disp.type_info();
        ctx.types().register(type_info);
        let sc = ctx.lookup_subcontract(Replicon::ID)?;
        let doors = (inner.servers.iter())
            .map(|member| {
                Ok(Landed::adopt(
                    ctx.domain(),
                    self.door_for(member, ctx.domain())?,
                ))
            })
            .collect::<Result<_>>()?;
        let repr = RepliconRepr::assemble(inner.epoch, doors);
        Ok(SpringObj::assemble(ctx.clone(), type_info, sc, repr))
    }
}
