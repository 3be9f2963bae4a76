//! The *reconnectable* subcontract: quiet recovery from server crashes (§8.3).
//!
//! Some servers keep their state in stable storage; a client holding one of
//! their objects "would like the object to be able to quietly recover from
//! server crashes". Door identifiers become invalid when a server crashes,
//! so the reconnectable representation pairs a door identifier with an
//! object name: "if [the door invocation] fails, the subcontract instead
//! attempts to resolve the object name to obtain a new object and retries
//! the operation on that. It retries periodically until it succeeds in
//! getting a new valid object."

use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::DoorId;
use subcontract::{
    client, export_door, put_obj_header, Dispatch, DomainCtx, Landed, ObjParts, Repr, Result, ScId,
    SpringError, SpringObj, Subcontract, TypeInfo,
};

use crate::retry::Invocation;

pub use crate::retry::RetryPolicy;

/// Client representation: the current door plus the object's name.
#[derive(Debug)]
struct ReconRepr {
    door: Mutex<DoorId>,
    name: String,
}

/// The reconnectable subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Reconnectable {
    policy: RetryPolicy,
}

impl Reconnectable {
    /// The identifier carried in reconnectable objects' marshalled form.
    pub const ID: ScId = ScId::from_name("reconnectable");

    /// Creates the subcontract instance with the default retry policy.
    pub fn new() -> Arc<Reconnectable> {
        Arc::new(Reconnectable::default())
    }

    /// Creates the subcontract instance with a custom retry policy.
    pub fn with_policy(policy: RetryPolicy) -> Arc<Reconnectable> {
        Arc::new(Reconnectable { policy })
    }

    /// Exports an object under a stable name. The server (or its
    /// supervisor) is responsible for binding a copy of the returned object
    /// into the naming context under `name` — and for re-binding a fresh one
    /// after a restart, which is what clients reconnect to.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        name: impl Into<String>,
    ) -> Result<SpringObj> {
        let name = name.into();
        // No control region: a door adopted after a reconnect speaks the
        // same wire (see `adopt_door`).
        export_door(
            ctx,
            "reconnectable.serve",
            Self::ID,
            disp,
            |call, disp| call.dispatch(disp),
            |_| {
                Ok(|door| {
                    Repr::new(ReconRepr {
                        door: Mutex::new(door),
                        name,
                    })
                })
            },
        )
    }

    /// Extracts the door from a freshly resolved object of a subcontract
    /// whose serve door, like ours, has no control region (this client
    /// writes none and strips none, so a simplex door cannot be adopted).
    /// The donor object is disassembled, not consumed, so its door
    /// identifier survives.
    fn adopt_door(resolved: SpringObj) -> Result<DoorId> {
        let sc_id = resolved.subcontract().id();
        if sc_id != Self::ID && sc_id != crate::singleton::Singleton::ID {
            // Return before disassembly: dropping `resolved` whole runs its
            // subcontract's consume, so the unadoptable object's doors are
            // released instead of leaking with its discarded parts.
            return Err(SpringError::Unsupported(
                "reconnectable can only adopt doors served without a control region",
            ));
        }
        let (_ctx, _sc, parts) = resolved.into_parts();
        if sc_id == Self::ID {
            let repr = parts.repr.into_downcast::<ReconRepr>("reconnectable")?;
            Ok(repr.door.into_inner())
        } else {
            Ok(parts
                .repr
                .into_downcast::<crate::singleton::SingletonRepr>("singleton")?
                .door)
        }
    }
}

impl Subcontract for Reconnectable {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "reconnectable"
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<ReconRepr>(self.name())?;
        let domain = obj.ctx().domain();

        // One logical call: every attempt shares the nonce (so the server's
        // reply cache deduplicates a reply lost in flight) and the deadline.
        let mut inv = Invocation::begin(self.policy, call.into_message());
        loop {
            let door = *repr.door.lock();
            // A reconnect reads in the trace as a failed attempt plus the
            // retry that succeeded.
            let outcome = inv.attempt("reconnectable.attempt", domain, |attempt| {
                domain.call(door, attempt)
            });
            match outcome {
                Ok(reply) => return Ok(CommBuffer::from_message(reply)),
                Err(e) if e.is_comm_failure() => {
                    inv.backoff()?;
                    // Re-resolve the object name to obtain a new object and
                    // retry the operation on that (§8.3).
                    let resolver = obj.ctx().resolver()?;
                    match resolver.resolve(&repr.name, obj.type_info()) {
                        Ok(fresh) => match Self::adopt_door(fresh) {
                            Ok(new_door) => {
                                let old = std::mem::replace(&mut *repr.door.lock(), new_door);
                                let _ = domain.delete_door(old);
                            }
                            // An unadoptable binding is a failed attempt,
                            // not the end of the invocation: whoever bound
                            // it may rebind something usable before the
                            // retry budget runs out.
                            Err(_) => continue,
                        },
                        // The server is still down; keep retrying.
                        Err(_) => continue,
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn marshal(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<ReconRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(repr.door.into_inner());
        buf.put_string(&repr.name);
        Ok(())
    }

    /// §5.1.5: a copy of the current door, then the name, straight into the
    /// buffer; no intermediate lock or name is built.
    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        let repr = obj.repr().downcast::<ReconRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(*repr.door.lock())?;
        put_obj_header(buf, Self::ID, obj.type_name());
        buf.put_door(door);
        buf.put_string(&repr.name);
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
            |door, buf| {
                let name = buf.get_string()?;
                Ok(Repr::new(ReconRepr {
                    door: Mutex::new(door.keep()),
                    name,
                }))
            },
        )
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<ReconRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(*repr.door.lock())?;
        Ok(obj.assemble_like(Repr::new(ReconRepr {
            door: Mutex::new(door),
            name: repr.name.clone(),
        })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<ReconRepr>(self.name())?;
        // The door may already be dead (that is the point of this
        // subcontract); a failed delete is not an error worth surfacing.
        let _ = ctx.domain().delete_door(repr.door.into_inner());
        Ok(())
    }
}
