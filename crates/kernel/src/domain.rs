//! Domain handles and the door-handler trait.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::error::DoorError;
use crate::id::{DomainId, DoorId};
use crate::kernel::{DomainState, Kernel};
use crate::message::Message;

/// Context passed to a [`DoorHandler`] for each incoming call.
///
/// Spring door calls shuttle the caller's thread into the serving domain;
/// the context tells the handler which domain issued the call and lends it
/// the domain it is logically executing in ([`CallCtx::server`]). It
/// borrows from the kernel and the door for the length of the call, so
/// building one writes no reference count.
pub struct CallCtx<'a> {
    /// The domain that issued the call.
    pub caller: DomainId,
    /// The caller wants no answer ([`Domain::call_one_way`]): a handler that
    /// forwards the call elsewhere may skip fetching the reply and return
    /// an empty message. A handler that ignores this replies as usual.
    pub one_way: bool,
    /// The pipelining hint ([`Domain::call_in_company`]): how many calls,
    /// this one included, the caller's subcontract has issued toward this
    /// door and not yet handed to it. A handler that forwards the call may
    /// hold it back, within its own budget, until that many have gathered
    /// and send them together. Zero — every plain call — means nothing
    /// else is coming.
    pub company: u32,
    pub(crate) kernel: &'a Kernel,
    pub(crate) server: &'a Arc<DomainState>,
}

impl CallCtx<'_> {
    /// A handle on the domain serving the door, for a handler that performs
    /// kernel operations on its behalf: door identifiers in the incoming
    /// message are owned by this domain, and identifiers placed in the
    /// reply must be owned by it too.
    pub fn server(&self) -> Domain {
        Domain::new(self.kernel.clone(), Arc::clone(self.server))
    }
}

/// The target of a door: server-side code invoked for each call.
///
/// Handlers run on the caller's thread (Spring's thread shuttling), so they
/// must be `Send + Sync`. A handler receives messages whose door identifiers
/// have already been translated into the serving domain's table.
pub trait DoorHandler: Send + Sync {
    /// Processes one incoming call and produces the reply message.
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError>;

    /// Called once when the last door identifier for this door is deleted,
    /// so the server can clean up (§7: "the kernel will notify the door's
    /// target ... so that it can clean up").
    fn unreferenced(&self) {}
}

impl<F> DoorHandler for F
where
    F: Fn(&CallCtx, Message) -> Result<Message, DoorError> + Send + Sync,
{
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        self(ctx, msg)
    }
}

/// A handle on one domain (simulated address space) of a [`Kernel`].
///
/// Cloning the handle does not create a new domain; it is the same domain
/// observed from another place (handles are reference-like).
#[derive(Clone)]
pub struct Domain {
    kernel: Kernel,
    /// The domain's door table and liveness, held directly so no operation
    /// looks the domain up by id.
    state: Arc<DomainState>,
}

impl Domain {
    pub(crate) fn new(kernel: Kernel, state: Arc<DomainState>) -> Self {
        Domain { kernel, state }
    }

    pub(crate) fn state(&self) -> &DomainState {
        &self.state
    }

    /// This domain's identifier.
    pub fn id(&self) -> DomainId {
        self.state.id
    }

    /// The kernel this domain belongs to.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The human-readable name given at creation.
    pub fn name(&self) -> String {
        self.state.name.clone()
    }

    /// Returns true while the domain has not crashed.
    pub fn is_alive(&self) -> bool {
        self.state.alive.load(Ordering::Relaxed)
    }

    /// The trace scope tag for this domain: `node << 32 | domain`. Spans
    /// opened while executing in this domain record into the per-scope ring
    /// buffer tagged with this value (see the `spring-trace` crate).
    pub fn trace_scope(&self) -> u64 {
        (self.kernel.node_id().raw() << 32) | self.id().raw()
    }

    /// Creates a door served by this domain and returns the first identifier.
    pub fn create_door(&self, handler: Arc<dyn DoorHandler>) -> Result<DoorId, DoorError> {
        self.kernel.create_door(&self.state, handler)
    }

    /// Issues a call on a door identifier owned by this domain.
    ///
    /// Door identifiers carried by `msg` are transferred to the serving
    /// domain; identifiers in the reply are transferred back to this domain.
    pub fn call(&self, door: DoorId, msg: Message) -> Result<Message, DoorError> {
        self.kernel.call(&self.state, door, msg, false, 0)
    }

    /// Issues a call whose reply the caller will not read (a best-effort
    /// pub/sub delivery, say), telling the handler so through
    /// [`CallCtx::one_way`]. Failures on the way in (link down, marshalling)
    /// still surface; only the *reply* may come back empty, so a caller
    /// that finds a non-empty reply is looking at a handler that answered
    /// anyway.
    pub fn call_one_way(&self, door: DoorId, msg: Message) -> Result<Message, DoorError> {
        self.kernel.call(&self.state, door, msg, true, 0)
    }

    /// Issues a call that is one of `company` the caller has issued toward
    /// this door and not yet handed to it (itself included), telling the
    /// handler so through [`CallCtx::company`]. Otherwise exactly
    /// [`Domain::call`].
    pub fn call_in_company(
        &self,
        door: DoorId,
        msg: Message,
        company: u32,
    ) -> Result<Message, DoorError> {
        self.kernel.call(&self.state, door, msg, false, company)
    }

    /// Copies a door identifier, yielding a second, independent identifier
    /// for the same door (the kernel operation behind the simplex
    /// subcontract's `copy`, §7).
    pub fn copy_door(&self, door: DoorId) -> Result<DoorId, DoorError> {
        self.kernel.copy_door(&self.state, door)
    }

    /// Moves a door identifier to another domain without a door call
    /// (used by infrastructure such as the network servers).
    pub fn transfer_door(&self, door: DoorId, to: &Domain) -> Result<DoorId, DoorError> {
        self.kernel.transfer_door(&self.state, door, to)
    }

    /// Deletes a door identifier owned by this domain. Deleting the last
    /// identifier for a door triggers the handler's
    /// [`DoorHandler::unreferenced`] notification.
    pub fn delete_door(&self, door: DoorId) -> Result<(), DoorError> {
        self.kernel.delete_door(&self.state, door)
    }

    /// Revokes a door served by this domain: outstanding identifiers remain
    /// but every future call fails with [`DoorError::Revoked`] (§5.2.3).
    pub fn revoke_door(&self, door: DoorId) -> Result<(), DoorError> {
        self.kernel.revoke_door(&self.state, door)
    }

    /// Returns true when `door` is a live identifier owned by this domain.
    pub fn door_is_valid(&self, door: DoorId) -> bool {
        self.kernel.door_is_valid(&self.state, door)
    }

    /// Resolves an identifier to its kernel-internal door token (trusted
    /// infrastructure only; see [`Kernel`] internals). Two identifiers
    /// denote the same door iff their tokens are equal.
    pub fn door_token(&self, door: DoorId) -> Result<u64, DoorError> {
        self.kernel.door_token(&self.state, door)
    }

    /// Simulates a crash of this domain: its doors are revoked and all door
    /// identifiers it owns are deleted.
    pub fn crash(&self) {
        self.kernel.crash_domain(&self.state);
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Domain({:?} on {:?})", self.id(), self.kernel.node_id())
    }
}
