//! The subcontract operations vector and related service traits.

use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

use spring_buf::CommBuffer;

use crate::ctx::DomainCtx;
use crate::error::{Result, SpringError};
use crate::object::SpringObj;
use crate::repr::Repr;
use crate::scid::ScId;
use crate::server::Dispatch;
use crate::types::TypeInfo;

/// The pieces of a disassembled object, handed to consuming operations.
///
/// `marshal` and `consume` destroy the local object (§5.1.1: marshal
/// "deletes all the local state associated with the object"), so they
/// receive the object's parts rather than a borrowed handle.
pub struct ObjParts {
    /// The object's most-derived locally known type.
    pub type_info: &'static TypeInfo,
    /// The authoritative type name carried on the wire.
    pub type_name: Cow<'static, str>,
    /// The representation, owned.
    pub repr: Repr,
}

/// The client-side subcontract operations vector (§5.1).
///
/// One instance serves every object using that subcontract in a domain; all
/// per-object state lives in the object's [`Repr`]. Implementations must be
/// cheap to call — the paper counts the two indirect calls from the stubs
/// into the client subcontract as the mechanism's core overhead (§9.3).
/// An instance is [`Any`], so a subcontract can find its own registered
/// instance behind [`DomainCtx::lookup_subcontract`].
pub trait Subcontract: Any + Send + Sync {
    /// The identifier written into every marshalled form (§6.1).
    fn id(&self) -> ScId;

    /// Human-readable subcontract name (`"replicon"`, `"simplex"`, …).
    fn name(&self) -> &'static str;

    /// Called by the stubs before any argument marshalling has begun, so the
    /// subcontract can write control information into the buffer or redirect
    /// the buffer (for example into shared memory) to influence future
    /// marshalling (§5.1.4).
    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        let _ = (obj, call);
        Ok(())
    }

    /// Executes an object call after the stubs have marshalled all the
    /// arguments: takes the argument buffer, returns the result buffer
    /// (§5.1.3). On return the result buffer is positioned after any
    /// subcontract control information, ready for the stubs to unmarshal
    /// results.
    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer>;

    /// Transmits the object: places enough information in `buf` that an
    /// essentially identical object can be unmarshalled in another domain,
    /// then deletes all local state (§5.1.1). Conventionally the first thing
    /// written is the subcontract identifier.
    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()>;

    /// Produces the effect of a copy followed by a marshal, but may optimize
    /// out the intermediate object (§5.1.5). The default implementation is
    /// the unoptimized copy-then-marshal the paper describes replacing.
    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        let copy = self.copy(obj)?;
        copy.marshal(buf)
    }

    /// Fabricates a fully fledged object from the marshalled form: reads the
    /// subcontract identifier and body from `buf` and plugs together the
    /// subcontract operations vector, type information, and a fresh
    /// representation (§5.1.2).
    ///
    /// Implementations must begin by peeking the subcontract identifier and
    /// re-dispatching through [`crate::redispatch_if_foreign`] when the
    /// buffer holds an object of a *different* subcontract (§6.1).
    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj>;

    /// Produces a second object sharing the same underlying state (§7's
    /// shallow copy). Subcontracts maintaining client/server dialogues use
    /// this control point to notify servers of births.
    fn copy(&self, obj: &SpringObj) -> Result<SpringObj>;

    /// Deletes the object (§7's `consume`): releases the representation's
    /// resources, notifying servers of deaths where the subcontract
    /// maintains a dialogue.
    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()>;
}

/// Server-side subcontract operations (§5.2).
///
/// The paper allows server-side interfaces to "vary considerably between
/// subcontracts", but three elements are typically present: creating a
/// Spring object from a language-level object, processing incoming calls
/// (done internally by door handlers the implementation installs), and
/// revoking an object.
pub trait ServerSubcontract: Send + Sync {
    /// Creates a Spring object from a language-level object (§5.2.1): sets
    /// up a communication endpoint (or a same-address-space fast path) and
    /// fabricates a client-side object whose representation uses it.
    fn export(&self, ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<SpringObj>;

    /// Revokes an outstanding object (§5.2.3): clients holding the object
    /// keep their identifiers, but every future call fails.
    fn revoke(&self, obj: &SpringObj) -> Result<()> {
        let _ = obj;
        Err(SpringError::Unsupported("revoke"))
    }
}

/// Resolves names to objects.
///
/// Several subcontracts depend on a naming context: reconnectable re-resolves
/// its object name after a crash (§8.3) and caching resolves its cache
/// manager name in a machine-local context (§8.2). The name service itself
/// lives above this crate, so it is injected via this trait.
pub trait Resolver: Send + Sync {
    /// Resolves `name` to an object, at the given expected type.
    fn resolve(&self, name: &str, expected: &'static TypeInfo) -> Result<SpringObj>;
}
