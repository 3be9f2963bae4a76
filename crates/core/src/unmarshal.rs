//! Compatible-subcontract dispatch (§6.1).
//!
//! Two objects perceived as having the same type may use different
//! subcontracts. The marshalled form of every object therefore begins with
//! a subcontract identifier, and "a typical subcontract unmarshal operation
//! starts by taking a peek at the expected subcontract identifier in the
//! communications buffer. If it contains the expected identifier ... the
//! subcontract goes ahead and unmarshals the object. However if the
//! unmarshal operation sees some other value then it calls into a registry
//! to locate the correct code for that subcontract."

use std::sync::Arc;

use spring_buf::CommBuffer;

use crate::ctx::DomainCtx;
use crate::error::{Result, SpringError};
use crate::object::SpringObj;
use crate::scid::ScId;
use crate::types::TypeInfo;

/// Writes the standard marshalled-object header: the subcontract identifier
/// followed by the object's authoritative type name.
pub fn put_obj_header(buf: &mut CommBuffer, id: ScId, type_name: &str) {
    buf.put_u64(id.raw());
    buf.put_string(type_name);
}

/// Reads the standard marshalled-object header written by
/// [`put_obj_header`], resolving the actual type against the receiving
/// domain's type registry.
///
/// When the receiver knows the actual type, it must conform to `expected`
/// (otherwise the sender lied about the type). When the receiver has never
/// heard of the type — it was not linked with those stubs — the object is
/// handled at its declared type, but the authoritative name is preserved in
/// the object (and in any re-marshalled form) so better-informed receivers
/// downstream can still narrow.
///
/// Returns the subcontract identifier, the wire type name, and the
/// best-known local type information.
pub fn get_obj_header(
    ctx: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
    buf: &mut CommBuffer,
) -> Result<(ScId, String, &'static TypeInfo)> {
    let (id, name, info) = read_obj_header(ctx, expected, buf)?;
    Ok((id, name, info?))
}

/// [`get_obj_header`] with the type check handed back instead of applied:
/// the outer error is a header that did not parse, the inner one a type that
/// does not conform. [`crate::client::unmarshal`] lands the object's doors
/// between the two, so a mismatch releases them.
pub(crate) fn read_obj_header(
    ctx: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
    buf: &mut CommBuffer,
) -> Result<(ScId, String, Result<&'static TypeInfo>)> {
    let id = ScId::from_raw(buf.get_u64()?);
    let name = buf.get_string()?;
    let info = match ctx.types().lookup(&name) {
        Some(t) if !t.is_a(expected) => Err(SpringError::TypeMismatch {
            expected: expected.name,
            actual: name.clone(),
        }),
        Some(t) => Ok(t),
        None => Ok(expected),
    };
    Ok((id, name, info))
}

/// The stub-level entry point for reading an object out of a buffer.
///
/// The stub "must choose both an initial subcontract and an initial method
/// table based on the expected type of the object" (§5.1.2): the initial
/// subcontract is the expected type's default subcontract, which then peeks
/// the identifier and re-dispatches if the buffer actually holds an object
/// of a different subcontract.
pub fn unmarshal_object(
    ctx: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
    buf: &mut CommBuffer,
) -> Result<SpringObj> {
    // The marshalled form leads with the subcontract identifier
    // (put_obj_header), so peeking it here keys the "unmarshal" latency
    // histogram by the subcontract that actually owns the bytes — even when
    // the initial subcontract re-dispatches.
    let mut span = spring_trace::span_start(
        "unmarshal",
        ctx.domain().trace_scope(),
        buf.peek_u64().unwrap_or(0),
    );
    let result = ctx
        .lookup_subcontract(expected.default_subcontract)
        .and_then(|initial| initial.unmarshal(ctx, expected, buf));
    if result.is_err() {
        span.fail();
    }
    result
}

/// The first step of every subcontract's `unmarshal`: peek the identifier
/// and, when the buffer holds an object of a *different* subcontract, locate
/// that subcontract (registry lookup, with dynamic discovery on a miss) and
/// delegate the unmarshalling to it.
///
/// Returns `Ok(None)` when the identifier matches `me` and the caller
/// should proceed with its own unmarshalling.
pub fn redispatch_if_foreign(
    me: ScId,
    ctx: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
    buf: &mut CommBuffer,
) -> Result<Option<SpringObj>> {
    let seen = ScId::from_raw(buf.peek_u64()?);
    if seen == me {
        return Ok(None);
    }
    let sc = ctx.lookup_subcontract(seen)?;
    Ok(Some(sc.unmarshal(ctx, expected, buf)?))
}
