//! The Spring object: method table + subcontract ops vector + representation.

use std::fmt;
use std::sync::Arc;

use spring_buf::CommBuffer;

use crate::ctx::DomainCtx;
use crate::error::{Result, SpringError};
use crate::repr::Repr;
use crate::traits::{ObjParts, Subcontract};
use crate::types::TypeInfo;

struct ObjInner {
    ctx: Arc<DomainCtx>,
    /// The authoritative type name from the marshalled form. It survives
    /// transit through domains that do not know the type (where `type_info`
    /// degrades to the declared type), so a later, better-informed receiver
    /// can still narrow correctly.
    type_name: String,
    /// Best locally-known type information.
    type_info: &'static TypeInfo,
    sc: Arc<dyn Subcontract>,
    repr: Repr,
}

impl ObjInner {
    /// Takes the object apart for an operation that destroys it.
    fn into_parts(self) -> (Arc<DomainCtx>, Arc<dyn Subcontract>, ObjParts) {
        (
            self.ctx,
            self.sc,
            ObjParts {
                type_info: self.type_info,
                type_name: self.type_name,
                repr: self.repr,
            },
        )
    }
}

/// Runs one subcontract chokepoint of an object of `sc` in `ctx`. With
/// tracing enabled it records one latency sample keyed by `(subcontract id,
/// key)` — the per-subcontract histograms every mechanism shares — and marks
/// the span failed on an error. The flag is tested before the span's
/// arguments are evaluated (a virtual `id()` call and two pointer chases), so
/// with tracing off a chokepoint costs one relaxed load, as a door call does.
#[inline]
fn spanned<T>(
    ctx: &DomainCtx,
    sc: &dyn Subcontract,
    key: &'static str,
    op: impl FnOnce() -> Result<T>,
) -> Result<T> {
    if !spring_trace::enabled() {
        return op();
    }
    let mut span = spring_trace::span_start(key, ctx.domain().trace_scope(), sc.id().raw());
    let result = op();
    if result.is_err() {
        span.fail();
    }
    result
}

/// A Spring object as held by a client.
///
/// Spring presents a model where "clients are operating directly on
/// objects, rather than on object references" (§3.2): an object can only
/// exist in one place at a time, so transmitting it ([`SpringObj::marshal`])
/// consumes it, and [`SpringObj::copy`] must be used first to keep one.
/// This maps directly onto Rust move semantics — marshal takes `self`.
///
/// Generated stubs wrap a `SpringObj` and supply the method table; the
/// subcontract operations vector is the `Arc<dyn Subcontract>`; the
/// client-local private state is the [`Repr`].
///
/// Dropping an object without explicitly consuming it routes through the
/// subcontract's `consume` anyway, so servers still observe the death.
pub struct SpringObj {
    inner: Option<ObjInner>,
}

impl SpringObj {
    /// Plugs together a subcontract, type information, and representation —
    /// the final step of a server-side `export`, where the actual type is
    /// statically known.
    pub fn assemble(
        ctx: Arc<DomainCtx>,
        type_info: &'static TypeInfo,
        sc: Arc<dyn Subcontract>,
        repr: Repr,
    ) -> SpringObj {
        SpringObj {
            inner: Some(ObjInner {
                ctx,
                type_name: type_info.name.to_owned(),
                type_info,
                sc,
                repr,
            }),
        }
    }

    /// Plugs together an object from its marshalled form, preserving the
    /// wire type name even when this domain only knows the declared type
    /// (the final step of every subcontract's `unmarshal`, §5.1.2).
    pub fn assemble_from_wire(
        ctx: Arc<DomainCtx>,
        type_name: String,
        type_info: &'static TypeInfo,
        sc: Arc<dyn Subcontract>,
        repr: Repr,
    ) -> SpringObj {
        SpringObj {
            inner: Some(ObjInner {
                ctx,
                type_name,
                type_info,
                sc,
                repr,
            }),
        }
    }

    /// Builds a sibling object sharing this object's identity (context,
    /// type, subcontract) around a fresh representation — the common tail
    /// of every subcontract's `copy`.
    pub fn assemble_like(&self, repr: Repr) -> SpringObj {
        let inner = self.inner();
        SpringObj {
            inner: Some(ObjInner {
                ctx: inner.ctx.clone(),
                type_name: inner.type_name.clone(),
                type_info: inner.type_info,
                sc: inner.sc.clone(),
                repr,
            }),
        }
    }

    #[inline]
    fn inner(&self) -> &ObjInner {
        self.inner.as_ref().expect("object already consumed")
    }

    /// The domain context the object lives in.
    #[inline]
    pub fn ctx(&self) -> &Arc<DomainCtx> {
        &self.inner().ctx
    }

    /// The object's most-derived *locally known* type (run-time type query,
    /// §5.1.6).
    pub fn type_info(&self) -> &'static TypeInfo {
        self.inner().type_info
    }

    /// The authoritative type name carried by the marshalled form.
    pub fn type_name(&self) -> &str {
        &self.inner().type_name
    }

    /// The object's subcontract operations vector.
    pub fn subcontract(&self) -> &Arc<dyn Subcontract> {
        &self.inner().sc
    }

    /// The object's representation.
    #[inline]
    pub fn repr(&self) -> &Repr {
        &self.inner().repr
    }

    /// Returns true when the object's type conforms to `target`, consulting
    /// both the locally known type and (if the domain has since learned it)
    /// the authoritative wire type name.
    pub fn is_a(&self, target: &TypeInfo) -> bool {
        let inner = self.inner();
        if inner.type_info.is_a(target) {
            return true;
        }
        inner
            .ctx
            .types()
            .lookup(&inner.type_name)
            .map(|ti| ti.is_a(target))
            .unwrap_or(false)
    }

    /// Narrows the object to a (usually more derived) type (§6.3), failing
    /// with [`SpringError::TypeMismatch`] when the object does not conform.
    pub fn narrow(&self, target: &'static TypeInfo) -> Result<()> {
        if self.is_a(target) {
            Ok(())
        } else {
            Err(SpringError::TypeMismatch {
                expected: target.name,
                actual: self.inner().type_name.clone(),
            })
        }
    }

    /// Begins a call: creates the call buffer and gives the subcontract its
    /// `invoke_preamble` control point, then writes the operation number.
    /// The stubs marshal arguments into the returned buffer and pass it to
    /// [`SpringObj::invoke`].
    #[inline]
    pub fn start_call(&self, op: u32) -> Result<CommBuffer> {
        let mut buf = CommBuffer::pooled();
        let inner = self.inner();
        inner.sc.invoke_preamble(self, &mut buf)?;
        buf.put_u32(op);
        Ok(buf)
    }

    /// Executes the call through the subcontract's `invoke` operation,
    /// returning the result buffer positioned for unmarshalling results.
    ///
    /// This and the other subcontract chokepoints below each record one
    /// latency sample keyed by `(subcontract id, operation)` when tracing is
    /// enabled — the per-subcontract histograms every mechanism shares.
    #[inline]
    pub fn invoke(&self, call: CommBuffer) -> Result<CommBuffer> {
        let inner = self.inner();
        spanned(&inner.ctx, &*inner.sc, "invoke", || {
            inner.sc.invoke(self, call)
        })
    }

    /// Transmits the object into `buf`, consuming it (§5.1.1).
    pub fn marshal(self, buf: &mut CommBuffer) -> Result<()> {
        let (ctx, sc, parts) = self.into_parts();
        spanned(&ctx, &*sc, "marshal", || sc.marshal(&ctx, parts, buf))
    }

    /// Marshals a copy of the object, leaving this object intact (§5.1.5).
    /// Records under the `"marshal"` operation (one histogram covers both
    /// marshal flavours).
    pub fn marshal_copy(&self, buf: &mut CommBuffer) -> Result<()> {
        let inner = self.inner();
        spanned(&inner.ctx, &*inner.sc, "marshal", || {
            inner.sc.marshal_copy(self, buf)
        })
    }

    /// Produces a second object sharing the same underlying state (§7).
    pub fn copy(&self) -> Result<SpringObj> {
        let inner = self.inner();
        spanned(&inner.ctx, &*inner.sc, "copy", || inner.sc.copy(self))
    }

    /// Deletes the object explicitly, surfacing any error (dropping the
    /// object does the same but swallows failures).
    pub fn consume(self) -> Result<()> {
        let (ctx, sc, parts) = self.into_parts();
        spanned(&ctx, &*sc, "consume", || sc.consume(&ctx, parts))
    }

    /// Disassembles the object without running `consume`, for subcontract
    /// implementations that need to repossess the representation (for
    /// example `marshal_copy` optimizations or object adoption).
    pub fn into_parts(mut self) -> (Arc<DomainCtx>, Arc<dyn Subcontract>, ObjParts) {
        let inner = self.inner.take().expect("object already consumed");
        inner.into_parts()
    }
}

impl Drop for SpringObj {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let (ctx, sc, parts) = inner.into_parts();
            // Deaths must reach the server even on implicit drop, but a
            // failed consume cannot be reported from a destructor.
            let _ = spanned(&ctx, &*sc, "consume", || sc.consume(&ctx, parts));
        }
    }
}

impl fmt::Debug for SpringObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(
                f,
                "SpringObj({} via {}, {:?})",
                inner.type_name,
                inner.sc.name(),
                inner.repr
            ),
            None => write!(f, "SpringObj(consumed)"),
        }
    }
}
