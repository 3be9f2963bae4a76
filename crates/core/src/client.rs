//! The client path: what every door-backed object does on the client side,
//! written once (the mirror of the serve path, [`crate::ServeDoor`];
//! DESIGN.md §5.18).
//!
//! An object whose representation is one door identifier plus a little
//! state of its subcontract's own is a [`DoorRepr`], and its subcontract is
//! a [`DoorSubcontract`]: it declares its identifier, its name, the state
//! that follows the door and — where they differ from the plain door call —
//! its `invoke_preamble` and `invoke`. The state may hold what never
//! travels: a shared-memory region, or caching's machine-local cache door,
//! which `get` attaches given the landed door and `retire` releases. The
//! [`Subcontract`] vector of such a subcontract is the blanket
//! implementation below, monomorphised per subcontract: marshal,
//! `marshal_copy`, unmarshal, copy and consume run the same fixed sequence
//! for all of them.
//!
//! Subcontracts with another shape of representation (several doors, a door
//! behind a lock, no door yet) keep their own operations but take their
//! doors through the same two pieces: [`unmarshal`], which owns the order
//! *re-dispatch, header, land the doors, check the type, build*, and
//! [`Landed`], which owns a door identifier between the moment it lands in
//! a domain and the moment an object is assembled around it. The invariant:
//! a door identifier that has landed in a domain is owned by exactly one of
//! the buffer it arrived in, a `Landed` guard, or an object.

use std::fmt;
use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{Domain, DoorId};

use crate::ctx::DomainCtx;
use crate::error::Result;
use crate::object::SpringObj;
use crate::repr::Repr;
use crate::scid::ScId;
use crate::traits::{ObjParts, Subcontract};
use crate::types::TypeInfo;
use crate::unmarshal::{put_obj_header, read_obj_header, redispatch_if_foreign};

/// A door identifier that is in `domain`'s table and in no object yet.
/// Dropping the guard deletes the identifier; [`Landed::keep`] hands it to
/// the object being assembled.
pub struct Landed<'a> {
    domain: &'a Domain,
    door: DoorId,
}

impl<'a> Landed<'a> {
    /// Takes the next door identifier out of `buf`.
    pub fn take(domain: &'a Domain, buf: &mut CommBuffer) -> Result<Landed<'a>> {
        let door = buf.get_door()?;
        Ok(Landed { domain, door })
    }

    /// Issues a second identifier for the door behind `door`.
    pub fn copy_of(domain: &'a Domain, door: DoorId) -> Result<Landed<'a>> {
        let door = domain.copy_door(door)?;
        Ok(Landed { domain, door })
    }

    /// Guards an identifier `domain` already holds (one a reply carried).
    pub fn adopt(domain: &'a Domain, door: DoorId) -> Landed<'a> {
        Landed { domain, door }
    }

    /// The guarded identifier, still owned by the guard.
    pub fn id(&self) -> DoorId {
        self.door
    }

    /// Ends the guard without deleting: the identifier now belongs to
    /// whatever the caller puts it in.
    pub fn keep(self) -> DoorId {
        let door = self.door;
        std::mem::forget(self);
        door
    }
}

impl Drop for Landed<'_> {
    fn drop(&mut self) {
        // The door may be dead already; the slot is ours to clear either way.
        let _ = self.domain.delete_door(self.door);
    }
}

/// The fixed sequence of every `unmarshal` (§5.1.2, §6.1): re-dispatch when
/// the buffer holds another subcontract's object; read the header; `land`
/// the object's door identifiers under guards; only then fail a type
/// mismatch or a missing registration, so the guards release what landed;
/// `finish` reads what remains and builds the representation. An error out
/// of `finish` drops the guards it was given.
pub fn unmarshal<L>(
    me: ScId,
    ctx: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
    buf: &mut CommBuffer,
    land: impl FnOnce(&mut CommBuffer) -> Result<L>,
    finish: impl FnOnce(L, &mut CommBuffer) -> Result<Repr>,
) -> Result<SpringObj> {
    if let Some(obj) = redispatch_if_foreign(me, ctx, expected, buf)? {
        return Ok(obj);
    }
    let (_, wire_name, actual) = read_obj_header(ctx, expected, buf)?;
    let landed = land(buf)?;
    let actual = actual?;
    let sc = ctx.lookup_subcontract(me)?;
    let repr = finish(landed, buf)?;
    Ok(SpringObj::assemble_from_wire(
        ctx.clone(),
        wire_name,
        actual,
        sc,
        repr,
    ))
}

/// The representation of a single-door object: the door, then whatever its
/// subcontract keeps beside it.
#[derive(Debug)]
pub struct DoorRepr<S> {
    /// The object's door identifier.
    pub door: DoorId,
    /// The subcontract's own state ([`DoorSubcontract::State`]).
    pub state: S,
}

impl<S: Send + Sync + fmt::Debug + 'static> DoorRepr<S> {
    /// Boxes the pair as an object representation.
    pub fn of(door: DoorId, state: S) -> Repr {
        Repr::new(DoorRepr { door, state })
    }
}

/// What a single-door subcontract declares; everything else is the blanket
/// [`Subcontract`] implementation. The marshalled form is the standard
/// header, the door, then whatever [`DoorSubcontract::put`] writes.
pub trait DoorSubcontract: Send + Sync + Sized + 'static {
    /// The identifier written into every marshalled form (§6.1).
    const ID: ScId;
    /// Human-readable subcontract name.
    const NAME: &'static str;
    /// What an object keeps beside its door.
    type State: Send + Sync + fmt::Debug + 'static;

    /// `invoke_preamble` (§5.1.4): the control region of a call.
    fn preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        let _ = (obj, call);
        Ok(())
    }

    /// `invoke` (§5.1.3): by default the door call and nothing else.
    fn call(&self, obj: &SpringObj, args: CommBuffer) -> Result<CommBuffer> {
        let door = repr::<Self>(obj)?.door;
        let reply = obj.ctx().domain().call(door, args.into_message())?;
        Ok(CommBuffer::from_message(reply))
    }

    /// Writes the part of the marshalled form that follows the door.
    fn put(&self, state: &Self::State, buf: &mut CommBuffer) {
        let _ = (state, buf);
    }

    /// Reads back what [`DoorSubcontract::put`] wrote, in the receiving
    /// domain. `door` has landed by now and its guard still owns it: `get`
    /// may present it somewhere (a copy of it, say), and an error here
    /// releases it.
    fn get(&self, ctx: &Arc<DomainCtx>, door: DoorId, buf: &mut CommBuffer) -> Result<Self::State>;

    /// The state of a copy of the object.
    fn fork(&self, ctx: &Arc<DomainCtx>, state: &Self::State) -> Result<Self::State>;

    /// Releases what the state holds besides the door, when the object is
    /// marshalled away or consumed.
    fn retire(&self, ctx: &Arc<DomainCtx>, state: Self::State) {
        let _ = (ctx, state);
    }
}

/// The [`DoorRepr`] of an object of subcontract `T`.
pub fn repr<T: DoorSubcontract>(obj: &SpringObj) -> Result<&DoorRepr<T::State>> {
    obj.repr().downcast(T::NAME)
}

impl<T: DoorSubcontract> Subcontract for T {
    fn id(&self) -> ScId {
        T::ID
    }

    fn name(&self) -> &'static str {
        T::NAME
    }

    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        self.preamble(obj, call)
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        self.call(obj, call)
    }

    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<DoorRepr<T::State>>(T::NAME)?;
        put_obj_header(buf, T::ID, &parts.type_name);
        buf.put_door(repr.door);
        self.put(&repr.state, buf);
        self.retire(ctx, repr.state);
        Ok(())
    }

    /// §5.1.5: the copy's door goes straight into the buffer; no
    /// intermediate object is fabricated and destroyed.
    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        let repr = repr::<T>(obj)?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        put_obj_header(buf, T::ID, obj.type_name());
        buf.put_door(door);
        self.put(&repr.state, buf);
        Ok(())
    }

    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj> {
        unmarshal(
            T::ID,
            ctx,
            expected,
            buf,
            |buf| Landed::take(ctx.domain(), buf),
            |door, buf| {
                let state = self.get(ctx, door.id(), buf)?;
                Ok(DoorRepr::of(door.keep(), state))
            },
        )
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = repr::<T>(obj)?;
        let door = Landed::copy_of(obj.ctx().domain(), repr.door)?;
        let state = self.fork(obj.ctx(), &repr.state)?;
        Ok(obj.assemble_like(DoorRepr::of(door.keep(), state)))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<DoorRepr<T::State>>(T::NAME)?;
        self.retire(ctx, repr.state);
        ctx.domain().delete_door(repr.door)?;
        Ok(())
    }
}
