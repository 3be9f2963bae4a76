//! The Spring *subcontract* mechanism.
//!
//! This crate is the reproduction of the primary contribution of
//! *Subcontract: A Flexible Base for Distributed Programming* (Hamilton,
//! Powell, Mitchell — SOSP 1993): replaceable modules, called subcontracts,
//! that are given control of the basic mechanisms of object invocation and
//! argument passing, so that new object communication semantics (replication,
//! caching, crash recovery, …) can be introduced without modifying the base
//! RPC system.
//!
//! A Spring object, as perceived by a client, consists of three things (§4):
//!
//! 1. a *method table* — here, the generated stub struct wrapping the object;
//! 2. a *subcontract operations vector* — here, an `Arc<dyn `[`Subcontract`]`>`;
//! 3. client-local private state, the object's *representation* — [`Repr`].
//!
//! [`SpringObj`] plugs the three together. Stubs are completely separated
//! from subcontracts: any generated stub works with any subcontract (§9.1).
//!
//! The crate also implements the paper's subcontract conventions (§6):
//! subcontract identifiers in the marshalled form, *compatible subcontracts*
//! (unmarshal peeks the identifier and re-dispatches through the domain's
//! [`SubcontractRegistry`]), and dynamic discovery of new subcontracts via a
//! library name context plus a trusted-search-path [`LibraryLoader`].
//!
//! Concrete subcontracts (singleton, simplex, cluster, replicon, caching,
//! reconnectable, shmem) live in the `spring-subcontracts` crate. What they
//! share is here: the serve path behind every exported door ([`ServeDoor`])
//! and the client path of every door-backed object ([`client`]).

pub mod client;
mod ctx;
mod dedup;
mod error;
mod flat;
mod loader;
mod object;
mod registry;
mod repr;
mod scid;
mod server;
mod stub;
mod traits;
mod transport;
mod types;
mod unmarshal;

pub use client::{DoorRepr, DoorSubcontract, Landed};
pub use ctx::DomainCtx;
pub use dedup::{DedupStats, ReplyCache};
pub use error::{Result, SpringError};
pub use flat::{decode_flat, FlatMessage, WireError};
pub use loader::{
    InstalledLibrary, LibraryFactory, LibraryLoader, LibraryNameContext, LibraryStore,
    MapLibraryNames,
};
pub use object::SpringObj;
pub use registry::SubcontractRegistry;
pub use repr::{Repr, ReprState};
pub use scid::ScId;
pub use server::{serve, server_dispatch, Call, Control, Dispatch, ServeDoor, ServerCtx};
pub use stub::{
    decode_reply_status, encode_ok, encode_overloaded, encode_system_error, encode_unknown_op,
    encode_user_exception, op_hash, ReplyStatus, STATUS_OK, STATUS_OVERLOADED, STATUS_SYSTEM,
    STATUS_UNKNOWN_OP, STATUS_USER_EXN,
};
pub use traits::{ObjParts, Resolver, ServerSubcontract, Subcontract};
pub use transport::{ship_object, ship_object_copy, KernelTransport, Transport};
pub use types::{TypeInfo, TypeRegistry, OBJECT_TYPE};
pub use unmarshal::{get_obj_header, put_obj_header, redispatch_if_foreign, unmarshal_object};
