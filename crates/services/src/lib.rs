//! Spring services built on the subcontract machinery, with stubs generated
//! from IDL at build time.
//!
//! This crate plays the role of Spring's user-mode services (§3.4): an
//! in-memory file server exporting `file` objects (singleton/simplex),
//! `cacheable_file` objects (caching subcontract + a per-machine cache
//! manager), and `replicated_file` objects (replicon subcontract with
//! write fan-out between replicas), a key-value store, an append log and
//! the topic registry. The stubs in [`idl`] are generated by `spring-idl`
//! from the interfaces in `idl/` (`fs`, `kv`, `log`, `topics`) — the
//! services here are servants and touch no wire format by hand, with two
//! exceptions: the [`stats`] door, whose hand-written client and servant
//! the repo benchmark builds by name, and the door-level bootstrap
//! [`registry`], which binds raw doors below any object type.

/// Generated stubs and skeletons (see the interfaces in `idl/`).
// Machine-written code is kept simple and regular rather than idiomatic;
// style lints are waived for it, as is conventional for generated modules.
#[allow(clippy::all)]
pub mod idl {
    include!(concat!(env!("OUT_DIR"), "/fs.rs"));
    include!(concat!(env!("OUT_DIR"), "/kv.rs"));
    include!(concat!(env!("OUT_DIR"), "/log.rs"));
    include!(concat!(env!("OUT_DIR"), "/topics.rs"));
}

pub mod append_log;
mod cache;
mod file_server;
mod kv_store;
pub mod registry;
mod repl;
pub mod stats;
pub mod topic;

pub use append_log::AppendLogState;
pub use cache::{file_cache_manager, file_cacheable_ops};
pub use file_server::{FileServer, FsError};
pub use idl::log::APPEND_LOG_TYPE;
pub use idl::topics::DIRECTORY_TYPE as TOPIC_REGISTRY_TYPE;
pub use idl::{fs, kv, log, topics};
pub use kv_store::KvStore;
pub use registry::{RegistryClient, RegistryServant};
pub use repl::ReplicatedFileGroup;
pub use stats::{HistSummary, StatsClient, StatsServant, STATS_TYPE};
pub use topic::TopicRegistry;

/// Registers the generated file-system types in a domain, so received
/// objects can be narrowed to them (§6.3).
pub fn register_fs_types(ctx: &std::sync::Arc<subcontract::DomainCtx>) {
    ctx.types().register(&fs::FILE_TYPE);
    ctx.types().register(&fs::CACHEABLE_FILE_TYPE);
    ctx.types().register(&fs::REPLICATED_FILE_TYPE);
    ctx.types().register(&fs::FILE_SYSTEM_TYPE);
}
