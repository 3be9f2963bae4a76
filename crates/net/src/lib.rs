//! Simulated network servers extending Spring doors across machines.
//!
//! "A set of network servers extend the door mechanism transparently over
//! the network. This includes both forwarding door invocations over the
//! network and also mapping door identifiers to and from an extended network
//! form." (§3.3)
//!
//! A [`Network`] connects several nodes; each node owns its own
//! [`spring_kernel::Kernel`] plus a privileged *network server* domain. When
//! a message carrying door identifiers leaves a node, the network server
//! maps each identifier to a network form `(origin node, export id)`; on the
//! receiving node the network server either hands back a local identifier
//! (the door is coming home) or fabricates a *proxy door* whose handler
//! forwards invocations across the network. All of this is invisible to
//! subcontracts: a replicon object whose replicas live on three machines
//! holds three ordinary-looking door identifiers.
//!
//! Fault injection: configurable per-hop latency, probabilistic message
//! loss (applied to invocation traffic), and node partitions —
//! enough to reproduce the failure behaviour the caching, replicon, and
//! reconnectable subcontracts are designed around.
//!
//! Simplifications (documented in DESIGN.md): network servers pin the doors
//! they export (cross-network unreferenced notification is not propagated),
//! and object-transfer traffic is reliable (loss applies to invocations).

//! Pipelining: concurrent forwarded calls over the same link may share one
//! wire frame — see DESIGN.md §5.12. Plain synchronous traffic never meets
//! the batcher: a call that reports no company
//! ([`spring_kernel::CallCtx::company`] is 0) leaves at once in its own
//! frame, whatever else is in flight or forming.

//! Real sockets: the same door/proxy machinery runs between OS processes.
//! [`Network::listen_tcp`], [`Network::listen_uds`],
//! [`Network::connect_tcp`] and [`Network::connect_uds`] attach socket
//! backends. A backend only carries frames (one arm of the crate-private
//! reach table, DESIGN.md §5.15); everything else — batching, how the receiving
//! network server serves a call and how its outcome settles at the sender
//! (one delivery path, DESIGN.md §5.19), at-most-once retries — is shared
//! with the simulated backend, which remains the default. A socket link is
//! a set of *call sockets* — one per call in flight, one thread at each
//! end, the caller blocking in `read` for its own reply — each opened by
//! the connecting side with a HELLO that says which side calls on the
//! socket and which link generation it belongs to.

mod batch;
mod config;
mod framing;
mod link;
mod network;
mod server;
mod socket;
mod transport;

pub use config::{NetConfig, NetStatsSnapshot, SocketStatsSnapshot};
pub use network::{Network, Node};
pub use socket::{SocketListener, SocketPeer};
