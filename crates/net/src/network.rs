//! The network itself: nodes, hops, fault injection.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spring_kernel::tally::{self, Slots, Tally};
use spring_kernel::{CallCtx, Domain, DoorError, DoorId, FaultRng, Kernel, Message, NodeId};
use spring_trace::keys;

use crate::batch::{ship_alone, LinkBatcher, PendingEntry};
use crate::config::{NetConfig, NetStatsSnapshot, SocketStatsSnapshot};
use crate::server::{NetServer, Served, WireCap};
use crate::socket::{Addr, SocketListener, SocketPeer};
use crate::transport::{ReplyOutcome, SimTransport, Transport};

/// The network's read-mostly state as one immutable value: behaviour knobs,
/// cut links, the machines and the transport reaching each of them.
///
/// Publish rule (DESIGN.md §5.12): only [`NetworkInner::publish`] replaces
/// the snapshot — `add_node`, `set_config`, `partition`, `heal`, `heal_all`
/// and `register_transport` go through it, copying the value once per
/// publication and never per call. A forwarded call holds a snapshot for at
/// most its own duration, and a proxy door's cached [`Route`] holds one
/// until the first call that finds a newer epoch published.
#[derive(Clone)]
pub(crate) struct Snapshot {
    /// Publication count; a held snapshot is current while this equals
    /// [`NetworkInner::epoch`].
    epoch: u64,
    config: NetConfig,
    partitions: HashSet<(u64, u64)>,
    nodes: HashMap<u64, Arc<NetServer>>,
    /// Destination node -> the transport whose frames reach it. Local
    /// nodes route through [`SimTransport`] (the default, in-process
    /// simulated backend); nodes in *other OS processes* route through the
    /// socket peer that reached them.
    transports: HashMap<u64, Arc<dyn Transport>>,
}

impl Snapshot {
    fn server(&self, node: u64) -> Result<&Arc<NetServer>, DoorError> {
        self.nodes.get(&node).ok_or_else(|| unknown_node(node))
    }

    fn check_link(&self, a: u64, b: u64) -> Result<(), DoorError> {
        if !self.partitions.is_empty() && self.partitions.contains(&link_key(a, b)) {
            return Err(DoorError::Comm(format!(
                "partition between nodes {a} and {b}"
            )));
        }
        Ok(())
    }
}

fn unknown_node(node: u64) -> DoorError {
    DoorError::Comm(format!("unknown node {node}"))
}

fn link_key(a: u64, b: u64) -> (u64, u64) {
    (a.min(b), a.max(b))
}

/// What a proxy door needs to forward a call, resolved once per published
/// snapshot instead of once per call: the snapshot itself (partitions and
/// the batching linger), the link's batcher, and the transport reaching the
/// target's home node (for a node nobody has introduced, a [`SimTransport`]
/// with no home, whose calls fail with "unknown node" when they ship).
pub(crate) struct Route {
    snap: Arc<Snapshot>,
    batcher: Arc<LinkBatcher>,
    transport: Arc<dyn Transport>,
}

/// What a network counts, under the names [`NetStatsSnapshot`] and
/// [`SocketStatsSnapshot`] report. Each is a cell of the network's
/// [`Tally`]: a thread bumps cells of its own, a snapshot sums them.
#[derive(Clone, Copy)]
enum Count {
    Messages,
    Bytes,
    Drops,
    CallsForwarded,
    Exports,
    Proxies,
    BatchFlushes,
    CallsBatched,
    CallsUnbatched,
    SocketFramesSent,
    SocketFramesReceived,
    SocketBytesSent,
    SocketBytesReceived,
    SocketDisconnects,
}

/// How many counts there are: [`Count::SocketDisconnects`] is the last.
const COUNTS: usize = Count::SocketDisconnects as usize + 1;

thread_local! {
    /// This thread's cells of every network it has counted for.
    static MINE: Slots<COUNTS> = const { Slots::new() };
}

pub(crate) struct NetworkInner {
    snapshot: RwLock<Arc<Snapshot>>,
    /// Epoch of the published snapshot, readable without the lock: holders
    /// of a snapshot or a [`Route`] compare against it to revalidate.
    epoch: AtomicU64,
    /// One call batcher per (source, destination) link, created on first
    /// use and never removed.
    batchers: RwLock<HashMap<(u64, u64), Arc<LinkBatcher>>>,
    rng: Mutex<FaultRng>,
    stats: Arc<Tally<COUNTS>>,
}

impl NetworkInner {
    #[inline]
    fn count(&self, count: Count, by: u64) {
        tally::bump(&MINE, &self.stats, count as usize, by);
    }

    pub fn count_export(&self) {
        self.count(Count::Exports, 1);
    }

    pub fn count_proxy(&self) {
        self.count(Count::Proxies, 1);
    }

    /// The currently published snapshot.
    fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Whether `held` is still the published snapshot.
    fn is_current(&self, held: &Snapshot) -> bool {
        held.epoch == self.epoch.load(Ordering::Acquire)
    }

    /// A newer snapshot than `held`, if one has been published since.
    fn newer_than(&self, held: &Snapshot) -> Option<Arc<Snapshot>> {
        (!self.is_current(held)).then(|| self.load())
    }

    /// Publishes an edited copy of the snapshot under the next epoch.
    fn publish(&self, edit: impl FnOnce(&mut Snapshot)) {
        let mut current = self.snapshot.write();
        let mut next = Snapshot::clone(&current);
        edit(&mut next);
        next.epoch += 1;
        let epoch = next.epoch;
        *current = Arc::new(next);
        // Inside the write lock, so the epoch never runs ahead of the
        // snapshot a revalidating reader would load.
        self.epoch.store(epoch, Ordering::Release);
    }

    pub(crate) fn server(&self, node: u64) -> Result<Arc<NetServer>, DoorError> {
        self.snapshot.read().server(node).cloned()
    }

    /// Registers (or replaces, on reconnect) the transport reaching `node`.
    pub(crate) fn register_transport(&self, node: u64, transport: Arc<dyn Transport>) {
        self.publish(|s| {
            s.transports.insert(node, transport);
        });
    }

    pub(crate) fn count_socket_send(&self, bytes: usize) {
        self.count(Count::SocketFramesSent, 1);
        self.count(Count::SocketBytesSent, bytes as u64);
    }

    pub(crate) fn count_socket_receive(&self, bytes: usize) {
        self.count(Count::SocketFramesReceived, 1);
        self.count(Count::SocketBytesReceived, bytes as u64);
    }

    pub(crate) fn count_socket_disconnect(&self) {
        self.count(Count::SocketDisconnects, 1);
    }

    /// The batcher for the `src -> dst` link, created on first use.
    pub(crate) fn link(&self, src: u64, dst: u64) -> Arc<LinkBatcher> {
        if let Some(batcher) = self.batchers.read().get(&(src, dst)) {
            return batcher.clone();
        }
        self.batchers.write().entry((src, dst)).or_default().clone()
    }

    /// The route for calls `src -> dst`: the one in `cached` while the
    /// snapshot it was resolved against is still the published one,
    /// otherwise resolved afresh (and cached) against the current one.
    pub(crate) fn route(
        &self,
        cached: &Mutex<Option<Arc<Route>>>,
        src: u64,
        dst: u64,
    ) -> Arc<Route> {
        let mut cached = cached.lock();
        if let Some(route) = cached.as_ref().filter(|r| self.is_current(&r.snap)) {
            return route.clone();
        }
        let snap = self.load();
        let transport = snap.transports.get(&dst).cloned().unwrap_or_else(|| {
            Arc::new(SimTransport {
                origin: dst,
                home: None,
            })
        });
        let route = Arc::new(Route {
            transport,
            batcher: self.link(src, dst),
            snap,
        });
        *cached = Some(route.clone());
        route
    }

    /// One network hop: latency, jitter, accounting, and (for invocation
    /// traffic) probabilistic loss.
    ///
    /// The RNG mutex is taken at most once per hop — the loss roll and the
    /// jitter fraction are sampled together — and on a fault-free network
    /// (no loss, no jitter) it is not taken at all.
    fn hop(&self, cfg: &NetConfig, bytes: usize, lossy: bool) -> Result<(), DoorError> {
        self.count(Count::Messages, 1);
        self.count(Count::Bytes, bytes as u64);
        let roll_loss = lossy && cfg.drop_prob > 0.0;
        let roll_jitter = !cfg.jitter.is_zero();
        let mut delay = cfg.latency;
        if roll_loss || roll_jitter {
            let mut rng = self.rng.lock();
            if roll_loss && rng.unit_f64() < cfg.drop_prob {
                drop(rng);
                self.count(Count::Drops, 1);
                return Err(DoorError::Comm("message lost".into()));
            }
            if roll_jitter {
                delay += cfg.jitter.mul_f64(rng.unit_f64());
            }
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        Ok(())
    }

    /// Forwards a proxy-door invocation along its resolved `route` to its
    /// home node and returns the reply. `msg`'s identifiers are owned by
    /// `from`'s network server.
    ///
    /// The call is queued on its link's batcher: concurrent calls over the
    /// same link that overlap in time may share one wire frame (one request
    /// hop, one reply hop), with the flush policy in [`crate::batch`]
    /// deciding how long to wait for the company `ctx` says is coming. A
    /// plain call (company 0) that finds no frame forming flushes
    /// immediately in a frame of its own: one request hop and one reply
    /// hop, its loss rolls drawn in call order.
    pub(crate) fn forward_call(
        &self,
        from: &Arc<NetServer>,
        target: WireCap,
        route: &Route,
        mut msg: Message,
        ctx: &CallCtx,
    ) -> Result<Message, DoorError> {
        self.count(Count::CallsForwarded, 1);

        // One "net.forward" span per forwarded call; the piggybacked
        // context on the message (stamped by the proxy door's kernel call)
        // wins over the thread-local current span.
        let parent = if msg.trace.is_some() {
            msg.trace
        } else {
            spring_trace::current()
        };
        let mut span =
            spring_trace::span_child_of(keys::NET_FORWARD, parent, from.domain.trace_scope(), 0);
        if span.ctx().is_some() {
            msg.trace = span.ctx();
        }

        let result = (|| {
            route.snap.check_link(from.node.raw(), target.origin)?;
            let (wire, fresh) = from.to_wire_tracked(msg)?;
            if ctx.one_way {
                // No reply to wait for, so nothing to coalesce against:
                // the call bypasses the batcher in a frame of its own.
                return ship_alone(target.export, wire, fresh, |frame| {
                    route.transport.ship(from, &route.snap, frame, false)
                });
            }
            let linger = route.snap.config.batch_linger;
            let ship =
                |frame: &mut [PendingEntry]| route.transport.ship(from, &route.snap, frame, true);
            route
                .batcher
                .submit(target.export, wire, fresh, ctx.company, linger, &ship)
        })();
        if result.is_err() {
            span.fail();
        }
        result
    }

    /// Ships one frame of forwarded calls through the simulated backend: a
    /// single request hop (latency charged once, payload bytes summed),
    /// each call served on the destination node `home`, and — when the
    /// callers `want_reply` — a single reply hop for every reply the frame
    /// produced. Settles every entry.
    ///
    /// Partial-failure discipline (DESIGN.md §5.19): a lost or partitioned
    /// request frame fails *every* call aboard undelivered, a call that
    /// fails in delivery or execution fails alone, and replies that cannot
    /// travel release the exports pinned for them. A one-way frame has no
    /// reply leg; a call aboard it hears of a delivery failure and not of
    /// how execution went.
    ///
    /// A reply is staged (`serve`) *before* the return link is checked, as
    /// the socket's serving side stages it before its write: a partition
    /// published while the calls executed releases the reply's doors by
    /// un-exporting them, where this shipper once deleted them unexported —
    /// the same identifiers die either way.
    pub(crate) fn ship_frame(
        &self,
        from: &Arc<NetServer>,
        routed: &Arc<Snapshot>,
        origin: u64,
        home: Option<&Arc<NetServer>>,
        frame: &mut [PendingEntry],
        want_reply: bool,
    ) {
        let calls = frame.len() as u64;
        self.count(Count::BatchFlushes, 1);
        if frame.len() > 1 {
            self.count(Count::CallsBatched, calls);
        } else {
            self.count(Count::CallsUnbatched, calls);
        }
        // The per-frame span carries the call count in its scid, so batch
        // sizes show up in the latency histograms.
        let mut span = spring_trace::span_start(keys::NET_BATCH, from.domain.trace_scope(), calls);

        // One snapshot for the way out — the one the route was resolved
        // against, unless a newer has been published since — and its config
        // also prices the reply hop, as the per-frame config read always
        // did.
        let newer = self.newer_than(routed);
        let snap = newer.as_ref().unwrap_or(routed);
        let request_bytes: usize = frame.iter().map(|e| e.wire.bytes.len()).sum();
        // On the way out, in this order: the link is not cut, the
        // destination exists, the request hop survives the loss roll.
        let departed = snap
            .check_link(from.node.raw(), origin)
            .and_then(|()| home.ok_or_else(|| unknown_node(origin)))
            .and_then(|home| {
                self.traced_hop(&snap.config, request_bytes, true, from.domain.trace_scope())?;
                Ok(home)
            });
        let home = match departed {
            Ok(home) => home,
            Err(e) => {
                // The frame never left this node: every call aboard is
                // lost, undelivered.
                span.fail();
                for entry in frame.iter_mut() {
                    entry.settle(from, ReplyOutcome::NotDelivered(e.clone()));
                }
                return;
            }
        };
        if !want_reply {
            spring_kernel::hotpath::count_oneway_frame();
        }

        // Serve each call, in submission order.
        let mut replies = false;
        let mut reply_bytes = 0usize;
        for entry in frame.iter_mut() {
            let wire = std::mem::take(&mut entry.wire);
            let served = home.serve(entry.export, wire, want_reply);
            if let ReplyOutcome::Ok(reply) = &served.outcome {
                replies = true;
                reply_bytes += reply.bytes.len();
            }
            entry.served = Some(served);
        }

        // The replies travel back across the same link, again as one frame,
        // past whatever partitions were published while the calls executed.
        let mut reply_leg = Ok(());
        if want_reply {
            let newer = self.newer_than(snap);
            let back = newer.as_ref().unwrap_or(snap);
            reply_leg = back.check_link(origin, from.node.raw());
            if replies && reply_leg.is_ok() {
                let scope = home.domain.trace_scope();
                reply_leg = self.traced_hop(&snap.config, reply_bytes, true, scope);
            }
        }
        if reply_leg.is_err() {
            span.fail();
        }
        for entry in frame.iter_mut() {
            let Some(Served { outcome, fresh }) = entry.served.take() else {
                continue;
            };
            entry.settle(
                from,
                match (outcome, &reply_leg) {
                    // The call executed and its reply will not be re-sent,
                    // so it must not strand the exports it pinned.
                    (ReplyOutcome::Ok(_), Err(e)) => {
                        home.unexport(&fresh);
                        ReplyOutcome::Failed(e.clone())
                    }
                    // Delivered, then failed: a one-way caller asked not to
                    // hear about it.
                    (ReplyOutcome::Failed(_), _) if !want_reply => {
                        span.fail();
                        ReplyOutcome::Ok(Default::default())
                    }
                    (outcome, _) => outcome,
                },
            );
        }
    }

    /// Wraps [`NetworkInner::hop`] in a "net.hop" span; a dropped message
    /// records as a failed span, so retries read as a failed hop followed by
    /// a successful sibling.
    fn traced_hop(
        &self,
        cfg: &NetConfig,
        bytes: usize,
        lossy: bool,
        scope: u64,
    ) -> Result<(), DoorError> {
        let mut span = spring_trace::span_start(keys::NET_HOP, scope, 0);
        let result = self.hop(cfg, bytes, lossy);
        if result.is_err() {
            span.fail();
        }
        result
    }
}

/// A handle on one machine of the network.
#[derive(Clone)]
pub struct Node {
    kernel: Kernel,
}

impl Node {
    /// The node's kernel; create application domains through it.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The node identifier.
    pub fn id(&self) -> NodeId {
        self.kernel.node_id()
    }
}

/// A simulated multi-machine network.
///
/// # Examples
///
/// ```
/// use spring_net::{NetConfig, Network};
///
/// let net = Network::new(NetConfig::default());
/// let a = net.add_node("alpha");
/// let b = net.add_node("beta");
/// assert_ne!(a.id(), b.id());
/// ```
pub struct Network {
    pub(crate) inner: Arc<NetworkInner>,
}

impl Network {
    /// Creates an empty network with the given behaviour.
    pub fn new(config: NetConfig) -> Arc<Network> {
        Arc::new(Network {
            inner: Arc::new(NetworkInner {
                snapshot: RwLock::new(Arc::new(Snapshot {
                    epoch: 0,
                    config,
                    partitions: HashSet::new(),
                    nodes: HashMap::new(),
                    transports: HashMap::new(),
                })),
                epoch: AtomicU64::new(0),
                batchers: RwLock::new(HashMap::new()),
                rng: Mutex::new(FaultRng::seed_from_u64(0x5u64)),
                stats: Arc::default(),
            }),
        })
    }

    /// Adds a machine: a fresh kernel plus its network server domain.
    pub fn add_node(&self, name: impl Into<String>) -> Node {
        self.install_node(Kernel::new(name))
    }

    /// Adds a machine with an explicitly chosen node identifier.
    ///
    /// Node ids are normally process-local counters, so two OS processes
    /// would both mint node 1 and a socket peer's "coming home" detection
    /// (`cap.origin == self.node`) would confuse the two machines. Process
    /// harnesses assign each process a distinct id up front instead.
    pub fn add_node_with_id(&self, name: impl Into<String>, node: u64) -> Node {
        self.install_node(Kernel::with_node_id(name, NodeId::from_raw(node)))
    }

    fn install_node(&self, kernel: Kernel) -> Node {
        let domain = kernel.create_domain("network-server");
        let server = NetServer::new(kernel.node_id(), domain, self.inner.clone());
        let raw = kernel.node_id().raw();
        // Local nodes are reached by the in-process simulated backend.
        let transport = Arc::new(SimTransport {
            origin: raw,
            home: Some(server.clone()),
        });
        self.inner.publish(|s| {
            s.nodes.insert(raw, server);
            s.transports.insert(raw, transport);
        });
        Node { kernel }
    }

    /// Publishes `door` (owned by `from`) as `node`'s bootstrap door: its
    /// export id is advertised in the socket handshake, so a freshly
    /// connected process has one well-known door to start exchanging
    /// identifiers through. Consumes the identifier.
    pub fn set_bootstrap(
        &self,
        node: NodeId,
        from: &Domain,
        door: DoorId,
    ) -> Result<(), DoorError> {
        let server = self.inner.server(node.raw())?;
        let held = from.transfer_door(door, &server.domain)?;
        let (cap, _fresh) = server.export_cap_tracked(held)?;
        server.set_bootstrap(cap.export);
        Ok(())
    }

    /// Starts accepting socket connections for `node` on a TCP address.
    /// Returns the listener handle (and the bound address, for ephemeral
    /// ports) — dropping the handle stops accepting.
    pub fn listen_tcp(&self, node: NodeId, addr: &str) -> Result<Arc<SocketListener>, DoorError> {
        SocketListener::bind(&self.inner, node, Addr::Tcp(addr.to_owned()))
    }

    /// Starts accepting socket connections for `node` on a Unix-domain
    /// socket path.
    pub fn listen_uds(&self, node: NodeId, path: &str) -> Result<Arc<SocketListener>, DoorError> {
        SocketListener::bind(&self.inner, node, Addr::Uds(path.into()))
    }

    /// Connects `node` to a peer process listening on a TCP address.
    ///
    /// The returned peer handle reports the remote node id and bootstrap
    /// export learned in the handshake; proxy doors for the remote machine
    /// route through the connection (redialling on failure).
    pub fn connect_tcp(&self, node: NodeId, addr: &str) -> Result<Arc<SocketPeer>, DoorError> {
        SocketPeer::connect(&self.inner, node, Addr::Tcp(addr.to_owned()))
    }

    /// Connects `node` to a peer process listening on a Unix-domain socket.
    pub fn connect_uds(&self, node: NodeId, path: &str) -> Result<Arc<SocketPeer>, DoorError> {
        SocketPeer::connect(&self.inner, node, Addr::Uds(path.into()))
    }

    /// Socket-transport counter snapshot.
    pub fn socket_stats(&self) -> SocketStatsSnapshot {
        let c = self.inner.stats.read();
        SocketStatsSnapshot {
            frames_sent: c[Count::SocketFramesSent as usize],
            frames_received: c[Count::SocketFramesReceived as usize],
            bytes_sent: c[Count::SocketBytesSent as usize],
            bytes_received: c[Count::SocketBytesReceived as usize],
            disconnects: c[Count::SocketDisconnects as usize],
        }
    }

    /// Replaces the network behaviour (latency, jitter, loss).
    pub fn set_config(&self, config: NetConfig) {
        self.inner.publish(|s| s.config = config);
    }

    /// Reseeds the loss/jitter RNG (determinism for tests).
    pub fn reseed(&self, seed: u64) {
        *self.inner.rng.lock() = FaultRng::seed_from_u64(seed);
    }

    /// Cuts the link between two nodes in both directions.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.inner.publish(|s| {
            s.partitions.insert(link_key(a.raw(), b.raw()));
        });
    }

    /// Heals the link between two nodes.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.inner.publish(|s| {
            s.partitions.remove(&link_key(a.raw(), b.raw()));
        });
    }

    /// Heals every partition.
    pub fn heal_all(&self) {
        self.inner.publish(|s| s.partitions.clear());
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStatsSnapshot {
        let c = self.inner.stats.read();
        NetStatsSnapshot {
            messages: c[Count::Messages as usize],
            bytes: c[Count::Bytes as usize],
            drops: c[Count::Drops as usize],
            calls_forwarded: c[Count::CallsForwarded as usize],
            exports: c[Count::Exports as usize],
            proxies_created: c[Count::Proxies as usize],
            batch_flushes: c[Count::BatchFlushes as usize],
            calls_batched: c[Count::CallsBatched as usize],
            calls_unbatched: c[Count::CallsUnbatched as usize],
        }
    }

    /// Transfers a message (bytes plus door identifiers) from a domain on
    /// one node to a domain on another — how marshalled objects move between
    /// machines. Same-node transfers degrade to plain kernel transfers.
    pub fn ship_message(
        &self,
        from: &Domain,
        to: &Domain,
        msg: Message,
    ) -> Result<Message, DoorError> {
        let from_node = from.kernel().node_id();
        let to_node = to.kernel().node_id();
        if from_node == to_node {
            let doors = transfer_all(from, to, msg.doors)?;
            return Ok(Message { doors, ..msg });
        }

        let snap = self.inner.load();
        snap.check_link(from_node.raw(), to_node.raw())?;
        let src = snap.server(from_node.raw())?;
        let dst = snap.server(to_node.raw())?;

        // Move identifiers into the sending network server, map to wire
        // form, hop, and reverse on the receiving side. Object transfers
        // ride a reliable stream, so no loss is applied.
        let doors = transfer_all(from, &src.domain, msg.doors)?;
        let (wire, fresh) = src.to_wire_tracked(Message { doors, ..msg })?;
        let arrived = self
            .inner
            .traced_hop(
                &snap.config,
                wire.bytes.len(),
                false,
                src.domain.trace_scope(),
            )
            .and_then(|()| dst.from_wire(wire))
            .and_then(|arrived| {
                let doors = transfer_all(&dst.domain, to, arrived.doors)?;
                Ok(Message { doors, ..arrived })
            });
        if arrived.is_err() {
            // Nothing reached `to`, so nothing can ever reference the
            // exports freshly pinned for the message.
            src.unexport(&fresh);
        }
        arrived
    }
}

/// Moves a message's identifiers from one domain to another of the same
/// kernel. A failed transfer loses the whole message: the identifiers
/// already landed in the receiver, the one that failed (the kernel
/// validates before it moves, so it is still the sender's) and the ones
/// not yet sent are all deleted, rather than stranding a partially
/// transferred capability set in two domains forever.
fn transfer_all(from: &Domain, to: &Domain, doors: Vec<DoorId>) -> Result<Vec<DoorId>, DoorError> {
    let mut landed = Vec::with_capacity(doors.len());
    let mut pending = doors.into_iter();
    while let Some(d) = pending.next() {
        match from.transfer_door(d, to) {
            Ok(t) => landed.push(t),
            Err(e) => {
                for t in landed {
                    let _ = to.delete_door(t);
                }
                for unsent in std::iter::once(d).chain(pending) {
                    let _ = from.delete_door(unsent);
                }
                return Err(e);
            }
        }
    }
    Ok(landed)
}

impl subcontract::Transport for Network {
    fn ship(&self, from: &Domain, to: &Domain, msg: Message) -> Result<Message, DoorError> {
        self.ship_message(from, to, msg)
    }
}
