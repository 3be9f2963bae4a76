//! The network itself: nodes, hops, fault injection.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spring_kernel::{CallCtx, Domain, DoorError, DoorId, FaultRng, Kernel, Message, NodeId};
use spring_trace::keys;

use crate::batch::{BatchBudget, LinkBatcher, PendingEntry};
use crate::config::{NetConfig, NetStatsSnapshot, SocketStatsSnapshot};
use crate::server::{NetServer, WireCap};
use crate::socket::{Addr, SocketListener, SocketPeer};
use crate::transport::{OnewayEntry, SimTransport, Transport};

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
/// batching budgets), the link's batcher, and the transport reaching the
/// target's home node (`None` for a node nobody has introduced, whose calls
/// fail with "unknown node" when they ship).
pub(crate) struct Route {
    snap: Arc<Snapshot>,
    batcher: Arc<LinkBatcher>,
    transport: Option<Arc<dyn Transport>>,
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
    messages: AtomicU64,
    bytes: AtomicU64,
    drops: AtomicU64,
    calls_forwarded: AtomicU64,
    exports: AtomicU64,
    proxies: AtomicU64,
    batch_flushes: AtomicU64,
    calls_batched: AtomicU64,
    calls_unbatched: AtomicU64,
    socket_frames_sent: AtomicU64,
    socket_frames_received: AtomicU64,
    socket_bytes_sent: AtomicU64,
    socket_bytes_received: AtomicU64,
    socket_disconnects: AtomicU64,
}

impl NetworkInner {
    pub fn count_export(&self) {
        self.exports.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_proxy(&self) {
        self.proxies.fetch_add(1, Ordering::Relaxed);
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
        self.socket_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.socket_bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_socket_receive(&self, bytes: usize) {
        self.socket_frames_received.fetch_add(1, Ordering::Relaxed);
        self.socket_bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_socket_disconnect(&self) {
        self.socket_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// The batcher for the `src -> dst` link, created on first use.
    fn link(&self, src: u64, dst: u64) -> Arc<LinkBatcher> {
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
        let route = Arc::new(Route {
            transport: snap.transports.get(&dst).cloned(),
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
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let roll_loss = lossy && cfg.drop_prob > 0.0;
        let roll_jitter = !cfg.jitter.is_zero();
        let mut delay = cfg.latency;
        if roll_loss || roll_jitter {
            let mut rng = self.rng.lock();
            if roll_loss && rng.unit_f64() < cfg.drop_prob {
                drop(rng);
                self.drops.fetch_add(1, Ordering::Relaxed);
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
    /// plain call (company 0) flushes immediately in a frame of its own,
    /// which reproduces the unbatched path exactly — same hops, same loss
    /// rolls, in the same order.
    pub(crate) fn forward_call(
        &self,
        from: &Arc<NetServer>,
        target: WireCap,
        route: &Route,
        msg: Message,
        ctx: &CallCtx,
    ) -> Result<Message, DoorError> {
        self.calls_forwarded.fetch_add(1, Ordering::Relaxed);

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
        let mut msg = msg;
        if span.ctx().is_some() {
            msg.trace = span.ctx();
        }

        let result = (|| {
            route.snap.check_link(from.node.raw(), target.origin)?;
            let (wire, fresh) = from.to_wire_tracked(msg)?;
            if ctx.one_way {
                // One-way calls bypass the link batcher: there is no reply
                // to wait for, so there is nothing to coalesce against and
                // no CallSlot to settle. The transport either hands the
                // frame to the wire (`Ok`, reply elided) or proves it never
                // left (`Err`, fresh pins already released).
                let mut entry = OnewayEntry {
                    export: target.export,
                    wire: Some(wire),
                    fresh,
                };
                return match &route.transport {
                    Some(transport) => transport.ship_oneway(from, &mut entry),
                    None => self.ship_oneway_batch(from, target.origin, None, &mut entry),
                }
                .map(|()| Message::default());
            }
            let cfg = &route.snap.config;
            let budget = BatchBudget {
                max_calls: cfg.batch_max_calls.max(1),
                max_bytes: cfg.batch_max_bytes,
                linger: cfg.batch_linger,
            };
            // An unrouted destination still ships, through the simulated
            // backend, so its "unknown node" failure is counted and traced
            // like any other frame's.
            let ship = |frame: &mut [PendingEntry]| match &route.transport {
                Some(transport) => transport.ship(from, frame),
                None => self.ship_batch(from, target.origin, None, frame),
            };
            route
                .batcher
                .submit(target.export, wire, fresh, ctx.company, budget, &ship)
        })();
        if result.is_err() {
            span.fail();
        }
        result
    }

    /// What every simulated frame passes on its way out, in this order:
    /// the link is not cut, the destination (`home`, already resolved by
    /// whoever routed the frame there) exists, and the request hop of
    /// `bytes` survives the loss roll.
    fn depart<'a>(
        &self,
        snap: &Snapshot,
        from: &NetServer,
        origin: u64,
        home: Option<&'a Arc<NetServer>>,
        bytes: usize,
    ) -> Result<&'a Arc<NetServer>, DoorError> {
        snap.check_link(from.node.raw(), origin)?;
        let home = home.ok_or_else(|| unknown_node(origin))?;
        self.traced_hop(&snap.config, bytes, true, from.domain.trace_scope())?;
        Ok(home)
    }

    /// Ships one frame of forwarded calls through the simulated backend: a
    /// single request hop (latency charged once, payload bytes summed),
    /// per-call delivery and execution on the destination node `home`, and
    /// a single reply hop for every reply the frame produced. Settles every
    /// entry's [`CallSlot`](crate::batch::CallSlot).
    ///
    /// Partial-failure discipline matches the unbatched path call for call:
    /// a lost or partitioned request frame releases *every* export freshly
    /// pinned for *every* call aboard, a failed delivery or execution
    /// releases only that call's identifiers (the rest of the frame
    /// proceeds), and a lost reply frame releases the exports pinned by
    /// every staged reply.
    pub(crate) fn ship_batch(
        &self,
        from: &Arc<NetServer>,
        origin: u64,
        home: Option<&Arc<NetServer>>,
        frame: &mut [PendingEntry],
    ) {
        let calls = frame.len() as u64;
        self.batch_flushes.fetch_add(1, Ordering::Relaxed);
        if frame.len() > 1 {
            self.calls_batched.fetch_add(calls, Ordering::Relaxed);
        } else {
            self.calls_unbatched.fetch_add(calls, Ordering::Relaxed);
        }
        // The per-frame span carries the call count in its scid, so batch
        // sizes show up in the latency histograms.
        let mut span = spring_trace::span_start(keys::NET_BATCH, from.domain.trace_scope(), calls);

        // One snapshot for the way out; its config also prices the reply
        // hop, as the per-frame config read always did.
        let snap = self.load();
        let request_bytes: usize = frame
            .iter()
            .map(|e| e.wire.as_ref().map_or(0, |w| w.bytes.len()))
            .sum();
        let home = match self.depart(&snap, from, origin, home, request_bytes) {
            Ok(home) => home,
            Err(e) => {
                // The frame never left this node: every call aboard is lost
                // and every export pinned for any of them must be released,
                // or each lost frame leaks one pinned door per capability
                // sent.
                span.fail();
                for entry in frame.iter_mut() {
                    from.unexport(&entry.fresh);
                    entry.slot.fulfill(Err(e.clone()));
                }
                return;
            }
        };

        // Deliver and execute each call, in submission order.
        for entry in frame.iter_mut() {
            let wire = match entry.wire.take() {
                Some(w) => w,
                None => continue,
            };
            let door = match home.export_target(entry.export) {
                Ok(d) => d,
                Err(e) => {
                    from.unexport(&entry.fresh);
                    entry.slot.fulfill(Err(e));
                    continue;
                }
            };
            let delivered = match home.from_wire(wire) {
                Ok(d) => d,
                Err(e) => {
                    // This call will never execute, so nothing can ever
                    // reference the exports freshly pinned for it.
                    from.unexport(&entry.fresh);
                    entry.slot.fulfill(Err(e));
                    continue;
                }
            };
            // Snapshot the landed identifiers: if the kernel call fails
            // before moving them into the serving domain they would be
            // dropped undeleted. Slots are never reused, so the deletes are
            // harmless no-ops when the handler did take ownership.
            let delivered_doors = delivered.doors.clone();
            match home.domain.call(door, delivered) {
                Ok(reply) => entry.reply = Some(reply),
                Err(e) => {
                    for d in delivered_doors {
                        let _ = home.domain.delete_door(d);
                    }
                    entry.slot.fulfill(Err(e));
                }
            }
        }

        // The replies travel back across the same link, again as one frame,
        // past whatever partitions were published while the calls executed.
        let newer = self.newer_than(&snap);
        let back = newer.as_deref().unwrap_or(&snap);
        if let Err(e) = back.check_link(origin, from.node.raw()) {
            // A partition formed while the calls executed: no reply can
            // leave, so release their identifiers instead of stranding them
            // in the network server's domain.
            span.fail();
            for entry in frame.iter_mut() {
                if let Some(reply) = entry.reply.take() {
                    for d in reply.doors {
                        let _ = home.domain.delete_door(d);
                    }
                    entry.slot.fulfill(Err(e.clone()));
                }
            }
            return;
        }
        let mut reply_bytes = 0usize;
        for entry in frame.iter_mut() {
            if let Some(reply) = entry.reply.take() {
                match home.to_wire_tracked(reply) {
                    Ok((wire, fresh)) => {
                        reply_bytes += wire.bytes.len();
                        entry.reply_wire = Some(wire);
                        entry.reply_fresh = fresh;
                    }
                    Err(e) => entry.slot.fulfill(Err(e)),
                }
            }
        }
        if frame.iter().any(|e| e.reply_wire.is_some()) {
            match self.traced_hop(&snap.config, reply_bytes, true, home.domain.trace_scope()) {
                Ok(()) => {
                    for entry in frame.iter_mut() {
                        if let Some(wire) = entry.reply_wire.take() {
                            entry.slot.fulfill(from.from_wire(wire));
                        }
                    }
                }
                Err(e) => {
                    // A reply frame lost on the wire must not strand the
                    // exports it pinned — the calls already executed and
                    // these replies will not be re-sent.
                    span.fail();
                    for entry in frame.iter_mut() {
                        if entry.reply_wire.take().is_some() {
                            home.unexport(&entry.reply_fresh);
                            entry.slot.fulfill(Err(e.clone()));
                        }
                    }
                }
            }
        }
    }

    /// Delivers one reply-less call through the simulated backend: a
    /// single lossy request hop, delivery, execution — and no reply hop at
    /// all. Any doors the handler's reply carries are deleted in the
    /// serving domain, exactly what a socket receiver does with a
    /// `KIND_ONEWAY` frame's reply.
    ///
    /// Failure discipline: an `Err` return means the call did not reach
    /// its handler and the entry's fresh pins have been released — the
    /// simulator is omniscient, so it reports even receiver-side delivery
    /// failures (stale export, bad wire) that a real one-way wire would
    /// swallow; callers must treat `Ok` from other backends as
    /// fire-and-forget. An execution failure after delivery returns `Ok`
    /// (the wire crossing happened; one-way callers asked not to know) and
    /// only cleans up the landed identifiers.
    pub(crate) fn ship_oneway_batch(
        &self,
        from: &Arc<NetServer>,
        origin: u64,
        home: Option<&Arc<NetServer>>,
        entry: &mut OnewayEntry,
    ) -> Result<(), DoorError> {
        self.batch_flushes.fetch_add(1, Ordering::Relaxed);
        self.calls_unbatched.fetch_add(1, Ordering::Relaxed);
        let mut span = spring_trace::span_start(keys::NET_BATCH, from.domain.trace_scope(), 1);
        let wire = match entry.wire.take() {
            Some(w) => w,
            None => return Ok(()),
        };
        let delivered = self
            .depart(&self.load(), from, origin, home, wire.bytes.len())
            .and_then(|home| {
                spring_kernel::hotpath::count_oneway_frame();
                let door = home.export_target(entry.export)?;
                Ok((home, door, home.from_wire(wire)?))
            });
        let (home, door, delivered) = match delivered {
            Ok(landed) => landed,
            Err(e) => {
                from.unexport(&entry.fresh);
                span.fail();
                return Err(e);
            }
        };
        let delivered_doors = delivered.doors.clone();
        match home.domain.call(door, delivered) {
            Ok(reply) => {
                for d in reply.doors {
                    let _ = home.domain.delete_door(d);
                }
            }
            Err(_) => {
                // Delivered but failed in execution: a one-way caller asked
                // not to hear about it. Clean up the landed identifiers and
                // report the crossing as done.
                span.fail();
                for d in delivered_doors {
                    let _ = home.domain.delete_door(d);
                }
            }
        }
        Ok(())
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
    inner: Arc<NetworkInner>,
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
                messages: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                drops: AtomicU64::new(0),
                calls_forwarded: AtomicU64::new(0),
                exports: AtomicU64::new(0),
                proxies: AtomicU64::new(0),
                batch_flushes: AtomicU64::new(0),
                calls_batched: AtomicU64::new(0),
                calls_unbatched: AtomicU64::new(0),
                socket_frames_sent: AtomicU64::new(0),
                socket_frames_received: AtomicU64::new(0),
                socket_bytes_sent: AtomicU64::new(0),
                socket_bytes_received: AtomicU64::new(0),
                socket_disconnects: AtomicU64::new(0),
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
        let transport = Arc::new(SimTransport::new(server.clone()));
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
        SocketListener::bind_tcp(&self.inner, node, addr)
    }

    /// Starts accepting socket connections for `node` on a Unix-domain
    /// socket path.
    pub fn listen_uds(&self, node: NodeId, path: &str) -> Result<Arc<SocketListener>, DoorError> {
        SocketListener::bind_uds(&self.inner, node, path)
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
        SocketStatsSnapshot {
            frames_sent: self.inner.socket_frames_sent.load(Ordering::Relaxed),
            frames_received: self.inner.socket_frames_received.load(Ordering::Relaxed),
            bytes_sent: self.inner.socket_bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.inner.socket_bytes_received.load(Ordering::Relaxed),
            disconnects: self.inner.socket_disconnects.load(Ordering::Relaxed),
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
        NetStatsSnapshot {
            messages: self.inner.messages.load(Ordering::Relaxed),
            bytes: self.inner.bytes.load(Ordering::Relaxed),
            drops: self.inner.drops.load(Ordering::Relaxed),
            calls_forwarded: self.inner.calls_forwarded.load(Ordering::Relaxed),
            exports: self.inner.exports.load(Ordering::Relaxed),
            proxies_created: self.inner.proxies.load(Ordering::Relaxed),
            batch_flushes: self.inner.batch_flushes.load(Ordering::Relaxed),
            calls_batched: self.inner.calls_batched.load(Ordering::Relaxed),
            calls_unbatched: self.inner.calls_unbatched.load(Ordering::Relaxed),
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
            let mut doors = Vec::with_capacity(msg.doors.len());
            let mut pending = msg.doors.into_iter();
            for d in pending.by_ref() {
                match from.transfer_door(d, to) {
                    Ok(t) => doors.push(t),
                    Err(e) => {
                        // A failed send loses the whole message: delete the
                        // identifiers already landed in the receiver and the
                        // ones not yet sent, rather than stranding a
                        // partially-transferred capability set in two
                        // domains forever.
                        for t in doors {
                            let _ = to.delete_door(t);
                        }
                        for rest in pending {
                            let _ = from.delete_door(rest);
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(Message {
                bytes: msg.bytes,
                doors,
                trace: msg.trace,
                call: msg.call,
            });
        }

        let snap = self.inner.load();
        snap.check_link(from_node.raw(), to_node.raw())?;
        let src = snap.server(from_node.raw())?;
        let dst = snap.server(to_node.raw())?;

        // Move identifiers into the sending network server, map to wire
        // form, hop, and reverse on the receiving side. Object transfers
        // ride a reliable stream, so no loss is applied.
        let mut held = Vec::with_capacity(msg.doors.len());
        let mut pending = msg.doors.into_iter();
        for d in pending.by_ref() {
            match from.transfer_door(d, &src.domain) {
                Ok(t) => held.push(t),
                Err(e) => {
                    // Same discipline as the same-node path: a failed send
                    // loses the message, so nothing stays pinned.
                    for t in held {
                        let _ = src.domain.delete_door(t);
                    }
                    for rest in pending {
                        let _ = from.delete_door(rest);
                    }
                    return Err(e);
                }
            }
        }
        let wire = src.to_wire(Message {
            bytes: msg.bytes,
            doors: held,
            trace: msg.trace,
            call: msg.call,
        })?;
        self.inner.traced_hop(
            &snap.config,
            wire.bytes.len(),
            false,
            src.domain.trace_scope(),
        )?;
        let arrived = dst.from_wire(wire)?;
        let mut doors = Vec::with_capacity(arrived.doors.len());
        let mut pending = arrived.doors.into_iter();
        for d in pending.by_ref() {
            match dst.domain.transfer_door(d, to) {
                Ok(t) => doors.push(t),
                Err(e) => {
                    for t in doors {
                        let _ = to.delete_door(t);
                    }
                    for rest in pending {
                        let _ = dst.domain.delete_door(rest);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Message {
            bytes: arrived.bytes,
            doors,
            trace: arrived.trace,
            call: arrived.call,
        })
    }
}

impl subcontract::Transport for Network {
    fn ship(&self, from: &Domain, to: &Domain, msg: Message) -> Result<Message, DoorError> {
        self.ship_message(from, to, msg)
    }
}
