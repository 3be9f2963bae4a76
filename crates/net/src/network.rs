//! The network itself: nodes, hops, fault injection.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
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
use crate::transport::{Reach, ReplyOutcome};

/// The network's read-mostly state as one immutable value: behaviour knobs,
/// cut links, and what reaches each machine.
///
/// Publish rule (DESIGN.md §5.12): only [`NetworkInner::publish`] replaces
/// the snapshot — `add_node`, `set_config`, `partition`, `heal`, `heal_all`
/// and `register_peer` go through it, copying the value once per
/// publication and never per call. A forwarded call holds a snapshot for at
/// most its own duration, and a thread's held [`Route`] holds one until
/// the first call along its link that finds a newer epoch published (or
/// until the thread drops the route for another).
#[derive(Clone)]
pub(crate) struct Snapshot {
    /// Publication count; a held snapshot is current while this equals
    /// [`NetworkInner::epoch`].
    epoch: u64,
    config: NetConfig,
    partitions: HashSet<(u64, u64)>,
    /// Node -> what reaches it: its network server for a node of this
    /// network, the socket peer that reached it for a node in another OS
    /// process. A node with no entry is unknown.
    reach: HashMap<u64, Reach>,
}

impl Snapshot {
    /// The network server of `node`, a node of this network.
    fn server(&self, node: u64) -> Result<&Arc<NetServer>, DoorError> {
        match self.reach.get(&node) {
            Some(Reach::Sim(server)) => Ok(server),
            _ => Err(unknown_node(node)),
        }
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
/// snapshot instead of once per call: the network server the call leaves
/// from, the snapshot itself (partitions and the batching linger), and what
/// reaches the target's home node — `None` for a node the snapshot does not
/// know, whose frames fail when they ship.
///
/// Every proxy of one link resolves the same route, so a thread keeps the
/// routes it forwards along in a small cache of its own ([`Route::held`]),
/// keyed by sending server and destination node: a warm call clones an
/// `Rc` and reads the published epoch, writing no line another thread
/// shares.
pub(crate) struct Route {
    from: Arc<NetServer>,
    dst: u64,
    snap: Arc<Snapshot>,
    reach: Option<Reach>,
}

/// Most routes one thread holds. Holding routes per thread pays off while a
/// thread forwards along at most this many links at a time: every call
/// along a held link is warm. Past it, a call along a link the thread no
/// longer holds re-resolves its route (DESIGN.md §5.12).
const ROUTES_HELD: usize = 8;

/// This thread's routes.
struct Held {
    /// At most [`ROUTES_HELD`], the most recently used last. An entry is
    /// used only while its snapshot is the published one; a stale one is
    /// replaced by the next call along its link.
    routes: Vec<Rc<Route>>,
    /// Routes resolved on this thread, i.e. its misses.
    resolved: u64,
}

thread_local! {
    static ROUTES: RefCell<Held> = const {
        RefCell::new(Held {
            routes: Vec::new(),
            resolved: 0,
        })
    };
}

impl Held {
    /// The entry a miss displaces when the thread holds its fill: any but
    /// the most recently used, picked by a hash of the miss count. Evicting
    /// the oldest would make a thread that cycles over one link more than
    /// it holds miss on every call; a scattered victim keeps most of such a
    /// cycle warm (nine links: about three calls in four).
    fn victim(&self) -> usize {
        // splitmix64's finaliser.
        let mut z = self.resolved.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % (self.routes.len() - 1)
    }

    /// Takes out the entry a route from `from` to node `dst` replaces: the
    /// stale one for its link or, when the thread holds its fill, a victim.
    fn displace(&mut self, from: &Arc<NetServer>, dst: u64) -> Option<Rc<Route>> {
        self.resolved += 1;
        let same = |r: &Rc<Route>| Arc::ptr_eq(&r.from, from) && r.dst == dst;
        match self.routes.iter().position(same) {
            Some(at) => Some(self.routes.remove(at)),
            None if self.routes.len() >= ROUTES_HELD => Some(self.routes.remove(self.victim())),
            None => None,
        }
    }
}

impl Route {
    /// This thread's route from the network server at `from` to node
    /// `dst`, if it holds one resolved against the published snapshot; it
    /// becomes the most recently used. The route owns its server, so while
    /// it is held no other server can live at `from`.
    pub(crate) fn held(from: *const NetServer, dst: u64) -> Option<Rc<Route>> {
        ROUTES.with_borrow_mut(|held| {
            let routes = &mut held.routes;
            let at = routes
                .iter()
                .rposition(|r| Arc::as_ptr(&r.from) == from && r.dst == dst)?;
            let route = &routes[at];
            if !route.from.net.is_current(&route.snap) {
                return None;
            }
            routes[at..].rotate_left(1);
            routes.last().cloned()
        })
    }

    /// Resolves the route from `from` to node `dst` against the published
    /// snapshot and holds it on this thread as the most recently used, in
    /// place of the entry [`Held::displace`] takes out. That entry is
    /// re-resolved in place when nothing else holds it, so a miss allocates
    /// nothing.
    pub(crate) fn resolve(from: Arc<NetServer>, dst: u64) -> Rc<Route> {
        let displaced = ROUTES.with_borrow_mut(|held| held.displace(&from, dst));
        // Outside the borrow: what the displaced entry drops may be the
        // last reference to a superseded snapshot and the peers in it.
        let route = match displaced {
            Some(mut old) => match Rc::get_mut(&mut old) {
                Some(slot) => {
                    slot.retarget(from, dst);
                    old
                }
                // A call in progress on this thread still holds it.
                None => Rc::new(Route::new(from, dst)),
            },
            None => Rc::new(Route::new(from, dst)),
        };
        ROUTES.with_borrow_mut(|held| held.routes.push(route.clone()));
        route
    }

    /// The route from `from` to node `dst`, resolved against the published
    /// snapshot.
    fn new(from: Arc<NetServer>, dst: u64) -> Route {
        let snap = from.net.load();
        Route {
            reach: snap.reach.get(&dst).cloned(),
            snap,
            dst,
            from,
        }
    }

    /// Re-resolves this route as the one from `from` to node `dst`, keeping
    /// its snapshot while that is the one `from`'s network publishes.
    fn retarget(&mut self, from: Arc<NetServer>, dst: u64) {
        let net = &from.net;
        if !(Arc::ptr_eq(&self.from.net, net) && net.is_current(&self.snap)) {
            self.snap = net.load();
        }
        self.reach = self.snap.reach.get(&dst).cloned();
        self.from = from;
        self.dst = dst;
    }

    /// Forwards a proxy-door invocation along this route to `target`
    /// (see [`NetworkInner::forward_call`]).
    pub(crate) fn forward(
        &self,
        target: WireCap,
        msg: Message,
        ctx: &CallCtx,
    ) -> Result<Message, DoorError> {
        self.from.net.forward_call(self, target, msg, ctx)
    }

    /// Ships one frame along this route through what reaches its
    /// destination, settling every entry; every call aboard counts as
    /// forwarded.
    fn ship(&self, frame: &mut [PendingEntry], want_reply: bool) {
        let net = &self.from.net;
        net.count(Count::CallsForwarded, frame.len() as u64);
        match &self.reach {
            Some(Reach::Sim(home)) => net.ship_frame(self, Some(home), frame, want_reply),
            Some(Reach::Socket(peer)) => peer.ship(&self.from, frame, want_reply),
            None => net.ship_frame(self, None, frame, want_reply),
        }
    }
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
    /// One call batcher per (source, destination) link that has carried a
    /// pipelined call, created by the first and never removed.
    batchers: RwLock<HashMap<(u64, u64), Arc<LinkBatcher>>>,
    rng: Mutex<FaultRng>,
    stats: Arc<Tally<COUNTS>>,
}

impl NetworkInner {
    #[inline]
    fn count(&self, count: Count, by: u64) {
        tally::bump(&MINE, &self.stats, count as usize, by);
    }

    /// Several counts of one site, in one tally lookup.
    #[inline]
    fn count_each<const K: usize>(&self, counts: [(Count, u64); K]) {
        tally::bump_many(&MINE, &self.stats, &counts.map(|(c, n)| (c as usize, n)));
    }

    /// The message and bytes a hop of `bytes` payload bytes puts on the
    /// wire, counted whether or not the loss roll drops it.
    fn count_hop(&self, bytes: usize) {
        self.count_each([(Count::Messages, 1), (Count::Bytes, bytes as u64)]);
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

    /// Registers (or replaces, on reconnect) the socket peer reaching
    /// `node`, a node in another OS process. A node of this network stays
    /// reached in process.
    pub(crate) fn register_peer(&self, node: u64, peer: Arc<SocketPeer>) {
        self.publish(|s| {
            if !matches!(s.reach.get(&node), Some(Reach::Sim(_))) {
                s.reach.insert(node, Reach::Socket(peer));
            }
        });
    }

    pub(crate) fn count_socket_send(&self, bytes: usize) {
        self.count_each([
            (Count::SocketFramesSent, 1),
            (Count::SocketBytesSent, bytes as u64),
        ]);
    }

    pub(crate) fn count_socket_receive(&self, bytes: usize) {
        self.count_each([
            (Count::SocketFramesReceived, 1),
            (Count::SocketBytesReceived, bytes as u64),
        ]);
    }

    pub(crate) fn count_socket_disconnect(&self) {
        self.count(Count::SocketDisconnects, 1);
    }

    /// The batcher for the `src -> dst` link, created on first use: by the
    /// first pipelined call along it.
    pub(crate) fn link(&self, src: u64, dst: u64) -> Arc<LinkBatcher> {
        if let Some(batcher) = self.batchers.read().get(&(src, dst)) {
            return batcher.clone();
        }
        self.batchers.write().entry((src, dst)).or_default().clone()
    }

    /// One network hop: latency and, for invocation traffic, probabilistic
    /// loss. Its caller counts it ([`NetworkInner::count_hop`]), a frame's
    /// request hop together with the frame.
    ///
    /// The RNG mutex is taken for a loss roll only, so a lossless network
    /// never takes it.
    fn hop(&self, cfg: &NetConfig, lossy: bool) -> Result<(), DoorError> {
        if lossy && cfg.drop_prob > 0.0 && self.rng.lock().unit_f64() < cfg.drop_prob {
            self.count(Count::Drops, 1);
            return Err(DoorError::Comm("message lost".into()));
        }
        if !cfg.latency.is_zero() {
            std::thread::sleep(cfg.latency);
        }
        Ok(())
    }

    /// Forwards a proxy-door invocation along its resolved `route` to its
    /// home node and returns the reply. `msg`'s identifiers are owned by
    /// the route's sending network server.
    ///
    /// How the call leaves is decided here, once. A plain call (company 0)
    /// and a one-way call ship at once in a frame of their own: one request
    /// hop and, for a plain call, one reply hop, loss rolls drawn in call
    /// order — whatever is forming on the link. A call that reports company
    /// is queued on its link's batcher: concurrent pipelined calls over the
    /// same link that overlap in time may share one wire frame, with the
    /// flush policy in [`crate::batch`] deciding how long to wait for the
    /// company `ctx` says is coming.
    ///
    /// Every call counts as forwarded here, whichever transport ships it:
    /// a frame's calls as the frame is handed to its shipper, a call
    /// refused before that on its own.
    fn forward_call(
        &self,
        route: &Route,
        target: WireCap,
        mut msg: Message,
        ctx: &CallCtx,
    ) -> Result<Message, DoorError> {
        let from = &route.from;
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
            let handed = match route.snap.check_link(from.node.raw(), target.origin) {
                Ok(()) => from.to_wire_tracked(msg),
                // The kernel has already moved the call's identifiers into
                // the network server's domain, and nobody else will.
                Err(e) => {
                    from.delete_doors(msg.doors);
                    Err(e)
                }
            };
            let (wire, fresh) = handed.inspect_err(|_| {
                // Refused before any shipper saw it: the call counts here.
                self.count(Count::CallsForwarded, 1);
            })?;
            if ctx.one_way || ctx.company == 0 {
                // Nothing to coalesce with: the call leaves alone.
                let want_reply = !ctx.one_way;
                return ship_alone(target.export, wire, fresh, |frame| {
                    route.ship(frame, want_reply)
                });
            }
            let linger = route.snap.config.batch_linger;
            let ship = |frame: &mut [PendingEntry]| route.ship(frame, true);
            let batcher = self.link(from.node.raw(), route.dst);
            batcher.submit(target.export, wire, fresh, ctx.company, linger, &ship)
        })();
        if result.is_err() {
            span.fail();
        }
        result
    }

    /// Ships one frame of forwarded calls along `route` through the
    /// simulated backend: a single request hop (latency charged once,
    /// payload bytes summed), each call served on the destination node
    /// `home` (`None` for a node nobody has introduced, whose frame fails
    /// "unknown node" — counted and traced like any other), and — when the
    /// callers `want_reply` — a single reply hop for every reply the frame
    /// produced. Settles every entry. On a lossy network it draws one
    /// seeded loss roll per hop it takes, the request hop's first, so every
    /// seeded fault sweep reproduces bit for bit.
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
    fn ship_frame(
        &self,
        route: &Route,
        home: Option<&Arc<NetServer>>,
        frame: &mut [PendingEntry],
        want_reply: bool,
    ) {
        let (from, routed, origin) = (&route.from, &route.snap, route.dst);
        let calls = frame.len() as u64;
        // The per-frame span carries the call count in its scid, so batch
        // sizes show up in the latency histograms.
        let mut span = spring_trace::span_start(keys::NET_BATCH, from.domain.trace_scope(), calls);

        // One snapshot for the way out — the one the route was resolved
        // against, unless a newer has been published since — and its config
        // also prices the reply hop, as the per-frame config read always
        // did.
        let newer = self.newer_than(routed);
        let snap = newer.as_ref().unwrap_or(routed);
        let request_bytes: usize = frame.iter().map(|e| e.request().bytes.len()).sum();
        // On the way out, in this order: the link is not cut, the
        // destination exists, the request hop survives the loss roll.
        let departing = snap
            .check_link(from.node.raw(), origin)
            .and_then(|()| home.ok_or_else(|| unknown_node(origin)));
        // The frame, its calls' batching, and its request hop if it takes
        // one, in one lookup.
        let hops = departing.is_ok() as u64;
        let batched = match calls {
            1 => Count::CallsUnbatched,
            _ => Count::CallsBatched,
        };
        self.count_each([
            (Count::BatchFlushes, 1),
            (batched, calls),
            (Count::Messages, hops),
            (Count::Bytes, hops * request_bytes as u64),
        ]);
        let departed = departing.and_then(|home| {
            self.traced_hop(&snap.config, true, from.domain.trace_scope())?;
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
            let served = entry.serve(|export, wire| home.serve(export, wire, want_reply));
            if let Some(ReplyOutcome::Ok(reply)) = served.map(|served| &served.outcome) {
                replies = true;
                reply_bytes += reply.bytes.len();
            }
        }

        // The replies travel back across the same link, again as one frame,
        // past whatever partitions were published while the calls executed.
        let mut reply_leg = Ok(());
        if want_reply {
            let newer = self.newer_than(snap);
            let back = newer.as_ref().unwrap_or(snap);
            reply_leg = back.check_link(origin, from.node.raw());
            if replies && reply_leg.is_ok() {
                self.count_hop(reply_bytes);
                let scope = home.domain.trace_scope();
                reply_leg = self.traced_hop(&snap.config, true, scope);
            }
        }
        if reply_leg.is_err() {
            span.fail();
        }
        for entry in frame.iter_mut() {
            let Some(Served { outcome, fresh }) = entry.take_served() else {
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
    fn traced_hop(&self, cfg: &NetConfig, lossy: bool, scope: u64) -> Result<(), DoorError> {
        let mut span = spring_trace::span_start(keys::NET_HOP, scope, 0);
        let result = self.hop(cfg, lossy);
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
                    reach: HashMap::new(),
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
        self.inner.publish(|s| {
            s.reach.insert(raw, Reach::Sim(server));
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

    /// Replaces the network behaviour (latency, loss, batching linger).
    pub fn set_config(&self, config: NetConfig) {
        self.inner.publish(|s| s.config = config);
    }

    /// Reseeds the loss RNG (determinism for tests).
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

    /// How many routes the calling thread holds, over every network in the
    /// process: at most eight (DESIGN.md §5.12). A test hook.
    #[doc(hidden)]
    pub fn routes_held_here() -> usize {
        ROUTES.with_borrow(|held| held.routes.len())
    }

    /// How many routes the calling thread has resolved, over every network
    /// in the process: one per call that found no current route held. A
    /// test hook.
    #[doc(hidden)]
    pub fn routes_resolved_here() -> u64 {
        ROUTES.with_borrow(|held| held.resolved)
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
            let doors = from.transfer_doors(msg.doors, to)?;
            return Ok(Message { doors, ..msg });
        }

        let snap = self.inner.load();
        snap.check_link(from_node.raw(), to_node.raw())?;
        let src = snap.server(from_node.raw())?;
        let dst = snap.server(to_node.raw())?;

        // Move identifiers into the sending network server, map to wire
        // form, hop, and reverse on the receiving side. Object transfers
        // ride a reliable stream, so no loss is applied.
        let doors = from.transfer_doors(msg.doors, &src.domain)?;
        let (wire, fresh) = src.to_wire_tracked(Message { doors, ..msg })?;
        self.inner.count_hop(wire.bytes.len());
        let arrived = self
            .inner
            .traced_hop(&snap.config, false, src.domain.trace_scope())
            .and_then(|()| dst.from_wire(wire))
            .and_then(|arrived| {
                let doors = dst.domain.transfer_doors(arrived.doors, to)?;
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

impl subcontract::Transport for Network {
    fn ship(&self, from: &Domain, to: &Domain, msg: Message) -> Result<Message, DoorError> {
        self.ship_message(from, to, msg)
    }
}
