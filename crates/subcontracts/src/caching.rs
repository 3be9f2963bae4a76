//! The *caching* subcontract: invocations via a machine-local cache (§8.2).
//!
//! When a caching object is transmitted between machines, only the server
//! door identifier (D1) and the cache manager name travel. The receiving
//! side's unmarshal "resolves the cache manager name in a machine-local
//! context to discover a suitable local cache manager and then presents the
//! D1 door identifier to the local cache manager and receives a new D2.
//! Whenever the subcontract performs an invoke operation it uses the D2 door
//! identifier" — so every invocation goes to a cache on the local machine.
//!
//! The cache manager here is a generic memoizing interceptor: operations in
//! its *cacheable set* are answered from the cache when possible; any other
//! operation is forwarded to the server and invalidates the cache
//! (write-through). The original Spring cache manager was the file system's
//! coherent cache ([Nelson et al 1993]); [`Caching::export_coherent`]
//! provides the same guarantee here — cross-machine coherence via
//! server-driven, epoch-stamped invalidation callbacks backed by leases —
//! implemented entirely inside the subcontract, with the stubs untouched.
//! The protocol is documented in DESIGN.md §5.11.
//!
//! Coherence in one paragraph: each coherent attachment registers with the
//! server over the callback channel (`callback.rs`, DESIGN.md §5.20),
//! as `(its manager's callback door, a nonce of that manager's)`. After any
//! non-cacheable (mutating) operation commits, the server bumps its *epoch*
//! and broadcasts the new epoch to every registered cache. Because
//! callbacks cross the simulated network they can be dropped, so
//! correctness never depends on delivery: memo entries are tagged with the
//! epoch they were read under and are only served while the servant holds a
//! live *lease*; on lease expiry the servant revalidates by registering
//! again — the reply carries epoch and lease, and a server that had pruned
//! the cache has it back. A cache that stops acknowledging callbacks is
//! pruned from the broadcast set without blocking the write path.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use spring_buf::{BufError, CommBuffer};
use spring_kernel::callid::now_micros;
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Message};
use subcontract::{
    client, decode_reply_status, encode_ok, export_door, op_hash, Call, Dispatch, DomainCtx,
    DoorRepr, DoorSubcontract, Landed, ReplyStatus, Result, ScId, ServerCtx, ServerSubcontract,
    SpringError, SpringObj, TypeInfo, STATUS_OK,
};

use crate::callback::{self, DoorResult, Inbox, Link};

/// Run-time type of cache manager objects.
pub static CACHE_MANAGER_TYPE: TypeInfo = TypeInfo {
    name: "cache_manager",
    parents: &[&subcontract::OBJECT_TYPE],
    default_subcontract: crate::simplex::Simplex::ID,
};

/// The cache manager's single operation: attach a server door, get a cache
/// door back.
pub const OP_ATTACH: u32 = op_hash("attach");

/// Coherence-protocol operation: register a callback door under a nonce,
/// or register again to revalidate a lease (the reply carries the epoch and
/// the lease either way). Answered by the coherent export's control step,
/// never by the skeleton; an incoherent server never receives it
/// (servants only speak the protocol when the marshalled form said the
/// server is coherent).
pub const OP_CACHE_REGISTER: u32 = op_hash("cache.register");

/// Coherence-protocol operation: drop a registration (best effort; a lost
/// detach is reaped via the stale list in the next broadcast's reply).
pub const OP_CACHE_DETACH: u32 = op_hash("cache.detach");

/// Consecutive transient (Comm) broadcast failures before a cache manager
/// is pruned from the broadcast set. Non-transient failures (revoked door,
/// dead domain) prune immediately. A pruned-but-alive cache is registered
/// again by its next lease revalidation, so an over-eager prune only costs
/// callbacks, never correctness.
const MAX_CALLBACK_FAILURES: u32 = 8;

/// Bound on a cache servant's memo (entries), LRU-evicted.
const DEFAULT_MEMO_CAPACITY: usize = 1024;

/// Span key of the server-side half, coherent or not.
const SERVE_SPAN: &str = "caching.serve";

/// Reads the operation word without copying the payload: caching objects
/// have no `invoke_preamble`, so the op is the first aligned little-endian
/// `u32` of the marshalled stream.
fn peek_op(bytes: &[u8]) -> Option<u32> {
    let raw: [u8; 4] = bytes.get(0..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(raw))
}

/// What a caching object keeps beside its server door (D1).
#[derive(Debug)]
pub struct CacheState {
    /// D2: the local cache, which every invocation uses. The exporting
    /// server's own object has none: it needs no cache to reach itself,
    /// and calls D1.
    d2: Option<DoorId>,
    /// Name of the cache manager, resolved machine-locally on unmarshal.
    manager: String,
    /// Whether the server broadcasts invalidations: receiving machines
    /// attach coherently (register a callback, honour leases) iff set.
    coherent: bool,
}

/// The caching subcontract (client side).
#[derive(Debug, Default)]
pub struct Caching;

impl Caching {
    /// The identifier carried in caching objects' marshalled form.
    pub const ID: ScId = ScId::from_name("caching");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Caching> {
        Arc::new(Caching)
    }

    /// Exports an object that clients will access through their local cache
    /// managers. The server side is a plain door to the skeleton; the
    /// cleverness is all in unmarshal on the receiving machines.
    ///
    /// Caches attached to this export are *incoherent* across machines: a
    /// write through one machine's cache invalidates only that machine.
    /// Use [`Caching::export_coherent`] when several machines may share
    /// the object.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        manager_name: impl Into<String>,
    ) -> Result<SpringObj> {
        let state = own_state(manager_name.into(), false);
        let control = |call: &mut Call<'_>, disp: &dyn Dispatch| call.dispatch(disp);
        export_door(ctx, SERVE_SPAN, Self::ID, disp, control, |_| {
            Ok(|door| DoorRepr::of(door, state))
        })
    }

    /// Exports a *coherent* caching object: every attached cache registers
    /// an invalidation callback, mutating operations bump the server epoch
    /// and broadcast it, and memo entries are only served under a live
    /// `lease`. The exporting server's own object calls the export's door
    /// directly, so server-local writes invalidate remote caches too.
    ///
    /// Returns the object plus the server-side coherence counters.
    pub fn export_coherent(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        manager_name: impl Into<String>,
        cacheable_ops: impl IntoIterator<Item = u32>,
        lease: Duration,
    ) -> Result<(SpringObj, Arc<CoherentStats>)> {
        let step = CoherentStep {
            domain: ctx.domain().clone(),
            cacheable: cacheable_ops.into_iter().collect(),
            lease_micros: lease.as_micros().max(1) as u64,
            links: Mutex::new(HashMap::new()),
            stats: Arc::new(CoherentStats::default()),
        };
        let stats = step.stats.clone();
        let state = own_state(manager_name.into(), true);
        let control = move |call: &mut Call<'_>, disp: &dyn Dispatch| step.serve(call, disp);
        let obj = export_door(ctx, SERVE_SPAN, Self::ID, disp, control, |_| {
            Ok(|door| DoorRepr::of(door, state))
        })?;
        Ok((obj, stats))
    }
}

/// The exporting server's own object holds D1 alone: it reaches the server
/// without a cache, and so (for a coherent export) through the broadcast.
fn own_state(manager: String, coherent: bool) -> CacheState {
    CacheState {
        d2: None,
        manager,
        coherent,
    }
}

/// Server-side counters for a coherent export (observability + E4).
#[derive(Debug, Default)]
pub struct CoherentStats {
    epoch: AtomicU64,
    broadcasts: AtomicU64,
    pruned: AtomicU64,
    registrations: AtomicU64,
}

impl CoherentStats {
    /// Current server epoch (bumped once per committed mutating op).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidation broadcast calls issued (one per cache manager per epoch
    /// bump, not one per registration).
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts.load(Ordering::Relaxed)
    }

    /// Registrations pruned from the broadcast set.
    pub fn pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Callback registrations accepted (lease revalidations included: a
    /// revalidation is a registration).
    pub fn registrations(&self) -> u64 {
        self.registrations.load(Ordering::Relaxed)
    }
}

/// The coherent export's control step: answers the coherence-protocol ops
/// itself, dispatches the rest, and broadcasts after a committed mutating
/// op. It lives as long as the export's door, and releases its links' doors
/// with it.
struct CoherentStep {
    domain: Domain,
    cacheable: HashSet<u32>,
    lease_micros: u64,
    /// Callback door token → the cache manager behind it and its
    /// registered attachments. Never held across a door call (broadcasts
    /// snapshot it first), per the kernel's lock discipline.
    links: Mutex<HashMap<u64, Link<()>>>,
    stats: Arc<CoherentStats>,
}

impl CoherentStep {
    fn serve(&self, call: &mut Call<'_>, disp: &dyn Dispatch) -> DoorResult<()> {
        match call.args.peek_u32().ok() {
            Some(OP_CACHE_REGISTER) => self.register(call),
            Some(OP_CACHE_DETACH) => self.detach(call),
            Some(op) if self.cacheable.contains(&op) => call.dispatch(disp),
            _ => {
                // Mutating (or unparsable) operation: run it, then bump the
                // epoch and broadcast iff it committed. The epoch is bumped
                // *before* the broadcast so even a cache that misses every
                // callback sees the mismatch on its next revalidation.
                call.dispatch(disp)?;
                if call.reply.peek_u8().ok() == Some(STATUS_OK) {
                    let epoch = self.stats.epoch.fetch_add(1, Ordering::SeqCst) + 1;
                    self.broadcast(epoch);
                }
                Ok(())
            }
        }
    }

    /// Reads a protocol request: the op word `serve` dispatched on, then
    /// what the callback channel appended.
    fn request(&self, call: &mut Call<'_>, what: &str) -> DoorResult<callback::Request<'_>> {
        let _op = call.args.get_u32();
        callback::read_request(&self.domain, &mut call.args, what)
    }

    fn register(&self, call: &mut Call<'_>) -> DoorResult<()> {
        let req = self.request(call, "cache.register")?;
        match self.links.lock().entry(req.token) {
            Entry::Occupied(mut link) => link.get_mut().join(req, ()),
            Entry::Vacant(slot) => {
                slot.insert(Link::open(req, ()));
            }
        }
        self.stats.registrations.fetch_add(1, Ordering::Relaxed);
        encode_ok(&mut call.reply);
        call.reply.put_u64(self.stats.epoch.load(Ordering::SeqCst));
        call.reply.put_u64(self.lease_micros);
        Ok(())
    }

    fn detach(&self, call: &mut Call<'_>) -> DoorResult<()> {
        let req = self.request(call, "cache.detach")?;
        self.update_link(req.token, |link| link.subs.remove(&req.nonce));
        encode_ok(&mut call.reply);
        Ok(())
    }

    /// Applies `change` to `token`'s link, if there is one, and forgets a
    /// link it leaves without registrations, releasing its door.
    fn update_link<R>(&self, token: u64, change: impl FnOnce(&mut Link<()>) -> R) -> Option<R> {
        let mut links = self.links.lock();
        let link = links.get_mut(&token)?;
        let out = change(link);
        if link.subs.is_empty() {
            let door = links.remove(&token).map(|link| link.door);
            drop(links);
            if let Some(door) = door {
                let _ = self.domain.delete_door(door);
            }
        }
        Some(out)
    }

    /// Broadcasts `epoch` to every registered cache, one call per cache
    /// manager. Never blocks the write path on a misbehaving cache:
    /// failures are counted and links pruned per
    /// [`MAX_CALLBACK_FAILURES`]; correctness rests on leases, not on
    /// delivery.
    fn broadcast(&self, epoch: u64) {
        let notes: Vec<(u64, DoorId, Message)> = self
            .links
            .lock()
            .iter()
            .map(|(token, link)| {
                let mut note = CommBuffer::pooled();
                note.put_u64(epoch);
                note.put_u64(self.lease_micros);
                let nonces = link.subs.keys().map(|nonce| (*nonce, ()));
                callback::put_addresses(&mut note, nonces, |_, ()| {});
                (*token, link.door, note.into_message())
            })
            .collect();
        for (token, door, note) in notes {
            self.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
            let outcome = self.domain.call(door, note);
            let pruned = self
                .update_link(token, |link| {
                    link.settle(outcome, MAX_CALLBACK_FAILURES).dropped
                })
                .unwrap_or(0);
            self.stats
                .pruned
                .fetch_add(pruned as u64, Ordering::Relaxed);
        }
    }
}

impl Drop for CoherentStep {
    /// The export's door is gone, and with it every broadcast: the links'
    /// doors go too, whether or not their caches ever detached.
    fn drop(&mut self) {
        for (_, link) in self.links.get_mut().drain() {
            let _ = self.domain.delete_door(link.door);
        }
    }
}

/// Client half: the object's door is D1, the manager name and the
/// coherence flag follow it on the wire, and D2 stays on this machine.
impl DoorSubcontract for Caching {
    const ID: ScId = Caching::ID;
    const NAME: &'static str = "caching";
    type State = CacheState;

    fn call(&self, obj: &SpringObj, args: CommBuffer) -> Result<CommBuffer> {
        let repr = client::repr::<Self>(obj)?;
        // All invocations go through D2 — the local cache (§8.2).
        let door = repr.state.d2.unwrap_or(repr.door);
        let reply = obj.ctx().domain().call(door, args.into_message())?;
        Ok(CommBuffer::from_message(reply))
    }

    fn put(&self, state: &CacheState, buf: &mut CommBuffer) {
        buf.put_string(&state.manager);
        buf.put_bool(state.coherent);
    }

    /// Presents the landed D1 to the local cache manager, which attaches a
    /// cache and answers with D2.
    fn get(&self, ctx: &Arc<DomainCtx>, d1: DoorId, buf: &mut CommBuffer) -> Result<CacheState> {
        let manager = buf.get_string()?;
        let coherent = buf.get_bool()?;
        let d2 = Some(attach_local(ctx, d1, &manager, coherent)?);
        Ok(CacheState {
            d2,
            manager,
            coherent,
        })
    }

    fn fork(&self, ctx: &Arc<DomainCtx>, state: &CacheState) -> Result<CacheState> {
        Ok(CacheState {
            d2: state.d2.map(|d2| ctx.domain().copy_door(d2)).transpose()?,
            manager: state.manager.clone(),
            coherent: state.coherent,
        })
    }

    /// The local cache attachment is not meaningful on another machine.
    fn retire(&self, ctx: &Arc<DomainCtx>, state: CacheState) {
        if let Some(d2) = state.d2 {
            let _ = ctx.domain().delete_door(d2);
        }
    }
}

/// Resolves the machine-local cache manager and attaches `d1`, returning
/// the cache door (D2). Releases every identifier it created on failure;
/// the caller still owns `d1` either way. This is the "significant overhead
/// to object unmarshalling" the paper trades for local invocations (§9.3).
fn attach_local(ctx: &Arc<DomainCtx>, d1: DoorId, manager: &str, coherent: bool) -> Result<DoorId> {
    let resolver = ctx.resolver()?;
    let mgr = resolver.resolve(manager, &CACHE_MANAGER_TYPE)?;
    let mut call = mgr.start_call(OP_ATTACH)?;
    let d1_for_mgr = Landed::copy_of(ctx.domain(), d1)?;
    call.put_door(d1_for_mgr.id());
    call.put_bool(coherent);
    // On failure the copy may still be ours if the call never landed (the
    // kernel validates identifiers before moving any), so the guard deletes
    // it; slots are never reused, so a stale delete is harmless.
    let mut reply = mgr.invoke(call)?;
    d1_for_mgr.keep(); // Delivered: the identifier moved with the call.
    match decode_reply_status(&mut reply)? {
        ReplyStatus::Ok => Ok(reply.get_door()?),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// Counters a cache manager maintains (hardware-independent evidence for
/// benchmark E4).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    forwards: AtomicU64,
    invalidations: AtomicU64,
    attaches: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Cache hits served locally.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cacheable operations that had to go to the server.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Non-cacheable operations forwarded to the server.
    pub fn forwards(&self) -> u64 {
        self.forwards.load(Ordering::Relaxed)
    }

    /// Cache invalidations (forwarded mutating operations, epoch bumps).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Objects attached to this manager.
    pub fn attaches(&self) -> u64 {
        self.attaches.load(Ordering::Relaxed)
    }

    /// Memo entries evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The machine-local cache manager service.
///
/// Exports one `attach` operation: given a server door, it creates a cache
/// servant door (D2) whose handler memoizes cacheable operations and
/// forwards the rest. Bind the object from [`CacheManager::export`] into the
/// machine-local naming context under the name caching objects carry.
///
/// All coherent attachments share the one callback door of the manager's
/// inbox; invalidation broadcasts address individual attachments by
/// nonce, so one network call invalidates every cache the manager holds for
/// that server.
pub struct CacheManager {
    ctx: Arc<DomainCtx>,
    cacheable: HashSet<u32>,
    stats: Arc<CacheStats>,
    inbox: Arc<Inbox<Weak<CacheServant>>>,
}

impl CacheManager {
    /// Creates a manager in `ctx`'s domain caching the given operations.
    pub fn new(ctx: &Arc<DomainCtx>, cacheable_ops: impl IntoIterator<Item = u32>) -> Arc<Self> {
        Arc::new(CacheManager {
            ctx: ctx.clone(),
            cacheable: cacheable_ops.into_iter().collect(),
            stats: Arc::new(CacheStats::default()),
            inbox: Inbox::new(ctx, invalidate),
        })
    }

    /// The manager's counters.
    pub fn stats(&self) -> &Arc<CacheStats> {
        &self.stats
    }

    /// Exports the manager as a Spring object (via simplex), ready to bind
    /// into the machine-local naming context.
    pub fn export(self: &Arc<Self>) -> Result<SpringObj> {
        let disp = Arc::new(CacheManagerDispatch { mgr: self.clone() });
        crate::simplex::Simplex.export(&self.ctx, disp)
    }

    /// Attaches a server door, returning the cache (D2) door. Owns
    /// `server_door` from the moment it is called: every failure path
    /// releases it and anything else allocated along the way.
    fn attach(self: &Arc<Self>, server_door: DoorId, coherent: bool) -> Result<DoorId> {
        let domain = self.ctx.domain();
        let servant = Arc::new_cyclic(|me: &Weak<CacheServant>| CacheServant {
            ctx: self.ctx.clone(),
            server_door,
            cacheable: self.cacheable.clone(),
            stats: self.stats.clone(),
            memo: Mutex::new(Memo::new(DEFAULT_MEMO_CAPACITY)),
            coherence: coherent.then(|| Coherence {
                nonce: self.inbox.insert(me.clone()),
                inbox: self.inbox.clone(),
                epoch: AtomicU64::new(0),
                lease_micros: AtomicU64::new(0),
                lease_until: AtomicU64::new(0),
            }),
        });
        let d2 = match domain.create_door(servant.clone()) {
            Ok(d) => d,
            Err(e) => {
                if let Some(coh) = &servant.coherence {
                    self.inbox.remove(coh.nonce);
                }
                let _ = domain.delete_door(server_door);
                return Err(e.into());
            }
        };
        // Best-effort initial registration: on failure the servant stays in
        // lease-only mode (lease_until starts expired), so its first read
        // revalidates — which registers — before serving anything.
        if let Some(coh) = &servant.coherence {
            let _ = servant.register(coh);
        }
        self.stats.attaches.fetch_add(1, Ordering::Relaxed);
        Ok(d2)
    }
}

struct CacheManagerDispatch {
    mgr: Arc<CacheManager>,
}

impl Dispatch for CacheManagerDispatch {
    fn type_info(&self) -> &'static TypeInfo {
        &CACHE_MANAGER_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        if op != OP_ATTACH {
            return Err(SpringError::UnknownOp(op));
        }
        let server_door = Landed::take(self.mgr.ctx.domain(), args)?;
        let coherent = args.get_bool()?;
        let d2 = self.mgr.attach(server_door.keep(), coherent)?;
        encode_ok(reply);
        reply.put_door(d2);
        Ok(())
    }
}

/// Behind a manager's callback door: an epoch broadcast, routed to the
/// attachments it addresses.
fn invalidate(
    inbox: &Inbox<Weak<CacheServant>>,
    msg: Message,
) -> std::result::Result<Message, DoorError> {
    let mut note = CommBuffer::from_message(msg);
    let head = (|| Ok::<_, BufError>((note.get_u64()?, note.get_u64()?)))();
    let (epoch, lease_micros) =
        head.map_err(|e| DoorError::Handler(format!("cache invalidation: {e}")))?;
    let (hit, reply) = inbox.split(&mut note, |_| Ok(()))?;
    // note_epoch takes the servant's memo lock; `split` has let go of the
    // inbox's, so the lock scopes stay disjoint.
    for servant in hit.iter().filter_map(|(servant, ())| servant.upgrade()) {
        servant.note_epoch(epoch, lease_micros);
    }
    Ok(reply)
}

/// Per-attachment coherence state.
struct Coherence {
    /// The attachment's nonce in its manager's inbox.
    nonce: u64,
    /// The manager's inbox: its callback door is what registers with the
    /// server, and it lives as long as any attachment does.
    inbox: Arc<Inbox<Weak<CacheServant>>>,
    /// Latest server epoch this cache knows.
    epoch: AtomicU64,
    /// Lease duration granted by the server (µs).
    lease_micros: AtomicU64,
    /// Absolute expiry ([`now_micros`]) of the current lease. Starts at 0
    /// (= expired) so nothing is served before the server has been heard.
    lease_until: AtomicU64,
}

/// A memoized reply, tagged with the epoch it was read under.
struct MemoEntry {
    reply: Vec<u8>,
    epoch: u64,
    last_used: u64,
}

/// Bounded request-bytes → reply-bytes memo with LRU eviction.
struct Memo {
    entries: HashMap<Vec<u8>, MemoEntry>,
    capacity: usize,
    tick: u64,
}

impl Memo {
    fn new(capacity: usize) -> Memo {
        Memo {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Returns the memoized reply for `key` if it was read under `epoch`.
    fn lookup(&mut self, key: &[u8], epoch: u64) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        if entry.epoch != epoch {
            return None;
        }
        entry.last_used = tick;
        Some(entry.reply.clone())
    }

    /// Inserts an entry, evicting the least-recently-used one when full.
    /// Returns true when an eviction was needed.
    fn insert(&mut self, key: Vec<u8>, reply: Vec<u8>, epoch: u64) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.entries.insert(
            key,
            MemoEntry {
                reply,
                epoch,
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Drops entries read under an epoch older than `epoch`; returns how
    /// many were dropped.
    fn drop_stale(&mut self, epoch: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.epoch >= epoch);
        before - self.entries.len()
    }

    fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }
}

/// One attached object's cache: a memoizing door in front of the server.
struct CacheServant {
    ctx: Arc<DomainCtx>,
    server_door: DoorId,
    cacheable: HashSet<u32>,
    stats: Arc<CacheStats>,
    /// Cacheable requests whose replies carry no capabilities.
    memo: Mutex<Memo>,
    /// Present iff the server is a coherent export.
    coherence: Option<Coherence>,
}

impl CacheServant {
    fn known_epoch(&self) -> u64 {
        self.coherence
            .as_ref()
            .map(|c| c.epoch.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// Adopts a (possibly newer) server epoch and renews the lease. Both a
    /// callback delivery and a register reply prove contact with the
    /// server at this instant, so either renews.
    fn note_epoch(&self, epoch: u64, lease_micros: u64) {
        let Some(coh) = &self.coherence else { return };
        let prev = coh.epoch.fetch_max(epoch, Ordering::AcqRel);
        if epoch > prev {
            let dropped = self.memo.lock().drop_stale(epoch);
            if dropped > 0 {
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        coh.lease_micros.store(lease_micros, Ordering::Relaxed);
        let until = now_micros().saturating_add(lease_micros);
        coh.lease_until.fetch_max(until, Ordering::AcqRel);
    }

    /// Registers this attachment with the server — for the first time, or
    /// again because the lease ran out: the reply carries the server's
    /// epoch and a fresh lease either way, and registering a second time
    /// costs the server nothing it keeps. On failure nothing may be served
    /// from the memo.
    fn register(&self, coh: &Coherence) -> Result<()> {
        let mut call = CommBuffer::pooled();
        call.put_u32(OP_CACHE_REGISTER);
        let mut reply = coh.inbox.request(self.server_door, call, coh.nonce)?;
        if reply.get_u8()? != STATUS_OK {
            return Err(SpringError::Remote("cache.register refused".into()));
        }
        self.note_epoch(reply.get_u64()?, reply.get_u64()?);
        Ok(())
    }
}

impl DoorHandler for CacheServant {
    fn invoke(&self, _cctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
        // Read the operation number in place — no payload copy.
        let op = peek_op(&msg.bytes)
            .ok_or_else(|| DoorError::Handler("bad request: truncated op word".into()))?;

        if self.cacheable.contains(&op) && msg.doors.is_empty() {
            // Coherence gate: the memo may only be consulted under a live
            // lease, and only entries tagged with the current epoch count.
            let mut lease_ok = true;
            if let Some(coh) = &self.coherence {
                if now_micros() >= coh.lease_until.load(Ordering::Acquire) {
                    lease_ok = self.register(coh).is_ok();
                }
            }
            if lease_ok {
                let epoch = self.known_epoch();
                let replay = self.memo.lock().lookup(&msg.bytes, epoch);
                if let Some(bytes) = replay {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    let span = spring_trace::span_start(
                        "caching.hit",
                        self.ctx.domain().trace_scope(),
                        Caching::ID.raw(),
                    );
                    let mut reply = Message::from_bytes(bytes);
                    // Replaying raw bytes dropped the reply envelope; keep
                    // the caller's trace connected by re-stamping it (the
                    // kernel only stamps replies left unstamped).
                    reply.trace = if msg.trace.is_some() {
                        msg.trace
                    } else {
                        span.ctx()
                    };
                    return Ok(reply);
                }
            }
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            // Tag with the epoch known *before* the read so a racing
            // invalidation marks the entry stale rather than the reverse.
            let epoch_before = self.known_epoch();
            let key = msg.bytes.clone();
            let reply = self.ctx.domain().call(self.server_door, msg)?;
            // Only cache successful, capability-free replies.
            if reply.doors.is_empty() && reply.bytes.first() == Some(&STATUS_OK) {
                let evicted = self
                    .memo
                    .lock()
                    .insert(key, reply.bytes.clone(), epoch_before);
                if evicted {
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(reply)
        } else {
            // Mutating (or capability-carrying) operation: forward and
            // invalidate (write-through).
            self.stats.forwards.fetch_add(1, Ordering::Relaxed);
            let reply = self.ctx.domain().call(self.server_door, msg)?;
            let cleared = self.memo.lock().clear();
            if cleared > 0 {
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            Ok(reply)
        }
    }

    fn unreferenced(&self) {
        // Last client detached: drop the memo, unhook from the broadcast
        // set (best effort — a lost detach is reaped via the stale list in
        // the reply to the server's next broadcast), and release our door.
        if let Some(coh) = &self.coherence {
            coh.inbox.remove(coh.nonce);
            let mut call = CommBuffer::pooled();
            call.put_u32(OP_CACHE_DETACH);
            let _ = coh.inbox.request(self.server_door, call, coh.nonce);
        }
        self.memo.lock().clear();
        let _ = self.ctx.domain().delete_door(self.server_door);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_lru_eviction() {
        let mut memo = Memo::new(2);
        assert!(!memo.insert(vec![1], vec![10], 0));
        assert!(!memo.insert(vec![2], vec![20], 0));
        // Touch key 1 so key 2 is the LRU victim.
        assert_eq!(memo.lookup(&[1], 0), Some(vec![10]));
        assert!(memo.insert(vec![3], vec![30], 0));
        assert_eq!(memo.lookup(&[2], 0), None);
        assert_eq!(memo.lookup(&[1], 0), Some(vec![10]));
        assert_eq!(memo.lookup(&[3], 0), Some(vec![30]));
        // Re-inserting an existing key never evicts.
        assert!(!memo.insert(vec![1], vec![11], 0));
    }

    #[test]
    fn memo_epoch_tagging() {
        let mut memo = Memo::new(8);
        memo.insert(vec![1], vec![10], 1);
        memo.insert(vec![2], vec![20], 2);
        // An entry read under an older epoch is never served.
        assert_eq!(memo.lookup(&[1], 2), None);
        assert_eq!(memo.lookup(&[2], 2), Some(vec![20]));
        assert_eq!(memo.drop_stale(2), 1);
        assert_eq!(memo.lookup(&[2], 2), Some(vec![20]));
    }

    #[test]
    fn peek_op_reads_in_place() {
        assert_eq!(peek_op(&7u32.to_le_bytes()), Some(7));
        assert_eq!(peek_op(&[1, 2, 3]), None);
        assert_eq!(peek_op(&[]), None);
        let mut long = OP_ATTACH.to_le_bytes().to_vec();
        long.extend_from_slice(&[9; 64]);
        assert_eq!(peek_op(&long), Some(OP_ATTACH));
    }

    #[test]
    fn protocol_ops_are_distinct() {
        let ops = [OP_ATTACH, OP_CACHE_REGISTER, OP_CACHE_DETACH];
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
