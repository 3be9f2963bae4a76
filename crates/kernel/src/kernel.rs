//! The simulated nucleus itself.
//!
//! # Locking
//!
//! A door is an object, not a row: every identifier is a door-table entry
//! holding an `Arc<Door>`, and a door's identifier count and revoked flag
//! are atomics on the door. Kernel state is split so concurrent door calls
//! from different domains do not serialize (see DESIGN.md, "Concurrency
//! model"):
//!
//! * Per-domain door tables — each [`DomainState`] carries a `Mutex` over
//!   its slot → door table. A [`Domain`] handle holds its `DomainState`, and
//!   a door holds its server's, so no operation on a door looks a domain up.
//! * `registry` — token → `Weak<Door>` for every door in existence, written
//!   by `create_door` and by whoever drops a door's last identifier, read by
//!   `live_doors` and `crash_domain`'s revoke sweep. Calls never touch it.
//! * `domains` — an `RwLock` map from [`DomainId`] to its `DomainState`,
//!   written by `create_domain` and read by `domain_handle` alone. Entries
//!   are never removed (a crashed domain stays with `alive == false`).
//!
//! Lock-ordering rules (deadlock freedom):
//!
//! 1. The `domains` and `registry` locks are fetch-and-release: neither is
//!    held while acquiring any other lock, nor acquired while holding one,
//!    and no door is dropped under them (a handler's `Drop` may re-enter).
//! 2. When two domain tables are needed (transfer, translate), they are
//!    acquired in ascending [`DomainId`] order.
//! 3. No kernel lock is held across handler `invoke` or `unreferenced`
//!    callbacks.
//!
//! A null call (no identifiers in the message) therefore takes exactly one
//! lock — the caller's door table — for one lookup and one `Arc` clone, and
//! writes no other shared line: its counts go to the calling thread's own
//! cells ([`crate::tally`]) and its [`CallCtx`] borrows what it names.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::domain::{CallCtx, Domain, DoorHandler};
use crate::error::DoorError;
use crate::id::{DomainId, DoorId, IdMap, NodeId, ShmId};
use crate::message::Message;
use crate::pool;
use crate::shm::ShmRegion;
use crate::stats::{Count, KernelStats, StatsSnapshot};

static NEXT_NODE: AtomicU64 = AtomicU64::new(1);

/// One machine's nucleus: manages domains, doors, and door identifiers.
///
/// All operations on door identifiers go through the kernel, which validates
/// capability ownership on every call. Handles are cheaply cloneable.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<Inner>,
}

struct Inner {
    node: NodeId,
    name: String,
    domains: RwLock<IdMap<DomainId, Arc<DomainState>>>,
    registry: Mutex<IdMap<u64, Weak<Door>>>,
    shm: Mutex<HashMap<ShmId, ShmRegion>>,
    next_domain: AtomicU64,
    next_door: AtomicU64,
    next_slot: AtomicU64,
    next_shm: AtomicU64,
    stats: KernelStats,
}

type Table = IdMap<u64, Arc<Door>>;

pub(crate) struct DomainState {
    pub(crate) id: DomainId,
    pub(crate) name: String,
    /// Cleared by `crash_domain` under the table lock; readers that need the
    /// flag ordered with table contents check it while holding the lock.
    pub(crate) alive: AtomicBool,
    /// Door table: slot number -> door. Each entry is one identifier.
    table: Mutex<Table>,
}

struct Door {
    token: u64,
    server: Arc<DomainState>,
    handler: Arc<dyn DoorHandler>,
    /// Outstanding identifiers = table entries pointing here, across all
    /// domains. Raised only through an existing entry under its table lock
    /// (so never from zero); whoever removes an entry owns the decrement.
    refs: AtomicU64,
    /// Publishes nothing but itself, so every access is `Relaxed`.
    revoked: AtomicBool,
}

impl Inner {
    /// Locks a domain's door table, counting the acquisition as contended
    /// when another thread holds it.
    fn lock_table<'a>(&self, ds: &'a DomainState) -> MutexGuard<'a, Table> {
        match ds.table.try_lock() {
            Some(g) => g,
            None => {
                self.stats.add(Count::table_lock_waits, 1);
                ds.table.lock()
            }
        }
    }

    /// Locks the door registry, counting contention.
    fn lock_registry(&self) -> MutexGuard<'_, IdMap<u64, Weak<Door>>> {
        match self.registry.try_lock() {
            Some(g) => g,
            None => {
                self.stats.add(Count::shard_lock_waits, 1);
                self.registry.lock()
            }
        }
    }
}

impl Drop for Inner {
    /// A door holds its server's `DomainState`, whose table holds the door:
    /// emptying the tables breaks the cycle so handlers are freed.
    fn drop(&mut self) {
        for ds in self.domains.get_mut().values() {
            let doors = std::mem::take(&mut *ds.table.lock());
            drop(doors);
        }
    }
}

/// Two domain door tables locked in ascending `DomainId` order, degenerating
/// to a single guard when source and destination are the same domain.
enum Tables<'a> {
    Same(MutexGuard<'a, Table>),
    Two {
        from: MutexGuard<'a, Table>,
        to: MutexGuard<'a, Table>,
    },
}

impl<'a> Tables<'a> {
    fn lock(inner: &Inner, from: &'a DomainState, to: &'a DomainState) -> Tables<'a> {
        if from.id == to.id {
            Tables::Same(inner.lock_table(from))
        } else if from.id < to.id {
            let f = inner.lock_table(from);
            let t = inner.lock_table(to);
            Tables::Two { from: f, to: t }
        } else {
            let t = inner.lock_table(to);
            let f = inner.lock_table(from);
            Tables::Two { from: f, to: t }
        }
    }

    fn src_tab(&mut self) -> &mut Table {
        match self {
            Tables::Same(g) => g,
            Tables::Two { from, .. } => from,
        }
    }

    fn dst_tab(&mut self) -> &mut Table {
        match self {
            Tables::Same(g) => g,
            Tables::Two { to, .. } => to,
        }
    }
}

impl Kernel {
    /// Creates a fresh kernel (one simulated machine).
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_raw_node(name, NEXT_NODE.fetch_add(1, Ordering::Relaxed))
    }

    /// Creates a kernel with an explicit node identifier.
    ///
    /// Node identifiers are process-local counters, so two kernels in two
    /// *different OS processes* would both claim node 1 — and a socket
    /// transport connecting them could no longer tell "coming home" doors
    /// from foreign ones. Processes that talk to each other over real
    /// sockets assign their kernels distinct ids up front (the bench
    /// harness passes them on the command line). The process-local counter
    /// is bumped past the given id, so later `Kernel::new` calls in the
    /// same process never collide with it.
    pub fn with_node_id(name: impl Into<String>, node: NodeId) -> Self {
        NEXT_NODE.fetch_max(node.raw() + 1, Ordering::Relaxed);
        Self::with_raw_node(name, node.raw())
    }

    fn with_raw_node(name: impl Into<String>, raw: u64) -> Self {
        Kernel {
            inner: Arc::new(Inner {
                node: NodeId(raw),
                name: name.into(),
                domains: RwLock::default(),
                registry: Mutex::default(),
                shm: Mutex::default(),
                next_domain: AtomicU64::new(1),
                next_door: AtomicU64::new(1),
                next_slot: AtomicU64::new(1),
                next_shm: AtomicU64::new(1),
                stats: KernelStats::default(),
            }),
        }
    }

    /// This kernel's node identifier (unique within the process).
    pub fn node_id(&self) -> NodeId {
        self.inner.node
    }

    /// The machine name given at creation.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Counter snapshot for benchmarking and tests.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Number of doors currently in existence.
    pub fn live_doors(&self) -> usize {
        self.inner.lock_registry().len()
    }

    /// Checks the books of a quiescent kernel (no operation in flight), for
    /// tests: every registered door is alive, its identifier count equals
    /// the door-table entries holding it, and the counts sum to the
    /// identifiers outstanding.
    pub fn audit(&self) -> Result<(), String> {
        let doors: Vec<(u64, Option<Arc<Door>>)> = {
            let registry = self.inner.lock_registry();
            registry.iter().map(|(t, w)| (*t, w.upgrade())).collect()
        };
        let mut total = 0;
        for (token, door) in doors {
            let door = door.ok_or(format!("registry entry {token} outlived its door"))?;
            // Each table entry owns one `Arc`; this loop holds one more.
            let entries = Arc::strong_count(&door) as u64 - 1;
            let refs = door.refs.load(Ordering::Relaxed);
            if refs != entries {
                return Err(format!("door {token}: refs {refs}, {entries} entries"));
            }
            total += refs;
        }
        let stats = self.stats();
        let live = stats.ids_issued.wrapping_sub(stats.ids_deleted);
        if live != total {
            return Err(format!("{live} identifiers live, doors count {total}"));
        }
        Ok(())
    }

    fn new_domain_state(id: DomainId, name: String, alive: bool) -> Arc<DomainState> {
        Arc::new(DomainState {
            id,
            name,
            alive: AtomicBool::new(alive),
            table: Mutex::default(),
        })
    }

    /// Creates a new domain (a simulated address space).
    pub fn create_domain(&self, name: impl Into<String>) -> Domain {
        let id = DomainId(self.inner.next_domain.fetch_add(1, Ordering::Relaxed));
        let state = Self::new_domain_state(id, name.into(), true);
        self.inner.domains.write().insert(id, Arc::clone(&state));
        Domain::new(self.clone(), state)
    }

    /// Rebuilds a [`Domain`] handle from an id (infrastructure use). An id
    /// this kernel never issued yields a handle on a dead, nameless domain.
    pub fn domain_handle(&self, id: DomainId) -> Domain {
        let known = self.inner.domains.read().get(&id).cloned();
        let state = known.unwrap_or_else(|| Self::new_domain_state(id, String::new(), false));
        Domain::new(self.clone(), state)
    }

    /// Creates a shared-memory region of `size` bytes.
    pub fn create_shm(&self, size: usize) -> ShmRegion {
        let id = ShmId(self.inner.next_shm.fetch_add(1, Ordering::Relaxed));
        let region = ShmRegion::new(id, size);
        self.inner.shm.lock().insert(id, region.clone());
        region
    }

    /// Looks up a shared-memory region by identifier.
    pub fn lookup_shm(&self, id: ShmId) -> Result<ShmRegion, DoorError> {
        self.inner
            .shm
            .lock()
            .get(&id)
            .cloned()
            .ok_or(DoorError::InvalidShm)
    }

    /// Removes a shared-memory region from the registry.
    pub fn destroy_shm(&self, id: ShmId) {
        self.inner.shm.lock().remove(&id);
    }

    fn fresh_slot(&self) -> u64 {
        self.inner.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up the door a live identifier of `domain` refers to, validating
    /// capability ownership: one table lock, one lookup, one `Arc` clone.
    fn resolve(&self, domain: &DomainState, id: DoorId) -> Result<Arc<Door>, DoorError> {
        if id.owner != domain.id {
            return Err(DoorError::InvalidDoor);
        }
        let table = self.inner.lock_table(domain);
        if !domain.alive.load(Ordering::Relaxed) {
            return Err(DoorError::DomainDead);
        }
        table.get(&id.slot).cloned().ok_or(DoorError::InvalidDoor)
    }

    pub(crate) fn create_door(
        &self,
        domain: &Arc<DomainState>,
        handler: Arc<dyn DoorHandler>,
    ) -> Result<DoorId, DoorError> {
        let token = self.inner.next_door.fetch_add(1, Ordering::Relaxed);
        let slot = self.fresh_slot();
        let door = Arc::new(Door {
            token,
            server: Arc::clone(domain),
            handler,
            refs: AtomicU64::new(1),
            revoked: AtomicBool::new(false),
        });
        // Registered before it is reachable: a concurrent crash_domain either
        // drains the slot (and its last drop_ref finds the entry to remove)
        // or fails this create, which takes the entry back out — never a
        // leaked door or a leaked entry.
        self.inner
            .lock_registry()
            .insert(token, Arc::downgrade(&door));
        {
            let mut table = self.inner.lock_table(domain);
            if domain.alive.load(Ordering::Relaxed) {
                table.insert(slot, door);
            } else {
                drop(table);
                self.inner.lock_registry().remove(&token);
                return Err(DoorError::DomainDead);
            }
        }
        self.inner.stats.add(Count::doors_created, 1);
        self.inner.stats.add(Count::ids_issued, 1);
        Ok(DoorId {
            owner: domain.id,
            slot,
        })
    }

    pub(crate) fn copy_door(&self, domain: &DomainState, id: DoorId) -> Result<DoorId, DoorError> {
        if id.owner != domain.id {
            return Err(DoorError::InvalidDoor);
        }
        let slot = self.fresh_slot();
        {
            // The table lock pins our reference: while the source entry
            // exists in this table, refs >= 1 and the count cannot hit zero.
            let mut table = self.inner.lock_table(domain);
            if !domain.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            let door = Arc::clone(table.get(&id.slot).ok_or(DoorError::InvalidDoor)?);
            door.refs.fetch_add(1, Ordering::Relaxed);
            table.insert(slot, door);
        }
        self.inner.stats.add(Count::ids_issued, 1);
        Ok(DoorId {
            owner: domain.id,
            slot,
        })
    }

    pub(crate) fn transfer_door(
        &self,
        from: &DomainState,
        id: DoorId,
        to: &Domain,
    ) -> Result<DoorId, DoorError> {
        if id.owner != from.id {
            return Err(DoorError::InvalidDoor);
        }
        // A handle on another kernel's domain names no domain of this one.
        if !Arc::ptr_eq(&self.inner, &to.kernel().inner) {
            return Err(DoorError::DomainDead);
        }
        let to = to.state();
        let slot = self.fresh_slot();
        {
            let mut tables = Tables::lock(&self.inner, from, to);
            if !from.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            if !tables.src_tab().contains_key(&id.slot) {
                return Err(DoorError::InvalidDoor);
            }
            if !to.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            let door = tables.src_tab().remove(&id.slot).expect("checked above");
            tables.dst_tab().insert(slot, door);
        }
        self.inner.stats.add(Count::ids_transferred, 1);
        Ok(DoorId { owner: to.id, slot })
    }

    pub(crate) fn delete_door(&self, domain: &DomainState, id: DoorId) -> Result<(), DoorError> {
        if id.owner != domain.id {
            return Err(DoorError::InvalidDoor);
        }
        let door = {
            let mut table = self.inner.lock_table(domain);
            if !domain.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            table.remove(&id.slot).ok_or(DoorError::InvalidDoor)?
        };
        self.inner.stats.add(Count::ids_deleted, 1);
        self.drop_ref(door);
        Ok(())
    }

    /// Gives up the identifier a removed table entry stood for. Whoever
    /// takes the count to zero unregisters the door and notifies its
    /// handler; callers hold no kernel lock.
    fn drop_ref(&self, door: Arc<Door>) {
        // AcqRel: the zero-crossing thread sees everything earlier holders
        // did before their own (Release) decrement.
        if door.refs.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        self.inner.lock_registry().remove(&door.token);
        self.inner.stats.add(Count::unref_notifications, 1);
        // A handler panic during cleanup must not take down the caller.
        let _ = catch_unwind(AssertUnwindSafe(|| door.handler.unreferenced()));
    }

    pub(crate) fn revoke_door(&self, domain: &DomainState, id: DoorId) -> Result<(), DoorError> {
        let door = self.resolve(domain, id)?;
        if door.server.id != domain.id {
            return Err(DoorError::NotPermitted);
        }
        door.revoked.store(true, Ordering::Relaxed);
        self.inner.stats.add(Count::revocations, 1);
        Ok(())
    }

    /// Resolves an identifier to its kernel-internal door token. Two
    /// identifiers denote the same door iff their tokens are equal.
    ///
    /// This pierces capability opacity, so it is meant for *trusted
    /// infrastructure* only — Spring's network servers, which must recognize
    /// doors they have already exported or proxied when mapping door
    /// identifiers to and from their extended network form (§3.3).
    pub(crate) fn door_token(&self, domain: &DomainState, id: DoorId) -> Result<u64, DoorError> {
        self.resolve(domain, id).map(|door| door.token)
    }

    pub(crate) fn door_is_valid(&self, domain: &DomainState, id: DoorId) -> bool {
        self.resolve(domain, id).is_ok()
    }

    /// Marks a domain dead: doors it serves are revoked and every identifier
    /// it owns is deleted.
    pub(crate) fn crash_domain(&self, domain: &DomainState) {
        let owned: Vec<Arc<Door>> = {
            let mut table = self.inner.lock_table(domain);
            // The alive flag flips under the table lock, so concurrent
            // create/copy/transfer into this domain either completed (their
            // slots are drained here) or will observe alive == false.
            if !domain.alive.swap(false, Ordering::Relaxed) {
                return;
            }
            table.drain().map(|(_, door)| door).collect()
        };

        // Revoke every door this domain serves. The doors are collected
        // under the registry lock and looked at (and dropped) after it.
        let revoked = {
            let live: Vec<Arc<Door>> = {
                let registry = self.inner.lock_registry();
                registry.values().filter_map(Weak::upgrade).collect()
            };
            live.iter()
                .filter(|d| d.server.id == domain.id && !d.revoked.swap(true, Ordering::Relaxed))
                .count()
        };
        self.inner.stats.add(Count::revocations, revoked as u64);
        self.inner.stats.add(Count::ids_deleted, owned.len() as u64);
        for door in owned {
            self.drop_ref(door);
        }
    }

    /// Executes a door call from `caller` on identifier `id`.
    pub(crate) fn call(
        &self,
        caller: &DomainState,
        id: DoorId,
        msg: Message,
        one_way: bool,
        company: u32,
    ) -> Result<Message, DoorError> {
        // Phase 1: validate the identifier and pick up the door — one table
        // lock, released before the handler runs.
        let door = self.resolve(caller, id)?;
        if door.revoked.load(Ordering::Relaxed) || !door.server.alive.load(Ordering::Relaxed) {
            return Err(DoorError::Revoked);
        }

        self.inner.stats.add(Count::door_calls, 1);

        // The traced variant lives in a cold out-of-line function so the
        // default path pays exactly one relaxed load for tracing — no span
        // guard on the stack, no extra branches in the hot body.
        if spring_trace::enabled() {
            return self.call_traced(caller, &door, msg, one_way, company);
        }
        self.call_body(caller, &door, msg, one_way, company)
    }

    /// Phases 2 and 3 of a door call: deliver the message, run the handler
    /// outside all locks on the caller's thread, translate the reply back.
    #[inline(always)]
    fn call_body(
        &self,
        caller: &DomainState,
        door: &Door,
        msg: Message,
        one_way: bool,
        company: u32,
    ) -> Result<Message, DoorError> {
        let delivered = self.translate(caller, &door.server, msg)?;
        let ctx = CallCtx {
            caller: caller.id,
            one_way,
            company,
            kernel: self,
            server: &door.server,
        };
        let reply = match catch_unwind(AssertUnwindSafe(|| door.handler.invoke(&ctx, delivered))) {
            Ok(result) => result?,
            Err(_) => return Err(DoorError::Handler("door handler panicked".into())),
        };
        self.translate(&door.server, caller, reply)
    }

    /// A door call with tracing enabled: one "door_call" span per call,
    /// keyed by the door token so per-door latency histograms accumulate.
    /// The piggybacked context on the message wins over the thread-local
    /// current span — a context that crossed a serialization boundary (the
    /// simulated network) reattaches here; within one machine the two agree
    /// because door calls shuttle the caller's thread.
    #[cold]
    fn call_traced(
        &self,
        caller: &DomainState,
        door: &Door,
        mut msg: Message,
        one_way: bool,
        company: u32,
    ) -> Result<Message, DoorError> {
        let parent = if msg.trace.is_some() {
            msg.trace
        } else {
            spring_trace::current()
        };
        let scope = (self.inner.node.0 << 32) | door.server.id.0;
        let mut span = spring_trace::span_child_of("door_call", parent, scope, door.token);
        msg.trace = span.ctx();

        let mut result = self.call_body(caller, door, msg, one_way, company);
        match &mut result {
            Err(_) => span.fail(),
            // Stamp the reply so whoever forwards it (the network server's
            // reply hop) keeps the trace connected; a handler that already
            // set a context keeps its own.
            Ok(reply) => {
                if reply.trace.is_none() {
                    reply.trace = span.ctx();
                }
            }
        }
        result
    }

    /// Copies a message's payload (the simulated cross-address-space copy)
    /// and transfers its door identifiers from `from` to `to`. Same-domain
    /// (D2) deliveries skip the copy: both sides share one address space, so
    /// the payload moves by reference.
    fn translate(
        &self,
        from: &DomainState,
        to: &DomainState,
        msg: Message,
    ) -> Result<Message, DoorError> {
        let Message {
            bytes: src,
            doors: sent,
            trace,
            call,
        } = msg;
        let bytes = if from.id == to.id {
            // D2: caller and server live in the same domain, so "crossing"
            // the boundary moves no bytes — the ownership transfer of the
            // backing is the delivery. Door identifiers still go through
            // slot translation below so capability accounting stays exact.
            self.inner.stats.add(Count::local_deliveries, 1);
            src
        } else if src.is_empty() {
            // Copying nothing: an empty Vec never allocates, so the pool
            // would only add counter noise here.
            Vec::new()
        } else {
            // Physical copy: a real kernel copies payload bytes between
            // address spaces; this is the cost shared-memory subcontracts
            // avoid. The copy target comes from the buffer pool and the
            // consumed source backing goes back to it, so steady-state calls
            // do not allocate.
            self.inner.stats.add(Count::bytes_copied, src.len() as u64);
            let mut bytes = pool::take(src.len());
            bytes.extend_from_slice(&src);
            pool::give(src);
            bytes
        };

        if sent.is_empty() {
            // Fast path: no identifiers to move, no table locks needed.
            if !to.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            return Ok(Message {
                bytes,
                doors: Vec::new(),
                trace,
                call,
            });
        }

        let mut doors = Vec::with_capacity(sent.len());
        {
            let mut tables = Tables::lock(&self.inner, from, to);
            // Validate every identifier before moving any, so a bad message
            // leaves the sender's table untouched. An identifier named twice
            // is bad: one reference cannot land as two.
            if !from.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            for (i, d) in sent.iter().enumerate() {
                let fresh = d.owner == from.id && !sent[..i].contains(d);
                if !fresh || !tables.src_tab().contains_key(&d.slot) {
                    return Err(DoorError::InvalidDoor);
                }
            }
            if !to.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            for d in &sent {
                let door = tables.src_tab().remove(&d.slot).expect("validated above");
                let slot = self.fresh_slot();
                tables.dst_tab().insert(slot, door);
                doors.push(DoorId { owner: to.id, slot });
            }
        }
        self.inner
            .stats
            .add(Count::ids_transferred, doors.len() as u64);
        Ok(Message {
            bytes,
            doors,
            trace,
            call,
        })
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({:?}, {:?})", self.inner.node, self.inner.name)
    }
}
