//! The simulated nucleus itself.
//!
//! # Locking
//!
//! A door is an object, not a row: every identifier is a door-table entry
//! holding an `Arc<Door>`, and a door's identifier count and revoked flag
//! are atomics on the door. The door tables are the kernel's only record of
//! a door, so a door operation locks only the tables of the domains it
//! names, and concurrent door calls from different domains do not
//! serialize (see DESIGN.md, "Concurrency model"):
//!
//! * Per-domain door tables — each [`DomainState`] carries a `Mutex` over
//!   its slot → door table. A [`Domain`] handle holds its `DomainState`, and
//!   a door holds its server's, so no operation on a door looks a domain up.
//! * `domains` — an `RwLock` map from [`DomainId`] to its `DomainState`,
//!   written by `create_domain` and read only by `live_doors`, `audit` and
//!   the kernel's `Drop`, which empties every table so that doors and the
//!   domains they hold are freed. Entries are never removed (a crashed
//!   domain stays with `alive == false`).
//!
//! Lock-ordering rules (deadlock freedom):
//!
//! 1. The `domains` lock is fetch-and-release: it is neither held while
//!    acquiring any other lock nor acquired while holding one, and no door
//!    is dropped under it (a handler's `Drop` may re-enter).
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
use std::sync::Arc;

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

/// What one door call moved besides itself, both ways: deliveries within
/// one domain and payload bytes copied. Counted with the call when it
/// returns.
#[derive(Default)]
struct Moved {
    local: u64,
    copied: u64,
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

    /// Number of doors currently in existence: the distinct doors the
    /// domains' tables hold.
    pub fn live_doors(&self) -> usize {
        self.doors().len()
    }

    /// Checks the books of a quiescent kernel (no operation in flight), for
    /// tests: every door's identifier count equals the door-table entries
    /// holding it, and the counts sum to the identifiers outstanding.
    pub fn audit(&self) -> Result<(), String> {
        let mut total = 0;
        for (token, door) in self.doors() {
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

    /// Every door some domain's table holds, by token, collected under
    /// each table lock in turn.
    fn doors(&self) -> IdMap<u64, Arc<Door>> {
        let domains: Vec<Arc<DomainState>> = self.inner.domains.read().values().cloned().collect();
        let mut doors = IdMap::default();
        for ds in &domains {
            for door in self.inner.lock_table(ds).values() {
                doors.entry(door.token).or_insert_with(|| Arc::clone(door));
            }
        }
        doors
    }

    /// Creates a new domain (a simulated address space).
    pub fn create_domain(&self, name: impl Into<String>) -> Domain {
        let id = DomainId(self.inner.next_domain.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(DomainState {
            id,
            name: name.into(),
            alive: AtomicBool::new(true),
            table: Mutex::default(),
        });
        self.inner.domains.write().insert(id, Arc::clone(&state));
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

    /// Number of shared-memory regions currently registered.
    pub fn live_shm(&self) -> usize {
        self.inner.shm.lock().len()
    }

    fn fresh_slot(&self) -> u64 {
        self.inner.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up the door a live identifier of `domain` refers to, validating
    /// capability ownership: one table lock, one lookup, one `Arc` clone.
    fn resolve(&self, domain: &DomainState, id: DoorId) -> Result<Arc<Door>, DoorError> {
        self.read_door(domain, id, Arc::clone)
    }

    /// What `read` makes of the door a live identifier of `domain` refers
    /// to, under the table lock and with [`Kernel::resolve`]'s checks: a
    /// field is read in place, the door's reference count untouched.
    fn read_door<T>(
        &self,
        domain: &DomainState,
        id: DoorId,
        read: impl FnOnce(&Arc<Door>) -> T,
    ) -> Result<T, DoorError> {
        if id.owner != domain.id {
            return Err(DoorError::InvalidDoor);
        }
        let table = self.inner.lock_table(domain);
        if !domain.alive.load(Ordering::Relaxed) {
            return Err(DoorError::DomainDead);
        }
        table.get(&id.slot).map(read).ok_or(DoorError::InvalidDoor)
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
        {
            // A refused door is dropped after the guard, outside the lock.
            let mut table = self.inner.lock_table(domain);
            if !domain.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            table.insert(slot, door);
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
        let mut moved = [id];
        self.move_doors(from, self.same_kernel(to)?, &mut moved)?;
        Ok(moved[0])
    }

    /// The state of `to`, which must be a domain of this kernel: a handle on
    /// another kernel's domain names no domain of this one.
    fn same_kernel<'a>(&self, to: &'a Domain) -> Result<&'a DomainState, DoorError> {
        if Arc::ptr_eq(&self.inner, &to.kernel().inner) {
            Ok(to.state())
        } else {
            Err(DoorError::DomainDead)
        }
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
    /// takes the count to zero notifies its handler; callers hold no kernel
    /// lock.
    fn drop_ref(&self, door: Arc<Door>) {
        // AcqRel: the zero-crossing thread sees everything earlier holders
        // did before their own (Release) decrement.
        if door.refs.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
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
        self.read_door(domain, id, |door| door.token)
    }

    pub(crate) fn door_is_valid(&self, domain: &DomainState, id: DoorId) -> bool {
        self.read_door(domain, id, |_| ()).is_ok()
    }

    /// Marks a domain dead and deletes every identifier it owns. A call on
    /// a door it serves fails `Revoked` from then on: [`Kernel::call`]
    /// checks the server's `alive` flag.
    pub(crate) fn crash_domain(&self, domain: &DomainState) {
        let owned = {
            let mut table = self.inner.lock_table(domain);
            // The alive flag flips under the table lock, so concurrent
            // create/copy/transfer into this domain either completed (their
            // slots are drained here) or will observe alive == false.
            if !domain.alive.swap(false, Ordering::Relaxed) {
                return;
            }
            std::mem::take(&mut *table)
        };
        self.inner.stats.add(Count::ids_deleted, owned.len() as u64);
        for door in owned.into_values() {
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

        // The traced variant lives in a cold out-of-line function so the
        // default path pays exactly one relaxed load for tracing — no span
        // guard on the stack, no extra branches in the hot body.
        let mut moved = Moved::default();
        let result = if spring_trace::enabled() {
            self.call_traced(caller, &door, msg, one_way, company, &mut moved)
        } else {
            self.call_body(caller, &door, msg, one_way, company, &mut moved)
        };
        // The call and what it moved, delivered or not, in one tally lookup.
        self.inner.stats.add_each([
            (Count::door_calls, 1),
            (Count::local_deliveries, moved.local),
            (Count::bytes_copied, moved.copied),
        ]);
        result
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
        moved: &mut Moved,
    ) -> Result<Message, DoorError> {
        let delivered = self.translate(caller, &door.server, msg, moved)?;
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
        self.translate(&door.server, caller, reply, moved)
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
        moved: &mut Moved,
    ) -> Result<Message, DoorError> {
        let parent = if msg.trace.is_some() {
            msg.trace
        } else {
            spring_trace::current()
        };
        let scope = (self.inner.node.0 << 32) | door.server.id.0;
        let mut span = spring_trace::span_child_of("door_call", parent, scope, door.token);
        msg.trace = span.ctx();

        let mut result = self.call_body(caller, door, msg, one_way, company, moved);
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
    /// and transfers its door identifiers from `from` to `to`, adding what it
    /// moved to `moved`. Same-domain (D2) deliveries skip the copy: both
    /// sides share one address space, so the payload moves by reference.
    fn translate(
        &self,
        from: &DomainState,
        to: &DomainState,
        msg: Message,
        moved: &mut Moved,
    ) -> Result<Message, DoorError> {
        let Message {
            bytes: src,
            mut doors,
            trace,
            call,
        } = msg;
        let bytes = if from.id == to.id {
            // D2: caller and server live in the same domain, so "crossing"
            // the boundary moves no bytes — the ownership transfer of the
            // backing is the delivery. Door identifiers still go through
            // slot translation below so capability accounting stays exact.
            moved.local += 1;
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
            moved.copied += src.len() as u64;
            let mut bytes = pool::take(src.len());
            bytes.extend_from_slice(&src);
            pool::give(src);
            bytes
        };

        if doors.is_empty() {
            // Fast path: no identifiers to move, no table locks needed.
            if !to.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
        } else {
            self.move_doors(from, to, &mut doors)?;
        }
        Ok(Message {
            bytes,
            doors,
            trace,
            call,
        })
    }

    /// Moves every identifier in `doors` from `from`'s table to `to`'s,
    /// rewriting each in place to the identifier it landed as, so a door
    /// list keeps one allocation however many domains it crosses. All or
    /// nothing: every identifier is validated before any moves (one named
    /// twice is invalid: one reference cannot land as two), so a failure
    /// leaves both tables and `doors` untouched.
    fn move_doors(
        &self,
        from: &DomainState,
        to: &DomainState,
        doors: &mut [DoorId],
    ) -> Result<(), DoorError> {
        {
            let mut tables = Tables::lock(&self.inner, from, to);
            if !from.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            for (i, d) in doors.iter().enumerate() {
                let fresh = d.owner == from.id && !doors[..i].contains(d);
                if !fresh || !tables.src_tab().contains_key(&d.slot) {
                    return Err(DoorError::InvalidDoor);
                }
            }
            if !to.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            for d in doors.iter_mut() {
                let door = tables.src_tab().remove(&d.slot).expect("validated above");
                let slot = self.fresh_slot();
                tables.dst_tab().insert(slot, door);
                *d = DoorId { owner: to.id, slot };
            }
        }
        self.inner
            .stats
            .add(Count::ids_transferred, doors.len() as u64);
        Ok(())
    }

    /// [`Domain::transfer_doors`]: [`Kernel::move_doors`], and on failure
    /// the sender's identifiers in `doors` deleted.
    pub(crate) fn transfer_doors(
        &self,
        from: &DomainState,
        mut doors: Vec<DoorId>,
        to: &Domain,
    ) -> Result<Vec<DoorId>, DoorError> {
        if doors.is_empty() {
            return Ok(doors);
        }
        let moved = self
            .same_kernel(to)
            .and_then(|to| self.move_doors(from, to, &mut doors));
        if let Err(e) = moved {
            for d in doors {
                // Identifiers that are not the sender's stay where they are.
                let _ = self.delete_door(from, d);
            }
            return Err(e);
        }
        Ok(doors)
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({:?}, {:?})", self.inner.node, self.inner.name)
    }
}
