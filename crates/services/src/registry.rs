//! The bootstrap registry: a door-level name-to-object table for the first
//! exchange between freshly connected OS processes.
//!
//! A process that dials another holds exactly one identifier to begin with:
//! the proxy for the peer's advertised bootstrap door (carried in the
//! socket HELLO). Everything else must be fetched *through* that door, so
//! its protocol cannot assume any subcontract machinery on the far side —
//! the registry speaks plain [`spring_kernel::Message`]s, storing each
//! registered object in marshalled form (bytes plus the doors its slots
//! reference) and handing out copies on lookup. Once a client has pulled a
//! typed object out of the registry (a naming context, a file system, an
//! append log), ordinary subcontract-level calls take over.
//!
//! The same servant works over the simulated backend, so single-process
//! tests exercise the identical handshake path.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Message};
use subcontract::{unmarshal_object, DomainCtx, Result, SpringError, SpringObj, TypeInfo};

/// Registers (or replaces) an object under a name.
const OP_REGISTER: u32 = 1;
/// Fetches a copy of the object registered under a name.
const OP_LOOKUP: u32 = 2;
/// Lists the registered names, sorted.
const OP_LIST: u32 = 3;

/// One stored object: its marshalled bytes plus the door identifiers the
/// byte stream's slots reference, owned by the servant's domain.
struct Entry {
    bytes: Vec<u8>,
    doors: Vec<DoorId>,
}

/// The serving side of the bootstrap registry.
///
/// Create it with [`RegistryServant::publish`], which also exports its door
/// and is typically followed by `Network::set_bootstrap` so the door is
/// advertised in the socket handshake.
pub struct RegistryServant {
    domain: Domain,
    entries: Mutex<HashMap<String, Entry>>,
}

impl RegistryServant {
    /// Creates the servant in `domain` and returns it with a door
    /// identifier for it (owned by `domain`).
    pub fn publish(domain: &Domain) -> std::result::Result<(Arc<Self>, DoorId), DoorError> {
        let servant = Arc::new(RegistryServant {
            domain: domain.clone(),
            entries: Mutex::new(HashMap::new()),
        });
        let door = domain.create_door(servant.clone())?;
        Ok((servant, door))
    }

    /// Registers `obj` (marshalled in copy mode; the caller keeps it) under
    /// `name` directly, without going through the door — for the process
    /// that owns the registry.
    pub fn register_local(&self, name: &str, obj: &SpringObj) -> Result<()> {
        let mut buf = CommBuffer::new();
        obj.marshal_copy(&mut buf)?;
        let msg = buf.into_message();
        // The marshalled identifiers are owned by the object's domain; the
        // entry must own them in *ours* so later lookups can copy them out.
        let from = obj.ctx().domain().clone();
        let mut moved = Vec::with_capacity(msg.doors.len());
        for d in msg.doors {
            match from.transfer_door(d, &self.domain) {
                Ok(m) => moved.push(m),
                Err(e) => {
                    for m in moved {
                        let _ = self.domain.delete_door(m);
                    }
                    return Err(e.into());
                }
            }
        }
        self.store(name.to_owned(), msg.bytes, moved);
        Ok(())
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.lock().keys().cloned().collect();
        names.sort();
        names
    }

    fn store(&self, name: String, bytes: Vec<u8>, doors: Vec<DoorId>) {
        let old = self.entries.lock().insert(name, Entry { bytes, doors });
        if let Some(old) = old {
            // The replaced object's doors would otherwise stay pinned in
            // the servant's domain forever.
            for d in old.doors {
                let _ = self.domain.delete_door(d);
            }
        }
    }

    fn reply_err(why: String) -> Message {
        let mut reply = CommBuffer::new();
        reply.put_bool(false);
        reply.put_string(&why);
        reply.into_message()
    }

    fn handle(&self, msg: Message) -> std::result::Result<Message, DoorError> {
        // The doors ride at the message level; the byte stream references
        // them by slot index. Detach them before parsing so a register
        // stores exactly the capability vector the object marshalled.
        let mut msg = msg;
        let mut doors = std::mem::take(&mut msg.doors);
        let mut args = CommBuffer::from_message(msg);
        let bad = |e: spring_buf::BufError| DoorError::Handler(format!("bad registry call: {e}"));
        let op = args.get_u32().map_err(bad)?;
        if op != OP_REGISTER {
            // Only a register consumes carried identifiers; stray doors on
            // any other op would otherwise sit in our domain forever.
            for d in doors.drain(..) {
                let _ = self.domain.delete_door(d);
            }
        }
        match op {
            OP_REGISTER => {
                let name = args.get_string().map_err(bad)?;
                let bytes = args.get_bytes().map_err(bad)?;
                self.store(name, bytes, doors);
                let mut reply = CommBuffer::new();
                reply.put_bool(true);
                Ok(reply.into_message())
            }
            OP_LOOKUP => {
                let name = args.get_string().map_err(bad)?;
                let entries = self.entries.lock();
                let Some(entry) = entries.get(&name) else {
                    return Ok(Self::reply_err(format!("no such name {name:?}")));
                };
                // Hand out a copy: the stored identifiers stay behind for
                // the next lookup.
                let mut copies = Vec::with_capacity(entry.doors.len());
                for &d in &entry.doors {
                    match self.domain.copy_door(d) {
                        Ok(c) => copies.push(c),
                        Err(e) => {
                            for c in copies {
                                let _ = self.domain.delete_door(c);
                            }
                            return Err(e);
                        }
                    }
                }
                let mut reply = CommBuffer::new();
                reply.put_bool(true);
                reply.put_bytes(&entry.bytes);
                let mut out = reply.into_message();
                out.doors = copies;
                Ok(out)
            }
            OP_LIST => {
                let names = self.names();
                let mut reply = CommBuffer::new();
                reply.put_bool(true);
                reply.put_seq_len(names.len());
                for n in &names {
                    reply.put_string(n);
                }
                Ok(reply.into_message())
            }
            other => Ok(Self::reply_err(format!("unknown registry op {other}"))),
        }
    }
}

impl DoorHandler for RegistryServant {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
        // `Network::set_bootstrap` transfers the registry door into the
        // network server's domain, so over a socket the delivered
        // identifiers land *there*, not in the servant's own domain. Move
        // them in (and reply identifiers back out) so stored entries are
        // owned by one stable domain regardless of which domain serves the
        // door.
        let mut msg = msg;
        let server = ctx.server();
        let foreign_serve = server.id() != self.domain.id();
        if foreign_serve {
            let mut moved = Vec::with_capacity(msg.doors.len());
            for d in std::mem::take(&mut msg.doors) {
                match server.transfer_door(d, &self.domain) {
                    Ok(m) => moved.push(m),
                    Err(e) => {
                        for m in moved {
                            let _ = self.domain.delete_door(m);
                        }
                        return Err(e);
                    }
                }
            }
            msg.doors = moved;
        }
        // A failed register must not strand the identifiers that landed in
        // our domain: `handle` either stores them or they are deleted here.
        let door_snapshot = msg.doors.clone();
        match self.handle(msg) {
            Ok(mut reply) => {
                if foreign_serve {
                    let mut out = Vec::with_capacity(reply.doors.len());
                    for d in std::mem::take(&mut reply.doors) {
                        match self.domain.transfer_door(d, &server) {
                            Ok(m) => out.push(m),
                            Err(e) => {
                                for m in out {
                                    let _ = server.delete_door(m);
                                }
                                return Err(e);
                            }
                        }
                    }
                    reply.doors = out;
                }
                Ok(reply)
            }
            Err(e) => {
                for d in door_snapshot {
                    let _ = self.domain.delete_door(d);
                }
                Err(e)
            }
        }
    }
}

/// The client side: speaks the registry protocol through any door — a
/// local one, a simulated proxy, or a socket proxy obtained from
/// `SocketPeer::bootstrap_door`.
pub struct RegistryClient {
    ctx: Arc<DomainCtx>,
    door: DoorId,
}

impl RegistryClient {
    /// Wraps a registry door owned by `ctx`'s domain.
    pub fn new(ctx: Arc<DomainCtx>, door: DoorId) -> RegistryClient {
        RegistryClient { ctx, door }
    }

    fn call(&self, args: CommBuffer) -> Result<(CommBuffer, Vec<DoorId>)> {
        let mut reply = self.ctx.domain().call(self.door, args.into_message())?;
        let doors = std::mem::take(&mut reply.doors);
        let mut buf = CommBuffer::from_message(reply);
        if buf.get_bool()? {
            return Ok((buf, doors));
        }
        let why = buf.get_string()?;
        // A failed call carries no object, but guard against stray doors
        // anyway — dropping identifiers undeleted leaks them.
        for d in doors {
            let _ = self.ctx.domain().delete_door(d);
        }
        Err(SpringError::ResolveFailed(why))
    }

    /// Registers a copy of `obj` under `name` (the caller keeps the
    /// original), replacing any existing binding.
    pub fn register(&self, name: &str, obj: &SpringObj) -> Result<()> {
        let mut marshalled = CommBuffer::new();
        obj.marshal_copy(&mut marshalled)?;
        let omsg = marshalled.into_message();
        let mut args = CommBuffer::new();
        args.put_u32(OP_REGISTER);
        args.put_string(name);
        args.put_bytes(&omsg.bytes);
        let mut msg = args.into_message();
        msg.doors = omsg.doors;
        let mut reply = self.ctx.domain().call(self.door, msg)?;
        let doors = std::mem::take(&mut reply.doors);
        for d in doors {
            let _ = self.ctx.domain().delete_door(d);
        }
        let mut buf = CommBuffer::from_message(reply);
        if buf.get_bool()? {
            Ok(())
        } else {
            Err(SpringError::ResolveFailed(buf.get_string()?))
        }
    }

    /// Fetches a copy of the object registered under `name`, unmarshalled
    /// at the expected type. Over a socket proxy, the object's doors arrive
    /// as proxy doors into the owning process.
    pub fn lookup(&self, name: &str, expected: &'static TypeInfo) -> Result<SpringObj> {
        let mut args = CommBuffer::new();
        args.put_u32(OP_LOOKUP);
        args.put_string(name);
        let (mut buf, doors) = self.call(args)?;
        let bytes = buf.get_bytes()?;
        let mut obj_buf = CommBuffer::from_message(Message {
            bytes,
            doors,
            ..Message::default()
        });
        unmarshal_object(&self.ctx, expected, &mut obj_buf)
    }

    /// Lists the registered names, sorted.
    pub fn list(&self) -> Result<Vec<String>> {
        let mut args = CommBuffer::new();
        args.put_u32(OP_LIST);
        let (mut buf, _doors) = self.call(args)?;
        let n = buf.get_seq_len(4)?;
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(buf.get_string()?);
        }
        Ok(names)
    }
}
