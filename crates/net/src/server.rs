//! Per-node network server: export tables and proxy doors.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spring_kernel::{
    pool, CallCtx, CallId, Domain, DoorError, DoorHandler, DoorId, IdMap, Message, NodeId,
};
use spring_trace::TraceCtx;

use crate::network::{NetworkInner, Route};
use crate::transport::ReplyOutcome;

/// A door identifier in its extended network form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct WireCap {
    /// The node whose kernel serves the underlying door.
    pub origin: u64,
    /// Index into the origin node's export table.
    pub export: u64,
}

/// A message in wire form.
///
/// The payload storage *moves* through the wire boundary rather than being
/// copied: `to_wire_tracked` takes `Message.bytes` by value into this struct
/// and `from_wire` moves it back out, so a forwarded call's payload is
/// allocated once (from the thread-local buffer pool) and handed along.
/// The simulated cross-address-space copy happens in the kernel's
/// `translate`, where a real system pays it too.
#[derive(Debug, Default)]
pub(crate) struct WireMessage {
    pub bytes: Vec<u8>,
    pub caps: Vec<WireCap>,
    /// The piggybacked envelope, moved as typed values: only the socket
    /// codec lays it out in bytes (`transport::put_envelope`).
    pub trace: TraceCtx,
    pub call: CallId,
}

#[derive(Default)]
struct Tables {
    /// Export id -> the identifier the network server pins for remote users.
    exports: IdMap<u64, DoorId>,
    /// Door token -> export id (dedup: one export per door).
    exports_by_token: IdMap<u64, u64>,
    /// (origin, export) -> the retained identifier for the local proxy door.
    /// Keyed by what a peer sent, so it keeps the collision-resistant hasher.
    proxies: HashMap<WireCap, DoorId>,
    /// Door token of a proxy door -> its network target.
    proxies_by_token: IdMap<u64, WireCap>,
}

/// What [`NetServer::serve`] made of one inbound call.
pub(crate) struct Served {
    pub outcome: ReplyOutcome,
    /// Export ids freshly pinned for the staged reply; whoever finds the
    /// reply cannot travel releases them with [`NetServer::unexport`].
    pub fresh: Vec<u64>,
}

/// One node's network server.
pub(crate) struct NetServer {
    pub(crate) node: NodeId,
    pub(crate) domain: Domain,
    tables: Mutex<Tables>,
    next_export: AtomicU64,
    /// Export id of the published bootstrap door, advertised in the socket
    /// handshake so freshly connected processes have one well-known door
    /// to start exchanging identifiers through.
    bootstrap: Mutex<Option<u64>>,
    pub(crate) net: Arc<NetworkInner>,
}

impl NetServer {
    pub(crate) fn new(node: NodeId, domain: Domain, net: Arc<NetworkInner>) -> Arc<NetServer> {
        Arc::new(NetServer {
            node,
            domain,
            tables: Mutex::new(Tables::default()),
            next_export: AtomicU64::new(1),
            bootstrap: Mutex::new(None),
            net,
        })
    }

    /// Maps a door identifier (owned by this network server's domain) to
    /// network form, consuming the identifier. Also reports whether the
    /// call created a *fresh* export-table entry (as opposed to reusing an
    /// existing export or passing a proxy target through). Only fresh
    /// entries may be rolled back by [`NetServer::unexport`]: a reused
    /// entry is shared with every other node already holding a proxy.
    pub(crate) fn export_cap_tracked(&self, door: DoorId) -> Result<(WireCap, bool), DoorError> {
        let token = self.domain.door_token(door)?;
        let mut tables = self.tables.lock();

        // A proxy door heading back out: pass its target through unchanged.
        if let Some(&target) = tables.proxies_by_token.get(&token) {
            drop(tables);
            self.domain.delete_door(door)?;
            return Ok((target, false));
        }

        // Already exported: the duplicate identifier is redundant.
        if let Some(&export) = tables.exports_by_token.get(&token) {
            drop(tables);
            self.domain.delete_door(door)?;
            return Ok((
                WireCap {
                    origin: self.node.raw(),
                    export,
                },
                false,
            ));
        }

        let export = self.next_export.fetch_add(1, Ordering::Relaxed);
        tables.exports.insert(export, door);
        tables.exports_by_token.insert(token, export);
        self.net.count_export();
        Ok((
            WireCap {
                origin: self.node.raw(),
                export,
            },
            true,
        ))
    }

    /// Rolls back export-table entries created for a message that was never
    /// delivered: each entry is removed and its pinned identifier deleted,
    /// so a send lost on the wire does not pin doors forever. Must only be
    /// given export ids reported fresh by the matching
    /// [`NetServer::to_wire_tracked`] call.
    pub(crate) fn unexport(&self, fresh: &[u64]) {
        let mut tables = self.tables.lock();
        for &export in fresh {
            if let Some(door) = tables.exports.remove(&export) {
                if let Ok(token) = self.domain.door_token(door) {
                    tables.exports_by_token.remove(&token);
                }
                let _ = self.domain.delete_door(door);
            }
        }
    }

    /// Maps a network-form capability back to a door identifier owned by
    /// this network server's domain.
    pub(crate) fn import_cap(self: &Arc<Self>, cap: WireCap) -> Result<DoorId, DoorError> {
        if cap.origin == self.node.raw() {
            // The identifier came home: mint a fresh one for the receiver.
            return self.domain.copy_door(self.export_target(cap.export)?);
        }

        // Foreign door: reuse or fabricate a proxy.
        {
            let tables = self.tables.lock();
            if let Some(&retained) = tables.proxies.get(&cap) {
                drop(tables);
                return self.domain.copy_door(retained);
            }
        }
        let handler = Arc::new(ProxyHandler {
            target: cap,
            server: Arc::downgrade(self),
            route: Mutex::new(None),
        });
        let retained = self.domain.create_door(handler)?;
        let issued = self.domain.copy_door(retained)?;
        let token = self.domain.door_token(retained)?;
        let mut tables = self.tables.lock();
        tables.proxies.insert(cap, retained);
        tables.proxies_by_token.insert(token, cap);
        self.net.count_proxy();
        Ok(issued)
    }

    /// Records the export id of the published bootstrap door.
    pub(crate) fn set_bootstrap(&self, export: u64) {
        *self.bootstrap.lock() = Some(export);
    }

    /// The export id advertised to connecting processes, if any.
    pub(crate) fn bootstrap_export(&self) -> Option<u64> {
        *self.bootstrap.lock()
    }

    /// Resolves an export id to the pinned door for call delivery.
    fn export_target(&self, export: u64) -> Result<DoorId, DoorError> {
        self.tables
            .lock()
            .exports
            .get(&export)
            .copied()
            .ok_or_else(|| DoorError::Comm(format!("stale export {export}")))
    }

    /// Serves one inbound call on the calling thread, whichever transport
    /// it arrived by (DESIGN.md §5.19): resolve the export, land the
    /// identifiers, run the call, stage the reply in wire form.
    ///
    /// * The call never reached its door (stale export, failed import):
    ///   [`ReplyOutcome::NotDelivered`]; nothing landed, and the sender
    ///   releases what it pinned for the call.
    /// * It was delivered and failed, or its reply could not be staged:
    ///   [`ReplyOutcome::Failed`]; identifiers that landed and were not
    ///   taken by the handler are deleted here, the sender's pins stay.
    /// * Otherwise [`ReplyOutcome::Ok`] with the reply and the exports
    ///   freshly pinned for it. Without `want_reply` (a one-way call)
    ///   nobody will read a reply, so the doors it carries are deleted
    ///   rather than pinned, its payload goes back to the buffer pool and
    ///   the staged reply is empty.
    pub(crate) fn serve(
        self: &Arc<Self>,
        export: u64,
        wire: WireMessage,
        want_reply: bool,
    ) -> Served {
        let staged = (|| {
            let door = self
                .export_target(export)
                .map_err(ReplyOutcome::NotDelivered)?;
            let delivered = self.from_wire(wire).map_err(ReplyOutcome::NotDelivered)?;
            // Snapshot the landed identifiers: if the kernel call fails
            // before moving them into the serving domain they would be
            // dropped undeleted. Slots are never reused, so the deletes are
            // harmless no-ops when the handler did take ownership.
            let landed = delivered.doors.clone();
            match self.domain.call(door, delivered) {
                Ok(reply) if want_reply => self.to_wire_tracked(reply),
                Ok(reply) => {
                    self.delete_doors(reply.doors);
                    pool::give(reply.bytes);
                    Ok(Default::default())
                }
                Err(e) => {
                    self.delete_doors(landed);
                    Err(e)
                }
            }
            .map_err(ReplyOutcome::Failed)
        })();
        let (outcome, fresh) = match staged {
            Ok((wire, fresh)) => (ReplyOutcome::Ok(wire), fresh),
            Err(outcome) => (outcome, Vec::new()),
        };
        Served { outcome, fresh }
    }

    fn delete_doors(&self, doors: impl IntoIterator<Item = DoorId>) {
        for d in doors {
            let _ = self.domain.delete_door(d);
        }
    }

    /// Converts an outbound message (identifiers owned by this server's
    /// domain) to wire form, and returns with it the export ids freshly
    /// pinned for this message, so a caller whose subsequent hop fails can
    /// release them with [`NetServer::unexport`] instead of leaking one
    /// pinned door per lost send. If exporting fails partway, the entries
    /// already created for this message are rolled back before the error
    /// propagates.
    pub(crate) fn to_wire_tracked(
        &self,
        msg: Message,
    ) -> Result<(WireMessage, Vec<u64>), DoorError> {
        let mut caps = Vec::with_capacity(msg.doors.len());
        let mut fresh = Vec::new();
        let mut doors = msg.doors.into_iter();
        for d in doors.by_ref() {
            match self.export_cap_tracked(d) {
                Ok((cap, is_fresh)) => {
                    if is_fresh {
                        fresh.push(cap.export);
                    }
                    caps.push(cap);
                }
                Err(e) => {
                    self.unexport(&fresh);
                    // The failing identifier and the ones not yet exported
                    // would otherwise be dropped undeleted.
                    self.delete_doors(std::iter::once(d).chain(doors));
                    return Err(e);
                }
            }
        }
        Ok((
            WireMessage {
                bytes: msg.bytes,
                caps,
                trace: msg.trace,
                call: msg.call,
            },
            fresh,
        ))
    }

    /// Converts an inbound wire message to a local message whose identifiers
    /// are owned by this server's domain.
    pub(crate) fn from_wire(self: &Arc<Self>, wire: WireMessage) -> Result<Message, DoorError> {
        let mut doors = Vec::with_capacity(wire.caps.len());
        for cap in wire.caps {
            match self.import_cap(cap) {
                Ok(d) => doors.push(d),
                Err(e) => {
                    // Roll back the identifiers already issued for this
                    // message; the call is not going to be delivered.
                    self.delete_doors(doors);
                    return Err(e);
                }
            }
        }
        Ok(Message {
            bytes: wire.bytes,
            doors,
            trace: wire.trace,
            call: wire.call,
        })
    }
}

/// Handler for a proxy door: forwards invocations across the network.
struct ProxyHandler {
    target: WireCap,
    server: std::sync::Weak<NetServer>,
    /// The link's resolved route, kept across calls and re-resolved by
    /// [`NetworkInner::route`] when the network publishes a new snapshot.
    route: Mutex<Option<Arc<Route>>>,
}

impl DoorHandler for ProxyHandler {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| DoorError::Comm("network server shut down".into()))?;
        // The kernel has already translated `msg`'s identifiers into the
        // network server's domain; forward over the network.
        let route = server
            .net
            .route(&self.route, server.node.raw(), self.target.origin);
        server
            .net
            .forward_call(&server, self.target, &route, msg, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Network};

    /// Replies with the payload and a fresh door, or fails when told to.
    fn servant(ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        if msg.bytes == b"fail" {
            return Err(DoorError::Handler("boom".into()));
        }
        let door = ctx.server().create_door(Arc::new(servant))?;
        Ok(Message {
            bytes: msg.bytes,
            doors: vec![door],
            ..Message::default()
        })
    }

    #[test]
    fn serve_produces_each_outcome_with_and_without_a_reply() {
        let net = Network::new(NetConfig::default());
        let node = net.add_node("n");
        let server = net.inner.server(node.id().raw()).unwrap();
        let servants = node.kernel().create_domain("servants");
        let door = servants.create_door(Arc::new(servant)).unwrap();
        let held = servants.transfer_door(door, &server.domain).unwrap();
        let export = server.export_cap_tracked(held).unwrap().0.export;
        let live = || node.kernel().stats().ids_issued - node.kernel().stats().ids_deleted;
        let serve = |export: u64, bytes: &[u8], want_reply: bool| {
            let wire = WireMessage {
                bytes: bytes.to_vec(),
                ..WireMessage::default()
            };
            let before = live();
            let served = server.serve(export, wire, want_reply);
            (served.outcome, served.fresh.len(), live() - before)
        };

        // A reply that is wanted is staged, its door pinned by one fresh
        // export; one that is not is dropped and its door deleted.
        let staged = serve(export, b"hi", true);
        assert!(matches!(&staged.0, ReplyOutcome::Ok(w) if w.bytes == b"hi" && w.caps.len() == 1));
        assert_eq!((staged.1, staged.2), (1, 1));
        let dropped = serve(export, b"hi", false);
        assert!(
            matches!(&dropped.0, ReplyOutcome::Ok(w) if w.bytes.is_empty() && w.caps.is_empty())
        );
        assert_eq!((dropped.1, dropped.2), (0, 0));

        for want_reply in [true, false] {
            let failed = serve(export, b"fail", want_reply);
            assert!(matches!(
                failed,
                (ReplyOutcome::Failed(DoorError::Handler(_)), 0, 0)
            ));
            let stale = serve(u64::MAX, b"hi", want_reply);
            assert!(matches!(
                stale,
                (ReplyOutcome::NotDelivered(DoorError::Comm(_)), 0, 0)
            ));
        }
    }
}
