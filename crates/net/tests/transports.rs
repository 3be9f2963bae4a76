//! The delivery path is one path (DESIGN.md §5.19): how the receiving
//! network server serves a call, and how its outcome settles at the sender,
//! must not depend on the transport that carried it. Each scenario below is
//! one body, run over a pair of nodes on the simulated network and over two
//! `Network`s joined by a Unix-domain socket, asserting the same outcome
//! and the same live-identifier delta on both nodes.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Kernel, Message};
use spring_net::{NetConfig, Network, Node};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

/// The servant behind every pair: the first payload byte picks what it
/// does with the call. It keeps none of the doors a call carries.
struct Menu;

/// Replies with the payload.
const ECHO: u8 = b'e';
/// Fails in the handler.
const FAIL: u8 = b'f';
/// Replies with a freshly created door.
const MINT: u8 = b'm';

impl DoorHandler for Menu {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        for d in &msg.doors {
            ctx.server().delete_door(*d)?;
        }
        match msg.bytes.first() {
            Some(&FAIL) => Err(DoorError::Handler("boom".into())),
            Some(&MINT) => Ok(Message {
                doors: vec![ctx.server().create_door(Arc::new(Echo))?],
                ..Message::default()
            }),
            _ => Ok(Message::from_bytes(msg.bytes)),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Wire {
    Sim,
    Uds,
}

/// A calling node `a` and a serving node `b`, with the client's door to the
/// [`Menu`] servant on `b`.
struct Pair {
    wire: Wire,
    /// The network `b` is a node of (over the socket, not `a`'s).
    server_net: Arc<Network>,
    /// The network `a` is a node of (over the simulator, `server_net`).
    client_net: Arc<Network>,
    a: Node,
    b: Node,
    client: Domain,
    servants: Domain,
    /// The servants' own identifier for the menu door.
    menu: DoorId,
    /// The client's proxy for it.
    remote: DoorId,
    /// What must outlive the scenario: the listener and the peer.
    _keep: Box<dyn Any>,
}

/// Distinct node ids for every pair, as separate processes would have.
fn node_ids() -> (u64, u64) {
    static NEXT: AtomicU64 = AtomicU64::new(1000);
    let a = NEXT.fetch_add(2, Ordering::Relaxed);
    (a, a + 1)
}

fn pair(wire: Wire) -> Pair {
    let (a_id, b_id) = node_ids();
    let server_net = Network::new(NetConfig::default());
    let b = server_net.add_node_with_id("b", b_id);
    let servants = b.kernel().create_domain("servants");
    let menu = servants.create_door(Arc::new(Menu)).unwrap();
    let shipped = servants.copy_door(menu).unwrap();
    let client_net = match wire {
        Wire::Sim => Arc::clone(&server_net),
        Wire::Uds => Network::new(NetConfig::default()),
    };
    let (a, client, remote, keep): (Node, Domain, DoorId, Box<dyn Any>) = match wire {
        Wire::Sim => {
            let a = server_net.add_node_with_id("a", a_id);
            let client = a.kernel().create_domain("client");
            let msg = Message {
                doors: vec![shipped],
                ..Message::default()
            };
            let arrived = server_net.ship_message(&servants, &client, msg).unwrap();
            (a, client, arrived.doors[0], Box::new(()))
        }
        Wire::Uds => {
            server_net
                .set_bootstrap(b.id(), &servants, shipped)
                .unwrap();
            let path = std::env::temp_dir()
                .join(format!("spring-{}-pair-{b_id}.sock", std::process::id()))
                .to_string_lossy()
                .into_owned();
            let listener = server_net.listen_uds(b.id(), &path).unwrap();
            let a = client_net.add_node_with_id("a", a_id);
            let client = a.kernel().create_domain("client");
            let peer = client_net.connect_uds(a.id(), &path).unwrap();
            let remote = peer.bootstrap_door(&client).unwrap();
            (a, client, remote, Box::new((listener, peer)))
        }
    };
    Pair {
        wire,
        server_net,
        client_net,
        a,
        b,
        client,
        servants,
        menu,
        remote,
        _keep: keep,
    }
}

impl Pair {
    /// Node `b` comes back under its id with nothing of what it exported:
    /// every export the client holds a proxy for is now stale. Returns the
    /// new machine.
    fn restart_b(&self) -> Node {
        self.server_net
            .add_node_with_id("b-again", self.b.id().raw())
    }

    /// A call to the menu door carrying one fresh door of the client's.
    fn with_a_door(&self, what: u8) -> Message {
        Message {
            bytes: vec![what],
            doors: vec![self.client.create_door(Arc::new(Echo)).unwrap()],
            ..Message::default()
        }
    }

    /// A round trip behind a one-way call: the link's sole idle socket is
    /// the one that call just used, so when this returns (however) the
    /// one-way call ahead of it has been served.
    fn drain(&self) -> Result<Message, DoorError> {
        self.client
            .call(self.remote, Message::from_bytes(vec![ECHO]))
    }
}

fn live_ids(kernel: &Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

/// Runs `scenario` over both transports. It returns what it observed — the
/// outcome, and how many live identifiers each node gained — which must be
/// the same whichever wire carried the call.
fn same_over_both_wires<T: PartialEq + std::fmt::Debug>(scenario: impl Fn(&Pair) -> T) -> T {
    let sim = scenario(&pair(Wire::Sim));
    let uds = scenario(&pair(Wire::Uds));
    assert_eq!(sim, uds, "simulated network vs. Unix-domain socket");
    sim
}

#[test]
fn a_stale_export_fails_comm_and_releases_the_argument_pin() {
    let seen = same_over_both_wires(|p| {
        let b = p.restart_b();
        let before = (live_ids(p.a.kernel()), live_ids(b.kernel()));
        let err = p.client.call(p.remote, p.with_a_door(ECHO)).unwrap_err();
        (
            err,
            live_ids(p.a.kernel()) - before.0,
            live_ids(b.kernel()) - before.1,
        )
    });
    // Never delivered: the export pinned for the argument is released (and
    // the argument door, now unreferenced, is gone); nothing landed on `b`.
    assert!(
        matches!(&seen.0, DoorError::Comm(m) if m.contains("stale export")),
        "{seen:?}"
    );
    assert_eq!((seen.1, seen.2), (0, 0));
}

#[test]
fn a_call_refused_by_a_partition_deletes_its_argument_doors() {
    let seen = same_over_both_wires(|p| {
        p.client_net.partition(p.a.id(), p.b.id());
        let before = (live_ids(p.a.kernel()), live_ids(p.b.kernel()));
        let err = p.client.call(p.remote, p.with_a_door(ECHO)).unwrap_err();
        let gained = (
            live_ids(p.a.kernel()) - before.0,
            live_ids(p.b.kernel()) - before.1,
        );
        p.client_net.heal(p.a.id(), p.b.id());
        let partitioned = matches!(&err, DoorError::Comm(m) if m.contains("partition"));
        (partitioned, gained, p.drain().map(|reply| reply.bytes))
    });
    // Refused at departure: the argument door the kernel had already moved
    // into `a`'s network server is deleted there, and nothing reached `b`.
    // The healed link carries the next call.
    assert_eq!(seen, (true, (0, 0), Ok(vec![ECHO])));
}

#[test]
fn a_failed_execution_keeps_the_pin_and_strands_nothing_that_landed() {
    let seen = same_over_both_wires(|p| {
        let mut seen = Vec::new();
        for revoke in [false, true] {
            if revoke {
                // The call now fails before the kernel moves its doors into
                // the serving domain: the network server deletes what landed.
                p.servants.revoke_door(p.menu).unwrap();
            }
            let before = (live_ids(p.a.kernel()), live_ids(p.b.kernel()));
            let err = p.client.call(p.remote, p.with_a_door(FAIL)).unwrap_err();
            seen.push((
                err,
                live_ids(p.a.kernel()) - before.0,
                live_ids(p.b.kernel()) - before.1,
            ));
        }
        seen
    });
    // Delivered, then failed: `a` keeps the export it pinned for the
    // argument, because `b`'s network server retains a proxy for it — that
    // proxy and nothing else is what `b` gained.
    assert_eq!(
        seen,
        [
            (DoorError::Handler("boom".into()), 1, 1),
            (DoorError::Revoked, 1, 1)
        ]
    );
}

#[test]
fn a_reply_carrying_a_fresh_door_lands_a_usable_proxy() {
    let seen = same_over_both_wires(|p| {
        let before = (live_ids(p.a.kernel()), live_ids(p.b.kernel()));
        let exports = p.server_net.stats().exports;
        let reply = p
            .client
            .call(p.remote, Message::from_bytes(vec![MINT]))
            .unwrap();
        let minted = reply.doors[0];
        let echoed = p.client.call(minted, Message::from_bytes(vec![7])).unwrap();
        (
            (reply.doors.len(), echoed.bytes),
            p.server_net.stats().exports - exports,
            live_ids(p.a.kernel()) - before.0,
            live_ids(p.b.kernel()) - before.1,
        )
    });
    // One export pinning the new door on `b`; on `a` the proxy door's
    // retained identifier and the one the client holds.
    assert_eq!(seen, ((1, vec![7]), 1, 2, 1));
}

#[test]
fn a_one_way_reply_door_is_deleted_at_the_server() {
    let seen = same_over_both_wires(|p| {
        let before = (live_ids(p.a.kernel()), live_ids(p.b.kernel()));
        let exports = p.server_net.stats().exports;
        let reply = p
            .client
            .call_one_way(p.remote, Message::from_bytes(vec![MINT]))
            .unwrap();
        p.drain().unwrap();
        (
            (reply.bytes.len(), reply.doors.len()),
            p.server_net.stats().exports - exports,
            live_ids(p.a.kernel()) - before.0,
            live_ids(p.b.kernel()) - before.1,
        )
    });
    // Nobody will read the reply, so the door it carries is neither pinned
    // nor proxied: it is deleted where it was made.
    assert_eq!(seen, ((0, 0), 0, 0, 0));
}

/// The one place the transports differ by contract (DESIGN.md §5.16): the
/// simulator sees that a one-way call was never delivered and says so; a
/// socket has handed the frame to the wire and knows no more, so the pin it
/// made for the argument stays.
#[test]
fn a_one_way_call_to_a_stale_export_is_reported_only_by_the_simulator() {
    for (wire, delivered, pins_left) in [(Wire::Sim, false, 0), (Wire::Uds, true, 1)] {
        let p = pair(wire);
        let b = p.restart_b();
        let before = (live_ids(p.a.kernel()), live_ids(b.kernel()));
        let sent = p.client.call_one_way(p.remote, p.with_a_door(ECHO));
        assert_eq!(sent.is_ok(), delivered, "{:?}: {sent:?}", p.wire);
        assert!(p.drain().unwrap_err().is_comm_failure());
        assert_eq!(live_ids(p.a.kernel()) - before.0, pins_left, "{wire:?}");
        assert_eq!(live_ids(b.kernel()), before.1, "{wire:?}");
    }
}
