//! Network-server tests: door extension across nodes, proxy fabrication,
//! identifier home-coming, partitions, and loss injection.

use std::sync::Arc;
use std::time::Duration;

use spring_kernel::{CallCtx, DoorError, DoorHandler, Message};
use spring_net::{NetConfig, Network};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

struct Adder;

impl DoorHandler for Adder {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let sum: u32 = msg.bytes.iter().map(|b| *b as u32).sum();
        Ok(Message::from_bytes(sum.to_le_bytes().to_vec()))
    }
}

#[test]
fn cross_node_call_through_proxy() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Adder)).unwrap();

    // Ship the identifier from node B to node A; the client receives a
    // proxy door indistinguishable from a local one.
    let msg = Message {
        bytes: vec![],
        doors: vec![door],
        ..Message::default()
    };
    let arrived = net.ship_message(&server, &client, msg).unwrap();
    let proxy = arrived.doors[0];
    assert_eq!(proxy.owner(), client.id());

    let reply = client
        .call(proxy, Message::from_bytes(vec![1, 2, 3]))
        .unwrap();
    assert_eq!(u32::from_le_bytes(reply.bytes.try_into().unwrap()), 6);
    assert_eq!(net.stats().calls_forwarded, 1);
    assert_eq!(net.stats().proxies_created, 1);
}

#[test]
fn identifier_coming_home_is_local_again() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let other = b.kernel().create_domain("other");
    let door = server.create_door(Arc::new(Echo)).unwrap();

    // B -> A -> B: the identifier that lands back on node B must reach the
    // real door without a proxy hop through A.
    let msg = Message {
        bytes: vec![],
        doors: vec![door],
        ..Message::default()
    };
    let at_a = net.ship_message(&server, &client, msg).unwrap();
    let back = net.ship_message(&client, &other, at_a).unwrap();
    let id = back.doors[0];

    let before = net.stats();
    let reply = other.call(id, Message::from_bytes(vec![9])).unwrap();
    assert_eq!(reply.bytes, vec![9]);
    // The call was local to node B: nothing was forwarded.
    assert_eq!(net.stats().since(&before).calls_forwarded, 0);
}

#[test]
fn third_party_node_gets_chained_route() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let c = net.add_node("c");

    let server = a.kernel().create_domain("server");
    let via = b.kernel().create_domain("via");
    let client = c.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Adder)).unwrap();

    // A -> B -> C: node C's proxy targets node A directly (the network form
    // carries the origin, not the forwarding path).
    let msg = Message {
        bytes: vec![],
        doors: vec![door],
        ..Message::default()
    };
    let at_b = net.ship_message(&server, &via, msg).unwrap();
    let at_c = net.ship_message(&via, &client, at_b).unwrap();

    let reply = client
        .call(at_c.doors[0], Message::from_bytes(vec![5, 5]))
        .unwrap();
    assert_eq!(u32::from_le_bytes(reply.bytes.try_into().unwrap()), 10);
    // Exactly one forward: C -> A, no bounce through B.
    assert_eq!(net.stats().calls_forwarded, 1);
}

#[test]
fn replies_can_carry_doors_back_across_the_net() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");

    struct Minter;
    impl DoorHandler for Minter {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            let fresh = ctx.server().create_door(Arc::new(Echo))?;
            Ok(Message {
                bytes: vec![],
                doors: vec![fresh],
                ..Message::default()
            })
        }
    }

    let mint = server.create_door(Arc::new(Minter)).unwrap();
    let msg = Message {
        bytes: vec![],
        doors: vec![mint],
        ..Message::default()
    };
    let arrived = net.ship_message(&server, &client, msg).unwrap();

    let reply = client.call(arrived.doors[0], Message::new()).unwrap();
    assert_eq!(reply.doors.len(), 1);
    // The minted door lives on node B; calling it from A forwards again.
    let echo = client
        .call(reply.doors[0], Message::from_bytes(vec![4]))
        .unwrap();
    assert_eq!(echo.bytes, vec![4]);
}

#[test]
fn partitions_cut_calls_and_heal() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    net.partition(a.id(), b.id());
    match client.call(proxy, Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("partition")),
        other => panic!("expected comm error, got {other:?}"),
    }

    net.heal(a.id(), b.id());
    assert!(client.call(proxy, Message::new()).is_ok());
}

/// Ships a door for `handler`, served on `server_node`, to `client`.
fn proxy_to(
    net: &Network,
    server_node: &spring_net::Node,
    client: &spring_kernel::Domain,
    handler: Arc<dyn DoorHandler>,
) -> spring_kernel::DoorId {
    let server = server_node.kernel().create_domain("server");
    let door = server.create_door(handler).unwrap();
    let msg = Message {
        doors: vec![door],
        ..Message::default()
    };
    net.ship_message(&server, client, msg).unwrap().doors[0]
}

/// A network's counts are cells of a tally it owns: two networks in one
/// process, called through alternately from one thread and then from a
/// second, each report exactly their own traffic.
#[test]
fn two_networks_in_one_process_count_apart() {
    let nets = [(); 2].map(|()| {
        let net = Network::new(NetConfig::default());
        let (a, b) = (net.add_node("a"), net.add_node("b"));
        let client = a.kernel().create_domain("client");
        let proxy = proxy_to(&net, &b, &client, Arc::new(Echo));
        (net, client, proxy)
    });
    // Shipping the door was one message on each network.
    for (net, ..) in &nets {
        assert_eq!((net.stats().messages, net.stats().calls_forwarded), (1, 0));
    }
    let call_both = |first: usize, second: usize| {
        for (calls, (_, client, proxy)) in [first, second].into_iter().zip(&nets) {
            for _ in 0..calls {
                client
                    .call(*proxy, Message::from_bytes(vec![1; 5]))
                    .unwrap();
            }
        }
    };
    for _ in 0..10 {
        call_both(1, 2);
    }
    std::thread::scope(|s| {
        s.spawn(|| call_both(5, 0));
    });
    let [first, second] = [&nets[0].0, &nets[1].0].map(|net| net.stats());
    // A forwarded call is a request and a reply message of five bytes each.
    assert_eq!(
        (first.calls_forwarded, first.messages, first.bytes),
        (15, 31, 150)
    );
    assert_eq!(
        (second.calls_forwarded, second.messages, second.bytes),
        (20, 41, 200)
    );
    assert_eq!((first.batch_flushes, second.batch_flushes), (15, 20));
}

/// A proxy door keeps its resolved route across calls; every publication —
/// partition, heal, set_config — must still reach the very next call
/// through a door that has already carried traffic.
#[test]
fn warm_proxy_sees_partitions_and_config_on_the_next_call() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let client = a.kernel().create_domain("client");
    let proxy = proxy_to(&net, &b, &client, Arc::new(Echo));
    for _ in 0..3 {
        client.call(proxy, Message::new()).unwrap();
    }

    net.partition(a.id(), b.id());
    let before = net.stats();
    match client.call(proxy, Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("partition"), "{why}"),
        other => panic!("expected comm error, got {other:?}"),
    }
    // Refused at the first check-point, off the door's own route: nothing
    // was marshalled, queued or shipped for a link known to be cut.
    let refused = net.stats().since(&before);
    assert_eq!(
        (
            refused.calls_forwarded,
            refused.batch_flushes,
            refused.messages
        ),
        (1, 0, 0)
    );
    net.heal(a.id(), b.id());
    client.call(proxy, Message::new()).unwrap();
    net.partition(a.id(), b.id());
    assert!(client.call(proxy, Message::new()).is_err());
    net.heal_all();
    client.call(proxy, Message::new()).unwrap();

    net.set_config(NetConfig {
        drop_prob: 1.0,
        ..Default::default()
    });
    let drops = net.stats().drops;
    match client.call(proxy, Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("lost"), "{why}"),
        other => panic!("expected loss, got {other:?}"),
    }
    assert_eq!(net.stats().drops, drops + 1);

    net.set_config(NetConfig::with_latency(Duration::from_millis(5)));
    let start = std::time::Instant::now();
    client.call(proxy, Message::new()).unwrap();
    assert!(start.elapsed() >= Duration::from_millis(10));

    net.set_config(NetConfig::default());
    let start = std::time::Instant::now();
    client.call(proxy, Message::new()).unwrap();
    assert!(start.elapsed() < Duration::from_millis(10));
}

/// Replies with one fixed byte, whatever it is sent.
fn replying(tag: u8) -> Arc<dyn DoorHandler> {
    Arc::new(move |_: &CallCtx, _: Message| Ok(Message::from_bytes(vec![tag])))
}

/// A thread holds one route per link it forwards along, keyed by the
/// sending network server as well as the destination node: two networks
/// whose nodes carry the same identifiers, called through alternately from
/// one thread, each serve and count only their own calls.
#[test]
fn one_thread_alternating_two_networks_routes_each_call_on_its_own() {
    let nets = [1u8, 2].map(|tag| {
        let net = Network::new(NetConfig::default());
        let a = net.add_node_with_id("a", 7_001);
        let b = net.add_node_with_id("b", 7_002);
        let client = a.kernel().create_domain("client");
        let proxy = proxy_to(&net, &b, &client, replying(tag));
        (net, client, proxy, tag)
    });
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..10 {
                for (_, client, proxy, tag) in &nets {
                    let reply = client.call(*proxy, Message::new()).unwrap();
                    assert_eq!(reply.bytes, [*tag], "a call landed on the other network");
                }
            }
            assert_eq!(Network::routes_held_here(), 2);
            // Both links stayed warm: one resolution each.
            assert_eq!(Network::routes_resolved_here(), 2);
        });
    });
    for (net, ..) in &nets {
        assert_eq!(net.stats().calls_forwarded, 10);
    }
}

/// A thread that forwards to more destinations than it holds routes for
/// routes every call right and holds no more than its bound; cycling over
/// them, it still finds many of its calls' routes held, where evicting the
/// oldest would make every call after the first round resolve again.
#[test]
fn a_thread_forwarding_to_many_nodes_holds_a_bounded_set_of_routes() {
    const NODES: u8 = 12;
    const ROUNDS: u64 = 20;
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let client = a.kernel().create_domain("client");
    let proxies: Vec<_> = (0..NODES)
        .map(|tag| {
            let node = net.add_node(format!("n{tag}"));
            proxy_to(&net, &node, &client, replying(tag))
        })
        .collect();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut first_round = 0;
            for round in 0..ROUNDS {
                for (tag, proxy) in proxies.iter().enumerate() {
                    let reply = client.call(*proxy, Message::new()).unwrap();
                    assert_eq!(reply.bytes, [tag as u8], "round {round}");
                    assert!(Network::routes_held_here() <= 8);
                }
                if round == 0 {
                    first_round = Network::routes_resolved_here();
                }
            }
            assert_eq!(Network::routes_held_here(), 8);
            assert_eq!(first_round, NODES as u64);
            let later_calls = (ROUNDS - 1) * NODES as u64;
            let later_misses = Network::routes_resolved_here() - first_round;
            assert!(
                later_misses * 4 < later_calls * 3,
                "{later_misses} of {later_calls} calls after the first round resolved their route"
            );
        });
    });
    assert_eq!(net.stats().calls_forwarded, ROUNDS * NODES as u64);
}

/// Adding a node publishes a new snapshot: doors on the new node are
/// reachable from a client whose other proxies are already warm, those
/// proxies keep working, and the new node can be partitioned off alone.
#[test]
fn node_added_after_first_call_is_reachable() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let client = a.kernel().create_domain("client");
    let to_b = proxy_to(&net, &b, &client, Arc::new(Echo));
    client.call(to_b, Message::new()).unwrap();

    let c = net.add_node("c");
    let to_c = proxy_to(&net, &c, &client, Arc::new(Adder));
    let reply = client.call(to_c, Message::from_bytes(vec![2, 3])).unwrap();
    assert_eq!(u32::from_le_bytes(reply.bytes.try_into().unwrap()), 5);
    client.call(to_b, Message::new()).unwrap();

    net.partition(a.id(), c.id());
    assert!(client.call(to_c, Message::new()).is_err());
    client.call(to_b, Message::new()).unwrap();
}

#[test]
fn loss_injection_fails_calls_probabilistically() {
    let net = Network::new(NetConfig {
        drop_prob: 1.0,
        ..Default::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    // Object transfer is reliable even at drop_prob 1.0.
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();

    match client.call(arrived.doors[0], Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("lost")),
        other => panic!("expected loss, got {other:?}"),
    }
    assert!(net.stats().drops >= 1);

    // Turning loss off restores service.
    net.set_config(NetConfig::default());
    assert!(client.call(arrived.doors[0], Message::new()).is_ok());
}

#[test]
fn latency_is_actually_paid() {
    let net = Network::new(NetConfig::with_latency(Duration::from_millis(5)));
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();

    let start = std::time::Instant::now();
    client.call(arrived.doors[0], Message::new()).unwrap();
    // Two hops (call + reply) at 5 ms each.
    assert!(start.elapsed() >= Duration::from_millis(10));
}

#[test]
fn same_node_ship_is_a_plain_transfer() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let d1 = a.kernel().create_domain("d1");
    let d2 = a.kernel().create_domain("d2");
    let door = d1.create_door(Arc::new(Echo)).unwrap();

    let before = net.stats();
    let arrived = net
        .ship_message(
            &d1,
            &d2,
            Message {
                bytes: vec![7],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(net.stats().since(&before).messages, 0);
    let reply = d2
        .call(arrived.doors[0], Message::from_bytes(vec![8]))
        .unwrap();
    assert_eq!(reply.bytes, vec![8]);
}

#[test]
fn proxy_reuse_for_repeated_imports() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let c1 = a.kernel().create_domain("c1");
    let c2 = a.kernel().create_domain("c2");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let dup = server.copy_door(door).unwrap();

    let m1 = net
        .ship_message(
            &server,
            &c1,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let m2 = net
        .ship_message(
            &server,
            &c2,
            Message {
                bytes: vec![],
                doors: vec![dup],
                ..Message::default()
            },
        )
        .unwrap();

    // Same underlying door: node A fabricates the proxy once.
    assert_eq!(net.stats().proxies_created, 1);
    assert!(c1.call(m1.doors[0], Message::new()).is_ok());
    assert!(c2.call(m2.doors[0], Message::new()).is_ok());
}

/// Live identifier count for one kernel: issued minus deleted. Leak
/// regressions assert this returns to its pre-failure baseline.
fn live_ids(kernel: &spring_kernel::Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

/// Mints a fresh door into every reply — the shape of call whose lost
/// reply used to strand an export-table pin on the serving node.
struct DoorMaker;

impl DoorHandler for DoorMaker {
    fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
        let d = ctx.server().create_door(Arc::new(Echo))?;
        Ok(Message {
            doors: vec![d],
            ..Message::default()
        })
    }
}

#[test]
fn failed_same_node_ship_releases_every_identifier() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let from = a.kernel().create_domain("from");
    let to = a.kernel().create_domain("to");
    let d1 = from.create_door(Arc::new(Echo)).unwrap();
    let d2 = from.create_door(Arc::new(Echo)).unwrap();

    let before = live_ids(a.kernel());
    // Mid-stream failure: a valid identifier lands in the receiver, then a
    // stale one fails the transfer, leaving a third still unsent. Nothing
    // from the lost message may stay behind in either domain.
    let ok1 = from.copy_door(d1).unwrap();
    let stale = from.copy_door(d1).unwrap();
    from.delete_door(stale).unwrap();
    let ok2 = from.copy_door(d2).unwrap();
    let msg = Message {
        doors: vec![ok1, stale, ok2],
        ..Message::default()
    };
    assert!(net.ship_message(&from, &to, msg).is_err());
    assert_eq!(
        live_ids(a.kernel()),
        before,
        "a failed same-node ship must release both landed and unsent identifiers",
    );
}

#[test]
fn failed_ship_to_a_dead_domain_releases_every_identifier() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let from = a.kernel().create_domain("from");

    // Same node, then across the network. The receiving domain is dead, so
    // the transfer into it fails on the first identifier — which the kernel
    // has not moved, and which is lost with the rest of the message.
    for (receiver, retained_proxies) in [(&a, 0), (&b, 2)] {
        let to = receiver.kernel().create_domain("to");
        to.crash();
        let sender_before = live_ids(a.kernel());
        let receiver_before = live_ids(receiver.kernel());
        let msg = Message {
            doors: vec![
                from.create_door(Arc::new(Echo)).unwrap(),
                from.create_door(Arc::new(Echo)).unwrap(),
            ],
            ..Message::default()
        };
        assert_eq!(
            net.ship_message(&from, &to, msg).unwrap_err(),
            DoorError::DomainDead
        );
        assert_eq!(
            live_ids(a.kernel()),
            sender_before,
            "a failed ship must leave nothing behind on the sender: not the \
             identifier whose transfer failed, not an export pin",
        );
        // What stays on a receiving node is the proxy door its network
        // server retains per imported door (ROADMAP item 3), nothing else.
        assert_eq!(
            live_ids(receiver.kernel()),
            receiver_before + retained_proxies
        );
    }
}

#[test]
fn lost_call_attempts_do_not_pin_argument_exports() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let before = live_ids(a.kernel());
    net.set_config(NetConfig {
        drop_prob: 1.0,
        ..NetConfig::default()
    });
    // Every attempt carries a door argument; every attempt is lost before
    // leaving the node. Each one exports (pins) the argument door in the
    // network server — the rollback must release it again.
    for _ in 0..8 {
        let arg = client.create_door(Arc::new(Echo)).unwrap();
        let msg = Message {
            bytes: vec![1],
            doors: vec![arg],
            ..Message::default()
        };
        assert!(client.call(proxy, msg).is_err());
    }
    net.set_config(NetConfig::default());
    assert_eq!(
        live_ids(a.kernel()),
        before,
        "every lost call attempt must release the argument exports it pinned",
    );
}

#[test]
fn lost_reply_does_not_pin_reply_exports() {
    // The network RNG is rolled once per lossy hop, call hop first. Scan
    // for a seed whose first roll survives and whose second drops, so
    // exactly the reply is lost — deterministically.
    let mut seed = 0u64;
    loop {
        let mut rng = spring_kernel::FaultRng::seed_from_u64(seed);
        if rng.unit_f64() >= 0.5 && rng.unit_f64() < 0.5 {
            break;
        }
        seed += 1;
    }

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(DoorMaker)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let before = live_ids(b.kernel());
    net.reseed(seed);
    net.set_config(NetConfig {
        drop_prob: 0.5,
        ..NetConfig::default()
    });
    // The call executes (mints a reply door) and the reply is dropped on
    // the wire: the serving node must release the export it just pinned,
    // which also destroys the now-unreferenced reply door.
    assert!(client.call(proxy, Message::new()).is_err());
    net.set_config(NetConfig::default());
    assert_eq!(
        live_ids(b.kernel()),
        before,
        "a reply lost on the wire must not strand its exported doors",
    );
}

#[test]
fn partition_during_execution_does_not_strand_reply_doors() {
    /// Cuts the network mid-call, so the reply finds its link gone.
    struct Partitioner {
        net: Arc<Network>,
        a: spring_kernel::NodeId,
        b: spring_kernel::NodeId,
    }

    impl DoorHandler for Partitioner {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            self.net.partition(self.a, self.b);
            let d = ctx.server().create_door(Arc::new(Echo))?;
            Ok(Message {
                doors: vec![d],
                ..Message::default()
            })
        }
    }

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server
        .create_door(Arc::new(Partitioner {
            net: net.clone(),
            a: a.id(),
            b: b.id(),
        }))
        .unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let before = live_ids(b.kernel());
    assert!(client.call(proxy, Message::new()).is_err());
    assert_eq!(
        live_ids(b.kernel()),
        before,
        "a reply blocked by a partition must release its identifiers",
    );
}

// ---------------------------------------------------------------------------
// Stream subcontract drop-path audit: fire-and-forget frames lost mid-hop
// must strand nothing — no reply doors, no pinned exports, and a truncated
// marshalled stream must not leak the door it landed.
// ---------------------------------------------------------------------------

/// Minimal dispatch for stream objects under test; streams exercise the
/// frame lane, so ordinary operations are never invoked.
struct NullStreamOps;

static STREAM_TEST_TYPE: subcontract::TypeInfo = subcontract::TypeInfo {
    name: "net.stream_test",
    parents: &[&subcontract::OBJECT_TYPE],
    default_subcontract: spring_subcontracts::Stream::ID,
};

impl subcontract::Dispatch for NullStreamOps {
    fn type_info(&self) -> &'static subcontract::TypeInfo {
        &STREAM_TEST_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &subcontract::ServerCtx,
        op: u32,
        _args: &mut spring_buf::CommBuffer,
        _reply: &mut spring_buf::CommBuffer,
    ) -> subcontract::Result<()> {
        Err(subcontract::SpringError::UnknownOp(op))
    }
}

fn stream_ctx(kernel: &spring_kernel::Kernel, name: &str) -> Arc<subcontract::DomainCtx> {
    let ctx = subcontract::DomainCtx::new(kernel.create_domain(name));
    ctx.register_subcontract(spring_subcontracts::Stream::new());
    ctx.types().register(&STREAM_TEST_TYPE);
    ctx
}

#[test]
fn truncated_stream_unmarshal_releases_the_landed_door() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let ctx = stream_ctx(a.kernel(), "d");
    let sink = Arc::new(|_seq: u64, _data: &[u8]| {});
    let (obj, _stats) =
        spring_subcontracts::Stream::export(&ctx, Arc::new(NullStreamOps), sink).unwrap();

    let before = live_ids(a.kernel());
    let mut buf = spring_buf::CommBuffer::new();
    obj.marshal_copy(&mut buf).unwrap();
    let mut msg = buf.into_message();
    // Cut into the trailing sequence counter: the door has already landed
    // when the parse of the remainder fails.
    let cut = msg.bytes.len() - 4;
    msg.bytes.truncate(cut);
    let mut torn = spring_buf::CommBuffer::from_message(msg);
    assert!(
        subcontract::unmarshal_object(&ctx, &STREAM_TEST_TYPE, &mut torn).is_err(),
        "a truncated stream must fail to unmarshal"
    );
    assert_eq!(
        live_ids(a.kernel()),
        before,
        "a failed stream unmarshal must delete the door it landed",
    );
}

#[test]
fn lost_stream_frames_strand_no_doors_or_pins() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server_ctx = stream_ctx(b.kernel(), "server");
    let client_ctx = stream_ctx(a.kernel(), "client");

    let sink = Arc::new(|_seq: u64, _data: &[u8]| {});
    let (obj, stats) =
        spring_subcontracts::Stream::export(&server_ctx, Arc::new(NullStreamOps), sink).unwrap();
    let remote =
        subcontract::ship_object_copy(&*net, &obj, &client_ctx, &STREAM_TEST_TYPE).unwrap();

    let base_a = live_ids(a.kernel());
    let base_b = live_ids(b.kernel());
    net.reseed(7);
    net.set_config(NetConfig {
        drop_prob: 0.7,
        ..NetConfig::default()
    });
    let mut delivered = 0u64;
    for i in 0..200u64 {
        let outcome = spring_subcontracts::Stream::send_frame(&remote, &i.to_le_bytes())
            .unwrap_or_else(|e| {
                panic!("fire-and-forget frames surface loss as Dropped, never Err: {e}")
            });
        if outcome == spring_subcontracts::FrameOutcome::Delivered {
            delivered += 1;
        }
    }
    net.set_config(NetConfig::default());
    assert!(delivered > 0, "some frames should survive drop_prob 0.7");
    assert!(
        delivered < 200,
        "some frames should be lost at drop_prob 0.7"
    );
    // A frame whose *reply* hop is lost reports Dropped even though the
    // sink ran, so the sink count dominates the sender's delivered count.
    assert!(stats.received() >= delivered);
    assert!(stats.received() <= 200);
    assert_eq!(
        live_ids(a.kernel()),
        base_a,
        "lost request frames must roll back every export they pinned",
    );
    assert_eq!(
        live_ids(b.kernel()),
        base_b,
        "lost frames must strand no reply doors on the serving node",
    );

    // Dropping the remote copy releases exactly its own proxy-door
    // identifier; the origin's export pin survives by design (the export
    // table is shared with any other holder).
    drop(remote);
    assert_eq!(live_ids(a.kernel()), base_a - 1);
}
