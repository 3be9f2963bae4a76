//! The topic registry end to end: topics created through the registry door
//! are resolvable by name, publishable, and `remove` evicts live
//! remote subscribers instead of orphaning the hub.

use std::sync::Arc;

use parking_lot::Mutex;
use spring_kernel::Kernel;
use spring_naming::{NameClient, NameServer, NAMING_CONTEXT_TYPE};
use spring_net::{NetConfig, Network};
use spring_services::{topics, TopicRegistry, TOPIC_REGISTRY_TYPE};
use spring_subcontracts::pubsub::PUBSUB_TOPIC_TYPE;
use spring_subcontracts::{
    register_standard, DeliveryMode, PubSub, Singleton, Subscriber, SubscriberHub, TopicConfig,
};
use subcontract::{ship_object, DomainCtx, ServerSubcontract};

fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    // Topic objects travel by name: every domain that touches one needs the
    // pubsub subcontract and the topic run-time type registered.
    ctx.register_subcontract(PubSub::new());
    ctx.types().register(&PUBSUB_TOPIC_TYPE);
    ctx.types().register(&TOPIC_REGISTRY_TYPE);
    ctx
}

#[derive(Default)]
struct RecSink {
    delivered: Mutex<Vec<(u64, Vec<u8>)>>,
    evicted: Mutex<Vec<String>>,
}

impl Subscriber for RecSink {
    fn deliver(&self, seq: u64, data: &[u8]) {
        self.delivered.lock().push((seq, data.to_vec()));
    }
    fn evicted(&self, reason: &str) {
        self.evicted.lock().push(reason.to_owned());
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn registry_creates_resolvable_topics_and_remove_evicts_subscribers() {
    let net = Network::new(NetConfig::default());
    let hub_node = net.add_node("hub-machine");
    let app_node = net.add_node("app-machine");

    let server = ctx_on(hub_node.kernel(), "topic-server");
    let client = ctx_on(app_node.kernel(), "app");

    // Naming and the registry live on the hub machine; the app sees both
    // only through the wire.
    let ns = NameServer::new(&server);
    let server_names = NameClient::from_obj(ns.root_object().unwrap()).unwrap();
    let registry = TopicRegistry::new(&server, server_names);
    let registry_obj = Singleton
        .export(&server, topics::DirectorySkeleton::new(registry.clone()))
        .unwrap();
    let remote = topics::Directory::from_obj(
        ship_object(&*net, registry_obj, &client, &TOPIC_REGISTRY_TYPE).unwrap(),
    )
    .unwrap();
    let app_names = NameClient::from_obj(
        ship_object(
            &*net,
            ns.root_object().unwrap(),
            &client,
            &NAMING_CONTEXT_TYPE,
        )
        .unwrap(),
    )
    .unwrap();

    // Create through the registry door, then resolve the topic by name
    // (queue bound and back-pressure window of `TopicConfig::default()`).
    remote.create("news", 64, 10_000).unwrap();
    assert_eq!(remote.list().unwrap(), vec!["news".to_owned()]);
    let topic = app_names.resolve("news", &PUBSUB_TOPIC_TYPE).unwrap();

    // Creating the same path again is a typed application error, and the
    // failed attempt must not clobber the existing binding.
    let err = remote.create("news", 64, 10_000).unwrap_err();
    assert!(err.to_string().contains("already bound"), "{err}");
    assert_eq!(remote.list().unwrap(), vec!["news".to_owned()]);

    // Subscribe from the app machine; publish from the hub's own handle.
    let shub = SubscriberHub::new(&client);
    let sink = Arc::new(RecSink::default());
    let sub = shub
        .subscribe(&topic, DeliveryMode::Monitored, sink.clone())
        .unwrap();
    let hub = registry.hub("news").expect("registry keeps the live hub");
    for i in 0..5u8 {
        hub.publish(&[i]).unwrap();
    }
    wait_until("all five frames delivered", || {
        sink.delivered.lock().len() == 5
    });
    let got: Vec<u64> = sink.delivered.lock().iter().map(|(s, _)| *s).collect();
    assert_eq!(got, vec![1, 2, 3, 4, 5]);

    // Remove while the subscriber is live: it must be told, not orphaned.
    remote.remove("news").unwrap();
    wait_until("eviction notification", || !sink.evicted.lock().is_empty());
    assert!(
        sink.evicted.lock()[0].contains("removed"),
        "{:?}",
        sink.evicted.lock()
    );
    assert!(sub.was_evicted());
    assert!(remote.list().unwrap().is_empty());
    assert!(registry.hub("news").is_none());
    assert!(!registry.names().exists("news"));

    // Removing an unknown path is the same typed error.
    let err = remote.remove("news").unwrap_err();
    assert!(err.to_string().contains("news"), "{err}");

    // The path is reusable: create again, and the new topic starts fresh.
    remote.create("news", 64, 10_000).unwrap();
    let fresh = app_names.resolve("news", &PUBSUB_TOPIC_TYPE).unwrap();
    let hub = registry.hub("news").unwrap();
    assert_eq!(hub.next_seq(), 1);
    drop(fresh);
    drop(sub);
}

#[test]
fn dropping_the_registry_tears_down_its_topics() {
    // The registry's `unreferenced` removes every topic it created, so a
    // dying registry cannot leave hubs running with no name and no owner.
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "topic-server");

    let ns = NameServer::new(&server);
    let names = NameClient::from_obj(ns.root_object().unwrap()).unwrap();
    let registry = TopicRegistry::new(&server, names);
    let registry_obj = Singleton
        .export(&server, topics::DirectorySkeleton::new(registry.clone()))
        .unwrap();

    registry.create_topic("a", TopicConfig::default()).unwrap();
    registry.create_topic("b", TopicConfig::default()).unwrap();
    assert!(registry.names().exists("a") && registry.names().exists("b"));
    let hub_a = registry.hub("a").unwrap();

    drop(registry_obj);
    wait_until("registry teardown unbinds its topics", || {
        !registry.names().exists("a") && !registry.names().exists("b")
    });
    assert!(hub_a.publish(b"x").is_err(), "hub is shut down");
}
