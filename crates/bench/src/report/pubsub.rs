//! E17 — §8.4 spirit: pub/sub fan-out with per-link frame coalescing
//! (DESIGN.md §5.16).
//!
//! The headline invariant is structural, not a timing: publishing once to
//! a topic with N subscribers spread over L links costs exactly L delivery
//! frames — one per link, never one per subscriber. The sweep scales N
//! while holding L fixed and reports throughput, delivery-latency
//! percentiles, and the measured frames-per-publish-per-link ratio (the
//! CI gate; 1.0 means perfect coalescing). A seeded lossy arm checks the
//! delivery-mode contract and that an evicted slow subscriber leaks no
//! doors on either machine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use spring_kernel::Kernel;
use spring_net::{NetConfig, Network};
use spring_subcontracts::pubsub::{
    DeliveryMode, PubSub, Subscriber, SubscriberHub, Subscription, TopicConfig, TopicHub,
    PUBSUB_TOPIC_TYPE,
};
use subcontract::{ship_object, DomainCtx, SpringObj};

use super::{Scale, Table, Value::*};
use crate::fixtures::ctx_on;
use crate::row;

/// A counting sink. While `stalled` is set a delivery parks until it is
/// cleared (a consumer that has stopped consuming): the slow subscriber,
/// held by an event rather than a sleep so that nothing about the lossy arm
/// depends on how the host schedules the link workers.
#[derive(Default)]
struct CountSink {
    delivered: Arc<AtomicU64>,
    stalled: Mutex<bool>,
    resumed: Condvar,
    /// A delivery is parked, and with it the link worker that made it.
    parked: AtomicBool,
}

impl CountSink {
    fn set_stalled(&self, stalled: bool) {
        *self.stalled.lock().unwrap() = stalled;
        self.resumed.notify_all();
    }
}

impl Subscriber for CountSink {
    fn deliver(&self, _seq: u64, _data: &[u8]) {
        let mut stalled = self.stalled.lock().unwrap();
        while *stalled {
            self.parked.store(true, Ordering::SeqCst);
            stalled = self.resumed.wait(stalled).unwrap();
        }
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
    fn lost(&self, _from_seq: u64, _to_seq: u64) {}
}

fn pubsub_ctx(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = ctx_on(kernel, name);
    ctx.register_subcontract(PubSub::new());
    ctx.types().register(&PUBSUB_TOPIC_TYPE);
    ctx
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "E17 timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A topic on a publisher machine and `subs` subscribers of one delivery
/// mode split evenly over `links` subscriber machines, one SubscriberHub
/// (= one callback door = one link) each.
struct FanOut {
    hub: Arc<TopicHub>,
    delivered: Arc<AtomicU64>,
    shubs: Vec<Arc<SubscriberHub>>,
    // Held so the topology outlives the measurement.
    _alive: (Vec<Subscription>, Vec<SpringObj>, Arc<Network>),
}

fn fan_out(topic_name: &str, links: u64, subs: u64, mode: DeliveryMode) -> FanOut {
    let net = Network::new(NetConfig::default());
    let p = net.add_node("publisher");
    let server = pubsub_ctx(p.kernel(), "hub");
    let cfg = TopicConfig {
        queue_bound: 256,
        ..TopicConfig::default()
    };
    let (topic, hub) = PubSub::export(&server, topic_name, cfg).unwrap();
    let delivered = Arc::new(AtomicU64::new(0));
    let mut shubs = Vec::new();
    let (mut subscriptions, mut proxies) = (Vec::new(), Vec::new());
    for li in 0..links {
        let node = net.add_node(format!("sub-machine-{li}"));
        let ctx = pubsub_ctx(node.kernel(), "subs");
        let proxy = ship_object(&*net, topic.copy().unwrap(), &ctx, &PUBSUB_TOPIC_TYPE).unwrap();
        let shub = SubscriberHub::new(&ctx);
        for _ in 0..subs / links + u64::from(li < subs % links) {
            let sink = Arc::new(CountSink {
                delivered: delivered.clone(),
                ..CountSink::default()
            });
            subscriptions.push(shub.subscribe(&proxy, mode, sink).unwrap());
        }
        shubs.push(shub);
        proxies.push(proxy);
    }
    assert_eq!(hub.link_count(), links as usize);
    assert_eq!(hub.subscriber_count(), subs as usize);
    FanOut {
        hub,
        delivered,
        shubs,
        _alive: (subscriptions, proxies, net),
    }
}

pub fn e17_pubsub(scale: Scale) -> Table {
    let links: u64 = scale.pick(2, 4);
    let publishes: u64 = scale.pick(10, 50);
    let sub_counts: &[u64] = scale.pick(&[50, 200], &[100, 1_000, 10_000]);
    let payload = vec![0u8; 64];
    let mut t = Table::new(
        "e17",
        "E17: pub/sub fan-out — per-link frame coalescing",
        "DESIGN.md §5.16",
        &[
            "subscribers",
            "links",
            "publishes",
            "pub/s",
            "deliveries/s",
            "p50 us",
            "p99 us",
            "frames/pub/link",
        ],
    );
    t.param("links", links);

    let mut worst_ratio = 0.0f64;
    for &subs in sub_counts {
        let fan = fan_out("feed", links, subs, DeliveryMode::Monitored);
        let started = Instant::now();
        for _ in 0..publishes {
            fan.hub.publish(&payload).unwrap();
        }
        let publish_elapsed = started.elapsed();
        let expected = subs * publishes;
        // A link worker counts a frame as sent once the delivery call has
        // returned, which is after the sinks have seen it.
        wait_until("full fan-out delivery", || {
            fan.delivered.load(Ordering::Relaxed) == expected
                && fan.hub.stats().frames_sent() >= publishes * links
        });
        let fanout_elapsed = started.elapsed();

        let frames = fan.hub.stats().frames_sent();
        let ratio = frames as f64 / (publishes * links) as f64;
        worst_ratio = worst_ratio.max(ratio);
        // Delivery latency is tracked per link (per callback door); report
        // the worst link so a single stalled worker can't hide.
        let (mut p50, mut p99) = (0u64, 0u64);
        for snap in fan.shubs.iter().filter_map(|shub| shub.delivery_latency()) {
            p50 = p50.max(snap.percentile_ns(0.50));
            p99 = p99.max(snap.percentile_ns(0.99));
        }
        row![
            t;
            subs,
            links,
            publishes,
            Ratio(publishes as f64 / publish_elapsed.as_secs_f64(), 0),
            Ratio(expected as f64 / fanout_elapsed.as_secs_f64(), 0),
            Ratio(p50 as f64 / 1_000.0, 1),
            Ratio(p99 as f64 / 1_000.0, 1),
            Ratio(ratio, 3),
        ];
    }

    // One-way arm (DESIGN.md §5.16): every subscriber on every link in
    // BestEffort mode and fewer publishes than the lazy-ack window, so the
    // hub ships each NOTE_DELIVER as a reply-less one-way frame. The gated
    // figure is wire crossings per delivery frame: a request+reply pair
    // costs 2, a one-way frame costs 1, so perfect one-way shipping
    // measures exactly 1.0.
    let oneway_subs = sub_counts[0];
    let fan = fan_out("oneway", links, oneway_subs, DeliveryMode::BestEffort);
    for _ in 0..publishes {
        fan.hub.publish(&payload).unwrap();
    }
    wait_until("one-way arm fan-out delivery", || {
        fan.delivered.load(Ordering::Relaxed) == oneway_subs * publishes
            && fan.hub.stats().frames_sent() >= publishes * links
    });
    let frames = fan.hub.stats().frames_sent();
    let oneway = fan.hub.stats().frames_oneway();
    t.param("oneway_subscribers", oneway_subs);
    t.figure("oneway_frames_sent", frames);
    t.figure("oneway_frames_oneway", oneway);
    let crossings = (2 * (frames - oneway) + oneway) as f64 / frames.max(1) as f64;
    t.figure("wire_crossings_per_delivery", Ratio(crossings, 3));
    t.note(
        "one-way arm ({oneway_subscribers} best-effort subscribers, {links} links): \
         {oneway_frames_oneway}/{oneway_frames_sent} delivery frames shipped one-way, \
         {wire_crossings_per_delivery} wire crossings per delivery frame (1.0 = all one-way)",
    );

    // Lossy arm: the delivery-mode contract and eviction hygiene under
    // drop_prob = 0.3, over a fixed seed list.
    for &seed in scale.pick(&[7u64][..], &[7, 21, 42]) {
        lossy_arm(seed, &mut t);
    }

    t.figure("frames_per_publish_per_link", Ratio(worst_ratio, 3));
    t.note(
        "worst frames-per-publish-per-link across the sweep: {frames_per_publish_per_link} \
         (1.0 = perfect coalescing)",
    );
    t
}

/// One seed of the lossy arm: a monitored fast subscriber and a stalled
/// best-effort one behind a 30 %-loss link; the slow one is evicted, the
/// fast one's accounting tiles the stream, and teardown leaks no doors.
fn lossy_arm(seed: u64, t: &mut Table) {
    let net = Network::new(NetConfig::default());
    let p = net.add_node("publisher");
    let s = net.add_node("subscriber");
    let server = pubsub_ctx(p.kernel(), "hub");
    let client = pubsub_ctx(s.kernel(), "subs");
    let live_ids = |kernel: &Kernel| {
        let st = kernel.stats();
        st.ids_issued - st.ids_deleted
    };
    let (base_p, base_s) = (live_ids(p.kernel()), live_ids(s.kernel()));

    let cfg = TopicConfig {
        queue_bound: 4,
        backpressure: Duration::from_millis(2),
    };
    let (topic, hub) = PubSub::export(&server, "lossy", cfg).unwrap();
    let proxy = ship_object(&*net, topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    // Separate subscriber hubs: the link is the isolation unit, so the
    // stalled sink needs its own callback door to be evictable alone.
    let shub_fast = SubscriberHub::new(&client);
    let shub_slow = SubscriberHub::new(&client);
    let (fast, slow) = (Arc::<CountSink>::default(), Arc::<CountSink>::default());
    slow.set_stalled(true);
    let fast_sub = shub_fast
        .subscribe(&proxy, DeliveryMode::Monitored, fast)
        .unwrap();
    let slow_sub = shub_slow
        .subscribe(&proxy, DeliveryMode::BestEffort, slow.clone())
        .unwrap();

    net.reseed(seed);
    net.set_config(NetConfig {
        drop_prob: 0.3,
        ..NetConfig::default()
    });
    // Each publish waits for the links to be done with the one before (a
    // frame a link worker took ends up sent or dropped), so a queue only
    // ever grows behind a parked delivery: however late the host schedules
    // the fast link's worker, nothing but the stalled sink can be found
    // full when a backpressure window expires. The slow link takes part
    // until the first delivery that reaches its sink parks its worker; the
    // frames it finished before that are as many as were published.
    let stats = hub.stats();
    let mut slow_finished = None;
    for published in 1..=40u64 {
        hub.publish(&published.to_le_bytes()).unwrap();
        wait_until("the links finish with a published frame", || {
            if slow.parked.load(Ordering::SeqCst) {
                slow_finished.get_or_insert(published - 1);
            }
            stats.frames_sent() + stats.frames_dropped()
                >= slow_finished.unwrap_or(published) + published
        });
    }
    wait_until("slow-subscriber eviction under loss", || {
        stats.evictions() >= 1
    });
    slow.set_stalled(false);
    net.set_config(NetConfig::default());
    let sentinel = hub.publish(b"sentinel").unwrap();
    wait_until("monitored survivor reaches the sentinel", || {
        fast_sub.last_seq() == sentinel
    });
    let delivered = fast_sub.delivered();
    let lost = fast_sub.lost_frames();
    assert_eq!(
        delivered + lost,
        sentinel,
        "monitored accounting tiles the stream"
    );
    let figures = [
        ("delivered", delivered),
        ("lost", lost),
        ("published", sentinel),
        ("frames_dropped", stats.frames_dropped()),
        ("evictions", stats.evictions()),
    ];

    // Door-leak accounting: teardown must drain both kernels to the
    // network transport's export-table pins (one per shipped door: topic +
    // two callback doors = 3 per side) — anything above that is a leak
    // from the eviction or the loss path.
    drop((fast_sub, slow_sub, shub_fast, shub_slow, proxy, hub));
    wait_until("loss-arm door drain", || {
        live_ids(p.kernel()) == base_p + 3 && live_ids(s.kernel()) == base_s + 3
    });
    for (name, count) in figures {
        t.figure(&format!("loss_seed{seed}_{name}"), count);
    }
    let f = |name: &str| format!("{{loss_seed{seed}_{name}}}");
    t.note(format!(
        "loss seed {seed}: delivered {} + lost {} = {}, frames dropped {}, evictions {}, \
         leaked doors 0/0",
        f("delivered"),
        f("lost"),
        f("published"),
        f("frames_dropped"),
        f("evictions")
    ));
}
