//! Fault-injection sweep for the pub/sub delivery-mode contract.
//!
//! A topic fans out over a lossy simulated network (`drop_prob = 0.3`,
//! applied independently to every request and reply hop). The contract
//! under test, per delivery mode:
//!
//! - **Best-effort** subscribers never see an error: lost frames vanish
//!   silently, delivered frames arrive in order.
//! - **Monitored** subscribers get every surviving frame in order and a
//!   `lost` notification for every gap — each gap reported exactly once,
//!   so `delivered ∪ lost` tiles the sequence space with no overlap.
//! - An **evicted** slow subscriber leaks zero doors on either machine,
//!   even when the wire is eating frames during the eviction.
//!
//! Each sweep appends its seeds to `target/pubsub-seeds.txt` so a CI
//! failure can report exactly which seeds were exercised.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spring::core::{ship_object, DomainCtx};
use spring::kernel::Kernel;
use spring::net::{NetConfig, Network};
use spring::subcontracts::pubsub::{
    DeliveryMode, PubSub, Subscriber, SubscriberHub, TopicConfig, PUBSUB_TOPIC_TYPE,
};
use spring::subcontracts::{register_standard, PublishOutcome};

/// The seeds every sweep runs; kept in one place so the recorded list in
/// `target/pubsub-seeds.txt` matches what actually ran.
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

/// Loss rate the issue demands the proof at.
const DROP_PROB: f64 = 0.3;

fn lossy() -> NetConfig {
    NetConfig {
        drop_prob: DROP_PROB,
        ..NetConfig::default()
    }
}

fn pubsub_ctx(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    ctx.register_subcontract(PubSub::new());
    ctx.types().register(&PUBSUB_TOPIC_TYPE);
    ctx
}

fn live_ids(kernel: &Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Records the seeds a sweep ran, for CI to upload on failure.
fn record_seeds(suite: &str, seeds: &[u64]) {
    let _ = std::fs::create_dir_all("target");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("target/pubsub-seeds.txt")
    {
        let list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(f, "{suite}: drop_prob={DROP_PROB} seeds={}", list.join(","));
    }
}

/// A recording sink: sequences delivered, gaps reported, eviction reasons.
#[derive(Default)]
struct RecSink {
    delivered: Mutex<Vec<u64>>,
    lost: Mutex<Vec<(u64, u64)>>,
    evicted: Mutex<Vec<String>>,
    /// While set, a delivery parks until [`RecSink::resume`] (a consumer
    /// that has stopped consuming).
    stalled: StdMutex<bool>,
    resumed: Condvar,
    /// A delivery is parked, and with it the link worker that made it.
    parked: AtomicBool,
}

impl RecSink {
    fn new() -> Arc<RecSink> {
        Arc::new(RecSink::default())
    }

    fn stall(&self) {
        *self.stalled.lock().unwrap() = true;
    }

    fn resume(&self) {
        *self.stalled.lock().unwrap() = false;
        self.resumed.notify_all();
    }
}

impl Subscriber for RecSink {
    fn deliver(&self, seq: u64, _data: &[u8]) {
        let mut stalled = self.stalled.lock().unwrap();
        while *stalled {
            self.parked.store(true, Ordering::SeqCst);
            stalled = self.resumed.wait(stalled).unwrap();
        }
        drop(stalled);
        self.delivered.lock().push(seq);
    }
    fn lost(&self, from_seq: u64, to_seq: u64) {
        self.lost.lock().push((from_seq, to_seq));
    }
    fn evicted(&self, reason: &str) {
        self.evicted.lock().push(reason.to_owned());
    }
}

/// The delivery-mode contract, per seed: best-effort never errors and never
/// hears about gaps; monitored accounts for every sequence number exactly
/// once, as either a delivery or one gap report.
#[test]
fn delivery_modes_hold_under_loss() {
    record_seeds("pubsub_delivery_modes", &SEEDS);
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let p = net.add_node("publisher-machine");
        let s = net.add_node("subscriber-machine");
        let server = pubsub_ctx(p.kernel(), "hub");
        let client = pubsub_ctx(s.kernel(), "subs");

        // A queue bound far above the publish count: this sweep is about
        // loss, not backpressure — nobody should be evicted.
        let cfg = TopicConfig {
            queue_bound: 4096,
            ..TopicConfig::default()
        };
        let (topic, hub) = PubSub::export(&server, "lossy", cfg).unwrap();
        let proxy = ship_object(&*net, topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

        // Subscribe over a healthy wire; only delivery runs lossy.
        let shub = SubscriberHub::new(&client);
        let monitored = RecSink::new();
        let best_effort = RecSink::new();
        let sub_m = shub
            .subscribe(&proxy, DeliveryMode::Monitored, monitored.clone())
            .unwrap();
        let sub_b = shub
            .subscribe(&proxy, DeliveryMode::BestEffort, best_effort.clone())
            .unwrap();

        net.reseed(seed);
        net.set_config(lossy());

        // Publishing through the remote proxy must never error under loss:
        // a swallowed request or reply is a `Dropped` outcome, not a fault.
        let mut remote_accepted = 0u64;
        for i in 0..20u64 {
            match PubSub::publish(&proxy, &i.to_le_bytes())
                .unwrap_or_else(|e| panic!("seed {seed}: best-effort publish errored: {e}"))
            {
                PublishOutcome::Accepted(_) => remote_accepted += 1,
                PublishOutcome::Dropped => {}
            }
        }
        for i in 0..180u64 {
            hub.publish(&i.to_le_bytes()).unwrap();
        }
        let published = hub.next_seq() - 1;
        assert!(published >= 180 + remote_accepted);

        // Let every frame take its chances on the lossy wire, then heal
        // and flush with a sentinel so gap accounting is complete.
        wait_until("every frame attempted under loss", || {
            hub.stats().frames_sent() + hub.stats().frames_dropped() >= published
        });
        net.set_config(NetConfig::default());
        let sentinel = hub.publish(b"sentinel").unwrap();
        wait_until("monitored subscriber reaches the sentinel", || {
            sub_m.last_seq() == sentinel
        });
        assert!(
            hub.stats().frames_dropped() > 0,
            "seed {seed}: the sweep must actually lose frames to prove anything"
        );

        // Monitored: delivered ∪ lost tiles 1..=sentinel exactly — every
        // gap reported once, no overlap, no double-count.
        let delivered = monitored.delivered.lock().clone();
        let lost = monitored.lost.lock().clone();
        let mut covered: Vec<(u64, bool)> = delivered.iter().map(|&q| (q, false)).collect();
        for &(from, to) in &lost {
            assert!(from <= to, "seed {seed}: malformed gap report {from}..{to}");
            covered.extend((from..=to).map(|q| (q, true)));
        }
        covered.sort_unstable();
        let seqs: Vec<u64> = covered.iter().map(|&(q, _)| q).collect();
        assert_eq!(
            seqs,
            (1..=sentinel).collect::<Vec<_>>(),
            "seed {seed}: monitored accounting must tile the sequence space \
             (delivered {} + lost ranges {:?})",
            delivered.len(),
            lost,
        );
        assert_eq!(
            sub_m.delivered() + sub_m.lost_frames(),
            sentinel,
            "seed {seed}: counter accounting"
        );
        assert_eq!(sub_m.lost_reports(), lost.len() as u64, "seed {seed}");
        let mut in_order = delivered.clone();
        in_order.sort_unstable();
        assert_eq!(
            delivered, in_order,
            "seed {seed}: monitored delivery is ordered"
        );

        // Best-effort: no gap notifications ever, and what does arrive is
        // in order with no duplicates.
        assert!(
            best_effort.lost.lock().is_empty(),
            "seed {seed}: best-effort subscribers never hear about gaps"
        );
        let be = best_effort.delivered.lock().clone();
        assert!(
            be.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: best-effort delivery is ordered and duplicate-free"
        );
        assert!(be.iter().all(|&q| q >= 1 && q <= sentinel), "seed {seed}");
        drop(sub_m);
        drop(sub_b);
    }
}

/// The eviction leak proof, per seed: a slow subscriber evicted while the
/// wire is dropping frames leaves zero doors behind on either machine
/// beyond the network transport's own export-table pins.
#[test]
fn evicted_subscribers_leak_no_doors_under_loss() {
    record_seeds("pubsub_eviction_leaks", &SEEDS);
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let p = net.add_node("publisher-machine");
        let s = net.add_node("subscriber-machine");
        let server = pubsub_ctx(p.kernel(), "hub");
        let client = pubsub_ctx(s.kernel(), "subs");
        let base_p = live_ids(p.kernel());
        let base_s = live_ids(s.kernel());

        let cfg = TopicConfig {
            queue_bound: 4,
            backpressure: Duration::from_millis(2),
        };
        let (topic, hub) = PubSub::export(&server, "ticker", cfg).unwrap();
        let proxy = ship_object(&*net, topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

        // Separate subscriber hubs: the link is the isolation unit, so the
        // stalled sink needs its own callback door to be evictable alone.
        let shub_slow = SubscriberHub::new(&client);
        let shub_fast = SubscriberHub::new(&client);
        let slow = RecSink::new();
        slow.stall();
        let fast = RecSink::new();
        let slow_sub = shub_slow
            .subscribe(&proxy, DeliveryMode::BestEffort, slow.clone())
            .unwrap();
        let fast_sub = shub_fast
            .subscribe(&proxy, DeliveryMode::Monitored, fast.clone())
            .unwrap();

        net.reseed(seed);
        net.set_config(lossy());

        // Fill the slow link's queue past its bound while frames are being
        // lost; the backpressure window expires and the hub evicts. The
        // eviction itself is a publisher-side decision, observable there
        // even if the lossy wire eats the notification.
        //
        // Each publish waits for the links to be done with the one before
        // (a frame a link worker took ends up sent or dropped), so a queue
        // only ever grows behind a parked delivery: however late the host
        // schedules the fast link's worker, nothing but the stalled sink
        // can be found full when a backpressure window expires. The slow
        // link takes part until the first delivery that reaches its sink
        // parks its worker; the frames it finished before that are as many
        // as were published.
        let total = 40u64;
        let stats = hub.stats();
        let finished = || stats.frames_sent() + stats.frames_dropped();
        let mut slow_finished = None;
        for published in 1..=total {
            hub.publish(&published.to_le_bytes()).unwrap();
            wait_until("the links finish with a published frame", || {
                if slow.parked.load(Ordering::SeqCst) {
                    slow_finished.get_or_insert(published - 1);
                }
                finished() >= slow_finished.unwrap_or(published) + published
            });
        }
        wait_until("slow subscriber evicted under loss", || {
            stats.evictions() >= 1
        });
        slow.resume();

        // Heal, flush, and check the survivor accounts for everything.
        net.set_config(NetConfig::default());
        let sentinel = hub.publish(b"sentinel").unwrap();
        wait_until("fast subscriber reaches the sentinel", || {
            fast_sub.last_seq() == sentinel
        });
        assert_eq!(
            fast_sub.delivered() + fast_sub.lost_frames(),
            sentinel,
            "seed {seed}: the survivor saw no silent tail-drop"
        );
        assert!(!fast_sub.was_evicted(), "seed {seed}");
        wait_until("hub forgets the evicted subscriber", || {
            hub.subscriber_count() == 1 && hub.link_count() == 1
        });

        // Full teardown. The network transport's export/import tables keep
        // one pin per shipped door on each side (cross-net unreferenced is
        // not propagated by design): the topic door plus the two callback
        // doors make three per kernel. The eviction must add nothing to
        // that — zero doors leaked by the evicted subscriber on either
        // machine.
        drop(slow_sub);
        drop(fast_sub);
        drop(shub_slow);
        drop(shub_fast);
        drop(proxy);
        drop(hub);
        wait_until("publisher-side doors drain to the export pins", || {
            live_ids(p.kernel()) == base_p + 3
        });
        wait_until("subscriber-side doors drain to the export pins", || {
            live_ids(s.kernel()) == base_s + 3
        });
    }
}
