//! Fault-injection proof of at-most-once invocation.
//!
//! A deliberately non-idempotent append log is served across a lossy
//! simulated network, and a retrying client hammers it. Before the call
//! identity + reply cache existed, a reply lost on the wire made the
//! subcontract re-send an already-executed call, so the server applied it
//! twice. These tests sweep RNG seeds at `drop_prob = 0.3` and assert the
//! server-side application counter exactly matches the client's view of
//! successful calls — for both the reconnectable and the replicon
//! subcontract, with and without partitions forming mid-run.
//!
//! Each sweep appends its seeds to `target/exactly-once-seeds.txt` so a CI
//! failure can report exactly which seeds were exercised.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spring::core::{
    ship_object_copy, DomainCtx, Resolver, Result as SpringResult, SpringError, SpringObj, TypeInfo,
};
use spring::kernel::Kernel;
use spring::net::{NetConfig, Network};
use spring::services::{AppendLogClient, AppendLogServant, AppendLogState, APPEND_LOG_TYPE};
use spring::subcontracts::{
    register_standard, Reconnectable, ReplicaGroup, Replicon, RepliconServer, RetryPolicy,
};

/// The seeds every sweep runs; kept in one place so the recorded list in
/// `target/exactly-once-seeds.txt` matches what actually ran.
const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

/// Loss rate the issue demands the proof at.
const DROP_PROB: f64 = 0.3;

fn lossy() -> NetConfig {
    NetConfig {
        drop_prob: DROP_PROB,
        ..NetConfig::default()
    }
}

/// A retry policy tight enough to keep the sweep fast but with enough
/// budget that a call failing outright at `drop_prob = 0.3` is essentially
/// impossible (each attempt succeeds with probability ~0.49; thirty
/// failures in a row has probability ~2e-10).
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 30,
        interval: Duration::from_micros(200),
        max_interval: Duration::from_millis(2),
        deadline: Duration::from_secs(20),
    }
}

fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    ctx.types().register(&APPEND_LOG_TYPE);
    ctx
}

/// Records the seeds a sweep ran, for CI to upload on failure.
fn record_seeds(suite: &str, seeds: &[u64]) {
    let _ = std::fs::create_dir_all("target");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("target/exactly-once-seeds.txt")
    {
        let list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(f, "{suite}: drop_prob={DROP_PROB} seeds={}", list.join(","));
    }
}

/// A minimal name service for reconnection: bindings live in the server's
/// context and resolution ships a fresh copy over the network transport.
/// Object shipping rides the reliable stream (loss applies to invocation
/// traffic only), so re-resolve works even while calls are being dropped —
/// the same property a real name server on a TCP session would have.
struct NetNames {
    net: Arc<Network>,
    bound: Mutex<HashMap<String, SpringObj>>,
}

impl NetNames {
    fn new(net: Arc<Network>) -> Arc<NetNames> {
        Arc::new(NetNames {
            net,
            bound: Mutex::new(HashMap::new()),
        })
    }

    fn bind(&self, name: &str, obj: SpringObj) {
        self.bound.lock().insert(name.to_string(), obj);
    }

    fn resolver_for(self: &Arc<Self>, ctx: &Arc<DomainCtx>) -> Arc<dyn Resolver> {
        Arc::new(NetResolver {
            names: self.clone(),
            ctx: ctx.clone(),
        })
    }
}

struct NetResolver {
    names: Arc<NetNames>,
    ctx: Arc<DomainCtx>,
}

impl Resolver for NetResolver {
    fn resolve(&self, name: &str, expected: &'static TypeInfo) -> SpringResult<SpringObj> {
        let bound = self.names.bound.lock();
        let obj = bound
            .get(name)
            .ok_or(SpringError::Unsupported("name not bound"))?;
        ship_object_copy(&*self.names.net, obj, &self.ctx, expected)
    }
}

/// Checks the at-most-once invariant when some calls were *allowed* to
/// fail outright (tight budgets, partitions): every successful call
/// executed exactly once, and no call — successful or not — executed more
/// than once. A failed call may have executed once (an orphan: the server
/// ran it but every reply was lost); it must never have executed twice.
fn assert_at_most_once(seed: u64, state: &AppendLogState, succeeded: &[u64]) {
    let entries = state.entries();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &v in &entries {
        *counts.entry(v).or_insert(0) += 1;
    }
    for (&v, &c) in &counts {
        assert_eq!(
            c, 1,
            "seed {seed}: append {v} executed {c} times — retries double-executed",
        );
    }
    for &v in succeeded {
        assert!(
            counts.contains_key(&v),
            "seed {seed}: successful append {v} never reached the log",
        );
    }
    assert_eq!(state.applied(), entries.len() as u64);
}

/// Checks the exactly-once invariant: the server executed precisely the
/// calls the client saw succeed — no lost appends, no double-applies.
fn assert_exactly_once(seed: u64, state: &AppendLogState, succeeded: &[u64]) {
    assert_eq!(
        state.applied(),
        succeeded.len() as u64,
        "seed {seed}: server applied {} appends but the client saw {} succeed",
        state.applied(),
        succeeded.len(),
    );
    let mut entries = state.entries();
    entries.sort_unstable();
    let mut expected = succeeded.to_vec();
    expected.sort_unstable();
    assert_eq!(
        entries, expected,
        "seed {seed}: the log's contents must be exactly the successful appends, once each",
    );
}

/// The tentpole proof for the reconnectable subcontract: every attempt of
/// one logical call shares a nonce, so a retry whose predecessor executed
/// (reply lost on the wire) replays the cached reply instead of appending
/// again.
#[test]
fn reconnectable_appends_exactly_once_under_loss() {
    record_seeds("reconnectable_loss", &SEEDS);
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let server_node = net.add_node("server");
        let client_node = net.add_node("client");
        let server_ctx = ctx_on(server_node.kernel(), "append-server");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        client_ctx.register_subcontract(Reconnectable::with_policy(fast_policy()));

        let state = AppendLogState::new();
        let obj = Reconnectable::export(&server_ctx, AppendLogServant::new(state.clone()), "log")
            .unwrap();
        let names = NetNames::new(net.clone());
        client_ctx.set_resolver(names.resolver_for(&client_ctx));
        let client_obj = ship_object_copy(&*net, &obj, &client_ctx, &APPEND_LOG_TYPE).unwrap();
        names.bind("log", obj);
        let log = AppendLogClient(client_obj);

        net.reseed(seed);
        net.set_config(lossy());
        let mut succeeded = Vec::new();
        for value in 0..40u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }
        net.set_config(NetConfig::default());
        assert_exactly_once(seed, &state, &succeeded);
    }
}

/// The proof again after a reconnect onto a *singleton* door: the server
/// restarts and binds a plain singleton object under the name, the client
/// adopts its door and keeps stamping every attempt with the call's nonce —
/// which only deduplicates because the serve path honours call identity on
/// every door, singleton's included.
#[test]
fn adopted_singleton_door_appends_exactly_once_under_loss() {
    use spring::core::ServerSubcontract as _;
    use spring::subcontracts::Singleton;

    record_seeds("reconnectable_adopted_singleton_loss", &SEEDS);
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let server_node = net.add_node("server");
        let client_node = net.add_node("client");
        let gen1 = ctx_on(server_node.kernel(), "append-server-gen1");
        let gen2 = ctx_on(server_node.kernel(), "append-server-gen2");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        client_ctx.register_subcontract(Reconnectable::with_policy(fast_policy()));

        let state = AppendLogState::new();
        let obj =
            Reconnectable::export(&gen1, AppendLogServant::new(state.clone()), "log").unwrap();
        let names = NetNames::new(net.clone());
        client_ctx.set_resolver(names.resolver_for(&client_ctx));
        let log =
            AppendLogClient(ship_object_copy(&*net, &obj, &client_ctx, &APPEND_LOG_TYPE).unwrap());

        // Restart: generation one dies, generation two serves the same log
        // through a singleton door, and the first append adopts it.
        gen1.domain().crash();
        names.bind(
            "log",
            Singleton
                .export(&gen2, AppendLogServant::new(state.clone()))
                .unwrap(),
        );
        let mut succeeded = vec![1_000];
        log.append(1_000)
            .expect("reconnects onto the singleton door");

        net.reseed(seed);
        net.set_config(lossy());
        for value in 0..40u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }
        net.set_config(NetConfig::default());
        assert_exactly_once(seed, &state, &succeeded);
    }
}

/// The same proof for the replicon subcontract: three replicas on three
/// machines serve one shared log (standing in for the server-side state
/// synchronization the paper leaves to the service), and the group-shared
/// reply cache deduplicates a retry even when it fails over to a sibling
/// replica of the one that executed the first attempt.
#[test]
fn replicon_appends_exactly_once_under_loss() {
    record_seeds("replicon_loss", &SEEDS);
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let nodes: Vec<_> = (0..3).map(|i| net.add_node(format!("r{i}"))).collect();
        let client_node = net.add_node("client");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        client_ctx.register_subcontract(Replicon::with_policy(fast_policy()));

        let state = AppendLogState::new();
        let group = ReplicaGroup::with_transport(net.clone());
        for (i, node) in nodes.iter().enumerate() {
            let ctx = ctx_on(node.kernel(), &format!("replica-{i}"));
            group
                .add(RepliconServer::new(&ctx, AppendLogServant::new(state.clone())).unwrap())
                .unwrap();
        }
        let log = AppendLogClient(group.object_for(&client_ctx).unwrap());

        net.reseed(seed);
        net.set_config(lossy());
        let mut succeeded = Vec::new();
        for value in 0..40u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }
        net.set_config(NetConfig::default());
        assert_exactly_once(seed, &state, &succeeded);
    }
}

/// Property sweep: a partition forming mid-run and healing later never
/// breaks exactly-once, calls attempted into the partition fail within the
/// policy's budget (bounded attempts, deadline respected), and calls after
/// the heal succeed again.
#[test]
fn partitions_preserve_exactly_once_and_respect_budget() {
    record_seeds("reconnectable_partition", &SEEDS);
    // Tight budget so exhaustion against a partition is fast and its
    // wall-clock bound is easy to reason about.
    let policy = RetryPolicy {
        max_attempts: 6,
        interval: Duration::from_millis(1),
        max_interval: Duration::from_millis(4),
        deadline: Duration::from_secs(5),
    };
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let server_node = net.add_node("server");
        let client_node = net.add_node("client");
        let server_ctx = ctx_on(server_node.kernel(), "append-server");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        client_ctx.register_subcontract(Reconnectable::with_policy(policy));

        let state = AppendLogState::new();
        let obj = Reconnectable::export(&server_ctx, AppendLogServant::new(state.clone()), "log")
            .unwrap();
        let names = NetNames::new(net.clone());
        client_ctx.set_resolver(names.resolver_for(&client_ctx));
        let client_obj = ship_object_copy(&*net, &obj, &client_ctx, &APPEND_LOG_TYPE).unwrap();
        names.bind("log", obj);
        let log = AppendLogClient(client_obj);

        net.reseed(seed);
        net.set_config(lossy());
        let mut succeeded = Vec::new();
        for value in 0..10u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }

        // Cut the only route. Every attempt now fails, so the invocation
        // must exhaust its budget — within the policy deadline, not hang.
        net.partition(client_node.id(), server_node.id());
        let started = Instant::now();
        let err = log.append(1_000).expect_err("no route to the server");
        assert!(
            matches!(err, SpringError::Exhausted(_)),
            "seed {seed}: expected budget exhaustion, got {err:?}",
        );
        assert!(
            started.elapsed() < policy.deadline,
            "seed {seed}: a partitioned call must fail within the policy deadline, took {:?}",
            started.elapsed(),
        );

        // Heal and keep going: later calls succeed and the invariant holds
        // across the whole run.
        net.heal_all();
        for value in 10..20u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }
        net.set_config(NetConfig::default());
        assert_at_most_once(seed, &state, &succeeded);
    }
}

/// The replicon variant of the partition property: cutting the client off
/// from one replica fails over (no error, still exactly-once); cutting it
/// off from all replicas exhausts the budget in bounded time; healing
/// restores service.
#[test]
fn replicon_partitions_fail_over_then_exhaust_in_bounded_time() {
    record_seeds("replicon_partition", &SEEDS);
    let policy = RetryPolicy {
        max_attempts: 6,
        interval: Duration::from_millis(1),
        max_interval: Duration::from_millis(4),
        deadline: Duration::from_secs(5),
    };
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let nodes: Vec<_> = (0..3).map(|i| net.add_node(format!("r{i}"))).collect();
        let client_node = net.add_node("client");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        client_ctx.register_subcontract(Replicon::with_policy(policy));

        let state = AppendLogState::new();
        let group = ReplicaGroup::with_transport(net.clone());
        for (i, node) in nodes.iter().enumerate() {
            let ctx = ctx_on(node.kernel(), &format!("replica-{i}"));
            group
                .add(RepliconServer::new(&ctx, AppendLogServant::new(state.clone())).unwrap())
                .unwrap();
        }
        let log = AppendLogClient(group.object_for(&client_ctx).unwrap());

        net.reseed(seed);
        net.set_config(lossy());
        let mut succeeded = Vec::new();
        for value in 0..10u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }

        // One replica unreachable: failover absorbs it.
        net.partition(client_node.id(), nodes[0].id());
        for value in 10..15u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }

        // All replicas unreachable: bounded-time exhaustion.
        for node in &nodes {
            net.partition(client_node.id(), node.id());
        }
        let started = Instant::now();
        let err = log.append(1_000).expect_err("no route to any replica");
        assert!(
            matches!(err, SpringError::Exhausted(_)),
            "seed {seed}: expected budget exhaustion, got {err:?}",
        );
        assert!(
            started.elapsed() < policy.deadline,
            "seed {seed}: partitioned invocation must fail within the deadline, took {:?}",
            started.elapsed(),
        );

        net.heal_all();
        for value in 15..25u64 {
            if log.append(value).is_ok() {
                succeeded.push(value);
            }
        }
        net.set_config(NetConfig::default());
        assert_at_most_once(seed, &state, &succeeded);
    }
}

/// Calls that carry no identity must not hit the dedup machinery at all:
/// two identical plain calls both execute (the pre-existing at-least-once
/// contract for ordinary subcontracts is unchanged).
#[test]
fn identity_free_calls_are_untouched_by_dedup() {
    let kernel = Kernel::new("solo");
    let ctx = ctx_on(&kernel, "server");
    let state = AppendLogState::new();
    let obj = Reconnectable::export(&ctx, AppendLogServant::new(state.clone()), "log").unwrap();
    let log = AppendLogClient(obj);
    // Same-domain calls still run through the reconnectable invoke path and
    // therefore carry a call identity per logical call; two *separate*
    // logical calls with equal payloads must both execute.
    assert_eq!(log.append(7).unwrap(), 1);
    assert_eq!(log.append(7).unwrap(), 2);
    assert_eq!(state.applied(), 2);
    assert_eq!(state.entries(), vec![7, 7]);
}

/// The pipelined variant of the exactly-once proof: bursts of overlapping
/// asynchronous appends, issued through the pipeline subcontract over the
/// same lossy network. Batching may put several in-flight attempts in one
/// wire frame (one loss roll kills all of them at once), and each call's
/// retry loop runs on a worker thread — yet every attempt of one logical
/// call still shares its nonce, so the server-side reply cache must keep
/// the log exactly equal to the set of successful appends.
#[test]
fn pipelined_bursts_append_exactly_once_under_loss() {
    use spring::core::{decode_reply_status, op_hash, ReplyStatus};
    use spring::subcontracts::Pipeline;

    const BURSTS: u64 = 5;
    const BURST: u64 = 8;

    record_seeds("pipeline_loss", &SEEDS);
    for seed in SEEDS {
        let net = Network::new(NetConfig::default());
        let server_node = net.add_node("server");
        let client_node = net.add_node("client");
        let server_ctx = ctx_on(server_node.kernel(), "append-server");
        let client_ctx = ctx_on(client_node.kernel(), "client");
        client_ctx.register_subcontract(Pipeline::with_policy(fast_policy()));

        let state = AppendLogState::new();
        let obj = Pipeline::export(&server_ctx, AppendLogServant::new(state.clone())).unwrap();
        let client_obj = ship_object_copy(&*net, &obj, &client_ctx, &APPEND_LOG_TYPE).unwrap();

        net.reseed(seed);
        net.set_config(lossy());
        let mut succeeded = Vec::new();
        for burst in 0..BURSTS {
            let promises: Vec<_> = (0..BURST)
                .map(|i| {
                    let value = burst * BURST + i;
                    let mut call = client_obj.start_call(op_hash("append")).unwrap();
                    call.put_u64(value);
                    (value, Pipeline::invoke_async(&client_obj, call).unwrap())
                })
                .collect();
            for (value, promise) in promises {
                let ok = promise.wait().is_ok_and(|mut reply| {
                    matches!(decode_reply_status(&mut reply), Ok(ReplyStatus::Ok))
                });
                if ok {
                    succeeded.push(value);
                }
            }
        }
        net.set_config(NetConfig::default());
        assert_exactly_once(seed, &state, &succeeded);
    }
}
