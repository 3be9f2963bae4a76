//! Distributed-trace propagation across machines and through fault
//! injection.
//!
//! The trace context travels in the message envelope — the same side
//! channel subcontracts use for their own dialogue (§5, §7) — so one trace
//! id must span the client's stub, the proxy door, both network hops, and
//! the server's door, with no change to any stub. With a drop injected on
//! the first attempt, the reconnectable retry must appear as a failed
//! sibling span next to the attempt that succeeded.

use std::sync::Arc;
use std::time::Duration;

use spring::buf::CommBuffer;
use spring::core::{
    decode_reply_status, encode_ok, op_hash, ship_object, ship_object_copy, Dispatch, DomainCtx,
    Resolver, Result, ServerCtx, SpringError, SpringObj, TypeInfo, OBJECT_TYPE,
};
use spring::kernel::Kernel;
use spring::net::{NetConfig, Network};
use spring::subcontracts::{register_standard, Reconnectable, RetryPolicy};
use spring::trace::SpanNode;

/// Tracing state is process-global; run the tests in this binary one at a
/// time.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

static PINGER_TYPE: TypeInfo = TypeInfo {
    name: "trace-test-pinger",
    parents: &[&OBJECT_TYPE],
    default_subcontract: spring::subcontracts::Singleton::ID,
};

struct Pinger;

impl Dispatch for Pinger {
    fn type_info(&self) -> &'static TypeInfo {
        &PINGER_TYPE
    }
    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        if op == op_hash("ping") {
            encode_ok(reply);
            Ok(())
        } else {
            Err(SpringError::UnknownOp(op))
        }
    }
}

fn ping(obj: &SpringObj) -> Result<()> {
    let call = obj.start_call(op_hash("ping"))?;
    let mut reply = obj.invoke(call)?;
    decode_reply_status(&mut reply).map(|_| ())
}

fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    ctx.register_subcontract(Reconnectable::with_policy(RetryPolicy {
        max_attempts: 4,
        interval: Duration::from_millis(1),
        ..RetryPolicy::default()
    }));
    ctx
}

/// Between reconnect attempts the subcontract re-resolves the object name;
/// this resolver also heals the network, so the drop injected for the
/// first attempt deterministically ends before the retry.
struct HealingResolver {
    net: Arc<Network>,
    source: SpringObj,
    ctx: Arc<DomainCtx>,
}

impl Resolver for HealingResolver {
    fn resolve(&self, _name: &str, expected: &'static TypeInfo) -> Result<SpringObj> {
        self.net.set_config(NetConfig::default());
        ship_object_copy(&*self.net, &self.source, &self.ctx, expected)
    }
}

/// Every node in the subtree whose key matches.
fn find<'a>(nodes: &'a [SpanNode], key: &str, out: &mut Vec<&'a SpanNode>) {
    for n in nodes {
        if n.event.key == key {
            out.push(n);
        }
        find(&n.children, key, out);
    }
}

fn find_all<'a>(roots: &'a [SpanNode], key: &str) -> Vec<&'a SpanNode> {
    let mut out = Vec::new();
    find(roots, key, &mut out);
    out
}

#[test]
fn one_trace_spans_all_hops_and_retry_is_a_failed_sibling() {
    let _gate = GATE.lock().unwrap();
    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("server-machine");
    let client_node = net.add_node("client-machine");
    let server_ctx = ctx_on(server_node.kernel(), "server");
    let client_ctx = ctx_on(client_node.kernel(), "client");

    let obj = Reconnectable::export(&server_ctx, Arc::new(Pinger), "svc").unwrap();
    let source = obj.copy().unwrap();
    let client_obj = ship_object(&*net, obj, &client_ctx, &PINGER_TYPE).unwrap();
    client_ctx.set_resolver(Arc::new(HealingResolver {
        net: net.clone(),
        source,
        ctx: client_ctx.clone(),
    }));

    // Drop every invocation message until the resolver heals the network.
    net.set_config(NetConfig {
        drop_prob: 1.0,
        ..NetConfig::default()
    });
    spring::trace::reset();
    spring::trace::set_enabled(true);
    let outcome = ping(&client_obj);
    spring::trace::set_enabled(false);
    outcome.unwrap();

    let forest = spring::trace::span_forest();
    assert_eq!(
        forest.len(),
        1,
        "everything the call touched shares one trace: {}",
        spring::trace::render_text()
    );
    let (_, roots) = &forest[0];
    assert_eq!(roots.len(), 1, "a single root span");
    let root = &roots[0];
    assert_eq!(
        root.event.key, "invoke",
        "the client stub's span is the root"
    );
    assert!(
        root.size() >= 4,
        "a cross-machine call is at least stub -> door -> forward -> hop:\n{}",
        spring::trace::render_text()
    );

    // The injected drop shows up as a failed attempt next to the retry
    // that succeeded — siblings under the same parent.
    let attempts = find_all(roots, "reconnectable.attempt");
    assert_eq!(attempts.len(), 2, "one failed attempt, one retry");
    assert!(attempts[0].event.failed && !attempts[1].event.failed);
    assert_eq!(attempts[0].event.parent, root.event.span);
    assert_eq!(attempts[1].event.parent, root.event.span);
    assert!(
        !find_all(std::slice::from_ref(attempts[0]), "net.hop")
            .iter()
            .any(|h| !h.event.failed),
        "no hop under the dropped attempt succeeded"
    );
    assert!(
        find_all(std::slice::from_ref(attempts[0]), "net.hop")[0]
            .event
            .failed,
        "the drop is recorded as a failed hop"
    );

    // The successful attempt crosses the network: its subtree holds door
    // calls on both machines, the server's parented (via the piggybacked
    // envelope header) under the forwarding span.
    let winner = std::slice::from_ref(attempts[1]);
    let doors = find_all(winner, "door_call");
    let client_node_id = client_node.id().raw();
    let server_node_id = server_node.id().raw();
    assert!(
        doors.iter().any(|d| d.event.scope >> 32 == client_node_id),
        "proxy door call on the client machine"
    );
    let server_door = doors
        .iter()
        .find(|d| d.event.scope >> 32 == server_node_id)
        .expect("door call on the server machine");
    let forward = &find_all(winner, "net.forward")[0];
    assert_eq!(
        server_door.event.parent, forward.event.span,
        "the server-side door call reattaches under the network forward"
    );
    assert!(
        find_all(winner, "net.hop").len() >= 2,
        "request and reply hops both recorded"
    );
    let serve = &find_all(winner, "reconnectable.serve")[0];
    assert_eq!(
        serve.event.parent, server_door.event.span,
        "the server-side subcontract span nests in the server door call"
    );
    assert_eq!(serve.event.scope >> 32, server_node_id);
}

/// A reply served out of the cache's memo must stay inside the caller's
/// trace: the memoised bytes were recorded under the *original* miss's
/// envelope, so replaying them used to hand the caller a reply stamped with
/// a foreign (already-finished) trace context, disconnecting the hit from
/// the invocation that asked for it.
#[test]
fn cache_hits_stay_in_the_callers_trace() {
    let _gate = GATE.lock().unwrap();
    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("file-machine");
    let client_node = net.add_node("cache-machine");
    let server_ctx = ctx_on(server_node.kernel(), "fileserver");
    let client_ctx = ctx_on(client_node.kernel(), "client");
    let mgr_ctx = ctx_on(client_node.kernel(), "manager");
    spring::services::register_fs_types(&client_ctx);

    let fileserver = spring::services::FileServer::new(&server_ctx, "cache_manager");
    fileserver.put("data", b"memoised contents");
    let obj = fileserver.export_cacheable("data").unwrap();

    let manager = spring::services::file_cache_manager(&mgr_ctx);
    client_ctx.set_resolver(Arc::new(HealingResolver {
        net: net.clone(),
        source: manager.export().unwrap(),
        ctx: client_ctx.clone(),
    }));
    let shipped = ship_object(
        &*net,
        obj,
        &client_ctx,
        &spring::services::fs::CACHEABLE_FILE_TYPE,
    )
    .unwrap();
    let file = spring::services::fs::CacheableFile::from_obj(shipped).unwrap();

    // First read misses and populates the memo; untraced warm-up.
    assert_eq!(file.read(0, 8).unwrap(), b"memoised");

    spring::trace::reset();
    spring::trace::set_enabled(true);
    let outcome = file.read(0, 8);
    spring::trace::set_enabled(false);
    assert_eq!(outcome.unwrap(), b"memoised");

    let forest = spring::trace::span_forest();
    assert_eq!(
        forest.len(),
        1,
        "the memo replay must not introduce a second trace: {}",
        spring::trace::render_text()
    );
    let (_, roots) = &forest[0];
    assert_eq!(roots.len(), 1, "a single root span");
    let root = &roots[0];
    assert_eq!(
        root.event.key, "invoke",
        "the client stub's span is the root"
    );

    // The hit is recorded on the caching machine, inside this trace —
    // nested under the local door call into the cache servant.
    let hits = find_all(roots, "caching.hit");
    assert_eq!(
        hits.len(),
        1,
        "the second read is served from the memo:\n{}",
        spring::trace::render_text()
    );
    let client_node_id = client_node.id().raw();
    assert_eq!(hits[0].event.scope >> 32, client_node_id);
    let doors = find_all(roots, "door_call");
    assert!(
        doors
            .iter()
            .any(|d| d.event.span == hits[0].event.parent && d.event.scope >> 32 == client_node_id),
        "the hit nests in the door call on the caching machine:\n{}",
        spring::trace::render_text()
    );

    // Nothing reached the file server: no server-side dispatch span, and no
    // span at all recorded on the server machine.
    assert!(find_all(roots, "caching.serve").is_empty());
    let server_node_id = server_node.id().raw();
    fn all<'a>(nodes: &'a [SpanNode], out: &mut Vec<&'a SpanNode>) {
        for n in nodes {
            out.push(n);
            all(&n.children, out);
        }
    }
    let mut every = Vec::new();
    all(roots, &mut every);
    assert!(
        every.iter().all(|n| n.event.scope >> 32 != server_node_id),
        "a memo hit must not touch the server machine:\n{}",
        spring::trace::render_text()
    );
}

#[test]
fn disabled_tracing_records_nothing() {
    let _gate = GATE.lock().unwrap();
    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("sa");
    let client_node = net.add_node("sb");
    let server_ctx = ctx_on(server_node.kernel(), "server");
    let client_ctx = ctx_on(client_node.kernel(), "client");

    let obj = Reconnectable::export(&server_ctx, Arc::new(Pinger), "svc2").unwrap();
    let client_obj = ship_object(&*net, obj, &client_ctx, &PINGER_TYPE).unwrap();

    spring::trace::reset();
    assert!(!spring::trace::enabled());
    for _ in 0..10 {
        ping(&client_obj).unwrap();
    }
    assert!(
        spring::trace::span_forest().is_empty(),
        "no spans recorded while tracing is off"
    );
}

/// A pipelined burst stays inside the caller's trace even though every
/// call runs on a worker thread and several calls share wire frames: each
/// async invocation records a `pipeline.attempt` span parented under the
/// span that was current when it was issued, each server-side door call
/// reattaches under its own call's `net.forward` (per-call identity
/// survives the shared frame), and the `net.batch` spans' scids — the
/// per-frame call counts — sum to exactly the number of calls issued.
#[test]
fn pipelined_burst_spans_parent_under_the_issuing_span() {
    let _gate = GATE.lock().unwrap();
    use spring::subcontracts::Pipeline;
    const CALLS: usize = 4;

    let net = Network::new(NetConfig {
        // Generous linger so the burst coalesces; flushing still happens
        // when the company the calls report is aboard, not by waiting this
        // out.
        batch_linger: Duration::from_millis(20),
        ..NetConfig::default()
    });
    let server_node = net.add_node("pipe-server");
    let client_node = net.add_node("pipe-client");
    let server_ctx = ctx_on(server_node.kernel(), "server");
    let client_ctx = ctx_on(client_node.kernel(), "client");

    let obj = Pipeline::export(&server_ctx, Arc::new(Pinger)).unwrap();
    let client_obj = ship_object(&*net, obj, &client_ctx, &PINGER_TYPE).unwrap();

    // Untraced warm-up spawns the worker pool.
    let warm: Vec<_> = (0..CALLS)
        .map(|_| {
            let call = client_obj.start_call(op_hash("ping")).unwrap();
            Pipeline::invoke_async(&client_obj, call).unwrap()
        })
        .collect();
    for p in warm {
        p.wait().unwrap();
    }

    spring::trace::reset();
    spring::trace::set_enabled(true);
    {
        // The burst is issued under an explicit root, standing in for the
        // application span a real caller would hold.
        let _root = spring::trace::span_start("burst.root", 0, 0);
        let promises: Vec<_> = (0..CALLS)
            .map(|_| {
                let call = client_obj.start_call(op_hash("ping")).unwrap();
                Pipeline::invoke_async(&client_obj, call).unwrap()
            })
            .collect();
        for p in promises {
            p.wait().unwrap();
        }
    }
    spring::trace::set_enabled(false);

    let forest = spring::trace::span_forest();
    assert_eq!(
        forest.len(),
        1,
        "worker threads and shared frames must not split the trace: {}",
        spring::trace::render_text()
    );
    let (_, roots) = &forest[0];
    assert_eq!(roots.len(), 1, "a single root span");
    let root = &roots[0];
    assert_eq!(root.event.key, "burst.root");

    let attempts = find_all(roots, "pipeline.attempt");
    assert_eq!(
        attempts.len(),
        CALLS,
        "one attempt span per pipelined call:\n{}",
        spring::trace::render_text()
    );
    for attempt in &attempts {
        assert!(!attempt.event.failed, "no faults were injected");
        assert_eq!(
            attempt.event.parent, root.event.span,
            "attempts parent under the span current at issue time"
        );
        // Per-call identity survives the shared frame: this call's
        // server-side door call reattaches under this call's forward span.
        let subtree = std::slice::from_ref(*attempt);
        let forward = &find_all(subtree, "net.forward")[0];
        let server_node_id = server_node.id().raw();
        let server_door = find_all(roots, "door_call")
            .into_iter()
            .any(|d| d.event.scope >> 32 == server_node_id && d.event.parent == forward.event.span);
        assert!(
            server_door,
            "each attempt's server door call parents under its own forward:\n{}",
            spring::trace::render_text()
        );
    }

    // The frame spans carry their call counts; however the burst split,
    // every call rode exactly one frame.
    let batches = find_all(roots, "net.batch");
    assert!(
        !batches.is_empty() && batches.len() <= CALLS,
        "between one and {CALLS} frames:\n{}",
        spring::trace::render_text()
    );
    let total: u64 = batches.iter().map(|b| b.event.scid).sum();
    assert_eq!(
        total,
        CALLS as u64,
        "frame call counts must sum to the burst size:\n{}",
        spring::trace::render_text()
    );
}

/// Over a Unix-domain socket the envelope travels as bytes: the serving
/// side's `door_call` is a child in the caller's trace, under the forward
/// that shipped it, and a call identity's nonce and attempt arrive intact.
#[test]
fn the_envelope_crosses_a_unix_socket() {
    use spring::kernel::callid::{deadline_after, next_nonce};
    use spring::kernel::{CallCtx, CallId, DoorError, Message};

    let _gate = GATE.lock().unwrap();
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("uds-server", 901);
    let servants = server_node.kernel().create_domain("servants");
    let arrived = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = arrived.clone();
    let door = servants
        .create_door(Arc::new(
            move |_: &CallCtx, msg: Message| -> std::result::Result<Message, DoorError> {
                seen.lock().unwrap().push(msg.call);
                Ok(Message::from_bytes(msg.bytes))
            },
        ))
        .unwrap();
    server_net
        .set_bootstrap(server_node.id(), &servants, door)
        .unwrap();
    let path = std::env::temp_dir()
        .join(format!("spring-trace-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&path);
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("uds-client", 902);
    let client = client_node.kernel().create_domain("client");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let id = CallId {
        nonce: next_nonce(),
        attempt: 3,
        deadline_micros: deadline_after(Duration::from_secs(60)),
    };
    spring::trace::reset();
    spring::trace::set_enabled(true);
    let root = spring::trace::span_start("uds.root", 0, 0);
    let trace = root.ctx().trace;
    let outcome = client.call(
        remote,
        Message {
            bytes: vec![1, 2, 3],
            call: id,
            ..Message::default()
        },
    );
    drop(root);
    spring::trace::set_enabled(false);
    assert_eq!(outcome.unwrap().bytes, vec![1, 2, 3]);

    let forest = spring::trace::span_forest();
    let (_, roots) = forest
        .iter()
        .find(|(t, _)| *t == trace)
        .expect("the caller's trace was recorded");
    let forward = find_all(roots, "net.forward");
    assert_eq!(forward.len(), 1, "{}", spring::trace::render_text());
    assert_eq!(forward[0].event.scope >> 32, 902);
    let served = find_all(roots, "door_call")
        .into_iter()
        .find(|d| d.event.scope >> 32 == 901)
        .unwrap_or_else(|| {
            panic!(
                "no serving-side door call in the caller's trace:\n{}",
                spring::trace::render_text()
            )
        });
    assert_eq!(served.event.parent, forward[0].event.span);

    let arrived = arrived.lock().unwrap();
    assert_eq!(arrived.len(), 1);
    assert_eq!((arrived[0].nonce, arrived[0].attempt), (id.nonce, 3));
    // Sent as the time left and re-anchored on arrival: never earlier
    // than the caller's deadline, later only by the transit time.
    assert!(arrived[0].deadline_micros >= id.deadline_micros);
    drop(peer);
    let _ = std::fs::remove_file(&path);
}
