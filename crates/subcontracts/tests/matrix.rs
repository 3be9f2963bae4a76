//! Uniform-model conformance matrix (paper §8.5): every subcontract, the
//! same battery. "The basic subcontract interfaces are sufficiently general
//! that they can accommodate a wide range of possible solutions, while still
//! providing a uniform application model."
//!
//! The second half of the battery has one column per layer of the serve path
//! (`subcontract::ServeDoor`): whatever a subcontract's control region looks
//! like, its server door opens a serve span, honours call identity, refuses
//! to replay a reply that moved a door, rejects a broken control region as
//! an error, and builds its reply in a pooled buffer.
//!
//! The last part is the client column (`subcontract::client`): the marshalled
//! form of every subject is pinned byte for byte, a form cut short at any
//! offset strands no door identifier, copies consume back to the baseline,
//! and `marshal_copy` is `copy` then `marshal` without the copy (§5.1.5).

mod common;

use std::any::Any;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{ctx_on, live, ship, CounterClient, CounterServant, TestNames, COUNTER_TYPE, OP_GET};
use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::callid::next_nonce;
use spring_kernel::{CallCtx, CallId, DoorError, DoorHandler, DoorId, Kernel, Message};
use spring_subcontracts::priority::Priority;
use spring_subcontracts::stream::Stream;
use spring_subcontracts::txn::Txn;
use spring_subcontracts::{
    CacheManager, Caching, ClusterServer, Pipeline, PubSub, Reconnectable, ReplicaGroup,
    RepliconServer, Shmem, Simplex, Singleton, TopicConfig, PUBSUB_TOPIC_TYPE,
};
use subcontract::{
    op_hash, put_obj_header, unmarshal_object, Dispatch, DomainCtx, ScId, ServerCtx,
    ServerSubcontract, SpringError, SpringObj, TypeInfo,
};

/// Two columns flip process-wide state (the tracer switch, the buffer-pool
/// counters), so the tests of this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// One subcontract's entry: its name, an exported counter object starting at
/// 10, and whatever must stay alive for it to keep working.
struct Subject {
    name: &'static str,
    obj: SpringObj,
    #[allow(dead_code)]
    keep_alive: Vec<Box<dyn Any>>,
}

/// Builds one subject per subcontract, plus the client context objects are
/// shipped into for the battery.
fn subjects(kernel: &Kernel) -> (Vec<Subject>, Arc<DomainCtx>) {
    subjects_serving(kernel, &|| CounterServant::new(10))
}

/// [`subjects`] over servants of the caller's choosing (one per subject).
fn subjects_serving(
    kernel: &Kernel,
    servant: &dyn Fn() -> Arc<dyn Dispatch>,
) -> (Vec<Subject>, Arc<DomainCtx>) {
    let server = ctx_on(kernel, "server");
    let client = ctx_on(kernel, "client");
    for ctx in [&server, &client] {
        ctx.register_subcontract(Priority::new());
        ctx.register_subcontract(Txn::new());
        ctx.register_subcontract(Stream::new());
    }

    // The caching subject needs a machine-local cache manager.
    let names = TestNames::new();
    let mgr_ctx = ctx_on(kernel, "manager");
    let manager = CacheManager::new(&mgr_ctx, [OP_GET]);
    names.bind("cache_manager", manager.export().unwrap());
    client.set_resolver(names.resolver_for(&client));
    server.set_resolver(names.resolver_for(&server));

    let mut subjects = Vec::new();
    let mut add = |name, obj: SpringObj, keep: Vec<Box<dyn Any>>| {
        subjects.push(Subject {
            name,
            obj,
            keep_alive: keep,
        })
    };

    add(
        "singleton",
        Singleton.export(&server, servant()).unwrap(),
        vec![],
    );
    add(
        "simplex",
        Simplex.export(&server, servant()).unwrap(),
        vec![],
    );
    add(
        "simplex-local",
        Simplex::export_local(&server, servant()).unwrap(),
        vec![],
    );
    {
        let cluster = ClusterServer::new(&server).unwrap();
        add(
            "cluster",
            cluster.export(servant()).unwrap(),
            vec![Box::new(cluster)],
        );
    }
    {
        let group = ReplicaGroup::new();
        let servant = servant();
        for i in 0..2 {
            let ctx = ctx_on(kernel, &format!("replica-{i}"));
            group
                .add(RepliconServer::new(&ctx, servant.clone()).unwrap())
                .unwrap();
        }
        let obj = group.object_for(&server).unwrap();
        add("replicon", obj, vec![Box::new(group)]);
    }
    add(
        "caching",
        Caching::export(&server, servant(), "cache_manager").unwrap(),
        vec![Box::new(manager)],
    );
    add(
        "reconnectable",
        Reconnectable::export(&server, servant(), "svc/x").unwrap(),
        vec![],
    );
    add(
        "pipeline",
        Pipeline::export(&server, servant()).unwrap(),
        vec![],
    );
    add(
        "shmem",
        Shmem::export(&server, servant(), 4096).unwrap(),
        vec![],
    );
    add(
        "priority",
        Priority.export(&server, servant()).unwrap(),
        vec![],
    );
    {
        let (obj, stats) = Txn::export_with_journal(&server, servant()).unwrap();
        add("txn", obj, vec![Box::new(stats)]);
    }
    {
        let (obj, stats) =
            Stream::export(&server, servant(), Arc::new(|_: u64, _: &[u8]| {})).unwrap();
        add("stream", obj, vec![Box::new(stats)]);
    }

    (subjects, client)
}

#[test]
fn every_subcontract_invokes_uniformly() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client) = subjects(&kernel);
    for s in subjects {
        let c = CounterClient(s.obj);
        assert_eq!(c.get().unwrap(), 10, "{}: get", s.name);
        assert_eq!(c.add(1).unwrap(), 11, "{}: add", s.name);
        assert_eq!(c.echo(b"abc").unwrap(), b"abc", "{}: echo", s.name);
    }
}

#[test]
fn every_subcontract_copies_sharing_state() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client) = subjects(&kernel);
    for s in subjects {
        let copy = CounterClient(s.obj.copy().unwrap_or_else(|e| {
            panic!("{}: copy failed: {e}", s.name);
        }));
        let orig = CounterClient(s.obj);
        orig.add(5).unwrap();
        assert_eq!(copy.get().unwrap(), 15, "{}: copy shares state", s.name);
        copy.0.consume().unwrap();
        assert_eq!(orig.get().unwrap(), 15, "{}: original survives", s.name);
    }
}

#[test]
fn every_subcontract_marshals_roundtrip() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, client) = subjects(&kernel);
    for s in subjects {
        let moved = ship(s.obj, &client, &COUNTER_TYPE)
            .unwrap_or_else(|e| panic!("{}: ship failed: {e}", s.name));
        assert_eq!(
            moved.subcontract().name(),
            if s.name.starts_with("simplex") {
                "simplex"
            } else {
                s.name
            },
            "{}: subcontract survives marshalling",
            s.name
        );
        assert_eq!(
            CounterClient(moved).get().unwrap(),
            10,
            "{}: works after move",
            s.name
        );
    }
}

#[test]
fn every_subcontract_consumes_cleanly() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client) = subjects(&kernel);
    for s in subjects {
        s.obj
            .consume()
            .unwrap_or_else(|e| panic!("{}: consume failed: {e}", s.name));
    }
}

#[test]
fn every_subcontract_reports_unknown_ops() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client) = subjects(&kernel);
    for s in subjects {
        let call = s.obj.start_call(0xDEAD_FACE).unwrap();
        let mut reply = s.obj.invoke(call).unwrap();
        match subcontract::decode_reply_status(&mut reply) {
            Err(SpringError::UnknownOp(op)) => assert_eq!(op, 0xDEAD_FACE, "{}", s.name),
            other => panic!("{}: expected unknown op, got {other:?}", s.name),
        }
    }
}

// ---- One column per layer of the serve path -------------------------------

const OP_HALF: u32 = op_hash("half");
const OP_MINT: u32 = op_hash("mint");

/// A counter that also counts its executions and misbehaves on request:
/// `half` fails after starting its reply (a transport-level dispatch error),
/// `mint` answers with a freshly created door.
struct Probe {
    counter: Arc<CounterServant>,
    executions: Arc<AtomicU64>,
}

impl Dispatch for Probe {
    fn type_info(&self) -> &'static TypeInfo {
        &COUNTER_TYPE
    }

    fn dispatch(
        &self,
        sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> subcontract::Result<()> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        match op {
            OP_HALF => {
                reply.put_u8(0);
                Err(SpringError::Remote("gave up half way".into()))
            }
            OP_MINT => {
                let nop = Arc::new(|_: &CallCtx, m: Message| Ok(m));
                let door = sctx.ctx.domain().create_door(nop)?;
                subcontract::encode_ok(reply);
                reply.put_door(door);
                Ok(())
            }
            _ => self.counter.dispatch(sctx, op, args, reply),
        }
    }
}

/// Subjects served by [`Probe`]s that all add to one execution count.
fn probed(kernel: &Kernel) -> (Vec<Subject>, Arc<DomainCtx>, Arc<AtomicU64>) {
    let executions = Arc::new(AtomicU64::new(0));
    let (subjects, client) = subjects_serving(kernel, &|| {
        Arc::new(Probe {
            counter: CounterServant::new(10),
            executions: executions.clone(),
        })
    });
    (subjects, client, executions)
}

/// The span key a subject's server door records under.
fn serve_span(name: &str) -> String {
    format!("{}.serve", name.strip_suffix("-local").unwrap_or(name))
}

/// Marshals `obj` and hands back the wire form with its door identifiers
/// (owned by the object's domain); the first is the subject's server door.
fn disassemble(obj: SpringObj) -> (Arc<DomainCtx>, Message) {
    let ctx = obj.ctx().clone();
    let mut buf = CommBuffer::new();
    obj.marshal(&mut buf).unwrap();
    (ctx, buf.into_message())
}

/// A relay that delivers every call to `target` twice under one call
/// identity (stamping one where the client side sent none), the way a
/// retrying client whose first reply was lost would, and answers with the
/// second outcome.
struct Twice {
    target: DoorId,
}

impl DoorHandler for Twice {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let mut call = msg.call;
        if call.is_none() {
            call = CallId {
                nonce: next_nonce(),
                attempt: 1,
                deadline_micros: 0,
            };
        }
        let first = Message {
            bytes: msg.bytes.clone(),
            call,
            ..Message::default()
        };
        for door in ctx.server().call(self.target, first)?.doors {
            ctx.server().delete_door(door)?;
        }
        call.attempt += 1;
        ctx.server().call(self.target, Message { call, ..msg })
    }
}

/// Moves `obj` into `client` with a [`Twice`] relay spliced in front of its
/// server door.
fn behind_relay(kernel: &Kernel, obj: SpringObj, client: &Arc<DomainCtx>) -> SpringObj {
    let relay = kernel.create_domain("relay");
    let (from, mut msg) = disassemble(obj);
    let target = from.domain().transfer_door(msg.doors[0], &relay).unwrap();
    msg.doors[0] = relay.create_door(Arc::new(Twice { target })).unwrap();
    for (i, door) in msg.doors.iter_mut().enumerate() {
        let owner = if i == 0 { &relay } else { from.domain() };
        *door = owner.transfer_door(*door, client.domain()).unwrap();
    }
    unmarshal_object(client, &COUNTER_TYPE, &mut CommBuffer::from_message(msg)).unwrap()
}

/// Every recorded span under `key`, as its `failed` flag.
fn spans_under(key: &str) -> Vec<bool> {
    fn walk(node: &spring_trace::SpanNode, key: &str, out: &mut Vec<bool>) {
        if node.event.key == key {
            out.push(node.event.failed);
        }
        for child in &node.children {
            walk(child, key, out);
        }
    }
    let mut out = Vec::new();
    for (_, roots) in spring_trace::span_forest() {
        for root in &roots {
            walk(root, key, &mut out);
        }
    }
    out
}

#[test]
fn every_server_door_opens_a_serve_span_and_fails_it_on_a_dispatch_error() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client, _) = probed(&kernel);
    for s in subjects {
        let key = serve_span(s.name);
        spring_trace::reset();
        spring_trace::set_enabled(true);
        let served = CounterClient(s.obj.copy().unwrap()).get();
        let broken = s.obj.invoke(s.obj.start_call(OP_HALF).unwrap());
        spring_trace::set_enabled(false);
        assert_eq!(served.unwrap(), 10, "{}", s.name);
        assert!(
            matches!(broken, Err(SpringError::Door(DoorError::Handler(_)))),
            "{}: {broken:?}",
            s.name
        );
        assert_eq!(spans_under(&key), [false, true], "{}: {key}", s.name);
    }
    spring_trace::reset();
}

#[test]
fn every_server_door_answers_a_repeated_call_id_without_reexecuting() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, client, executions) = probed(&kernel);
    for s in subjects {
        let c = CounterClient(behind_relay(&kernel, s.obj, &client));
        let before = executions.load(Ordering::SeqCst);
        assert_eq!(c.add(1).unwrap(), 11, "{}: replayed reply", s.name);
        assert_eq!(c.add(1).unwrap(), 12, "{}: a new call executes", s.name);
        assert_eq!(
            executions.load(Ordering::SeqCst) - before,
            2,
            "{}: four deliveries, two executions",
            s.name
        );
    }
}

#[test]
fn every_server_door_refuses_to_replay_a_reply_that_carried_a_door() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, client, executions) = probed(&kernel);
    for s in subjects {
        let obj = behind_relay(&kernel, s.obj, &client);
        let before = executions.load(Ordering::SeqCst);
        match obj.invoke(obj.start_call(OP_MINT).unwrap()) {
            Err(SpringError::Door(DoorError::Handler(why))) => {
                assert!(why.contains("cannot be replayed"), "{}: {why}", s.name)
            }
            other => panic!("{}: expected a refusal, got {other:?}", s.name),
        }
        assert_eq!(
            executions.load(Ordering::SeqCst) - before,
            1,
            "{}: minted once, not once per delivery",
            s.name
        );
    }
}

#[test]
fn every_server_door_rejects_a_broken_control_region_without_panicking() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client) = subjects(&kernel);
    for s in subjects {
        // Subjects whose requests start with the bare operation number:
        // cutting those short is the skeleton's business (an in-band error).
        let no_control = ["singleton", "caching", "reconnectable", "pipeline"].contains(&s.name);
        let (ctx, wire) = disassemble(s.obj);
        for len in [0usize, 1, 3, 7, 13, 40] {
            let junk = Message::from_bytes(vec![0xFF; len]);
            match ctx.domain().call(wire.doors[0], junk) {
                // The kernel reports a handler's panic this way too.
                Err(DoorError::Handler(why)) => {
                    assert!(!why.contains("panicked"), "{} at {len}: {why}", s.name)
                }
                // A control region of 0xFF bytes can parse (as simplex's
                // ignored flags, as an unknown cluster tag); none is not one.
                other => assert!(
                    len > 0 || no_control,
                    "{}: a missing control region was let through: {other:?}",
                    s.name
                ),
            }
        }
    }
}

#[test]
fn every_server_door_builds_its_reply_in_a_pooled_buffer() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    let (subjects, _client) = subjects(&kernel);
    for s in subjects {
        let c = CounterClient(s.obj);
        for _ in 0..8 {
            c.echo(b"warm the pool").unwrap();
        }
        const CALLS: u64 = 16;
        let before = kernel.stats();
        for _ in 0..CALLS {
            c.echo(b"steady state").unwrap();
        }
        let delta = kernel.stats().since(&before);
        assert_eq!(delta.pool_misses, 0, "{}", s.name);
        // The call buffer and the reply buffer, at least.
        assert!(
            delta.pool_hits >= 2 * CALLS,
            "{}: {} pool hits in {CALLS} calls",
            s.name,
            delta.pool_hits
        );
    }
}

// ---- The client column: marshal / unmarshal / copy / consume ---------------

/// A type no subject conforms to.
static STRANGER_TYPE: TypeInfo = TypeInfo {
    name: "stranger",
    parents: &[&subcontract::OBJECT_TYPE],
    default_subcontract: Singleton::ID,
};

/// The twelve call subjects plus a pub/sub topic object, all living in the
/// server context. The topic's servant is its hub, not a counter, so it
/// rides only the columns below.
fn client_subjects(kernel: &Kernel) -> Vec<Subject> {
    let (mut subjects, _client) = subjects(kernel);
    let server = subjects[0].obj.ctx().clone();
    server.register_subcontract(PubSub::new());
    let (topic, hub) = PubSub::export(&server, "matrix-topic", TopicConfig::default()).unwrap();
    subjects.push(Subject {
        name: "pubsub",
        obj: topic,
        keep_alive: vec![Box::new(hub)],
    });
    subjects
}

fn type_of(s: &Subject) -> &'static TypeInfo {
    if s.name == "pubsub" {
        &PUBSUB_TOPIC_TYPE
    } else {
        &COUNTER_TYPE
    }
}

/// The subject still answers: a counter reads 10, a topic names itself.
fn assert_usable(s: &Subject) {
    if s.name == "pubsub" {
        assert_eq!(PubSub::info(&s.obj).unwrap().name, "matrix-topic");
        return;
    }
    let mut reply = s.obj.invoke(s.obj.start_call(OP_GET).unwrap()).unwrap();
    subcontract::decode_reply_status(&mut reply).unwrap();
    assert_eq!(reply.get_i64().unwrap(), 10, "{}", s.name);
}

/// The marshalled form of a copy of `obj`; its doors belong to `obj`'s domain.
fn marshalled_copy(obj: &SpringObj) -> Message {
    let mut buf = CommBuffer::new();
    obj.marshal_copy(&mut buf).unwrap();
    buf.into_message()
}

fn release(ctx: &DomainCtx, doors: Vec<DoorId>) {
    for door in doors {
        ctx.domain().delete_door(door).unwrap();
    }
}

#[test]
fn every_unmarshal_cut_short_releases_the_doors_that_landed() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    // The (subcontract, cut offset) pairs exercised, for CI to upload when
    // the job fails.
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&target);
    let mut cuts = std::fs::File::create(target.join("unmarshal-cuts.txt")).ok();
    let mut leaks = Vec::new();
    for s in client_subjects(&kernel) {
        let ctx = s.obj.ctx().clone();
        let mut baseline = live(&kernel);
        let header = {
            let mut h = CommBuffer::new();
            put_obj_header(&mut h, s.obj.subcontract().id(), s.obj.type_name());
            h.len()
        };
        let whole = marshalled_copy(&s.obj);
        let len = whole.bytes.len();
        release(&ctx, whole.doors);
        assert!(len > header, "{}: a body follows the header", s.name);

        // Each offset after the header is tried twice: the form cut there,
        // and the form with every byte from there on set to 0xFF (a door slot
        // that names no door, a length that overruns, a scalar that parses).
        // `len` stands for the intact form unmarshalled as a type no subject
        // conforms to: its doors must be read and released, not left behind
        // in a buffer whose drop deletes nothing.
        let probes = (header..len).flat_map(|cut| [(cut, false), (cut, true)]);
        for (cut, fill) in probes.chain([(len, false)]) {
            if let Some(f) = &mut cuts {
                let _ = writeln!(f, "{} {cut}{}", s.name, if fill { " fill" } else { "" });
            }
            let mut msg = marshalled_copy(&s.obj);
            if fill {
                msg.bytes[cut..].fill(0xFF);
            } else {
                msg.bytes.truncate(cut);
            }
            let mut buf = CommBuffer::from_message(msg);
            let mismatch = cut == len;
            let expected = if mismatch {
                &STRANGER_TYPE
            } else {
                type_of(&s)
            };
            let outcome = unmarshal_object(&ctx, expected, &mut buf);
            assert!(
                outcome.is_err() || fill,
                "{} cut at {cut}: {outcome:?}",
                s.name
            );
            // What never left the buffer is the caller's to release; what
            // did is the subcontract's (or the object's, which dies here).
            let left = buf.drain_doors();
            if mismatch {
                assert!(
                    matches!(outcome, Err(SpringError::TypeMismatch { .. })),
                    "{}: {outcome:?}",
                    s.name
                );
                if !left.is_empty() {
                    leaks.push(format!("{}: type mismatch left {left:?}", s.name));
                }
            }
            drop(outcome);
            release(&ctx, left);
            let now = live(&kernel);
            if now != baseline {
                leaks.push(format!(
                    "{} at {cut} (fill: {fill}): {baseline:?} -> {now:?}",
                    s.name
                ));
                baseline = now;
            }
        }
        assert_usable(&s);
    }
    assert!(leaks.is_empty(), "{leaks:#?}");
}

#[test]
fn every_copy_consumes_back_to_the_baseline() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    for s in client_subjects(&kernel) {
        let baseline = live(&kernel);
        let first = s.obj.copy().unwrap();
        let second = first.copy().unwrap();
        first.consume().unwrap();
        second.consume().unwrap();
        assert_eq!(live(&kernel), baseline, "{}", s.name);
        assert_usable(&s);
    }
}

#[test]
fn every_marshal_copy_is_copy_then_marshal_without_the_copy() {
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    for s in client_subjects(&kernel) {
        let ctx = s.obj.ctx().clone();
        let baseline = live(&kernel);
        let short_cut = marshalled_copy(&s.obj);
        let long_way = {
            let mut buf = CommBuffer::new();
            s.obj.copy().unwrap().marshal(&mut buf).unwrap();
            buf.into_message()
        };
        assert_eq!(short_cut.bytes, long_way.bytes, "{}", s.name);
        assert_eq!(short_cut.doors.len(), long_way.doors.len(), "{}", s.name);
        release(&ctx, short_cut.doors);
        release(&ctx, long_way.doors);
        assert_eq!(live(&kernel), baseline, "{}", s.name);
        assert_usable(&s);
    }
}

/// One field of a marshalled form, as the wire lays it out: little-endian,
/// aligned to its size, strings as a `u32` length and the bytes, a door as
/// the `u32` index of its slot in the message's capability vector.
enum Field {
    U32(u32),
    U64(u64),
    Str(&'static str),
    Bool(bool),
    Door,
}

/// Lays `fields` out after the standard header, by hand (no `CommBuffer`).
fn lay_out(id: ScId, type_name: &'static str, fields: &[Field]) -> (Vec<u8>, usize) {
    fn word(out: &mut Vec<u8>, bytes: &[u8]) {
        out.resize(out.len().next_multiple_of(bytes.len()), 0);
        out.extend_from_slice(bytes);
    }
    let (mut out, mut doors) = (Vec::new(), 0u32);
    let header = [Field::U64(id.raw()), Field::Str(type_name)];
    for field in header.iter().chain(fields) {
        match field {
            Field::U32(v) => word(&mut out, &v.to_le_bytes()),
            Field::U64(v) => word(&mut out, &v.to_le_bytes()),
            Field::Str(v) => {
                word(&mut out, &(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v.as_bytes());
            }
            Field::Bool(v) => out.push(*v as u8),
            Field::Door => {
                word(&mut out, &doors.to_le_bytes());
                doors += 1;
            }
        }
    }
    (out, doors as usize)
}

#[test]
fn every_marshalled_form_is_pinned_byte_for_byte() {
    use Field::{Bool, Door, Str, U32, U64};
    let _serial = SERIAL.lock();
    let kernel = Kernel::new("matrix");
    // What follows the header (subcontract identifier, type name), per
    // subject. Simplex's local arm grows its door at first marshal.
    let table: [(&str, &str, Vec<Field>); 13] = [
        ("singleton", "singleton", vec![Door]),
        ("simplex", "simplex", vec![Door]),
        ("simplex-local", "simplex", vec![Door]),
        ("cluster", "cluster", vec![Door, U32(1)]),
        ("replicon", "replicon", vec![U64(2), U32(2), Door, Door]),
        (
            "caching",
            "caching",
            vec![Door, Str("cache_manager"), Bool(false)],
        ),
        ("reconnectable", "reconnectable", vec![Door, Str("svc/x")]),
        ("pipeline", "pipeline", vec![Door]),
        ("shmem", "shmem", vec![Door, U64(4096)]),
        ("priority", "priority", vec![Door, U32(7)]),
        ("txn", "txn", vec![Door]),
        ("stream", "stream", vec![Door, U64(3)]),
        ("pubsub", "pubsub", vec![Door, Str("matrix-topic")]),
    ];
    let subjects = client_subjects(&kernel);
    assert_eq!(subjects.len(), table.len());
    for (s, (name, sc, fields)) in subjects.into_iter().zip(table) {
        assert_eq!(s.name, name);
        match name {
            "priority" => Priority::set_priority(&s.obj, 7).unwrap(),
            "stream" => {
                for frame in [b"one", b"two"] {
                    Stream::send_frame(&s.obj, frame).unwrap();
                }
            }
            _ => {}
        }
        let type_name = type_of(&s).name;
        let (ctx, wire) = disassemble(s.obj);
        let (bytes, doors) = lay_out(ScId::from_name(sc), type_name, &fields);
        assert_eq!(wire.bytes, bytes, "{name}");
        assert_eq!(wire.doors.len(), doors, "{name}");
        release(&ctx, wire.doors);
    }
}
