//! A from-scratch mock subcontract, exercising the `Subcontract` trait
//! contract itself: default-method behaviour, drop-consume routing, call
//! sequencing (`invoke_preamble` before the op number), the
//! `server_dispatch` failure ladder, and a third-party `ServeDoor`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use subcontract::{
    encode_ok, get_obj_header, put_obj_header, redispatch_if_foreign, server_dispatch, Dispatch,
    DomainCtx, ObjParts, Repr, Result, ScId, ServerCtx, SpringError, SpringObj, Subcontract,
    TypeInfo, OBJECT_TYPE,
};

static VALUE_TYPE: TypeInfo = TypeInfo {
    name: "value",
    parents: &[&OBJECT_TYPE],
    default_subcontract: ScId::from_name("inproc"),
};

/// Counters observing every operation the machinery performs.
#[derive(Debug, Default)]
struct Probes {
    preambles: AtomicU64,
    invokes: AtomicU64,
    marshals: AtomicU64,
    copies: AtomicU64,
    consumes: AtomicU64,
}

/// Representation: shared in-process state (no doors at all — subcontracts
/// get to choose their transport, §9.2).
#[derive(Debug)]
struct ValueRepr {
    state: Arc<Mutex<i64>>,
}

/// A purely in-process subcontract.
#[derive(Debug)]
struct InProc {
    probes: Arc<Probes>,
}

impl InProc {
    const ID: ScId = ScId::from_name("inproc");
}

impl Subcontract for InProc {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "inproc"
    }

    fn invoke_preamble(&self, _obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        self.probes.preambles.fetch_add(1, Ordering::Relaxed);
        // Control region: a marker byte the invoke side checks, proving the
        // preamble ran before the stubs wrote the op number.
        call.put_u8(0xCD);
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        self.probes.invokes.fetch_add(1, Ordering::Relaxed);
        let repr = obj.repr().downcast::<ValueRepr>(self.name())?;
        let mut args = call;
        assert_eq!(args.get_u8()?, 0xCD, "preamble must run before the op");
        let op = args.get_u32()?;
        let mut reply = CommBuffer::new();
        match op {
            1 => {
                encode_ok(&mut reply);
                reply.put_i64(*repr.state.lock());
            }
            2 => {
                *repr.state.lock() += args.get_i64()?;
                encode_ok(&mut reply);
            }
            other => return Err(SpringError::UnknownOp(other)),
        }
        Ok(reply)
    }

    fn marshal(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        self.probes.marshals.fetch_add(1, Ordering::Relaxed);
        let repr = parts.repr.into_downcast::<ValueRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        // In-process marshalling: stash the state behind a token.
        buf.put_i64(*repr.state.lock());
        Ok(())
    }

    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj> {
        if let Some(obj) = redispatch_if_foreign(Self::ID, ctx, expected, buf)? {
            return Ok(obj);
        }
        let (_, wire_name, actual) = get_obj_header(ctx, expected, buf)?;
        let value = buf.get_i64()?;
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(ValueRepr {
                state: Arc::new(Mutex::new(value)),
            }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        self.probes.copies.fetch_add(1, Ordering::Relaxed);
        let repr = obj.repr().downcast::<ValueRepr>(self.name())?;
        Ok(obj.assemble_like(Repr::new(ValueRepr {
            state: repr.state.clone(),
        })))
    }

    fn consume(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        self.probes.consumes.fetch_add(1, Ordering::Relaxed);
        let _ = parts.repr.into_downcast::<ValueRepr>(self.name())?;
        Ok(())
    }
}

fn setup() -> (Arc<DomainCtx>, Arc<Probes>, SpringObj) {
    let kernel = Kernel::new("mock");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let probes = Arc::new(Probes::default());
    ctx.register_subcontract(Arc::new(InProc {
        probes: probes.clone(),
    }));
    ctx.types().register(&VALUE_TYPE);
    let obj = SpringObj::assemble(
        ctx.clone(),
        &VALUE_TYPE,
        ctx.lookup_subcontract(InProc::ID).unwrap(),
        Repr::new(ValueRepr {
            state: Arc::new(Mutex::new(100)),
        }),
    );
    (ctx, probes, obj)
}

fn get(obj: &SpringObj) -> i64 {
    let call = obj.start_call(1).unwrap();
    let mut reply = obj.invoke(call).unwrap();
    subcontract::decode_reply_status(&mut reply).unwrap();
    reply.get_i64().unwrap()
}

#[test]
fn call_sequencing_preamble_then_op() {
    let (_ctx, probes, obj) = setup();
    assert_eq!(get(&obj), 100);
    assert_eq!(probes.preambles.load(Ordering::Relaxed), 1);
    assert_eq!(probes.invokes.load(Ordering::Relaxed), 1);
}

#[test]
fn default_marshal_copy_is_copy_then_marshal() {
    let (_ctx, probes, obj) = setup();
    let mut buf = CommBuffer::new();
    obj.marshal_copy(&mut buf).unwrap();
    // The trait's default implementation must have gone through copy,
    // marshal — and not consume (marshal destroys the intermediate).
    assert_eq!(probes.copies.load(Ordering::Relaxed), 1);
    assert_eq!(probes.marshals.load(Ordering::Relaxed), 1);
    assert_eq!(probes.consumes.load(Ordering::Relaxed), 0);
    // And the original still works.
    assert_eq!(get(&obj), 100);
}

#[test]
fn drop_routes_through_consume_exactly_once() {
    let (_ctx, probes, obj) = setup();
    drop(obj);
    assert_eq!(probes.consumes.load(Ordering::Relaxed), 1);
}

#[test]
fn explicit_consume_does_not_double_consume() {
    let (_ctx, probes, obj) = setup();
    obj.consume().unwrap();
    assert_eq!(probes.consumes.load(Ordering::Relaxed), 1);
}

#[test]
fn marshal_skips_consume() {
    let (ctx, probes, obj) = setup();
    let mut buf = CommBuffer::new();
    obj.marshal(&mut buf).unwrap();
    assert_eq!(probes.marshals.load(Ordering::Relaxed), 1);
    assert_eq!(probes.consumes.load(Ordering::Relaxed), 0);
    // The marshalled form round-trips in the same domain.
    let restored = subcontract::unmarshal_object(&ctx, &VALUE_TYPE, &mut buf).unwrap();
    assert_eq!(get(&restored), 100);
}

#[test]
fn copies_share_underlying_state() {
    let (_ctx, _probes, obj) = setup();
    let copy = obj.copy().unwrap();
    {
        let mut call = obj.start_call(2).unwrap();
        call.put_i64(11);
        let mut reply = obj.invoke(call).unwrap();
        subcontract::decode_reply_status(&mut reply).unwrap();
    }
    assert_eq!(get(&copy), 111);
}

#[test]
fn server_dispatch_failure_ladder() {
    // Exercise server_dispatch directly with a dispatcher that misbehaves
    // in controlled ways.
    struct Flaky;
    impl Dispatch for Flaky {
        fn type_info(&self) -> &'static TypeInfo {
            &VALUE_TYPE
        }
        fn dispatch(
            &self,
            _sctx: &ServerCtx,
            op: u32,
            _args: &mut CommBuffer,
            reply: &mut CommBuffer,
        ) -> Result<()> {
            match op {
                1 => {
                    encode_ok(reply);
                    Ok(())
                }
                // Fails before touching the reply.
                2 => Err(SpringError::Remote("early failure".into())),
                // Fails after partially writing the reply.
                3 => {
                    reply.put_u8(0);
                    Err(SpringError::Remote("late failure".into()))
                }
                other => Err(SpringError::UnknownOp(other)),
            }
        }
    }

    let kernel = Kernel::new("ladder");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let sctx = ServerCtx {
        ctx: ctx.clone(),
        caller: ctx.domain().id(),
    };
    let run = |op: u32| {
        let mut args = CommBuffer::new();
        args.put_u32(op);
        let mut reply = CommBuffer::new();
        server_dispatch(&sctx, &Flaky, &mut args, &mut reply).map(|()| reply)
    };

    // Success passes the skeleton's reply through.
    let mut reply = run(1).unwrap();
    assert!(matches!(
        subcontract::decode_reply_status(&mut reply).unwrap(),
        subcontract::ReplyStatus::Ok
    ));

    // Clean failure becomes an in-band system error.
    let mut reply = run(2).unwrap();
    assert!(matches!(
        subcontract::decode_reply_status(&mut reply).unwrap_err(),
        SpringError::Remote(m) if m.contains("early failure")
    ));

    // A half-written reply must become a transport-level error, never a
    // corrupt in-band reply.
    assert!(run(3).is_err());

    // Unknown op is reported in-band.
    let mut reply = run(99).unwrap();
    assert!(matches!(
        subcontract::decode_reply_status(&mut reply).unwrap_err(),
        SpringError::UnknownOp(99)
    ));

    // A malformed request (no op) is reported in-band, too.
    let mut args = CommBuffer::new();
    let mut reply = CommBuffer::new();
    server_dispatch(&sctx, &Flaky, &mut args, &mut reply).unwrap();
    assert!(matches!(
        subcontract::decode_reply_status(&mut reply).unwrap_err(),
        SpringError::Remote(m) if m.contains("malformed")
    ));
}

#[test]
fn a_third_party_serve_door_gets_every_layer() {
    // All a subcontract writes for its server side is the control step; the
    // replay of a repeated call identity, the early-reply case and the §7
    // death notice below come with the door.
    use spring_kernel::{CallId, DoorError, Message};
    use subcontract::ServeDoor;

    #[derive(Default)]
    struct Counted {
        calls: AtomicU64,
        unrefs: AtomicU64,
    }
    impl Dispatch for Counted {
        fn type_info(&self) -> &'static TypeInfo {
            &VALUE_TYPE
        }
        fn dispatch(
            &self,
            _sctx: &ServerCtx,
            _op: u32,
            _args: &mut CommBuffer,
            reply: &mut CommBuffer,
        ) -> Result<()> {
            encode_ok(reply);
            reply.put_u64(self.calls.fetch_add(1, Ordering::SeqCst) + 1);
            Ok(())
        }
        fn unreferenced(&self) {
            self.unrefs.fetch_add(1, Ordering::SeqCst);
        }
    }

    let kernel = Kernel::new("third-party");
    let ctx = DomainCtx::new(kernel.create_domain("d"));
    let servant = Arc::new(Counted::default());
    let disp = servant.clone();
    let door = ServeDoor::new(
        &ctx,
        "inproc.serve",
        InProc::ID,
        Some(servant.clone()),
        move |call| match call.args.get_u8() {
            // Control region in: one marker byte; out: its echo.
            Ok(0xCD) => {
                call.reply.put_u8(0xCD);
                call.dispatch(&*disp)
            }
            // "Reply now": a ping never reaches the skeleton.
            Ok(0) => Ok(()),
            _ => Err(DoorError::Handler("bad inproc control".into())),
        },
    );
    let id = ctx.domain().create_door(door).unwrap();
    let request = |call: CallId| {
        let mut buf = CommBuffer::new();
        buf.put_u8(0xCD);
        buf.put_u32(1);
        buf.set_call(call);
        CommBuffer::from_message(ctx.domain().call(id, buf.into_message()).unwrap())
    };
    let retried = CallId {
        nonce: 77,
        attempt: 1,
        deadline_micros: 0,
    };
    for nth in [1, 1, 2] {
        // The first two share an identity; the third carries none.
        let mut reply = request(if nth == 1 { retried } else { CallId::NONE });
        assert_eq!(reply.get_u8().unwrap(), 0xCD);
        subcontract::decode_reply_status(&mut reply).unwrap();
        assert_eq!(reply.get_u64().unwrap(), nth);
    }
    let ping = ctx.domain().call(id, Message::from_bytes(vec![0])).unwrap();
    assert!(ping.bytes.is_empty());
    assert!(ctx.domain().call(id, Message::new()).is_err());
    assert_eq!(servant.calls.load(Ordering::SeqCst), 2);

    ctx.domain().delete_door(id).unwrap();
    assert_eq!(servant.unrefs.load(Ordering::SeqCst), 1);
}
