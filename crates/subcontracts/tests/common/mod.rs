//! Shared fixtures: a counter servant, context setup, an object-shipping
//! helper, and an in-memory resolver.
#![allow(dead_code)] // Each test binary uses a different subset.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use spring_subcontracts::register_standard;
use subcontract::{
    encode_ok, encode_user_exception, op_hash, unmarshal_object, Dispatch, DomainCtx, Resolver,
    Result, ServerCtx, SpringError, SpringObj, TypeInfo, OBJECT_TYPE,
};

/// Test interface: a mutable counter.
pub static COUNTER_TYPE: TypeInfo = TypeInfo {
    name: "counter",
    parents: &[&OBJECT_TYPE],
    default_subcontract: spring_subcontracts::Singleton::ID,
};

pub const OP_GET: u32 = op_hash("get");
pub const OP_ADD: u32 = op_hash("add");
pub const OP_FAIL: u32 = op_hash("fail");
pub const OP_ECHO: u32 = op_hash("echo");

/// A counter servant; `add` mutates, `get` reads, `fail` raises, `echo`
/// bounces a byte payload.
#[derive(Default)]
pub struct CounterServant {
    pub value: Mutex<i64>,
}

impl CounterServant {
    pub fn new(start: i64) -> Arc<Self> {
        Arc::new(CounterServant {
            value: Mutex::new(start),
        })
    }
}

impl Dispatch for CounterServant {
    fn type_info(&self) -> &'static TypeInfo {
        &COUNTER_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            x if x == OP_GET => {
                encode_ok(reply);
                reply.put_i64(*self.value.lock());
                Ok(())
            }
            x if x == OP_ADD => {
                let delta = args.get_i64()?;
                let mut v = self.value.lock();
                *v += delta;
                encode_ok(reply);
                reply.put_i64(*v);
                Ok(())
            }
            x if x == OP_FAIL => {
                encode_user_exception(reply, "counter_error");
                reply.put_string("requested failure");
                Ok(())
            }
            x if x == OP_ECHO => {
                let payload = args.get_bytes()?;
                encode_ok(reply);
                reply.put_bytes(&payload);
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }
}

/// Creates a domain with the standard subcontracts registered and the
/// counter type known.
pub fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    ctx.types().register(&COUNTER_TYPE);
    ctx
}

/// Live door identifiers and live doors, kernel-wide: what a leak check
/// compares before and after.
pub fn live(kernel: &Kernel) -> (u64, usize) {
    let stats = kernel.stats();
    (stats.ids_issued - stats.ids_deleted, kernel.live_doors())
}

/// Typed convenience wrapper playing the role of generated counter stubs.
pub struct CounterClient(pub SpringObj);

impl CounterClient {
    pub fn get(&self) -> Result<i64> {
        let call = self.0.start_call(OP_GET)?;
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        Ok(reply.get_i64()?)
    }

    pub fn add(&self, delta: i64) -> Result<i64> {
        let mut call = self.0.start_call(OP_ADD)?;
        call.put_i64(delta);
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        Ok(reply.get_i64()?)
    }

    pub fn fail(&self) -> Result<()> {
        let call = self.0.start_call(OP_FAIL)?;
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        Ok(())
    }

    pub fn echo(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut call = self.0.start_call(OP_ECHO)?;
        call.put_bytes(payload);
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        Ok(reply.get_bytes()?)
    }
}

fn expect_ok(reply: &mut CommBuffer) -> Result<()> {
    match subcontract::decode_reply_status(reply)? {
        subcontract::ReplyStatus::Ok => Ok(()),
        subcontract::ReplyStatus::UserException(name) => {
            Err(SpringError::UnknownUserException(name))
        }
    }
}

/// Moves an object from one domain to another the way a real call would:
/// marshal, transfer the capability vector through the kernel, unmarshal.
pub fn ship(obj: SpringObj, to: &Arc<DomainCtx>, expected: &'static TypeInfo) -> Result<SpringObj> {
    let from_ctx = obj.ctx().clone();
    let mut buf = CommBuffer::new();
    obj.marshal(&mut buf)?;
    let mut msg = buf.into_message();
    let mut moved = Vec::with_capacity(msg.doors.len());
    for d in msg.doors {
        moved.push(from_ctx.domain().transfer_door(d, to.domain())?);
    }
    msg.doors = moved;
    let mut buf = CommBuffer::from_message(msg);
    unmarshal_object(to, expected, &mut buf)
}

/// Ships a copy, leaving the original in place.
pub fn ship_copy(
    obj: &SpringObj,
    to: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
) -> Result<SpringObj> {
    ship(obj.copy()?, to, expected)
}

type Binding = (Arc<DomainCtx>, SpringObj);

/// A process-wide name table for tests: binds objects, resolves them into
/// the asking domain by marshal-copy + ship.
#[derive(Default)]
pub struct TestNames {
    entries: Mutex<HashMap<String, Binding>>,
}

impl TestNames {
    pub fn new() -> Arc<Self> {
        Arc::new(TestNames::default())
    }

    pub fn bind(&self, name: &str, obj: SpringObj) {
        let ctx = obj.ctx().clone();
        self.entries.lock().insert(name.to_owned(), (ctx, obj));
    }

    pub fn unbind(&self, name: &str) {
        self.entries.lock().remove(name);
    }

    /// A per-domain resolver view over this table.
    pub fn resolver_for(self: &Arc<Self>, ctx: &Arc<DomainCtx>) -> Arc<dyn Resolver> {
        Arc::new(TestResolver {
            names: self.clone(),
            ctx: ctx.clone(),
        })
    }
}

struct TestResolver {
    names: Arc<TestNames>,
    ctx: Arc<DomainCtx>,
}

impl Resolver for TestResolver {
    fn resolve(&self, name: &str, expected: &'static TypeInfo) -> Result<SpringObj> {
        let (src_ctx, buf) = {
            let entries = self.names.entries.lock();
            let (src_ctx, obj) = entries
                .get(name)
                .ok_or_else(|| SpringError::ResolveFailed(name.to_owned()))?;
            let mut buf = CommBuffer::new();
            obj.marshal_copy(&mut buf)?;
            (src_ctx.clone(), buf)
        };
        let mut msg = buf.into_message();
        let mut moved = Vec::with_capacity(msg.doors.len());
        for d in msg.doors {
            moved.push(src_ctx.domain().transfer_door(d, self.ctx.domain())?);
        }
        msg.doors = moved;
        let mut buf = CommBuffer::from_message(msg);
        unmarshal_object(&self.ctx, expected, &mut buf)
    }
}
