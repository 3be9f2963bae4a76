//! Benchmark servants, stubs, and the specialized ("fused") call path.

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Kernel, Message};
use spring_subcontracts::{register_standard, Shmem, Singleton};
use subcontract::{
    decode_reply_status, encode_ok, op_hash, ship_object, Dispatch, DomainCtx, KernelTransport,
    ReplyStatus, Result, ServerCtx, ServerSubcontract, SpringError, SpringObj, TypeInfo,
    OBJECT_TYPE, STATUS_OK,
};

use crate::flatbench;

/// The benchmark interface's type.
pub static PINGER_TYPE: TypeInfo = TypeInfo {
    name: "pinger",
    parents: &[&OBJECT_TYPE],
    default_subcontract: spring_subcontracts::Singleton::ID,
};

/// Null operation: no arguments, no results.
pub const OP_PING: u32 = op_hash("ping");
/// Echo operation: bytes in, the same bytes out.
pub const OP_ECHO: u32 = op_hash("echo");

/// The benchmark servant.
#[derive(Debug, Default)]
pub struct PingServant;

impl Dispatch for PingServant {
    fn type_info(&self) -> &'static TypeInfo {
        &PINGER_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            x if x == OP_PING => {
                encode_ok(reply);
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

/// Creates a domain with the standard subcontracts and benchmark type.
pub fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    ctx.types().register(&PINGER_TYPE);
    ctx
}

/// The general stub path for `ping` (works with any subcontract).
pub fn ping(obj: &SpringObj) -> Result<()> {
    let call = obj.start_call(OP_PING)?;
    let mut reply = obj.invoke(call)?;
    match decode_reply_status(&mut reply)? {
        ReplyStatus::Ok => Ok(()),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// The asynchronous stub path for `ping`: issues the call through the
/// pipeline subcontract and returns its promise without blocking.
pub fn ping_async(obj: &SpringObj) -> Result<spring_subcontracts::Promise> {
    let call = obj.start_call(OP_PING)?;
    spring_subcontracts::Pipeline::invoke_async(obj, call)
}

/// Collects a [`ping_async`] promise, decoding the reply like [`ping`].
pub fn ping_collect(promise: spring_subcontracts::Promise) -> Result<()> {
    let mut reply = promise.wait()?;
    match decode_reply_status(&mut reply)? {
        ReplyStatus::Ok => Ok(()),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// The general stub path for `echo`.
pub fn echo(obj: &SpringObj, payload: &[u8]) -> Result<Vec<u8>> {
    let mut call = obj.start_call(OP_ECHO)?;
    call.put_bytes(payload);
    let mut reply = obj.invoke(call)?;
    match decode_reply_status(&mut reply)? {
        ReplyStatus::Ok => Ok(reply.get_bytes()?),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// Servant behind the generated flat-path stubs (E1's `idl_flat` arm and
/// the zero-copy proofs). Every operation is fixed-shape, so both the
/// argument and result frames take the validate-in-place path.
#[derive(Debug, Default)]
pub struct FlatServant;

impl flatbench::FlatPingServant for FlatServant {
    fn ping(&self, token: u64) -> std::result::Result<u64, flatbench::FlatPingError> {
        Ok(token.wrapping_add(1))
    }

    fn echo_sample(
        &self,
        s: flatbench::Sample,
    ) -> std::result::Result<flatbench::Sample, flatbench::FlatPingError> {
        Ok(s)
    }

    fn sink_sample(
        &self,
        s: flatbench::Sample,
    ) -> std::result::Result<(), flatbench::FlatPingError> {
        let _ = s;
        Ok(())
    }
}

/// A representative fixed-shape message for the flat-path fixtures
/// (60-byte flat frame: nested struct, five scalars, enum, bool).
pub fn sample_fixture() -> flatbench::Sample {
    flatbench::Sample {
        when: flatbench::Stamp {
            secs: 1_726_000_000,
            nanos: 987_654_321,
        },
        a: 0x1111_1111_1111_1111,
        b: 0x2222_2222_2222_2222,
        c: 0x3333_3333_3333_3333,
        d: 0x4444_4444_4444_4444,
        seq: 42,
        kind: 7,
        urgent: true,
        m: flatbench::Mode::Active,
    }
}

/// Exports the flat-ping servant through singleton and wraps the exported
/// object directly: client and server share one domain, so every call takes
/// the kernel's same-domain (D2) delivery, where the payload moves by
/// ownership transfer instead of a cross-address-space copy.
pub fn flat_ping_same_domain(kernel: &Kernel) -> flatbench::FlatPing {
    let ctx = ctx_on(kernel, "flat");
    let obj = Singleton
        .export(
            &ctx,
            flatbench::FlatPingSkeleton::new(Arc::new(FlatServant)),
        )
        .expect("export flat servant");
    flatbench::FlatPing::from_obj(obj).expect("narrow flat_ping")
}

/// Exports the flat-ping servant through shmem between two domains:
/// argument frames cross in shared memory and are flat-decoded in place,
/// so only the 16-byte descriptor and the reply ride the copying path.
pub fn flat_ping_shmem(kernel: &Kernel, region_size: usize) -> flatbench::FlatPing {
    let server = ctx_on(kernel, "flat-server");
    let client = ctx_on(kernel, "flat-client");
    client.types().register(&flatbench::FLAT_PING_TYPE);
    let obj = Shmem::export(
        &server,
        flatbench::FlatPingSkeleton::new(Arc::new(FlatServant)),
        region_size,
    )
    .expect("export flat servant via shmem");
    let obj = ship_object(&KernelTransport, obj, &client, &flatbench::FLAT_PING_TYPE)
        .expect("ship flat_ping");
    flatbench::FlatPing::from_obj(obj).expect("narrow flat_ping")
}

/// The copying counterpart of the flat `echo_sample` path: the same wire
/// bytes over the same transport, but decoded field-by-field through
/// `idl_decode` on both sides — the code shape the IDL compiler emitted
/// before the flat fast path existed. E1 prices the two against each other.
#[derive(Debug, Default)]
pub struct CopySampleServant;

impl Dispatch for CopySampleServant {
    fn type_info(&self) -> &'static TypeInfo {
        &flatbench::FLAT_PING_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        if op == flatbench::flat_ping_ops::ECHO_SAMPLE {
            let s = flatbench::Sample::idl_decode(args)?;
            encode_ok(reply);
            s.idl_encode(reply);
            Ok(())
        } else {
            Err(SpringError::UnknownOp(op))
        }
    }
}

/// Exports [`CopySampleServant`] through singleton in one domain, like
/// [`flat_ping_same_domain`] but with the copying decode on the serve side.
pub fn copy_sample_same_domain(kernel: &Kernel) -> SpringObj {
    let ctx = ctx_on(kernel, "flat-copy");
    Singleton
        .export(&ctx, Arc::new(CopySampleServant))
        .expect("export copying servant")
}

/// Invokes `echo_sample` with the copying client decode (the pre-flat
/// general-stub shape), against a [`CopySampleServant`] export.
pub fn echo_sample_copying(obj: &SpringObj, s: &flatbench::Sample) -> Result<flatbench::Sample> {
    let mut call = obj.start_call(flatbench::flat_ping_ops::ECHO_SAMPLE)?;
    s.idl_encode(&mut call);
    let mut reply = obj.invoke(call)?;
    match decode_reply_status(&mut reply)? {
        ReplyStatus::Ok => Ok(flatbench::Sample::idl_decode(&mut reply)?),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// Operation served by [`SpinServant`]: burns the configured service time.
pub const OP_WORK: u32 = op_hash("work");

/// A servant with a controllable service time — the workload behind the
/// open-loop experiments, where what matters is how long a call *occupies a
/// worker*, not what it computes. Occupancy is timed: the call sleeps for
/// the service time (an I/O-bound server). The queueing behaviour is that of
/// a compute-bound server — the worker is held either way — but the CPU
/// stays free, which keeps the measurement honest on small or shared hosts
/// where several spinning workers would preempt each other into
/// scheduler-induced multi-millisecond stalls.
///
/// A one-shot stall can be armed to simulate a server hiccup (GC pause,
/// page fault storm) for the coordinated-omission proof.
#[derive(Debug)]
pub struct SpinServant {
    service_ns: std::sync::atomic::AtomicU64,
    stall_ns: std::sync::atomic::AtomicU64,
}

impl SpinServant {
    /// Creates a servant whose `work` calls sleep for `service_ns`.
    pub fn sleeping(service_ns: u64) -> Arc<SpinServant> {
        Arc::new(SpinServant {
            service_ns: std::sync::atomic::AtomicU64::new(service_ns),
            stall_ns: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Arms a one-shot stall: the *next* `work` call is held an extra `ns`
    /// before serving, then the stall disarms itself.
    pub fn arm_stall(&self, ns: u64) {
        self.stall_ns
            .store(ns, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Dispatch for SpinServant {
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
        match op {
            x if x == OP_WORK => {
                let stall = self.stall_ns.swap(0, std::sync::atomic::Ordering::Relaxed);
                let service = self.service_ns.load(std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_nanos(stall + service));
                encode_ok(reply);
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }
}

/// The general stub path for `work` (same shape as [`ping`]).
pub fn work(obj: &SpringObj) -> Result<()> {
    let call = obj.start_call(OP_WORK)?;
    let mut reply = obj.invoke(call)?;
    match decode_reply_status(&mut reply)? {
        ReplyStatus::Ok => Ok(()),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// The no-RPC baseline: a door whose handler does nothing, called with an
/// empty message — what a minimal kernel IPC round costs.
pub struct RawDoor {
    /// Calling domain.
    pub domain: Domain,
    /// Identifier owned by the calling domain.
    pub door: DoorId,
}

struct NullHandler;

impl DoorHandler for NullHandler {
    fn invoke(&self, _ctx: &CallCtx, _msg: Message) -> std::result::Result<Message, DoorError> {
        Ok(Message::new())
    }
}

impl RawDoor {
    /// Sets up the baseline between two fresh domains.
    pub fn new(kernel: &Kernel) -> RawDoor {
        let server = kernel.create_domain("raw-server");
        let client = kernel.create_domain("raw-client");
        let door = server
            .create_door(Arc::new(NullHandler))
            .expect("create door");
        let door = server.transfer_door(door, &client).expect("transfer");
        RawDoor {
            domain: client,
            door,
        }
    }

    /// One null kernel call.
    pub fn call(&self) -> std::result::Result<(), DoorError> {
        self.domain.call(self.door, Message::new())?;
        Ok(())
    }
}

/// The §9.1 *specialized stubs* path: client and server stubs fused for the
/// (pinger, simplex) pair. No trait objects, no generic marshalling — the
/// wire bytes are written and parsed inline, trading flexibility for speed
/// exactly as the paper anticipates.
pub struct FusedPing {
    /// Calling domain.
    pub domain: Domain,
    /// Identifier for the specialized server door.
    pub door: DoorId,
}

/// Server half of the fused pair: parses the simplex wire format directly.
struct FusedServerHandler;

impl DoorHandler for FusedServerHandler {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
        // Wire: [ctrl u8][pad x3][op u32]. Specialized: assume ping.
        if msg.bytes.len() < 8 {
            return Err(DoorError::Handler("short fused request".into()));
        }
        let op = u32::from_le_bytes(msg.bytes[4..8].try_into().expect("4 bytes"));
        if op != OP_PING {
            return Err(DoorError::Handler("fused stub only serves ping".into()));
        }
        // Reply: [ctrl u8][status u8].
        Ok(Message::from_bytes(vec![0, STATUS_OK]))
    }
}

impl FusedPing {
    /// Sets up the fused pair between two fresh domains.
    pub fn new(kernel: &Kernel) -> FusedPing {
        let server = kernel.create_domain("fused-server");
        let client = kernel.create_domain("fused-client");
        let door = server
            .create_door(Arc::new(FusedServerHandler))
            .expect("create door");
        let door = server.transfer_door(door, &client).expect("transfer");
        FusedPing {
            domain: client,
            door,
        }
    }

    /// One fused ping: specialized client stub, no indirect calls.
    pub fn call(&self) -> std::result::Result<(), DoorError> {
        let mut bytes = Vec::with_capacity(8);
        bytes.push(0); // Simplex control byte.
        bytes.extend_from_slice(&[0, 0, 0]); // Alignment padding.
        bytes.extend_from_slice(&OP_PING.to_le_bytes());
        let reply = self.domain.call(self.door, Message::from_bytes(bytes))?;
        if reply.bytes.first() == Some(&0) && reply.bytes.get(1) == Some(&STATUS_OK) {
            Ok(())
        } else {
            Err(DoorError::Handler("bad fused reply".into()))
        }
    }
}
