//! `benchmark serve --uds <path>`: the server side of the `*_uds`
//! workloads — the same binary, so the system under test in the other
//! process is built from the same sources with the same settings.
//!
//! It exports one object per interface behind a bootstrap registry (the
//! repo's own first-contact mechanism), the repo's `StatsServant` door for
//! kernel counters, and a small benchmark-owned control door for what only
//! this binary can know: its counting allocator, the decode-copy counter,
//! its network's counters, and the tracing switch.

use std::io::{Read, Write};
use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use spring_net::{NetConfig, Network};
use spring_services::{kv, RegistryServant, StatsServant};
use spring_subcontracts::{Simplex, Singleton};
use subcontract::{
    decode_reply_status, encode_ok, op_hash, Dispatch, ReplyStatus, ServerCtx, ServerSubcontract,
    SpringError, SpringObj, TypeInfo, OBJECT_TYPE,
};

use crate::idl::flatbench;
use crate::service::{BucketState, FlatServant};
use crate::topo::{ctx_on, live_ids};

/// Node id of the serving process (the driving process is node 1).
const SERVE_NODE: u64 = 2;

pub static CONTROL_TYPE: TypeInfo = TypeInfo {
    name: "benchmark::control",
    parents: &[&OBJECT_TYPE],
    default_subcontract: Singleton::ID,
};

const OP_SNAPSHOT: u32 = op_hash("snapshot");
const OP_TRACE: u32 = op_hash("trace");

struct ControlServant {
    kernel: Kernel,
    net: Arc<Network>,
}

impl Dispatch for ControlServant {
    fn type_info(&self) -> &'static TypeInfo {
        &CONTROL_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> subcontract::Result<()> {
        match op {
            OP_SNAPSHOT => {
                let (allocs, _bytes) = crate::alloc::counters();
                let sock = self.net.socket_stats();
                let (spans, failed_spans) = crate::measure::span_totals();
                let pairs: [(&str, u64); 7] = [
                    ("allocs", allocs),
                    (
                        "decode_bytes_copied",
                        spring_buf::flat::decode_bytes_copied(),
                    ),
                    ("live_ids", live_ids(&self.kernel).max(0) as u64),
                    ("frames_sent", sock.frames_sent),
                    ("disconnects", sock.disconnects),
                    ("spans", spans),
                    ("failed_spans", failed_spans),
                ];
                encode_ok(reply);
                reply.put_u32(pairs.len() as u32);
                for (name, value) in pairs {
                    reply.put_string(name);
                    reply.put_u64(value);
                }
                Ok(())
            }
            OP_TRACE => {
                let on = args.get_bool()?;
                spring_trace::reset();
                spring_trace::set_enabled(on);
                encode_ok(reply);
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }
}

/// Hand-written stubs for the control door.
pub struct ControlClient(pub SpringObj);

impl ControlClient {
    /// The serving process's own counters as `(name, value)` pairs.
    pub fn snapshot(&self) -> subcontract::Result<Vec<(String, u64)>> {
        let call = self.0.start_call(OP_SNAPSHOT)?;
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        let n = reply.get_seq_len(12)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((reply.get_string()?, reply.get_u64()?));
        }
        Ok(out)
    }

    /// Clears the serving process's spans and turns its tracing on or off.
    pub fn trace(&self, on: bool) -> subcontract::Result<()> {
        let mut call = self.0.start_call(OP_TRACE)?;
        call.put_bool(on);
        expect_ok(&mut self.0.invoke(call)?)
    }
}

fn expect_ok(reply: &mut CommBuffer) -> subcontract::Result<()> {
    match decode_reply_status(reply)? {
        ReplyStatus::Ok => Ok(()),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}

/// Runs the server until the parent closes our stdin (or kills us).
pub fn serve(path: &str) -> Result<(), String> {
    let net = Network::new(NetConfig::default());
    let node = net.add_node_with_id("bench-serve", SERVE_NODE);
    let kernel = node.kernel().clone();
    let ctx = ctx_on(&kernel, "servants");
    let reg_domain = kernel.create_domain("registry");
    let (registry, reg_door) =
        RegistryServant::publish(&reg_domain).map_err(|e| format!("registry: {e}"))?;

    let export = |skel: Arc<dyn Dispatch>| Simplex.export(&ctx, skel);
    let plain = |disp: Arc<dyn Dispatch>| Singleton.export(&ctx, disp);
    let objects: Vec<(&str, subcontract::Result<SpringObj>)> = vec![
        (
            "ping",
            export(flatbench::FlatPingSkeleton::new(Arc::new(FlatServant))),
        ),
        (
            "kv",
            export(kv::BucketSkeleton::new(Arc::new(BucketState::default()))),
        ),
        ("stats", plain(StatsServant::new(kernel.clone()))),
        (
            "control",
            plain(Arc::new(ControlServant {
                kernel: kernel.clone(),
                net: net.clone(),
            })),
        ),
    ];
    // The registry stores marshalled copies; the originals stay alive here
    // for as long as the process serves.
    let mut keep = Vec::new();
    for (name, obj) in objects {
        let obj = obj.map_err(|e| format!("export {name}: {e}"))?;
        registry
            .register_local(name, &obj)
            .map_err(|e| format!("register {name}: {e}"))?;
        keep.push(obj);
    }
    net.set_bootstrap(node.id(), &reg_domain, reg_door)
        .map_err(|e| format!("set_bootstrap: {e}"))?;
    let _listener = net
        .listen_uds(node.id(), path)
        .map_err(|e| format!("listen {path}: {e}"))?;

    println!("READY");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;

    // Block until the parent goes away: EOF on stdin is the signal.
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    drop(keep);
    Ok(())
}
