//! A live observability door: kernel counters and latency percentiles as a
//! Spring service.
//!
//! The benchmark harness reads kernel counters and trace histograms
//! in-process; this servant exports the same numbers through the ordinary
//! subcontract machinery, so *any* client — same domain, another domain,
//! or across a `spring-net` link — can door-call for a consistent snapshot
//! while load is running. Nothing here is special-cased: the stats door is
//! a singleton object like every other service, which is exactly the
//! paper's point about uniform object invocation (§4).
//!
//! Wire format choices favor forward compatibility over compactness:
//! kernel counters travel as `(name, value)` pairs with an explicit count,
//! so clients keep working when a counter is added, and histogram
//! summaries carry explicit percentile fields rather than raw buckets.

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::Kernel;
use subcontract::{
    decode_reply_status, encode_ok, op_hash, Dispatch, ReplyStatus, Result, ServerCtx, SpringError,
    SpringObj, TypeInfo, OBJECT_TYPE,
};

/// Run-time type of stats objects.
pub static STATS_TYPE: TypeInfo = TypeInfo {
    name: "stats",
    parents: &[&OBJECT_TYPE],
    default_subcontract: spring_subcontracts::Singleton::ID,
};

/// Returns the kernel counter snapshot as `(name, value)` pairs.
pub const OP_KERNEL_STATS: u32 = op_hash("kernel_stats");
/// Lists the registered latency histograms as `(key, op, count)` rows.
pub const OP_HIST_LIST: u32 = op_hash("hist_list");
/// Returns the percentile summary of one histogram, looked up by
/// `(key, op)`; fails with a user exception when no such histogram exists.
pub const OP_HIST_SUMMARY: u32 = op_hash("hist_summary");

/// User exception raised by [`OP_HIST_SUMMARY`] for an unknown histogram.
pub const EXN_NO_SUCH_HIST: &str = "no_such_histogram";

/// Percentile summary of one latency histogram, as read through the door.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Largest single sample in nanoseconds.
    pub max_ns: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: u64,
}

/// Servant answering stats queries against one kernel plus the process-wide
/// trace histogram registry.
pub struct StatsServant {
    kernel: Kernel,
}

impl StatsServant {
    /// Creates a servant reporting on the given kernel.
    pub fn new(kernel: Kernel) -> Arc<StatsServant> {
        Arc::new(StatsServant { kernel })
    }
}

impl Dispatch for StatsServant {
    fn type_info(&self) -> &'static TypeInfo {
        &STATS_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            x if x == OP_KERNEL_STATS => {
                let pairs = self.kernel.stats().fields();
                encode_ok(reply);
                reply.put_u32(pairs.len() as u32);
                for (name, value) in pairs {
                    reply.put_string(name);
                    reply.put_u64(value);
                }
                Ok(())
            }
            x if x == OP_HIST_LIST => {
                let all = spring_trace::snapshot_all();
                encode_ok(reply);
                reply.put_u32(all.len() as u32);
                for (key, op_name, snap) in all {
                    reply.put_u64(key);
                    reply.put_string(op_name);
                    reply.put_u64(snap.count);
                }
                Ok(())
            }
            x if x == OP_HIST_SUMMARY => {
                let key = args.get_u64()?;
                let op_name = args.get_string()?;
                match spring_trace::snapshot_of(key, &op_name) {
                    Some(snap) => {
                        encode_ok(reply);
                        reply.put_u64(snap.count);
                        reply.put_u64(snap.sum_ns);
                        reply.put_u64(snap.max_ns);
                        reply.put_u64(snap.p50_ns());
                        reply.put_u64(snap.p90_ns());
                        reply.put_u64(snap.p99_ns());
                        reply.put_u64(snap.p999_ns());
                    }
                    None => {
                        subcontract::encode_user_exception(reply, EXN_NO_SUCH_HIST);
                        reply.put_u64(key);
                        reply.put_string(&op_name);
                    }
                }
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }
}

/// Typed convenience wrapper playing the role of generated stubs.
pub struct StatsClient(pub SpringObj);

impl StatsClient {
    /// Reads the kernel counter snapshot as `(name, value)` pairs, in the
    /// order the server defines them.
    pub fn kernel_stats(&self) -> Result<Vec<(String, u64)>> {
        let call = self.0.start_call(OP_KERNEL_STATS)?;
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        // A row is a length-prefixed name and a u64.
        let n = reply.get_seq_len(4 + 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let name = reply.get_string()?;
            let value = reply.get_u64()?;
            out.push((name, value));
        }
        Ok(out)
    }

    /// Lists the server's registered histograms as `(key, op, count)` rows.
    pub fn hist_list(&self) -> Result<Vec<(u64, String, u64)>> {
        let call = self.0.start_call(OP_HIST_LIST)?;
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        // A row is two u64s around a length-prefixed name.
        let n = reply.get_seq_len(8 + 4 + 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let key = reply.get_u64()?;
            let op = reply.get_string()?;
            let count = reply.get_u64()?;
            out.push((key, op, count));
        }
        Ok(out)
    }

    /// Reads the percentile summary of the histogram registered under
    /// `(key, op)`; `Ok(None)` when the server has no such histogram.
    pub fn hist_summary(&self, key: u64, op: &str) -> Result<Option<HistSummary>> {
        let mut call = self.0.start_call(OP_HIST_SUMMARY)?;
        call.put_u64(key);
        call.put_string(op);
        let mut reply = self.0.invoke(call)?;
        match decode_reply_status(&mut reply)? {
            ReplyStatus::Ok => Ok(Some(HistSummary {
                count: reply.get_u64()?,
                sum_ns: reply.get_u64()?,
                max_ns: reply.get_u64()?,
                p50_ns: reply.get_u64()?,
                p90_ns: reply.get_u64()?,
                p99_ns: reply.get_u64()?,
                p999_ns: reply.get_u64()?,
            })),
            ReplyStatus::UserException(name) if name == EXN_NO_SUCH_HIST => Ok(None),
            ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
        }
    }
}

fn expect_ok(reply: &mut CommBuffer) -> Result<()> {
    match decode_reply_status(reply)? {
        ReplyStatus::Ok => Ok(()),
        ReplyStatus::UserException(name) => Err(SpringError::UnknownUserException(name)),
    }
}
