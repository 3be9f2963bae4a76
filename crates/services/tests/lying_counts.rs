//! A row count read off the wire is bounded by the bytes that follow it
//! before anything is allocated for it: a reply of a few bytes claiming
//! four thousand million rows is a typed `LengthOverrun`, not a request for
//! a hundred gigabytes. The stats door in particular is read across a Unix
//! socket, from whatever answers there.

use std::sync::Arc;

use spring_buf::{BufError, CommBuffer};
use spring_kernel::Kernel;
use spring_services::{StatsClient, TopicRegistryClient, STATS_TYPE, TOPIC_REGISTRY_TYPE};
use spring_subcontracts::{register_standard, Singleton};
use subcontract::{
    encode_ok, ship_object, Dispatch, DomainCtx, KernelTransport, Result, ServerCtx,
    ServerSubcontract, SpringError, SpringObj, TypeInfo,
};

/// Answers every operation of `ty` with success and a count of `u32::MAX`
/// rows, followed by nothing.
struct Liar(&'static TypeInfo);

impl Dispatch for Liar {
    fn type_info(&self) -> &'static TypeInfo {
        self.0
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        _op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        encode_ok(reply);
        reply.put_u32(u32::MAX);
        Ok(())
    }
}

/// A client-side object whose server is a [`Liar`].
fn lying_object(ty: &'static TypeInfo) -> SpringObj {
    let kernel = Kernel::new("liar");
    let ctx_on = |name: &str| {
        let ctx = DomainCtx::new(kernel.create_domain(name));
        register_standard(&ctx);
        ctx.types().register(ty);
        ctx
    };
    let (server, client) = (ctx_on("server"), ctx_on("client"));
    let obj = Singleton.export(&server, Arc::new(Liar(ty))).unwrap();
    ship_object(&KernelTransport, obj, &client, ty).unwrap()
}

fn assert_overrun<T: std::fmt::Debug>(result: Result<T>) {
    match result {
        Err(SpringError::Buf(BufError::LengthOverrun { claimed, limit })) => {
            assert_eq!((claimed, limit), (u32::MAX as u64, 0));
        }
        other => panic!("expected a length overrun, got {other:?}"),
    }
}

#[test]
fn kernel_stats_bounds_its_row_count() {
    assert_overrun(StatsClient(lying_object(&STATS_TYPE)).kernel_stats());
}

#[test]
fn hist_list_bounds_its_row_count() {
    assert_overrun(StatsClient(lying_object(&STATS_TYPE)).hist_list());
}

#[test]
fn topic_list_bounds_its_row_count() {
    assert_overrun(TopicRegistryClient(lying_object(&TOPIC_REGISTRY_TYPE)).list());
}
