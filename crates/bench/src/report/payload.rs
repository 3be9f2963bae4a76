//! Moving bytes: E8 (shared memory against the kernel's payload copy) and
//! E13 (fire-and-forget stream frames against request/reply).

use std::sync::Arc;

use spring_kernel::Kernel;
use spring_net::{NetConfig, Network};
use spring_subcontracts::stream::{FrameOutcome, Stream};
use spring_subcontracts::{Shmem, Simplex};
use subcontract::{ship_object, KernelTransport, ServerSubcontract};

use super::{servant, Scale, Table, Value::*};
use crate::fixtures::{ctx_on, echo, PINGER_TYPE};
use crate::row;
use crate::timing::ns_per_iter;

/// E8 — §5.1.4: shared memory skips the kernel's payload copy.
pub fn e8_shmem(scale: Scale) -> Table {
    let iters: u64 = scale.pick(200, 2_000);
    let mut t = Table::new(
        "e8",
        "E8: shmem vs simplex payload transport",
        "paper §5.1.4",
        &["payload", "simplex", "shmem", "sx copied", "shm copied"],
    );
    t.param("iters", iters);
    let mut copied_share = f64::NAN;
    for size in [64usize, 1024, 16 * 1024, 64 * 1024, 256 * 1024] {
        let kernel = Kernel::new("e8");
        let server = ctx_on(&kernel, "server");
        let client = ctx_on(&kernel, "client");
        let payload = vec![0xAAu8; size];
        // Echo time and bytes the kernel copied per call, warm-up included.
        let measure = |obj| {
            let obj = ship_object(&KernelTransport, obj, &client, &PINGER_TYPE).unwrap();
            let before = kernel.stats();
            let ns = ns_per_iter(iters, || _ = echo(&obj, &payload).unwrap());
            let copied = kernel.stats().since(&before).bytes_copied;
            (ns, copied / (iters + (iters / 10).max(1)))
        };
        let (sx_ns, sx_copied) = measure(Simplex.export(&server, servant()).unwrap());
        let (sh_ns, sh_copied) = measure(Shmem::export(&server, servant(), size + 4096).unwrap());
        row![t; size, Ns(sx_ns), Ns(sh_ns), sx_copied, sh_copied];
        copied_share = sh_copied as f64 / sx_copied as f64;
    }
    t.figure("shmem_copied_share_at_256k", Ratio(copied_share, 3));
    t.note("(request payloads cross in shared memory; replies use the ordinary path)");
    t
}

/// E13 (extension, §8.4 video direction) — frame delivery vs request/reply
/// for media payloads, and behaviour under loss.
pub fn e13_stream(scale: Scale) -> Table {
    let iters: u64 = scale.pick(500, 10_000);
    let mut t = Table::new(
        "e13",
        "E13: stream frames vs request/reply",
        "paper §8.4, extension",
        &["arm (8 KiB frames)", "ns/frame"],
    );
    t.param("iters", iters);
    let kernel = Kernel::new("e13");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    server.register_subcontract(Stream::new());
    client.register_subcontract(Stream::new());

    let frame = vec![0u8; 8 * 1024];

    let obj = Simplex.export(&server, servant()).unwrap();
    let simplex_obj = ship_object(&KernelTransport, obj, &client, &PINGER_TYPE).unwrap();
    let rr = ns_per_iter(iters, || _ = echo(&simplex_obj, &frame).unwrap());

    let (obj, _stats) =
        Stream::export(&server, servant(), Arc::new(|_: u64, _: &[u8]| {})).unwrap();
    let stream_obj = ship_object(&KernelTransport, obj, &client, &PINGER_TYPE).unwrap();
    let fr = ns_per_iter(iters, || {
        _ = Stream::send_frame(&stream_obj, &frame).unwrap()
    });

    row![t; "request/reply echo (simplex)", Ns(rr)];
    row![t; "fire-and-forget frame (stream)", Ns(fr)];
    t.figure("frame_over_echo", Ratio(fr / rr, 2));

    // Loss behaviour over the network: frames drop, calls error.
    let net = Network::new(NetConfig {
        drop_prob: 0.25,
        ..Default::default()
    });
    net.reseed(11);
    let a = net.add_node("cam");
    let b = net.add_node("tv");
    let cam = ctx_on(a.kernel(), "cam");
    let tv = ctx_on(b.kernel(), "tv");
    cam.register_subcontract(Stream::new());
    tv.register_subcontract(Stream::new());
    let (obj, stats) = Stream::export(&tv, servant(), Arc::new(|_: u64, _: &[u8]| {})).unwrap();
    let remote = ship_object(&*net, obj, &cam, &PINGER_TYPE).unwrap();
    let total = 400u64;
    let dropped = (0..total)
        .filter(|_| Stream::send_frame(&remote, &frame).unwrap() == FrameOutcome::Dropped)
        .count();
    t.figure("lossy_frames_sent", total);
    t.figure("lossy_reported_dropped", dropped);
    t.figure("lossy_rendered", stats.received());
    t.figure("lossy_gaps_tolerated", stats.missing());
    t.note(
        "over a 25%-loss link: {lossy_frames_sent} frames sent, {lossy_reported_dropped} \
         reported dropped, {lossy_rendered} rendered, {lossy_gaps_tolerated} gaps tolerated — \
         zero errors",
    );
    t
}
