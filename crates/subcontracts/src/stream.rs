//! The *stream* subcontract: the paper's video future direction (§8.4).
//!
//! "One is to develop a subcontract that lets video objects encapsulate a
//! specific network packet protocol for live video." Live media tolerates
//! loss but not latency: a late frame is a useless frame. This subcontract
//! therefore speaks two protocols through one door: ordinary operations use
//! the usual request/reply wire, while *frames* are sequence-numbered,
//! fire-and-forget datagrams — a lost frame is reported as dropped, never as
//! an error, and the receiver tracks gaps instead of requesting
//! retransmission.
//!
//! Like `priority` and `txn`, this is written entirely against the public
//! `subcontract` API: the packet protocol lives in the control region and
//! the subcontract's own door handler, with no new base-system facilities.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId};
use subcontract::{
    client, export_door, Call, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId,
    SpringObj,
};

/// Control-region kind: an ordinary request/reply operation.
const KIND_CALL: u8 = 0;
/// Control-region kind: a fire-and-forget frame.
const KIND_FRAME: u8 = 1;

/// What happened to one transmitted frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameOutcome {
    /// The frame reached the sink.
    Delivered,
    /// The network lost the frame; live streams simply move on.
    Dropped,
}

/// Receives frames on the server side.
pub trait FrameSink: Send + Sync {
    /// Called once per arriving frame, with its sequence number.
    fn frame(&self, seq: u64, data: &[u8]);
}

impl<F: Fn(u64, &[u8]) + Send + Sync> FrameSink for F {
    fn frame(&self, seq: u64, data: &[u8]) {
        self(seq, data)
    }
}

/// Receiver-side accounting: how much of the stream actually arrived.
#[derive(Debug, Default)]
pub struct StreamStats {
    received: AtomicU64,
    highest_seq: AtomicU64,
    out_of_order: AtomicU64,
}

impl StreamStats {
    /// Frames that reached the sink.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// The highest sequence number seen (0 before any frame).
    pub fn highest_seq(&self) -> u64 {
        self.highest_seq.load(Ordering::Relaxed)
    }

    /// Frames observed with gaps before them — the loss the protocol
    /// tolerates by design.
    pub fn missing(&self) -> u64 {
        self.highest_seq().saturating_sub(self.received())
    }

    /// Frames that arrived with a sequence number lower than one already
    /// seen.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order.load(Ordering::Relaxed)
    }
}

/// The stream subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Stream;

impl Stream {
    /// The identifier carried in stream objects' marshalled form.
    pub const ID: ScId = ScId::from_name("stream");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Stream> {
        Arc::new(Stream)
    }

    /// Exports a stream object: ordinary operations go to `disp`, frames go
    /// to `sink`. Returns the object and the receiver-side statistics.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
        sink: Arc<dyn FrameSink>,
    ) -> Result<(SpringObj, Arc<StreamStats>)> {
        let stats = Arc::new(StreamStats::default());
        let seen = stats.clone();
        // Server side: demultiplexes frames from ordinary calls.
        let control = move |call: &mut Call<'_>, disp: &dyn Dispatch| {
            let args = &mut call.args;
            let kind = args
                .get_u8()
                .map_err(|e| DoorError::Handler(format!("bad stream control: {e}")))?;
            match kind {
                KIND_FRAME => {
                    let (seq, data) = (|| -> Result<(u64, Vec<u8>)> {
                        Ok((args.get_u64()?, args.get_bytes()?))
                    })()
                    .map_err(|e| DoorError::Handler(format!("bad frame: {e}")))?;
                    seen.received.fetch_add(1, Ordering::Relaxed);
                    let prev = seen.highest_seq.fetch_max(seq, Ordering::Relaxed);
                    if seq < prev {
                        seen.out_of_order.fetch_add(1, Ordering::Relaxed);
                    }
                    sink.frame(seq, &data);
                    Ok(())
                }
                KIND_CALL => call.dispatch(disp),
                other => Err(DoorError::Handler(format!(
                    "unknown stream packet kind {other}"
                ))),
            }
        };
        let obj = export_door(ctx, "stream.serve", Self::ID, disp, control, |_| {
            Ok(|door| DoorRepr::of(door, AtomicU64::new(1)))
        })?;
        Ok((obj, stats))
    }

    /// Sends one frame, fire-and-forget: a lost frame yields
    /// [`FrameOutcome::Dropped`], not an error. Frames are sequence-numbered
    /// per object.
    pub fn send_frame(obj: &SpringObj, data: &[u8]) -> Result<FrameOutcome> {
        let repr = client::repr::<Stream>(obj)?;
        let seq = repr.state.fetch_add(1, Ordering::Relaxed);
        let mut buf = CommBuffer::new();
        buf.put_u8(KIND_FRAME);
        buf.put_u64(seq);
        buf.put_bytes(data);
        match obj.ctx().domain().call(repr.door, buf.into_message()) {
            Ok(_) => Ok(FrameOutcome::Delivered),
            // Loss is part of the protocol; a dead endpoint is not.
            Err(DoorError::Comm(_)) => Ok(FrameOutcome::Dropped),
            Err(e) => Err(e.into()),
        }
    }
}

/// Client representation: the door, then the next frame sequence number.
impl DoorSubcontract for Stream {
    const ID: ScId = Stream::ID;
    const NAME: &'static str = "stream";
    type State = AtomicU64;

    fn preamble(&self, _obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        call.put_u8(KIND_CALL);
        Ok(())
    }

    fn put(&self, next_seq: &AtomicU64, buf: &mut CommBuffer) {
        // Sequence numbering continues where the sender left off, so the
        // receiver's gap accounting stays meaningful across a hand-off.
        buf.put_u64(next_seq.load(Ordering::Relaxed));
    }

    fn get(&self, _ctx: &Arc<DomainCtx>, _door: DoorId, buf: &mut CommBuffer) -> Result<AtomicU64> {
        Ok(AtomicU64::new(buf.get_u64()?))
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, next_seq: &AtomicU64) -> Result<AtomicU64> {
        Ok(AtomicU64::new(next_seq.load(Ordering::Relaxed)))
    }
}
