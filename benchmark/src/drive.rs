//! The closed timed loop every measurement runs in.
//!
//! A rung is one way of issuing the workload's calls (a stub, a raw door
//! call, a bare servant method, …). The loop walks the rung's op table in
//! blocks: inputs a lower rung needs pre-built are made *before* the clock
//! starts, replies are checked *after* it stops, and one latency sample is
//! the block's duration divided by its calls. In-process workloads use
//! blocks of 16 so the two clock reads stay under 1 % of a sample; the
//! cross-process workloads time every call on its own.

use std::time::{Duration, Instant};

use crate::est::{LatHist, WINDOW_NS};

/// Calls per latency sample in the in-process workloads.
pub const BLOCK_LOCAL: usize = 16;
/// The cross-process workloads time each call.
pub const BLOCK_UDS: usize = 1;

/// Calls per sample for in-process rungs whose calls carry `payload` bytes
/// on average: `BLOCK_LOCAL`, or fewer when a block's pre-built requests
/// and replies would not stay in L2 until the block runs. With 16 calls
/// of 64 KiB prepared ahead, the raw-door rung read its inputs back from
/// further out than the real call path ever does and came out 1 µs high.
pub fn block_for(payload: u64) -> usize {
    const PREPARED_BYTES: u64 = 256 * 1024;
    (PREPARED_BYTES / (2 * payload).max(1)).clamp(2, BLOCK_LOCAL as u64) as usize
}

pub trait Rung {
    /// Owned inputs built outside the timed region.
    type Prep;
    /// What the call returned, checked outside the timed region.
    type Out;

    /// Table positions (the cursor wraps here).
    fn len(&self) -> usize;
    fn prep(&self, i: usize) -> Self::Prep;
    /// The timed call.
    fn run(&self, i: usize, prep: Self::Prep) -> Self::Out;
    /// Checks (and consumes) what the call returned.
    fn ok(&self, i: usize, out: Self::Out) -> bool;
}

/// One benchmark-side span: a block of `calls` consecutive calls issued at
/// one rung. `call` is the table position of the first, which every rung
/// replaying that position shares.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    pub call: u32,
    pub calls: u32,
}

/// What one run of the loop recorded.
#[derive(Debug, Default)]
pub struct Rec {
    /// Block durations in ns (one entry per block of `block` calls).
    pub hist: LatHist,
    /// Calls per block; 0 until something was recorded.
    pub block: usize,
    /// Correct completed calls per window (`WINDOW_NS`) since the loop
    /// started.
    pub windows: Vec<u64>,
    /// Windows that elapsed completely before the loop stopped.
    pub complete_windows: usize,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_ns: u64,
    /// Heap allocations made inside the timed regions (process-wide, so
    /// only meaningful with one caller).
    pub allocs: u64,
    /// Filled only when the caller asks for spans (the layer pass).
    pub spans: Vec<Span>,
}

impl Rec {
    /// Latency samples recorded.
    pub fn samples(&self) -> usize {
        self.hist.len()
    }

    /// Nearest-rank percentile of the per-call latency in ns.
    pub fn percentile(&self, p: f64) -> f64 {
        self.hist.percentile(p) / self.block.max(1) as f64
    }

    /// Folds another caller's record of the same round into this one.
    pub fn merge(&mut self, other: Rec) {
        self.hist.merge(&other.hist);
        self.block = self.block.max(other.block);
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), 0);
        }
        for (w, c) in self.windows.iter_mut().zip(&other.windows) {
            *w += c;
        }
        self.complete_windows = if self.attempted == 0 {
            other.complete_windows
        } else {
            self.complete_windows.min(other.complete_windows)
        };
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
        self.allocs += other.allocs;
        self.spans.extend(other.spans);
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    /// At least this many calls (rounded up to whole blocks).
    Calls(u64),
}

/// Runs the closed loop at `rung` from table position `*cursor`.
pub fn drive<R: Rung>(
    rung: &R,
    cursor: &mut usize,
    block: usize,
    stop: Stop,
    keep_spans: bool,
) -> Rec {
    let len = rung.len();
    // Everything the loop itself allocates is sized here, once, so the
    // harness makes the same number of allocations on every run and the
    // per-call allocation counts taken around it repeat exactly.
    let windows = match stop {
        Stop::After(d) => (d.as_nanos() as u64 / WINDOW_NS) as usize + 2,
        Stop::Calls(_) => 1024,
    };
    let mut rec = Rec {
        block,
        windows: Vec::with_capacity(windows),
        ..Rec::default()
    };
    let mut preps: Vec<R::Prep> = Vec::with_capacity(block);
    let mut outs: Vec<R::Out> = Vec::with_capacity(block);
    let epoch = spring_trace::now_ns();
    let start = Instant::now();
    loop {
        let first = *cursor;
        for k in 0..block {
            preps.push(rung.prep((first + k) % len));
        }
        let a0 = crate::alloc::counters().0;
        let t0 = Instant::now();
        for (k, prep) in preps.drain(..).enumerate() {
            outs.push(rung.run((first + k) % len, prep));
        }
        let t1 = Instant::now();
        rec.allocs += crate::alloc::counters().0 - a0;
        let mut good = 0u64;
        for (k, out) in outs.drain(..).enumerate() {
            good += u64::from(rung.ok((first + k) % len, out));
        }
        *cursor = (first + block) % len;

        rec.attempted += block as u64;
        rec.failed += block as u64 - good;
        rec.hist.record((t1 - t0).as_nanos() as u64);
        let since = (t1 - start).as_nanos() as u64;
        let window = (since / WINDOW_NS) as usize;
        if rec.windows.len() <= window {
            rec.windows.resize(window + 1, 0);
        }
        rec.windows[window] += good;
        if keep_spans {
            let begin = (t0 - start).as_nanos() as u64;
            rec.spans.push(Span {
                start_ns: epoch + begin,
                end_ns: epoch + since,
                call: first as u32,
                calls: block as u32,
            });
        }
        let done = match stop {
            Stop::After(d) => t1 - start >= d,
            Stop::Calls(n) => rec.attempted >= n,
        };
        if done {
            rec.elapsed_ns = since;
            rec.complete_windows = (since / WINDOW_NS) as usize;
            return rec;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rung whose every third call "fails", to check the accounting.
    struct Fake;

    impl Rung for Fake {
        type Prep = usize;
        type Out = usize;
        fn len(&self) -> usize {
            10
        }
        fn prep(&self, i: usize) -> usize {
            i * 2
        }
        fn run(&self, i: usize, prep: usize) -> usize {
            assert_eq!(prep, i * 2, "prep and run see the same position");
            i
        }
        fn ok(&self, i: usize, out: usize) -> bool {
            assert_eq!(i, out);
            !i.is_multiple_of(3)
        }
    }

    #[test]
    fn the_loop_counts_wraps_and_records() {
        let mut cursor = 8;
        let rec = drive(&Fake, &mut cursor, 4, Stop::Calls(20), true);
        assert_eq!(rec.attempted, 20);
        assert_eq!(cursor, 8, "20 calls from 8 wrap the 10-entry table twice");
        // Positions 0, 3, 6, 9 fail: 4 per cycle, two cycles.
        assert_eq!(rec.failed, 8);
        assert_eq!(rec.samples(), 5);
        assert_eq!(rec.spans.len(), 5);
        assert_eq!(rec.spans[0].call, 8);
        assert_eq!(rec.windows.iter().sum::<u64>(), 12);
    }

    #[test]
    fn big_payloads_get_small_blocks() {
        assert_eq!(block_for(16), BLOCK_LOCAL);
        assert_eq!(block_for(1024 + 8), BLOCK_LOCAL);
        assert_eq!(block_for(16 + 65536), 2);
    }

    #[test]
    fn merged_callers_share_windows() {
        let mut a = Rec {
            windows: vec![5, 5],
            complete_windows: 2,
            attempted: 10,
            ..Rec::default()
        };
        let b = Rec {
            windows: vec![1, 2, 3],
            complete_windows: 1,
            attempted: 6,
            failed: 1,
            ..Rec::default()
        };
        a.merge(b);
        assert_eq!(a.windows, vec![6, 7, 3]);
        assert_eq!(a.complete_windows, 1);
        assert_eq!((a.attempted, a.failed), (16, 1));
    }
}
