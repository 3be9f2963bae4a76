//! Lightweight timing for the deterministic `report` binary.

use std::time::{Duration, Instant};

/// Runs `f` in a timed loop after a warmup, returning nanoseconds per
/// iteration.
pub fn ns_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs `rounds` timed batches of `iters` iterations (after one warmup
/// batch) and returns the *fastest* batch's nanoseconds per iteration.
///
/// Load spikes on a busy host only ever slow a batch down, never speed it
/// up, so the minimum is a far more stable estimator than one long mean —
/// which matters for the ratio-based CI gates, where two arms measured
/// seconds apart must not see different host weather.
pub fn ns_per_iter_min(rounds: u32, iters: u64, mut f: impl FnMut()) -> f64 {
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Times one execution of `f`.
pub fn time_once(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Formats nanoseconds compactly.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}
