//! Lightweight timing for the deterministic `report` binary.
//!
//! Single figures come from [`ns_per_iter`] and [`time_once`]. Every ratio a
//! CI gate reads comes from [`Rounds`]: the arms of a comparison are measured
//! round by round, one after the other inside each round, and the ratio is
//! the median of the per-round ratios — so a host-load spike lands on both
//! arms of a round or spoils one round, and either way the median ignores it.
//! Measuring each arm to completion in sequence (the shape this replaced) let
//! two arms seconds apart see different host weather.

use std::time::{Duration, Instant};

/// Runs `f` `iters` times and returns nanoseconds per iteration.
pub fn timed(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs `f` in a timed loop after a warmup, returning nanoseconds per
/// iteration.
pub fn ns_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    timed(warmup_iters(iters), &mut f);
    timed(iters, f)
}

fn warmup_iters(iters: u64) -> u64 {
    (iters / 10).max(1)
}

/// One arm of a comparison: runs its operation the given number of times
/// and returns nanoseconds per operation.
pub type Arm<'a> = Box<dyn FnMut(u64) -> f64 + 'a>;

/// Wraps an operation as an [`Arm`]; the timed loop is compiled around the
/// operation itself, so the indirection costs one call per batch.
pub fn arm<'a>(mut op: impl FnMut() + 'a) -> Arm<'a> {
    Box::new(move |n| timed(n, &mut op))
}

/// Runs each arm's warm-up batch (a tenth of `iters`, at least once).
pub fn warm(iters: u64, arms: &mut [Arm<'_>]) {
    for arm in arms {
        arm(warmup_iters(iters));
    }
}

/// The readings of several arms measured round by round: `self.0[round]`
/// holds every arm's reading in that round (nanoseconds per operation, when
/// [`Rounds::measure`] took them).
pub struct Rounds(Vec<Vec<f64>>);

impl Rounds {
    /// Measures `rounds` rounds; each round runs every arm once, in order,
    /// for `iters` operations. No warm-up: see [`warm`].
    pub fn measure(rounds: u32, iters: u64, arms: &mut [Arm<'_>]) -> Rounds {
        let round = |_| arms.iter_mut().map(|arm| arm(iters)).collect();
        Rounds((0..rounds.max(1)).map(round).collect())
    }

    /// The arm's fastest round: load only ever slows a batch down, so the
    /// minimum is the stablest single figure for one arm.
    pub fn best(&self, arm: usize) -> f64 {
        let readings = self.0.iter().map(|round| round[arm]);
        readings.fold(f64::INFINITY, f64::min)
    }

    /// The median over the rounds of a figure computed within each round
    /// (the upper middle of an even count).
    pub fn median_of(&self, figure: impl Fn(&[f64]) -> f64) -> f64 {
        let mut values: Vec<f64> = self.0.iter().map(|round| figure(round)).collect();
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    }

    /// `num` over `den`: the median of the per-round ratios.
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        self.median_of(|round| round[num] / round[den])
    }
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
