//! Estimators: the arithmetic between raw samples and reported metrics.
//!
//! Every reported timing starts as a per-round statistic, rescaled by the
//! round's own calibration reading. What a shared host does to a round is
//! one-sided — a neighbour's burst, a stolen millisecond or a slow minute
//! only ever makes it slower — so within a set-up the *quiet* rounds are
//! kept ([`quiet`]), and since two instances of one build differ for their
//! whole lives the result is the *median over set-ups* ([`over_setups`]).

/// The calibration reading, in ns per calibration op, of the reference
/// host. A timing measured in a round whose calibration read `cal_ns` is
/// reported as `t * REF_CAL_NS / cal_ns`, so on a host as fast as the
/// reference the normalised metrics read as plain microseconds.
pub const REF_CAL_NS: f64 = 36.0;

/// Width of the throughput windows inside a round.
pub const WINDOW_NS: u64 = 50_000_000;

/// Median (mean of the two middle values for even counts). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Share of a set-up's rounds that count as quiet for the central figures
/// (p50, calls/s, CPU time): its lower quintile stands for the set-up. Low
/// enough to leave the host's slow phases behind, not so low that the one
/// round that met the host's fastest level speaks for all (on the sizing
/// host `null_local`'s quietest round of twelve spread 12.7 % over ten runs,
/// its third-quietest 4.0 %).
pub const QUIET_SHARE: f64 = 0.2;

/// For the tail latency only a set-up's quietest round counts:
/// interference lands in a round's tail long before it reaches its median,
/// so far fewer rounds have a clean one.
pub const QUIET_TAIL: f64 = 0.0;

/// The value `share` of the way up the ascending order of `values` — the
/// round that stands for a set-up. `share` 0 is the smallest.
pub fn quiet(values: &mut [f64], share: f64) -> f64 {
    assert!(!values.is_empty(), "quiet round of no rounds");
    values.sort_by(|a, b| a.total_cmp(b));
    values[((share * values.len() as f64) as usize).min(values.len() - 1)]
}

/// Median over set-ups of each set-up's quiet round. `setups` holds one
/// list of per-round values per set-up, smaller meaning quieter (callers
/// negate rates).
pub fn over_setups(setups: &[Vec<f64>], share: f64) -> f64 {
    let mut per_setup: Vec<f64> = setups
        .iter()
        .map(|rounds| quiet(&mut rounds.clone(), share))
        .collect();
    median(&mut per_setup)
}

/// Sub-buckets per power of two in [`LatHist`]: a recorded value is off
/// by at most 1/256 (0.4 %) of itself.
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Octaves above the exact range: durations up to 2^(7+33) ns ≈ 18 min.
const OCTAVES: usize = 33;

/// A latency histogram of fixed size: exact below 128, log-linear above
/// (128 sub-buckets per power of two). The timed loop records into it
/// instead of keeping every sample, so the harness's own memory is the
/// same on every run and `peak_rss_mb` measures the system, not how far a
/// sample vector happened to grow.
#[derive(Clone, Debug)]
pub struct LatHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; SUB as usize * (OCTAVES + 1)],
            total: 0,
        }
    }
}

impl LatHist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        // `v` in [2^e, 2^(e+1)) with e >= SUB_BITS: keep the top
        // SUB_BITS + 1 bits.
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let octave = shift as usize + 1;
        if octave > OCTAVES {
            // Beyond the table: the last bucket.
            return SUB as usize * (OCTAVES + 1) - 1;
        }
        octave * SUB as usize + ((v >> shift) - SUB) as usize
    }

    /// The middle of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        let (octave, sub) = ((i as u64) / SUB, (i as u64) % SUB);
        if octave == 0 {
            return sub as f64;
        }
        let shift = octave - 1;
        let low = (SUB + sub) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> usize {
        self.total as usize
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile, `p` in `(0, 100]`; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = rank(self.total as usize, p) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(self.counts.len() - 1)
    }
}

/// The nearest rank (1-based) of the `p`-th percentile among `n` samples.
/// The small slack keeps `99.9 % of 10 000` at 9990 where binary floating
/// point says 9990.000000000002.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice, `p` in `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the standard percentiles that still has at least ten
/// samples beyond it — the deepest tail the sample count supports.
pub fn supported_tail(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Calls per second of one round: the median over its *complete* windows,
/// so a stall inside one window cannot own the round's figure.
pub fn windowed_rate(window_counts: &[u64], complete: usize) -> f64 {
    let complete = complete.min(window_counts.len());
    if complete == 0 {
        return 0.0;
    }
    let mut rates: Vec<f64> = window_counts[..complete]
        .iter()
        .map(|&c| c as f64 * 1e9 / WINDOW_NS as f64)
        .collect();
    median(&mut rates)
}

/// Rescales a duration measured while calibration read `cal_ns`.
pub fn norm_time(t: f64, cal_ns: f64) -> f64 {
    t * REF_CAL_NS / cal_ns
}

/// Rescales a rate (per second) measured while calibration read `cal_ns`.
pub fn norm_rate(r: f64, cal_ns: f64) -> f64 {
    r * cal_ns / REF_CAL_NS
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them, so `compare` judges spread the way the acceptance
/// criterion is stated.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.total_cmp(b));
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        let mut rounds = vec![1.00, 1.02, 0.99, 9.0, 1.01];
        assert_eq!(median(&mut rounds), 1.01);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
    }

    #[test]
    fn quiet_rounds_then_median_over_setups() {
        // Twelve rounds, a quintile in: the third-quietest.
        let mut rounds: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(quiet(&mut rounds.clone(), QUIET_SHARE), 3.0);
        assert_eq!(quiet(&mut rounds, QUIET_TAIL), 1.0);
        assert_eq!(quiet(&mut [7.0], QUIET_SHARE), 7.0);
        // A set-up that was slow for its whole life moves nothing; nor does
        // a noisy stretch inside the others.
        let setups = vec![
            vec![1.00, 1.01, 1.02, 5.0, 6.0],
            vec![3.00, 3.01, 3.02, 3.03, 3.04],
            vec![1.10, 1.11, 9.0, 1.12, 1.13],
        ];
        assert_eq!(over_setups(&setups, QUIET_SHARE), 1.11);
        assert_eq!(over_setups(&setups, QUIET_TAIL), 1.10);
    }

    #[test]
    fn windowed_rate_drops_the_partial_window_and_survives_a_stall() {
        // Five complete windows at 1000 calls each, one of them stalled,
        // and a partial sixth the caller excludes.
        let counts = [1000, 1000, 20, 1000, 1000, 300];
        assert_eq!(windowed_rate(&counts, 5), 1000.0 * 1e9 / WINDOW_NS as f64);
        assert_eq!(windowed_rate(&counts, 0), 0.0);
    }

    #[test]
    fn histogram_percentiles_are_within_its_resolution() {
        let mut h = LatHist::default();
        assert_eq!(h.percentile(50.0), 0.0);
        // Small values are exact.
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(100.0), 100.0);
        // Large ones are within 0.4 % of themselves.
        let mut h = LatHist::default();
        let values: Vec<u64> = (0..10_000).map(|i| 7_000 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = values[((p / 100.0 * 10_000.0_f64).ceil() as usize) - 1] as f64;
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.004,
                "p{p}: {got} vs {exact}"
            );
        }
        // Bucket edges: every value maps into its own bucket's range.
        for v in [
            127,
            128,
            129,
            255,
            256,
            257,
            1 << 20,
            (1 << 20) + 5000,
            u64::MAX,
        ] {
            let i = LatHist::index(v);
            assert!(i < h.counts.len(), "{v} maps outside the table");
        }
        assert!(
            (LatHist::value(LatHist::index(1 << 20)) - (1u64 << 20) as f64).abs() < 4096.0 * 2.0
        );
        let mut merged = LatHist::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.len(), 20_000);
        assert_eq!(merged.percentile(50.0), h.percentile(50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(45_000), 99.9);
        assert_eq!(supported_tail(100_000), 99.99);
        assert_eq!(supported_tail(50), 50.0);
    }

    #[test]
    fn normalisation_cancels_host_speed() {
        // A host twice as slow reads twice the calibration and twice the
        // latency: the normalised values agree.
        assert_eq!(norm_time(1.5, REF_CAL_NS), 1.5);
        assert_eq!(norm_time(3.0, 80.0), norm_time(1.5, 40.0));
        assert_eq!(norm_rate(500.0, 80.0), norm_rate(1000.0, 40.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
