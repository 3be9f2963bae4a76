//! Per-subcontract and per-door latency histograms.
//!
//! HDR-style log-linear buckets: each power of two is split into
//! [`SUB_BUCKETS`] linear sub-buckets, so recording is still one
//! `leading_zeros` plus one relaxed atomic increment — no allocation, no
//! lock on the hot path — but quantiles now come back with a bounded
//! relative error of `1/SUB_BUCKETS` (6.25%) instead of the old pure-log2
//! factor of two. Values below [`SUB_BUCKETS`]² are recorded exactly.
//! Histograms are keyed by `(key, op)` where `key` is a subcontract
//! identifier (`ScId::raw`-style 64-bit hash) or a kernel door token, and
//! `op` is the operation name (`"marshal"`, `"unmarshal"`, `"invoke"`,
//! `"door_call"`, `"openloop.call"`, ...). The two key spaces share one
//! registry; the op string keeps them apart.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// log2 of the linear sub-buckets per power of two.
pub const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power of two: bounds quantile relative error at
/// `1/SUB_BUCKETS` = 6.25%.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// log2 of the histogram range: covers `[0 ns, 2^40 ns)` ≈ 18 minutes,
/// beyond any latency this system produces; larger samples clamp into the
/// last bucket.
pub const MAX_POW2: u32 = 40;

/// Total log-linear buckets.
pub const BUCKETS: usize = ((MAX_POW2 - SUB_BITS + 1) as usize) << SUB_BITS;

/// One latency histogram (fixed log-linear buckets plus sum/max; the sample
/// count is the buckets' total).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Log-linear bucket index for a nanosecond sample. Values below
/// [`SUB_BUCKETS`] map to their own bucket; above, the top [`SUB_BITS`]
/// bits after the leading one select a linear sub-bucket within the
/// sample's power of two.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    if msb >= MAX_POW2 {
        return BUCKETS - 1;
    }
    let shift = msb - SUB_BITS;
    let sub = ((ns >> shift) as usize) - SUB_BUCKETS;
    let row = (msb - SUB_BITS + 1) as usize;
    (row << SUB_BITS) + sub
}

/// Inclusive lower bound of bucket `i` in nanoseconds.
fn bucket_low(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let row = (i >> SUB_BITS) as u32;
        let sub = (i & (SUB_BUCKETS - 1)) as u64;
        (SUB_BUCKETS as u64 + sub) << (row - 1)
    }
}

/// Exclusive upper bound of bucket `i` in nanoseconds.
fn bucket_high(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64 + 1
    } else {
        let row = (i >> SUB_BITS) as u32;
        bucket_low(i) + (1u64 << (row - 1))
    }
}

impl Histogram {
    /// Records one sample (relaxed atomics only; no allocation).
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // A new maximum is rare; everything else gets by on a load.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// A consistent-enough copy of the counters.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistSnapshot {
    /// Per-bucket sample counts, in the log-linear layout the module
    /// describes.
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Largest single sample in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Samples accounted for by the buckets themselves. `count` is a public
    /// field and may have been set apart from them, so quantile walks use
    /// this sum, which by construction never runs past the last bucket.
    fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `p`-quantile in nanoseconds, `p` in `[0, 1]`; 0 when empty, and
    /// exactly [`HistSnapshot::max_ns`] at `p = 1.0`.
    ///
    /// The returned value is the highest nanosecond value that could have
    /// landed in the quantile's bucket, so it never under-reports: for a
    /// true quantile `q`, `q <= percentile_ns(p) <= q * (1 + 1/SUB_BUCKETS)`
    /// (exact below 2·[`SUB_BUCKETS`]²; see the property test). A NaN `p`
    /// is treated as 0.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let total = self.bucket_total();
        if total == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        if p >= 1.0 {
            return self.max_ns;
        }
        let target = ((total as f64) * p).ceil() as u64;
        let target = target.clamp(1, total);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Highest representable value of the bucket, clamped by the
                // exactly-tracked maximum (which caps the top bucket).
                return (bucket_high(b) - 1).min(self.max_ns);
            }
        }
        // Unreachable: target <= total = sum of buckets.
        self.max_ns
    }

    /// Median in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// 90th percentile in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(0.90)
    }

    /// 99th percentile in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }

    /// 99.9th percentile in nanoseconds.
    pub fn p999_ns(&self) -> u64 {
        self.percentile_ns(0.999)
    }
}

/// (key, op) -> histogram registry.
type Registry = RwLock<HashMap<(u64, &'static str), Arc<Histogram>>>;

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The histogram for `(key, op)`, created on first use.
pub fn histogram(key: u64, op: &'static str) -> Arc<Histogram> {
    if let Some(h) = registry().read().get(&(key, op)) {
        return Arc::clone(h);
    }
    Arc::clone(
        registry()
            .write()
            .entry((key, op))
            .or_insert_with(|| Arc::new(Histogram::default())),
    )
}

/// Records one sample into the `(key, op)` histogram.
pub fn record(key: u64, op: &'static str, ns: u64) {
    histogram(key, op).record(ns);
}

/// Snapshot of the `(key, op)` histogram without creating it — what a
/// remote stats reader uses, where `op` arrives as wire data rather than a
/// `&'static str`.
pub fn snapshot_of(key: u64, op: &str) -> Option<HistSnapshot> {
    registry()
        .read()
        .iter()
        .find(|(&(k, o), _)| k == key && o == op)
        .map(|(_, h)| h.snapshot())
}

/// Snapshot of every histogram, ordered by key then op.
pub fn snapshot_all() -> Vec<(u64, &'static str, HistSnapshot)> {
    let mut out: Vec<(u64, &'static str, HistSnapshot)> = registry()
        .read()
        .iter()
        .map(|(&(key, op), h)| (key, op, h.snapshot()))
        .collect();
    out.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    out
}

/// Drops every histogram.
pub fn clear() {
    registry().write().clear();
    crate::sink::forget();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Exact region: one bucket per value below SUB_BUCKETS, and the
        // first linear row keeps that exactness up to 2*SUB_BUCKETS.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        // Log-linear region: 32..64 shares 16 buckets of width 2.
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_of(34), 33);
        assert_eq!(bucket_of(63), 47);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_partition_the_range() {
        let mut expected_low = 0u64;
        for i in 0..BUCKETS {
            assert_eq!(bucket_low(i), expected_low, "bucket {i}");
            assert!(bucket_high(i) > bucket_low(i));
            expected_low = bucket_high(i);
        }
        assert_eq!(expected_low, 1u64 << MAX_POW2);
        // Every value lands in the bucket whose bounds contain it.
        for ns in [0u64, 1, 15, 16, 100, 1023, 1024, 123_456_789] {
            let b = bucket_of(ns);
            assert!(bucket_low(b) <= ns && ns < bucket_high(b), "ns={ns}");
        }
    }

    #[test]
    fn record_and_stats() {
        let h = Histogram::default();
        for ns in [1u64, 2, 4, 4, 1000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 1011);
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.mean_ns(), 202);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[4], 2);
        // Small samples are exact; 1000 lands in [992, 1024).
        assert_eq!(s.p50_ns(), 4);
        assert_eq!(s.percentile_ns(0.2), 1);
        let p = s.percentile_ns(0.95);
        assert!((1000..1024).contains(&p), "p95 = {p}");
        assert_eq!(s.percentile_ns(1.0), 1000);
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.percentile_ns(0.99), 0);
        assert_eq!(empty.percentile_ns(1.0), 0);

        let h = Histogram::default();
        h.record(7);
        h.record(1_000_000);
        let s = h.snapshot();
        // Out-of-range and NaN quantiles clamp instead of misindexing.
        assert_eq!(s.percentile_ns(-3.0), 7);
        assert_eq!(s.percentile_ns(2.0), 1_000_000);
        assert_eq!(s.percentile_ns(f64::NAN), 7);
        // p = 1.0 is the exactly-tracked maximum, even though the sample
        // sits inside a ~6% wide bucket.
        assert_eq!(s.percentile_ns(1.0), 1_000_000);
    }

    #[test]
    fn clamped_samples_stay_in_range() {
        let h = Histogram::default();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        // The exact max is still reported by percentile_ns(1.0).
        assert_eq!(s.percentile_ns(1.0), u64::MAX);
        // Below p = 1.0 a clamped sample reports the table cap.
        assert_eq!(s.percentile_ns(0.5), (1u64 << MAX_POW2) - 1);
    }

    #[test]
    fn torn_snapshot_does_not_walk_off_the_end() {
        // A snapshot whose `count` field runs ahead of its buckets.
        let h = Histogram::default();
        h.record(100);
        let mut s = h.snapshot();
        s.count += 1;
        let p = s.percentile_ns(1.0);
        assert_eq!(p, 100);
        assert!((100..107).contains(&s.percentile_ns(0.99)));
    }

    #[test]
    fn registry_round_trip() {
        record(0xfeed, "test_op_hist", 100);
        record(0xfeed, "test_op_hist", 200);
        let snap = histogram(0xfeed, "test_op_hist").snapshot();
        assert_eq!(snap.count, 2);
        assert!(snapshot_all()
            .iter()
            .any(|(k, op, _)| *k == 0xfeed && *op == "test_op_hist"));
        // Lookup by non-static string, without creating on miss.
        let by_name = snapshot_of(0xfeed, &String::from("test_op_hist")).unwrap();
        assert_eq!(by_name.count, 2);
        assert!(snapshot_of(0xfeed, "no_such_op_hist").is_none());
        assert!(!snapshot_all()
            .iter()
            .any(|(k, op, _)| *k == 0xfeed && *op == "no_such_op_hist"));
    }
}
