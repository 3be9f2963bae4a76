//! The acceptance gate behind E14: at 1 ms of link latency, a burst of
//! eight pipelined calls must finish at least 3x faster than the same
//! eight calls issued sequentially. The workload is sleep-dominated (each
//! frame pays two 1 ms hops), so the ratio is robust even in debug builds
//! and on loaded machines; a couple of retries absorb scheduler outliers.

use spring_bench::report::{Scale, EXPERIMENTS};

const MIN_SPEEDUP: f64 = 3.0;

#[test]
fn pipelined_burst_is_at_least_3x_faster_at_1ms_latency() {
    let e14 = EXPERIMENTS.iter().find(|e| e.id == "e14").unwrap();
    let mut best = 0.0f64;
    for attempt in 0..3 {
        let speedup = (e14.run)(Scale::Smoke).get("speedup_1ms").unwrap();
        best = best.max(speedup);
        if best >= MIN_SPEEDUP {
            return;
        }
        eprintln!("attempt {attempt}: speedup {speedup:.2}x, retrying");
    }
    panic!("pipelined speedup {best:.2}x < required {MIN_SPEEDUP}x at 1ms latency");
}
