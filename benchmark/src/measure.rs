//! The two passes over a workload: end to end (`--trace 0`) and per layer
//! (`--trace 1`).

use std::time::{Duration, Instant};

use crate::bench::{Bench, Counts, Ladder, Plan, UNTRACED};
use crate::drive::{Rec, Stop};
use crate::est::{self, median, norm_rate, norm_time, QUIET_SHARE, QUIET_TAIL};
use crate::host::{cpu_ns, peak_rss_mib, Calibrator};
use crate::workloads;

/// What the command line asks for.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Directory for `layers.json`, if wanted.
    pub out: Option<std::path::PathBuf>,
}

/// A finished run: what goes on the result line plus the human-readable
/// lines printed above it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Target length of one timed round; the run's seconds are split evenly
/// into a whole number of rounds per set-up.
const ROUND_S: f64 = 0.25;

/// One timed round, raw; `cal_ns` is what its own calibration bracket read.
struct Round {
    cal_ns: f64,
    p50_ns: f64,
    p90_ns: f64,
    p99_ns: f64,
    tail_p: f64,
    tail_ns: f64,
    rate: f64,
    cpu_ns_per_call: f64,
    samples: usize,
    attempted: u64,
    failed: u64,
}

fn timed_round(bench: &mut dyn Bench, cal: &Calibrator, len: Duration) -> Round {
    let pids = bench.pids();
    let cal_before = cal.read();
    let cpu_before: u64 = pids.iter().map(|&p| cpu_ns(p)).sum();
    let rec = bench.round(Stop::After(len), false);
    let cpu_after: u64 = pids.iter().map(|&p| cpu_ns(p)).sum();
    let cal_after = cal.read();

    let tail_p = est::supported_tail(rec.samples());
    let good = (rec.attempted - rec.failed).max(1);
    Round {
        cal_ns: (cal_before + cal_after) / 2.0,
        p50_ns: rec.percentile(50.0),
        p90_ns: rec.percentile(90.0),
        p99_ns: rec.percentile(99.0),
        tail_p,
        tail_ns: rec.percentile(tail_p),
        rate: est::windowed_rate(&rec.windows, rec.complete_windows),
        cpu_ns_per_call: cpu_after.saturating_sub(cpu_before) as f64 / good as f64,
        samples: rec.samples(),
        attempted: rec.attempted,
        failed: rec.failed,
    }
}

/// A reported figure: median over set-ups of each set-up's quiet round
/// (see `est`). `f` gives a round's value, smaller meaning quieter.
fn figure(setups: &[Vec<Round>], share: f64, f: impl Fn(&Round) -> f64) -> f64 {
    let values: Vec<Vec<f64>> = setups
        .iter()
        .map(|rounds| rounds.iter().map(&f).collect())
        .collect();
    est::over_setups(&values, share)
}

fn med<'a>(rounds: impl Iterator<Item = &'a Round>, f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.map(f).collect::<Vec<_>>())
}

/// Rounds per set-up and the length of one, so that the rounds of all
/// set-ups together measure for `seconds`.
fn split_rounds(seconds: f64) -> (usize, Duration) {
    let per_setup = ((seconds / ROUND_S / SETUPS as f64).round() as usize).max(1);
    let len = seconds / (per_setup * SETUPS) as f64;
    (per_setup, Duration::from_secs_f64(len))
}

/// `--trace 0`: tracing off; several fresh set-ups, each timed (their
/// median is `setup_s`) and each followed by its share of the timed rounds.
///
/// Spreading the rounds over set-ups matters as much as splitting the run
/// into rounds: a set-up is a new serving process, new kernels and a new
/// heap layout, and on the sizing host two instances of one build differed
/// by up to 15 % for their whole lives. A run that sampled one instance
/// reported that instance's luck.
pub fn end_to_end(cfg: &Cfg) -> Result<Outcome, String> {
    let cal = Calibrator::new();
    cal.read(); // touch the kernel's pages before it brackets anything

    let (per_setup, len) = split_rounds(cfg.seconds);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setups: Vec<Vec<Round>> = Vec::with_capacity(SETUPS);
    let (mut leaked, mut rss) = (0, 0.0f64);
    for _ in 0..SETUPS {
        // Set-up is mostly calls too (populate, warm-up), so it is put on
        // the same scale as they are.
        let cal_before = cal.read();
        let t0 = Instant::now();
        let mut bench = workloads::build(&cfg.workload, cfg.seed)?;
        let took = t0.elapsed().as_secs_f64();
        setup_times.push(norm_time(took, (cal_before + cal.read()) / 2.0));

        let ids_before = bench.live_ids()?;
        setups.push(
            (0..per_setup)
                .map(|_| timed_round(bench.as_mut(), &cal, len))
                .collect(),
        );
        leaked += bench.live_ids()? - ids_before;
        // This process's high-water mark only ever grows; the serving
        // process is new each time, so the largest pair counts.
        rss = rss.max(bench.pids().iter().map(|&p| peak_rss_mib(p)).sum());
        // Torn down before the next set-up starts (serving process killed
        // and reaped, socket gone), so set-ups do not overlap.
    }
    let rounds = || setups.iter().flatten();
    let n = rounds().count();

    let attempted: u64 = rounds().map(|r| r.attempted).sum();
    let failed: u64 = rounds().map(|r| r.failed).sum();
    let us = |share: f64, f: fn(&Round) -> f64| {
        figure(&setups, share, |r| norm_time(f(r), r.cal_ns) / 1000.0)
    };
    let metrics = vec![
        ("setup_s", median(&mut setup_times.clone()), "s"),
        ("call_p50_us_norm", us(QUIET_SHARE, |r| r.p50_ns), "us"),
        ("call_p90_us_norm", us(QUIET_TAIL, |r| r.p90_ns), "us"),
        (
            "calls_per_s_norm",
            // Negated, so that the quiet rounds are the fast ones.
            -figure(&setups, QUIET_SHARE, |r| -norm_rate(r.rate, r.cal_ns)),
            "1/s",
        ),
        (
            "cpu_us_per_call_norm",
            us(QUIET_SHARE, |r| r.cpu_ns_per_call),
            "us",
        ),
        ("peak_rss_mb", rss, "MiB"),
    ];

    let first = &setups[0][0];
    let mut notes = vec![format!(
        "{}: seed {}, {SETUPS} set-ups, {} rounds x {:.2} s in all, {} calls/sample, {} samples/round (median), \
         {} CPUs online, all threads and the serving process pinned to one",
        cfg.workload,
        cfg.seed,
        n,
        len.as_secs_f64(),
        first.attempted / first.samples.max(1) as u64,
        med(rounds(), |r| r.samples as f64),
        crate::host::online_cpus(),
    )];
    notes.push(format!(
        "median round, raw: call_p50_us {:.4}  call_p90_us {:.4}  call_p99_us {:.4}  calls_per_s {:.1}  \
         cpu_us_per_call {:.4}  host.cal_ns {:.4}",
        med(rounds(), |r| r.p50_ns) / 1000.0,
        med(rounds(), |r| r.p90_ns) / 1000.0,
        med(rounds(), |r| r.p99_ns) / 1000.0,
        med(rounds(), |r| r.rate),
        med(rounds(), |r| r.cpu_ns_per_call) / 1000.0,
        med(rounds(), |r| r.cal_ns),
    ));
    notes.push(format!(
        "deeper tails, quietest round per set-up (ungated): p99 = {:.4} us, p{} = {:.4} us normalised \
         ({} samples/round)",
        us(QUIET_TAIL, |r| r.p99_ns),
        first.tail_p,
        us(QUIET_TAIL, |r| r.tail_ns),
        first.samples,
    ));
    notes.push(format!(
        "set-ups: {}",
        setup_times
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "kernel.ids_leaked {leaked} (live identifiers after the rounds minus before, both processes)"
    ));
    Ok(Outcome {
        correct: failed == 0 && leaked == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

// ---------------------------------------------------------------- layers

fn at(counts: &Counts, key: &str) -> f64 {
    counts.get(key).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Rounds an allocations-per-call figure to 0.001. In-process the server
/// side is counted on a timed ladder slice, where a handful of one-off
/// allocations divided by however many calls the slice fit leaves a
/// residue in the sixth decimal that differs from run to run; the count
/// itself (0, 1, 2 … per call) does not.
fn per_mille(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn p50_of(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    est::percentile(&v, 50.0)
}

/// Spans recorded since the last reset (all scopes), and how many of the
/// retained ones ended in failure.
pub fn span_totals() -> (u64, u64) {
    let recorded = spring_trace::ring::scopes()
        .into_iter()
        .map(|s| spring_trace::ring::ring_for(s).recorded())
        .sum();
    let failed = spring_trace::ring::events()
        .iter()
        .filter(|e| e.failed)
        .count() as u64;
    (recorded, failed)
}

/// Most by which the ladder's top rung may differ from the untraced
/// workload (`ladder.closure_err`) in a layer pass of full length.
const CLOSURE_MAX: f64 = 0.10;

/// `--trace 1`: one set-up; the ladder with the untraced workload between
/// its turns, a counted pass, and the repo's tracing on in slices that
/// alternate with untraced ones.
pub fn layers(cfg: &Cfg) -> Result<Outcome, String> {
    let cal = Calibrator::new();
    let cal_ns = {
        cal.read();
        cal.read()
    };
    let mut bench = workloads::build(&cfg.workload, cfg.seed)?;

    // The budget: a twelfth of the run for each ladder rung (at most
    // eight), for the untraced workload between the ladder's turns and for
    // the traced comparison, which leaves room for the capture and counted
    // passes. Everything timed is cut into short calibrated slices (see
    // `Plan`).
    let passes = 10;
    let plan = Plan {
        passes,
        slice: Duration::from_secs_f64(cfg.seconds / 12.0 / passes as f64),
    };
    let Ladder { mut rungs, metrics } = bench.ladder(plan, &cal)?;
    let untraced = rungs
        .pop()
        .filter(|r| r.name == UNTRACED)
        .ok_or("ladder has no untraced entry")?;
    let top = rungs.last().ok_or("ladder has no rungs")?;
    let mut pairs: Vec<f64> = top
        .slices
        .iter()
        .zip(&untraced.slices)
        .map(|(spans_on, spans_off)| spans_on / spans_off)
        .collect();
    let closure_err = (median(&mut pairs) - 1.0).abs();
    let ladder_calls = (untraced.samples * bench.block()) as u64;
    // Leaks are counted over the workload's own calls from here on — the
    // counted pass and the traced slices. The ladder's one-off fixtures
    // (tapped exports, a replica network, first exports of a door, which
    // the network servers pin for good) create identifiers that rightly
    // live until teardown.
    let ids_before = bench.live_ids()?;

    // Counted pass: whole cycles of the op table, so the counts are the
    // same on every run of a deterministic workload. Reading the counters
    // is not free — the serving process's come over the socket, in two
    // calls — so every counted pass is preceded by two readings back to
    // back, whose difference is what one reading costs, and that is taken
    // off.
    let cycle = bench.cycle();
    let calls = cycle * 8192u64.div_ceil(cycle);
    // Returns the pass, its counts net of the readings, and the totals
    // since the processes started.
    let counted_pass = |bench: &mut dyn Bench| -> Result<(Rec, Counts, Counts), String> {
        let idle = bench.counts()?;
        let before = bench.counts()?;
        let rec = bench.round(Stop::Calls(calls), false);
        let after = bench.counts()?;
        let net = after
            .iter()
            .map(|(&key, &v)| (key, v - 2.0 * at(&before, key) + at(&idle, key)))
            .collect();
        Ok((rec, net, after))
    };
    let (counted, counts, totals) = counted_pass(bench.as_mut())?;
    let n = counted.attempted as f64;
    let d = |key: &str| at(&counts, key);
    let payload = bench.cycle_payload() as f64 * n / cycle as f64;

    // The repo's tracing on, in slices that alternate with untraced ones.
    // Failures and attempts of this comparison, both halves.
    let (mut traced_failed, mut traced_attempted) = (0, 0);
    let (mut on_p50s, mut off_p50s, mut on_cals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..passes / 2 {
        for (on, p50s) in [(false, &mut off_p50s), (true, &mut on_p50s)] {
            bench.trace(on)?;
            let before = cal.read();
            let rec = bench.round(Stop::After(plan.slice), false);
            let after = cal.read();
            p50s.push(norm_time(rec.percentile(50.0), (before + after) / 2.0));
            if on {
                on_cals.push((before + after) / 2.0);
            }
            traced_failed += rec.failed;
            traced_attempted += rec.attempted;
        }
    }
    let (off_p50, on_p50) = (median(&mut off_p50s), median(&mut on_p50s));
    // Spans are counted like everything else, over whole table cycles,
    // so spans per call is a count, not a function of how far a timed
    // slice happened to get.
    bench.trace(true)?;
    let span_pass = counted_pass(bench.as_mut());
    let events = spring_trace::ring::events();
    bench.trace(false)?;
    let (span_pass, span_counts, _) = span_pass?;
    traced_failed += span_pass.failed;
    traced_attempted += span_pass.attempted;
    // The repo's spans carry raw durations; rescale them by the traced
    // slices' calibration like every other timing of this pass.
    let traced_cal = median(&mut on_cals);
    let span_p50 = |key: &str| {
        let raw = p50_of(
            events
                .iter()
                .filter(|e| e.key == key)
                .map(|e| e.dur_ns as f64)
                .collect(),
        );
        norm_time(raw, traced_cal)
    };

    let leaked = bench.live_ids()? - ids_before;
    // A wrong reply on the ladder, untraced slices included, is an error
    // above, so its calls all count as correct here.
    let failed = counted.failed + traced_failed;
    let attempted = ladder_calls + counted.attempted + traced_attempted;

    let wire = if d("frames") > 0.0 {
        d("socket_bytes")
    } else {
        d("net_bytes")
    };
    let server_allocs = if d("server_allocs") > 0.0 {
        d("server_allocs") / n
    } else {
        // In-process: everything at and below the exported door is the
        // server side of the call.
        rungs
            .iter()
            .find(|r| r.name == "door")
            .map_or(0.0, |r| r.allocs_per_call)
    };
    let client_allocs = d("client_allocs") / n
        - if d("server_allocs") > 0.0 {
            0.0
        } else {
            server_allocs
        };

    let mut values: Vec<(&'static str, f64)> = metrics;
    values.extend([
        ("buf.decode_bytes_copied_per_call", d("decode_copied") / n),
        ("kernel.door_calls_per_call", d("door_calls") / n),
        (
            "kernel.local_delivery_share",
            ratio(d("local_deliveries"), d("door_calls")),
        ),
        ("kernel.lock_waits_per_kcall", d("lock_waits") * 1000.0 / n),
        (
            "kernel.pool_hit_share",
            ratio(d("pool_hits"), d("pool_hits") + d("pool_misses")),
        ),
        ("kernel.ids_issued_per_call", d("ids_issued") / n),
        ("kernel.ids_leaked", leaked as f64),
        ("net.exports_per_call", d("net_exports") / n),
        ("net.proxies_per_call", d("net_proxies") / n),
        ("net.messages_per_call", d("net_messages") / n),
        (
            "net.batched_share",
            ratio(
                d("calls_batched"),
                d("calls_batched") + d("calls_unbatched"),
            ),
        ),
        ("net.drops", d("net_drops")),
        ("net.socket.frames_per_call", d("frames") / n),
        (
            "net.socket.fastpath_share",
            ratio(d("fastpath_sends"), d("frames_sent")),
        ),
        (
            "net.socket.writev_frames_per_wakeup",
            ratio(d("writev_frames"), d("writev_wakeups")),
        ),
        (
            "net.socket.dispatch_spawned",
            at(&totals, "dispatch_spawned"),
        ),
        ("net.socket.disconnects", at(&totals, "disconnects")),
        ("net.socket.redials", at(&totals, "redials")),
        ("kernel.bytes_copied_per_call", d("bytes_copied") / n),
        ("net.wire_bytes_per_call", wire / n),
        (
            "net.wire_overhead_share",
            if wire > 0.0 {
                (wire - payload) / wire
            } else {
                0.0
            },
        ),
        ("buf.client_allocs_per_call", per_mille(client_allocs)),
        (
            "buf.client_alloc_bytes_per_call",
            d("client_alloc_bytes") / n,
        ),
        ("buf.server_allocs_per_call", per_mille(server_allocs)),
        (
            "services.cache_hit_share",
            ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")),
        ),
        ("trace.overhead_share", ratio(on_p50 - off_p50, off_p50)),
        (
            "trace.spans_per_call",
            ratio(at(&span_counts, "spans"), span_pass.attempted as f64),
        ),
        // Those among the events the rings still hold.
        ("trace.failed_spans", at(&span_counts, "failed_spans")),
        ("trace.span.door_call_p50_ns", span_p50("door_call")),
        ("trace.span.invoke_p50_ns", span_p50("invoke")),
        (
            "trace.span.net.forward_p50_ns",
            span_p50(spring_trace::keys::NET_FORWARD),
        ),
        (
            "trace.span.net.hop_p50_ns",
            span_p50(spring_trace::keys::NET_HOP),
        ),
        (
            "trace.span.net.batch_p50_ns",
            span_p50(spring_trace::keys::NET_BATCH),
        ),
        ("ladder.closure_err", closure_err),
        ("host.cal_ns", cal_ns),
    ]);

    let mut notes = vec![format!(
        "{}: seed {}, layer pass; untraced p50 {:.1} ns over {} samples; counted pass {} calls; \
         every ns figure is host-normalised",
        cfg.workload, cfg.seed, untraced.p50_ns, untraced.samples, counted.attempted
    )];
    notes.push(format!(
        "ladder, up to {} slices of {:.0} ms per rung in turns (p50 ns per call, bottom to top):",
        plan.passes,
        plan.slice.as_secs_f64() * 1000.0
    ));
    for r in &rungs {
        notes.push(format!(
            "  {:<14} {:>12.1}   {:>8} samples  {:>6.2} allocs/call",
            r.name, r.p50_ns, r.samples, r.allocs_per_call
        ));
    }
    if let Some(dir) = &cfg.out {
        crate::layers_json::write(dir, &cfg.workload, cfg.seed, &rungs, &values)?;
        notes.push(format!("wrote {}", dir.join("layers.json").display()));
    }
    drop(bench);

    // Every declared per-layer metric is emitted, 0 where the layer does
    // no work on this workload.
    let metrics = crate::spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, v, m.unit)
        })
        .collect();
    // The bound holds for runs of the declared length; a shorter one (the
    // smoke run) has slices too short for it and need only produce a number.
    let closed = if cfg.seconds < crate::spec::RUN_SECONDS as f64 {
        closure_err.is_finite()
    } else {
        closure_err <= CLOSURE_MAX
    };
    if !closed {
        notes.push(format!(
            "FAILED: ladder.closure_err {closure_err:.4} is beyond {CLOSURE_MAX}: the top rung is \
             not the call the untraced workload makes, so the self times above do not add up to it"
        ));
    }
    Ok(Outcome {
        correct: failed == 0 && leaked == 0 && closed,
        attempted,
        failed,
        metrics,
        notes,
    })
}
