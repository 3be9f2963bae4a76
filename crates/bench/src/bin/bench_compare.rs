//! `bench_compare` — fails CI when a benchmark regresses past tolerance.
//!
//! Usage: `cargo run --release -p spring-bench --bin bench_compare --
//! BASELINE_DIR CURRENT_DIR [--tolerance PCT]`
//!
//! Both directories hold `BENCH_*.json` files as written by `report
//! --json-dir`. Raw nanosecond timings are machine- and load-dependent, so
//! the comparison uses *ratios within one run* — each metric divides two
//! numbers measured seconds apart on the same host, which cancels the
//! host's absolute speed:
//!
//! * `e1`: simplex ns / raw-door ns — the subcontract overhead multiple
//!   (lower is better). Guards the door-call fast path.
//! * `e1 flat`: idl-flat ns / fused-stub ns — how close the generated
//!   validate-in-place stubs stay to the hand-fused floor (lower is
//!   better). Guards the flat wire format's zero-copy decode path.
//! * `e1 echo`: flat echo ns / copying echo ns for the same 60-byte struct
//!   over the same transport (lower is better). The two arms differ only
//!   in decode strategy, so this guards the in-place win itself.
//! * `e1t`: max-thread calls/s / 1-thread calls/s, clamped to the host's
//!   hardware parallelism — throughput scaling over per-domain door tables
//!   (higher is better).
//! * `e4`: simplex ns / caching ns on the last sweep row (highest latency,
//!   most reads) — the caching win (higher is better).
//! * `e14`: pipelined speedup at 1 ms latency (higher is better). Guards
//!   per-link batching.
//! * `e15 knee`: shed-arm knee ÷ no-shed knee, both in multiples of the
//!   same measured capacity (higher is better). Guards the admission
//!   controller's headline effect: shedding moves the saturation knee
//!   right.
//! * `e15 overload p99`: served p99 at the top of the sweep, shed ÷
//!   no-shed (lower is better). Guards the tail-latency win itself.
//! * `e16`: Unix-domain-socket null-call ns ÷ simulated-backend null-call
//!   ns, both measured in the same run (lower is better). Guards the
//!   socket transport's per-call overhead — framing, two socket
//!   crossings, the serving thread's wake-up — against the in-process
//!   floor.
//! * `e17`: worst frames-per-publish-per-link across the fan-out sweep
//!   (lower is better; 1.0 is perfect). Guards pub/sub frame coalescing —
//!   if a publish ever costs one frame per *subscriber* instead of one
//!   per link, this ratio explodes to subscribers/links.
//! * `e17 crossings`: wire crossings per delivery frame in the all-
//!   best-effort arm (lower is better; 1.0 means every delivery shipped
//!   as a reply-less one-way frame, 2.0 means request+reply pairs came
//!   back). Guards the one-way frame path end to end.
//!
//! A metric regresses when it moves past `tolerance` (default 20%) in the
//! bad direction; improvements never fail. Missing files and missing
//! fields are errors that name the side (baseline/current), the file, and
//! the JSON path that came up short — silently skipping a comparison is
//! how regressions sneak in.

use std::path::Path;
use std::process::ExitCode;

use spring_trace::json::Json;

/// A normalized, machine-independent metric extracted from one experiment.
struct Metric {
    name: &'static str,
    file: &'static str,
    /// True when larger values are better (throughput scaling, speedups).
    higher_is_better: bool,
    /// Extracts the metric, or says exactly which JSON path was missing or
    /// malformed so a renamed field fails loudly instead of skipping.
    extract: fn(&Json) -> Result<f64, String>,
    /// Overrides the run-wide tolerance for metrics with known-wider run
    /// noise (socket latency depends on scheduler wakeup timing).
    tolerance: Option<f64>,
}

const METRICS: &[Metric] = &[
    Metric {
        name: "e1 simplex/raw overhead ratio",
        file: "BENCH_e1.json",
        higher_is_better: false,
        extract: e1_overhead_ratio,
        tolerance: None,
    },
    Metric {
        name: "e1 idl-flat/fused stub ratio",
        file: "BENCH_e1.json",
        higher_is_better: false,
        extract: e1_flat_ratio,
        tolerance: None,
    },
    Metric {
        name: "e1 flat/copying echo ratio",
        file: "BENCH_e1.json",
        higher_is_better: false,
        extract: e1_echo_ratio,
        tolerance: None,
    },
    Metric {
        name: "e1t thread-scaling ratio",
        file: "BENCH_e1t.json",
        higher_is_better: true,
        extract: e1t_scaling,
        tolerance: None,
    },
    Metric {
        name: "e4 caching speedup at max latency",
        file: "BENCH_e4.json",
        higher_is_better: true,
        extract: e4_caching_speedup,
        tolerance: None,
    },
    Metric {
        name: "e14 pipelining speedup at 1ms",
        file: "BENCH_e14.json",
        higher_is_better: true,
        extract: e14_speedup,
        tolerance: None,
    },
    Metric {
        name: "e15 shed/no-shed knee ratio",
        file: "BENCH_e15.json",
        higher_is_better: true,
        extract: e15_knee_ratio,
        tolerance: None,
    },
    Metric {
        name: "e15 overload p99 shed/no-shed",
        file: "BENCH_e15.json",
        higher_is_better: false,
        extract: e15_overload_p99_ratio,
        tolerance: None,
    },
    Metric {
        name: "e16 uds/sim null-call ratio",
        file: "BENCH_e16.json",
        higher_is_better: false,
        extract: e16_uds_ratio,
        // Tightened from 60% once the same-thread send fast path, vectored
        // writer, and spin-then-park reply wait cut the socket floor; the
        // remaining run-to-run noise is scheduler wakeup timing.
        tolerance: Some(0.40),
    },
    Metric {
        name: "e17 frames per publish per link",
        file: "BENCH_e17.json",
        higher_is_better: false,
        extract: e17_frames_ratio,
        // This is a structural counter, not a timing: a publish to L links
        // must cost exactly L frames, so the worst measured ratio is 1.0
        // by construction. Any drift means coalescing broke (one frame per
        // subscriber would read as subscribers/links, far past tolerance).
        tolerance: Some(0.05),
    },
    Metric {
        name: "e17 wire crossings per delivery",
        file: "BENCH_e17.json",
        higher_is_better: false,
        extract: e17_wire_crossings,
        // Structural, like the frame ratio: with every subscriber in
        // BestEffort mode and fewer publishes than the lazy-ack window,
        // every delivery frame ships one-way, so the measurement is 1.0 by
        // construction (2.0 would mean one-way frames stopped happening).
        tolerance: Some(0.05),
    },
];

/// Walks a dotted path of object keys; the error names the full path and
/// the first segment that was absent.
fn field<'a>(doc: &'a Json, path: &'static str) -> Result<&'a Json, String> {
    let mut cur = doc;
    for seg in path.split('.') {
        cur = cur.get(seg).ok_or_else(|| {
            if path == seg {
                format!("missing field `{path}`")
            } else {
                format!("missing field `{path}` (no `{seg}`)")
            }
        })?;
    }
    Ok(cur)
}

/// A number at a dotted path, or an error naming the path.
fn num(doc: &Json, path: &'static str) -> Result<f64, String> {
    field(doc, path)?
        .as_f64()
        .ok_or_else(|| format!("field `{path}` is not a number"))
}

fn arm_ns(doc: &Json, arm: &str) -> Result<f64, String> {
    field(doc, "arms")?
        .as_arr()
        .ok_or("field `arms` is not an array".to_string())?
        .iter()
        .find(|a| a.get("name").and_then(Json::as_str) == Some(arm))
        .ok_or_else(|| format!("no arm named `{arm}` in `arms`"))?
        .get("ns_per_call")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("arm `{arm}` lacks numeric `ns_per_call`"))
}

fn ratio(num_v: f64, den_v: f64, what: &str) -> Result<f64, String> {
    if den_v > 0.0 {
        Ok(num_v / den_v)
    } else {
        Err(format!("non-positive denominator for {what}"))
    }
}

fn e1_overhead_ratio(doc: &Json) -> Result<f64, String> {
    ratio(
        arm_ns(doc, "simplex")?,
        arm_ns(doc, "raw_door")?,
        "simplex/raw_door",
    )
}

fn e1_flat_ratio(doc: &Json) -> Result<f64, String> {
    ratio(
        arm_ns(doc, "idl_flat")?,
        arm_ns(doc, "fused_stubs")?,
        "idl_flat/fused_stubs",
    )
}

fn e1_echo_ratio(doc: &Json) -> Result<f64, String> {
    ratio(
        arm_ns(doc, "idl_flat_echo")?,
        arm_ns(doc, "idl_copy_echo")?,
        "idl_flat_echo/idl_copy_echo",
    )
}

fn e1t_scaling(doc: &Json) -> Result<f64, String> {
    let scaling = num(doc, "scaling_16_vs_1")?;
    // Measured "scaling" above the hardware parallelism is scheduler noise
    // (a single-core host can report anywhere from 2x to 6x depending on
    // how the 1-thread warmup landed), so clamp to what the host can
    // actually deliver before comparing.
    let hw = num(doc, "hardware_threads")?;
    Ok(scaling.min(hw))
}

fn e4_caching_speedup(doc: &Json) -> Result<f64, String> {
    let row = field(doc, "sweep")?
        .as_arr()
        .ok_or("field `sweep` is not an array".to_string())?
        .last()
        .ok_or("field `sweep` is empty".to_string())?;
    ratio(
        num(row, "simplex_ns")?,
        num(row, "caching_ns")?,
        "simplex_ns/caching_ns",
    )
}

fn e14_speedup(doc: &Json) -> Result<f64, String> {
    num(doc, "latency_1ms.speedup")
}

fn e15_knee_ratio(doc: &Json) -> Result<f64, String> {
    num(doc, "knee_ratio_shed_over_noshed")
}

fn e15_overload_p99_ratio(doc: &Json) -> Result<f64, String> {
    num(doc, "overload_p99_ratio_shed_over_noshed")
}

fn e16_uds_ratio(doc: &Json) -> Result<f64, String> {
    num(doc, "uds_vs_sim_null_ratio")
}

fn e17_frames_ratio(doc: &Json) -> Result<f64, String> {
    num(doc, "frames_per_publish_per_link")
}

fn e17_wire_crossings(doc: &Json) -> Result<f64, String> {
    num(doc, "wire_crossings_per_delivery")
}

fn load(dir: &Path, file: &str) -> Result<Json, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut tolerance = 0.20;
    let mut dirs = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--tolerance" {
            match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => tolerance = pct / 100.0,
                _ => {
                    eprintln!("--tolerance needs a positive percentage");
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
        } else {
            dirs.push(args[i].clone());
            i += 1;
        }
    }
    let [baseline_dir, current_dir] = &dirs[..] else {
        eprintln!("usage: bench_compare BASELINE_DIR CURRENT_DIR [--tolerance PCT]");
        return ExitCode::FAILURE;
    };
    let baseline_dir = Path::new(baseline_dir);
    let current_dir = Path::new(current_dir);

    let mut failed = false;
    println!(
        "{:<36} {:>10} {:>10} {:>8}  verdict (tolerance {:.0}%)",
        "metric",
        "baseline",
        "current",
        "delta",
        tolerance * 100.0
    );
    for metric in METRICS {
        let pair = (|| -> Result<(f64, f64), String> {
            let base_doc = load(baseline_dir, metric.file).map_err(|e| format!("baseline: {e}"))?;
            let cur_doc = load(current_dir, metric.file).map_err(|e| format!("current: {e}"))?;
            let base = (metric.extract)(&base_doc)
                .map_err(|e| format!("baseline {}: {e}", metric.file))?;
            let cur =
                (metric.extract)(&cur_doc).map_err(|e| format!("current {}: {e}", metric.file))?;
            Ok((base, cur))
        })();
        let (base, cur) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                println!("{:<36} ERROR: {e}", metric.name);
                failed = true;
                continue;
            }
        };
        let tol = metric.tolerance.unwrap_or(tolerance);
        let regressed = if metric.higher_is_better {
            cur < base * (1.0 - tol)
        } else {
            cur > base * (1.0 + tol)
        };
        let delta = (cur - base) / base * 100.0;
        println!(
            "{:<36} {:>10.3} {:>10.3} {:>+7.1}%  {}{}",
            metric.name,
            base,
            cur,
            delta,
            if regressed { "REGRESSED" } else { "ok" },
            match metric.tolerance {
                Some(t) => format!(" (tolerance {:.0}%)", t * 100.0),
                None => String::new(),
            }
        );
        failed |= regressed;
    }

    if failed {
        eprintln!("benchmark regression detected");
        ExitCode::FAILURE
    } else {
        println!("all benchmark metrics within tolerance");
        ExitCode::SUCCESS
    }
}
