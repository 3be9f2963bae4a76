//! `bench_compare` — fails CI when a benchmark regresses past tolerance.
//!
//! Usage: `cargo run --release -p spring-bench --bin bench_compare --
//! BASELINE_DIR CURRENT_DIR [--tolerance PCT]`
//!
//! Both directories hold `BENCH_<id>.json` files as written by `report
//! --json-dir`. For every experiment of [`EXPERIMENTS`] that declares
//! gates, each gated figure is read from `figures.<name>` on both sides.
//! Raw nanosecond timings are machine- and load-dependent, so every gated
//! figure is a *ratio within one run* (two arms measured round by round on
//! the same host, which cancels the host's absolute speed) or a structural
//! count; what each one guards is written beside its gate in
//! `spring_bench::report::EXPERIMENTS`.
//!
//! A figure regresses when it moves past its tolerance (the gate's own, or
//! `--tolerance`, default 20%) in the bad direction; improvements never
//! fail. Missing files and missing figures are errors that name the side
//! (baseline/current), the file and the figure — silently skipping a
//! comparison is how regressions sneak in.

use std::path::Path;
use std::process::ExitCode;

use spring_bench::report::{Better, EXPERIMENTS};
use spring_trace::json::Json;

/// The gated figure of one side's `BENCH_<id>.json`.
fn figure(side: &str, dir: &Path, file: &str, name: &str) -> Result<f64, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{side}: cannot read {}: {e}", path.display()))?;
    let doc =
        Json::parse(&text).map_err(|e| format!("{side}: cannot parse {}: {e}", path.display()))?;
    doc.get("figures")
        .and_then(|figures| figures.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{side} {file}: no numeric figure `{name}`"))
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
            dirs.push(Path::new(&args[i]));
            i += 1;
        }
    }
    let [baseline_dir, current_dir] = dirs[..] else {
        eprintln!("usage: bench_compare BASELINE_DIR CURRENT_DIR [--tolerance PCT]");
        return ExitCode::FAILURE;
    };

    let mut failed = false;
    println!(
        "{:<36} {:>10} {:>10} {:>8}  verdict (tolerance {:.0}%)",
        "figure",
        "baseline",
        "current",
        "delta",
        tolerance * 100.0
    );
    for experiment in EXPERIMENTS {
        let file = format!("BENCH_{}.json", experiment.id);
        for gate in experiment.gates {
            let label = format!("{} {}", experiment.id, gate.figure);
            let pair = figure("baseline", baseline_dir, &file, gate.figure)
                .and_then(|base| Ok((base, figure("current", current_dir, &file, gate.figure)?)));
            let (base, cur) = match pair {
                Ok(pair) => pair,
                Err(e) => {
                    println!("{label:<36} ERROR: {e}");
                    failed = true;
                    continue;
                }
            };
            let tol = gate.tolerance.unwrap_or(tolerance);
            let regressed = match gate.better {
                Better::Higher => cur < base * (1.0 - tol),
                Better::Lower => cur > base * (1.0 + tol),
            };
            println!(
                "{label:<36} {base:>10.3} {cur:>10.3} {:>+7.1}%  {}{}",
                (cur - base) / base * 100.0,
                if regressed { "REGRESSED" } else { "ok" },
                match gate.tolerance {
                    Some(t) => format!(" (tolerance {:.0}%)", t * 100.0),
                    None => String::new(),
                }
            );
            failed |= regressed;
        }
    }

    if failed {
        eprintln!("benchmark regression detected");
        ExitCode::FAILURE
    } else {
        println!("all benchmark figures within tolerance");
        ExitCode::SUCCESS
    }
}
