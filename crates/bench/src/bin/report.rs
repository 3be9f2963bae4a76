//! `report` — regenerates every evaluation table of the paper.
//!
//! Usage: `cargo run --release -p spring-bench --bin report [--smoke]
//! [--trace] [--json-dir DIR]`
//!
//! One section per entry of [`EXPERIMENTS`] (E1–E17, DESIGN.md §4). Timings
//! are machine-dependent; the accompanying counters (doors created,
//! messages sent, bytes copied) are not, and EXPERIMENTS.md records both.
//!
//! Flags:
//!
//! * `--smoke` — every experiment at small iteration counts and short
//!   sweeps: the per-push CI mode, and the scale the baselines under
//!   `bench/baselines/` are recorded at.
//! * `--trace` — enable distributed tracing for the run (slower; not the
//!   configuration EXPERIMENTS.md records). With `--json-dir`, the
//!   per-subcontract latency histograms of the whole run are written once,
//!   to `DIR/TRACE.json`.
//! * `--json-dir DIR` — write each experiment's table to
//!   `DIR/BENCH_<id>.json`, the files `bench_compare` reads.

use std::path::Path;

use spring_bench::report::{Scale, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let scale = if flag("--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let trace = flag("--trace");
    let json_dir = args
        .iter()
        .position(|a| a == "--json-dir")
        .and_then(|i| args.get(i + 1))
        .map(Path::new);

    if trace {
        spring_trace::set_enabled(true);
    }
    if let Some(dir) = json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    println!("Subcontract evaluation reproduction (paper: Hamilton/Powell/Mitchell, SOSP 1993)");
    println!("scale: {scale:?}");
    for experiment in EXPERIMENTS {
        let table = (experiment.run)(scale);
        print!("{}", table.render());
        if let Some(dir) = json_dir {
            let name = format!("BENCH_{}.json", experiment.id);
            write(dir, &name, table.to_json().pretty());
        }
    }
    println!();
    if let Some(dir) = json_dir {
        if trace {
            write(dir, "TRACE.json", spring_trace::histograms_json().pretty());
        }
        println!("wrote {} tables to {}", EXPERIMENTS.len(), dir.display());
    }
    println!("done.");
}

fn write(dir: &Path, name: &str, text: String) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}
