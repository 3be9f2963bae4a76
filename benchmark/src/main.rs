//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! benchmark run [--seed N] [--seconds S] [--smoke] [--repeat K] [--no-layers] [--out DIR]
//! benchmark compare A.json B.json
//! benchmark spec
//! benchmark serve --uds PATH        (internal: the *_uds server process)
//! ```

mod alloc;
mod bench;
mod compare;
mod drive;
mod est;
mod host;
mod json;
mod layers_json;
mod measure;
mod objpass;
mod rng;
mod rungs;
mod scmix;
mod serve;
mod service;
mod spec;
mod suite;
mod topo;
mod workloads;

/// Generated stubs for the null-call interface (`idl/bench.idl`).
// Machine-written code is regular rather than idiomatic; style lints are
// waived for it, as in the repo's own generated modules.
#[allow(clippy::all, dead_code)]
pub mod idl {
    include!(concat!(env!("OUT_DIR"), "/bench.rs"));
}

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--name value` pairs and bare flags after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {name}: {v:?}"))
            })
            .transpose()
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn positional(&self, i: usize) -> Option<&str> {
        self.0.get(i).map(String::as_str)
    }
}

/// Prints a finished run: the notes, every metric by name with its unit,
/// and — last — the one-line JSON result.
fn print_outcome(outcome: &measure::Outcome) {
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", json::compact(&suite::result_json(outcome)));
}

fn one_workload(args: &Args) -> Result<bool, String> {
    let cfg = measure::Cfg {
        workload: args
            .value("--workload")
            .ok_or("--workload is required")?
            .to_owned(),
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(spec::RUN_SECONDS as f64),
        out: args.value("--out").map(Into::into),
    };
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    host::pin();
    let outcome = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => measure::end_to_end(&cfg)?,
        1 => measure::layers(&cfg)?,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    print_outcome(&outcome);
    // The result line carries `correct`; a run that printed one succeeded
    // as a process.
    Ok(true)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => {
            let args = Args(argv[1..].to_vec());
            serve::serve(args.value("--uds").ok_or("serve needs --uds PATH")?)?;
            Ok(true)
        }
        Some("run") => suite::run(&Args(argv[1..].to_vec())),
        Some("compare") => compare::run(&Args(argv[1..].to_vec())),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some(first) if first.starts_with("--") => one_workload(&Args(argv)),
        _ => Err(
            "usage: benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n       \
             benchmark run [--seed N] [--seconds S] [--smoke] [--repeat K] [--no-layers] \
             [--out DIR]\n       \
             benchmark compare A.json B.json\n       \
             benchmark spec"
                .into(),
        ),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        // A run that measured but found wrong replies, leaked identifiers
        // or a regression has printed its result; the exit code says so.
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
