//! `benchmark run`: every workload, each in a fresh process of its own —
//! the kernel's hot-path and pool counters, the decode-copy counter and
//! `VmHWM` are process-global, so workloads must not share one — first end
//! to end, then per layer; prints every metric and writes one JSON file.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use spring_trace::json::Json;

use crate::measure::Outcome;
use crate::{spec, Args};

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// The result line of a single-workload run.
pub fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            (*name).to_owned(),
                            Json::obj([
                                ("value", num(*value)),
                                ("unit", Json::Str((*unit).to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs one workload in a child process and returns its parsed result
/// line; everything the child printed above it is passed through.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = out {
        cmd.arg("--out").arg(dir.join(workload));
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}): {}", output.status));
    }
    Json::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

/// Folds the result lines of one workload's runs into the suite file's
/// shape: per metric its unit, every run's value, and their median.
fn fold(runs: &[Json]) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if let Some(Json::Obj(first)) = runs.first().and_then(|r| r.get("metrics")) {
        for (name, m) in first {
            let mut values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let all = Json::Arr(values.iter().copied().map(num).collect());
            metrics.push((
                name.clone(),
                Json::obj([
                    ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                    ("value", num(crate::est::median(&mut values))),
                    ("values", all),
                ]),
            ));
        }
    }
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    Json::obj([
        ("correct", Json::Bool(runs.iter().all(is_correct))),
        ("attempted", num(sum("attempted"))),
        ("failed", num(sum("failed"))),
        ("metrics", Json::Obj(metrics)),
    ])
}

pub fn run(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let smoke = args.flag("--smoke");
    // A smoke run only shows that everything works; its numbers are never
    // compared with anything.
    let seconds: f64 =
        args.parsed("--seconds")?
            .unwrap_or(if smoke { 1.0 } else { spec::RUN_SECONDS as f64 });
    let repeat: usize = args.parsed("--repeat")?.unwrap_or(1).max(1);
    let out: Option<PathBuf> = args.value("--out").map(Into::into);

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        let mut e2e = Vec::new();
        for _ in 0..repeat {
            e2e.push(run_one(w.name, seed, seconds, 0, None)?);
        }
        let mut entry = vec![("end_to_end", fold(&e2e))];
        all_correct &= e2e.iter().all(is_correct);
        if !args.flag("--no-layers") {
            let layers = run_one(w.name, seed, seconds, 1, out.as_deref())?;
            all_correct &= is_correct(&layers);
            entry.push(("per_layer", fold(&[layers])));
        }
        workloads.push((w.name.to_owned(), Json::obj(entry)));
        println!();
    }
    let doc = Json::obj([
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("benchmark.json");
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        if all_correct {
            "all workloads correct: no wrong reply, no leaked identifier"
        } else {
            "FAILED: a workload reported wrong replies or leaked identifiers"
        }
    );
    Ok(all_correct)
}
