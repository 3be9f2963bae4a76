//! End-to-end smoke: the whole suite through the real binary — all seven
//! workloads, the serving child process included, end to end and per
//! layer — in its shortest form. Asserts what must hold on every run
//! whatever the host: every reply correct, no door identifier leaked, the
//! ladder closes, and the emitted metric names are exactly the declared
//! ones.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use spring_trace::json::Json;

fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn smoke_run_is_correct_leak_free_and_emits_the_declared_metrics() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--seed", "2", "--out"])
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    assert!(
        run.status.success(),
        "smoke run failed ({}):\n{}{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(out.join("benchmark.json")).expect("suite file written");
    let doc = Json::parse(&text).expect("suite file parses");
    assert_eq!(doc.get("smoke"), Some(&Json::Bool(true)));
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        panic!("suite file has no workloads")
    };
    let names: BTreeSet<String> = workloads.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, declared("workloads"));

    for (workload, entry) in workloads {
        for (section, declared_as) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let part = entry
                .get(section)
                .unwrap_or_else(|| panic!("{workload}: no {section}"));
            assert_eq!(
                part.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} {section}: wrong replies or leaked identifiers"
            );
            assert_eq!(
                part.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload} {section}: failed calls"
            );
            assert!(
                part.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
                "{workload} {section}: nothing attempted"
            );
            let Some(Json::Obj(metrics)) = part.get("metrics") else {
                panic!("{workload} {section}: no metrics")
            };
            let emitted: BTreeSet<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(
                emitted,
                declared(declared_as),
                "{workload} {section}: emitted names differ from BENCHMARK.json"
            );
            for (name, m) in metrics {
                assert!(name_ok(name), "{workload}: bad metric name {name:?}");
                let v = m.get("value").and_then(Json::as_f64);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{workload} {name}: not a finite number"
                );
            }
        }
        let layer = |name: &str| {
            entry
                .get("per_layer")
                .and_then(|p| p.get("metrics"))
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: no {name}"))
        };
        assert_eq!(layer("kernel.ids_leaked"), 0.0, "{workload}: leaked ids");
        assert!(layer("ladder.closure_err").is_finite(), "{workload}");
        if workload.ends_with("_uds") {
            // A request frame and a reply frame, and not a fraction more:
            // the calls that fetch the serving process's counters are not
            // counted among the workload's.
            assert_eq!(layer("net.socket.frames_per_call"), 2.0, "{workload}");
            assert_eq!(layer("kernel.door_calls_per_call"), 2.0, "{workload}");
        }
        let e2e = |name: &str| {
            entry
                .get("end_to_end")
                .and_then(|p| p.get("metrics"))
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: no {name}"))
        };
        for name in declared("end_to_end") {
            assert!(e2e(&name) > 0.0, "{workload} {name}: must never read 0");
        }
        assert!(
            out.join(workload).join("layers.json").exists(),
            "{workload}: layers.json not written"
        );
    }
}
