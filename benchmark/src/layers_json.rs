//! `layers.json`: the layer pass written out for reading by eye or tool.

use std::path::Path;

use spring_trace::json::Json;

use crate::bench::RungStat;

/// Spans written per rung. All spans of a pass stay in memory until it
/// ends; the file keeps the first few thousand of each rung, which is
/// enough to draw a timeline without a file of tens of megabytes.
const SPANS_PER_RUNG: usize = 2000;

/// The rung below each rung of the call ladder and of `objpass_sim`'s
/// object-passing ladder. `raw_door`, the per-subcontract rungs of
/// `scmix_local` and the single-operation rungs of `objpass_sim` are
/// measurements beside the ladder, not steps of it.
fn parent_of(rung: &str) -> &'static str {
    match rung {
        "skeleton" => "servant",
        "door" => "skeleton",
        "invoke" => "door",
        "stub" => "invoke",
        "sim" => "stub",
        "uds" => "sim",
        "ship_net" => "ship_kernel",
        "objpass" => "ship_net",
        _ => "",
    }
}

pub fn write(
    dir: &Path,
    workload: &str,
    seed: u64,
    rungs: &[RungStat],
    metrics: &[(&'static str, f64)],
) -> Result<(), String> {
    let rung_json = |r: &RungStat| {
        Json::obj([
            ("name", Json::Str(r.name.to_owned())),
            // The rung whose p50 is subtracted from this one's to give
            // this rung's self time ("" for rungs that stand alone).
            ("parent", Json::Str(parent_of(r.name).to_owned())),
            ("p50_ns", Json::Num(r.p50_ns)),
            ("samples", Json::Num(r.samples as f64)),
            ("allocs_per_call", Json::Num(r.allocs_per_call)),
            (
                "spans",
                Json::Arr(
                    r.spans
                        .iter()
                        .take(SPANS_PER_RUNG)
                        .map(|s| {
                            Json::obj([
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("call", Json::Num(f64::from(s.call))),
                                ("calls", Json::Num(f64::from(s.calls))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    let doc = Json::obj([
        ("workload", Json::Str(workload.to_owned())),
        ("seed", Json::Num(seed as f64)),
        ("rungs", Json::Arr(rungs.iter().map(rung_json).collect())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("layers.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
