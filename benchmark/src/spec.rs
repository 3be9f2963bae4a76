//! What the benchmark declares: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repo root is this table
//! printed by `benchmark spec`; a test keeps the two equal.

use spring_trace::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "null_local",
        why: "flat ping/echo between two domains of one kernel: idl, core, simplex, kernel, buf only; net does nothing (bypass for transport work)",
    },
    WorkloadSpec {
        name: "scmix_local",
        why: "read(0,256) round-robin over one object per paper subcontract behind one servant, 1 write per 256 reads: every serve path is timed",
    },
    WorkloadSpec {
        name: "kv_sim",
        why: "90/10 get/put of 1 KiB over a two-node simulated network: proxy, export map, batcher, sim transport, copying decode; no syscalls",
    },
    WorkloadSpec {
        name: "objpass_sim",
        why: "resolve a bucket through naming over the sim network, size(), drop: door-table writes and object marshalling beside the read-only calls",
    },
    WorkloadSpec {
        name: "bulk_sim",
        why: "alternating 64 KiB fs::file read and write over the simulated network: bytes not frames (payload copies, copying sequence decode, wire encode); in process, as over a socket it did not repeat",
    },
    WorkloadSpec {
        name: "null_uds",
        why: "null ping to a child process over a Unix socket, both pinned to one CPU (so the reply wait parks, never spins): smallest message, per-frame cost dominates (fast-path send, reader, dispatch hand-off)",
    },
    WorkloadSpec {
        name: "kv_uds",
        why: "same kv mix cross-process, 2 callers on one connection and one CPU: two calls in flight (dispatch pool, ~5 % of sends queue for the writer); callers never run in parallel, so no lock is contended",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same set on every workload. Timings are
/// host-normalised (see `est::REF_CAL_NS`).
///
/// `failed_share` from the issue is not here because a metric must never
/// read 0 and this one always should: failures are the result line's
/// `attempted`/`failed`/`correct` instead.
pub const END_TO_END: [MetricSpec; 6] = [
    MetricSpec {
        name: "setup_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
    MetricSpec {
        name: "call_p50_us_norm",
        unit: "us",
        higher: false,
        bound: 0.20,
    },
    MetricSpec {
        name: "call_p90_us_norm",
        unit: "us",
        higher: false,
        bound: 0.25,
    },
    MetricSpec {
        name: "calls_per_s_norm",
        unit: "1/s",
        higher: true,
        bound: 0.20,
    },
    MetricSpec {
        name: "cpu_us_per_call_norm",
        unit: "us",
        higher: false,
        bound: 0.25,
    },
    MetricSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        higher: false,
        bound: 0.15,
    },
];

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        higher: true,
    }
}

/// The per-layer metrics; every `--trace 1` run emits all of them, with 0
/// where a layer does no work on that workload.
pub const PER_LAYER: [LayerSpec; 55] = [
    lower("services.self_ns", "ns"),
    lower("idl.server_self_ns", "ns"),
    lower("idl.client_self_ns", "ns"),
    lower("buf.decode_bytes_copied_per_call", "B"),
    lower("subcontracts.client_self_ns", "ns"),
    lower("subcontracts.server_self_ns", "ns"),
    lower("subcontracts.singleton.call_ns", "ns"),
    lower("subcontracts.simplex.call_ns", "ns"),
    lower("subcontracts.cluster.call_ns", "ns"),
    lower("subcontracts.caching.call_ns", "ns"),
    lower("subcontracts.replicon.call_ns", "ns"),
    lower("subcontracts.reconnectable.call_ns", "ns"),
    lower("subcontracts.shmem.call_ns", "ns"),
    higher("services.cache_hit_share", "ratio"),
    lower("kernel.raw_door_ns", "ns"),
    lower("kernel.door_calls_per_call", "count"),
    higher("kernel.local_delivery_share", "ratio"),
    lower("kernel.lock_waits_per_kcall", "count"),
    higher("kernel.pool_hit_share", "ratio"),
    lower("core.marshal_ns", "ns"),
    lower("core.unmarshal_ns", "ns"),
    lower("kernel.door_lifecycle_ns", "ns"),
    lower("kernel.ids_issued_per_call", "count"),
    lower("kernel.ids_leaked", "count"),
    lower("net.export_proxy_ns", "ns"),
    lower("net.exports_per_call", "count"),
    lower("net.proxies_per_call", "count"),
    lower("naming.resolve_self_ns", "ns"),
    lower("net.sim_self_ns", "ns"),
    lower("net.messages_per_call", "count"),
    higher("net.batched_share", "ratio"),
    lower("net.drops", "count"),
    lower("net.socket_self_ns", "ns"),
    lower("net.socket.frames_per_call", "count"),
    higher("net.socket.fastpath_share", "ratio"),
    higher("net.socket.writev_frames_per_wakeup", "count"),
    lower("net.socket.dispatch_spawned", "count"),
    lower("net.socket.disconnects", "count"),
    lower("net.socket.redials", "count"),
    lower("kernel.bytes_copied_per_call", "B"),
    lower("net.wire_bytes_per_call", "B"),
    lower("net.wire_overhead_share", "ratio"),
    lower("buf.client_allocs_per_call", "count"),
    lower("buf.client_alloc_bytes_per_call", "B"),
    lower("buf.server_allocs_per_call", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.spans_per_call", "count"),
    lower("trace.failed_spans", "count"),
    lower("trace.span.door_call_p50_ns", "ns"),
    lower("trace.span.invoke_p50_ns", "ns"),
    lower("trace.span.net.forward_p50_ns", "ns"),
    lower("trace.span.net.hop_p50_ns", "ns"),
    lower("trace.span.net.batch_p50_ns", "ns"),
    lower("ladder.closure_err", "ratio"),
    lower("host.cal_ns", "ns"),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 15;

fn better(higher: bool) -> Json {
    Json::Str(if higher { "higher" } else { "lower" }.to_owned())
}

fn s(v: &str) -> Json {
    Json::Str(v.to_owned())
}

/// The declared contract, in `BENCHMARK.json`'s shape.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.higher)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` is `benchmark spec`'s output; whoever edits one
    /// must regenerate the other.
    #[test]
    fn benchmark_json_matches_the_declared_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json());
        assert!(text.len() <= 64 * 1024);
        let Json::Obj(pairs) = on_disk else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
