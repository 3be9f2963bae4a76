//! E16 — the socket transport: door calls between real OS processes over
//! Unix-domain and TCP sockets, against the in-process simulated backend
//! (DESIGN.md §5.15). The serving side is a second process running the
//! `peer` binary; the figure CI gates on is a ratio within this one run.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use spring_kernel::{CallCtx, Domain, DoorId, Message};
use spring_net::{NetConfig, Network};

use super::{untraced, Scale, Table, Value::*};
use crate::row;
use crate::timing::{arm, warm, Arm, Rounds};

/// Spawns `peer serve` and waits for its READY line, which carries the
/// bound address.
fn spawn_peer(exe: &Path, node: u64, transport: &[&str]) -> (Child, String) {
    let mut child = Command::new(exe)
        .arg("serve")
        .args(["--node", &node.to_string()])
        .args(transport)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn peer serve");
    let stdout = child.stdout.take().expect("peer stdout");
    let ready = std::io::BufReader::new(stdout)
        .lines()
        .next()
        .expect("peer exited before READY")
        .expect("read READY line");
    let addr = ready
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected peer output: {ready}"));
    (child, addr.to_owned())
}

/// The `peer` binary built alongside this one: next to the executable, or
/// one directory up when the executable is a test under `deps/`.
fn peer_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidates = exe.ancestors().skip(1).take(2).map(|dir| dir.join("peer"));
    candidates.into_iter().find(|p| p.exists())
}

pub fn e16_socket(scale: Scale) -> Table {
    // Many short rounds: the host changes speed by the tens of
    // milliseconds, and a round's arms cancel it only if they run within
    // one such stretch.
    let rounds: u32 = 15;
    let iters: u64 = scale.pick(300, 2_000);
    let burst_rounds: u32 = 5;
    let burst_threads: u64 = 8;
    let burst_calls: u64 = scale.pick(100, 1_000);
    let mut t = Table::new(
        "e16",
        "E16: socket transport — doors between OS processes",
        "DESIGN.md §5.15",
        &["arm", "null ns/call", "burst calls/s"],
    );
    t.param("iters", iters);
    t.param("rounds", rounds);
    t.param("burst_threads", burst_threads);
    t.param("burst_calls_per_thread", burst_calls);

    // Each arm is an echo door reached through its transport; all of them
    // stay up for the whole measurement so the rounds can alternate.
    let mut arms: Vec<(&str, Domain, DoorId)> = Vec::new();
    let mut keep_alive = Vec::new();

    // Simulated arm: two nodes of one in-process network, echo proxy door.
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server
        .create_door(Arc::new(|_: &CallCtx, msg: Message| Ok(msg)))
        .unwrap();
    let doors = vec![door];
    let msg = Message {
        doors,
        ..Message::default()
    };
    let arrived = net.ship_message(&server, &client, msg).unwrap();
    arms.push(("sim", client, arrived.doors[0]));

    // Socket arms need the `peer` binary.
    let uds_path = std::env::temp_dir()
        .join(format!("spring-e16-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut children = Vec::new();
    if let Some(exe) = peer_exe() {
        let _ = std::fs::remove_file(&uds_path);
        for (name, node, transport) in [
            ("uds", 150u64, ["--uds", uds_path.as_str()]),
            ("tcp", 152u64, ["--tcp", "127.0.0.1:0"]),
        ] {
            let (child, addr) = spawn_peer(&exe, node, &transport);
            children.push(child);
            let net = Network::new(NetConfig::default());
            let n = net.add_node_with_id(format!("e16-{name}-client"), node + 1);
            let domain = n.kernel().create_domain("app");
            let peer = if name == "uds" {
                net.connect_uds(n.id(), &addr)
            } else {
                net.connect_tcp(n.id(), &addr)
            }
            .expect("connect to peer");
            let door = peer.bootstrap_door(&domain).expect("bootstrap door");
            arms.push((name, domain, door));
            keep_alive.push((net, n, peer));
        }
    } else {
        t.note(
            "socket arms SKIPPED: peer binary not found next to this one \
             (build with `cargo build --release -p spring-bench --bins`)",
        );
    }

    // Sequential null-call latency.
    let mut null_arms: Vec<Arm> = (arms.iter())
        .map(|(_, domain, door)| {
            arm(move || {
                let r = domain.call(*door, Message::from_bytes(vec![0])).unwrap();
                assert_eq!(r.bytes, [0]);
            })
        })
        .collect();
    let null = untraced(|| {
        warm(iters, &mut null_arms);
        Rounds::measure(rounds, iters, &mut null_arms)
    });
    drop(null_arms);

    // A pipelined burst, where concurrent callers share the link batcher.
    // One untimed warm-up burst opens the link's call sockets (one per
    // caller in flight, each with its serving thread) and primes the export
    // tables; the fastest timed burst is reported.
    let mut burst_arms: Vec<Arm> = (arms.iter())
        .map(|(_, domain, door)| {
            arm(move || {
                std::thread::scope(|s| {
                    for _ in 0..burst_threads {
                        let td = domain.copy_door(*door).unwrap();
                        s.spawn(move || {
                            for _ in 0..burst_calls {
                                domain.call(td, Message::from_bytes(vec![0])).unwrap();
                            }
                            domain.delete_door(td).unwrap();
                        });
                    }
                });
            })
        })
        .collect();
    let burst = untraced(|| {
        warm(1, &mut burst_arms);
        Rounds::measure(burst_rounds, 1, &mut burst_arms)
    });
    drop(burst_arms);

    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_file(&uds_path);

    for (i, (name, _, _)) in arms.iter().enumerate() {
        let burst_per_s = (burst_threads * burst_calls) as f64 * 1e9 / burst.best(i);
        row![t; *name, Ns(null.best(i)), Ratio(burst_per_s, 0)];
    }
    if arms.len() > 1 {
        t.figure("uds_over_sim_null", Ratio(null.ratio(1, 0), 1));
        t.note("uds null-call vs simulated backend: {uds_over_sim_null}x");
    }
    t
}
