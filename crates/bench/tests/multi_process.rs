//! Multi-process smoke: two real OS processes (the `peer` binary in serve
//! and drive mode) exchanging door calls over a Unix-domain socket — 1k
//! calls including a pipelined burst and an at-most-once retry across an
//! injected reply loss, with zero leaked doors asserted on both sides by
//! the drive process itself. A second scenario kills the serving process
//! mid-call and checks the in-flight call fails with `Comm`; a third sends
//! a call whose deadline is nearer than the serving process's uptime.
//!
//! The test binary only orchestrates; every assertion about the calls
//! lives in `peer drive`, which exits nonzero with a message on the first
//! failure.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn peer_exe() -> &'static str {
    env!("CARGO_BIN_EXE_peer")
}

fn temp_sock(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("spring-mp-{}-{tag}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Spawns `peer serve` and blocks until it prints its READY line.
fn spawn_serve(node: u64, args: &[&str]) -> (Child, String) {
    let mut child = Command::new(peer_exe())
        .arg("serve")
        .args(["--node", &node.to_string()])
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn peer serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .expect("serve exited before READY")
        .expect("read READY");
    let addr = ready
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected serve output: {ready}"))
        .to_owned();
    (child, addr)
}

fn run_drive(node: u64, args: &[&str]) -> std::process::Output {
    Command::new(peer_exe())
        .arg("drive")
        .args(["--node", &node.to_string()])
        .args(args)
        .output()
        .expect("run peer drive")
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn two_processes_exchange_door_calls_over_uds() {
    let started = Instant::now();
    let path = temp_sock("smoke");
    let _ = std::fs::remove_file(&path);
    let (serve, _) = spawn_serve(41, &["--uds", &path]);
    let serve = KillOnDrop(serve);

    let out = run_drive(42, &["--uds", &path, "--calls", "1000"]);
    assert!(
        out.status.success(),
        "drive failed (status {:?}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        report.contains("zero leaked doors both sides"),
        "drive did not report the leak check: {report}"
    );
    // The retry scenario tears the connection down twice by design.
    assert!(
        report.contains("2 disconnect(s)"),
        "expected exactly the two injected disconnects: {report}"
    );
    drop(serve);
    let _ = std::fs::remove_file(&path);
    // CI budget for the whole scenario.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "multi-process smoke took {:?}",
        started.elapsed()
    );
}

/// The same two-process sweep with a longer 8-thread pipelined burst:
/// eight calls in flight ride eight call sockets (or share batched frames),
/// zero doors leak on either side, and the drive binary itself asserts that
/// every frame it sent was written by the thread that produced it.
#[test]
fn pipelined_burst_over_uds_leaks_nothing() {
    let path = temp_sock("burst");
    let _ = std::fs::remove_file(&path);
    let (serve, _) = spawn_serve(71, &["--uds", &path]);
    let serve = KillOnDrop(serve);

    let out = run_drive(72, &["--uds", &path, "--calls", "2000"]);
    assert!(
        out.status.success(),
        "drive failed (status {:?}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        report.contains("zero leaked doors both sides"),
        "drive did not report the leak check: {report}"
    );
    assert!(
        report.contains("2 disconnect(s)"),
        "expected exactly the two injected disconnects: {report}"
    );
    drop(serve);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn two_processes_exchange_door_calls_over_tcp() {
    let (serve, addr) = spawn_serve(51, &["--tcp", "127.0.0.1:0"]);
    let serve = KillOnDrop(serve);
    let out = run_drive(52, &["--tcp", &addr, "--calls", "200"]);
    assert!(
        out.status.success(),
        "drive failed (status {:?}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    drop(serve);
}

/// Two processes, two clocks: a fresh `peer drive` sends an
/// identity-carrying count with a 300 ms budget to a `peer serve` whose
/// clock has run for longer than that. The deadline crosses the socket as
/// the time left, so the server's reply cache does not take it for expired,
/// and the count executes exactly once.
#[test]
fn a_deadline_means_the_same_to_a_server_whose_clock_ran_longer() {
    let path = temp_sock("budget");
    let _ = std::fs::remove_file(&path);
    let (serve, _) = spawn_serve(81, &["--uds", &path]);
    let serve = KillOnDrop(serve);
    // The serving process reads its clock at startup: let it run past the
    // budget before the driving process's clock even starts.
    std::thread::sleep(Duration::from_millis(600));

    let out = run_drive(82, &["--uds", &path, "--budget-ms", "300"]);
    assert!(
        out.status.success(),
        "budget drive failed (status {:?}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("executed exactly once"),
        "budget drive did not confirm the count"
    );
    drop(serve);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killing_the_serving_process_fails_inflight_calls_with_comm() {
    let path = temp_sock("kill");
    let _ = std::fs::remove_file(&path);
    let (mut serve, _) = spawn_serve(61, &["--uds", &path]);

    let out = run_drive(62, &["--uds", &path, "--kill"]);
    assert!(
        out.status.success(),
        "kill drive failed (status {:?}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("failed with Comm"),
        "kill drive did not confirm the Comm failure"
    );
    // The server really did die (exit code 9 from OP_DIE).
    let status = serve.wait().expect("reap serve");
    assert_eq!(
        status.code(),
        Some(9),
        "server should have exited via OP_DIE"
    );
    let _ = std::fs::remove_file(&path);
}
