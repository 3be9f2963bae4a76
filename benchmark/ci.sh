#!/usr/bin/env bash
# Build, test, smoke-run and self-compare the repo benchmark. Meant to be
# wired into .github/workflows/ci.yml by a later change; runs from any
# directory and writes only under benchmark/target.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
# Release: the smoke test drives all seven workloads through the binary.
cargo test --release --offline

out=target/ci
rm -rf "$out"
cargo run --release --offline --quiet -- run --smoke --out "$out/a"
cargo run --release --offline --quiet -- run --smoke --out "$out/b"

# Two smoke runs of one build: this exercises `compare`, it does not gate
# on it — smoke numbers are too short to compare, so "worse" (exit 1) is
# tolerated and only a tool failure (exit 2) fails the job.
set +e
cargo run --release --offline --quiet -- compare "$out/a/benchmark.json" "$out/b/benchmark.json"
status=$?
set -e
if [ "$status" -ge 2 ]; then
    echo "benchmark compare failed to run (exit $status)" >&2
    exit "$status"
fi
echo "benchmark ci: ok"
