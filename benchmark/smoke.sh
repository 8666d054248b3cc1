#!/usr/bin/env bash
# CI-sized pass over the whole benchmark: every workload, both passes,
# every code path and the full correctness gate on 10k-route tables with
# one-second laps (about a minute in all; the end-to-end pass alone is
# under 30 s). Fails on any wrong answer, rejected update or generation
# mismatch, and when the committed BENCHMARK.json no longer matches the
# tables in src/workloads.rs. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

run manifest | diff -u BENCHMARK.json - || {
    echo "BENCHMARK.json is stale: regenerate it with 'chisel-benchmark manifest'" >&2
    exit 1
}
run run all --smoke
run run all --smoke --traced
echo "smoke: ok"
