#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; see README.md here.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]    every workload, one JSON document
#   benchmark/run.sh --check-repeat [--seed N]             the timed set twice, held to its own bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1    one run (what BENCHMARK.json names)
#
# Runs from the repo root so a relative CARGO_TARGET_DIR means the same
# directory to cargo and to the line that finds the binary.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/mknn-benchmark" "$@"
