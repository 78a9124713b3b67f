#!/usr/bin/env bash
# Build the benchmark in release mode and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]
#       every workload in its own process, untraced then traced; prints
#       every metric by name with its unit and writes one result file
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is its result object
#   benchmark/run.sh compare A.json B.json
#       compare two result files against the bounds in BENCHMARK.json
#
# The build goes to $CARGO_TARGET_DIR when set, else to the root
# workspace's target/ so that it shares the root build's cache; scratch
# files (WAL directories, traces, results) go to <target>/benchmark-scratch.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/dt-benchmark" "$@"
