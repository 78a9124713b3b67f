#!/usr/bin/env bash
# Lint, test and smoke-run the benchmark package. The root workspace's CI
# does not see this package (it is its own workspace), so this script is
# what keeps it honest: formatting, clippy with warnings denied, the unit
# tests, and a short run of every workload with all correctness checks on.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --target-dir "$target" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest" --target-dir "$target" -q
benchmark/run.sh --smoke
