#!/usr/bin/env bash
# Builds the `cimloop` binary and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `<name>` is cold_resnet18, cold_vit_repeated, dse_staged, serve_mixed or
# all. Builds go to $CARGO_TARGET_DIR (default .bench_build); cargo's own
# output goes to standard error.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Explicit manifest paths: outside a checkout there is no manifest, and
# cargo must fail rather than search the parent directories.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cimloop-cli --bin cimloop
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

exec "$CARGO_TARGET_DIR/release/perfbench" --cimloop "$CARGO_TARGET_DIR/release/cimloop" "$@"
