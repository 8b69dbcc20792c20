#!/usr/bin/env bash
# Build the benchmark (and the product, from source) and run it.
#
#   bash benches/loadgen/run.sh
#       all five workloads, end to end and traced, every metric as
#       `workload/name value unit`
#   bash benches/loadgen/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result as one JSON object
#   bash benches/loadgen/run.sh --selfcheck [--runs <n>] [--seed <n>] [--seconds <s>]
#       the end-to-end set twice (A/A), <n> runs per workload in each,
#       compared against the bounds
#
# Run from the root of the checkout. Build products go to
# $CARGO_TARGET_DIR (default benches/loadgen/target), trace files to
# benches/loadgen/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr; stdout carries only results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml"

# `--trace 1` is the traced binary's job.
bin=loadgen
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=loadgen-trace
    fi
    prev=$arg
done

exec "$target/release/$bin" --out "$here/out" "$@"
