#!/usr/bin/env bash
# Regenerate (default) or verify (--check) the EXPLAIN regression
# corpus under corpus/plans/.
#
# Every deterministic testkit workload is optimized, rendered to a
# stable text form (graph signature, cost estimates, EXPLAIN tree,
# wire-encoding hex) and stored one file per case. CI runs `--check`,
# which fails with a diff excerpt when an optimizer change alters any
# plan, and also when a `.txt` file there matches no case (a deleted
# case's leftover, which nothing would check) — intentional changes are
# committed by rerunning this script with no flags.
#
# `--check --perturb` inverts the gate: it perturbs catalog statistics
# first and must FAIL on a healthy corpus, proving the gate detects
# cost-model drift.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release -p fro-bench --bin corpus -- "$@"
