#!/usr/bin/env bash
# Tier-1 verification plus the engine and optimizer benches.
#
# Offline-safe: every dependency is a workspace path crate (including
# the vendored rand/proptest/criterion stand-ins under crates/), so no
# step touches a registry or the network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format check =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== tests (testing-oracles: name-keyed oracle equivalence) =="
cargo test -q --features testing-oracles

echo "== wire decoder fuzz + roundtrip properties =="
cargo test -q -p fro-wire
cargo test -q --test wire_property

echo "== executor vs reference evaluator =="
# The one executor against the fro-algebra reference on every plan
# shape, counters against reference-derived values for filter chains
# and scan-probing joins, then rows, order, schema and counters
# identical across thread counts, morsel sizes and partition counts;
# EXPLAIN ANALYZE's per-node counts pinned. The suites share the harness in tests/harness
# (also covered by the plain `cargo test` above; standalone so a
# failure names itself).
for suite in executor_vs_reference engine_vs_reference pipelined_property \
    columnar_property parallel_engine_property partition_invariance_property \
    group_partition_property; do
    cargo test -q --test "$suite"
done

echo "== semijoin-reduction properties =="
# Reduced vs plain plans: bit-identical rows, order, and schema on
# every join kind, identical counters across the executor harness's
# configuration sweep;
# the soundness matrix (left-outer probe never up-reduced, full outer
# untouched) pinned by deterministic cases (also covered by the plain
# `cargo test` above; standalone so a failure names itself).
cargo test -q --test semireduce_property

echo "== shared-session concurrency properties =="
# T threads of interleaved queries + mutations over one SharedDb:
# results bit-identical to single-threaded replay, atomic multi-table
# flips never observed torn, epoch bumps invalidate across threads,
# per-handle cache counters sum to the shared totals (also covered by
# the plain `cargo test` above; standalone so a failure names itself).
cargo test -q --test shared_session_property

echo "== standing-query maintenance properties =="
# Random append/delete interleavings against registered views on all
# five join kinds, writers on 1/2/8 threads: the
# maintained view stays bit-identical to cold re-execution, outerjoin
# null rows retract exactly when the last match dies, alpha-equivalent
# registrations share one view, and maintenance counters sum across
# handles (also covered by the plain `cargo test` above; standalone so
# a failure names itself).
cargo test -q --test standing_property

# The loadgen gates read counts a traced run takes itself (allocator
# calls, engine work counters, cache hits): a traced run is a fixed
# number of cycles, so they repeat exactly whatever the host's noise.
traced_run() { # <workload>: the run's result line, after checking it
  local run
  run="$(bash benches/loadgen/run.sh --workload "$1" --seed 1 --seconds 3 --trace 1 | tail -n 1)"
  if ! grep -q '"correct": true' <<<"$run"; then
    echo "ERROR: loadgen $1 reported wrong results" >&2
    exit 1
  fi
  echo "$run"
}
gate_count() { # <run> <metric> <unit> <max|min> <bound>
  local got
  got="$(sed -n "s/.*\"$2\": {\"value\": \([0-9.]*\).*/\1/p" <<<"$1")"
  if ! awk -v got="$got" -v how="$4" -v bound="$5" \
      'BEGIN { exit !(got != "" && (how == "max" ? got + 0 <= bound : got + 0 >= bound)) }'; then
    echo "ERROR: $2 = '${got}' $3, $4 $5 $3" >&2
    exit 1
  fi
  echo "$2 = ${got} $3 ($4 $5 $3)"
}

echo "== write-path allocation gates (loadgen: ingest_pinned, traced) =="
# Neither a pinned append, nor a poll, nor a delete may copy a table or
# a view: each count is gated at a fixed ceiling just above what the
# cycle legitimately allocates — bytes per pinned append (84 130 B: the
# O(delta) view maintenance and the O(#tables) generation; a table copy
# per cycle reads 347 KB, a database copy per append 2.9 MB) and
# allocations per op (615; a per-poll view copy or a per-delete table
# rebuild reads 5 299).
pinned_run="$(traced_run ingest_pinned)"
gate_count "$pinned_run" shared.pinned_alloc_bytes_per_append B max 95000
gate_count "$pinned_run" proc.allocs_per_op allocations max 700

echo "== text front door gates (loadgen: wire_text_point, traced) =="
# A warm §5 text query builds no ground relation, starts from its
# restricted base and follows identifiers through their indexes. Putting
# a per-query materialization back reads 8 012 allocations and 646 KB
# per op (now 1 274 and 116 KB); a filter on top of the joined world
# 1 492 tuples retrieved (654); a hash build over a whole derived
# relation 1 300 build rows (174); a per-query table sync or a
# restriction in the cache key a cold plan cache.
text_run="$(traced_run wire_text_point)"
gate_count "$text_run" proc.allocs_per_op allocations max 1500
gate_count "$text_run" proc.alloc_bytes_per_op B max 140000
gate_count "$text_run" exec.tuples_retrieved_per_op tuples max 700
gate_count "$text_run" exec.hash_build_rows_per_op rows max 200
gate_count "$text_run" core.plancache.hit_rate ratio min 0.9

echo "== join-estimate gates (loadgen: embed_exec, traced) =="
# Equi-join selectivity comes from the overlap the key sketches measure,
# so the 8-deep outerjoin chain runs as pipelined index joins. Assuming
# containment again (or a sketch hash that varies per process) replans
# it bushy over hash-joined intermediates: 17 422 rows materialized,
# 15 572 hash build rows and 42 415 allocations per op (now 2 500, 650
# and 18 404). The snowflake's reduction must keep cutting 3 000 rows.
exec_run="$(traced_run embed_exec)"
gate_count "$exec_run" exec.rows_materialized_per_op rows max 3000
gate_count "$exec_run" exec.hash_build_rows_per_op rows max 1000
gate_count "$exec_run" exec.rows_reduced_per_op rows min 3000
gate_count "$exec_run" proc.allocs_per_op allocations max 22000

echo "== EXPLAIN corpus gate =="
scripts/explain_corpus.sh --check
# Inverted self-test: a perturbed cost model MUST trip the gate. If
# this passes, the gate is blind and the corpus is not protecting us.
if scripts/explain_corpus.sh --check --perturb >/dev/null 2>&1; then
  echo "ERROR: corpus gate failed to detect a perturbed cost model" >&2
  exit 1
fi
echo "corpus gate correctly rejects a perturbed cost model"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== engine scaling bench -> BENCH_engine.json =="
cargo run -q --release -p fro-bench --bin scaling

echo "== optimizer bench -> BENCH_optimizer.json =="
cargo run -q --release -p fro-bench --bin optimize

echo "== plan-cache bench -> BENCH_plancache.json =="
cargo run -q --release -p fro-bench --bin plancache

echo "== semijoin reducer bench -> BENCH_reducer.json =="
# Asserts bit-identical plain-vs-reduced output, a >=10x
# intermediate-row cut, and a >=2x wall-clock win on the skewed star
# and snowflake workloads, and that the uniform control declines.
cargo run -q --release -p fro-bench --bin reducer

echo "== standing-query maintenance bench -> BENCH_standing.json =="
# Asserts the maintained view stays bit-identical to re-execution on
# every append, that no append forces a full refresh, that delta rows
# ingested stay O(appends) not O(base), and a >=10x end-to-end win
# (append+delta+poll vs append+re-execute+canonicalize).
cargo run -q --release -p fro-bench --bin standing

echo "== server smoke test (loopback round trip) =="
cargo run -q --release -p fro-bench --bin serve -- --smoke

echo "== server concurrency bench -> BENCH_server.json =="
cargo run -q --release -p fro-bench --bin server_bench

echo "== archive bench snapshots under benches/history/ =="
sha="$(git rev-parse --short HEAD 2>/dev/null || echo workdir)"
mkdir -p benches/history
cp BENCH_engine.json "benches/history/${sha}-engine.json"
cp BENCH_optimizer.json "benches/history/${sha}-optimizer.json"
cp BENCH_plancache.json "benches/history/${sha}-plancache.json"
cp BENCH_server.json "benches/history/${sha}-server.json"
cp BENCH_reducer.json "benches/history/${sha}-reducer.json"
cp BENCH_standing.json "benches/history/${sha}-standing.json"
echo "archived benches/history/${sha}-{engine,optimizer,plancache,server,reducer,standing}.json"

echo "== bench deltas vs previous snapshot =="
scripts/bench_diff.sh || true

echo "ci.sh: all checks passed"
