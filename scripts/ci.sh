#!/usr/bin/env bash
# Tier-1 verification plus the loadgen count gates, the EXPLAIN corpus
# gate, clippy, rustdoc and the server smoke test.
#
# Offline-safe: every dependency is a workspace path crate (including
# the vendored rand/proptest stand-ins under crates/), so no step
# touches a registry or the network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format check =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== tests (every workspace crate) =="
# --no-fail-fast runs every target and the summary names each one that
# failed, so no suite needs a second, standalone run to name itself.
# What the suites guarantee, among others:
# * wire_property: encode → decode → encode is the identity on every
#   corpus plan, and the decoder is total on hostile bytes (fro-wire's
#   own unit tests run here too);
# * the executor suites (executor_vs_reference, engine_vs_reference,
#   pipelined_property, columnar_property, parallel_engine_property,
#   partition_invariance_property, group_partition_property), all on
#   the harness in tests/harness: the one executor against the
#   fro-algebra reference on every plan shape, run once on the calling
#   thread (the executor is sequential and has no settings), counters
#   against reference-derived values for filter chains and scan-probing
#   joins; EXPLAIN ANALYZE's per-node counts pinned;
# * semireduce_property: reduced vs plain plans bit-identical in rows,
#   order and schema on every join kind, one executed reduction pass
#   per applied wrap; the soundness matrix
#   (left-outer probe never up-reduced, full outer untouched) pinned;
#   `Auto` wraps the skewed star and snowflake once each, with exact
#   intermediate-row counts, and declines the uniform control;
# * shared_session_property: interleaved queries and mutations on T
#   threads over one SharedDb equal a single-threaded replay, atomic
#   multi-table flips are never observed torn, epoch bumps invalidate
#   across threads, per-handle cache counters sum to the shared totals;
# * standing_property: random append/delete interleavings on all five
#   join kinds, writers on 1/2/8 threads, keep every maintained view
#   bit-identical to cold re-execution; outerjoin null rows retract
#   exactly when the last match dies; alpha-equivalent registrations
#   share one view; a skewed snowflake view absorbs 32 single-row
#   appends without a refresh.
cargo test -q --workspace --no-fail-fast

echo "== tests (testing-oracles: name-keyed oracle equivalence) =="
# The one suite the feature gates; the rest ran in the workspace step.
cargo test -q --features testing-oracles --test interned_equivalence

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
# cycle legitimately allocates — bytes per pinned append (35 709 B: the
# O(delta) view maintenance and the O(#tables) generation; a table copy
# per cycle reads 347 KB, a database copy per append 2.9 MB, and delta
# join nodes that copy every output row into a refcount map 84 503 B)
# and allocations per op (299; a per-poll view copy or a per-delete
# table rebuild reads 5 299, the refcount maps 620).
pinned_run="$(traced_run ingest_pinned)"
gate_count "$pinned_run" shared.pinned_alloc_bytes_per_append B max 40000
gate_count "$pinned_run" proc.allocs_per_op allocations max 335
# Standing-view state is most of this workload's heap: each delta join
# holds its two inputs once (3 672 B per stored row, base tables and
# both views). A node that keeps a copy of its output reads 6 349 B.
gate_count "$pinned_run" storage.bytes_per_row B max 4000
# Every append and delete reaches both standing views as a delta; a
# fall-back to re-running a view counts here.
gate_count "$pinned_run" standing.views_refreshed views max 0

echo "== text front door gates (loadgen: wire_text_point, traced) =="
# A warm §5 text query builds no ground relation, starts from its
# restricted base and follows identifiers through their indexes. Putting
# a per-query materialization back reads 8 012 allocations and 646 KB
# per op (now 989 and 93 KB, since results are encoded from borrowed
# rows; 1 145 and 107 KB while each row was copied into an owned
# batch first); a filter on top of the joined world
# 1 492 tuples retrieved (654); a hash build over a whole derived
# relation 1 300 build rows (174); a per-query table sync or a
# restriction in the cache key a cold plan cache.
text_run="$(traced_run wire_text_point)"
gate_count "$text_run" proc.allocs_per_op allocations max 1300
gate_count "$text_run" proc.alloc_bytes_per_op B max 120000
gate_count "$text_run" exec.tuples_retrieved_per_op tuples max 700
gate_count "$text_run" exec.hash_build_rows_per_op rows max 200
gate_count "$text_run" core.plancache.hit_rate ratio min 0.9

echo "== join-estimate gates (loadgen: embed_exec, traced) =="
# Equi-join selectivity comes from the overlap the key sketches measure,
# so the 8-deep outerjoin chain runs as pipelined index joins. Assuming
# containment again (or a sketch hash that varies per process) replans
# it bushy over hash-joined intermediates: 17 422 rows materialized,
# 15 572 hash build rows and 42 415 allocations per op (now 0, 650 and
# 15 714). The snowflake's reduction must keep cutting 3 000 rows. Its
# tables cost 122.69 B per stored row (157.54 while an index kept an
# owned copy of every key); an index that stores keys again reads here.
exec_run="$(traced_run embed_exec)"
gate_count "$exec_run" exec.rows_materialized_per_op rows max 3000
gate_count "$exec_run" exec.hash_build_rows_per_op rows max 1000
gate_count "$exec_run" exec.rows_reduced_per_op rows min 3000
gate_count "$exec_run" proc.allocs_per_op allocations max 22000
gate_count "$exec_run" storage.bytes_per_row B max 130

echo "== planning gates (loadgen: embed_plan, traced) =="
# 60 warm and 4 cold prepares per cycle over a >=1e5-row catalog. A cold
# prepare enumerates 86.25 csg-cmp pairs; a warm one allocates little
# beside the plan it hands out (1 207 allocations and 114 904 B per op);
# the catalog's tables cost 128.54 B per row. A DP that enumerates more,
# a warm path that replans or copies, or a wider stored row reads here.
plan_run="$(traced_run embed_plan)"
gate_count "$plan_run" core.dp.pairs_per_cold_op pairs max 100
gate_count "$plan_run" proc.allocs_per_op allocations max 1500
gate_count "$plan_run" proc.alloc_bytes_per_op B max 140000
gate_count "$plan_run" storage.bytes_per_row B max 135

echo "== bulk result gates (loadgen: wire_bulk, traced) =="
# 12-14k rows x 5 columns streamed per op: 14.75 frames, 31.59 B per row
# on the wire, 99 288 allocations, 20 250 tuples retrieved and 217.86 B
# per stored row. Smaller batches, a fatter row encoding, a per-row copy
# more (copying each row into an owned batch before encoding it read
# 137 551 allocations), or a scan that reads more than it returns reads
# here.
bulk_run="$(traced_run wire_bulk)"
gate_count "$bulk_run" wire.frames_per_op frames max 17
gate_count "$bulk_run" wire.bytes_per_row B max 36
gate_count "$bulk_run" proc.allocs_per_op allocations max 110000
gate_count "$bulk_run" exec.tuples_retrieved_per_op tuples max 23000
gate_count "$bulk_run" storage.bytes_per_row B max 230

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
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== server smoke test (loopback round trip) =="
cargo run -q --release -p fro-bench --bin serve -- --smoke

echo "ci.sh: all checks passed"
