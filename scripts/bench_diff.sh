#!/usr/bin/env bash
# Print metric deltas between the two most recent archived bench
# snapshots
# (benches/history/<sha>-{engine,optimizer,plancache,server,reducer,standing}.json,
# written by ci.sh after each bench run).
#
# Pure shell + awk — no JSON tooling required: the snapshots are flat
# enough that `"key": number` scans cover every top-level scalar
# metric. Keys that repeat (the per-cell `results` rows) are skipped;
# the summary scalars (row counts, speedups, totals) are what trend.
# Metrics (and whole bench kinds) present only in the current snapshot
# are reported as `new` rather than silently skipped, so a freshly
# added bench shows up in the first diff after it lands. That covers
# the engine bench's pipelined-execution metrics (`chain_*` deep
# left-join-chain timing and the `rows_materialized`/`rows_pipelined`
# bookkeeping) the same as any
# other top-level scalar — and likewise the columnar-kernel metrics
# (`filter_rows_per_sec*`, `build_rows_per_sec*`, the `*_speedup`
# ratios, and `zones_skipped`) emitted by the vectorized section of
# the engine bench.
set -euo pipefail
cd "$(dirname "$0")/.."

diff_kind() {
  kind="$1"
  files=$(ls -t benches/history/*-"$kind".json 2>/dev/null | head -2 || true)
  cur=$(printf '%s\n' "$files" | sed -n 1p)
  prev=$(printf '%s\n' "$files" | sed -n 2p)
  if [ -z "${cur:-}" ]; then
    echo "bench_diff: no $kind snapshots yet"
    return 0
  fi
  if [ -z "${prev:-}" ]; then
    echo "== $kind: $(basename "$cur") (new bench, no previous snapshot) =="
    awk -v cur="$cur" '
      {
        if (match($0, /"[A-Za-z0-9_]+": *-?[0-9][0-9.]*/)) {
          split(substr($0, RSTART, RLENGTH), kv, /": */)
          key = substr(kv[1], 2)
          if (!(key in count)) order[++n] = key
          count[key]++; val[key] = kv[2] + 0
        }
      }
      END {
        for (i = 1; i <= n; i++) {
          key = order[i]
          if (count[key] > 1) continue # per-row field
          printf "  %-24s %14s -> %14g  (new)\n", key, "-", val[key]
        }
      }' "$cur"
    return 0
  fi
  echo "== $kind: $(basename "$prev") -> $(basename "$cur") =="
  awk -v prev="$prev" -v cur="$cur" '
    function scan(file, is_prev,   line, key, val) {
      while ((getline line < file) > 0) {
        if (match(line, /"[A-Za-z0-9_]+": *-?[0-9][0-9.]*/)) {
          split(substr(line, RSTART, RLENGTH), kv, /": */)
          key = substr(kv[1], 2)
          val = kv[2] + 0
          if (is_prev) {
            if (!(key in pcount)) porder[++np] = key
            pcount[key]++; pval[key] = val
          } else {
            if (!(key in ccount)) corder[++nc] = key
            ccount[key]++; cval[key] = val
          }
        }
      }
      close(file)
    }
    BEGIN {
      scan(prev, 1); scan(cur, 0)
      for (i = 1; i <= np; i++) {
        key = porder[i]
        if (pcount[key] > 1 || ccount[key] > 1) continue # per-row field
        if (!(key in cval)) continue
        d = cval[key] - pval[key]
        pct = (pval[key] != 0) ? 100 * d / pval[key] : 0
        printf "  %-24s %14g -> %14g  (%+.1f%%)\n", key, pval[key], cval[key], pct
      }
      # Metrics that only exist in the current snapshot: new, not noise.
      for (i = 1; i <= nc; i++) {
        key = corder[i]
        if (ccount[key] > 1 || (key in pval)) continue
        printf "  %-24s %14s -> %14g  (new)\n", key, "-", cval[key]
      }
    }'
}

diff_kind engine
diff_kind optimizer
diff_kind plancache
diff_kind server
diff_kind reducer
diff_kind standing
