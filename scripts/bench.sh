#!/bin/sh
# Benchmark the hot-path kernels and record the results as JSON.
#
# Baselines come from the most recent previous BENCH_*.json in the repo
# root: each PR's current_ns_op becomes the next PR's baseline_ns_op,
# so the chain of committed reports tracks per-PR deltas without
# hardcoded constants. Override the choice with BENCH_BASELINE=path.
#
# Each current number is the best (minimum) of -count=N runs because
# shared benchmark machines swing 30-40% run to run; best-of is the
# stablest estimator of the achievable time.
#
# Benchmarks absent from the baseline report (newly added kernels) are
# self-baselined at their current time, reported with speedup 1.00 and
# "new": true, so the chain picks them up without manual edits.
#
# Benchmarks that report a dist-evals/op metric (the Lloyd kernels) also
# get a "dist_evals_op" field: an exact, machine-independent count of
# distance evaluations per run.
#
# Usage: scripts/bench.sh count out.json
#   count    runs per benchmark
#   out.json output report path (required, so a bare run cannot
#            overwrite a committed report)
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -ne 2 ]; then
  echo "usage: scripts/bench.sh count out.json" >&2
  exit 2
fi
COUNT="$1"
OUT="$2"

# Pick the baseline report: the newest committed BENCH_*.json that is
# not the output file itself (version sort, so PR10 follows PR9).
BASE="${BENCH_BASELINE:-}"
if [ -z "$BASE" ]; then
  BASE="$(ls BENCH_*.json 2>/dev/null | grep -vx "$OUT" | sort -V | tail -n 1 || true)"
fi
if [ -z "$BASE" ] || [ ! -f "$BASE" ]; then
  echo "error: no baseline BENCH_*.json found (set BENCH_BASELINE=path)" >&2
  exit 1
fi
echo "baselines from $BASE" >&2

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running benchmarks (-benchtime=10x -count=$COUNT) ..." >&2
go test -run='^$' -bench='LloydNaiveK40|SeedScalableK40' \
  -benchtime=10x -count="$COUNT" -benchmem ./internal/kmeans | tee -a "$RAW" >&2
go test -run='^$' -bench='CoresetTree5000to200|SnapshotCold|SnapshotWarm|MergeMiniBatch' \
  -benchtime=10x -count="$COUNT" -benchmem ./internal/core | tee -a "$RAW" >&2
go test -run='^$' -bench='SquaredDistance6D|NearestIndex40Centroids' \
  -count="$COUNT" ./internal/vector | tee -a "$RAW" >&2

# Reduce each benchmark to its best (minimum) ns/op across runs, then
# join with the baseline report: its current_ns_op is our baseline.
awk -v basefile="$BASE" '
BEGIN {
    # Each benchmark entry in a BENCH_*.json report is one line:
    #   {"name": "X", ..., "current_ns_op": N, ...}
    while ((getline line < basefile) > 0) {
        if (match(line, /"name": "[^"]*"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"current_ns_op": [0-9.eE+-]*/))
                base[name] = substr(line, RSTART + 17, RLENGTH - 17) + 0
        }
    }
    close(basefile)
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = $3 + 0
    if (!(name in best) || ns < best[name]) best[name] = ns
    for (f = 4; f < NF; f++)
        if ($(f + 1) == "dist-evals/op") evals[name] = $f
}
END {
    n = split("LloydNaiveK40 SeedScalableK40 CoresetTree5000to200 SnapshotCold SnapshotWarm MergeMiniBatch SquaredDistance6D NearestIndex40Centroids", order, " ")
    printf "{\n"
    printf "  \"note\": \"baseline_ns_op from the previous BENCH report; current_ns_op is best-of-count on this machine; new benchmarks self-baseline\",\n"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (!(name in best)) { missing = missing " " name; continue }
        extra = (name in evals) ? sprintf(", \"dist_evals_op\": %s", evals[name]) : ""
        if (!(name in base)) {
            # A kernel added this PR has no prior report to compare
            # against: self-baseline so the next PR inherits a number.
            printf "    {\"name\": \"%s\", \"baseline_ns_op\": %s, \"current_ns_op\": %s, \"speedup\": 1.00, \"new\": true%s}%s\n",
                name, best[name], best[name], extra, (i < n ? "," : "")
            continue
        }
        printf "    {\"name\": \"%s\", \"baseline_ns_op\": %s, \"current_ns_op\": %s, \"speedup\": %.2f%s}%s\n",
            name, base[name], best[name], base[name] / best[name], extra, (i < n ? "," : "")
    }
    printf "  ]\n}\n"
    if (missing != "") {
        printf "error: benchmarks missing:%s\n", missing > "/dev/stderr"
        exit 1
    }
}
' "$RAW" > "$OUT"

echo "wrote $OUT (baseline: $BASE)" >&2
cat "$OUT"
