#!/usr/bin/env bash
# Build and run the citusx benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace [0|1]] [--smoke]
#                    [--out DIR]
#
# Builds benchmark/ (a standalone CMake project over src/) into
# .bench_build/citusx, then runs each selected workload in its own process.
# Without --workload it runs all four. Each process prints one
# "workload metric value unit" line per metric and, as its last line, one
# JSON object with "correct", "attempted", "failed" and "metrics".
# Per-workload results go under DIR (default .bench_build/results), merged
# into DIR/results.json. Each workload fixes its measured window; --smoke
# runs every workload and check with short windows and one set-up. Exits
# non-zero if a build, set-up or check fails.
#
# "--seconds 10" is accepted for callers that pass BENCHMARK.json's
# run_seconds; the windows are sized for it, so no other value is.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

all=(crud_ycsb tenant_tpcc dw_tpch rt_analytics)
workloads=()
seed=1
trace=0
smoke=0
out=.bench_build/results

usage() {
  echo "usage: benchmark/run.sh [--workload W] [--seed N] [--trace [0|1]]" \
       "[--smoke] [--out DIR]" >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workloads+=("$2"); shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    --seconds)
      if [ $# -lt 2 ] || [ "$2" != 10 ]; then
        echo "run.sh: the measured windows are fixed; --seconds must be 10" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --out) [ $# -ge 2 ] || usage; out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; usage ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=("${all[@]}")

if [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: src/ is missing; run from a full citusx checkout" >&2
  exit 1
fi

build=.bench_build/citusx
mkdir -p "$build"
log="$build/build.log"
if ! { cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

mkdir -p "$out"
extra=()
[ "$smoke" = 1 ] && extra+=(--smoke)
status=0
for w in "${workloads[@]}"; do
  rm -f "$out/$w/result.json" "$out/$w/layers.json" "$out/$w/spans.jsonl"
  "$build/citusx_bench" --workload "$w" --seed "$seed" --trace "$trace" \
      --out "$out" "${extra[@]}" || status=1
done

python3 - "$out" "${workloads[@]}" <<'EOF' || status=1
import json, os, sys
out, workloads = sys.argv[1], sys.argv[2:]
runs = []
for w in workloads:
    for name in ("result.json", "layers.json"):
        path = os.path.join(out, w, name)
        if os.path.exists(path):
            with open(path) as f:
                runs.append(json.load(f))
with open(os.path.join(out, "results.json"), "w") as f:
    json.dump({"runs": runs}, f, indent=1)
EOF
exit $status
