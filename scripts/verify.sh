#!/usr/bin/env bash
# Single entry point for CI and local verification:
#   tier 1: release build + full ctest suite (includes cituslint, whose
#           rules are listed in tools/cituslint/cituslint.cc, and the
#           baseline burn-down report below)
#   tier 2: AddressSanitizer build + full ctest suite
#   tier 3: ThreadSanitizer build + full ctest suite
#   tier 4: UndefinedBehaviorSanitizer build + full ctest suite
#   tier bench: bench + chaos smoke — fig9 (2PC invariant), abl_executor
#               (slow start opens fewer connections than the full pool,
#               every answer correct), abl_plancache (>= 2x plan-cache
#               speedup), abl_mx (>= 2x any-node read scaling), abl_olap
#               (vectorized executor matches the volcano oracle on every
#               TPC-H query, >= 10x on scan/agg-heavy ones),
#               abl_scale (>= 2x pooled tps at >= 100k sessions on a bounded
#               connection budget, one-round-trip delta-sync cost flat per
#               node), abl_joins (repartition joins match a single-node
#               oracle, shuffled bytes grow with the data), chaos_ycsb
#               --quick under a fixed seed (release and, when present, the
#               ASan build); every binary self-checks its own invariants and
#               JSON report. Then the standalone benchmark (benchmark/) is
#               built from src/ and every workload runs its checks with
#               short windows (benchmark/run.sh --smoke), so a src/ change
#               that breaks the benchmark build or a workload check fails
#               here, before the benchmark pipeline runs
#
# Usage: scripts/verify.sh [--tier N]
#   --tier N       run only that tier (1-4, or "bench"); "bench" expects a
#                  tier-1 build to exist and reuses the ASan build if one
#                  is already present
#   --tier1-only   alias for --tier 1 (kept for older callers)
#   (no flag)      run every tier in order
set -euo pipefail

cd "$(dirname "$0")/.."

TIER=all
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tier)
      [[ $# -ge 2 ]] || { echo "--tier needs an argument (1-4 or bench)" >&2; exit 2; }
      TIER="$2"; shift 2 ;;
    --tier=*) TIER="${1#--tier=}"; shift ;;
    --tier1-only) TIER=1; shift ;;
    *) echo "unknown argument: $1 (expected --tier N or --tier1-only)" >&2; exit 2 ;;
  esac
done
case "$TIER" in
  all|1|2|3|4|bench) ;;
  *) echo "unknown tier: $TIER (expected 1-4 or bench)" >&2; exit 2 ;;
esac

run_tier() { [[ "$TIER" == all || "$TIER" == "$1" ]]; }

if run_tier 1; then
  echo "==> tier 1: release build + ctest"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  (cd build && ctest --output-on-failure -j"$(nproc)")

  echo "==> cituslint: per-rule violations vs committed baseline"
  # Prints the burn-down state ("N new, M baselined" per rule) and FAILS
  # the run on any new violation or stale baseline entry — baselined
  # counts must only ever shrink. Violations stream to stderr; the counts
  # on stdout also feed the CI job summary as a markdown table.
  lint_rc=0
  lint_out="$(./build/tools/cituslint/cituslint . \
      --baseline tools/cituslint/baseline.txt --counts)" || lint_rc=$?
  echo "$lint_out"
  if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
      echo "### cituslint burn-down"
      echo ""
      echo "| rule | new | baselined |"
      echo "| --- | ---: | ---: |"
      echo "$lint_out" | sed -n \
          's/^\([a-z-]*\): \([0-9]*\) new, \([0-9]*\) baselined$/| \1 | \2 | \3 |/p'
    } >> "$GITHUB_STEP_SUMMARY"
  fi
  [[ "$lint_rc" -eq 0 ]]
fi

if run_tier 2; then
  echo "==> tier 2: AddressSanitizer build + ctest"
  cmake -B build-asan -S . -DCITUSX_SANITIZE=address >/dev/null
  cmake --build build-asan -j"$(nproc)"
  (cd build-asan && ctest --output-on-failure -j"$(nproc)")
fi

if run_tier 3; then
  echo "==> tier 3: ThreadSanitizer build + ctest"
  cmake -B build-tsan -S . -DCITUSX_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  (cd build-tsan && ctest --output-on-failure -j"$(nproc)")
fi

if run_tier 4; then
  echo "==> tier 4: UndefinedBehaviorSanitizer build + ctest"
  cmake -B build-ubsan -S . -DCITUSX_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j"$(nproc)"
  (cd build-ubsan && ctest --output-on-failure -j"$(nproc)")
fi

if run_tier bench; then
  if [[ ! -x build/bench/fig9_2pc ]]; then
    # The build type whose host numbers benchmarks quote: -O3 under -Werror.
    echo "==> tier bench: building Release binaries first"
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build -j"$(nproc)"
  fi
  echo "==> bench smoke: fig9 (2PC) + abl_executor (slow start) + abl_plancache (plan cache) + abl_mx (MX)"
  ./build/bench/fig9_2pc --quick --json=build/BENCH_fig9_smoke.json
  ./build/bench/abl_executor
  ./build/bench/abl_plancache --quick --json=build/BENCH_plancache_smoke.json
  ./build/bench/abl_mx --quick --json=build/BENCH_mx_smoke.json

  echo "==> scale smoke: transaction pooling + delta metadata sync"
  ./build/bench/abl_scale --quick --json=build/BENCH_scale_smoke.json

  echo "==> olap smoke: vectorized executor vs volcano oracle on TPC-H"
  ./build/bench/abl_olap --quick --json=build/BENCH_olap.json

  echo "==> joins smoke: repartition shuffle + CTE materialization vs oracle"
  ./build/bench/abl_joins --quick --json=build/BENCH_joins_smoke.json

  echo "==> chaos smoke: crash/restart schedule under a fixed seed"
  ./build/bench/chaos_ycsb --quick --seed=42 --json=build/BENCH_chaos_smoke.json
  if [[ -x build-asan/bench/chaos_ycsb ]]; then
    ./build-asan/bench/chaos_ycsb --quick --seed=42 \
        --json=build-asan/BENCH_chaos_smoke.json
  else
    echo "    (no ASan build present; skipping the ASan chaos pass)"
  fi

  echo "==> benchmark smoke: standalone build + every workload check"
  bash benchmark/run.sh --smoke --out build/benchmark-smoke
fi

echo "OK (tier: $TIER)"
