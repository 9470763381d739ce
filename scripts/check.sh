#!/usr/bin/env bash
# Tier-1 verification, twice: the plain build, then an
# AddressSanitizer+UBSan build. The fault layer's recovery paths (abort,
# retry, reset) are exactly where lifetime bugs hide; the sanitized pass
# makes the chaos soak count as a memory test too.
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only|--bench-compare]
#
# --bench-compare is the perf-regression gate, now driven end-to-end by
# scripts/fleet.py: it builds the plain tree, runs the whole scenario
# matrix (bench_fleet builtins + bench/scenarios/*.scn) and every other
# bench binary the build defines in --smoke mode in parallel, and then
# gates the kernel and vcscale rows against the committed baselines in
# bench/baselines/ with scripts/bench_compare.py semantics, and every
# scenario's event census exactly. A >15% throughput drop fails; the
# threshold is overridable via HNI_BENCH_THRESHOLD (CI runners are not
# the baseline machine, so CI uses a looser bound to catch only
# structural regressions, not host lottery). Each other binary's
# --smoke exit code still asserts its own acceptance (P1's invariant
# audit at scale, R1/R2's recovery), and every scenario's acceptance
# block gates goodput/delivery/latency/fairness/restore/audit per
# scenario: the overload (R3), fairness (R4), protection (R5) and EPD
# (A5) experiments are fleet rows.
#
# Refreshing the baseline after an intentional perf change:
#   ./build/bench/bench_micro \
#     --benchmark_filter='BM_Simulator|BM_Crc32_9180|BM_MakePattern_9180|BM_VerifyPattern_9180' \
#     --benchmark_repetitions=5 \
#     --benchmark_out=bench/baselines/BENCH_kernel.json \
#     --benchmark_out_format=json

set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local build_dir="$1"; shift
  local started built tested
  started=$(date +%s)
  cmake -B "$build_dir" -S . "$@" > /dev/null
  cmake --build "$build_dir" -j "$(nproc)"
  built=$(date +%s)
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  tested=$(date +%s)
  echo "-- ${build_dir}: build $((built - started))s, test $((tested - built))s, total $((tested - started))s"
}

mode="${1:-all}"

if [[ "$mode" == "--bench-compare" ]]; then
  echo "== perf gate: fleet smoke matrix + committed baselines =="
  cmake -B build -S . > /dev/null
  cmake --build build -j "$(nproc)"
  # fleet.py runs every scenario and every other bench in parallel,
  # then gates the kernel/vcscale rows and the event census against
  # bench/baselines/ with bench_compare.py (threshold from
  # HNI_BENCH_THRESHOLD, same default 0.15 as before).
  python3 scripts/fleet.py --smoke --bench-compare --no-trajectory
  echo "check.sh: perf gate passed"
  exit 0
fi

if [[ "$mode" != "--sanitize-only" ]]; then
  echo "== tier-1: plain =="
  run_suite build
fi

if [[ "$mode" != "--plain-only" ]]; then
  echo "== tier-1: address+undefined sanitizers =="
  run_suite build-asan "-DHNI_SANITIZE=address;undefined"
fi

echo "check.sh: all requested suites passed"
