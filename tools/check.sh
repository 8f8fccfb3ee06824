#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite in the
# plain Release configuration, again with AddressSanitizer + UBSan
# (-DAAC_SANITIZE=ON), and run the concurrency-labeled suite under
# ThreadSanitizer (-DAAC_SANITIZE=thread). Run from anywhere; builds land
# in build/, build-asan/, build-tsan/ and build-lockdep/ under the repo root.
#
#   tools/check.sh              # lint + plain + asan + tsan + lockdep
#   tools/check.sh plain        # plain only
#   tools/check.sh asan         # ASan+UBSan only
#   tools/check.sh tsan         # the "concurrency" label under TSan
#   tools/check.sh label NAME   # one ctest label under ASan+UBSan, then
#                               # TSan — e.g. robustness (deadlines,
#                               # admission, the overload storm),
#                               # resultcache (canonicalization, result
#                               # cache, the result layer at equal RAM),
#                               # tiered (codec fuzz, demotion and
#                               # promotion, torn spill files, each tier at
#                               # equal RAM), kernel
#   tools/check.sh bench-smoke  # under ASan+UBSan, then TSan: the
#                               # rollup_kernel and overload_storm benches
#                               # in --smoke mode (each exits nonzero when
#                               # its own assertions fail), then the
#                               # "kernel" label
#   tools/check.sh kernel-simd  # the "kernel" label with AAC_FOLD_KERNEL
#                               # forced to vector and then scalar, in the
#                               # plain build (which first runs
#                               # rollup_kernel --smoke, host of the >= 1.5x
#                               # SIMD perf assert), then ASan+UBSan, then
#                               # TSan (rollup_plan_test shares one plan
#                               # cache across threads)
#   tools/check.sh lockdep      # the full suite built with -DAAC_LOCKDEP=ON,
#                               # every binary dumping its lock-order graph
#                               # to one edge file ($AAC_LOCKDEP_DUMP), then
#                               # tools/lockdep_report.py cycle-checks the
#                               # union — a cross-run ABBA fails the gate
#                               # even if no single run inverted the order
#   tools/check.sh lint         # the lint wall (tools/lint.sh): repo
#                               # invariants always; clang thread-safety
#                               # analysis and clang-tidy when LLVM is
#                               # installed
#
# Every mode builds the whole tree before it runs a label. An unbuilt test
# binary registers as one unlabelled <name>_NOT_BUILT placeholder, so a
# partial build would silently drop that binary's cases from the label.
# The sanitized trees are always configured with -DAAC_LOCKDEP=ON as well,
# so every sanitized suite also runs under the runtime lock-order
# validator.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

# Configures and builds the whole tree in build-dir $1 with AAC_SANITIZE=$2
# (OFF, ON or thread); sanitized trees also get AAC_LOCKDEP=ON.
build_tree() {
  local build_dir="$1" sanitize="$2" lockdep="OFF"
  [ "${sanitize}" != "OFF" ] && lockdep="ON"
  echo "=== ${build_dir##*/}: configure and build ==="
  cmake -B "${build_dir}" -S "${repo_root}" -DAAC_SANITIZE="${sanitize}" \
    -DAAC_LOCKDEP="${lockdep}"
  cmake --build "${build_dir}" -j "${jobs}"
}

# Runs the tests labeled $2 in build-dir $1 (a regex match, since a test's
# labels are one space-joined string — see tests/CMakeLists.txt); any
# further arguments are VAR=value settings for ctest's environment. Fails
# when no test carries the label, so a typo cannot pass as an empty run.
ctest_label() {
  local build_dir="$1" label="$2" count
  shift 2
  count="$(cd "${build_dir}" && ctest -N -L "${label}" |
    sed -n 's/^Total Tests: //p')"
  if [ "${count:-0}" -eq 0 ]; then
    echo "no test in ${build_dir} carries the ctest label '${label}'" >&2
    exit 1
  fi
  echo "=== ${build_dir##*/}: ctest -L ${label} (${count} tests) $* ==="
  (cd "${build_dir}" &&
    env "$@" ctest -L "${label}" --output-on-failure -j "${jobs}")
}

run_suite() {
  local build_dir="$1"
  build_tree "$@"
  echo "=== ${build_dir##*/}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
}

# Label $3, in build-dir $1 with AAC_SANITIZE=$2. The label mode runs it
# under ASan+UBSan, then TSan: deadline/cancel, result-cache and
# demote/promote bugs surface as use-after-frees of torn-down state or as
# data races in shared layers. TSan alone runs only the "concurrency"
# label (the sharded-cache stress, single-flight and parallel-runner
# suites), since it instruments everything it touches ~10x slower and only
# multi-threaded tests need it.
run_label() {
  build_tree "$1" "$2"
  ctest_label "$1" "$3"
}

# The bench smoke runs are the benches' own assertions at tiny sizes:
# scalar-vs-vector bit identity (rollup_kernel), and goodput, typed
# resolutions and zero pins (overload_storm). The result cache's and the
# tiers' equal-RAM contracts are gtests under the resultcache and tiered
# labels, which every suite runs.
run_bench_smoke() {
  local build_dir="$1" bench
  build_tree "$@"
  for bench in rollup_kernel overload_storm; do
    echo "=== ${build_dir##*/}: ${bench} --smoke ==="
    "${build_dir}/bench/${bench}" --smoke
  done
  ctest_label "${build_dir}" kernel
}

# Forced-dispatch gate for the fold kernel seam: neither runtime dispatch
# nor the auto default can hide a kernel-specific bug. rollup_kernel
# --smoke asserts the vector dense path >= 1.5x over scalar on AVX2
# hardware; the bench skips that assert under sanitizers and without AVX2,
# where forcing "vector" degrades to scalar by design (the run still
# passes, it just stops exercising a distinct code path).
run_kernel_simd() {
  local build_dir="$1" sanitize="$2" kernel
  build_tree "${build_dir}" "${sanitize}"
  if [ "${sanitize}" = "OFF" ]; then
    echo "=== ${build_dir##*/}: rollup_kernel --smoke ==="
    "${build_dir}/bench/rollup_kernel" --smoke
  fi
  for kernel in vector scalar; do
    ctest_label "${build_dir}" kernel AAC_FOLD_KERNEL="${kernel}"
  done
}

# Lock-order gate: the whole suite under -DAAC_LOCKDEP=ON, with every test
# binary appending its lock-order graph to one edge file, then the offline
# cycle checker over the union. The runtime validator aborts any in-run
# rank violation on the spot (failing ctest); the checker additionally
# fails the gate on a cycle assembled across *different* binaries' runs.
run_lockdep() {
  local build_dir="${repo_root}/build-lockdep"
  echo "=== lockdep: configure ==="
  cmake -B "${build_dir}" -S "${repo_root}" -DAAC_LOCKDEP=ON
  echo "=== lockdep: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  local edges="${build_dir}/lockdep_edges.tsv"
  rm -f "${edges}"
  echo "=== lockdep: ctest (full suite, dumping edges) ==="
  (cd "${build_dir}" &&
    AAC_LOCKDEP_DUMP="${edges}" ctest --output-on-failure -j "${jobs}")
  echo "=== lockdep: cross-run cycle check ==="
  python3 "${repo_root}/tools/lockdep_report.py" "${edges}"
  echo "=== lockdep: OK ==="
}

case "${mode}" in
  plain)
    run_suite "${repo_root}/build" OFF
    ;;
  asan)
    run_suite "${repo_root}/build-asan" ON
    ;;
  tsan)
    run_label "${repo_root}/build-tsan" thread concurrency
    ;;
  label)
    if [ $# -ne 2 ]; then
      echo "usage: tools/check.sh label <ctest label>" >&2
      exit 2
    fi
    run_label "${repo_root}/build-asan" ON "$2"
    run_label "${repo_root}/build-tsan" thread "$2"
    ;;
  bench-smoke)
    run_bench_smoke "${repo_root}/build-asan" ON
    run_bench_smoke "${repo_root}/build-tsan" thread
    ;;
  kernel-simd)
    run_kernel_simd "${repo_root}/build" OFF
    run_kernel_simd "${repo_root}/build-asan" ON
    run_kernel_simd "${repo_root}/build-tsan" thread
    ;;
  lockdep)
    run_lockdep
    ;;
  lint)
    "${repo_root}/tools/lint.sh"
    ;;
  all)
    "${repo_root}/tools/lint.sh"
    run_suite "${repo_root}/build" OFF
    run_suite "${repo_root}/build-asan" ON
    run_label "${repo_root}/build-tsan" thread concurrency
    run_lockdep
    ;;
  *)
    echo "usage: tools/check.sh [plain|asan|tsan|label <name>|bench-smoke|kernel-simd|lockdep|lint|all]" >&2
    exit 2
    ;;
esac

echo "all requested configurations passed"
