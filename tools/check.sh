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
#   tools/check.sh bench-smoke  # overload_storm --smoke under ASan+UBSan,
#                               # then TSan (it exits nonzero when its own
#                               # assertions fail)
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
# Every mode builds the whole tree first. An unbuilt test binary registers
# as one unlabelled <name>_NOT_BUILT placeholder, so a partial build would
# silently drop that binary's cases from the tsan mode's label.
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

run_suite() {
  local build_dir="$1"
  build_tree "$@"
  echo "=== ${build_dir##*/}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
}

# The "concurrency" label under ThreadSanitizer: every test that starts a
# thread carries it (lint rule R5), and a single-threaded test does not,
# even where it drives the locked chunk cache or plan cache. TSan
# instruments everything it touches ~10x slower and has nothing to check
# in a single-threaded test; the plain, asan and lockdep modes run those.
# Fails when no test carries the label, so a broken registration cannot
# pass as an empty run.
run_tsan() {
  local build_dir="${repo_root}/build-tsan" count
  build_tree "${build_dir}" thread
  count="$(cd "${build_dir}" && ctest -N -L concurrency |
    sed -n 's/^Total Tests: //p')"
  if [ "${count:-0}" -eq 0 ]; then
    echo "no test in ${build_dir} carries the ctest label 'concurrency'" >&2
    exit 1
  fi
  echo "=== ${build_dir##*/}: ctest -L concurrency (${count} tests) ==="
  (cd "${build_dir}" &&
    ctest -L concurrency --output-on-failure -j "${jobs}")
}

# The bench smoke runs overload_storm's own assertions at tiny sizes:
# goodput, typed resolutions and zero pins.
run_bench_smoke() {
  local build_dir="$1"
  build_tree "$@"
  echo "=== ${build_dir##*/}: overload_storm --smoke ==="
  "${build_dir}/bench/overload_storm" --smoke
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
    run_tsan
    ;;
  bench-smoke)
    run_bench_smoke "${repo_root}/build-asan" ON
    run_bench_smoke "${repo_root}/build-tsan" thread
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
    run_tsan
    run_lockdep
    ;;
  *)
    echo "usage: tools/check.sh [plain|asan|tsan|bench-smoke|lockdep|lint|all]" >&2
    exit 2
    ;;
esac

echo "all requested configurations passed"
