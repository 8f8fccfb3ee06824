#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite in the
# plain Release configuration, again with AddressSanitizer + UBSan
# (-DAAC_SANITIZE=ON) and the lock-order gate, and run the
# concurrency-labeled suite under ThreadSanitizer (-DAAC_SANITIZE=thread).
# Run from anywhere; builds land in build/, build-asan/ and build-tsan/
# under the repo root.
#
#   tools/check.sh              # lint + plain + asan + tsan
#   tools/check.sh plain        # plain only
#   tools/check.sh asan         # the full suite under ASan+UBSan and the
#                               # runtime lock-order validator, every binary
#                               # dumping its lock-order graph to one edge
#                               # file ($AAC_LOCKDEP_DUMP), then
#                               # tools/lockdep_report.py cycle-checks the
#                               # union — a cross-run ABBA fails the gate
#                               # even if no single run inverted the order
#   tools/check.sh tsan         # the "concurrency" label under TSan
#   tools/check.sh bench-smoke  # overload_storm --smoke under ASan+UBSan,
#                               # then TSan (it exits nonzero when its own
#                               # assertions fail)
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

# The whole suite under ASan+UBSan and the lock-order gate: every test
# binary appends its lock-order graph to one edge file, then the offline
# cycle checker reads the union. The runtime validator aborts any in-run
# rank violation on the spot (failing ctest); the checker also fails the
# gate on a cycle assembled across *different* binaries' runs.
run_asan() {
  local build_dir="${repo_root}/build-asan"
  local edges="${build_dir}/lockdep_edges.tsv"
  build_tree "${build_dir}" ON
  rm -f "${edges}"
  echo "=== ${build_dir##*/}: ctest (dumping lock-order edges) ==="
  (cd "${build_dir}" &&
    AAC_LOCKDEP_DUMP="${edges}" ctest --output-on-failure -j "${jobs}")
  echo "=== ${build_dir##*/}: cross-run lock-order cycle check ==="
  python3 "${repo_root}/tools/lockdep_report.py" "${edges}"
}

# The "concurrency" label under ThreadSanitizer: every test that starts a
# thread carries it (lint rule R5; by hand where only a large backend call
# starts workers, see tests/CMakeLists.txt), and a single-threaded test
# does not, even where it drives the locked chunk cache. TSan instruments
# everything it touches ~10x slower and has nothing to check in a
# single-threaded test; the plain and asan modes run those.
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

case "${mode}" in
  plain)
    run_suite "${repo_root}/build" OFF
    ;;
  asan)
    run_asan
    ;;
  tsan)
    run_tsan
    ;;
  bench-smoke)
    run_bench_smoke "${repo_root}/build-asan" ON
    run_bench_smoke "${repo_root}/build-tsan" thread
    ;;
  lint)
    "${repo_root}/tools/lint.sh"
    ;;
  all)
    "${repo_root}/tools/lint.sh"
    run_suite "${repo_root}/build" OFF
    run_asan
    run_tsan
    ;;
  *)
    echo "usage: tools/check.sh [plain|asan|tsan|bench-smoke|lint|all]" >&2
    exit 2
    ;;
esac

echo "all requested configurations passed"
