#!/usr/bin/env python3
"""Repo-invariant linter: the always-on half of the lint wall.

Clang Thread Safety Analysis (tools/lint.sh, CMake -Wthread-safety) is the
deep check, but it only runs where a clang toolchain exists. This linter is
pure Python over the source text, so it runs everywhere the tests run, and
it enforces the invariants that keep the clang gate meaningful:

  R1  Raw lock primitives are banned outside src/util/mutex.h. All of
      src/ must lock through aac::Mutex / aac::SharedMutex and the RAII
      guards — a naked std::mutex or .lock() call is invisible to the
      thread-safety analysis and to the lock-ordering documentation.
  R2  The lock-discipline annotation table: specific guarded fields and
      lock-requiring methods of the concurrent core must carry their
      AAC_GUARDED_BY / AAC_REQUIRES annotations. Deleting an annotation
      (which would silently weaken the clang gate) fails this linter even
      on machines without clang.
  R3  The rollup fold hot path (src/storage/aggregator.*) must not use
      std::unordered_map — the flat SparseFoldTable / FoldArena replaced
      it for a reason (PR "fast rollup kernel"); a regression would be a
      silent 2-3x kernel slowdown.
  R4  Every tests/*_test.cc is registered in tests/CMakeLists.txt via
      aac_add_test (the function silently skips missing files, so an
      unregistered test compiles green and never runs).
  R5  Tests that include <thread> or the threaded core
      (ConcurrentQueryEngine, SingleFlight, ParallelWorkloadRunner, the
      threaded MeasuredChunkSizeModel constructor, the ParallelFor
      helper) must carry the
      "concurrency" ctest label, because tools/check.sh tsan only runs
      that label — an unlabeled concurrent test never sees
      ThreadSanitizer. Including a header of code that starts no thread
      (the chunk cache, the rollup plan, the fold kernel) does not ask
      for the label.
  R6  Raw std::this_thread::sleep_for is banned outside src/util/sleep.h.
      Every wait must go through SleepForNanos or a deadline-bounded
      CondVar wait — a naked sleep deep in a retry or polling loop is
      invisible to the deadline machinery and happily oversleeps a
      query's remaining budget.
  R7  Raw SIMD intrinsics (immintrin.h, _mm* calls, __m128/256/512 types)
      are banned outside src/storage/fold_kernel.{h,cc}. The fold kernel is
      the single CPU-dispatch seam: everywhere else stays portable so the
      scalar fallback always compiles, Aggregator::set_fold_kernel can
      force either path, and bit-identity is proven against one seam
      instead of scattered vector code.
  R8  Every Mutex / SharedMutex member in src/ must be constructed with an
      explicit LockRank (src/util/lockdep.h), and both the LockRank enum
      and the rank declared at each known construction site are pinned
      here (same pattern as the R2 annotation table). Deleting a rank, or
      adding a mutex without declaring its place in the global lock
      order, fails this linter even on machines that never run an
      AAC_LOCKDEP build — the rank table only means something if it is
      total.
  R9  CondVar::WaitForNanos is called only inside src/util/mutex.h. Every
      deadline-bounded wait in src/ goes through CondVar::WaitUntil, the
      one loop that checks readiness, then the context, and wakes at the
      deadline, once a second and every 2 ms under a cancel token — a
      hand-copied loop drifts from it (tests/lockdep_test.cc, which tests
      the primitive itself, is outside src/ and so exempt).
  R10 Fnv1a( is called in src/ only by src/core/query_canon.cc (the
      result-cache key digest), besides src/util/fnv1a.h, which defines
      it. Byte-serial FNV-1a costs several times WordChecksum per byte;
      the chunk codec and the disk tier sum every blob they touch with
      WordChecksum, and this keeps FNV-1a from coming back onto that
      path.
  R11 A std::thread is constructed in src/ only inside
      src/util/parallel_for.h. ParallelFor starts every worker src/ runs
      (the backend's folds, the size model's count phases, the workload
      runner's clients): workers claim tasks from one atomic counter and
      the caller joins them, and a hand-copied start-and-join loop drifts
      from it, as R9 keeps one timed wait.

Exit status 0 with no output (beyond the summary) when clean; 1 with one
line per finding otherwise.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
findings = []


def finding(path, lineno, rule, message):
    rel = path.relative_to(REPO) if path.is_absolute() else path
    findings.append(f"{rel}:{lineno}: [{rule}] {message}")


def source_lines(path):
    """Yields (lineno, line) with // comments stripped (string literals in
    this codebase never contain the banned tokens, so no lexer needed)."""
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        yield lineno, line.split("//", 1)[0]


# --------------------------------------------------------------------------
# R1: raw lock primitives banned outside the wrapper.
# --------------------------------------------------------------------------

RAW_LOCK_TOKENS = [
    (re.compile(r"\bstd::(recursive_|timed_|shared_)?mutex\b"), "std mutex type"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"), "std condition variable"),
    (
        re.compile(r"\bstd::(lock_guard|unique_lock|shared_lock|scoped_lock)\b"),
        "std lock guard",
    ),
    (
        re.compile(r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"),
        "raw lock header include",
    ),
    # Naked lock-manipulation calls. aac::Mutex spells these Lock()/Unlock()
    # (capitalized), so any lowercase member call is a std primitive leaking
    # through. Matched as member calls to avoid false positives on
    # unrelated identifiers.
    (
        re.compile(r"[\w\)\]](\.|->)(lock|unlock|try_lock|lock_shared|"
                   r"unlock_shared|try_lock_shared)\s*\("),
        "naked lock/unlock call",
    ),
]

WRAPPER = REPO / "src" / "util" / "mutex.h"


def check_raw_locks():
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == WRAPPER:
            continue
        for lineno, code in source_lines(path):
            for pattern, what in RAW_LOCK_TOKENS:
                if pattern.search(code):
                    finding(
                        path, lineno, "R1-raw-lock",
                        f"{what} outside src/util/mutex.h — use aac::Mutex / "
                        "aac::SharedMutex and the RAII guards",
                    )


# --------------------------------------------------------------------------
# R2: the annotation table. Each entry pins one annotation the clang
# thread-safety gate depends on: (file, anchor regex, human description).
# The anchor must match the file text (DOTALL, so declarations may wrap).
# --------------------------------------------------------------------------

ANNOTATION_TABLE = [
    # ChunkCache: per-shard state and the eviction helpers that assume the
    # shard lock is held. A ClockRing has no lock of its own, so every
    # store's ring is pinned to the store's mutex.
    ("src/cache/chunk_cache.h",
     r"entries\s+AAC_GUARDED_BY\(mutex\)",
     "Shard::entries must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/chunk_cache.h",
     r"rings\s+AAC_GUARDED_BY\(mutex\)",
     "Shard::rings must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/chunk_cache.h",
     r"EvictFor\([^;]*\)\s*AAC_REQUIRES\(shard\.mutex\)",
     "EvictFor must carry AAC_REQUIRES(shard.mutex)"),
    ("src/cache/chunk_cache.h",
     r"EvictEntry\([^;]*\)\s*AAC_REQUIRES\(shard\.mutex\)",
     "EvictEntry must carry AAC_REQUIRES(shard.mutex)"),
    # Circuit breaker: the half-open single-probe invariant lives in
    # probe_inflight_; TransitionIfCooledDown mutates state under the lock.
    ("src/core/circuit_breaker.h",
     r"probe_inflight_\s+AAC_GUARDED_BY\(mutex_\)",
     "probe_inflight_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/circuit_breaker.h",
     r"TransitionIfCooledDown\(\)\s*AAC_REQUIRES\(mutex_\)",
     "TransitionIfCooledDown must carry AAC_REQUIRES(mutex_)"),
    # SingleFlight (backend fetches and warm-tier decodes): the slot's
    # outcome and value are published under the slot mutex.
    ("src/cache/single_flight.h",
     r"done\s+AAC_GUARDED_BY\(mutex\)",
     "Slot::done must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/single_flight.h",
     r"ok\s+AAC_GUARDED_BY\(mutex\)",
     "Slot::ok must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/single_flight.h",
     r"value\s+AAC_GUARDED_BY\(mutex\)",
     "Slot::value must be AAC_GUARDED_BY(mutex)"),
    ("src/cache/single_flight.h",
     r"inflight_\s+AAC_GUARDED_BY\(mutex_\)",
     "inflight_ must be AAC_GUARDED_BY(mutex_)"),
    # VCM / VCMC strategies: shared_mutex discipline over the count tables.
    ("src/core/vcm.h",
     r"counts_\s+AAC_GUARDED_BY\(mutex_\)",
     "VcmStrategy::counts_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/vcm.h",
     r"Build\([^;]*\)[^;]*AAC_REQUIRES_SHARED\(mutex_\)",
     "VcmStrategy::Build must carry AAC_REQUIRES_SHARED(mutex_)"),
    ("src/core/vcmc.h",
     r"costs_\s+AAC_GUARDED_BY\(mutex_\)",
     "VcmcStrategy::costs_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/vcmc.h",
     r"best_parents_\s+AAC_GUARDED_BY\(mutex_\)",
     "VcmcStrategy::best_parents_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/vcmc.h",
     r"Evaluate\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "VcmcStrategy::Evaluate must carry AAC_REQUIRES(mutex_)"),
    ("src/core/vcmc.h",
     r"PropagateBatch\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "VcmcStrategy::PropagateBatch must carry AAC_REQUIRES(mutex_)"),
    ("src/core/vcmc.h",
     r"log_\s+AAC_GUARDED_BY\(log_mutex_\)",
     "VcmcStrategy::log_ must be AAC_GUARDED_BY(log_mutex_)"),
    # Admission controller: every slot/queue counter mutates under the one
    # admission mutex; the capacity predicate assumes it is held.
    ("src/core/admission.h",
     r"running_\s+AAC_GUARDED_BY\(mutex_\)",
     "AdmissionController::running_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/admission.h",
     r"queued_interactive_\s+AAC_GUARDED_BY\(mutex_\)",
     "AdmissionController::queued_interactive_ must be "
     "AAC_GUARDED_BY(mutex_)"),
    ("src/core/admission.h",
     r"queued_batch_\s+AAC_GUARDED_BY\(mutex_\)",
     "AdmissionController::queued_batch_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/core/admission.h",
     r"HasCapacityLocked\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "AdmissionController::HasCapacityLocked must carry "
     "AAC_REQUIRES(mutex_)"),
    # Result cache: every map/ring/byte-count mutation happens under the one
    # result-cache mutex; the CLOCK sweep assumes it is held.
    ("src/cache/result_cache.h",
     r"entries_\s+AAC_GUARDED_BY\(mutex_\)",
     "ResultCache::entries_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/result_cache.h",
     r"ring_\s+AAC_GUARDED_BY\(mutex_\)",
     "ResultCache::ring_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/result_cache.h",
     r"bytes_used_\s+AAC_GUARDED_BY\(mutex_\)",
     "ResultCache::bytes_used_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/result_cache.h",
     r"stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "ResultCache::stats_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/result_cache.h",
     r"EvictFor\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "ResultCache::EvictFor must carry AAC_REQUIRES(mutex_)"),
    # Warm tier: entries and the CLOCK ring mutate under the one warm
    # mutex (decodes single-flight through SingleFlight, pinned above);
    # EvictFor hands victims to the disk tier only after unlocking, so it
    # must prove the lock is held.
    ("src/cache/warm_tier.h",
     r"entries_\s+AAC_GUARDED_BY\(mutex_\)",
     "WarmTier::entries_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/warm_tier.h",
     r"ring_\s+AAC_GUARDED_BY\(mutex_\)",
     "WarmTier::ring_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/warm_tier.h",
     r"bytes_used_\s+AAC_GUARDED_BY\(mutex_\)",
     "WarmTier::bytes_used_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/warm_tier.h",
     r"EvictFor\([^;]*\)[^;]*AAC_REQUIRES\(mutex_\)",
     "WarmTier::EvictFor must carry AAC_REQUIRES(mutex_)"),
    # Disk tier: the spill-file handle and extent index share one mutex;
    # compaction rewrites the file and so assumes it too.
    ("src/cache/disk_tier.h",
     r"file_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::file_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"entries_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::entries_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"ring_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::ring_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"live_bytes_\s+AAC_GUARDED_BY\(mutex_\)",
     "DiskTier::live_bytes_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/cache/disk_tier.h",
     r"MaybeCompact\(\)\s*AAC_REQUIRES\(mutex_\)",
     "DiskTier::MaybeCompact must carry AAC_REQUIRES(mutex_)"),
    # Backend + fault injector: stats snapshots by value under the lock.
    ("src/backend/backend.h",
     r"stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "BackendServer::stats_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/backend/fault_injector.h",
     r"rng_\s+AAC_GUARDED_BY\(mutex_\)",
     "FaultInjectingBackend::rng_ must be AAC_GUARDED_BY(mutex_)"),
    ("src/backend/fault_injector.h",
     r"stats_\s+AAC_GUARDED_BY\(mutex_\)",
     "FaultInjectingBackend::stats_ must be AAC_GUARDED_BY(mutex_)"),
]


def check_annotation_table():
    for rel, anchor, description in ANNOTATION_TABLE:
        path = REPO / rel
        if not path.exists():
            finding(pathlib.Path(rel), 1, "R2-annotation",
                    f"file missing but listed in annotation table: {description}")
            continue
        text = path.read_text(encoding="utf-8")
        if not re.search(anchor, text, re.DOTALL):
            finding(path, 1, "R2-annotation", description)


# Returning a reference to lock-guarded state hands the caller a racy view;
# the two accessors this bit in real code must stay by-value.
BY_VALUE_TABLE = [
    ("src/backend/backend.h", r"const\s+BackendStats\s*&\s*stats\(\)",
     "BackendServer::stats() must return BackendStats by value, not by "
     "reference (the reference races with concurrent ExecuteChunkQuery)"),
    ("src/backend/fault_injector.h", r"const\s+FaultStats\s*&\s*stats\(\)",
     "FaultInjectingBackend::stats() must return FaultStats by value"),
    ("src/core/circuit_breaker.h", r"const\s+BreakerStats\s*&\s*stats\(\)",
     "CircuitBreaker::stats() must return BreakerStats by value"),
]


def check_by_value_accessors():
    for rel, banned, description in BY_VALUE_TABLE:
        path = REPO / rel
        if path.exists() and re.search(banned, path.read_text(encoding="utf-8")):
            finding(path, 1, "R2-annotation", description)


# --------------------------------------------------------------------------
# R3: fold hot path stays flat.
# --------------------------------------------------------------------------

def check_fold_hot_path():
    for rel in ("src/storage/aggregator.h", "src/storage/aggregator.cc"):
        path = REPO / rel
        if not path.exists():
            continue
        for lineno, code in source_lines(path):
            if re.search(r"\bstd::unordered_map\b", code):
                finding(path, lineno, "R3-fold-hot-path",
                        "std::unordered_map in the rollup fold hot path — "
                        "use SparseFoldTable / FoldArena")


# --------------------------------------------------------------------------
# R4 + R5: test registration and label audits.
# --------------------------------------------------------------------------

CONCURRENCY_MARKERS = re.compile(
    r"#\s*include\s*(<thread>"
    r"|\"core/concurrent_engine\.h\""
    r"|\"cache/single_flight\.h\""
    r"|\"storage/measured_size_model\.h\""
    r"|\"util/parallel_for\.h\""
    r"|\"workload/parallel_runner\.h\")"
)


def check_test_registry():
    cmake = REPO / "tests" / "CMakeLists.txt"
    text = cmake.read_text(encoding="utf-8")
    # name -> label list, from aac_add_test(name [label]) calls.
    registered = {
        m.group(1): m.group(2).split()
        for m in re.finditer(r"aac_add_test\(\s*(\w+)([^)]*)\)", text)
    }
    for name in registered:
        if not (REPO / "tests" / f"{name}.cc").exists():
            finding(cmake, 1, "R4-test-registry",
                    f"aac_add_test({name}) has no tests/{name}.cc — the "
                    "function silently skips it, so nothing runs")
    for path in sorted((REPO / "tests").glob("*_test.cc")):
        name = path.stem
        if name not in registered:
            finding(cmake, 1, "R4-test-registry",
                    f"tests/{name}.cc is not registered via aac_add_test — "
                    "it will never build or run")
            continue
        text = path.read_text(encoding="utf-8")
        if CONCURRENCY_MARKERS.search(text):
            if "concurrency" not in registered[name]:
                finding(path, 1, "R5-concurrency-label",
                        f"{name} exercises the concurrent core but is not "
                        "labeled \"concurrency\" — tools/check.sh tsan will "
                        "never run it under ThreadSanitizer")


# --------------------------------------------------------------------------
# R6: raw sleep_for banned outside the clock-aware helper.
# --------------------------------------------------------------------------

SLEEP_WRAPPER = REPO / "src" / "util" / "sleep.h"


def check_raw_sleeps():
    roots = [REPO / d for d in ("src", "bench", "tests", "tools")]
    for root in roots:
        if not root.exists():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc") or path == SLEEP_WRAPPER:
                continue
            for lineno, code in source_lines(path):
                if "sleep_for" in code or re.search(r"\busleep\s*\(", code):
                    finding(
                        path, lineno, "R6-raw-sleep",
                        "raw sleep outside src/util/sleep.h — use "
                        "SleepForNanos or a bounded CondVar wait",
                    )


# --------------------------------------------------------------------------
# R7: SIMD intrinsics confined to the fold-kernel seam.
# --------------------------------------------------------------------------

INTRINSIC_TOKENS = re.compile(
    r"#\s*include\s*<(?:imm|avx|x86|e?mm)intrin\.h>"
    r"|\b_mm\d*_\w+\s*\("
    r"|\b__m(?:128|256|512)[id]?\b"
    r"|\b__builtin_ia32_\w+"
)

KERNEL_SEAM = ("src/storage/fold_kernel.h", "src/storage/fold_kernel.cc")


def check_intrinsics_confined():
    roots = [REPO / d for d in ("src", "bench", "tests", "examples")]
    for root in roots:
        if not root.exists():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            if str(path.relative_to(REPO)) in KERNEL_SEAM:
                continue
            for lineno, code in source_lines(path):
                if INTRINSIC_TOKENS.search(code):
                    finding(
                        path, lineno, "R7-intrinsics",
                        "raw SIMD intrinsics outside src/storage/"
                        "fold_kernel.* — route vector code through the "
                        "fold-kernel seam (FoldKernelKind dispatch)",
                    )


# --------------------------------------------------------------------------
# R8: the lock-rank table. The runtime validator (src/util/lockdep.cc) can
# only check orders that were *declared*; this rule keeps the declarations
# total and pinned. Three layers:
#   (a) the LockRank enum in src/util/lockdep.h must contain exactly the
#       pinned (name, value) pairs below — renumbering or deleting a rank
#       invalidates every recorded edge dump and the DESIGN.md §10 table —
#       and no live rank may take a retired rank's value, so a deleted
#       rank's number is never reused;
#   (b) each known mutex member must be constructed with its pinned rank;
#   (c) any Mutex/SharedMutex member declaration in src/ without a
#       LockRank::... initializer is an undeclared lock — invisible to the
#       ordering model the way an std::mutex is invisible to R1.
# --------------------------------------------------------------------------

LOCK_RANK_ENUM = [
    ("kAdmission", 100),
    ("kSingleFlightMap", 300),
    ("kSingleFlightSlot", 400),
    ("kCacheShard", 500),
    ("kResultCache", 600),
    ("kWarmTier", 700),
    ("kDiskTier", 800),
    ("kStrategy", 900),
    ("kStrategyLog", 950),
    ("kCircuitBreaker", 1200),
    ("kFaultInjector", 1300),
    ("kBackend", 1400),
]

# Values of deleted ranks. Append-only: a value here stays retired for good.
RETIRED_LOCK_RANKS = [
    ("kEnginePool", 200),  # ConcurrentQueryEngine's engine pool, deleted
    ("kMorselPool", 1600),  # the morsel helper pool, deleted
    ("kRollupPlanCache", 1500),  # the rollup plan caches, deleted
]

LOCK_RANK_TABLE = [
    ("src/core/admission.h", r"mutex_\{LockRank::kAdmission,",
     "AdmissionController's mutex must declare LockRank::kAdmission"),
    ("src/cache/single_flight.h", r"mutex\{LockRank::kSingleFlightSlot,",
     "SingleFlight::Slot::mutex must declare LockRank::kSingleFlightSlot"),
    ("src/cache/single_flight.h", r"mutex_\{LockRank::kSingleFlightMap,",
     "SingleFlight::mutex_ must declare LockRank::kSingleFlightMap"),
    ("src/cache/chunk_cache.h", r"mutex\{LockRank::kCacheShard,",
     "ChunkCache::Shard::mutex must declare LockRank::kCacheShard"),
    ("src/cache/result_cache.h", r"mutex_\{LockRank::kResultCache,",
     "ResultCache::mutex_ must declare LockRank::kResultCache"),
    ("src/cache/warm_tier.h", r"mutex_\{LockRank::kWarmTier,",
     "WarmTier::mutex_ must declare LockRank::kWarmTier"),
    ("src/cache/disk_tier.h", r"mutex_\{LockRank::kDiskTier,",
     "DiskTier::mutex_ must declare LockRank::kDiskTier"),
    ("src/core/vcm.h", r"mutex_\{LockRank::kStrategy,",
     "VcmStrategy::mutex_ must declare LockRank::kStrategy"),
    ("src/core/vcmc.h", r"mutex_\{LockRank::kStrategy,",
     "VcmcStrategy::mutex_ must declare LockRank::kStrategy"),
    ("src/core/vcmc.h", r"log_mutex_\{LockRank::kStrategyLog,",
     "VcmcStrategy::log_mutex_ must declare LockRank::kStrategyLog (a "
     "listener appends under a cache shard lock, and a drain takes the log "
     "under the strategy's writer lock)"),
    ("src/core/circuit_breaker.h", r"mutex_\{LockRank::kCircuitBreaker,",
     "CircuitBreaker::mutex_ must declare LockRank::kCircuitBreaker"),
    ("src/backend/fault_injector.h", r"mutex_\{LockRank::kFaultInjector,",
     "FaultInjectingBackend::mutex_ must declare LockRank::kFaultInjector "
     "(it holds its mutex across the inner backend call, so it must rank "
     "before kBackend)"),
    ("src/backend/backend.h", r"mutex_\{LockRank::kBackend,",
     "BackendServer::mutex_ must declare LockRank::kBackend"),
]

LOCKDEP_HEADER = REPO / "src" / "util" / "lockdep.h"

# A Mutex/SharedMutex member declaration: the type, a name, then either an
# initializer or a bare terminator. References and the guard classes don't
# match (no "&"), and MutexLock/... don't match (\b before the type).
MUTEX_DECL = re.compile(r"\b(?:mutable\s+)?(Mutex|SharedMutex)\s+(\w+)\s*([;{=])")


def check_lock_ranks():
    # (a) the pinned enum.
    if not LOCKDEP_HEADER.exists():
        finding(LOCKDEP_HEADER, 1, "R8-lock-rank",
                "src/util/lockdep.h missing — the LockRank table is gone")
    else:
        text = LOCKDEP_HEADER.read_text(encoding="utf-8")
        for name, value in LOCK_RANK_ENUM:
            if not re.search(rf"\b{name}\s*=\s*{value}\b", text):
                finding(LOCKDEP_HEADER, 1, "R8-lock-rank",
                        f"LockRank::{name} = {value} missing from the pinned "
                        "enum — ranks are append-only; renumbering breaks "
                        "recorded edge dumps and DESIGN.md §10")
        for name, value in RETIRED_LOCK_RANKS:
            m = re.search(rf"\b(k\w+)\s*=\s*{value}\b", text)
            if m:
                finding(LOCKDEP_HEADER, text.count("\n", 0, m.start()) + 1,
                        "R8-lock-rank",
                        f"LockRank::{m.group(1)} = {value} reuses the value "
                        f"of the retired rank {name} — a deleted rank's "
                        "value is never reused; pick a new one")

    # (b) each known construction site declares its pinned rank.
    for rel, anchor, description in LOCK_RANK_TABLE:
        path = REPO / rel
        if not path.exists():
            finding(pathlib.Path(rel), 1, "R8-lock-rank",
                    f"file missing but listed in rank table: {description}")
            continue
        if not re.search(anchor, path.read_text(encoding="utf-8"), re.DOTALL):
            finding(path, 1, "R8-lock-rank", description)

    # (c) no unranked mutex members anywhere in src/.
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == WRAPPER:
            continue
        stripped = "\n".join(code for _, code in source_lines(path))
        for m in MUTEX_DECL.finditer(stripped):
            if m.group(3) == "{" and re.match(
                    r"\s*LockRank::k\w+", stripped[m.end():]):
                continue
            lineno = stripped.count("\n", 0, m.start()) + 1
            finding(path, lineno, "R8-lock-rank",
                    f"{m.group(1)} member '{m.group(2)}' constructed without "
                    "an explicit LockRank — every lock must declare its "
                    "place in the global order (src/util/lockdep.h)")


# --------------------------------------------------------------------------
# R9: one deadline-bounded wait. CondVar::WaitUntil owns the timed-wait
# loop; nothing else in src/ calls the raw timed wait under it.
# --------------------------------------------------------------------------

TIMED_WAIT = re.compile(r"\bWaitForNanos\s*\(")


def check_one_wait():
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == WRAPPER:
            continue
        for lineno, code in source_lines(path):
            if TIMED_WAIT.search(code):
                finding(
                    path, lineno, "R9-one-wait",
                    "CondVar::WaitForNanos outside src/util/mutex.h — wait "
                    "through CondVar::WaitUntil(mu, ctx, ready)",
                )


# --------------------------------------------------------------------------
# R10: FNV-1a stays off the tier path. Its one caller hashes the
# result-cache key; blobs are summed with WordChecksum.
# --------------------------------------------------------------------------

FNV_CALL = re.compile(r"\bFnv1a\s*\(")
FNV_HEADER = REPO / "src" / "util" / "fnv1a.h"
FNV_CALLERS = {
    REPO / "src" / "core" / "query_canon.cc",
}


def check_fnv_callers():
    for path in sorted((REPO / "src").rglob("*")):
        if (path.suffix not in (".h", ".cc") or path == FNV_HEADER
                or path in FNV_CALLERS):
            continue
        for lineno, code in source_lines(path):
            if FNV_CALL.search(code):
                finding(
                    path, lineno, "R10-fnv-callers",
                    "Fnv1a called outside src/core/query_canon.cc — sum "
                    "tier blobs with WordChecksum "
                    "(src/util/word_checksum.h)",
                )


# --------------------------------------------------------------------------
# R11: one thread starter. ParallelFor (src/util/parallel_for.h) starts
# every thread in src/; std::thread::hardware_concurrency and
# std::this_thread start none and stay allowed.
# --------------------------------------------------------------------------

THREAD_TYPE = re.compile(r"\bstd::j?thread\b(?!::)")
THREAD_HELPER = REPO / "src" / "util" / "parallel_for.h"


def check_one_thread_starter():
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == THREAD_HELPER:
            continue
        for lineno, code in source_lines(path):
            if THREAD_TYPE.search(code):
                finding(
                    path, lineno, "R11-one-thread-starter",
                    "std::thread outside src/util/parallel_for.h — start "
                    "workers through ParallelFor(workers, tasks, fn)",
                )


def main():
    check_raw_locks()
    check_annotation_table()
    check_by_value_accessors()
    check_fold_hot_path()
    check_test_registry()
    check_raw_sleeps()
    check_intrinsics_confined()
    check_lock_ranks()
    check_one_wait()
    check_fnv_callers()
    check_one_thread_starter()
    if findings:
        for line in findings:
            print(line)
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
