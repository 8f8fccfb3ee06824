#ifndef AAC_UTIL_LOCKDEP_H_
#define AAC_UTIL_LOCKDEP_H_

#include <cstdint>

#if defined(AAC_LOCKDEP)
#include <string>
#include <vector>
#endif

// Lockdep: declared lock ranks and (in AAC_LOCKDEP builds) runtime
// lock-order validation, Linux-lockdep-style.
//
// Every aac::Mutex / aac::SharedMutex is constructed with a LockRank from
// the pinned table below — the single source of truth for the global lock
// order (DESIGN.md §10; tools/lint_invariants.py R8 pins the table and
// requires every mutex member to name a rank). A thread may only
// block-acquire locks of strictly increasing rank; two locks of the same
// rank (e.g. cache shards) may nest only in increasing address order.
//
// In AAC_LOCKDEP builds (cmake -DAAC_LOCKDEP=ON) every acquisition is
// validated against a thread-local held-lock stack and aborts with both
// lock names and both acquisition sites on a violation, and every
// blocking acquisition under held locks feeds a process-global lock-order
// graph keyed by lock *name*. The graph can be dumped (explicitly, or at
// exit to $AAC_LOCKDEP_DUMP, appended so concurrent test binaries share
// one file) and tools/lockdep_report.py runs cycle detection over the
// union of many runs' dumps — so a potential ABBA deadlock is reported
// even when no single run ever inverted the order.
//
// In regular builds all of this compiles out: the constructors discard
// rank and name, the wrappers stay inline forwards, and behavior is
// bit-identical to the pre-lockdep tree.

namespace aac {

/// The global lock-acquisition order. Lower rank = acquired earlier
/// (outer); a thread holding rank R may only block-acquire ranks > R.
/// Same-rank acquisitions must be in increasing address order.
///
/// The table is a linear extension of the nesting the code actually
/// performs (DESIGN.md §10):
///   admission → single-flight map → single-flight slot →
///   cache shard → {result cache, warm → disk, strategy} →
///   breaker → fault injector → backend → rollup plan cache
/// The fold-time capability (rollup plan cache) ranks LAST:
/// BackendServer::ExecuteChunkQuery aggregates under its own mutex (one
/// mutex = the simulated remote server's serial execution), and
/// FaultInjectingBackend holds its mutex across that inner call, so every
/// fold-time lock is reachable under both and must rank above them.
/// Gaps between values leave room to slot a new capability between two
/// existing ones without renumbering (renumbering fails lint R8). A deleted
/// rank's value stays retired and is never reused: 200 was the engine
/// pool's, 1600 the morsel pool's.
enum class LockRank : uint16_t {
  kAdmission = 100,        // admission gate: outermost, around engine work
  kSingleFlightMap = 300,  // SingleFlight in-flight map
  kSingleFlightSlot = 400, // SingleFlight::Slot publication state
  kCacheShard = 500,       // ChunkCache::Shard (same-rank: address order;
                           // shards are never nested in practice)
  kResultCache = 600,      // semantic result cache (a shard-lock listener)
  kWarmTier = 700,         // compressed warm tier (hot shard → warm)
  kDiskTier = 800,         // disk spill tier (warm → disk)
  kStrategy = 900,         // VCM/VCMC tables (shard-lock listeners)
  kCircuitBreaker = 1200,  // breaker state (consulted under admission)
  kFaultInjector = 1300,   // fault schedule; held across the inner backend
  kBackend = 1400,         // backend: folds chunk aggregates under its mutex
  kRollupPlanCache = 1500, // shared rollup plan cache (fold-time)
};

/// Human-readable rank name for violation reports and edge dumps.
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kAdmission: return "kAdmission";
    case LockRank::kSingleFlightMap: return "kSingleFlightMap";
    case LockRank::kSingleFlightSlot: return "kSingleFlightSlot";
    case LockRank::kCacheShard: return "kCacheShard";
    case LockRank::kResultCache: return "kResultCache";
    case LockRank::kWarmTier: return "kWarmTier";
    case LockRank::kDiskTier: return "kDiskTier";
    case LockRank::kStrategy: return "kStrategy";
    case LockRank::kRollupPlanCache: return "kRollupPlanCache";
    case LockRank::kCircuitBreaker: return "kCircuitBreaker";
    case LockRank::kFaultInjector: return "kFaultInjector";
    case LockRank::kBackend: return "kBackend";
  }
  return "?";
}

namespace lockdep {

#if defined(AAC_LOCKDEP)

/// Validates an acquisition of `lock` against this thread's held stack and
/// pushes it. Blocking acquisitions (try_acquired == false) abort the
/// process with both lock names and both acquisition sites on a rank
/// violation (or a recursive/equal-address same-rank acquisition), and
/// record a name-graph edge from every held lock to the new one.
/// TryLock acquisitions are exempt from validation and edge recording —
/// a try-acquire cannot block, so it can never be the *waiting* side of a
/// deadlock cycle — but they are still pushed, so later blocking
/// acquisitions validate against them.
void OnAcquire(const void* lock, LockRank rank, const char* name,
               bool try_acquired, const char* file, int line);

/// Pops `lock` from this thread's held stack (any position — manual
/// Lock/Unlock pairs need not be LIFO). Aborts if the lock is not held:
/// that means an acquisition bypassed the wrappers.
void OnRelease(const void* lock);

/// CondVar::Wait validation: the waited-on mutex must be this thread's
/// most recently acquired held lock. The wait releases and reacquires the
/// mutex internally (bypassing the wrappers, so the held stack is
/// intentionally untouched and stays consistent with the caller's view) —
/// but if any lock was acquired *after* the mutex, the reacquire would be
/// an order inversion against it, so that shape aborts here.
void OnCondVarWait(const void* lock);

/// Depth of this thread's held-lock stack.
int HeldCount();

/// One edge of the global lock-order graph, keyed by lock name.
struct EdgeSnapshot {
  std::string from;
  std::string to;
  uint16_t from_rank;
  uint16_t to_rank;
  uint64_t count;         // recording events (deduped per thread)
  std::string from_site;  // first-seen acquisition sites, "file:line"
  std::string to_site;
};

/// Copies the current edge graph (tests and tools).
std::vector<EdgeSnapshot> SnapshotEdges();

/// True if an edge from→to has been recorded.
bool HasEdge(const char* from, const char* to);

/// Appends the edge graph to `path` in the TSV format that
/// tools/lockdep_report.py reads. Also runs automatically at process exit
/// when $AAC_LOCKDEP_DUMP names a file.
void DumpEdges(const std::string& path);

/// Clears the global edge graph (tests only; held stacks are per-thread
/// and must already be empty).
void ResetGraphForTest();

#endif  // defined(AAC_LOCKDEP)

}  // namespace lockdep
}  // namespace aac

#endif  // AAC_UTIL_LOCKDEP_H_
