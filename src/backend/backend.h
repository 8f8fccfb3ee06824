#ifndef AAC_BACKEND_BACKEND_H_
#define AAC_BACKEND_BACKEND_H_

#include <cstdint>
#include <vector>

#include "backend/cost_model.h"
#include "chunks/chunk_grid.h"
#include "storage/chunk_data.h"
#include "storage/fact_table.h"
#include "storage/rollup_plan.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/sim_clock.h"
#include "util/thread_annotations.h"

namespace aac {

/// Outcome of one backend round trip. The backend is remote and shared; a
/// production middle tier must treat every call as fallible (no exceptions,
/// per project style — errors travel in the result).
enum class BackendStatus {
  kOk,              // all requested chunks returned
  kPartial,         // a (correct) subset of the requested chunks returned
  kTransientError,  // nothing returned; retrying may succeed
  kTimeout,         // nothing returned; the full timeout latency was paid
};

/// Status-carrying result of `Backend::ExecuteChunkQuery`. On kOk, `chunks`
/// holds one entry per requested chunk; on kPartial, a subset (each entry
/// still exact for its chunk); on error statuses it is empty.
struct BackendResult {
  BackendStatus status = BackendStatus::kOk;
  std::vector<ChunkData> chunks;

  /// Simulated nanoseconds this call charged into the SimClock (fetch
  /// latency, injected fault delays, ...). Callers attribute backend time
  /// per query from this, NOT from SimClock deltas — under concurrency a
  /// clock delta spans every thread's charges and would double-count.
  int64_t charged_nanos = 0;

  /// True when the call produced usable data (kOk or kPartial).
  bool ok() const {
    return status == BackendStatus::kOk || status == BackendStatus::kPartial;
  }
  /// True when the call produced nothing and may be retried.
  bool failed() const { return !ok(); }
};

/// Abstract backend database interface.
///
/// `BackendServer` is the real (simulated-latency) implementation;
/// `FaultInjectingBackend` decorates any Backend with deterministic fault
/// injection. The engine, preloader and experiment harnesses program
/// against this interface so the fault path is a pure wiring decision.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Latency model the cost-based bypass and benefit metric consult.
  virtual const BackendCostModel& cost_model() const = 0;

  /// Computes the requested chunks of group-by `gb`. Charges simulated
  /// latency for whatever work (including failed work) was performed.
  virtual BackendResult ExecuteChunkQuery(GroupById gb,
                                          const std::vector<ChunkId>& chunks) = 0;

  /// Simulated latency the backend would charge for computing `chunks` of
  /// `gb`, without executing. Used by cost-based admission decisions and by
  /// the benefit metric of the replacement policies.
  virtual int64_t EstimateQueryCostNanos(
      GroupById gb, const std::vector<ChunkId>& chunks) const = 0;

  /// Marginal latency of adding one more chunk to an existing backend
  /// query (scan + seeks, no per-query fixed overhead). The cost-based
  /// bypass optimizer (paper Section 5.2) compares this against the
  /// in-cache aggregation estimate.
  virtual int64_t EstimateMarginalChunkCostNanos(GroupById gb,
                                                 ChunkId chunk) const = 0;
};

/// Running totals of backend activity, for experiment reporting.
struct BackendStats {
  int64_t queries = 0;
  int64_t chunks_returned = 0;
  int64_t base_chunks_scanned = 0;
  int64_t tuples_scanned = 0;
};

/// Simulated backend database server.
///
/// Stands in for the paper's remote commercial RDBMS: it genuinely computes
/// chunk results by scanning the chunked fact table (so answers are real and
/// verifiable), and charges the latency a remote SQL round trip would have
/// cost into the supplied SimClock. One `ExecuteChunkQuery` call corresponds
/// to the paper's single SQL statement for all missing chunks of a query.
/// Always succeeds; wrap in a FaultInjectingBackend to exercise failures.
///
/// Thread-safe: calls to ExecuteChunkQuery run one at a time (the stats
/// and the fold arenas mutate per call), modeling the one shared RDBMS
/// connection of the paper's middle tier. Within a call, each requested
/// chunk is folded on its own; a call over more than one chunk and at
/// least kParallelFoldTuples base tuples spreads its chunks over up to
/// HardwareWorkers() workers (ParallelFor; the calling thread is one) and
/// joins them before it returns, still holding the server's mutex. Each
/// worker folds into its own server-owned arena, never a client thread's,
/// and the reply keeps request order. Estimates are read-only and
/// lock-free.
class BackendServer : public Backend {
 public:
  /// A call folds on more than the calling thread only when it reads at
  /// least this many base tuples. Each extra worker costs a thread start
  /// (~20 us, DESIGN.md §8), about as long as folding a thousand base
  /// tuples, so a smaller call would spend most of what it saves on the
  /// starts.
  static constexpr int64_t kParallelFoldTuples = 16'384;

  /// `table` and `clock` must outlive the server. The clock may be null if
  /// simulated latency tracking is not needed.
  BackendServer(const FactTable* table, const BackendCostModel& model,
                SimClock* clock);

  const BackendCostModel& cost_model() const override { return model_; }

  /// Snapshot of the activity counters (by value: a reference would race
  /// with concurrent ExecuteChunkQuery calls updating them).
  BackendStats stats() const {
    MutexLock lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(mutex_);
    stats_ = BackendStats();
  }

  /// Computes the requested chunks of group-by `gb` from the fact table.
  /// Charges one query's worth of simulated latency. Always kOk.
  BackendResult ExecuteChunkQuery(GroupById gb,
                                  const std::vector<ChunkId>& chunks) override;

  int64_t EstimateQueryCostNanos(
      GroupById gb, const std::vector<ChunkId>& chunks) const override;

  int64_t EstimateMarginalChunkCostNanos(GroupById gb,
                                         ChunkId chunk) const override;

 private:
  const FactTable* table_;
  BackendCostModel model_;
  SimClock* clock_;
  mutable Mutex mutex_{LockRank::kBackend, "backend"};
  // One per worker: a call's worker w folds into arenas_[w], and the call
  // trims each arena it used to FoldArena::kTrimBytes before it returns.
  std::vector<FoldArena> arenas_ AAC_GUARDED_BY(mutex_);
  BackendStats stats_ AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_BACKEND_BACKEND_H_
