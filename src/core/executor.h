#ifndef AAC_CORE_EXECUTOR_H_
#define AAC_CORE_EXECUTOR_H_

#include <vector>

#include "cache/chunk_cache.h"
#include "core/plan.h"
#include "storage/aggregator.h"

namespace aac {

/// Result of executing one aggregation plan.
struct ExecutionResult {
  /// False when a planned cache leaf had vanished by execution time (a
  /// concurrent eviction between lookup and execution): `data` is empty and
  /// the caller should fall back to the backend for the chunk. Plans are
  /// advisory under concurrency, not guarantees.
  bool ok = true;

  /// True when the plan was abandoned at a cooperative-cancellation
  /// checkpoint (deadline expired or CancelToken fired mid-fold). Also
  /// implies !ok, but the caller must NOT fall back to the backend — the
  /// query is being torn down, not rerouted. Pins are released either way.
  bool cancelled = false;

  ChunkData data;

  /// Source tuples folded by all aggregation steps of the plan — the actual
  /// (not estimated) linear aggregation cost.
  int64_t tuples_aggregated = 0;

  /// Wall-clock nanoseconds the plan spent inside the rollup kernel (plan
  /// lookup + fold + emit), a subset of the query's aggregation phase.
  int64_t fold_ns = 0;

  /// Peak morsel lanes any single fold of the plan ran on (1 = every fold
  /// was serial; > 1 means the kernel borrowed pool helpers).
  int fold_lanes = 1;

  /// The distinct cached chunks the plan read; the two-level policy boosts
  /// this group's clock values (paper Section 6.3, rule 2).
  std::vector<CacheKey> cached_inputs;
};

/// Executes aggregation plans against the cache.
///
/// Cached leaves are read in place, pinned for the duration of the
/// execution (GetPinned), so a concurrent eviction cannot invalidate them;
/// inner nodes aggregate bottom-up through the Aggregator. All pins are
/// released before Execute returns, on success and on failure alike.
///
/// The executor is not thread-safe (its Aggregator accumulates work
/// counters); QueryEngine builds one per query.
class PlanExecutor {
 public:
  /// All pointers must outlive the executor.
  PlanExecutor(const ChunkGrid* grid, ChunkCache* cache,
               Aggregator* aggregator);

  /// Materializes the plan's root chunk. Check `ExecutionResult::ok`.
  ExecutionResult Execute(const PlanNode& plan);

 private:
  ChunkData ExecuteNode(const PlanNode& node, ExecutionResult* result,
                        std::vector<CacheKey>* pinned, bool* ok);

  const ChunkGrid* grid_;
  ChunkCache* cache_;
  Aggregator* aggregator_;
};

}  // namespace aac

#endif  // AAC_CORE_EXECUTOR_H_
