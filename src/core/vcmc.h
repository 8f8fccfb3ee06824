#ifndef AAC_CORE_VCMC_H_
#define AAC_CORE_VCMC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/chunk_cache.h"
#include "chunks/chunk_size_model.h"
#include "core/chunk_indexer.h"
#include "core/strategy.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Cost-based Virtual Count Method (paper Section 5.2).
///
/// Extends VCM with two more arrays: `Cost` — the least cost (tuples
/// aggregated, per the linear model) of computing each chunk from the cache
/// — and `BestParent` — the lattice parent the least-cost path goes through
/// (self for cached chunks). Lookup stays O(1); plan construction follows
/// the best-parent pointers, so the plan returned is the cheapest one. The
/// least cost of any chunk is available instantaneously, which a cost-based
/// optimizer can compare against the backend estimate (Section 5.2).
///
/// The two arrays carry everything VCM's counts do: a chunk is computable
/// exactly when its cost is finite, and resident exactly when its best
/// parent is kSelf. So VCMC keeps no count array and no membership mirror.
///
/// Maintenance: an insert/evict sets the key's best parent to kSelf/kNone,
/// then recomputes its cost and propagates toward aggregated levels while
/// stored costs keep changing (the paper: updates propagate both when a
/// chunk becomes newly computable and when its least cost changes).
///
/// Concurrency: costs and best parents sit behind one shared_mutex
/// (lookups shared, listener callbacks exclusive). Residency is read from
/// the best parents, so the steady-state read and maintenance paths never
/// call back into the cache — listener callbacks run under a cache shard
/// lock and the global lock order is "cache shard -> strategy" (DESIGN.md,
/// Concurrency model). `ComputeCostsFromScratch` is the one exception: it
/// reads the cache directly and is only for construction and
/// quiesced-cache test oracles.
class VcmcStrategy : public LookupStrategy, public CacheListener {
 public:
  /// All pointers must outlive the strategy. Register `listener()` on the
  /// cache right after construction; state is initialized from the cache's
  /// current contents.
  VcmcStrategy(const ChunkGrid* grid, const ChunkCache* cache,
               const ChunkSizeModel* size_model);

  std::string name() const override { return "VCMC"; }
  bool IsComputable(GroupById gb, ChunkId chunk) override;
  std::unique_ptr<PlanNode> FindPlan(GroupById gb, ChunkId chunk) override;
  CacheListener* listener() override { return this; }

  /// Cost (8B) + best-parent (1B) per chunk. Paper Table 3 counts a 1B
  /// count and a 4-byte cost too; we derive computability from the cost
  /// and store doubles.
  int64_t SpaceOverheadBytes() const override;

  // CacheListener (invoked under a cache shard lock; never calls the cache):
  void OnInsert(const CacheKey& key, int64_t tuples) override;
  void OnEvict(const CacheKey& key) override;

  /// Least cost of computing (gb, chunk) from the cache; +infinity if not
  /// computable. Constant time.
  double CostOf(GroupById gb, ChunkId chunk) const;

  /// Index into lattice Parents(gb) of the least-cost parent, kSelf for
  /// cached chunks, kNone if not computable.
  static constexpr int8_t kSelf = -1;
  static constexpr int8_t kNone = -2;
  int8_t BestParentOf(GroupById gb, ChunkId chunk) const;

  /// From-scratch recomputation of (cost, best parent) for every chunk, in
  /// topological order; the incremental maintenance must agree (tested).
  /// One `ChunkCache::ForEach` pass marks the cached chunks; a group-by
  /// that holds none and has no parent with a finite cost is skipped, its
  /// chunks left at kInf / kNone, so over an empty cache the walk touches
  /// no chunk. Reads the cache directly, without taking mutex_ —
  /// construction-time seeding and quiesced-cache test oracles only (hence
  /// the opt-out).
  std::pair<std::vector<double>, std::vector<int8_t>> ComputeCostsFromScratch()
      const AAC_NO_THREAD_SAFETY_ANALYSIS;

 private:
  /// Recomputes (cost, best parent) of one chunk from current state.
  std::pair<double, int8_t> Evaluate(GroupById gb, ChunkId chunk) const
      AAC_REQUIRES(mutex_);

  /// Re-evaluates the chunk and, while costs keep changing, the affected
  /// more-aggregated chunks — processed in topological (descending
  /// level-sum) order so each affected chunk is recomputed exactly once.
  void RecomputeAndPropagate(GroupById gb, ChunkId chunk) AAC_REQUIRES(mutex_);

  std::unique_ptr<PlanNode> Build(GroupById gb, ChunkId chunk)
      AAC_REQUIRES_SHARED(mutex_);

  const ChunkGrid* grid_;
  const ChunkCache* cache_;
  const ChunkSizeModel* size_model_;
  ChunkIndexer indexer_;
  mutable SharedMutex mutex_{LockRank::kStrategy, "vcmc"};
  std::vector<double> costs_ AAC_GUARDED_BY(mutex_);
  /// kSelf exactly for cached chunks: the listener hooks keep it so, and
  /// Evaluate reads residency here instead of from the cache.
  std::vector<int8_t> best_parents_ AAC_GUARDED_BY(mutex_);
  // Immutable after construction (sized/filled once, then read-only).
  std::vector<int16_t> level_sums_;  // per group-by, for topo ordering
  std::vector<int64_t> queued_epoch_
      AAC_GUARDED_BY(mutex_);  // per chunk, dedup for propagation
  int64_t epoch_ AAC_GUARDED_BY(mutex_) = 0;
};

}  // namespace aac

#endif  // AAC_CORE_VCMC_H_
