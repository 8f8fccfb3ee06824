#ifndef AAC_CORE_VCM_H_
#define AAC_CORE_VCM_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "cache/chunk_cache.h"
#include "core/strategy.h"
#include "core/virtual_counts.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Virtual Count Method (paper Section 4).
///
/// Maintains a count per chunk summarizing the cache state; lookup is a
/// single array read (non-computable chunks are rejected in constant time)
/// and plan construction walks exactly one — guaranteed successful — path.
/// In exchange, cache inserts and evictions pay the count-maintenance cost,
/// which the paper shows is small and amortizes well (Table 2).
///
/// Concurrency: the count array plus a mirror of the cache's membership
/// (key -> tuple count, used for plan-cost estimates) live behind one
/// shared_mutex — lookups take it shared, listener callbacks exclusive, so
/// the O(1) read path stays cheap. The mirror exists so that lookups never
/// call back into the cache: listener callbacks run under a cache shard
/// lock, and the global lock order is "cache shard -> strategy" (see
/// DESIGN.md, Concurrency model). A plan reflects the strategy's view at
/// lookup time; the cache may have moved on by execution time, which the
/// executor tolerates by falling back to the backend.
class VcmStrategy : public LookupStrategy, public CacheListener {
 public:
  /// `grid` and `cache` must outlive the strategy. Register this object as a
  /// cache listener (`cache->AddListener(strategy.listener())`) immediately
  /// after construction; counts are initialized from the cache's current
  /// contents.
  VcmStrategy(const ChunkGrid* grid, const ChunkCache* cache);

  std::string name() const override { return "VCM"; }
  bool IsComputable(GroupById gb, ChunkId chunk) override;
  std::unique_ptr<PlanNode> FindPlan(GroupById gb, ChunkId chunk) override;
  CacheListener* listener() override { return this; }
  int64_t SpaceOverheadBytes() const override {
    ReaderMutexLock lock(mutex_);
    return counts_.SpaceBytes();
  }

  // CacheListener (invoked under a cache shard lock; never calls the cache):
  void OnInsert(const CacheKey& key, int64_t tuples) override {
    WriterMutexLock lock(mutex_);
    cached_tuples_[key] = tuples;
    counts_.OnChunkInserted(key.gb, key.chunk);
  }
  void OnUpdate(const CacheKey& key, int64_t tuples) override {
    WriterMutexLock lock(mutex_);
    cached_tuples_[key] = tuples;
  }
  void OnEvict(const CacheKey& key) override {
    WriterMutexLock lock(mutex_);
    cached_tuples_.erase(key);
    counts_.OnChunkEvicted(key.gb, key.chunk);
  }

  /// Read access for tests and experiments. Quiesced use only: returns a
  /// reference to guarded state without a lock pin, which is sound only
  /// while no listener callback can run concurrently (hence the analysis
  /// opt-out).
  const VirtualCounts& counts() const AAC_NO_THREAD_SAFETY_ANALYSIS {
    return counts_;
  }

 private:
  std::unique_ptr<PlanNode> Build(GroupById gb, ChunkId chunk)
      AAC_REQUIRES_SHARED(mutex_);

  const ChunkGrid* grid_;
  const ChunkCache* cache_;
  mutable SharedMutex mutex_{LockRank::kStrategy, "vcm"};
  VirtualCounts counts_ AAC_GUARDED_BY(mutex_);
  /// Mirror of cache membership with tuple counts, maintained by the
  /// listener hooks so Build never reads the cache.
  std::unordered_map<CacheKey, int64_t, CacheKeyHash> cached_tuples_
      AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_CORE_VCM_H_
