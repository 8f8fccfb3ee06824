#ifndef AAC_CORE_VCMC_H_
#define AAC_CORE_VCMC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/chunk_cache.h"
#include "chunks/chunk_links.h"
#include "chunks/chunk_size_model.h"
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
/// Maintenance is batched. An insert/evict only appends (key, resident) to
/// an event log. A drain applies the logged membership changes in log
/// order, then runs one propagation seeded with every changed key: chunks
/// are re-evaluated rank by rank (level sum), most detailed first, and a
/// chunk whose cost changed queues its lattice children (the paper: updates
/// propagate both when a chunk becomes newly computable and when its least
/// cost changes). Each affected chunk is evaluated once per drain. Costs
/// and best parents depend only on which chunks are resident, so a drain
/// reaches the state that propagating each event on its own would. Every
/// read drains first, `Flush` drains, and so does the listener once the
/// log holds `kMaxPendingEvents`. The parent and child chunks a
/// re-evaluation follows come from `ChunkLinks`, built once.
///
/// Concurrency: costs and best parents sit behind one shared_mutex (reads
/// shared, drains exclusive); the log has a mutex of its own, ranked above
/// it. Listener callbacks run under a cache shard lock (global lock order
/// "cache shard -> strategy -> strategy log", DESIGN.md §10) and take only
/// the log mutex, unless the log is full. Residency is read from the best
/// parents, so the read and maintenance paths never call back into the
/// cache. `ComputeCostsFromScratch` is the one exception: it reads the cache
/// directly and is only for construction and quiesced-cache test oracles.
/// Reads are const although they may drain: the state they observe is the
/// arrays after every logged event, which a drain only catches up with.
class VcmcStrategy : public LookupStrategy, public CacheListener {
 public:
  /// A listener that finds this many events in the log drains it.
  static constexpr size_t kMaxPendingEvents = 1024;

  /// All pointers must outlive the strategy. Register `listener()` on the
  /// cache right after construction; state is initialized from the cache's
  /// current contents.
  VcmcStrategy(const ChunkGrid* grid, const ChunkCache* cache,
               const ChunkSizeModel* size_model);

  std::string name() const override { return "VCMC"; }
  bool IsComputable(GroupById gb, ChunkId chunk) override;
  std::unique_ptr<PlanNode> FindPlan(GroupById gb, ChunkId chunk) override;
  void Flush() override { DrainLog(); }
  CacheListener* listener() override { return this; }

  /// Cost (8B) + best-parent (1B) per chunk. Paper Table 3 counts a 1B
  /// count and a 4-byte cost too; we derive computability from the cost
  /// and store doubles. The chunk links are counted apart
  /// (`LinkTableBytes`): the paper's VCMC recomputes them.
  int64_t SpaceOverheadBytes() const override;

  /// Bytes of the chunk link tables maintenance reads.
  int64_t LinkTableBytes() const { return links_.bytes(); }

  // CacheListener (invoked under a cache shard lock; never calls the cache):
  void OnInsert(const CacheKey& key, int64_t tuples) override;
  void OnEvict(const CacheKey& key) override;

  /// Events logged and not yet applied.
  size_t PendingEvents() const;

  /// Least cost of computing (gb, chunk) from the cache; +infinity if not
  /// computable. Constant time once the log is drained.
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
  /// no chunk. It walks parent chunks through the grid, not `ChunkLinks`,
  /// so it stays an independent oracle. Reads the cache directly, without
  /// taking mutex_ — construction-time seeding and quiesced-cache test
  /// oracles only (hence the opt-out).
  std::pair<std::vector<double>, std::vector<int8_t>> ComputeCostsFromScratch()
      const AAC_NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct Event {
    CacheKey key;
    bool resident;
  };

  void Append(const CacheKey& key, bool resident) AAC_EXCLUDES(mutex_);

  /// Applies the log, if it holds anything, under the writer lock.
  void DrainLog() const AAC_EXCLUDES(mutex_);

  /// Takes the whole log, applies its membership changes in log order and
  /// runs one propagation seeded with every changed key.
  void PropagateBatch() const AAC_REQUIRES(mutex_);

  /// Queues (gb, chunk) for re-evaluation in this propagation, once.
  void Enqueue(GroupById gb, ChunkId chunk) const AAC_REQUIRES(mutex_);

  /// Recomputes (cost, best parent) of one chunk from current state.
  std::pair<double, int8_t> Evaluate(GroupById gb, ChunkId chunk) const
      AAC_REQUIRES(mutex_);

  std::unique_ptr<PlanNode> Build(GroupById gb, ChunkId chunk)
      AAC_REQUIRES_SHARED(mutex_);

  const ChunkGrid* grid_;
  const ChunkCache* cache_;
  const ChunkSizeModel* size_model_;
  const ChunkLinks links_;

  mutable SharedMutex mutex_{LockRank::kStrategy, "vcmc"};
  mutable std::vector<double> costs_ AAC_GUARDED_BY(mutex_);
  /// kSelf exactly for cached chunks, as of the last drain; Evaluate reads
  /// residency here instead of from the cache.
  mutable std::vector<int8_t> best_parents_ AAC_GUARDED_BY(mutex_);
  // Propagation scratch, reused by every drain: the taken log, chunks queued
  // per rank (Lattice::LevelSum), and per chunk the drain that last queued
  // it.
  mutable std::vector<Event> batch_ AAC_GUARDED_BY(mutex_);
  mutable std::vector<std::vector<CacheKey>> queue_ AAC_GUARDED_BY(mutex_);
  mutable std::vector<int64_t> queued_epoch_ AAC_GUARDED_BY(mutex_);
  mutable int64_t epoch_ AAC_GUARDED_BY(mutex_) = 0;

  mutable Mutex log_mutex_{LockRank::kStrategyLog, "vcmc_log"};
  mutable std::vector<Event> log_ AAC_GUARDED_BY(log_mutex_);
};

}  // namespace aac

#endif  // AAC_CORE_VCMC_H_
