#ifndef AAC_CORE_STRATEGY_H_
#define AAC_CORE_STRATEGY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/cache_entry.h"
#include "chunks/chunk_grid.h"
#include "core/plan.h"

namespace aac {

/// Counters describing lookup work, reset per experiment.
///
/// The fields are relaxed atomics so concurrent lookups can bump them
/// without a data race; copy operations snapshot the values, so existing
/// value-style uses (`LookupMetrics m = strategy.metrics()`, aggregation
/// arithmetic) keep working unchanged.
struct LookupMetrics {
  /// Recursive search/plan-construction calls (the paper's lookup
  /// complexity driver).
  std::atomic<int64_t> nodes_visited{0};

  /// Searches that hit a configured exploration budget (ESMC only).
  std::atomic<int64_t> budget_exhausted{0};

  LookupMetrics() = default;
  LookupMetrics(const LookupMetrics& other)
      : nodes_visited(other.nodes_visited.load(std::memory_order_relaxed)),
        budget_exhausted(
            other.budget_exhausted.load(std::memory_order_relaxed)) {}
  LookupMetrics& operator=(const LookupMetrics& other) {
    nodes_visited.store(other.nodes_visited.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    budget_exhausted.store(
        other.budget_exhausted.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
};

/// A cache-lookup strategy: decides whether a chunk is answerable from the
/// cache (directly or by aggregating cached chunks) and produces the
/// aggregation plan.
///
/// Implementations: ESM and ESMC (exhaustive search, paper Section 3), VCM
/// and VCMC (virtual counts, Section 4/5), plus a no-aggregation baseline
/// and a memoized ESMC ablation. Strategies that maintain summary state
/// (virtual counts, costs) expose a CacheListener to be registered on the
/// cache.
class LookupStrategy {
 public:
  virtual ~LookupStrategy() = default;

  /// Short name used in experiment output ("ESM", "VCMC", ...).
  virtual std::string name() const = 0;

  /// True if (gb, chunk) is present in the cache or computable from it.
  /// This is the paper's "lookup" operation (Table 1 measures it).
  virtual bool IsComputable(GroupById gb, ChunkId chunk) = 0;

  /// Builds an aggregation plan for (gb, chunk); nullptr if not computable.
  virtual std::unique_ptr<PlanNode> FindPlan(GroupById gb, ChunkId chunk) = 0;

  /// Listener to register on the cache, or nullptr if the strategy keeps no
  /// summary state (ESM/ESMC).
  virtual CacheListener* listener() { return nullptr; }

  /// Brings summary state up to date with every cache event so far. A
  /// strategy that defers its upkeep (VCMC) does it here; reads catch up on
  /// their own, so this only moves the work to a point of the caller's
  /// choosing. The engine calls it at the end of its update phase.
  virtual void Flush() {}

  /// Bytes of summary state (Count/Cost/BestParent arrays; paper Table 3).
  virtual int64_t SpaceOverheadBytes() const { return 0; }

  const LookupMetrics& metrics() const { return metrics_; }
  void ResetMetrics() { metrics_ = LookupMetrics(); }

 protected:
  LookupMetrics metrics_;
};

}  // namespace aac

#endif  // AAC_CORE_STRATEGY_H_
