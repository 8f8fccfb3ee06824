#ifndef AAC_CORE_MEMO_ESMC_H_
#define AAC_CORE_MEMO_ESMC_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/chunk_cache.h"
#include "chunks/chunk_size_model.h"
#include "core/strategy.h"

namespace aac {

/// Memoized exhaustive cost search — an ablation this reproduction adds.
///
/// The paper's ESMC re-explores shared lattice vertices exponentially often
/// (its Table 1 shows multi-hour lookups) and VCMC avoids that by paying an
/// *update-time* cost. This strategy is the third point in the design space:
/// compute exact least costs at *lookup* time but memoize per lookup, so a
/// probe costs O(chunks under the probed chunk) instead of O(paths) — no
/// maintenance on insert/evict, no persistent arrays. The ablation benchmark
/// compares all three.
class MemoizedEsmcStrategy : public LookupStrategy {
 public:
  /// All pointers must outlive the strategy.
  MemoizedEsmcStrategy(const ChunkGrid* grid, const ChunkCache* cache,
                       const ChunkSizeModel* size_model);

  std::string name() const override { return "MemoESMC"; }
  bool IsComputable(GroupById gb, ChunkId chunk) override;
  std::unique_ptr<PlanNode> FindPlan(GroupById gb, ChunkId chunk) override;

 private:
  /// Computes (memoized within one lookup) the least cost of (gb, chunk);
  /// +infinity if not computable.
  double ComputeCost(GroupById gb, ChunkId chunk);

  std::unique_ptr<PlanNode> Build(GroupById gb, ChunkId chunk);

  void BeginLookup();

  const ChunkGrid* grid_;
  const ChunkCache* cache_;
  const ChunkSizeModel* size_model_;
  // Epoch-tagged memo reused across lookups without clearing.
  std::vector<double> memo_cost_;
  std::vector<int8_t> memo_parent_;
  std::vector<int64_t> memo_epoch_;
  int64_t epoch_ = 0;
};

}  // namespace aac

#endif  // AAC_CORE_MEMO_ESMC_H_
