#include "core/vcm.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace aac {

VcmStrategy::VcmStrategy(const ChunkGrid* grid, const ChunkCache* cache)
    : grid_(grid),
      cache_(cache),
      counts_(grid, cache) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  // Seed the membership mirror from the cache's current contents (setup is
  // single-threaded; steady state maintains it via the listener hooks).
  // Collected first, written under the lock after: the analysis is
  // per-function, so guarded fields are not written from inside the
  // ForEach lambda.
  std::vector<std::pair<CacheKey, int64_t>> seed;
  cache->ForEach([&](const CacheEntryInfo& info) {
    const ChunkData* data = cache->Peek(info.key);
    if (data != nullptr) {
      seed.emplace_back(info.key, static_cast<int64_t>(data->tuple_count()));
    }
  });
  WriterMutexLock lock(mutex_);
  for (const auto& [key, tuples] : seed) cached_tuples_[key] = tuples;
}

bool VcmStrategy::IsComputable(GroupById gb, ChunkId chunk) {
  ++metrics_.nodes_visited;
  ReaderMutexLock lock(mutex_);
  // Statement (I) of Algorithm VCM: the count short-circuits everything.
  return counts_.IsComputable(gb, chunk);
}

std::unique_ptr<PlanNode> VcmStrategy::FindPlan(GroupById gb, ChunkId chunk) {
  ++metrics_.nodes_visited;
  ReaderMutexLock lock(mutex_);
  if (!counts_.IsComputable(gb, chunk)) return nullptr;
  return Build(gb, chunk);
}

// Precondition: (gb, chunk) is computable and the caller holds mutex_
// (shared), freezing counts_ and cached_tuples_ into a mutually consistent
// view. Walks the single successful path the counts certify; the paper's
// "control should never reach here" branch is the final AAC_CHECK.
std::unique_ptr<PlanNode> VcmStrategy::Build(GroupById gb, ChunkId chunk) {
  ++metrics_.nodes_visited;
  const auto cached = cached_tuples_.find({gb, chunk});
  if (cached != cached_tuples_.end()) {
    auto leaf = std::make_unique<PlanNode>();
    leaf->key = {gb, chunk};
    leaf->cached = true;
    return leaf;
  }
  const GroupById parent = counts_.FindParentWithCompletePath(gb, chunk);
  AAC_CHECK_GE(parent, 0);  // count > 0 guarantees some complete path
  auto node = std::make_unique<PlanNode>();
  node->key = {gb, chunk};
  node->source_gb = parent;
  double cost = 0.0;
  for (ChunkId pc : grid_->ParentChunkNumbers(gb, chunk, parent)) {
    std::unique_ptr<PlanNode> input = Build(parent, pc);
    cost += input->estimated_cost;
    const auto it = cached_tuples_.find(input->key);
    if (it != cached_tuples_.end()) cost += static_cast<double>(it->second);
    node->inputs.push_back(std::move(input));
  }
  node->estimated_cost = cost;
  return node;
}

}  // namespace aac
