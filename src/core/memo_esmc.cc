#include "core/memo_esmc.h"

#include <limits>

#include "util/check.h"

namespace aac {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int8_t kSelf = -1;
constexpr int8_t kNone = -2;
}  // namespace

MemoizedEsmcStrategy::MemoizedEsmcStrategy(const ChunkGrid* grid,
                                           const ChunkCache* cache,
                                           const ChunkSizeModel* size_model)
    : grid_(grid), cache_(cache), size_model_(size_model) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  AAC_CHECK(size_model != nullptr);
  const auto chunks = static_cast<size_t>(grid_->TotalChunksAllGroupBys());
  memo_cost_.resize(chunks, kInf);
  memo_parent_.resize(chunks, kNone);
  memo_epoch_.resize(chunks, 0);
}

void MemoizedEsmcStrategy::BeginLookup() { ++epoch_; }

double MemoizedEsmcStrategy::ComputeCost(GroupById gb, ChunkId chunk) {
  const size_t idx = static_cast<size_t>(grid_->FlatIndex(gb, chunk));
  if (memo_epoch_[idx] == epoch_) return memo_cost_[idx];
  ++metrics_.nodes_visited;
  memo_epoch_[idx] = epoch_;
  if (cache_->Contains({gb, chunk})) {
    memo_cost_[idx] = 0.0;
    memo_parent_[idx] = kSelf;
    return 0.0;
  }
  const auto& parents = grid_->lattice().Parents(gb);
  double best = kInf;
  int8_t best_parent = kNone;
  for (size_t pi = 0; pi < parents.size(); ++pi) {
    double sum = 0.0;
    const bool complete = grid_->ForEachParentChunk(
        gb, chunk, parents[pi], [&](ChunkId pc) {
          const double c = ComputeCost(parents[pi], pc);
          if (c == kInf) return false;
          sum += c + size_model_->ExpectedChunkTuples(parents[pi], pc);
          return true;
        });
    if (complete && sum < best) {
      best = sum;
      best_parent = static_cast<int8_t>(pi);
    }
  }
  memo_cost_[idx] = best;
  memo_parent_[idx] = best_parent;
  return best;
}

bool MemoizedEsmcStrategy::IsComputable(GroupById gb, ChunkId chunk) {
  BeginLookup();
  return ComputeCost(gb, chunk) != kInf;
}

std::unique_ptr<PlanNode> MemoizedEsmcStrategy::FindPlan(GroupById gb,
                                                         ChunkId chunk) {
  BeginLookup();
  if (ComputeCost(gb, chunk) == kInf) return nullptr;
  return Build(gb, chunk);
}

std::unique_ptr<PlanNode> MemoizedEsmcStrategy::Build(GroupById gb,
                                                      ChunkId chunk) {
  const size_t idx = static_cast<size_t>(grid_->FlatIndex(gb, chunk));
  AAC_CHECK_EQ(memo_epoch_[idx], epoch_);
  auto node = std::make_unique<PlanNode>();
  node->key = {gb, chunk};
  node->estimated_cost = memo_cost_[idx];
  if (memo_parent_[idx] == kSelf) {
    node->cached = true;
    return node;
  }
  AAC_CHECK_NE(memo_parent_[idx], kNone);
  const GroupById parent =
      grid_->lattice().Parents(gb)[static_cast<size_t>(memo_parent_[idx])];
  node->source_gb = parent;
  for (ChunkId pc : grid_->ParentChunkNumbers(gb, chunk, parent)) {
    node->inputs.push_back(Build(parent, pc));
  }
  return node;
}

}  // namespace aac
