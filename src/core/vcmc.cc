#include "core/vcmc.h"

#include <limits>

#include "util/check.h"

namespace aac {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

VcmcStrategy::VcmcStrategy(const ChunkGrid* grid, const ChunkCache* cache,
                           const ChunkSizeModel* size_model)
    : grid_(grid),
      cache_(cache),
      size_model_(size_model),
      links_(grid) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  AAC_CHECK(size_model != nullptr);
  // Setup is single-threaded; logged cache events maintain both arrays
  // from here on.
  auto [costs, parents] = ComputeCostsFromScratch();
  const Lattice& lattice = grid_->lattice();

  WriterMutexLock lock(mutex_);
  costs_ = std::move(costs);
  best_parents_ = std::move(parents);
  queue_.resize(static_cast<size_t>(lattice.LevelSum(lattice.base_id())) + 1);
  queued_epoch_.assign(
      static_cast<size_t>(grid_->TotalChunksAllGroupBys()), 0);
}

bool VcmcStrategy::IsComputable(GroupById gb, ChunkId chunk) {
  ++metrics_.nodes_visited;
  DrainLog();
  ReaderMutexLock lock(mutex_);
  return costs_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))] != kInf;
}

double VcmcStrategy::CostOf(GroupById gb, ChunkId chunk) const {
  DrainLog();
  ReaderMutexLock lock(mutex_);
  return costs_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))];
}

int8_t VcmcStrategy::BestParentOf(GroupById gb, ChunkId chunk) const {
  DrainLog();
  ReaderMutexLock lock(mutex_);
  return best_parents_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))];
}

int64_t VcmcStrategy::SpaceOverheadBytes() const {
  ReaderMutexLock lock(mutex_);
  return static_cast<int64_t>(costs_.size() * sizeof(double)) +
         static_cast<int64_t>(best_parents_.size() * sizeof(int8_t));
}

void VcmcStrategy::OnInsert(const CacheKey& key, int64_t tuples) {
  (void)tuples;  // costs use the size model, not actual tuple counts
  Append(key, /*resident=*/true);
}

void VcmcStrategy::OnEvict(const CacheKey& key) {
  Append(key, /*resident=*/false);
}

void VcmcStrategy::Append(const CacheKey& key, bool resident) {
  bool full = false;
  {
    MutexLock lock(log_mutex_);
    log_.push_back(Event{key, resident});
    full = log_.size() >= kMaxPendingEvents;
  }
  if (full) {
    WriterMutexLock lock(mutex_);
    PropagateBatch();
  }
}

size_t VcmcStrategy::PendingEvents() const {
  MutexLock lock(log_mutex_);
  return log_.size();
}

void VcmcStrategy::DrainLog() const {
  if (PendingEvents() == 0) return;
  WriterMutexLock lock(mutex_);
  PropagateBatch();
}

void VcmcStrategy::PropagateBatch() const {
  {
    MutexLock lock(log_mutex_);
    batch_.swap(log_);
  }
  if (batch_.empty()) return;
  ++epoch_;
  // Residency first, in log order, so each key ends as its last event left
  // it: Evaluate reads it from the best parent. Costs are left for the
  // propagation, which compares them with the new ones.
  for (const Event& event : batch_) {
    best_parents_[static_cast<size_t>(
        grid_->FlatIndex(event.key.gb, event.key.chunk))] =
        event.resident ? kSelf : kNone;
    Enqueue(event.key.gb, event.key.chunk);
  }
  batch_.clear();
  // A chunk's cost reads only its own residency and its lattice parents'
  // costs, and every parent sits one rank (level sum) above it. So taking
  // the ranks from the most detailed down evaluates each queued chunk once,
  // after every parent that may still change. (A naive depth-first
  // propagation can re-visit diamond-shaped descendants a factorial number
  // of times.)
  const Lattice& lattice = grid_->lattice();
  for (size_t rank = queue_.size(); rank-- > 0;) {
    // Enqueue appends only to lower ranks, so this bucket stays put.
    for (const CacheKey& key : queue_[rank]) {
      const size_t idx =
          static_cast<size_t>(grid_->FlatIndex(key.gb, key.chunk));
      const auto [cost, parent] = Evaluate(key.gb, key.chunk);
      const bool cost_changed = cost != costs_[idx];
      if (!cost_changed && parent == best_parents_[idx]) continue;
      costs_[idx] = cost;
      best_parents_[idx] = parent;
      // Children read only the cost value; a mere best-parent change is
      // local. The least cost changed: every more aggregated neighbour that
      // aggregates this chunk may be affected.
      if (!cost_changed) continue;
      const auto& children = lattice.Children(key.gb);
      for (size_t ci = 0; ci < children.size(); ++ci) {
        Enqueue(children[ci], links_.ChildChunk(key.gb, key.chunk, ci));
      }
    }
    queue_[rank].clear();
  }
}

void VcmcStrategy::Enqueue(GroupById gb, ChunkId chunk) const {
  const size_t idx = static_cast<size_t>(grid_->FlatIndex(gb, chunk));
  if (queued_epoch_[idx] == epoch_) return;
  queued_epoch_[idx] = epoch_;
  queue_[static_cast<size_t>(grid_->lattice().LevelSum(gb))].push_back(
      CacheKey{gb, chunk});
}

std::pair<double, int8_t> VcmcStrategy::Evaluate(GroupById gb,
                                                 ChunkId chunk) const {
  if (best_parents_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))] ==
      kSelf) {
    return {0.0, kSelf};
  }
  const auto& parents = grid_->lattice().Parents(gb);
  double best_cost = kInf;
  int8_t best_parent = kNone;
  for (size_t pi = 0; pi < parents.size(); ++pi) {
    const GroupById parent = parents[pi];
    const ChunkLinks::ParentRange range = links_.ParentChunks(gb, chunk, pi);
    const double* parent_costs =
        &costs_[static_cast<size_t>(grid_->FlatIndex(parent, 0))];
    // The parent chunks in ForEachParentChunk's order, so the sum is the
    // same to the bit.
    double sum = 0.0;
    int64_t k = 0;
    for (ChunkId pc = range.first; k < range.count; ++k, pc += range.stride) {
      const double pc_cost = parent_costs[pc];
      if (pc_cost == kInf) break;
      // Materialize the input (pc_cost), then aggregate its tuples.
      sum += pc_cost + size_model_->ExpectedChunkTuples(parent, pc);
    }
    if (k == range.count && sum < best_cost) {
      best_cost = sum;
      best_parent = static_cast<int8_t>(pi);
    }
  }
  return {best_cost, best_parent};
}

std::pair<std::vector<double>, std::vector<int8_t>>
VcmcStrategy::ComputeCostsFromScratch() const {
  const auto chunks = static_cast<size_t>(grid_->TotalChunksAllGroupBys());
  std::vector<double> costs(chunks, kInf);
  std::vector<int8_t> parents(chunks, kNone);
  const Lattice& lattice = grid_->lattice();
  // One pass over the cache marks the cached chunks and the group-bys that
  // hold one.
  std::vector<uint8_t> holds_cached(
      static_cast<size_t>(lattice.num_groupbys()), 0);
  cache_->ForEach([&](const CacheEntryInfo& info) {
    const size_t idx =
        static_cast<size_t>(grid_->FlatIndex(info.key.gb, info.key.chunk));
    costs[idx] = 0.0;
    parents[idx] = kSelf;
    holds_cached[static_cast<size_t>(info.key.gb)] = 1;
  });
  // Detailed levels first so parent costs are final before they are read.
  // A group-by that holds no cached chunk and has no parent with a finite
  // cost has no finite cost either: its chunks stay kInf / kNone.
  std::vector<uint8_t> has_finite(static_cast<size_t>(lattice.num_groupbys()),
                                  0);
  for (GroupById gb : lattice.TopoDetailedFirst()) {
    const auto& gb_parents = lattice.Parents(gb);
    bool finite = holds_cached[static_cast<size_t>(gb)] != 0;
    bool reachable = finite;
    for (GroupById parent : gb_parents) {
      reachable = reachable || has_finite[static_cast<size_t>(parent)] != 0;
    }
    if (!reachable) continue;
    for (ChunkId chunk = 0; chunk < grid_->NumChunks(gb); ++chunk) {
      // The same evaluation as Evaluate(), against the local arrays.
      const size_t idx = static_cast<size_t>(grid_->FlatIndex(gb, chunk));
      if (parents[idx] == kSelf) continue;
      for (size_t pi = 0; pi < gb_parents.size(); ++pi) {
        double sum = 0.0;
        const bool complete = grid_->ForEachParentChunk(
            gb, chunk, gb_parents[pi], [&](ChunkId pc) {
              const double pc_cost = costs[static_cast<size_t>(
                  grid_->FlatIndex(gb_parents[pi], pc))];
              if (pc_cost == kInf) return false;
              sum += pc_cost +
                     size_model_->ExpectedChunkTuples(gb_parents[pi], pc);
              return true;
            });
        if (complete && sum < costs[idx]) {
          costs[idx] = sum;
          parents[idx] = static_cast<int8_t>(pi);
        }
      }
      finite = finite || costs[idx] != kInf;
    }
    has_finite[static_cast<size_t>(gb)] = finite ? 1 : 0;
  }
  return {std::move(costs), std::move(parents)};
}

std::unique_ptr<PlanNode> VcmcStrategy::FindPlan(GroupById gb, ChunkId chunk) {
  ++metrics_.nodes_visited;
  DrainLog();
  ReaderMutexLock lock(mutex_);
  if (costs_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))] == kInf) {
    return nullptr;
  }
  return Build(gb, chunk);
}

// Precondition: computable, and the caller holds mutex_ (shared) so costs
// and best parents form one consistent view. Follows the BestParent
// pointers, so exactly the least-cost plan is constructed.
std::unique_ptr<PlanNode> VcmcStrategy::Build(GroupById gb, ChunkId chunk) {
  ++metrics_.nodes_visited;
  const size_t idx = static_cast<size_t>(grid_->FlatIndex(gb, chunk));
  auto node = std::make_unique<PlanNode>();
  node->key = {gb, chunk};
  node->estimated_cost = costs_[idx];
  const int8_t bp = best_parents_[idx];
  AAC_CHECK_NE(bp, kNone);
  if (bp == kSelf) {
    node->cached = true;
    return node;
  }
  const GroupById parent = grid_->lattice().Parents(gb)[static_cast<size_t>(bp)];
  node->source_gb = parent;
  for (ChunkId pc : grid_->ParentChunkNumbers(gb, chunk, parent)) {
    node->inputs.push_back(Build(parent, pc));
  }
  return node;
}

}  // namespace aac
