#include "backend/backend.h"

#include <algorithm>
#include <span>

#include "storage/aggregator.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace aac {

BackendServer::BackendServer(const FactTable* table,
                             const BackendCostModel& model, SimClock* clock)
    : table_(table), model_(model), clock_(clock), arenas_(HardwareWorkers()) {
  AAC_CHECK(table_ != nullptr);
}

BackendResult BackendServer::ExecuteChunkQuery(
    GroupById gb, const std::vector<ChunkId>& chunks) {
  MutexLock lock(mutex_);
  const ChunkGrid& grid = table_->grid();
  const GroupById base = table_->base_gb();
  // Every chunk's base slices first: the charge counts them, and the folds
  // below only read them.
  std::vector<std::vector<std::span<const Cell>>> spans(chunks.size());
  int64_t base_chunks = 0;
  int64_t tuples = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    for (ChunkId bc : grid.ParentChunkNumbers(gb, chunks[i], base)) {
      std::span<const Cell> slice = table_->ChunkSlice(bc);
      ++base_chunks;
      tuples += static_cast<int64_t>(slice.size());
      if (!slice.empty()) spans[i].push_back(slice);
    }
  }

  // Each chunk folds on its own, so a large call spreads its chunks over
  // the workers. Worker w folds through its own aggregator into arenas_[w]
  // and writes only the chunks it claimed, so the reply keeps request
  // order; the mutex stays held across the join.
  const size_t workers =
      std::min(tuples >= kParallelFoldTuples ? arenas_.size() : size_t{1},
               chunks.size());
  std::vector<Aggregator> aggregators;
  aggregators.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    aggregators.emplace_back(&grid, &arenas_[w]);
  }
  BackendResult result;
  result.chunks.resize(chunks.size());
  ParallelFor(workers, chunks.size(), [&](size_t w, size_t i) {
    result.chunks[i] =
        aggregators[w].AggregateSpans(base, spans[i], gb, chunks[i]);
  });
  // Between calls each arena keeps at most kTrimBytes, as a client
  // thread's does between queries.
  for (size_t w = 0; w < workers; ++w) {
    arenas_[w].TrimIfAbove(FoldArena::kTrimBytes);
  }

  ++stats_.queries;
  stats_.chunks_returned += static_cast<int64_t>(chunks.size());
  stats_.base_chunks_scanned += base_chunks;
  stats_.tuples_scanned += tuples;
  result.charged_nanos = model_.QueryCostNanos(base_chunks, tuples);
  if (clock_ != nullptr) clock_->Charge(result.charged_nanos);
  return result;
}

int64_t BackendServer::EstimateMarginalChunkCostNanos(GroupById gb,
                                                      ChunkId chunk) const {
  const ChunkGrid& grid = table_->grid();
  const GroupById base = table_->base_gb();
  int64_t base_chunks = 0;
  int64_t tuples = 0;
  for (ChunkId bc : grid.ParentChunkNumbers(gb, chunk, base)) {
    ++base_chunks;
    tuples += table_->ChunkTupleCount(bc);
  }
  return model_.QueryCostNanos(base_chunks, tuples) -
         model_.fixed_query_overhead_ns;
}

int64_t BackendServer::EstimateQueryCostNanos(
    GroupById gb, const std::vector<ChunkId>& chunks) const {
  const ChunkGrid& grid = table_->grid();
  const GroupById base = table_->base_gb();
  int64_t base_chunks = 0;
  int64_t tuples = 0;
  for (ChunkId chunk : chunks) {
    for (ChunkId bc : grid.ParentChunkNumbers(gb, chunk, base)) {
      ++base_chunks;
      tuples += table_->ChunkTupleCount(bc);
    }
  }
  return model_.QueryCostNanos(base_chunks, tuples);
}

}  // namespace aac
