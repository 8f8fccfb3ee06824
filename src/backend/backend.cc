#include "backend/backend.h"

#include "util/check.h"

namespace aac {

BackendServer::BackendServer(const FactTable* table,
                             const BackendCostModel& model, SimClock* clock)
    : table_(table),
      model_(model),
      clock_(clock),
      aggregator_(&table->grid(), &arena_) {
  AAC_CHECK(table_ != nullptr);
}

BackendResult BackendServer::ExecuteChunkQuery(
    GroupById gb, const std::vector<ChunkId>& chunks) {
  MutexLock lock(mutex_);
  const ChunkGrid& grid = table_->grid();
  const GroupById base = table_->base_gb();
  BackendResult result;
  std::vector<ChunkData>& results = result.chunks;
  results.reserve(chunks.size());
  int64_t base_chunks = 0;
  int64_t tuples = 0;
  for (ChunkId chunk : chunks) {
    std::vector<std::span<const Cell>> spans;
    for (ChunkId bc : grid.ParentChunkNumbers(gb, chunk, base)) {
      std::span<const Cell> slice = table_->ChunkSlice(bc);
      ++base_chunks;
      tuples += static_cast<int64_t>(slice.size());
      if (!slice.empty()) spans.push_back(slice);
    }
    results.push_back(aggregator_.AggregateSpans(base, spans, gb, chunk));
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
