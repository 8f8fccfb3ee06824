#ifndef AAC_STORAGE_MEASURED_SIZE_MODEL_H_
#define AAC_STORAGE_MEASURED_SIZE_MODEL_H_

#include <cstdint>
#include <vector>

#include "chunks/chunk_size_model.h"
#include "storage/fact_table.h"

namespace aac {

/// Chunk-size model backed by *exact* per-chunk tuple counts, computed once
/// from the fact table for every chunk at every group-by level.
///
/// The analytic `ChunkSizeModel` assumes cells are occupied independently,
/// which under-predicts how fast aggregation collapses correlated data
/// (e.g. APB-1's per-month records collapse 24x at the month roll-up). The
/// cost-based strategies pick noticeably better paths with real sizes —
/// this is the "estimated group-by sizes" the paper cites from [SDN98],
/// done exactly.
///
/// Construction counts each group-by on its own, on one worker per core
/// (the caller among them); a worker writes only the counts of the
/// group-bys it claims, so workers share no lock. Each chunk is counted from
/// the base chunks that aggregate into it (`ChunkGrid::ForEachParentChunk`
/// over `FactTable::ChunkSlice`): per-dimension tables map each base value
/// to its ancestor's offset inside that ancestor's chunk, and distinct cells
/// are counted by test-and-set in a bitmap of one chunk (at most 21 KB on
/// APB-1), clearing only the words it touched. A chunk spanning more than
/// 2^24 cells sorts its offsets instead. The model keeps one count per chunk
/// and per group-by.
///
/// The model is a snapshot of the table at set-up: `FactTable::ApplyInserts`
/// does not refresh it. Its sizes steer path costs and benefit weights,
/// never answers, so a stale count can cost a worse plan but not a wrong
/// result.
class MeasuredChunkSizeModel : public ChunkSizeModel {
 public:
  /// `table` must be built over `grid`; both must outlive the model.
  MeasuredChunkSizeModel(const ChunkGrid* grid, const FactTable* table,
                         int64_t bytes_per_tuple = 20);

  /// Exact distinct-cell count of the chunk.
  double ExpectedChunkTuples(GroupById gb, ChunkId chunk) const override;

  /// Exact distinct-cell count of the whole group-by.
  double ExpectedGroupByTuples(GroupById gb) const override;

 private:
  std::vector<int64_t> offsets_;       // per group-by, into chunk_tuples_
  std::vector<int32_t> chunk_tuples_;  // exact count per chunk
  std::vector<int64_t> gb_tuples_;     // exact count per group-by
};

}  // namespace aac

#endif  // AAC_STORAGE_MEASURED_SIZE_MODEL_H_
