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
/// Construction counts the lattice one rank (level sum) at a time, most
/// detailed first. The non-empty cells of a group-by are the projection of
/// the non-empty cells of any finer group-by, so each group-by is counted
/// from its smallest *kept* ancestor rather than from the fact table, with
/// the same counts (Gray et al.'s Data Cube computes super-aggregates from
/// smaller aggregates the same way). The fact table is the root that is
/// always kept, read in place. After a rank is counted, one thread walks it
/// in topological order and keeps a group-by whose count is at most half its
/// source's, while the kept cells total at most the table's tuple count and
/// no chunk of it is too large for the bitmap below. A kept group-by's
/// distinct cells are then collected, as value ids at its own level
/// clustered by its chunks, in a second pass over its source; they are freed
/// when the constructor returns.
///
/// Inside a rank, one worker per core (the caller among them) claims
/// (group-by, block of chunks) tasks, largest source first. A chunk is
/// counted from its source's chunks that aggregate into it
/// (`ChunkGrid::ForEachParentChunk`): per-dimension tables map each source
/// value to its ancestor's offset inside that ancestor's chunk, and distinct
/// cells are counted in a bitmap of one chunk (at most 21 KB on APB-1),
/// clearing only the words it touched. A chunk spanning more than 2^24
/// cells sorts its offsets instead. Workers write only their own chunks'
/// counts and kept rows; kept cells are written between two ranks' counts
/// and only read while a rank is counted, so workers share no lock. The
/// model keeps one count per chunk and per group-by.
///
/// The model is a snapshot of the table at set-up: `FactTable::ApplyInserts`
/// does not refresh it. Its sizes steer path costs and benefit weights,
/// never answers, so a stale count can cost a worse plan but not a wrong
/// result.
class MeasuredChunkSizeModel : public ChunkSizeModel {
 public:
  /// What construction read.
  struct CountStats {
    /// Group-bys kept as a source, the fact table not included.
    int32_t kept_groupbys = 0;
    /// Their cells; at most the table's tuple count.
    int64_t kept_cells = 0;
    /// Source cells read, by counting and by collecting kept cells. Counting
    /// every group-by from the fact table reads (group-bys - 1) x tuples.
    int64_t visits = 0;
  };

  /// `table` must be built over `grid`; both must outlive the model.
  MeasuredChunkSizeModel(const ChunkGrid* grid, const FactTable* table,
                         int64_t bytes_per_tuple = 20);

  /// Exact distinct-cell count of the chunk.
  double ExpectedChunkTuples(GroupById gb, ChunkId chunk) const override;

  /// Exact distinct-cell count of the whole group-by.
  double ExpectedGroupByTuples(GroupById gb) const override;

  const CountStats& count_stats() const { return count_stats_; }

 private:
  std::vector<int32_t> chunk_tuples_;  // exact count per chunk, at FlatIndex
  std::vector<int64_t> gb_tuples_;     // exact count per group-by
  CountStats count_stats_;
};

}  // namespace aac

#endif  // AAC_STORAGE_MEASURED_SIZE_MODEL_H_
