#ifndef AAC_STORAGE_FACT_TABLE_H_
#define AAC_STORAGE_FACT_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "chunks/chunk_grid.h"
#include "storage/tuple.h"

namespace aac {

/// The base fact table, stored in the paper's "chunked file organization":
/// tuples are clustered by base-level chunk number (the paper achieved this
/// with a clustered index on chunk number), so the tuples of any base chunk
/// are one contiguous slice.
class FactTable {
 public:
  /// Builds the table from raw base-level cells. Duplicate cells (same value
  /// ids) are combined by merging their aggregate state, so the table holds
  /// one tuple per non-empty cell. Every value id must lie in
  /// `[0, base cardinality)` of its dimension; the constructor and
  /// `ApplyInserts` abort on any other. `grid` must outlive the table.
  FactTable(const ChunkGrid* grid, std::vector<Cell> cells);

  /// Appends new fact tuples (merging into existing cells) and re-clusters.
  /// Cached results derived from the affected base chunks become stale; see
  /// core/invalidation.h for the cache-side protocol. Returns the base
  /// chunks whose contents changed.
  std::vector<ChunkId> ApplyInserts(std::vector<Cell> cells);

  const ChunkGrid& grid() const { return *grid_; }
  GroupById base_gb() const { return base_gb_; }
  int64_t num_tuples() const { return static_cast<int64_t>(tuples_.size()); }

  /// Number of base chunks.
  int64_t num_chunks() const;

  /// Contiguous slice of tuples in base chunk `chunk`.
  std::span<const Cell> ChunkSlice(ChunkId chunk) const;

  /// Number of tuples in base chunk `chunk`.
  int64_t ChunkTupleCount(ChunkId chunk) const;

  /// All tuples in clustered order.
  std::span<const Cell> tuples() const { return tuples_; }

 private:
  /// Dedups `tuples_` and rebuilds the clustered layout.
  void Rebuild();

  const ChunkGrid* grid_;
  GroupById base_gb_;
  std::vector<Cell> tuples_;          // sorted by base chunk number
  std::vector<int64_t> chunk_offsets_;  // size num_chunks()+1
};

}  // namespace aac

#endif  // AAC_STORAGE_FACT_TABLE_H_
