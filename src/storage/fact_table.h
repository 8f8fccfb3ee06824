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

  /// Merges new fact tuples into the clustered order: the batch alone is
  /// sorted (duplicates within it merged in batch order), a cell already in
  /// the table merges into its tuple (found by binary search in its base
  /// chunk's value-sorted slice), new cells go in with one backward pass,
  /// and the chunk offsets shift by a prefix sum. The result is tuple for
  /// tuple what the constructor builds from the same cells. Cost: the batch,
  /// plus the tuples and chunk offsets after the first new cell; the table
  /// is never re-sorted. Cached chunks and answers over the changed base
  /// chunks become stale; core/invalidation.h's ApplyFactUpdates is the
  /// cache-side protocol. Returns the sorted, distinct base chunks of the
  /// batch.
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
  /// Dedups `tuples_` and builds the clustered layout (construction only).
  void Rebuild();

  const ChunkGrid* grid_;
  GroupById base_gb_;
  std::vector<Cell> tuples_;  // by base chunk number, then by value
  std::vector<int64_t> chunk_offsets_;  // size num_chunks()+1
};

}  // namespace aac

#endif  // AAC_STORAGE_FACT_TABLE_H_
