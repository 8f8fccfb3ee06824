#ifndef AAC_STORAGE_CHUNK_DATA_H_
#define AAC_STORAGE_CHUNK_DATA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chunks/chunk_grid.h"
#include "storage/tuple.h"

namespace aac {

/// The materialized contents of one chunk: the non-empty cells of a group-by
/// that fall inside the chunk's value ranges. This is the unit the cache
/// stores and the aggregator consumes/produces.
struct ChunkData {
  GroupById gb = -1;
  ChunkId chunk = -1;
  std::vector<Cell> cells;

  int64_t tuple_count() const { return static_cast<int64_t>(cells.size()); }

  /// Logical size used for cache-capacity accounting. Matches the paper's
  /// 20-byte fact tuples by default (configured via the size model, not
  /// in-memory sizeof, so experiments are comparable to the paper's MB
  /// figures).
  int64_t LogicalBytes(int64_t bytes_per_tuple) const {
    return tuple_count() * bytes_per_tuple;
  }
};

/// Sorts cells by value ids and merges cells with duplicate coordinates
/// (cell-wise aggregate merge), so a canonical chunk has exactly one cell
/// per coordinate in a deterministic order.
void CanonicalizeChunkData(int num_dims, ChunkData* data);

/// Orders `*cells` — value ids at group-by `gb`'s level — by their chunk of
/// `gb`, then by value (CellValueLess), merging cells with equal value ids
/// in input order, and returns each remaining cell's chunk. A write batch
/// in this order is one run of sorted, distinct cells per chunk, ascending.
std::vector<ChunkId> ClusterByChunk(const ChunkGrid& grid, GroupById gb,
                                    std::vector<Cell>* cells);

/// Inserts each `fresh[k]` in front of the cell at old index `at[k]` of
/// `*cells` (`at[k] == size()` appends), in one backward pass that moves
/// every existing cell at most once. `at` ascends; new cells at the same
/// index keep their order in `fresh`.
void InsertCellsAt(std::vector<Cell>* cells, std::span<const size_t> at,
                   std::span<const Cell> fresh);

/// Merges a base write into a chunk's cells: each of `run` folds into the
/// cell with the same value ids (MergeCellAggregates), or goes in at its
/// sorted place. `run` holds value ids at the chunk's level, sorted by
/// CellValueLess over `num_dims` and distinct (one chunk's share of a
/// ClusterByChunk batch). Unless `sorted` says they are in value order
/// already, as a previous merge leaves them, `*cells` are checked and
/// sorted when they are not: the sparse fold path emits them in
/// first-touch order. Returns the number of cells added.
size_t MergeCellRun(int num_dims, std::vector<Cell>* cells,
                    std::span<const Cell> run, bool sorted);

/// True if both chunks hold the same cells with measures equal within
/// `epsilon`. Both inputs are canonicalized by the call.
bool ChunkDataEquals(int num_dims, ChunkData* a, ChunkData* b,
                     double epsilon = 1e-6);

}  // namespace aac

#endif  // AAC_STORAGE_CHUNK_DATA_H_
