#ifndef AAC_CHUNKS_CHUNK_LAYOUT_H_
#define AAC_CHUNKS_CHUNK_LAYOUT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "schema/dimension.h"
#include "util/check.h"

namespace aac {

/// Chunking of a single dimension: at every level, the distinct values are
/// divided into contiguous ranges ("chunks").
///
/// The layout must be *hierarchically aligned* so that the closure property
/// of chunked caching holds: the child values of a chunk at level l form a
/// whole number of chunks at level l+1. The constructor validates this, so a
/// chunk at any level maps to a contiguous chunk range at any more detailed
/// level.
class DimensionChunkLayout {
 public:
  /// Builds a layout from explicit chunk boundaries.
  ///
  /// `chunk_begins[l]` lists, for level l, the first value id of each chunk
  /// in increasing order; it must start at 0 and implicitly ends at
  /// `dim.cardinality(l)`. `dim` must outlive the layout.
  DimensionChunkLayout(const Dimension* dim,
                       std::vector<std::vector<int32_t>> chunk_begins);

  /// Builds a layout with (up to) `values_per_chunk[l]` values per chunk at
  /// level l (the last chunk of a level may be smaller).
  static DimensionChunkLayout UniformValuesPerChunk(
      const Dimension* dim, const std::vector<int32_t>& values_per_chunk);

  const Dimension& dimension() const { return *dim_; }

  /// Number of chunks at `level`.
  int32_t num_chunks(int level) const;

  /// Chunk containing `value` at `level`: one load from the level's
  /// value->chunk table. `value` must be in `[0, cardinality(level))`;
  /// callers check values where they enter (queries, fact tuples).
  int32_t ChunkOfValue(int level, int32_t value) const {
    AAC_DCHECK(level >= 0 && level < dim_->num_levels());
    AAC_DCHECK(value >= 0 && value < dim_->cardinality(level));
    return chunk_of_value_[static_cast<size_t>(level)]
                          [static_cast<size_t>(value)];
  }

  /// Value range [begin, end) covered by `chunk` at `level`.
  std::pair<int32_t, int32_t> ValueRange(int level, int32_t chunk) const;

  /// Number of values in `chunk` at `level`.
  int32_t ChunkWidth(int level, int32_t chunk) const;

  /// Chunk range [begin, end) at `level + 1` covered by `chunk` at `level`.
  std::pair<int32_t, int32_t> ChildChunkRange(int level, int32_t chunk) const;

  /// Chunk range [begin, end) at `target_level` (>= level) covered by
  /// `chunk` at `level`; identity when target_level == level.
  std::pair<int32_t, int32_t> DescendantChunkRange(int level, int32_t chunk,
                                                   int target_level) const;

  /// Chunk at `level - 1` containing `chunk` at `level`.
  int32_t ParentChunk(int level, int32_t chunk) const;

  /// Chunk at `target_level` (<= level) containing `chunk` at `level`.
  int32_t AncestorChunk(int level, int32_t chunk, int target_level) const;

  /// Sum of num_chunks over all levels; the per-dimension factor of the
  /// total chunk count used for the virtual-count arrays (paper Table 3).
  int64_t TotalChunksAllLevels() const;

 private:
  void Validate() const;

  const Dimension* dim_;
  // chunk_begins_[l] has num_chunks(l) + 1 entries; last == cardinality(l).
  std::vector<std::vector<int32_t>> chunk_begins_;
  // chunk_of_value_[l][v]: the chunk of value v at level l, expanded from
  // chunk_begins_[l] at construction.
  std::vector<std::vector<int32_t>> chunk_of_value_;
};

}  // namespace aac

#endif  // AAC_CHUNKS_CHUNK_LAYOUT_H_
