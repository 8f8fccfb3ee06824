#ifndef AAC_CHUNKS_CHUNK_GRID_H_
#define AAC_CHUNKS_CHUNK_GRID_H_

#include <array>
#include <cstdint>
#include <vector>

#include "chunks/chunk_layout.h"
#include "schema/lattice.h"
#include "schema/level_vector.h"
#include "schema/schema.h"

namespace aac {

/// Chunk number within a group-by (row-major over per-dimension chunk
/// coordinates).
using ChunkId = int64_t;

/// Per-dimension chunk coordinates of a chunk.
using ChunkCoords = std::array<int32_t, kMaxDims>;

/// Multi-dimensional chunk addressing across all lattice levels.
///
/// Combines the per-dimension `DimensionChunkLayout`s into the chunk algebra
/// the caching algorithms need: numbering chunks within a group-by, locating
/// the chunk of a cell, and — crucially — the closure-property mappings
/// between levels: `ParentChunkNumbers` (the paper's GetParentChunkNumbers)
/// maps a chunk at an aggregated level to the set of chunks at a more
/// detailed level that aggregate to it, and `ChildChunkNumber`
/// (GetChildChunkNumber) maps a chunk down to the unique chunk containing it
/// at a more aggregated level.
class ChunkGrid {
 public:
  /// `lattice` and `layouts` entries must outlive the grid; one layout per
  /// schema dimension, in order.
  ChunkGrid(const Lattice* lattice,
            std::vector<const DimensionChunkLayout*> layouts);

  const Lattice& lattice() const { return *lattice_; }
  const Schema& schema() const { return lattice_->schema(); }
  const DimensionChunkLayout& layout(int dim) const;

  /// Number of chunks of group-by `gb`.
  int64_t NumChunks(GroupById gb) const;

  /// Sum of NumChunks over every group-by in the lattice (paper: 32256 for
  /// their APB configuration); sizes the virtual-count arrays.
  int64_t TotalChunksAllGroupBys() const { return flat_begin_.back(); }

  /// Dense index of (gb, chunk) over the chunks of every group-by, group-by
  /// major: the layout of the per-chunk arrays the lookup strategies and the
  /// size model keep (the paper's Count, Cost and BestParent, Section 4,
  /// Table 3).
  int64_t FlatIndex(GroupById gb, ChunkId chunk) const {
    AAC_DCHECK(chunk >= 0 && chunk < NumChunks(gb));
    return flat_begin_[static_cast<size_t>(gb)] + chunk;
  }

  /// Chunk number from per-dimension chunk coordinates.
  ChunkId ChunkIdOf(GroupById gb, const ChunkCoords& coords) const;

  /// Per-dimension chunk coordinates of `chunk`.
  ChunkCoords CoordsOf(GroupById gb, ChunkId chunk) const;

  /// How far the chunk number of `gb` moves when the chunk coordinate of
  /// dimension `dim` grows by one (row-major, last dimension fastest).
  int64_t Stride(GroupById gb, int dim) const {
    AAC_DCHECK(dim >= 0 && dim < schema().num_dims());
    return strides_[static_cast<size_t>(gb)][static_cast<size_t>(dim)];
  }

  /// Chunk containing the cell with the given per-dimension value ids.
  ChunkId ChunkOfCell(GroupById gb, const int32_t* values) const;

  /// Number of cells (value combinations) inside `chunk` of `gb`.
  int64_t CellsInChunk(GroupById gb, ChunkId chunk) const;

  /// The chunks of ancestor group-by `to` (component-wise more detailed,
  /// i.e. LevelOf(from) <= LevelOf(to)) whose aggregation yields `chunk` of
  /// `from`. This is the paper's GetParentChunkNumbers; for an immediate
  /// lattice parent the result is the child chunk range on one dimension.
  /// The chunks are those ForEachParentChunk visits, in its order.
  std::vector<ChunkId> ParentChunkNumbers(GroupById from, ChunkId chunk,
                                          GroupById to) const;

  /// Allocation-free ParentChunkNumbers: calls `fn(ChunkId)` for each parent
  /// chunk, in ascending order, until `fn` returns false. Returns false if
  /// `fn` stopped early. The lookup strategies' inner recursions use this
  /// (they run millions of these per exhaustive search).
  template <typename Fn>
  bool ForEachParentChunk(GroupById from, ChunkId chunk, GroupById to,
                          Fn&& fn) const {
    AAC_DCHECK(lattice_->IsAncestor(from, to));
    const LevelVector& from_lv = lattice_->LevelOf(from);
    const LevelVector& to_lv = lattice_->LevelOf(to);
    const ChunkCoords coords = CoordsOf(from, chunk);
    const int nd = schema().num_dims();
    const auto& to_strides = strides_[static_cast<size_t>(to)];

    std::array<std::pair<int32_t, int32_t>, kMaxDims> ranges;
    ChunkId first = 0;
    for (int d = 0; d < nd; ++d) {
      ranges[static_cast<size_t>(d)] =
          layouts_[static_cast<size_t>(d)]->DescendantChunkRange(
              from_lv[d], coords[static_cast<size_t>(d)], to_lv[d]);
      first += static_cast<int64_t>(ranges[static_cast<size_t>(d)].first) *
               to_strides[static_cast<size_t>(d)];
    }
    // Mixed-radix walk over the per-dimension ranges, updating the chunk id
    // incrementally.
    ChunkCoords cur{};
    for (int d = 0; d < nd; ++d) {
      cur[static_cast<size_t>(d)] = ranges[static_cast<size_t>(d)].first;
    }
    ChunkId id = first;
    while (true) {
      if (!fn(id)) return false;
      int d = nd - 1;
      while (d >= 0) {
        if (++cur[static_cast<size_t>(d)] <
            ranges[static_cast<size_t>(d)].second) {
          id += to_strides[static_cast<size_t>(d)];
          break;
        }
        id -= static_cast<int64_t>(ranges[static_cast<size_t>(d)].second - 1 -
                                   ranges[static_cast<size_t>(d)].first) *
              to_strides[static_cast<size_t>(d)];
        cur[static_cast<size_t>(d)] = ranges[static_cast<size_t>(d)].first;
        --d;
      }
      if (d < 0) break;
    }
    return true;
  }

  /// The unique chunk of descendant group-by `to` (component-wise more
  /// aggregated) that `chunk` of `from` aggregates into. This is the paper's
  /// GetChildChunkNumber.
  ChunkId ChildChunkNumber(GroupById from, ChunkId chunk, GroupById to) const;

 private:
  const Lattice* lattice_;
  std::vector<const DimensionChunkLayout*> layouts_;
  // Cached per-group-by chunk counts and row-major strides.
  std::vector<int64_t> num_chunks_;
  // Per group-by, the flat index of its chunk 0; one more entry holds the
  // total.
  std::vector<int64_t> flat_begin_;
  std::vector<std::array<int64_t, kMaxDims>> strides_;
};

}  // namespace aac

#endif  // AAC_CHUNKS_CHUNK_GRID_H_
