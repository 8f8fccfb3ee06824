#ifndef AAC_CHUNKS_CHUNK_LINKS_H_
#define AAC_CHUNKS_CHUNK_LINKS_H_

#include <cstdint>
#include <vector>

#include "chunks/chunk_grid.h"
#include "util/check.h"

namespace aac {

/// The chunk links of every lattice edge, computed once: for each chunk of
/// each group-by, its parent chunks at every lattice parent
/// (`ChunkGrid::ParentChunkNumbers`) and its child chunk at every lattice
/// child (`ChunkGrid::ChildChunkNumber`).
///
/// The lattice fixes these links, yet the grid recomputes each one from
/// chunk coordinates. Cost maintenance (VCMC) follows them for every chunk
/// it re-evaluates, so it reads them here instead. A lattice parent is one
/// level finer on exactly one dimension, so the parent chunks of a chunk
/// differ only in that dimension's coordinate: they are `first + k *
/// stride` for k in [0, count), in `ForEachParentChunk`'s order, with one
/// stride per (group-by, parent) pair.
///
/// Built from per-dimension range tables (per level, each chunk's range of
/// chunks one level finer and its chunk one level coarser) in one pass over
/// every chunk of every group-by. Immutable afterwards, so any thread may
/// read it.
class ChunkLinks {
 public:
  /// The chunks of one lattice parent that aggregate into one chunk.
  struct ParentRange {
    ChunkId first;
    int64_t count;
    int64_t stride;
  };

  /// Reads `grid` only while it builds the tables.
  explicit ChunkLinks(const ChunkGrid* grid);

  /// The chunks of `Lattice::Parents(gb)[pi]` that aggregate into `chunk`
  /// of `gb`.
  ParentRange ParentChunks(GroupById gb, ChunkId chunk, size_t pi) const {
    const size_t g = static_cast<size_t>(gb);
    AAC_DCHECK(pi < static_cast<size_t>(parent_degree_[g]));
    const Link& link =
        parent_links_[static_cast<size_t>(parent_begin_[g]) +
                      static_cast<size_t>(chunk) * parent_degree_[g] + pi];
    return {link.first, link.count,
            parent_strides_[static_cast<size_t>(stride_begin_[g]) + pi]};
  }

  /// The chunk of `Lattice::Children(gb)[ci]` that `chunk` of `gb`
  /// aggregates into.
  ChunkId ChildChunk(GroupById gb, ChunkId chunk, size_t ci) const {
    const size_t g = static_cast<size_t>(gb);
    AAC_DCHECK(ci < static_cast<size_t>(child_degree_[g]));
    return child_links_[static_cast<size_t>(child_begin_[g]) +
                        static_cast<size_t>(chunk) * child_degree_[g] + ci];
  }

  /// Bytes of the tables (per-chunk links plus per-group-by offsets).
  int64_t bytes() const;

 private:
  struct Link {
    int32_t first;
    int32_t count;
  };

  // Per group-by: where its chunks' links start, and how many lattice
  // parents and children each chunk links to. A chunk's links sit together,
  // in lattice order.
  std::vector<int64_t> parent_begin_;
  std::vector<int64_t> child_begin_;
  std::vector<int64_t> stride_begin_;
  std::vector<uint8_t> parent_degree_;
  std::vector<uint8_t> child_degree_;
  std::vector<Link> parent_links_;
  std::vector<int64_t> parent_strides_;  // per (group-by, parent) pair
  std::vector<int32_t> child_links_;
};

}  // namespace aac

#endif  // AAC_CHUNKS_CHUNK_LINKS_H_
