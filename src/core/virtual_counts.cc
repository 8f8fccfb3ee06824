#include "core/virtual_counts.h"

#include "util/check.h"

namespace aac {

VirtualCounts::VirtualCounts(const ChunkGrid* grid, const ChunkCache* cache)
    : grid_(grid), cache_(cache) {
  AAC_CHECK(grid != nullptr);
  AAC_CHECK(cache != nullptr);
  counts_.assign(static_cast<size_t>(grid_->TotalChunksAllGroupBys()), 0);
  Rebuild();
}

GroupById VirtualCounts::FindParentWithCompletePath(GroupById gb,
                                                    ChunkId chunk) const {
  for (GroupById parent : grid_->lattice().Parents(gb)) {
    const bool complete = grid_->ForEachParentChunk(
        gb, chunk, parent,
        [&](ChunkId pc) { return CountOf(parent, pc) > 0; });
    if (complete) return parent;
  }
  return -1;
}

void VirtualCounts::OnChunkInserted(GroupById gb, ChunkId chunk) {
  Increment(gb, chunk);
}

void VirtualCounts::OnChunkEvicted(GroupById gb, ChunkId chunk) {
  Decrement(gb, chunk);
}

// Paper Algorithm VCM_InsertUpdateCount: bump the count; if the chunk just
// became computable, each more-aggregated neighbour whose covering set is
// now fully computable gains one parent path.
void VirtualCounts::Increment(GroupById gb, ChunkId chunk) {
  uint8_t& count = counts_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))];
  AAC_CHECK_LT(count, 255);
  ++count;
  ++updates_applied_;
  if (count > 1) return;  // was already computable: children unaffected

  const ChunkGrid& grid = *grid_;
  for (GroupById child : grid.lattice().Children(gb)) {
    const ChunkId cc = grid.ChildChunkNumber(gb, chunk, child);
    const bool complete = grid.ForEachParentChunk(
        child, cc, gb, [&](ChunkId sibling) { return CountOf(gb, sibling) > 0; });
    // This chunk was the last missing piece of the path through `gb`.
    if (complete) Increment(child, cc);
  }
}

void VirtualCounts::Decrement(GroupById gb, ChunkId chunk) {
  uint8_t& count = counts_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))];
  AAC_CHECK_GT(count, 0);
  --count;
  ++updates_applied_;
  if (count > 0) return;  // still computable: children keep their paths

  const ChunkGrid& grid = *grid_;
  for (GroupById child : grid.lattice().Children(gb)) {
    const ChunkId cc = grid.ChildChunkNumber(gb, chunk, child);
    // The path through `gb` existed before exactly if every sibling other
    // than this chunk is computable (this chunk was, until now).
    const bool existed = grid.ForEachParentChunk(
        child, cc, gb, [&](ChunkId sibling) {
          return sibling == chunk || CountOf(gb, sibling) > 0;
        });
    if (existed) Decrement(child, cc);
  }
}

std::vector<uint8_t> VirtualCounts::ComputeFromScratch() const {
  const ChunkGrid& grid = *grid_;
  const Lattice& lattice = grid.lattice();
  std::vector<uint8_t> counts(
      static_cast<size_t>(grid.TotalChunksAllGroupBys()), 0);
  // Detailed levels first: a chunk's count depends only on strictly more
  // detailed group-bys.
  for (GroupById gb : lattice.TopoDetailedFirst()) {
    for (ChunkId chunk = 0; chunk < grid.NumChunks(gb); ++chunk) {
      int32_t count =
          cache_->Contains({gb, chunk}) ? 1 : 0;
      for (GroupById parent : lattice.Parents(gb)) {
        const bool complete = grid.ForEachParentChunk(
            gb, chunk, parent, [&](ChunkId pc) {
              return counts[static_cast<size_t>(
                         grid.FlatIndex(parent, pc))] != 0;
            });
        if (complete) ++count;
      }
      counts[static_cast<size_t>(grid.FlatIndex(gb, chunk))] =
          static_cast<uint8_t>(count);
    }
  }
  return counts;
}

void VirtualCounts::Rebuild() { counts_ = ComputeFromScratch(); }

}  // namespace aac
