#ifndef AAC_CORE_VIRTUAL_COUNTS_H_
#define AAC_CORE_VIRTUAL_COUNTS_H_

#include <cstdint>
#include <vector>

#include "cache/chunk_cache.h"
#include "chunks/chunk_grid.h"

namespace aac {

/// The virtual-count array of paper Section 4, VCM's computability state
/// (VCMC derives computability from its costs instead).
///
/// For every chunk at every group-by level, maintains the *virtual count*:
/// the number of lattice parents through which a complete computation path
/// exists, plus one if the chunk is itself cached. Property 1 of the paper:
/// the count is non-zero iff the chunk is computable from the cache, so
/// computability tests are O(1).
///
/// `OnChunkInserted` / `OnChunkEvicted` implement the paper's
/// VCM_InsertUpdateCount algorithm and its deletion counterpart: updates
/// propagate toward more aggregated levels only while chunks switch between
/// computable and non-computable, which keeps amortized maintenance cheap
/// (Lemma 2 bounds one insert by n * prod(l_i + 1) updates).
class VirtualCounts {
 public:
  /// `grid` and `cache` must outlive this object. Initializes counts from
  /// the cache's current contents.
  VirtualCounts(const ChunkGrid* grid, const ChunkCache* cache);

  /// Count of (gb, chunk); non-zero iff computable from the cache.
  int32_t CountOf(GroupById gb, ChunkId chunk) const {
    return counts_[static_cast<size_t>(grid_->FlatIndex(gb, chunk))];
  }

  bool IsComputable(GroupById gb, ChunkId chunk) const {
    return CountOf(gb, chunk) > 0;
  }

  /// Among the lattice parents of `gb`, returns the first through which a
  /// complete path exists for `chunk` (every covering chunk computable), or
  /// -1 if none. This is the constant-work step of the VCM plan walk.
  GroupById FindParentWithCompletePath(GroupById gb, ChunkId chunk) const;

  /// Maintenance hooks (paper Section 4.1).
  void OnChunkInserted(GroupById gb, ChunkId chunk);
  void OnChunkEvicted(GroupById gb, ChunkId chunk);

  /// Recomputes all counts from the cache in one topological pass; the
  /// incremental maintenance must always agree with this (tested).
  std::vector<uint8_t> ComputeFromScratch() const;

  /// Replaces the maintained counts with a fresh from-scratch computation.
  void Rebuild();

  /// Bytes of count state (1 byte per chunk; paper Table 3).
  int64_t SpaceBytes() const {
    return static_cast<int64_t>(counts_.size());
  }

  /// Cumulative number of count-array writes (Table 2's update cost driver).
  int64_t updates_applied() const { return updates_applied_; }

 private:
  void Increment(GroupById gb, ChunkId chunk);
  void Decrement(GroupById gb, ChunkId chunk);

  const ChunkGrid* grid_;
  const ChunkCache* cache_;
  std::vector<uint8_t> counts_;
  int64_t updates_applied_ = 0;
};

}  // namespace aac

#endif  // AAC_CORE_VIRTUAL_COUNTS_H_
