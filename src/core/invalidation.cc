#include "core/invalidation.h"

#include <span>
#include <vector>

#include "storage/chunk_data.h"
#include "util/check.h"

namespace aac {

int64_t ApplyFactUpdates(FactTable* table, ChunkCache* cache,
                         const std::vector<Cell>& new_tuples,
                         ResultCache* results) {
  AAC_CHECK(table != nullptr);
  AAC_CHECK(cache != nullptr);
  const ChunkGrid& grid = table->grid();
  const std::vector<ChunkId> affected = table->ApplyInserts(new_tuples);
  int64_t dropped = 0;
  if (results != nullptr) {
    dropped += results->InvalidateForBaseChunks(grid, affected);
  }

  const Schema& schema = grid.schema();
  const Lattice& lattice = grid.lattice();
  const int nd = schema.num_dims();
  const LevelVector& base_lv = schema.base_level();
  std::vector<Cell> cells;
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const LevelVector& lv = lattice.LevelOf(gb);
    cells = new_tuples;
    for (Cell& c : cells) {
      for (int d = 0; d < nd; ++d) {
        auto& v = c.values[static_cast<size_t>(d)];
        v = schema.dimension(d).AncestorValue(base_lv[d], v, lv[d]);
      }
    }
    const std::vector<ChunkId> chunks = ClusterByChunk(grid, gb, &cells);
    // One patch per target chunk.
    for (size_t i = 0, end = 0; i < cells.size(); i = end) {
      while (end < cells.size() && chunks[end] == chunks[i]) ++end;
      const CacheKey key{gb, chunks[i]};
      const std::span<const Cell> run(cells.data() + i, end - i);
      if (cache->Patch(key, nd, run) == ChunkCache::PatchOutcome::kRemoved) {
        ++dropped;
      }
    }
  }
  return dropped;
}

}  // namespace aac
