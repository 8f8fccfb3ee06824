#ifndef AAC_CACHE_SNAPSHOT_H_
#define AAC_CACHE_SNAPSHOT_H_

#include <string>

#include "cache/chunk_cache.h"
#include "chunks/chunk_grid.h"

namespace aac {

/// Warm-restart support: serializes the cache's chunks (with their benefit
/// and provenance) to a file and reloads them through the normal Insert
/// path, so the virtual-count strategies rebuild their summary state via
/// the listeners. An extension beyond the paper — a middle tier that
/// restarts cold loses exactly the working set the two-level policy spent
/// the whole session assembling.
///
/// Format: magic "AACS" | u32 version | u32 num_dims | i64 num_entries |
/// per entry { i32 gb, i64 chunk, u8 source, f64 benefit, i64 cells,
/// cells x tuple }.
class CacheSnapshot {
 public:
  /// Writes all cache entries to `path`. Returns false on I/O failure.
  static bool Save(const ChunkCache& cache, const ChunkGrid& grid,
                   const std::string& path);

  /// Inserts the snapshot's entries into `cache` (normal admission applies:
  /// a smaller cache loads what fits). Returns the number of chunks
  /// restored, or -1 on a corrupt/unreadable snapshot, or on any id outside
  /// `grid` or outside its chunk.
  static int64_t Load(const std::string& path, const ChunkGrid& grid,
                      ChunkCache* cache);
};

}  // namespace aac

#endif  // AAC_CACHE_SNAPSHOT_H_
