#ifndef AAC_CACHE_CACHE_ENTRY_H_
#define AAC_CACHE_CACHE_ENTRY_H_

#include <cstdint>
#include <functional>

#include "chunks/chunk_grid.h"

namespace aac {

/// Identity of a cached chunk: which group-by, which chunk number.
struct CacheKey {
  GroupById gb = -1;
  ChunkId chunk = -1;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.gb == b.gb && a.chunk == b.chunk;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    return std::hash<int64_t>()((static_cast<int64_t>(k.gb) << 40) ^ k.chunk);
  }
};

/// How a chunk entered the cache. The paper's two-level replacement policy
/// gives chunks fetched from the backend strictly higher priority than
/// chunks computed by aggregating other cached chunks (Section 6.1).
enum class ChunkSource {
  kBackend,
  kCacheComputed,
};

/// Metadata the replacement policies see about an entry.
struct CacheEntryInfo {
  CacheKey key;
  int64_t bytes = 0;
  /// Estimated cost to recreate the chunk, in "tuples" units (backend scan
  /// tuples for backend chunks, tuples aggregated for cache-computed ones).
  double benefit = 0.0;
  ChunkSource source = ChunkSource::kBackend;
};

/// Observer of cache membership changes; the virtual-count strategies
/// subscribe to keep their Count/Cost arrays in sync (paper Section 4.1).
///
/// Concurrency contract: the cache invokes listeners while holding the
/// affected shard's lock, so per-key events arrive in cache order.
/// Listeners must NEVER call back into the cache (Contains/Peek/...) — that
/// would nest shard locks and deadlock. The `tuples` argument carries the
/// chunk's tuple count so listeners that need sizes (VCM's plan-cost
/// estimate) can maintain them without a cache read. Listeners that guard
/// their own state with a lock establish the global lock order
/// "cache shard -> listener/strategy"; see DESIGN.md (Concurrency model).
class CacheListener {
 public:
  virtual ~CacheListener() = default;

  /// A chunk became cached. `tuples` is its tuple count.
  virtual void OnInsert(const CacheKey& key, int64_t tuples) = 0;

  /// A cached chunk's data was replaced in place (re-insert over an existing
  /// key) or patched in place by a base write (ChunkCache::Patch).
  /// Membership is unchanged; only the payload/size changed. Default:
  /// ignore.
  virtual void OnUpdate(const CacheKey& key, int64_t tuples) {
    (void)key;
    (void)tuples;
  }

  /// A chunk left the cache (eviction or explicit removal).
  virtual void OnEvict(const CacheKey& key) = 0;
};

}  // namespace aac

#endif  // AAC_CACHE_CACHE_ENTRY_H_
