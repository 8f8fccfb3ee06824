#ifndef AAC_CACHE_RESULT_CACHE_H_
#define AAC_CACHE_RESULT_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache_entry.h"
#include "chunks/chunk_grid.h"
#include "schema/level_vector.h"
#include "storage/chunk_data.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Canonical identity of a query *answer*: the collapsed level vector plus
/// the normalized per-dimension value ranges. Built by
/// core/query_canon.h's CanonicalResultKey so every spelling of the same
/// semantic query (permuted predicates, equivalent level-vector spellings,
/// any aggregate function) maps to one key. The aggregate function is
/// deliberately absent: cached answers carry the full distributive state
/// (sum/count/min/max), so one entry serves SUM, COUNT, MIN, MAX and AVG.
struct ResultCacheKey {
  LevelVector level;
  /// Half-open [lo, hi) per dimension; slots at and beyond level.size()
  /// are zeroed by canonicalization so equality and hashing never read
  /// garbage.
  std::array<std::pair<int32_t, int32_t>, kMaxDims> ranges{};
  /// 64-bit FNV-1a over (size, levels, ranges); precomputed so the hash is
  /// one load. Equality still compares the full fields — a digest collision
  /// must never alias two different queries onto one answer.
  uint64_t digest = 0;

  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    if (a.level != b.level) return false;
    for (int d = 0; d < a.level.size(); ++d) {
      if (a.ranges[static_cast<size_t>(d)] != b.ranges[static_cast<size_t>(d)])
        return false;
    }
    return true;
  }
  friend bool operator!=(const ResultCacheKey& a, const ResultCacheKey& b) {
    return !(a == b);
  }
};

struct ResultCacheKeyHash {
  size_t operator()(const ResultCacheKey& k) const {
    return static_cast<size_t>(k.digest);
  }
};

/// Running totals of result-cache activity.
struct ResultCacheStats {
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;     // below the cost bar, oversized, or CLOCK refused
  int64_t evictions = 0;    // capacity evictions (answers stay correct)
  int64_t invalidated = 0;  // dropped because underlying data changed
};

/// Semantic result cache: finished query answers keyed by canonical query,
/// one layer above the chunk cache ("Don't Trash your Intermediate Results,
/// Cache 'em" applied to the group-by lattice).
///
/// Each entry stores the complete chunk-aligned answer to one canonical
/// query — the engine's fold output trimmed to the key's value ranges, so
/// the payload is the answer, not the covering chunks — with its own benefit
/// weight (the tuples of fold + backend work a future hit avoids) and
/// logical byte accounting, under the same weighted-CLOCK discipline as the
/// chunk cache (ReplacementPolicy::NormalizedWeight compresses benefit to a
/// bounded clock weight). Admission is cost-based: answers cheaper to
/// recompute than `Config::min_admit_cost_tuples` are not worth a slot, and
/// no entry may take more than `Config::max_entry_fraction` of capacity.
///
/// Invalidation contract (DESIGN.md §12): capacity eviction never makes an
/// answer wrong, so eviction is silent. An entry must be *invalidated* when
/// the data under it changes, which reaches this cache on two paths:
///  - Base writes: ApplyFactUpdates calls InvalidateForBaseChunks before
///    it touches the chunk cache; the lattice closure property maps each
///    changed base chunk to exactly one chunk per group-by
///    (ChildChunkNumber), and any entry whose chunk set contains an
///    affected chunk is dropped.
///  - Chunk-cache payload changes: as a CacheListener, OnUpdate — fired
///    when Insert over an existing key swaps a chunk's payload, or when a
///    base write patches it in place — drops every entry built over that
///    (group-by, chunk). OnInsert/OnEvict are ignored: membership changes
///    don't alter what cached answers mean.
///
/// Concurrency: one mutex guards all state; Probe copies under the lock.
/// OnUpdate arrives while a chunk-cache shard lock is held, extending the
/// global lock order to "cache shard -> result cache"; this class never
/// calls into the chunk cache, so the order cannot invert.
class ResultCache : public CacheListener {
 public:
  struct Config {
    int64_t capacity_bytes = 4 << 20;
    /// Logical accounting size of one cached tuple (match the chunk cache).
    int64_t bytes_per_tuple = 20;
    /// Answers whose recompute cost (in tuples of fold + backend-scan work)
    /// is below this are not admitted — a result slot must pay for itself.
    double min_admit_cost_tuples = 0.0;
    /// No single answer may occupy more than this fraction of capacity.
    double max_entry_fraction = 0.5;
  };

  explicit ResultCache(Config config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  int64_t capacity_bytes() const { return config_.capacity_bytes; }

  /// Looks up the canonical key; on a hit copies the stored chunk-aligned
  /// answer into `*out` and refreshes the entry's clock value. Counts a
  /// probe plus a hit or miss.
  bool Probe(const ResultCacheKey& key, std::vector<ChunkData>* out);

  /// Cost-based admission of a finished answer: `cost_tuples` is what
  /// recomputing it would cost (tuples folded plus backend scan-tuple
  /// equivalents). Rejects answers below the cost bar or over the size cap;
  /// otherwise evicts CLOCK victims until the answer fits. Cells outside
  /// the key's value ranges are trimmed before storing (RefineResult's
  /// predicate), so byte accounting charges the answer, not the covering
  /// chunks. Admitting over an existing key replaces the stored answer in
  /// place. Every chunk must belong to group-by `gb` (one query folds at
  /// one group-by). Returns true if the answer is cached on exit.
  bool MaybeAdmit(const ResultCacheKey& key, GroupById gb,
                  const std::vector<ChunkData>& chunks, double cost_tuples);

  /// Drops every entry whose answer derives from any of `base_chunks` (base
  /// group-by chunk ids), via the same closure-property mapping the chunk
  /// cache's invalidator uses: a base chunk touches exactly one chunk of
  /// each entry's group-by (grid.ChildChunkNumber). Returns entries
  /// dropped. ApplyFactUpdates calls this first, so the answers it drops
  /// are counted here rather than by the OnUpdate its patches fire.
  int64_t InvalidateForBaseChunks(const ChunkGrid& grid,
                                  std::span<const ChunkId> base_chunks);

  /// CacheListener over the chunk cache. OnUpdate means a cached chunk's
  /// payload was replaced or patched in place — any answer folded over it
  /// is stale.
  /// Fired under a chunk-cache shard lock; see the class comment.
  void OnInsert(const CacheKey& key, int64_t tuples) override;
  void OnUpdate(const CacheKey& key, int64_t tuples) override;
  void OnEvict(const CacheKey& key) override;

  void Clear();

  ResultCacheStats stats() const;
  void ResetStats();
  int64_t bytes_used() const;
  size_t num_entries() const;

  /// Structural self-check: byte accounting matches entry sums, the ring
  /// and map round-trip, the hand points into the ring, capacity holds.
  /// For tests on a quiesced cache.
  bool ValidateInvariants() const;

 private:
  struct Entry {
    GroupById gb = -1;
    std::vector<ChunkData> chunks;
    /// Chunk ids of `chunks`, sorted, for invalidation membership tests.
    std::vector<ChunkId> chunk_ids;
    int64_t bytes = 0;
    double benefit = 0.0;  // recompute cost in tuples
    double clock_value = 0.0;
    std::list<ResultCacheKey>::iterator ring_pos;
  };

  using EntryMap = std::unordered_map<ResultCacheKey, Entry, ResultCacheKeyHash>;

  /// Frees at least `needed` bytes by sweeping the CLOCK ring; returns true
  /// on success. `protect` (may be null) is skipped without decrement — the
  /// replace-in-place path must not evict the key it is replacing.
  bool EvictFor(int64_t needed, const ResultCacheKey* protect)
      AAC_REQUIRES(mutex_);

  /// Removes `it`, charging `counter` (evictions vs. invalidations).
  void DropEntry(EntryMap::iterator it, int64_t ResultCacheStats::*counter)
      AAC_REQUIRES(mutex_);

  /// Drops every entry containing chunk `key`; OnUpdate's worker.
  void InvalidateChunk(const CacheKey& key) AAC_REQUIRES(mutex_);

  const Config config_;
  mutable Mutex mutex_{LockRank::kResultCache, "result_cache"};
  EntryMap entries_ AAC_GUARDED_BY(mutex_);
  std::list<ResultCacheKey> ring_ AAC_GUARDED_BY(mutex_);
  std::list<ResultCacheKey>::iterator hand_ AAC_GUARDED_BY(mutex_);
  int64_t bytes_used_ AAC_GUARDED_BY(mutex_) = 0;
  ResultCacheStats stats_ AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_CACHE_RESULT_CACHE_H_
