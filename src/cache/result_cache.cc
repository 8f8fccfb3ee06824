#include "cache/result_cache.h"

#include <algorithm>
#include <cmath>

#include "cache/replacement.h"
#include "util/check.h"

namespace aac {

ResultCache::ResultCache(Config config) : config_(config) {
  AAC_CHECK(config_.capacity_bytes > 0);
  AAC_CHECK(config_.bytes_per_tuple > 0);
  AAC_CHECK(config_.max_entry_fraction > 0.0);
}

bool ResultCache::Probe(const ResultCacheKey& key, std::vector<ChunkData>* out) {
  AAC_CHECK(out != nullptr);
  MutexLock lock(mutex_);
  ++stats_.probes;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  ring_.Refresh(it->second.ring_pos,
                ReplacementPolicy::NormalizedWeight(it->second.benefit));
  *out = it->second.chunks;  // copy under the lock; the caller owns it
  return true;
}

namespace {

// The stored payload is the ANSWER, not the raw chunks: cells outside the
// key's value ranges are dropped at admission. Chunk alignment (ids) is
// kept — invalidation maps base writes onto it — and a hit's RefineResult
// rows are bit-identical to a cold fold's, because RefineResult filters
// with exactly this predicate. Trimming is what makes dashboard-tile
// entries small: a tile slicing 10% of each covering chunk stores 10% of
// the bytes the chunk cache would re-copy on every repeat.
//
// Returns false, as soon as the answer's logical bytes pass `max_bytes`,
// with `*out` partly built: whole-level answers over the entry cap are
// rejected without copying them.
bool TrimToKey(const ResultCacheKey& key, const std::vector<ChunkData>& chunks,
               int64_t bytes_per_tuple, double max_bytes, int64_t* bytes,
               std::vector<ChunkData>* out) {
  const int nd = key.level.size();
  *bytes = 0;
  out->reserve(chunks.size());
  for (const ChunkData& data : chunks) {
    ChunkData& trimmed = out->emplace_back();
    trimmed.gb = data.gb;
    trimmed.chunk = data.chunk;
    for (const Cell& cell : data.cells) {
      bool inside = true;
      for (int d = 0; d < nd; ++d) {
        const auto [lo, hi] = key.ranges[static_cast<size_t>(d)];
        const int32_t v = cell.values[static_cast<size_t>(d)];
        if (v < lo || v >= hi) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      *bytes += bytes_per_tuple;
      if (static_cast<double>(*bytes) > max_bytes) return false;
      trimmed.cells.push_back(cell);
    }
  }
  return true;
}

}  // namespace

bool ResultCache::MaybeAdmit(const ResultCacheKey& key, GroupById gb,
                             const std::vector<ChunkData>& chunks,
                             double cost_tuples) {
  // The entry cap is checked while trimming, so an oversized answer is
  // copied only up to the cap.
  std::vector<ChunkData> answer;
  int64_t bytes = 0;
  if (!TrimToKey(key, chunks, config_.bytes_per_tuple,
                 config_.max_entry_fraction *
                     static_cast<double>(config_.capacity_bytes),
                 &bytes, &answer)) {
    MutexLock lock(mutex_);
    ++stats_.rejected;
    return entries_.count(key) > 0;
  }
  std::vector<ChunkId> ids;
  ids.reserve(answer.size());
  for (const ChunkData& data : answer) {
    AAC_DCHECK_EQ(data.gb, gb);
    ids.push_back(data.chunk);
  }
  std::sort(ids.begin(), ids.end());

  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replace in place (e.g. re-admission after invalidation dropped the
    // old answer between this query's probe and its finish).
    const int64_t delta = bytes - it->second.bytes;
    const int64_t needed = bytes_used_ + delta - config_.capacity_bytes;
    if (needed > 0 && !EvictFor(needed, &key)) {
      ++stats_.rejected;
      return true;  // old answer stays; it is still correct
    }
    it = entries_.find(key);  // EvictFor invalidates iterators, never `key`
    AAC_CHECK(it != entries_.end());
    bytes_used_ += delta;
    it->second.gb = gb;
    it->second.chunks = std::move(answer);
    it->second.chunk_ids = std::move(ids);
    it->second.bytes = bytes;
    it->second.benefit = cost_tuples;
    ring_.Refresh(it->second.ring_pos,
                  ReplacementPolicy::NormalizedWeight(cost_tuples));
    ++stats_.admitted;
    return true;
  }
  const int64_t needed = bytes_used_ + bytes - config_.capacity_bytes;
  if (needed > 0 && !EvictFor(needed, /*protect=*/nullptr)) {
    ++stats_.rejected;
    return false;
  }
  Entry entry;
  entry.gb = gb;
  entry.chunks = std::move(answer);
  entry.chunk_ids = std::move(ids);
  entry.bytes = bytes;
  entry.benefit = cost_tuples;
  entry.ring_pos =
      ring_.Add(key, ReplacementPolicy::NormalizedWeight(cost_tuples));
  bytes_used_ += bytes;
  entries_.emplace(key, std::move(entry));
  ++stats_.admitted;
  return true;
}

bool ResultCache::EvictFor(int64_t needed, const ResultCacheKey* protect) {
  return ring_.Sweep(
      entries_, needed,
      [protect](const ResultCacheKey& key, const Entry&) {
        return protect == nullptr || key != *protect;
      },
      [this](EntryMap::iterator it) AAC_NO_THREAD_SAFETY_ANALYSIS {
        const int64_t bytes = it->second.bytes;
        DropEntry(it, &ResultCacheStats::evictions);
        return bytes;
      });
}

void ResultCache::DropEntry(EntryMap::iterator it,
                            int64_t ResultCacheStats::*counter) {
  ring_.Erase(it->second.ring_pos);
  bytes_used_ -= it->second.bytes;
  stats_.*counter += 1;
  entries_.erase(it);
}

int64_t ResultCache::InvalidateForBaseChunks(
    const ChunkGrid& grid, std::span<const ChunkId> base_chunks) {
  const GroupById base = grid.lattice().base_id();
  MutexLock lock(mutex_);
  int64_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& entry = it->second;
    bool stale = false;
    for (ChunkId base_chunk : base_chunks) {
      const ChunkId affected =
          grid.ChildChunkNumber(base, base_chunk, entry.gb);
      if (std::binary_search(entry.chunk_ids.begin(), entry.chunk_ids.end(),
                             affected)) {
        stale = true;
        break;
      }
    }
    if (stale) {
      auto doomed = it++;
      DropEntry(doomed, &ResultCacheStats::invalidated);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void ResultCache::InvalidateChunk(const CacheKey& key) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& entry = it->second;
    if (entry.gb == key.gb &&
        std::binary_search(entry.chunk_ids.begin(), entry.chunk_ids.end(),
                           key.chunk)) {
      auto doomed = it++;
      DropEntry(doomed, &ResultCacheStats::invalidated);
    } else {
      ++it;
    }
  }
}

void ResultCache::OnInsert(const CacheKey& key, int64_t tuples) {
  // A chunk becoming cached doesn't change what any stored answer means.
  (void)key;
  (void)tuples;
}

void ResultCache::OnUpdate(const CacheKey& key, int64_t tuples) {
  (void)tuples;
  MutexLock lock(mutex_);
  InvalidateChunk(key);
}

void ResultCache::OnEvict(const CacheKey& key) {
  // Capacity eviction in the chunk cache never makes a stored answer wrong;
  // explicit removals that DO signal staleness (base writes) flow through
  // ApplyFactUpdates -> InvalidateForBaseChunks instead, because from here
  // an invalidation Remove is indistinguishable from a capacity eviction.
  (void)key;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void ResultCache::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = ResultCacheStats();
}

int64_t ResultCache::bytes_used() const {
  MutexLock lock(mutex_);
  return bytes_used_;
}

size_t ResultCache::num_entries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool ResultCache::ValidateInvariants() const {
  MutexLock lock(mutex_);
  int64_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    int64_t entry_bytes = 0;
    for (const ChunkData& data : entry.chunks) {
      if (data.gb != entry.gb) return false;
      entry_bytes += data.LogicalBytes(config_.bytes_per_tuple);
    }
    if (entry_bytes != entry.bytes) return false;
    if (!std::is_sorted(entry.chunk_ids.begin(), entry.chunk_ids.end()))
      return false;
    if (entry.chunk_ids.size() != entry.chunks.size()) return false;
    bytes += entry.bytes;
  }
  if (bytes != bytes_used_) return false;
  if (bytes_used_ > config_.capacity_bytes) return false;
  return ring_.Validate(entries_, [](const Entry&) { return true; });
}

}  // namespace aac
