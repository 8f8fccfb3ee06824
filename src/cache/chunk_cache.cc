#include "cache/chunk_cache.h"

#include <utility>

#include "util/check.h"

namespace aac {

ChunkCache::ChunkCache(int64_t capacity_bytes, int64_t bytes_per_tuple,
                       const ReplacementPolicy* policy, int num_shards)
    : capacity_bytes_(capacity_bytes),
      bytes_per_tuple_(bytes_per_tuple),
      policy_(policy) {
  AAC_CHECK_GE(capacity_bytes, 0);
  AAC_CHECK_GT(bytes_per_tuple, 0);
  AAC_CHECK(policy != nullptr);
  AAC_CHECK_GE(num_shards, 1);
  const auto classes = static_cast<size_t>(policy->num_victim_classes());
  AAC_CHECK_GE(policy->num_victim_classes(), 1);
  shards_.reserve(static_cast<size_t>(num_shards));
  const int64_t base = capacity_bytes / num_shards;
  const int64_t remainder = capacity_bytes % num_shards;
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(base + (s < remainder ? 1 : 0), classes));
  }
}

void ChunkCache::AddListener(CacheListener* listener) {
  AAC_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

int64_t ChunkCache::bytes_used() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->bytes_used;
  }
  return total;
}

size_t ChunkCache::num_entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

CacheStats ChunkCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.inserts += shard->stats.inserts;
    total.rejected_inserts += shard->stats.rejected_inserts;
    total.evictions += shard->stats.evictions;
    total.demotions += shard->stats.demotions;
    total.demoted_bytes += shard->stats.demoted_bytes;
    total.patched += shard->stats.patched;
  }
  return total;
}

void ChunkCache::ResetStats() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->stats = CacheStats();
  }
}

bool ChunkCache::Contains(const CacheKey& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  return shard.entries.count(key) > 0;
}

const ChunkData* ChunkCache::Peek(const CacheKey& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : &it->second.data;
}

bool ChunkCache::GetCopy(const CacheKey& key, ChunkData* out) {
  AAC_CHECK(out != nullptr);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  const Entry* entry = Use(shard, key);
  if (entry != nullptr) *out = entry->data;
  return entry != nullptr;
}

const ChunkData* ChunkCache::GetPinned(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  Entry* entry = Use(shard, key);
  if (entry == nullptr) return nullptr;
  ++entry->pin_count;
  return &entry->data;
}

bool ChunkCache::Insert(ChunkData data, double benefit, ChunkSource source,
                        EncodedBlob blob) {
  const CacheKey key{data.gb, data.chunk};
  CacheEntryInfo info;
  info.key = key;
  info.bytes = data.LogicalBytes(bytes_per_tuple_);
  info.benefit = benefit;
  info.source = source;
  const auto tuples = static_cast<int64_t>(data.tuple_count());

  Shard& shard = ShardFor(key);
  std::vector<Demoted> demoted;
  bool erase_sink = false;
  bool inserted;
  {
    MutexLock lock(shard.mutex);
    inserted = InsertLocked(shard, key, info, std::move(data), std::move(blob),
                            tuples, &demoted, &erase_sink);
  }
  // Sink calls run with no shard lock held. Victims demote even when the
  // insert itself was ultimately rejected — their bytes already left the
  // hot budget. A successful insert also purges the key from lower tiers
  // (single authoritative copy; a stale demoted blob must never be
  // promoted over this fresher data).
  if (sink_ != nullptr) {
    for (Demoted& d : demoted) {
      sink_->OnDemoteEncoded(d.info, std::move(d.data), std::move(d.blob));
    }
    if (erase_sink) sink_->OnErase(key);
  }
  return inserted;
}

bool ChunkCache::InsertLocked(Shard& shard, const CacheKey& key,
                              const CacheEntryInfo& info, ChunkData&& data,
                              EncodedBlob&& blob, int64_t tuples,
                              std::vector<Demoted>* demoted,
                              bool* erase_sink) {
  auto existing = shard.entries.find(key);
  if (existing != shard.entries.end()) {
    Entry& entry = existing->second;
    if (entry.pin_count > 0) {
      // A reader holds the data; swapping it out would invalidate the
      // pinned pointer. Treat the insert as a use only.
      Touch(shard, entry);
      return true;
    }
    if (!MakeRoomToResize(shard, entry, info, demoted)) {
      ++shard.stats.rejected_inserts;
      return false;
    }
    const int new_class = policy_->VictimClass(info);
    AAC_CHECK(new_class >= 0 && new_class < policy_->num_victim_classes());
    const int old_class = entry.victim_class;
    shard.bytes_used += info.bytes - entry.info.bytes;
    shard.class_bytes[static_cast<size_t>(old_class)] -= entry.info.bytes;
    shard.class_bytes[static_cast<size_t>(new_class)] += info.bytes;
    if (new_class != old_class) {
      shard.rings[static_cast<size_t>(old_class)].Erase(entry.ring_pos);
      entry.ring_pos =
          shard.rings[static_cast<size_t>(new_class)].Add(key, 0.0);
    }
    entry.data = std::move(data);
    entry.blob = std::move(blob);
    entry.sorted = false;
    entry.info = info;
    entry.victim_class = new_class;
    Touch(shard, entry);
    *erase_sink = true;
    for (CacheListener* l : listeners_) l->OnUpdate(key, tuples);
    return true;
  }

  if (info.bytes > shard.capacity) {
    ++shard.stats.rejected_inserts;
    return false;
  }

  const int64_t needed = shard.bytes_used + info.bytes - shard.capacity;
  if (needed > 0 && !EvictFor(shard, info, needed, demoted)) {
    ++shard.stats.rejected_inserts;
    return false;
  }

  const int victim_class = policy_->VictimClass(info);
  AAC_CHECK(victim_class >= 0 && victim_class < policy_->num_victim_classes());
  Entry entry;
  entry.data = std::move(data);
  entry.blob = std::move(blob);
  entry.info = info;
  entry.victim_class = victim_class;
  entry.ring_pos = shard.rings[static_cast<size_t>(victim_class)].Add(
      key, policy_->ClockValue(info));
  shard.bytes_used += info.bytes;
  shard.class_bytes[static_cast<size_t>(victim_class)] += info.bytes;
  shard.entries.emplace(key, std::move(entry));
  ++shard.stats.inserts;
  *erase_sink = true;
  for (CacheListener* l : listeners_) l->OnInsert(key, tuples);
  return true;
}

bool ChunkCache::Remove(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  bool removed = false;
  {
    MutexLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      AAC_CHECK_EQ(it->second.pin_count, 0);
      EvictEntry(shard, it, /*demoted=*/nullptr);
      removed = true;
    }
  }
  // Explicit removal is invalidation: purge lower tiers unconditionally —
  // the key may live only in warm/disk after a hot eviction. The return
  // value still reports hot-tier residency only.
  if (sink_ != nullptr) sink_->OnErase(key);
  return removed;
}

ChunkCache::PatchOutcome ChunkCache::Patch(const CacheKey& key, int num_dims,
                                           std::span<const Cell> cells) {
  Shard& shard = ShardFor(key);
  std::vector<Demoted> demoted;
  PatchOutcome outcome = PatchOutcome::kNotHot;
  {
    MutexLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      Entry& entry = it->second;
      AAC_CHECK_EQ(entry.pin_count, 0);
      // Merged before the room check: an entry that then does not fit is
      // removed, so its changed cells are never seen.
      const size_t fresh =
          MergeCellRun(num_dims, &entry.data.cells, cells, entry.sorted);
      entry.sorted = true;
      entry.blob.reset();
      CacheEntryInfo grown = entry.info;
      grown.bytes += static_cast<int64_t>(fresh) * bytes_per_tuple_;
      if (MakeRoomToResize(shard, entry, grown, &demoted)) {
        const int64_t growth = grown.bytes - entry.info.bytes;
        shard.bytes_used += growth;
        shard.class_bytes[static_cast<size_t>(entry.victim_class)] += growth;
        entry.info = grown;
        ++shard.stats.patched;
        outcome = PatchOutcome::kPatched;
        const auto tuples = static_cast<int64_t>(entry.data.cells.size());
        for (CacheListener* l : listeners_) l->OnUpdate(key, tuples);
      } else {
        EvictEntry(shard, it, /*demoted=*/nullptr);
        outcome = PatchOutcome::kRemoved;
      }
    }
  }
  // As in Insert: victims demote even when the entry was removed, and a
  // patched or removed key's lower-tier copies are purged. A key the hot
  // tier lacks hands its cells down instead.
  if (sink_ != nullptr) {
    for (Demoted& d : demoted) {
      sink_->OnDemoteEncoded(d.info, std::move(d.data), std::move(d.blob));
    }
    if (outcome == PatchOutcome::kNotHot) {
      sink_->OnWrite(key, cells);
    } else {
      sink_->OnErase(key);
    }
  }
  return outcome;
}

void ChunkCache::Boost(const CacheKey& key, double amount) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  shard.rings[static_cast<size_t>(it->second.victim_class)].Boost(
      it->second.ring_pos, amount);
}

void ChunkCache::Pin(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  AAC_CHECK(it != shard.entries.end());
  ++it->second.pin_count;
}

void ChunkCache::Unpin(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  AAC_CHECK(it != shard.entries.end());
  AAC_CHECK_GT(it->second.pin_count, 0);
  --it->second.pin_count;
}

void ChunkCache::ForEach(
    const std::function<void(const CacheEntryInfo&)>& fn) const {
  // Snapshot first so the callback runs without a shard lock and may call
  // back into the cache (the VCM constructor Peeks every visited key).
  std::vector<CacheEntryInfo> infos;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) infos.push_back(entry.info);
  }
  for (const CacheEntryInfo& info : infos) fn(info);
}

bool ChunkCache::ValidateInvariants() const {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const size_t classes = shard->rings.size();
    int64_t bytes = 0;
    std::vector<int64_t> class_bytes(classes, 0);
    for (const auto& [key, entry] : shard->entries) {
      if (!(key == entry.info.key)) return false;
      if (entry.info.bytes < 0 || entry.pin_count < 0) return false;
      if (entry.victim_class < 0 ||
          entry.victim_class >= static_cast<int>(classes)) {
        return false;
      }
      bytes += entry.info.bytes;
      class_bytes[static_cast<size_t>(entry.victim_class)] += entry.info.bytes;
    }
    if (bytes != shard->bytes_used) return false;
    if (shard->bytes_used > shard->capacity) return false;
    if (class_bytes != shard->class_bytes) return false;
    for (size_t c = 0; c < classes; ++c) {
      if (!shard->rings[c].Validate(shard->entries, [c](const Entry& entry) {
            return entry.victim_class == static_cast<int>(c);
          })) {
        return false;
      }
    }
  }
  return true;
}

int64_t ChunkCache::TotalPinCount() const {
  int64_t pins = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) pins += entry.pin_count;
  }
  return pins;
}

bool ChunkCache::MakeRoomToResize(Shard& shard, Entry& entry,
                                  const CacheEntryInfo& resized,
                                  std::vector<Demoted>* demoted) {
  if (resized.bytes > shard.capacity) return false;
  const int64_t needed =
      shard.bytes_used - entry.info.bytes + resized.bytes - shard.capacity;
  if (needed <= 0) return true;
  // Shield the entry being resized from its own eviction sweep.
  ++entry.pin_count;
  const bool evicted = EvictFor(shard, resized, needed, demoted);
  --entry.pin_count;
  return evicted;
}

bool ChunkCache::EvictFor(Shard& shard, const CacheEntryInfo& incoming,
                          int64_t needed, std::vector<Demoted>* demoted) {
  // Fast reject: not enough evictable bytes in the classes this chunk may
  // replace — no point sweeping.
  int64_t available = 0;
  for (int victim_class = 0; victim_class < policy_->num_victim_classes();
       ++victim_class) {
    if (policy_->MayReplaceClass(incoming, victim_class)) {
      available += shard.class_bytes[static_cast<size_t>(victim_class)];
    }
  }
  if (available < needed) return false;

  // Victims are taken class by class (the two-level policy evicts all
  // cache-computed chunks before touching any backend chunk). Within a
  // class, the weighted CLOCK decides.
  int64_t freed = 0;
  auto eligible = [](const CacheKey&, const Entry& entry) {
    return entry.pin_count == 0;
  };
  auto evict = [&](EntryMap::iterator it) AAC_NO_THREAD_SAFETY_ANALYSIS {
    const int64_t bytes = it->second.info.bytes;
    EvictEntry(shard, it, demoted);
    freed += bytes;
    return bytes;
  };
  for (int victim_class = 0;
       victim_class < policy_->num_victim_classes() && freed < needed;
       ++victim_class) {
    if (!policy_->MayReplaceClass(incoming, victim_class)) continue;
    shard.rings[static_cast<size_t>(victim_class)].Sweep(
        shard.entries, needed - freed, eligible, evict);
  }
  return freed >= needed;
}

ChunkCache::Entry* ChunkCache::Use(Shard& shard, const CacheKey& key) {
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  Touch(shard, it->second);
  return &it->second;
}

void ChunkCache::Touch(Shard& shard, const Entry& entry) {
  shard.rings[static_cast<size_t>(entry.victim_class)].Refresh(
      entry.ring_pos, policy_->ClockValue(entry.info));
}

void ChunkCache::EvictEntry(Shard& shard, EntryMap::iterator it,
                            std::vector<Demoted>* demoted) {
  const CacheKey key = it->first;
  const auto victim_class = static_cast<size_t>(it->second.victim_class);
  shard.rings[victim_class].Erase(it->second.ring_pos);
  shard.bytes_used -= it->second.info.bytes;
  shard.class_bytes[victim_class] -= it->second.info.bytes;
  if (demoted != nullptr && sink_ != nullptr) {
    // Demotion: the bytes left the hot budget in this same critical
    // section, so the entry is never charged to two tiers at once. The
    // sink sees the data only after the caller drops the shard lock.
    ++shard.stats.demotions;
    shard.stats.demoted_bytes += it->second.info.bytes;
    demoted->push_back(Demoted{it->second.info, std::move(it->second.data),
                               std::move(it->second.blob)});
  }
  shard.entries.erase(it);
  ++shard.stats.evictions;
  for (CacheListener* l : listeners_) l->OnEvict(key);
}

}  // namespace aac
