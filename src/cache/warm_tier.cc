#include "cache/warm_tier.h"

#include <algorithm>
#include <utility>

#include "cache/replacement.h"
#include "storage/chunk_codec.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {

WarmTier::WarmTier(Config config) : config_(std::move(config)) {
  AAC_CHECK_GE(config_.capacity_bytes, 0);
  AAC_CHECK_GT(config_.num_dims, 0);
}

WarmTier::~WarmTier() = default;

void WarmTier::OnDemote(const CacheEntryInfo& info, ChunkData&& data) {
  OnDemoteEncoded(info, std::move(data), nullptr);
}

void WarmTier::OnDemoteEncoded(const CacheEntryInfo& info, ChunkData&& data,
                               EncodedBlob blob) {
  if (info.bytes <= 0) {
    MutexLock lock(mutex_);
    ++stats_.offers;
    ++stats_.gate_rejected;
    return;
  }

  // A promoted chunk's blob is what encoding it would produce. Otherwise
  // encode off the mutex — compression must never stall probes.
  const bool reused = blob != nullptr;
  int64_t encode_ns = 0;
  if (!reused) {
    Stopwatch encode_timer;
    auto encoded_blob = std::make_shared<std::vector<uint8_t>>();
    EncodeChunk(config_.num_dims, data, encoded_blob.get());
    encode_ns = encode_timer.ElapsedNanos();
    blob = std::move(encoded_blob);
  }
  const int64_t encoded = static_cast<int64_t>(blob->size());

  std::vector<Entry> spilled;
  {
    MutexLock lock(mutex_);
    ++stats_.offers;
    stats_.encode_ns += encode_ns;
    stats_.reused_blobs += reused ? 1 : 0;
    if (encoded > config_.capacity_bytes) {
      ++stats_.capacity_rejected;
      return;
    }
    // Re-demotion over a stale resident copy replaces it.
    auto existing = entries_.find(info.key);
    if (existing != entries_.end()) DropEntry(existing);
    const int64_t needed = bytes_used_ + encoded - config_.capacity_bytes;
    if (needed > 0 && !EvictFor(needed, &spilled)) {
      ++stats_.capacity_rejected;
    } else {
      Entry entry;
      entry.blob = std::move(blob);
      entry.info = info;
      entry.ring_pos = ring_.Add(
          info.key, ReplacementPolicy::NormalizedWeight(info.benefit));
      bytes_used_ += encoded;
      entries_.emplace(info.key, std::move(entry));
      ++stats_.admits;
      stats_.demoted_raw_bytes += info.bytes;
      stats_.demoted_encoded_bytes += encoded;
    }
  }

  Spill(&spilled);
}

void WarmTier::OnErase(const CacheKey& key) {
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      DropEntry(it);
      ++stats_.erased;
    }
  }
  if (config_.disk != nullptr) config_.disk->Erase(key);
}

void WarmTier::OnWrite(const CacheKey& key, std::span<const Cell> cells) {
  bool kept = false;
  std::vector<Entry> spilled;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      kept = true;
      Entry& entry = it->second;
      const int64_t charged = entry.bytes();
      entry.pending.cells.insert(entry.pending.cells.end(), cells.begin(),
                                 cells.end());
      entry.pending.ends.push_back(
          static_cast<uint32_t>(entry.pending.cells.size()));
      ++stats_.appended_runs;
      // Runs that outgrow the blob cost more RAM than encoding them would.
      // Compacting under the mutex stalls no probe: writes are quiescent.
      bool intact = true;
      if (entry.pending.bytes() > static_cast<int64_t>(entry.blob->size())) {
        intact = Compact(&entry);
        ++(intact ? stats_.compactions : stats_.decode_failures);
      }
      bytes_used_ += entry.bytes() - charged;
      if (!intact) {
        DropEntry(it);
      } else if (bytes_used_ > config_.capacity_bytes) {
        EvictFor(bytes_used_ - config_.capacity_bytes, &spilled);
      }
    }
  }
  // A leader decoding the copy now would publish it without this write.
  if (kept) AAC_CHECK(!decodes_.InFlight(key));
  if (config_.disk != nullptr) config_.disk->Erase(key);
  Spill(&spilled);
}

bool WarmTier::Probe(const CacheKey& key, const ExecContext* ctx,
                     WarmProbeResult* out) {
  AAC_CHECK(out != nullptr);
  if (ctx != nullptr && ctx->ShouldAbort()) {
    MutexLock lock(mutex_);
    ++stats_.misses;
    return false;
  }

  EncodedBlob blob;
  PendingRuns pending;
  CacheEntryInfo info;
  bool from_disk = false;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      blob = it->second.blob;
      pending = it->second.pending;
      info = it->second.info;
      ring_.Refresh(it->second.ring_pos,
                    ReplacementPolicy::NormalizedWeight(info.benefit));
    } else if (config_.disk != nullptr && config_.disk->Contains(key)) {
      from_disk = true;
    } else {
      ++stats_.misses;
      return false;
    }
  }

  // Present: join the key's decode or lead it. No warm lock is held here,
  // because the single-flight locks rank before kWarmTier.
  std::shared_ptr<DecodeFlight::Slot> slot = decodes_.JoinOrLead(key);
  if (slot != nullptr) {
    // Follower: sleep on this key's slot until its leader resolves or
    // `ctx` aborts, then take a copy of the leader's result.
    const ExecContext no_deadline;
    const bool ok =
        decodes_.AwaitWithDeadline(*slot, ctx != nullptr ? *ctx : no_deadline,
                                   out) == DecodeFlight::AwaitStatus::kOk;
    MutexLock lock(mutex_);
    if (!ok) {
      ++stats_.misses;
      return false;
    }
    out->decode_ns = 0;  // the leader paid for the decode
    ++stats_.coalesced_decodes;
    ++(out->from_disk ? stats_.disk_hits : stats_.hits);
    return true;
  }

  // Leader: decode off the mutex; followers sleep on the slot meanwhile.
  bool ok = false;
  bool decode_failed = false;
  WarmProbeResult result;
  if (ctx == nullptr || !ctx->ShouldAbort()) {
    if (from_disk) {
      auto disk_blob = std::make_shared<std::vector<uint8_t>>();
      if (config_.disk->Read(key, disk_blob.get(), &info)) {
        blob = std::move(disk_blob);
        Stopwatch decode_timer;
        ok = DecodeChunk(config_.num_dims, blob->data(), blob->size(),
                         &result.data);
        result.decode_ns = decode_timer.ElapsedNanos();
        if (!ok) {
          decode_failed = true;
          config_.disk->Erase(key);
        }
      }
    } else {
      Stopwatch decode_timer;
      ok = Decode(*blob, pending, &result.data);
      result.decode_ns = decode_timer.ElapsedNanos();
      decode_failed = !ok;
    }
  }

  {
    MutexLock lock(mutex_);
    stats_.decode_ns += result.decode_ns;
    if (ok) {
      ++(from_disk ? stats_.disk_hits : stats_.hits);
    } else {
      ++stats_.misses;
      if (decode_failed) {
        ++stats_.decode_failures;
        if (!from_disk) {
          // Drop the corrupt resident blob so it is never probed again.
          auto it = entries_.find(key);
          if (it != entries_.end() && it->second.blob == blob) DropEntry(it);
        }
      }
    }
  }
  if (!ok) {
    decodes_.Fail(key);
    return false;
  }
  // Merged writes leave the blob behind: the promoted chunk's demotion
  // encodes its cells afresh.
  if (pending.ends.empty()) result.blob = std::move(blob);
  result.info = info;
  result.from_disk = from_disk;
  decodes_.Publish(key, result);  // copies only if a follower waits
  *out = std::move(result);
  return true;
}

bool WarmTier::Contains(const CacheKey& key) const {
  MutexLock lock(mutex_);
  if (entries_.count(key) > 0) return true;
  return config_.disk != nullptr && config_.disk->Contains(key);
}

WarmTierStats WarmTier::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void WarmTier::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = WarmTierStats();
}

int64_t WarmTier::bytes_used() const {
  MutexLock lock(mutex_);
  return bytes_used_;
}

size_t WarmTier::num_entries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool WarmTier::ValidateInvariants() const {
  if (decodes_.in_flight() != 0) return false;
  MutexLock lock(mutex_);
  int64_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.blob == nullptr) return false;
    if (!(key == entry.info.key)) return false;
    const std::vector<uint32_t>& ends = entry.pending.ends;
    if (!std::is_sorted(ends.begin(), ends.end())) return false;
    if ((ends.empty() ? 0 : ends.back()) != entry.pending.cells.size()) {
      return false;
    }
    bytes += entry.bytes();
  }
  if (bytes != bytes_used_) return false;
  if (bytes_used_ > config_.capacity_bytes) return false;
  return ring_.Validate(entries_, [](const Entry&) { return true; });
}

bool WarmTier::EvictFor(int64_t needed, std::vector<Entry>* spilled) {
  return ring_.Sweep(
      entries_, needed, [](const CacheKey&, const Entry&) { return true; },
      [&](EntryMap::iterator it) AAC_NO_THREAD_SAFETY_ANALYSIS {
        spilled->push_back(DropEntry(it));
        ++stats_.evictions;
        return spilled->back().bytes();
      });
}

void WarmTier::Spill(std::vector<Entry>* victims) {
  // Outside the mutex: disk I/O under the warm lock would stall every
  // probe. A victim's pending runs go into its blob first, so the disk
  // never holds a copy older than a write.
  if (config_.disk == nullptr || victims->empty()) return;
  int64_t spills = 0;
  int64_t compactions = 0;
  for (Entry& victim : *victims) {
    if (!victim.pending.ends.empty()) {
      if (!Compact(&victim)) continue;
      ++compactions;
    }
    if (config_.disk->Admit(victim.info, *victim.blob)) ++spills;
  }
  if (spills > 0 || compactions > 0) {
    MutexLock lock(mutex_);
    stats_.spills += spills;
    stats_.compactions += compactions;
  }
}

bool WarmTier::Decode(const std::vector<uint8_t>& blob,
                      const PendingRuns& pending, ChunkData* out) const {
  if (!DecodeChunk(config_.num_dims, blob.data(), blob.size(), out)) {
    return false;
  }
  // The first merge leaves the cells in value order for the rest.
  const std::span<const Cell> cells(pending.cells);
  uint32_t begin = 0;
  for (const uint32_t end : pending.ends) {
    MergeCellRun(config_.num_dims, &out->cells,
                 cells.subspan(begin, end - begin), /*sorted=*/begin > 0);
    begin = end;
  }
  return true;
}

bool WarmTier::Compact(Entry* entry) const {
  ChunkData data;
  if (!Decode(*entry->blob, entry->pending, &data)) return false;
  auto blob = std::make_shared<std::vector<uint8_t>>();
  EncodeChunk(config_.num_dims, data, blob.get());
  entry->blob = std::move(blob);
  entry->pending = PendingRuns();
  return true;
}

WarmTier::Entry WarmTier::DropEntry(EntryMap::iterator it) {
  Entry entry = std::move(it->second);
  bytes_used_ -= entry.bytes();
  ring_.Erase(entry.ring_pos);
  entries_.erase(it);
  return entry;
}

}  // namespace aac
