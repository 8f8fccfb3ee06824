#include "cache/disk_tier.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "cache/replacement.h"
#include "util/check.h"
#include "util/word_checksum.h"

namespace aac {
namespace {

constexpr uint32_t kExtentMagic = 0x53434141;  // "AACS" little-endian

// Compaction rewrites the file once this share of its bytes is dead.
constexpr double kCompactDeadFraction = 0.5;

/// Fixed-size extent header. Written verbatim (packed, little-endian on
/// every platform this repo targets); `header_sum` covers every prior
/// field so a torn header is detected before any length is trusted. Both
/// sums are WordChecksum, which is not a persisted format: Open truncates
/// the file, so no extent outlives the process that wrote it.
struct ExtentHeader {
  uint32_t magic = kExtentMagic;
  uint32_t pad0 = 0;  // explicit padding: every byte written is initialized
  int64_t gb = 0;
  int64_t chunk = 0;
  int64_t logical_bytes = 0;  // CacheEntryInfo::bytes (raw accounting)
  double benefit = 0.0;
  uint8_t source = 0;
  uint8_t pad1[3] = {0, 0, 0};
  uint32_t blob_len = 0;
  uint64_t blob_sum = 0;
  uint64_t header_sum = 0;
};
static_assert(sizeof(ExtentHeader) == 64, "extent header must have no "
              "implicit padding (every written byte is initialized)");

constexpr size_t kHeaderSumCovered =
    sizeof(ExtentHeader) - sizeof(uint64_t);

int64_t ExtentBytes(size_t blob_size) {
  return static_cast<int64_t>(sizeof(ExtentHeader) + blob_size);
}

/// Reads the extent indexed for `key` at `offset` into `*header` and
/// `*blob`, and makes every check a reader needs: the header's magic and
/// sum, its key and blob length against the index, then the blob's sum.
/// False when any fails (a torn or corrupt extent).
bool ReadExtent(std::FILE* file, const CacheKey& key, int64_t offset,
                int64_t blob_bytes, ExtentHeader* header,
                std::vector<uint8_t>* blob) {
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(header, sizeof(*header), 1, file) != 1) {
    return false;
  }
  // Validate the header against both its own checksum and the index — a
  // rebased or overwritten extent must not masquerade as this key.
  if (header->magic != kExtentMagic ||
      header->header_sum != WordChecksum(header, kHeaderSumCovered) ||
      header->gb != static_cast<int64_t>(key.gb) ||
      header->chunk != static_cast<int64_t>(key.chunk) ||
      static_cast<int64_t>(header->blob_len) != blob_bytes) {
    return false;
  }
  blob->resize(header->blob_len);
  return (header->blob_len == 0 ||
          std::fread(blob->data(), 1, blob->size(), file) == blob->size()) &&
         header->blob_sum == WordChecksum(blob->data(), blob->size());
}

}  // namespace

DiskTier::DiskTier(Config config) : config_(std::move(config)) {
  AAC_CHECK(!config_.path.empty());
  AAC_CHECK_GE(config_.capacity_bytes, 0);
}

DiskTier::~DiskTier() {
  MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
}

bool DiskTier::Open() {
  MutexLock lock(mutex_);
  AAC_CHECK(file_ == nullptr);
  file_ = std::fopen(config_.path.c_str(), "wb+");
  return file_ != nullptr;
}

bool DiskTier::Admit(const CacheEntryInfo& info,
                     const std::vector<uint8_t>& blob) {
  const int64_t extent = ExtentBytes(blob.size());
  MutexLock lock(mutex_);
  if (extent > config_.capacity_bytes) {
    ++stats_.rejected;
    return false;
  }
  // Replacing an existing extent: the old one simply goes dead.
  auto existing = entries_.find(info.key);
  if (existing != entries_.end()) DropEntry(existing);
  const int64_t needed = live_bytes_ + extent - config_.capacity_bytes;
  if (needed > 0 && !EvictFor(needed)) {
    ++stats_.rejected;
    return false;
  }
  if (file_ == nullptr) {
    // A compaction failed to reopen the file (possibly just now, in the
    // eviction above): nothing can be spilled any more.
    ++stats_.write_failures;
    return false;
  }

  ExtentHeader header;
  header.gb = static_cast<int64_t>(info.key.gb);
  header.chunk = static_cast<int64_t>(info.key.chunk);
  header.logical_bytes = info.bytes;
  header.benefit = info.benefit;
  header.source = static_cast<uint8_t>(info.source);
  header.blob_len = static_cast<uint32_t>(blob.size());
  header.blob_sum = WordChecksum(blob.data(), blob.size());
  header.header_sum = WordChecksum(&header, kHeaderSumCovered);

  const int64_t offset = file_bytes_;
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(&header, sizeof(header), 1, file_) != 1 ||
      (!blob.empty() &&
       std::fwrite(blob.data(), 1, blob.size(), file_) != blob.size()) ||
      std::fflush(file_) != 0) {
    ++stats_.write_failures;
    return false;
  }
  file_bytes_ += extent;
  stats_.bytes_written += extent;

  Entry entry;
  entry.info = info;
  entry.offset = offset;
  entry.extent_bytes = extent;
  entry.blob_bytes = static_cast<int64_t>(blob.size());
  entry.ring_pos =
      ring_.Add(info.key, ReplacementPolicy::NormalizedWeight(info.benefit));
  live_bytes_ += extent;
  entries_.emplace(info.key, std::move(entry));
  ++stats_.admits;
  return true;
}

bool DiskTier::Contains(const CacheKey& key) const {
  MutexLock lock(mutex_);
  return entries_.count(key) > 0;
}

bool DiskTier::Read(const CacheKey& key, std::vector<uint8_t>* blob,
                    CacheEntryInfo* info) {
  AAC_CHECK(blob != nullptr);
  AAC_CHECK(info != nullptr);
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  AAC_CHECK(file_ != nullptr);  // a lost file leaves nothing indexed
  Entry& entry = it->second;
  ExtentHeader header;
  if (!ReadExtent(file_, key, entry.offset, entry.blob_bytes, &header,
                  blob)) {
    // Torn spill extent (crash mid-write, truncated or corrupted file):
    // surface as a miss and forget the extent so we never re-read it.
    ++stats_.torn_reads;
    ++stats_.misses;
    DropEntry(it);
    return false;
  }
  ring_.Refresh(entry.ring_pos,
                ReplacementPolicy::NormalizedWeight(entry.info.benefit));
  *info = entry.info;
  ++stats_.hits;
  return true;
}

void DiskTier::Erase(const CacheKey& key) {
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  DropEntry(it);
}

DiskTierStats DiskTier::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void DiskTier::ResetStats() {
  MutexLock lock(mutex_);
  stats_ = DiskTierStats();
}

int64_t DiskTier::bytes_used() const {
  MutexLock lock(mutex_);
  return live_bytes_;
}

size_t DiskTier::num_entries() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool DiskTier::ValidateInvariants() const {
  MutexLock lock(mutex_);
  if (file_ == nullptr && !entries_.empty()) return false;
  int64_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (!(key == entry.info.key)) return false;
    if (entry.offset < 0 || entry.extent_bytes < 0) return false;
    if (entry.offset + entry.extent_bytes > file_bytes_) return false;
    if (entry.extent_bytes != ExtentBytes(static_cast<size_t>(
                                  entry.blob_bytes))) {
      return false;
    }
    bytes += entry.extent_bytes;
  }
  if (bytes != live_bytes_) return false;
  if (live_bytes_ > config_.capacity_bytes) return false;
  return ring_.Validate(entries_, [](const Entry&) { return true; });
}

bool DiskTier::EvictFor(int64_t needed) {
  // Compaction (in DropEntry) may drop torn extents besides the victim.
  return ring_.Sweep(
      entries_, needed, [](const CacheKey&, const Entry&) { return true; },
      [this](EntryMap::iterator it) AAC_NO_THREAD_SAFETY_ANALYSIS {
        const int64_t extent = it->second.extent_bytes;
        ++stats_.evictions;
        DropEntry(it);
        return extent;
      });
}

void DiskTier::DropEntry(EntryMap::iterator it) {
  Unindex(it);
  MaybeCompact();
}

void DiskTier::Unindex(EntryMap::iterator it) {
  ring_.Erase(it->second.ring_pos);
  live_bytes_ -= it->second.extent_bytes;
  entries_.erase(it);
}

void DiskTier::MaybeCompact() {
  const int64_t dead = file_bytes_ - live_bytes_;
  if (file_ == nullptr || dead <= 0 ||
      static_cast<double>(dead) <
          kCompactDeadFraction * static_cast<double>(file_bytes_)) {
    return;
  }
  // Pull every live blob into memory (bounded by the live budget, and the
  // payloads are already compressed), then rewrite the file front-to-back
  // and rebase the index. Extents that fail any of Read's checks are
  // dropped and counted as torn — compaction must not propagate them.
  struct LiveExtent {
    CacheKey key;
    ExtentHeader header;
    std::vector<uint8_t> blob;
  };
  std::vector<LiveExtent> live;
  live.reserve(entries_.size());
  std::vector<CacheKey> drop;
  for (auto& [key, entry] : entries_) {
    LiveExtent ext;
    ext.key = key;
    if (ReadExtent(file_, key, entry.offset, entry.blob_bytes, &ext.header,
                   &ext.blob)) {
      live.push_back(std::move(ext));
    } else {
      ++stats_.torn_reads;
      drop.push_back(key);
    }
  }
  for (const CacheKey& key : drop) Unindex(entries_.find(key));
  // The live blobs are in memory: start a fresh file, then close the old
  // one, in freopen's order. Closing first cost bench/e2e's `spill` about
  // a quarter of its qps and tripled its p99 latency (measured on ext4).
  std::FILE* fresh = std::fopen(config_.path.c_str(), "wb+");
  std::fclose(file_);
  file_ = fresh;
  file_bytes_ = 0;
  if (file_ == nullptr) {
    // Every extent went with the old file: unindex them all, so reads
    // miss and Admit rejects from now on — the degraded-but-correct mode.
    while (!entries_.empty()) Unindex(entries_.begin());
    ++stats_.write_failures;
    return;
  }
  for (LiveExtent& ext : live) {
    auto it = entries_.find(ext.key);
    AAC_CHECK(it != entries_.end());
    if (std::fwrite(&ext.header, sizeof(ext.header), 1, file_) != 1 ||
        (!ext.blob.empty() &&
         std::fwrite(ext.blob.data(), 1, ext.blob.size(), file_) !=
             ext.blob.size())) {
      ++stats_.write_failures;
      Unindex(it);
      continue;
    }
    it->second.offset = file_bytes_;
    file_bytes_ += it->second.extent_bytes;
  }
  std::fflush(file_);
  ++stats_.compactions;
}

}  // namespace aac
