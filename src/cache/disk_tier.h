#ifndef AAC_CACHE_DISK_TIER_H_
#define AAC_CACHE_DISK_TIER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_entry.h"
#include "cache/clock_ring.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Running totals of disk-tier activity.
struct DiskTierStats {
  int64_t admits = 0;
  int64_t rejected = 0;        // oversized, or CLOCK refused to make room
  int64_t evictions = 0;       // index drops to stay under capacity
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t torn_reads = 0;      // extents that failed validation -> miss
  int64_t write_failures = 0;  // I/O errors: Admit (entry not indexed) and
                               // compaction (a failed reopen drops all)
  int64_t compactions = 0;     // spill-file rewrites reclaiming dead bytes
  int64_t bytes_written = 0;   // cumulative extent bytes appended
};

/// Third cache tier: warm-tier victims spilled to a single append-only
/// file, promoted back on re-reference.
///
/// Stores the warm tier's codec blobs verbatim — the payload stays
/// compressed on disk — one framed extent per chunk (magic, fixed header,
/// checksums): each extent carries its own header and payload
/// WordChecksum, so a torn write (crash mid-append, truncated file) is
/// detected on read and treated as a plain miss — the index entry is
/// dropped and the caller falls through to the backend. The in-memory
/// index maps CacheKey -> file extent under a byte budget with the same
/// weighted CLOCK (a ClockRing) as the RAM tiers.
///
/// Eviction only drops the index entry; the extent's bytes become dead.
/// When dead bytes reach half the file, the live extents are rewritten to
/// a fresh file (offsets rebased) — cheap because the payloads are already
/// compressed. Compaction reads each extent with every check Read makes
/// and drops the ones that fail. If the file cannot be reopened, every
/// extent is unindexed: reads miss and Admit rejects from then on.
///
/// Concurrency: one mutex guards the index, the CLOCK ring and the FILE
/// handle (stdio seeks make per-handle serialization mandatory). Lock
/// order: the warm tier calls into this class while holding no warm-tier
/// lock state is required beyond "warm -> disk" (DESIGN.md §14); this
/// class never calls out.
class DiskTier {
 public:
  struct Config {
    /// Spill file path. Created (truncated) by Open.
    std::string path;
    /// Budget for live (indexed) extent payload bytes.
    int64_t capacity_bytes = 256 << 20;
  };

  explicit DiskTier(Config config);
  ~DiskTier();

  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// Creates/truncates the spill file. Must be called (and succeed) before
  /// any other method; returns false on I/O failure.
  bool Open();

  int64_t capacity_bytes() const { return config_.capacity_bytes; }

  /// Appends `blob` as one extent and indexes it, evicting CLOCK victims
  /// if the live-byte budget requires. Replaces any existing extent for
  /// the same key (the old extent's bytes go dead). Returns false when the
  /// blob is rejected (oversized, eviction refused, I/O failure, or the
  /// file lost to a failed compaction).
  bool Admit(const CacheEntryInfo& info, const std::vector<uint8_t>& blob);

  /// True when the key is indexed. Does not touch replacement state.
  bool Contains(const CacheKey& key) const;

  /// Reads the key's extent back, validating both checksums; on success
  /// fills `*blob`/`*info` and refreshes the CLOCK value. A torn or
  /// corrupted extent counts `torn_reads`, drops the index entry and
  /// returns false — indistinguishable from a miss to the caller.
  bool Read(const CacheKey& key, std::vector<uint8_t>* blob,
            CacheEntryInfo* info);

  /// Drops the key's index entry (its extent goes dead). No-op when
  /// absent.
  void Erase(const CacheKey& key);

  DiskTierStats stats() const;
  void ResetStats();
  /// Live (indexed) extent payload bytes.
  int64_t bytes_used() const;
  size_t num_entries() const;

  /// Structural self-check for tests on a quiesced tier: byte accounting,
  /// ring/map round trips, budget, and extents within the file.
  bool ValidateInvariants() const;

 private:
  struct Entry {
    CacheEntryInfo info;
    int64_t offset = 0;       // extent start in the spill file
    int64_t extent_bytes = 0; // full framed extent size
    int64_t blob_bytes = 0;
    ClockRing<CacheKey>::Position ring_pos;
  };

  using EntryMap = std::unordered_map<CacheKey, Entry, CacheKeyHash>;

  bool EvictFor(int64_t needed) AAC_REQUIRES(mutex_);
  /// Unindexes `it` (its extent goes dead), then compacts if due.
  void DropEntry(EntryMap::iterator it) AAC_REQUIRES(mutex_);
  /// Unindexes `it` from the ring, the live bytes and the map.
  void Unindex(EntryMap::iterator it) AAC_REQUIRES(mutex_);
  /// Rewrites live extents into a fresh file when dead bytes dominate.
  void MaybeCompact() AAC_REQUIRES(mutex_);

  const Config config_;
  mutable Mutex mutex_{LockRank::kDiskTier, "disk_tier"};
  std::FILE* file_ AAC_GUARDED_BY(mutex_) = nullptr;
  EntryMap entries_ AAC_GUARDED_BY(mutex_);
  ClockRing<CacheKey> ring_ AAC_GUARDED_BY(mutex_);
  int64_t live_bytes_ AAC_GUARDED_BY(mutex_) = 0;   // indexed payload bytes
  int64_t file_bytes_ AAC_GUARDED_BY(mutex_) = 0;   // bytes appended so far
  DiskTierStats stats_ AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_CACHE_DISK_TIER_H_
