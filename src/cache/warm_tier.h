#ifndef AAC_CACHE_WARM_TIER_H_
#define AAC_CACHE_WARM_TIER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/clock_ring.h"
#include "cache/disk_tier.h"
#include "cache/single_flight.h"
#include "storage/chunk_data.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Running totals of warm-tier activity.
struct WarmTierStats {
  int64_t offers = 0;            // OnDemote calls from the hot tier
  int64_t admits = 0;            // offers that became RAM entries
  int64_t gate_rejected = 0;     // empty victims, never worth a slot
  int64_t capacity_rejected = 0; // encoded blob larger than the budget
  int64_t evictions = 0;         // CLOCK victims leaving warm RAM
  int64_t spills = 0;            // victims the disk tier admitted
  int64_t hits = 0;              // probes served from warm RAM
  int64_t disk_hits = 0;         // probes served from the disk tier
  int64_t misses = 0;            // probes served by neither (incl. aborts)
  int64_t coalesced_decodes = 0; // followers that reused a leader's decode
  int64_t decode_failures = 0;   // corrupt blobs dropped on probe
  int64_t erased = 0;            // OnErase purges (promotion/invalidation)
  int64_t reused_blobs = 0;      // offers that carried their promoted blob
  int64_t encode_ns = 0;         // real encodes only
  int64_t decode_ns = 0;
  int64_t demoted_raw_bytes = 0;     // logical bytes of admitted chunks
  int64_t demoted_encoded_bytes = 0; // encoded bytes of admitted chunks

  /// Compression ratio over everything admitted (logical raw over encoded);
  /// 0 when nothing was admitted.
  double CompressionRatio() const {
    return demoted_encoded_bytes > 0
               ? static_cast<double>(demoted_raw_bytes) /
                     static_cast<double>(demoted_encoded_bytes)
               : 0.0;
  }
};

/// What a successful Probe hands back for promotion into the hot tier.
struct WarmProbeResult {
  ChunkData data;
  EncodedBlob blob;        // what `data` was decoded from (on a disk hit,
                           // the read buffer); the promotion keeps it
  CacheEntryInfo info;     // benefit/source/bytes as originally demoted
  bool from_disk = false;  // served by the disk tier, not warm RAM
  int64_t decode_ns = 0;   // this probe's share of decode time (0 for
                           // followers that reused a leader's decode)
};

/// Second cache tier: chunks demoted from the hot ChunkCache, held
/// *compressed* in RAM (chunk_codec blobs) under an encoded-byte budget
/// with benefit-weighted CLOCK replacement (ClockRing), and optionally
/// spilled to a DiskTier when evicted from here too.
///
/// Demotion (DemotionSink, driven by the hot cache with no locks held):
/// empty victims are dropped; a victim that carries the blob it was
/// promoted from is admitted as that blob, and the rest are encoded OFF
/// this tier's mutex, then indexed.
/// OnErase (fired by every hot insert and removal) purges the key from
/// warm RAM and disk, keeping residency effectively single-tier.
///
/// Promotion (Probe, called by the query engine on a hot miss): warm RAM
/// first, then disk. A miss returns before any flight exists. A present
/// key's read and decode run OFF the mutex on a shared blob reference, and
/// are single-flighted per key (SingleFlight<WarmProbeResult>): concurrent
/// probes for the same chunk elect one leader; followers wait
/// deadline-bounded on that key's slot and copy the leader's result, so a
/// hot promotion storm costs one decode. Aborted/expired contexts bail out
/// as misses.
///
/// Lock order (DESIGN.md §14): hot shard -> warm -> disk, strictly
/// one-way. The hot cache calls OnDemote/OnErase only after releasing its
/// shard lock; this tier calls the disk tier either under its own mutex
/// (Contains) or with no lock held (Admit/Read/Erase); the disk tier never
/// calls out. The decode flight's locks rank before kWarmTier, so this
/// tier enters them with no lock held.
class WarmTier : public DemotionSink {
 public:
  struct Config {
    /// Budget for *encoded* resident bytes.
    int64_t capacity_bytes = 0;
    /// Dimensionality handed to the codec (Cell coordinate slots in use).
    int num_dims = 0;
    /// Optional third tier; not owned, may be null. Must be Open()ed.
    DiskTier* disk = nullptr;
  };

  explicit WarmTier(Config config);
  ~WarmTier() override;

  WarmTier(const WarmTier&) = delete;
  WarmTier& operator=(const WarmTier&) = delete;

  int64_t capacity_bytes() const { return config_.capacity_bytes; }
  DiskTier* disk() const { return config_.disk; }

  // DemotionSink (called by ChunkCache with no shard lock held). OnDemote
  // encodes; OnDemoteEncoded encodes only when `blob` is null, since the
  // codec is deterministic and bit-exact: re-encoding a promoted chunk
  // whose data has not changed yields its blob byte for byte.
  void OnDemote(const CacheEntryInfo& info, ChunkData&& data) override;
  void OnDemoteEncoded(const CacheEntryInfo& info, ChunkData&& data,
                       EncodedBlob blob) override;
  void OnErase(const CacheKey& key) override;

  /// Looks the key up in warm RAM, then on disk; on a hit decodes (or
  /// joins an in-flight decode) and fills `*out`. Returns false on a miss,
  /// a torn/corrupt blob, or when `ctx` aborts/expires while decoding or
  /// waiting. `ctx` may be null (no deadline). The caller promotes the
  /// result into the hot tier; that insert's OnErase purges it here.
  bool Probe(const CacheKey& key, const ExecContext* ctx,
             WarmProbeResult* out);

  /// True when the key is resident in warm RAM or the disk index. Touches
  /// no replacement state.
  bool Contains(const CacheKey& key) const;

  WarmTierStats stats() const;
  void ResetStats();
  /// Encoded resident bytes in warm RAM (the disk tier accounts its own).
  int64_t bytes_used() const;
  size_t num_entries() const;

  /// Structural self-check for tests on a quiesced tier: encoded-byte
  /// accounting, ring/map round trips, budget, and no decode in flight.
  bool ValidateInvariants() const;

 private:
  struct Entry {
    /// Immutable once published; shared so a leader can decode after the
    /// entry is concurrently erased, and a promoted chunk keeps it.
    EncodedBlob blob;
    CacheEntryInfo info;
    ClockRing<CacheKey>::Position ring_pos;
  };

  using EntryMap = std::unordered_map<CacheKey, Entry, CacheKeyHash>;
  using DecodeFlight = SingleFlight<WarmProbeResult>;

  /// Frees at least `needed` encoded bytes via the CLOCK sweep, moving the
  /// victims' entries into `*spilled` for the caller to offer to the disk
  /// tier after unlocking. Returns true on success.
  bool EvictFor(int64_t needed, std::vector<Entry>* spilled)
      AAC_REQUIRES(mutex_);

  /// Unindexes `it` (bytes, ring and map) and returns its entry.
  Entry DropEntry(EntryMap::iterator it) AAC_REQUIRES(mutex_);

  const Config config_;
  /// One decode per key at a time; entered with no lock of this tier held.
  DecodeFlight decodes_;
  mutable Mutex mutex_{LockRank::kWarmTier, "warm_tier"};
  EntryMap entries_ AAC_GUARDED_BY(mutex_);
  ClockRing<CacheKey> ring_ AAC_GUARDED_BY(mutex_);
  int64_t bytes_used_ AAC_GUARDED_BY(mutex_) = 0;  // encoded resident bytes
  WarmTierStats stats_ AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_CACHE_WARM_TIER_H_
