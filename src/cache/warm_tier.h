#ifndef AAC_CACHE_WARM_TIER_H_
#define AAC_CACHE_WARM_TIER_H_

#include <cstdint>
#include <memory>
#include <span>
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
  int64_t appended_runs = 0;     // OnWrite runs kept beside a resident copy
  int64_t compactions = 0;       // copies whose runs were encoded into a
                                 // new blob (on a write or a spill)
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
/// *compressed* in RAM (chunk_codec blobs) under a byte budget (blobs plus
/// pending writes) with benefit-weighted CLOCK replacement (ClockRing),
/// and optionally spilled to a DiskTier when evicted from here too.
///
/// Demotion (DemotionSink, driven by the hot cache with no locks held):
/// empty victims are dropped; a victim that carries the blob it was
/// promoted from is admitted as that blob, and the rest are encoded OFF
/// this tier's mutex, then indexed.
/// OnErase (fired by every hot insert, patch and removal) purges the key
/// from warm RAM and disk, keeping residency effectively single-tier.
///
/// Writes (OnWrite, a base write reaching a key the hot tier lacks): a
/// warm RAM copy keeps its blob and appends the write's cells as a pending
/// run, charged to the budget at what the cells occupy; a disk copy is
/// purged. A probe merges the runs in write order (MergeCellRun) after
/// decoding, so it serves what hot patches would have made, and hands the
/// hot tier no blob. A copy whose runs outgrow its blob is compacted
/// during the write (decode, merge, encode), and a CLOCK victim with runs
/// is compacted before it spills. Writes are quiescent: a write that
/// finds a decode in flight on a copy it keeps aborts.
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
/// one-way. The hot cache calls the sink's methods only after releasing its
/// shard lock; this tier calls the disk tier either under its own mutex
/// (Contains) or with no lock held (Admit/Read/Erase); the disk tier never
/// calls out. The decode flight's locks rank before kWarmTier, so this
/// tier enters them with no lock held.
class WarmTier : public DemotionSink {
 public:
  struct Config {
    /// Budget for resident blobs and their pending runs.
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
  void OnWrite(const CacheKey& key, std::span<const Cell> cells) override;

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
  /// Resident blob and pending-run bytes in warm RAM (the disk tier
  /// accounts its own).
  int64_t bytes_used() const;
  size_t num_entries() const;

  /// Structural self-check for tests on a quiesced tier: byte accounting
  /// (blobs plus pending runs), ring/map round trips, budget, and no
  /// decode in flight.
  bool ValidateInvariants() const;

 private:
  /// Base writes a copy's blob does not hold yet, oldest first: run r is
  /// cells[ends[r - 1], ends[r]) (from 0 for r = 0), as OnWrite got it.
  struct PendingRuns {
    std::vector<Cell> cells;
    std::vector<uint32_t> ends;

    /// What the runs occupy, charged to the budget beside the blob.
    int64_t bytes() const {
      return static_cast<int64_t>(cells.size() * sizeof(Cell) +
                                  ends.size() * sizeof(uint32_t));
    }
  };

  struct Entry {
    /// Immutable once published; shared so a leader can decode after the
    /// entry is concurrently erased, and a promoted chunk keeps it.
    EncodedBlob blob;
    PendingRuns pending;
    CacheEntryInfo info;
    ClockRing<CacheKey>::Position ring_pos;

    /// The entry's charge to the budget.
    int64_t bytes() const {
      return static_cast<int64_t>(blob->size()) + pending.bytes();
    }
  };

  using EntryMap = std::unordered_map<CacheKey, Entry, CacheKeyHash>;
  using DecodeFlight = SingleFlight<WarmProbeResult>;

  /// Frees at least `needed` bytes via the CLOCK sweep, moving the
  /// victims' entries into `*spilled` for the caller to Spill after
  /// unlocking. Returns true on success.
  bool EvictFor(int64_t needed, std::vector<Entry>* spilled)
      AAC_REQUIRES(mutex_);

  /// Offers CLOCK victims to the disk tier, each with its pending runs
  /// compacted first. Called with no lock held.
  void Spill(std::vector<Entry>* victims);

  /// Decodes `blob` into `*out` and merges `pending`'s runs in order; false
  /// when the blob does not decode.
  bool Decode(const std::vector<uint8_t>& blob, const PendingRuns& pending,
              ChunkData* out) const;

  /// Replaces `*entry`'s blob with one that holds its pending runs, and
  /// clears them; false (entry unchanged) when the blob does not decode.
  bool Compact(Entry* entry) const;

  /// Unindexes `it` (bytes, ring and map) and returns its entry.
  Entry DropEntry(EntryMap::iterator it) AAC_REQUIRES(mutex_);

  const Config config_;
  /// One decode per key at a time; entered with no lock of this tier held.
  DecodeFlight decodes_;
  mutable Mutex mutex_{LockRank::kWarmTier, "warm_tier"};
  EntryMap entries_ AAC_GUARDED_BY(mutex_);
  ClockRing<CacheKey> ring_ AAC_GUARDED_BY(mutex_);
  int64_t bytes_used_ AAC_GUARDED_BY(mutex_) = 0;  // Entry::bytes() summed
  WarmTierStats stats_ AAC_GUARDED_BY(mutex_);
};

}  // namespace aac

#endif  // AAC_CACHE_WARM_TIER_H_
