#ifndef AAC_CACHE_CHUNK_CACHE_H_
#define AAC_CACHE_CHUNK_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache_entry.h"
#include "cache/clock_ring.h"
#include "cache/replacement.h"
#include "storage/chunk_data.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Running totals of cache activity.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t rejected_inserts = 0;
  int64_t evictions = 0;
  /// Capacity evictions handed to the demotion sink (subset of
  /// `evictions`; explicit Removes are never demoted).
  int64_t demotions = 0;
  /// Logical bytes of those demoted entries. Counted in the same critical
  /// section that subtracts them from the shard's bytes_used, so there is
  /// no window where a migrating entry is charged to both tiers.
  int64_t demoted_bytes = 0;
  /// Entries a base write merged new cells into in place (Patch).
  int64_t patched = 0;
};

/// A chunk's encoded form (storage/chunk_codec.h), immutable and shared:
/// the warm tier holds it, and a hot entry promoted from a warm or disk
/// blob keeps it until its data changes.
using EncodedBlob = std::shared_ptr<const std::vector<uint8_t>>;

/// Receiver of the hot tier's eviction victims — the hook that turns
/// eviction from "free the bytes" into a demotion pipeline (warm tier).
///
/// Concurrency contract: unlike CacheListener, every method is invoked
/// with NO shard lock held (the victim's bytes have already left the hot
/// accounting atomically). Implementations may take their own locks and
/// perform heavy work (compression, I/O) but must not call back into the
/// hot cache, which fixes the lock order "hot shard -> sink".
class DemotionSink {
 public:
  virtual ~DemotionSink() = default;

  /// A capacity eviction pushed this entry out of the hot tier; the data
  /// is moved to the sink.
  virtual void OnDemote(const CacheEntryInfo& info, ChunkData&& data) = 0;

  /// The hot cache's demotion call: as OnDemote, plus the blob the entry
  /// was promoted from when its data has not changed since (null
  /// otherwise), so a sink that stores encoded chunks need not encode it
  /// again. The default drops the blob and forwards to OnDemote.
  virtual void OnDemoteEncoded(const CacheEntryInfo& info, ChunkData&& data,
                               EncodedBlob blob) {
    (void)blob;
    OnDemote(info, std::move(data));
  }

  /// The key's authoritative copy changed or vanished: a successful Insert
  /// made (or refreshed) a hot-resident copy, a Patch merged a base write
  /// into it, or an explicit Remove (invalidation) dropped the key —
  /// possibly one the hot tier never held, so lower tiers are purged too.
  /// Sinks drop their copies; stale demoted data must never be promoted
  /// later.
  virtual void OnErase(const CacheKey& key) = 0;
};

/// Middle-tier chunk cache with weighted-CLOCK replacement.
///
/// Stores `ChunkData` keyed by (group-by, chunk number) under a byte
/// capacity. Replacement is a ClockRing per victim class, granting the
/// `ReplacementPolicy`'s clock values; a sweep evicts only non-pinned
/// entries the policy's class rules allow (two-level policy). Listeners
/// observe inserts and evictions so the virtual-count strategies can
/// maintain their summary state.
///
/// Entries can be *pinned* while a plan executor reads them, which exempts
/// them from eviction; eviction mid-aggregation would invalidate the
/// executor's pointers.
///
/// Concurrency: the cache is split into `num_shards` shards by hash of the
/// key; every shard has its own mutex, entry map, CLOCK rings and byte
/// budget (capacity/num_shards each), so operations on different shards
/// never contend. All mutating and reading member functions are safe to
/// call from multiple threads. The raw-pointer accessor `Peek` remains for
/// single-threaded callers (the pointer is released outside the lock);
/// concurrent readers must use `GetCopy` or `GetPinned`, whose results
/// stay valid by copy or by pin respectively. Listeners fire while
/// the affected shard's lock is held (see CacheListener's contract). The
/// default of one shard preserves the exact global eviction order of the
/// serial cache; experiments that care about replacement fidelity use it,
/// concurrent drivers pass 16+.
class ChunkCache {
 public:
  /// `policy` must outlive the cache. `bytes_per_tuple` is the logical
  /// accounting size of one cached tuple (paper: 20 bytes). `num_shards`
  /// splits the capacity into independently locked shards (>= 1).
  ChunkCache(int64_t capacity_bytes, int64_t bytes_per_tuple,
             const ReplacementPolicy* policy, int num_shards = 1);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Registers a membership observer; must outlive the cache. Not
  /// thread-safe: register all listeners before concurrent use.
  void AddListener(CacheListener* listener);

  /// Installs the demotion sink (warm tier); must outlive the cache. Not
  /// thread-safe: install before concurrent use. Null detaches.
  void set_demotion_sink(DemotionSink* sink) { sink_ = sink; }

  int64_t capacity_bytes() const { return capacity_bytes_; }
  int64_t bytes_per_tuple() const { return bytes_per_tuple_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Bytes / entries across all shards (each shard locked in turn; the sum
  /// is exact only while no writer runs concurrently).
  int64_t bytes_used() const;
  size_t num_entries() const;

  /// Aggregated stats across shards, by value (a reference would dangle
  /// across shard updates).
  CacheStats stats() const;
  void ResetStats();

  /// True if the chunk is cached. Does not touch replacement state and does
  /// not count as a hit or miss.
  bool Contains(const CacheKey& key) const;

  /// Returns the cached chunk without touching replacement state or stats.
  /// Single-threaded use only: the pointer is valid until the entry is
  /// evicted or replaced, which a concurrent writer may do at any time —
  /// concurrent readers use GetCopy or GetPinned.
  const ChunkData* Peek(const CacheKey& key) const;

  /// Copies the cached chunk into `*out` under the shard lock; returns
  /// false on a miss. Counts a hit or miss and refreshes the clock value.
  /// Safe under any concurrency.
  bool GetCopy(const CacheKey& key, ChunkData* out);

  /// Returns the cached chunk with its pin count raised (caller must Unpin
  /// when done), or nullptr on a miss. Counts a hit or miss and refreshes
  /// the clock value. The pointer stays valid until the matching Unpin:
  /// pinned entries are never evicted and never replaced in place.
  const ChunkData* GetPinned(const CacheKey& key);

  /// Inserts a chunk with the given benefit and provenance. Returns false
  /// if the chunk could not be admitted (larger than its shard, or the
  /// policy forbids evicting enough victims). Inserting over an existing
  /// key *replaces* the entry's data, benefit and provenance in place and
  /// refreshes its clock value (a re-fetch after invalidation must not
  /// leave stale data cached); listeners see OnUpdate, not OnInsert. If the
  /// existing entry is pinned its data cannot be swapped out from under the
  /// reader — the insert only refreshes the clock value and returns true.
  /// `blob`, when set, is the demotion sink's encoding of `data` (a warm
  /// or disk promotion passes the blob it decoded); the entry keeps it
  /// until its data changes and hands it to OnDemoteEncoded on eviction.
  bool Insert(ChunkData data, double benefit, ChunkSource source,
              EncodedBlob blob = nullptr);

  /// Removes a chunk; returns false if it was not cached (hot-tier
  /// residency only). The entry must not be pinned: writes are quiescent
  /// (core/invalidation.h), and Remove and Patch both check it. The
  /// demotion sink's OnErase fires even when the key was not hot-resident,
  /// so invalidation purges warm/disk copies of keys the hot tier already
  /// evicted.
  bool Remove(const CacheKey& key);

  /// Merges a base write into the hot-resident entry `key`, in place and
  /// under its shard lock: each of `cells` folds into the entry's cell with
  /// the same value ids (MergeCellAggregates), or goes in at its sorted
  /// place when the entry has none. `cells` hold value ids at `key.gb`'s
  /// level inside `key.chunk`, sorted by CellValueLess over `num_dims` and
  /// distinct. The entry is never copied; an entry whose cells are out of
  /// value order is sorted first. Either change drops the entry's blob.
  /// Growth is charged to the shard and class ledgers and makes room the
  /// way an Insert over the key would (victims demote). Listeners see
  /// OnUpdate with the new tuple count, and the demotion sink's OnErase
  /// fires after unlocking. A patch is not a use: it leaves the clock
  /// value and the hit counters alone, and counts CacheStats::patched. Returns false without merging when the key is
  /// not hot-resident or the grown entry does not fit its shard (victims
  /// already evicted for it still demote, as in Insert); the caller then
  /// Removes the key. The entry must not be pinned.
  bool Patch(const CacheKey& key, int num_dims, std::span<const Cell> cells);

  /// Adds `amount` to the entry's clock value (the two-level policy boosts
  /// every chunk of a group used to compute an aggregate, Section 6.3),
  /// saturating at ClockRing::kMaxClockValue (see there). No-op if the key
  /// is not cached.
  void Boost(const CacheKey& key, double amount);

  /// Pins an entry against eviction (counted; must be balanced by Unpin).
  void Pin(const CacheKey& key);
  void Unpin(const CacheKey& key);

  /// Calls `fn` for every entry, in unspecified order. The entry infos are
  /// snapshotted shard by shard first and `fn` runs without any lock held,
  /// so the callback may call back into the cache (Peek, GetCopy, ...).
  void ForEach(const std::function<void(const CacheEntryInfo&)>& fn) const;

  /// Exhaustive structural self-check: per shard, bytes_used equals the sum
  /// of entry sizes, class_bytes match, each class's ring holds exactly the
  /// entries of that class (ClockRing::Validate), and no shard exceeds its
  /// capacity. Returns true when all invariants hold. Intended
  /// for tests (quiesced cache); takes each shard lock in turn.
  bool ValidateInvariants() const;

  /// Sum of pin counts across all entries (each shard locked in turn).
  /// Exact only on a quiesced cache; a storm test asserting "no leaked
  /// pins" checks this is zero once every query has resolved.
  int64_t TotalPinCount() const;

 private:
  struct Entry {
    ChunkData data;
    /// The encoding `data` was promoted from; null once `data` changes, and
    /// for chunks that were fetched or folded. Charged to no budget.
    EncodedBlob blob;
    CacheEntryInfo info;
    int32_t pin_count = 0;
    int32_t victim_class = 0;
    ClockRing<CacheKey>::Position ring_pos;
  };

  /// A capacity-eviction victim collected under the shard lock, to be
  /// offered to the demotion sink after the lock is released.
  struct Demoted {
    CacheEntryInfo info;
    ChunkData data;
    EncodedBlob blob;
  };

  using EntryMap = std::unordered_map<CacheKey, Entry, CacheKeyHash>;

  /// One lock domain: entries, CLOCK rings and byte accounting for the
  /// keys that hash here.
  struct Shard {
    Shard(int64_t shard_capacity, size_t classes)
        : rings(classes), capacity(shard_capacity), class_bytes(classes, 0) {}

    mutable Mutex mutex{LockRank::kCacheShard, "chunk_cache.shard"};
    EntryMap entries AAC_GUARDED_BY(mutex);
    // One CLOCK ring per victim class, so a class-targeted sweep never
    // walks entries of protected classes.
    std::vector<ClockRing<CacheKey>> rings AAC_GUARDED_BY(mutex);
    const int64_t capacity;
    int64_t bytes_used AAC_GUARDED_BY(mutex) = 0;
    // Bytes per victim class.
    std::vector<int64_t> class_bytes AAC_GUARDED_BY(mutex);
    CacheStats stats AAC_GUARDED_BY(mutex);
  };

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[CacheKeyHash()(key) % shards_.size()];
  }
  const Shard& ShardFor(const CacheKey& key) const {
    return *shards_[CacheKeyHash()(key) % shards_.size()];
  }

  /// The locked body of Insert. Victims evicted to make room are moved
  /// into `*demoted` (when a sink is installed); `*erase_sink` is set when
  /// the caller must fire OnErase(key) after unlocking.
  bool InsertLocked(Shard& shard, const CacheKey& key,
                    const CacheEntryInfo& info, ChunkData&& data,
                    EncodedBlob&& blob, int64_t tuples,
                    std::vector<Demoted>* demoted, bool* erase_sink)
      AAC_REQUIRES(shard.mutex);

  /// Makes room in `shard` for `entry` to take `resized.bytes` (the entry
  /// itself shielded from the sweep); false when the shard cannot hold it.
  /// Victims demote into `*demoted`.
  bool MakeRoomToResize(Shard& shard, Entry& entry,
                        const CacheEntryInfo& resized,
                        std::vector<Demoted>* demoted)
      AAC_REQUIRES(shard.mutex);

  /// Frees at least `needed` bytes in `shard` by sweeping the clock rings
  /// of the classes `incoming` may replace (MayReplaceClass); returns true
  /// on success. Pinned entries are ineligible. Victims demote into
  /// `*demoted` (see EvictEntry). Caller holds the shard lock.
  bool EvictFor(Shard& shard, const CacheEntryInfo& incoming, int64_t needed,
                std::vector<Demoted>* demoted) AAC_REQUIRES(shard.mutex);

  /// A read of `key`: counts a hit or a miss and, on a hit, Touches the
  /// entry. Null on a miss.
  Entry* Use(Shard& shard, const CacheKey& key) AAC_REQUIRES(shard.mutex);

  /// Restores the entry's clock value to its policy grant (a use).
  void Touch(Shard& shard, const Entry& entry) AAC_REQUIRES(shard.mutex);

  /// Removes the entry from the shard (bytes leave the hot accounting
  /// here, atomically). With a sink installed and `demoted` non-null the
  /// entry's data and blob are moved into `*demoted` for a post-unlock
  /// OnDemoteEncoded; otherwise they are destroyed. Null `demoted` =
  /// explicit removal.
  void EvictEntry(Shard& shard, EntryMap::iterator it,
                  std::vector<Demoted>* demoted) AAC_REQUIRES(shard.mutex);

  int64_t capacity_bytes_;
  int64_t bytes_per_tuple_;
  const ReplacementPolicy* policy_;
  DemotionSink* sink_ = nullptr;
  std::vector<CacheListener*> listeners_;
  // unique_ptr: Shard holds a mutex and must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace aac

#endif  // AAC_CACHE_CHUNK_CACHE_H_
