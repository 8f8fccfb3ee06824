#ifndef AAC_CACHE_SINGLE_FLIGHT_H_
#define AAC_CACHE_SINGLE_FLIGHT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "cache/cache_entry.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Coalesces concurrent work on the same chunk (the request dedup used by
/// inference servers): the first thread to ask for a key becomes its
/// *leader* and does the work; threads that ask while it is in flight
/// become *followers* and block until the leader publishes the result, so
/// a thundering herd for one chunk does the work exactly once. `T` is the
/// published value. The query engine single-flights backend fetches
/// (`SingleFlight<ChunkData>`), the warm tier single-flights decodes
/// (`SingleFlight<WarmProbeResult>`).
///
/// Protocol (see QueryEngine's backend phase):
///   1. `JoinOrLead(key)` — nullptr means the caller leads and MUST later
///      call exactly one of `Publish(key, value)` or `Fail(key)`; otherwise
///      the returned slot is awaited with `Await` or `AwaitWithDeadline`.
///   2. The leader does the work, then publishes (or fails) every key it
///      led — *before* awaiting any slot it follows. Publishing-before-
///      waiting makes the wait graph acyclic, so the protocol cannot
///      deadlock: a thread only ever blocks on keys led by others, and
///      every leader resolves its own keys without blocking first.
///   3. `Await` returns false when the leader failed; the follower falls
///      back to doing the work itself (no re-coalescing for that key this
///      round — bounded work instead of convoy retries).
///
/// Publish/Fail remove the in-flight slot, so a later request for the same
/// key starts a fresh flight (normally it finds the chunk cached first).
/// Thread-safe. Lock order: the map lock and a slot lock are never held
/// together, and callers hold no lock ranked after them (kWarmTier and up)
/// while calling in.
template <typename T>
class SingleFlight {
 public:
  /// One in-flight computation. Followers hold a shared_ptr, so the slot
  /// outlives its removal from the in-flight map.
  struct Slot {
    Mutex mutex{LockRank::kSingleFlightSlot, "single_flight.slot"};
    CondVar cv;
    bool done AAC_GUARDED_BY(mutex) = false;
    bool ok AAC_GUARDED_BY(mutex) = false;
    T value AAC_GUARDED_BY(mutex);
  };

  /// Returns nullptr if the caller became the leader for `key` (and must
  /// later Publish or Fail it), otherwise the slot to await.
  std::shared_ptr<Slot> JoinOrLead(const CacheKey& key) AAC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) return it->second;
    inflight_.emplace(key, std::make_shared<Slot>());
    return nullptr;  // caller leads
  }

  /// Leader: publishes `value` to all followers of `key`. The value is
  /// copied into the slot only when a follower holds it: the slot has left
  /// the map, so it can gain no new holder, and a use count of one means
  /// nobody will ever read it.
  void Publish(const CacheKey& key, const T& value) {
    std::shared_ptr<Slot> slot = Take(key);
    const bool followed = slot.use_count() > 1;
    {
      MutexLock lock(slot->mutex);
      if (followed) slot->value = value;
      slot->ok = true;
      slot->done = true;
    }
    slot->cv.NotifyAll();
  }

  /// Leader: wakes all followers of `key` with a failure.
  void Fail(const CacheKey& key) {
    std::shared_ptr<Slot> slot = Take(key);
    {
      MutexLock lock(slot->mutex);
      slot->ok = false;
      slot->done = true;
    }
    slot->cv.NotifyAll();
  }

  /// Follower: blocks until the leader resolves the slot. Returns true and
  /// copies the value into `*out` on success (counted in coalesced()),
  /// false on leader failure.
  bool Await(Slot& slot, T* out) {
    return AwaitWithDeadline(slot, ExecContext(), out) == AwaitStatus::kOk;
  }

  /// How AwaitWithDeadline resolved.
  enum class AwaitStatus {
    kOk,            // leader published; *out holds the value
    kLeaderFailed,  // leader failed; the follower may do the work itself
    kDeadline,      // the FOLLOWER's own deadline/cancel fired first — it
                    // detaches and gives up on the key; the leader keeps
                    // working and still warms the cache for later queries
  };

  /// Follower: Await bounded by the follower's own context
  /// (CondVar::WaitUntil), so a follower whose deadline fires before the
  /// leader resolves detaches cleanly instead of blocking — counted in
  /// detached(). Detaching mutates no slot state: the slot is
  /// shared_ptr-owned, and Fail never cares how many followers are still
  /// listening.
  AwaitStatus AwaitWithDeadline(Slot& slot, const ExecContext& ctx, T* out) {
    MutexLock lock(slot.mutex);
    if (!slot.cv.WaitUntil(slot.mutex, ctx,
                           [&]() AAC_NO_THREAD_SAFETY_ANALYSIS {
                             return slot.done;
                           })) {
      detached_.fetch_add(1, std::memory_order_relaxed);
      return AwaitStatus::kDeadline;
    }
    if (!slot.ok) return AwaitStatus::kLeaderFailed;
    *out = slot.value;
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    return AwaitStatus::kOk;
  }

  /// Keys with a flight in progress (0 on a quiesced group).
  size_t in_flight() const AAC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return inflight_.size();
  }

  /// Waits answered by another thread's work (coalesced waits that
  /// received a value).
  int64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

  /// Follower waits abandoned because the follower's own deadline or
  /// cancel fired before the leader resolved the slot.
  int64_t detached() const {
    return detached_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<Slot> Take(const CacheKey& key) AAC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto it = inflight_.find(key);
    AAC_CHECK(it != inflight_.end());  // Publish/Fail without JoinOrLead
    std::shared_ptr<Slot> slot = std::move(it->second);
    inflight_.erase(it);
    return slot;
  }

  mutable Mutex mutex_{LockRank::kSingleFlightMap, "single_flight.map"};
  std::unordered_map<CacheKey, std::shared_ptr<Slot>, CacheKeyHash> inflight_
      AAC_GUARDED_BY(mutex_);
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> detached_{0};
};

}  // namespace aac

#endif  // AAC_CACHE_SINGLE_FLIGHT_H_
