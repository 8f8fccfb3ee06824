#ifndef AAC_CACHE_CLOCK_RING_H_
#define AAC_CACHE_CLOCK_RING_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <utility>

#include "util/check.h"

namespace aac {

/// Weighted CLOCK, the approximation of LRU every cache store replaces by
/// (paper Section 6): the store's keys in admission order, each with a
/// clock value granted on admission and on every use, and a hand. The store
/// keeps its map (each entry holds its member's Position), payload, bytes,
/// stats and victims, and its mutex guards the ring; Sweep callbacks that
/// touch guarded state are AAC_NO_THREAD_SAFETY_ANALYSIS (the analysis does
/// not carry a held lock into a lambda). Not movable: a parked hand is end().
template <typename Key>
class ClockRing {
  struct Member {
    Key key;
    double clock = 0.0;
  };
  using List = std::list<Member>;

 public:
  /// A member's place in the ring; valid until the member is erased.
  using Position = typename List::iterator;

  /// Boost saturates here. Grants are at most 32
  /// (ReplacementPolicy::NormalizedWeight), so every member reaches zero
  /// within kSweepVisitsPerMember visits and a sweep's budget suffices.
  static constexpr double kMaxClockValue = 48.0;
  static constexpr int64_t kSweepVisitsPerMember = 64;

  ClockRing() = default;
  ClockRing(const ClockRing&) = delete;
  ClockRing& operator=(const ClockRing&) = delete;

  /// The member the next sweep starts at; null while the hand is parked.
  const Key* hand_key() const {
    return hand_ == members_.end() ? nullptr : &hand_->key;
  }

  /// Appends `key` with clock value `clock`. A parked hand moves onto it.
  Position Add(const Key& key, double clock) {
    const Position pos = members_.insert(members_.end(), Member{key, clock});
    if (hand_ == members_.end()) hand_ = pos;
    return pos;
  }

  /// Removes the member. A hand on it moves to the next member first.
  void Erase(Position pos) {
    if (hand_ == pos) ++hand_;
    members_.erase(pos);
  }

  void Refresh(Position pos, double clock) { pos->clock = clock; }

  void Boost(Position pos, double amount) {
    pos->clock = std::min(pos->clock + amount, kMaxClockValue);
  }

  /// Evicts members from the hand on until `needed` is freed; true once it
  /// is. `map`, the store's, holds an entry for every member. The hand
  /// passes a member `eligible(key, entry)` refuses untouched, takes one off
  /// an eligible member's positive value, and hands an eligible member at
  /// zero to `evict(map iterator)`, which must Erase it and its entry, may
  /// Erase others, and returns what it freed. Gives up after
  /// (size + 1) * kSweepVisitsPerMember visits, or after a full revolution
  /// that met no eligible member.
  template <typename Map, typename Eligible, typename Evict>
  bool Sweep(Map& map, int64_t needed, Eligible&& eligible, Evict&& evict) {
    int64_t freed = 0;
    int64_t budget =
        static_cast<int64_t>(members_.size() + 1) * kSweepVisitsPerMember;
    int64_t remaining_in_rev = static_cast<int64_t>(members_.size());
    bool eligible_in_rev = false;
    while (freed < needed && budget-- > 0 && !members_.empty()) {
      if (hand_ == members_.end()) hand_ = members_.begin();
      if (remaining_in_rev-- <= 0) {
        if (!eligible_in_rev) break;
        remaining_in_rev = static_cast<int64_t>(members_.size());
        eligible_in_rev = false;
      }
      Member& member = *hand_;
      const auto it = map.find(member.key);
      AAC_CHECK(it != map.end());
      if (!eligible(it->first, std::as_const(it->second))) {
        ++hand_;
        continue;
      }
      eligible_in_rev = true;
      if (member.clock <= 0.0) {
        freed += evict(it);
        continue;
      }
      member.clock -= 1.0;
      ++hand_;
    }
    return freed >= needed;
  }

  /// The ring half of a store's ValidateInvariants, over the store's map,
  /// whose entries keep their Position in `ring_pos`: true when the ring
  /// holds exactly the entries `in_ring(entry)` accepts, each at its own
  /// Position, and the hand is parked or on a member.
  template <typename Map, typename InRing>
  bool Validate(const Map& map, InRing&& in_ring) const {
    size_t accepted = 0;
    for (const auto& [key, entry] : map) accepted += in_ring(entry) ? 1 : 0;
    if (accepted != members_.size()) return false;
    bool hand_found = hand_ == members_.end();
    for (auto it = members_.begin(); it != members_.end(); ++it) {
      auto found = map.find(it->key);
      if (found == map.end() || !in_ring(found->second) ||
          typename List::const_iterator(found->second.ring_pos) != it) {
        return false;
      }
      if (it == typename List::const_iterator(hand_)) hand_found = true;
    }
    return hand_found;
  }

 private:
  List members_;
  Position hand_ = members_.end();
};

}  // namespace aac

#endif  // AAC_CACHE_CLOCK_RING_H_
