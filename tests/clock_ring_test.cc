#include "cache/clock_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace aac {
namespace {

using Ring = ClockRing<int>;

// The ring's contract written out literally: the members in ring order as
// (key, clock) pairs, and the hand as an index that equals the member count
// while it is parked.
struct Model {
  std::vector<std::pair<int, double>> members;
  size_t hand = 0;

  size_t IndexOf(int key) const {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == key) return i;
    }
    ADD_FAILURE() << "model has no member " << key;
    return 0;
  }

  // A parked hand sits at index members.size(), which is where the new
  // member lands: the hand is on it without moving.
  void Add(int key, double clock) { members.emplace_back(key, clock); }

  // A hand on the member moves to the next, which then slides down into
  // the erased index; a hand past it slides down with the rest.
  void Erase(int key) {
    const size_t i = IndexOf(key);
    if (hand > i) --hand;
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void Refresh(int key, double clock) { members[IndexOf(key)].second = clock; }

  void Boost(int key, double amount) {
    double& clock = members[IndexOf(key)].second;
    clock = std::min(clock + amount, Ring::kMaxClockValue);
  }

  const int* HandKey() const {
    return hand < members.size() ? &members[hand].first : nullptr;
  }

  std::vector<int> Keys() const {
    std::vector<int> keys;
    for (const auto& [key, clock] : members) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  // One sweep, step by step. The budget is 64 visits per member plus 64.
  // The first revolution is the first members.size() visits; when one ends
  // having met an eligible member, the next is the visit that starts it
  // plus members.size() more. A revolution that met none ends the sweep.
  template <typename Eligible, typename Evict>
  bool Sweep(int64_t needed, Eligible eligible, Evict evict) {
    int64_t freed = 0;
    int64_t budget = static_cast<int64_t>(members.size()) * 64 + 64;
    int64_t left_in_revolution = static_cast<int64_t>(members.size());
    bool met_eligible = false;
    while (freed < needed && budget > 0 && !members.empty()) {
      --budget;
      if (hand == members.size()) hand = 0;
      if (left_in_revolution == 0) {
        if (!met_eligible) break;
        left_in_revolution = static_cast<int64_t>(members.size());
        met_eligible = false;
      } else {
        --left_in_revolution;
      }
      const int key = members[hand].first;
      if (!eligible(key)) {
        ++hand;
        continue;
      }
      met_eligible = true;
      if (members[hand].second <= 0.0) {
        freed += evict(key);  // erases the member, and maybe another
        continue;
      }
      members[hand].second -= 1.0;
      ++hand;
    }
    return freed >= needed;
  }
};

// The store side of the contract, as a cache keeps it: a map from each
// resident key to an entry holding its member's Position.
struct Store {
  struct Entry {
    Ring::Position ring_pos;
  };
  using Map = std::map<int, Entry>;
  Ring ring;
  Map entries;

  void Add(int key, double clock) { entries[key] = {ring.Add(key, clock)}; }

  void Erase(int key) {
    ring.Erase(entries.at(key).ring_pos);
    entries.erase(key);
  }

  std::vector<int> Keys() const {
    std::vector<int> keys;
    for (const auto& [key, entry] : entries) keys.push_back(key);
    return keys;
  }

  bool Valid() const {
    return ring.Validate(entries, [](const Entry&) { return true; });
  }
};

::testing::AssertionResult SameHand(const Ring& ring, const Model& model) {
  const int* got = ring.hand_key();
  const int* want = model.HandKey();
  if ((got == nullptr) != (want == nullptr) ||
      (got != nullptr && *got != *want)) {
    return ::testing::AssertionFailure()
           << "hand on " << (got ? std::to_string(*got) : "end")
           << ", model's on " << (want ? std::to_string(*want) : "end");
  }
  return ::testing::AssertionSuccess();
}

// One sweep's evictions: who went, in order, and which second members the
// evict callback erased along with them.
struct SweepLog {
  bool result = false;
  std::vector<int> victims;
  std::vector<int> extras;
};

// The evict callback both sides run. With draw % 4 == 0 it also erases a
// second resident member, picked by the draw, the way the disk tier's
// compaction drops torn extents mid-sweep.
template <typename Side>
int64_t Evict(Side& side, int key, uint64_t draw,
              const std::map<int, int64_t>& size_of, SweepLog* log) {
  log->victims.push_back(key);
  side.Erase(key);
  const std::vector<int> rest = side.Keys();
  if (draw % 4 == 0 && !rest.empty()) {
    const int extra = rest[(draw / 4) % rest.size()];
    log->extras.push_back(extra);
    side.Erase(extra);
  }
  return size_of.at(key);
}

// Seeded random adds, erases, refreshes, boosts and sweeps, with random
// `needed`, random eligibility and evict callbacks that sometimes erase a
// second member, drive the ring and the model side by side. Grants reach
// past the cap so that some sweeps run out of budget.
TEST(ClockRingTest, AgreesWithLiteralModel) {
  int64_t failed_sweeps = 0;
  int64_t extras = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Store store;
    Model model;
    std::map<int, int64_t> size_of;  // every key ever added
    int next_key = 0;
    for (int step = 0; step < 400; ++step) {
      const std::vector<int> keys = store.Keys();
      const uint64_t op = rng.Uniform(10);
      if (op < 3 || keys.empty()) {
        const int key = next_key++;
        const double clock = rng.UniformDouble() * 80.0;
        size_of[key] = rng.UniformInt(1, 8);
        store.Add(key, clock);
        model.Add(key, clock);
      } else if (op == 3) {
        const int key = keys[rng.Uniform(keys.size())];
        store.Erase(key);
        model.Erase(key);
      } else if (op == 4) {
        const int key = keys[rng.Uniform(keys.size())];
        const double clock = rng.UniformDouble() * 80.0;
        store.ring.Refresh(store.entries.at(key).ring_pos, clock);
        model.Refresh(key, clock);
      } else if (op == 5) {
        const int key = keys[rng.Uniform(keys.size())];
        const double amount = rng.UniformDouble() * 60.0;
        store.ring.Boost(store.entries.at(key).ring_pos, amount);
        model.Boost(key, amount);
      } else {
        int64_t resident = 0;
        for (int key : keys) resident += size_of.at(key);
        const int64_t needed = rng.UniformInt(0, resident + 8);
        constexpr double kShares[] = {0.0, 0.3, 0.8, 1.0};
        const double share = kShares[rng.Uniform(4)];
        std::set<int> eligible;
        for (int key : keys) {
          if (rng.Bernoulli(share)) eligible.insert(key);
        }
        auto is_eligible = [&](int key) { return eligible.count(key) > 0; };
        std::vector<uint64_t> draws(512);
        for (uint64_t& d : draws) d = rng.NextU64();

        SweepLog got;
        size_t next_draw = 0;
        got.result = store.ring.Sweep(
            store.entries, needed,
            [&](int key, const Store::Entry&) { return is_eligible(key); },
            [&](Store::Map::iterator it) {
              return Evict(store, it->first, draws[next_draw++ % draws.size()],
                           size_of, &got);
            });
        SweepLog want;
        next_draw = 0;
        want.result = model.Sweep(needed, is_eligible, [&](int key) {
          return Evict(model, key, draws[next_draw++ % draws.size()],
                       size_of, &want);
        });
        ASSERT_EQ(got.result, want.result) << "step " << step;
        ASSERT_EQ(got.victims, want.victims) << "step " << step;
        ASSERT_EQ(got.extras, want.extras) << "step " << step;
        if (!got.result) ++failed_sweeps;
        extras += static_cast<int64_t>(got.extras.size());
      }
      ASSERT_TRUE(store.Valid()) << "step " << step;
      ASSERT_TRUE(SameHand(store.ring, model)) << "step " << step;
      ASSERT_EQ(store.entries.size(), model.members.size()) << "step " << step;
    }
  }
  // Both outcomes and the second-member erase actually occurred.
  EXPECT_GT(failed_sweeps, 0);
  EXPECT_GT(extras, 0);
}

// Adds `keys` to an empty store, each at clock `clock`; the hand starts on
// the first.
void Fill(Store* store, const std::vector<int>& keys, double clock) {
  for (int key : keys) store->Add(key, clock);
}

TEST(ClockRingTest, AllIneligibleEvictsNothing) {
  Store store;
  Fill(&store, {1, 2, 3, 4, 5}, 0.0);
  int visits = 0;
  bool evicted = false;
  EXPECT_FALSE(store.ring.Sweep(
      store.entries, 1,
      [&](int, const Store::Entry&) {
        ++visits;
        return false;
      },
      [&](Store::Map::iterator) {
        evicted = true;
        return int64_t{1};
      }));
  EXPECT_FALSE(evicted);
  EXPECT_EQ(visits, 5);  // one revolution, then the sweep gives up
  EXPECT_EQ(store.entries.size(), 5u);
  ASSERT_NE(store.ring.hand_key(), nullptr);
  EXPECT_EQ(*store.ring.hand_key(), 1);
  EXPECT_TRUE(store.Valid());
}

// The result cache's replace-in-place sweep protects the key it replaces.
// Once only that key is left, the sweep ends after one revolution instead
// of spending its budget, and the hand stays on the key.
TEST(ClockRingTest, OnlyProtectedKeyLeftEndsAfterOneRevolution) {
  const int kProtected = 7;
  Store store;
  Fill(&store, {3, kProtected}, 0.0);
  int visits = 0;
  std::vector<int> victims;
  EXPECT_FALSE(store.ring.Sweep(
      store.entries, 100,
      [&](int key, const Store::Entry&) {
        ++visits;
        return key != kProtected;
      },
      [&](Store::Map::iterator it) {
        const int key = it->first;
        victims.push_back(key);
        store.Erase(key);
        return int64_t{1};
      }));
  EXPECT_EQ(victims, std::vector<int>{3});
  // 3 (evicted) and 7 make the first revolution; the next, over the lone
  // 7, is the visit that starts it and one more, and then the sweep stops.
  EXPECT_EQ(visits, 4);
  ASSERT_NE(store.ring.hand_key(), nullptr);
  EXPECT_EQ(*store.ring.hand_key(), kProtected);
  EXPECT_TRUE(store.Valid());

  // A second sweep over the lone protected key visits it once.
  visits = 0;
  EXPECT_FALSE(store.ring.Sweep(
      store.entries, 1,
      [&](int key, const Store::Entry&) {
        ++visits;
        return key != kProtected;
      },
      [&](Store::Map::iterator) { return int64_t{1}; }));
  EXPECT_EQ(visits, 1);
  EXPECT_TRUE(store.Valid());
}

// An evict callback may erase members besides the victim, including the
// one the hand just moved onto: the sweep goes on from the next survivor.
TEST(ClockRingTest, EvictCallbackMayEraseASecondMember) {
  Store store;
  Fill(&store, {1, 2, 3, 4}, 0.0);
  std::vector<int> victims;
  EXPECT_TRUE(store.ring.Sweep(
      store.entries, 2, [](int, const Store::Entry&) { return true; },
      [&](Store::Map::iterator it) {
        const int key = it->first;
        victims.push_back(key);
        store.Erase(key);
        if (key == 1) store.Erase(2);  // the member the hand moved onto
        return int64_t{1};
      }));
  EXPECT_EQ(victims, (std::vector<int>{1, 3}));
  EXPECT_EQ(store.Keys(), std::vector<int>{4});
  ASSERT_NE(store.ring.hand_key(), nullptr);
  EXPECT_EQ(*store.ring.hand_key(), 4);
  EXPECT_TRUE(store.Valid());
}

// Boost saturates at the cap, so however often members were boosted, one
// sweep's budget still reaches every one of them at zero.
TEST(ClockRingTest, BoostsAtTheCapStillFitTheBudget) {
  Store store;
  Fill(&store, {1, 2, 3, 4, 5, 6}, 1.0);
  for (int round = 0; round < 1000; ++round) {
    for (const auto& [key, entry] : store.entries) {
      store.ring.Boost(entry.ring_pos, 1000.0);
    }
  }
  std::vector<int> victims;
  EXPECT_TRUE(store.ring.Sweep(
      store.entries, 6, [](int, const Store::Entry&) { return true; },
      [&](Store::Map::iterator it) {
        const int key = it->first;
        victims.push_back(key);
        store.Erase(key);
        return int64_t{1};
      }));
  EXPECT_EQ(victims, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(store.entries.empty());
  EXPECT_EQ(store.ring.hand_key(), nullptr);
  EXPECT_TRUE(store.Valid());
}

}  // namespace
}  // namespace aac
