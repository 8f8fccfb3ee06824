#include <gtest/gtest.h>

#include <vector>

#include "cache/chunk_cache.h"
#include "cache/replacement.h"

namespace aac {
namespace {

// Builds a chunk with `tuples` cells for key (gb, chunk).
ChunkData MakeChunk(GroupById gb, ChunkId chunk, int tuples) {
  ChunkData d;
  d.gb = gb;
  d.chunk = chunk;
  for (int i = 0; i < tuples; ++i) {
    Cell c;
    c.values[0] = i;
    c.measure = static_cast<double>(i);
    d.cells.push_back(c);
  }
  return d;
}

class RecordingListener : public CacheListener {
 public:
  void OnInsert(const CacheKey& key, int64_t tuples) override {
    (void)tuples;
    inserts.push_back(key);
  }
  void OnUpdate(const CacheKey& key, int64_t tuples) override {
    (void)tuples;
    updates.push_back(key);
  }
  void OnEvict(const CacheKey& key) override { evicts.push_back(key); }
  std::vector<CacheKey> inserts;
  std::vector<CacheKey> updates;
  std::vector<CacheKey> evicts;
};

class ChunkCacheTest : public ::testing::Test {
 protected:
  // Capacity 100 bytes at 10 bytes/tuple = 10 tuples.
  ChunkCacheTest() : cache_(100, 10, &policy_) {}
  BenefitPolicy policy_;
  ChunkCache cache_;
};

TEST_F(ChunkCacheTest, InsertAndGet) {
  EXPECT_TRUE(cache_.Insert(MakeChunk(1, 2, 3), 5.0, ChunkSource::kBackend));
  EXPECT_TRUE(cache_.Contains({1, 2}));
  ChunkData got;
  ASSERT_TRUE(cache_.GetCopy({1, 2}, &got));
  EXPECT_EQ(got.tuple_count(), 3);
  EXPECT_EQ(cache_.bytes_used(), 30);
  EXPECT_EQ(cache_.num_entries(), 1u);
}

TEST_F(ChunkCacheTest, GetMissCountsMiss) {
  ChunkData got;
  EXPECT_FALSE(cache_.GetCopy({9, 9}, &got));
  EXPECT_EQ(cache_.stats().misses, 1);
  EXPECT_EQ(cache_.stats().hits, 0);
}

TEST_F(ChunkCacheTest, PeekDoesNotTouchStats) {
  cache_.Insert(MakeChunk(1, 1, 1), 1.0, ChunkSource::kBackend);
  EXPECT_NE(cache_.Peek({1, 1}), nullptr);
  EXPECT_EQ(cache_.Peek({2, 2}), nullptr);
  EXPECT_EQ(cache_.stats().hits, 0);
  EXPECT_EQ(cache_.stats().misses, 0);
}

TEST_F(ChunkCacheTest, OversizedChunkRejected) {
  EXPECT_FALSE(
      cache_.Insert(MakeChunk(1, 1, 11), 1.0, ChunkSource::kBackend));
  EXPECT_EQ(cache_.stats().rejected_inserts, 1);
  EXPECT_EQ(cache_.num_entries(), 0u);
}

TEST_F(ChunkCacheTest, EvictsToMakeSpace) {
  // Fill with 5 chunks of 2 tuples (20 bytes each).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cache_.Insert(MakeChunk(1, i, 2), 1.0, ChunkSource::kBackend));
  }
  EXPECT_EQ(cache_.bytes_used(), 100);
  // Another insert must evict at least one entry.
  EXPECT_TRUE(cache_.Insert(MakeChunk(2, 0, 2), 1.0, ChunkSource::kBackend));
  EXPECT_LE(cache_.bytes_used(), 100);
  EXPECT_GE(cache_.stats().evictions, 1);
  EXPECT_TRUE(cache_.Contains({2, 0}));
}

TEST_F(ChunkCacheTest, HigherBenefitSurvivesEviction) {
  ASSERT_TRUE(
      cache_.Insert(MakeChunk(1, 0, 4), 1000000.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 1, 4), 0.0, ChunkSource::kBackend));
  EXPECT_EQ(cache_.bytes_used(), 80);
  // Needs 40 bytes; the low-benefit chunk should go first.
  ASSERT_TRUE(
      cache_.Insert(MakeChunk(1, 2, 4), 10.0, ChunkSource::kBackend));
  EXPECT_TRUE(cache_.Contains({1, 0}));
  EXPECT_FALSE(cache_.Contains({1, 1}));
}

TEST_F(ChunkCacheTest, ReinsertRefreshesWithoutDuplicate) {
  cache_.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend);
  EXPECT_TRUE(cache_.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend));
  EXPECT_EQ(cache_.num_entries(), 1u);
  EXPECT_EQ(cache_.bytes_used(), 20);
}

TEST_F(ChunkCacheTest, ReinsertReplacesDataInPlace) {
  // Regression: Insert over an existing key used to refresh the clock
  // state but silently DROP the fresh data, size and benefit.
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 1, 3), 1.0, ChunkSource::kBackend));
  ChunkData fresh = MakeChunk(1, 1, 4);
  fresh.cells[0].measure = 99.0;
  ASSERT_TRUE(cache_.Insert(std::move(fresh), 2.0, ChunkSource::kBackend));
  EXPECT_EQ(cache_.num_entries(), 1u);
  EXPECT_EQ(cache_.bytes_used(), 40);  // 4 tuples * 10 bytes, not stale 30
  ChunkData got;
  ASSERT_TRUE(cache_.GetCopy({1, 1}, &got));
  EXPECT_EQ(got.tuple_count(), 4);
  EXPECT_DOUBLE_EQ(got.cells[0].measure, 99.0);
  double benefit = 0.0;
  cache_.ForEach([&](const CacheEntryInfo& info) { benefit = info.benefit; });
  EXPECT_DOUBLE_EQ(benefit, 2.0);
}

TEST_F(ChunkCacheTest, ReinsertNotifiesUpdateNotInsert) {
  RecordingListener listener;
  cache_.AddListener(&listener);
  cache_.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend);
  cache_.Insert(MakeChunk(1, 1, 3), 1.0, ChunkSource::kBackend);
  EXPECT_EQ(listener.inserts.size(), 1u);
  ASSERT_EQ(listener.updates.size(), 1u);
  EXPECT_EQ(listener.updates[0].gb, 1);
  EXPECT_EQ(listener.updates[0].chunk, 1);
}

TEST_F(ChunkCacheTest, ReinsertOfPinnedEntryKeepsPinnedData) {
  // A pinned entry's data may be referenced by an in-flight plan, so a
  // concurrent re-insert only refreshes its clock position.
  cache_.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend);
  cache_.Pin({1, 1});
  EXPECT_TRUE(cache_.Insert(MakeChunk(1, 1, 3), 2.0, ChunkSource::kBackend));
  EXPECT_EQ(cache_.Peek({1, 1})->tuple_count(), 2);
  EXPECT_EQ(cache_.bytes_used(), 20);
  cache_.Unpin({1, 1});
}

TEST_F(ChunkCacheTest, ReinsertGrowthEvictsOthersToFit) {
  // Replacing an entry with a bigger version must make room for the
  // difference, not reject or double-count.
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 0, 4), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 1, 4), 0.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 0, 8), 5.0, ChunkSource::kBackend));
  EXPECT_EQ(cache_.Peek({1, 0})->tuple_count(), 8);
  EXPECT_FALSE(cache_.Contains({1, 1}));
  EXPECT_EQ(cache_.bytes_used(), 80);
}

TEST_F(ChunkCacheTest, RemoveFreesSpace) {
  cache_.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend);
  EXPECT_TRUE(cache_.Remove({1, 1}));
  EXPECT_FALSE(cache_.Contains({1, 1}));
  EXPECT_EQ(cache_.bytes_used(), 0);
  EXPECT_FALSE(cache_.Remove({1, 1}));
}

TEST_F(ChunkCacheTest, PinnedEntriesAreNotEvicted) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cache_.Insert(MakeChunk(1, i, 2), 0.0, ChunkSource::kBackend));
  }
  for (int i = 0; i < 5; ++i) cache_.Pin({1, i});
  // Nothing can be evicted: insert must fail.
  EXPECT_FALSE(cache_.Insert(MakeChunk(2, 0, 2), 1.0, ChunkSource::kBackend));
  for (int i = 0; i < 5; ++i) cache_.Unpin({1, i});
  EXPECT_TRUE(cache_.Insert(MakeChunk(2, 0, 2), 1.0, ChunkSource::kBackend));
}

TEST_F(ChunkCacheTest, ListenersObserveInsertAndEvict) {
  RecordingListener listener;
  cache_.AddListener(&listener);
  cache_.Insert(MakeChunk(3, 7, 2), 1.0, ChunkSource::kBackend);
  ASSERT_EQ(listener.inserts.size(), 1u);
  EXPECT_EQ(listener.inserts[0].gb, 3);
  EXPECT_EQ(listener.inserts[0].chunk, 7);
  cache_.Remove({3, 7});
  ASSERT_EQ(listener.evicts.size(), 1u);
  EXPECT_EQ(listener.evicts[0].gb, 3);
}

TEST_F(ChunkCacheTest, ReinsertDoesNotNotifyListeners) {
  RecordingListener listener;
  cache_.AddListener(&listener);
  cache_.Insert(MakeChunk(1, 1, 1), 1.0, ChunkSource::kBackend);
  cache_.Insert(MakeChunk(1, 1, 1), 1.0, ChunkSource::kBackend);
  EXPECT_EQ(listener.inserts.size(), 1u);
}

TEST_F(ChunkCacheTest, BoostDelaysEviction) {
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 0, 4), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 1, 4), 1.0, ChunkSource::kBackend));
  cache_.Boost({1, 0}, 100.0);
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 2, 4), 1.0, ChunkSource::kBackend));
  EXPECT_TRUE(cache_.Contains({1, 0}));
  EXPECT_FALSE(cache_.Contains({1, 1}));
}

TEST_F(ChunkCacheTest, BoostFarBeyondBudgetStillInserts) {
  // Regression: Boost used to raise clock_value without bound, while the
  // eviction sweep budget assumes values near the policy weight range
  // (<= ChunkCache::kMaxClockValue). Entries boosted far past the budget
  // could never be swept to zero, wedging a full cache into rejecting
  // perfectly admissible inserts forever.
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 0, 5), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache_.Insert(MakeChunk(1, 1, 5), 1.0, ChunkSource::kBackend));
  for (int i = 0; i < 1000; ++i) {
    cache_.Boost({1, 0}, 1000.0);
    cache_.Boost({1, 1}, 1000.0);
  }
  // The cache is full (100 bytes); the new chunk must still get in.
  EXPECT_TRUE(cache_.Insert(MakeChunk(2, 0, 5), 1.0, ChunkSource::kBackend));
  EXPECT_TRUE(cache_.Contains({2, 0}));
}

TEST_F(ChunkCacheTest, GetCopyAndGetPinnedAgreeWithGet) {
  cache_.Insert(MakeChunk(1, 2, 3), 5.0, ChunkSource::kBackend);
  ChunkData copy;
  ASSERT_TRUE(cache_.GetCopy({1, 2}, &copy));
  EXPECT_EQ(copy.tuple_count(), 3);
  EXPECT_FALSE(cache_.GetCopy({9, 9}, &copy));
  const ChunkData* pinned = cache_.GetPinned({1, 2});
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->tuple_count(), 3);
  cache_.Unpin({1, 2});
  EXPECT_EQ(cache_.GetPinned({9, 9}), nullptr);
  EXPECT_EQ(cache_.stats().hits, 2);
  EXPECT_EQ(cache_.stats().misses, 2);
}

TEST(ShardedChunkCacheTest, ShardedCacheBasicOperations) {
  BenefitPolicy policy;
  // Ample per-shard capacity: no evictions even if every chunk hashes to
  // one shard.
  ChunkCache cache(1600, 10, &policy, /*num_shards=*/4);
  EXPECT_EQ(cache.num_shards(), 4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        cache.Insert(MakeChunk(1, i, 2), 1.0, ChunkSource::kBackend));
  }
  EXPECT_EQ(cache.num_entries(), 8u);
  EXPECT_EQ(cache.bytes_used(), 160);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(cache.Contains({1, i}));
  EXPECT_TRUE(cache.Remove({1, 3}));
  EXPECT_EQ(cache.num_entries(), 7u);
  EXPECT_EQ(cache.bytes_used(), 140);
  EXPECT_TRUE(cache.ValidateInvariants());
}

TEST_F(ChunkCacheTest, TwoLevelPolicyProtectsBackendChunks) {
  TwoLevelPolicy policy;
  ChunkCache cache(40, 10, &policy);
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 0, 2), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend));
  // A cache-computed chunk may not displace backend chunks.
  EXPECT_FALSE(
      cache.Insert(MakeChunk(2, 0, 2), 50.0, ChunkSource::kCacheComputed));
  // A backend chunk can.
  EXPECT_TRUE(cache.Insert(MakeChunk(2, 1, 2), 50.0, ChunkSource::kBackend));
}

TEST_F(ChunkCacheTest, TwoLevelBackendReplacesCacheComputedFirst) {
  TwoLevelPolicy policy;
  ChunkCache cache(40, 10, &policy);
  ASSERT_TRUE(
      cache.Insert(MakeChunk(1, 0, 2), 100.0, ChunkSource::kCacheComputed));
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 1, 2), 0.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache.Insert(MakeChunk(2, 0, 2), 0.0, ChunkSource::kBackend));
  // The cache-computed chunk is gone even though its benefit was highest;
  // backend chunks were protected from it but it is fair game for them.
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_TRUE(cache.Contains({1, 1}));
  EXPECT_TRUE(cache.Contains({2, 0}));
}

TEST_F(ChunkCacheTest, ZeroCapacityRejectsEverything) {
  BenefitPolicy policy;
  ChunkCache cache(0, 10, &policy);
  EXPECT_FALSE(cache.Insert(MakeChunk(1, 0, 1), 1.0, ChunkSource::kBackend));
  // Empty chunks (0 bytes) are admissible.
  EXPECT_TRUE(cache.Insert(MakeChunk(1, 1, 0), 1.0, ChunkSource::kBackend));
}

TEST_F(ChunkCacheTest, ForEachVisitsAllEntries) {
  cache_.Insert(MakeChunk(1, 0, 1), 1.0, ChunkSource::kBackend);
  cache_.Insert(MakeChunk(1, 1, 1), 2.0, ChunkSource::kCacheComputed);
  int count = 0;
  double total_benefit = 0;
  cache_.ForEach([&](const CacheEntryInfo& info) {
    ++count;
    total_benefit += info.benefit;
  });
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(total_benefit, 3.0);
}

TEST_F(ChunkCacheTest, StatsCountHitsAndInserts) {
  cache_.Insert(MakeChunk(1, 0, 1), 1.0, ChunkSource::kBackend);
  ChunkData got;
  cache_.GetCopy({1, 0}, &got);
  cache_.GetCopy({1, 0}, &got);
  cache_.GetCopy({2, 2}, &got);
  EXPECT_EQ(cache_.stats().inserts, 1);
  EXPECT_EQ(cache_.stats().hits, 2);
  EXPECT_EQ(cache_.stats().misses, 1);
}

TEST(ChunkCacheDeathTest, UnpinWithoutPinAborts) {
  BenefitPolicy policy;
  ChunkCache cache(100, 10, &policy);
  cache.Insert(MakeChunk(1, 0, 1), 1.0, ChunkSource::kBackend);
  EXPECT_DEATH(cache.Unpin({1, 0}), "AAC_CHECK");
}

TEST(ChunkCacheDeathTest, RemovePinnedAborts) {
  BenefitPolicy policy;
  ChunkCache cache(100, 10, &policy);
  cache.Insert(MakeChunk(1, 0, 1), 1.0, ChunkSource::kBackend);
  cache.Pin({1, 0});
  EXPECT_DEATH(cache.Remove({1, 0}), "AAC_CHECK");
}

}  // namespace
}  // namespace aac
