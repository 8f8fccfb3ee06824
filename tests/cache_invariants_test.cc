#include <gtest/gtest.h>

#include <vector>

#include "cache/chunk_cache.h"
#include "cache/replacement.h"
#include "util/rng.h"

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

// Accounting invariants that must hold after ANY operation sequence:
// bytes_used equals the sum of entry sizes, never exceeds capacity, and
// entry count matches what ForEach visits.
void CheckInvariants(const ChunkCache& cache) {
  int64_t bytes = 0;
  size_t entries = 0;
  cache.ForEach([&](const CacheEntryInfo& info) {
    bytes += info.bytes;
    ++entries;
    EXPECT_EQ(cache.Peek(info.key)->LogicalBytes(cache.bytes_per_tuple()),
              info.bytes);
  });
  EXPECT_EQ(bytes, cache.bytes_used());
  EXPECT_EQ(entries, cache.num_entries());
  EXPECT_LE(cache.bytes_used(), cache.capacity_bytes());
}

class CacheInvariantsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheInvariantsTest, RandomOpsPreserveAccounting) {
  for (const int num_shards : {1, 4}) {
  for (const bool two_level : {false, true}) {
    BenefitPolicy benefit;
    TwoLevelPolicy twolevel;
    const ReplacementPolicy* policy =
        two_level ? static_cast<const ReplacementPolicy*>(&twolevel)
                  : static_cast<const ReplacementPolicy*>(&benefit);
    ChunkCache cache(600, 10, policy, num_shards);
    Rng rng(GetParam() + (two_level ? 500 : 0) +
            static_cast<uint64_t>(num_shards) * 1000);
    std::vector<CacheKey> maybe_cached;
    for (int i = 0; i < 600; ++i) {
      const double op = rng.UniformDouble();
      const GroupById gb = static_cast<GroupById>(rng.Uniform(4));
      const ChunkId chunk = static_cast<ChunkId>(rng.Uniform(12));
      if (op < 0.5) {
        const int tuples = 1 + static_cast<int>(rng.Uniform(8));
        const double ben = static_cast<double>(rng.Uniform(1000));
        const ChunkSource source = rng.Bernoulli(0.5)
                                       ? ChunkSource::kBackend
                                       : ChunkSource::kCacheComputed;
        cache.Insert(MakeChunk(gb, chunk, tuples), ben, source);
        maybe_cached.push_back({gb, chunk});
      } else if (op < 0.65) {
        cache.Remove({gb, chunk});
      } else if (op < 0.8) {
        ChunkData copy;
        cache.GetCopy({gb, chunk}, &copy);
      } else if (op < 0.9) {
        cache.Boost({gb, chunk}, rng.UniformDouble() * 20.0);
      } else if (!maybe_cached.empty()) {
        // Pin/unpin a (possibly) cached entry around a no-op.
        const CacheKey key = maybe_cached[rng.Uniform(maybe_cached.size())];
        if (cache.Contains(key)) {
          cache.Pin(key);
          ChunkData copy;
          cache.GetCopy(key, &copy);
          cache.Unpin(key);
        }
      }
      if (i % 37 == 0) {
        CheckInvariants(cache);
        EXPECT_TRUE(cache.ValidateInvariants());
      }
    }
    CheckInvariants(cache);
    EXPECT_TRUE(cache.ValidateInvariants());
    // Stats are internally consistent.
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.inserts - stats.evictions,
              static_cast<int64_t>(cache.num_entries()));
    EXPECT_GE(stats.hits + stats.misses, 0);
  }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheInvariantsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(CacheInvariants, PinnedBytesNeverEvictedEvenUnderFullPressure) {
  BenefitPolicy policy;
  ChunkCache cache(100, 10, &policy);
  ASSERT_TRUE(cache.Insert(MakeChunk(1, 0, 5), 0.0, ChunkSource::kBackend));
  cache.Pin({1, 0});
  // Flood with inserts: the pinned entry must survive every sweep.
  for (int i = 1; i <= 50; ++i) {
    cache.Insert(MakeChunk(1, i, 5), 1000.0, ChunkSource::kBackend);
    ASSERT_TRUE(cache.Contains({1, 0})) << i;
  }
  cache.Unpin({1, 0});
  CheckInvariants(cache);
}

}  // namespace
}  // namespace aac
