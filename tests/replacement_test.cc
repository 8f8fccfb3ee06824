#include <gtest/gtest.h>

#include "cache/replacement.h"

namespace aac {
namespace {

CacheEntryInfo MakeInfo(double benefit, ChunkSource source) {
  CacheEntryInfo info;
  info.key = {0, 0};
  info.bytes = 10;
  info.benefit = benefit;
  info.source = source;
  return info;
}

TEST(NormalizedWeight, MonotoneAndBounded) {
  EXPECT_DOUBLE_EQ(ReplacementPolicy::NormalizedWeight(0.0), 1.0);
  double prev = 0.0;
  for (double b : {0.0, 1.0, 10.0, 1e3, 1e6, 1e12}) {
    const double w = ReplacementPolicy::NormalizedWeight(b);
    EXPECT_GE(w, prev);
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 32.0);
    prev = w;
  }
}

TEST(NormalizedWeight, NegativeBenefitClampsToOne) {
  EXPECT_DOUBLE_EQ(ReplacementPolicy::NormalizedWeight(-5.0), 1.0);
}

TEST(BenefitPolicy, ClockValueGrowsWithBenefit) {
  BenefitPolicy p;
  EXPECT_LT(p.ClockValue(MakeInfo(1.0, ChunkSource::kBackend)),
            p.ClockValue(MakeInfo(1000.0, ChunkSource::kBackend)));
}

// The replacement rule is MayReplaceClass over the victim's class: the cache
// sweeps only the rings of the classes an incoming chunk may replace.
bool MayReplace(const ReplacementPolicy& p, const CacheEntryInfo& incoming,
                const CacheEntryInfo& victim) {
  return p.MayReplaceClass(incoming, p.VictimClass(victim));
}

TEST(BenefitPolicy, AnyoneCanReplaceAnyone) {
  BenefitPolicy p;
  EXPECT_TRUE(MayReplace(p, MakeInfo(1, ChunkSource::kCacheComputed),
                         MakeInfo(100, ChunkSource::kBackend)));
  EXPECT_TRUE(MayReplace(p, MakeInfo(1, ChunkSource::kBackend),
                         MakeInfo(100, ChunkSource::kCacheComputed)));
}

TEST(TwoLevelPolicy, CacheComputedCannotReplaceBackend) {
  TwoLevelPolicy p;
  EXPECT_FALSE(MayReplace(p, MakeInfo(100, ChunkSource::kCacheComputed),
                          MakeInfo(1, ChunkSource::kBackend)));
}

TEST(TwoLevelPolicy, BackendCanReplaceEither) {
  TwoLevelPolicy p;
  EXPECT_TRUE(MayReplace(p, MakeInfo(1, ChunkSource::kBackend),
                         MakeInfo(100, ChunkSource::kBackend)));
  EXPECT_TRUE(MayReplace(p, MakeInfo(1, ChunkSource::kBackend),
                         MakeInfo(100, ChunkSource::kCacheComputed)));
}

TEST(TwoLevelPolicy, CacheComputedCanReplaceCacheComputed) {
  TwoLevelPolicy p;
  EXPECT_TRUE(MayReplace(p, MakeInfo(1, ChunkSource::kCacheComputed),
                         MakeInfo(100, ChunkSource::kCacheComputed)));
}

// Over every policy and every (incoming, victim) source pair, only the
// two-level policy refuses, and only a cache-computed chunk against a
// backend chunk; it alone splits the sources into two victim classes.
TEST(ReplacementPolicy, OnlyTwoLevelRefusesAComputedChunkOverABackendOne) {
  const BenefitPolicy benefit;
  const LruPolicy lru;
  const SizeAwarePolicy size_aware;
  const TwoLevelPolicy two_level;
  const struct {
    const char* name;
    const ReplacementPolicy& policy;
  } policies[] = {{"benefit", benefit},
                  {"lru", lru},
                  {"size-aware", size_aware},
                  {"two-level", two_level}};
  const ChunkSource sources[] = {ChunkSource::kBackend,
                                 ChunkSource::kCacheComputed};
  for (const auto& [name, policy] : policies) {
    const bool is_two_level = &policy == &two_level;
    EXPECT_EQ(policy.num_victim_classes(), is_two_level ? 2 : 1) << name;
    for (ChunkSource in : sources) {
      for (ChunkSource victim : sources) {
        const bool refused = is_two_level &&
                             in == ChunkSource::kCacheComputed &&
                             victim == ChunkSource::kBackend;
        EXPECT_EQ(MayReplace(policy, MakeInfo(1, in), MakeInfo(100, victim)),
                  !refused)
            << name << ": incoming source " << static_cast<int>(in)
            << ", victim source " << static_cast<int>(victim);
      }
    }
  }
}

}  // namespace
}  // namespace aac
