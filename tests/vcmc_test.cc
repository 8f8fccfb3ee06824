#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "core/esmc.h"
#include "core/memo_esmc.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "test_env.h"
#include "util/rng.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;
constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectBestParentsMatchScratch(const TestEnv& env,
                                   const VcmcStrategy& vcmc) {
  const auto [costs, parents] = vcmc.ComputeCostsFromScratch();
  const Lattice& lat = env.lattice();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      EXPECT_EQ(vcmc.BestParentOf(gb, c), parents[OracleIndex(env, gb, c)])
          << lat.LevelOf(gb).ToString() << "#" << c;
    }
  }
}

void ExpectCostsMatchScratch(const TestEnv& env, const VcmcStrategy& vcmc) {
  const auto [costs, parents] = vcmc.ComputeCostsFromScratch();
  const Lattice& lat = env.lattice();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      const double want = costs[OracleIndex(env, gb, c)];
      const double got = vcmc.CostOf(gb, c);
      if (want == kInf) {
        EXPECT_EQ(got, kInf) << lat.LevelOf(gb).ToString() << "#" << c;
      } else {
        EXPECT_NEAR(got, want, 1e-6 * (1.0 + want))
            << lat.LevelOf(gb).ToString() << "#" << c;
      }
    }
  }
}

TEST(Vcmc, EmptyCacheAllCostsInfinite) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.5, 1, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  for (GroupById gb = 0; gb < env.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      EXPECT_EQ(vcmc.CostOf(gb, c), kInf);
      EXPECT_EQ(vcmc.BestParentOf(gb, c), VcmcStrategy::kNone);
    }
  }
}

TEST(Vcmc, CachedChunkHasZeroCostSelfParent) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.5, 2, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  const GroupById gb = env.lattice().IdOf(LevelVector{1, 1});
  CacheChunkFromBackend(env, gb, 0);
  EXPECT_EQ(vcmc.CostOf(gb, 0), 0.0);
  EXPECT_EQ(vcmc.BestParentOf(gb, 0), VcmcStrategy::kSelf);
}

TEST(Vcmc, CostsMatchScratchAfterRandomInserts) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 3, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  Rng rng(55);
  const Lattice& lat = env.lattice();
  for (int i = 0; i < 50; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
    const ChunkId c = static_cast<ChunkId>(
        rng.Uniform(static_cast<uint64_t>(env.grid().NumChunks(gb))));
    if (!env.cache->Contains({gb, c})) CacheChunkFromBackend(env, gb, c);
  }
  ExpectCostsMatchScratch(env, vcmc);
}

TEST(Vcmc, CostsMatchScratchAfterInsertsAndDeletes) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 4, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  Rng rng(66);
  const Lattice& lat = env.lattice();
  std::vector<CacheKey> cached;
  for (int i = 0; i < 120; ++i) {
    const bool remove = !cached.empty() && rng.Bernoulli(0.4);
    if (remove) {
      const size_t pick = rng.Uniform(cached.size());
      env.cache->Remove(cached[pick]);
      cached.erase(cached.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      const GroupById gb =
          static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
      const ChunkId c = static_cast<ChunkId>(
          rng.Uniform(static_cast<uint64_t>(env.grid().NumChunks(gb))));
      if (!env.cache->Contains({gb, c})) {
        CacheChunkFromBackend(env, gb, c);
        cached.push_back({gb, c});
      }
    }
  }
  ExpectCostsMatchScratch(env, vcmc);
  ExpectBestParentsMatchScratch(env, vcmc);
  // Computability (a finite cost) agrees with VCM's virtual counts,
  // recomputed from scratch: non-zero iff computable (paper Property 1).
  VcmStrategy vcm(env.cube.grid.get(), env.cache.get());
  const std::vector<uint8_t> counts = vcm.counts().ComputeFromScratch();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      EXPECT_EQ(vcmc.IsComputable(gb, c), counts[OracleIndex(env, gb, c)] > 0);
    }
  }
}

TEST(Vcmc, AgreesWithMemoizedExhaustiveSearch) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 5, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  Rng rng(88);
  const Lattice& lat = env.lattice();
  for (int i = 0; i < 35; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
    const ChunkId c = static_cast<ChunkId>(
        rng.Uniform(static_cast<uint64_t>(env.grid().NumChunks(gb))));
    if (!env.cache->Contains({gb, c})) CacheChunkFromBackend(env, gb, c);
  }
  MemoizedEsmcStrategy memo(env.cube.grid.get(), env.cache.get(),
                            env.size_model.get());
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      auto plan = memo.FindPlan(gb, c);
      if (plan == nullptr) {
        EXPECT_EQ(vcmc.CostOf(gb, c), kInf);
      } else {
        EXPECT_NEAR(vcmc.CostOf(gb, c), plan->estimated_cost,
                    1e-6 * (1.0 + plan->estimated_cost));
      }
    }
  }
}

TEST(Vcmc, AgreesWithNaiveEsmcOnSmallCube) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.8, 6, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  Rng rng(44);
  const Lattice& lat = env.lattice();
  for (int i = 0; i < 12; ++i) {
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
    const ChunkId c = static_cast<ChunkId>(
        rng.Uniform(static_cast<uint64_t>(env.grid().NumChunks(gb))));
    if (!env.cache->Contains({gb, c})) CacheChunkFromBackend(env, gb, c);
  }
  EsmcStrategy esmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      auto plan = esmc.FindPlan(gb, c);
      if (plan == nullptr) {
        EXPECT_EQ(vcmc.CostOf(gb, c), kInf);
      } else {
        EXPECT_NEAR(vcmc.CostOf(gb, c), plan->estimated_cost,
                    1e-6 * (1.0 + plan->estimated_cost));
      }
    }
  }
  EXPECT_EQ(esmc.metrics().budget_exhausted, 0);
}

TEST(Vcmc, PlanFollowsBestParents) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 1.0, 7, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  const Lattice& lat = env.lattice();
  const GroupById base = lat.base_id();
  const GroupById mid = lat.IdOf(LevelVector{1, 1});
  for (ChunkId c = 0; c < env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(env, base, c);
  }
  for (ChunkId c = 0; c < env.grid().NumChunks(mid); ++c) {
    CacheChunkFromBackend(env, mid, c);
  }
  auto plan = vcmc.FindPlan(lat.top_id(), 0);
  ASSERT_NE(plan, nullptr);
  EXPECT_NEAR(plan->estimated_cost, vcmc.CostOf(lat.top_id(), 0), 1e-9);
  // The cheap path goes through the cached intermediate level, never
  // touching base chunks: all leaves must be at mid level or higher.
  std::function<void(const PlanNode&)> check = [&](const PlanNode& node) {
    if (node.cached) {
      EXPECT_NE(node.key.gb, base);
      return;
    }
    for (const auto& input : node.inputs) check(*input);
  };
  check(*plan);
}

TEST(Vcmc, LookupIsConstantTimeWhenNotComputable) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.5, 8, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  vcmc.ResetMetrics();
  EXPECT_FALSE(vcmc.IsComputable(env.lattice().top_id(), 0));
  EXPECT_EQ(vcmc.metrics().nodes_visited, 1);
}

TEST(Vcmc, SpaceOverheadCountsAllArrays) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.5, 9, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  const int64_t chunks = env.grid().TotalChunksAllGroupBys();
  // 8 byte cost + 1 byte best-parent per chunk.
  EXPECT_EQ(vcmc.SpaceOverheadBytes(), chunks * 9);
}

TEST(Vcmc, CostDropsWhenCheaperLevelArrives) {
  // Paper Table 2's observation: inserting chunks of (6,2,3,0,0) after the
  // base level does not change computability but does change costs.
  TestEnv env = MakeTestEnv(MakeSmallCube(), 1.0, 10, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  const Lattice& lat = env.lattice();
  const GroupById base = lat.base_id();
  for (ChunkId c = 0; c < env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(env, base, c);
  }
  const double before = vcmc.CostOf(lat.top_id(), 0);
  ASSERT_TRUE(vcmc.IsComputable(lat.top_id(), 0));
  const GroupById mid = lat.IdOf(LevelVector{1, 1});
  for (ChunkId c = 0; c < env.grid().NumChunks(mid); ++c) {
    CacheChunkFromBackend(env, mid, c);
  }
  EXPECT_LT(vcmc.CostOf(lat.top_id(), 0), before);
  EXPECT_TRUE(vcmc.IsComputable(lat.top_id(), 0));
  ExpectCostsMatchScratch(env, vcmc);
  ExpectBestParentsMatchScratch(env, vcmc);
}

TEST(Vcmc, ScratchMatchesInsertsOfOneMidLatticeGroupBy) {
  // Only the chunks of one mid-lattice group-by are cached. The from-scratch
  // walk skips every group-by that holds no cached chunk and has no parent
  // with a finite cost; it must still equal the arrays the listener built
  // by inserting those chunks one at a time.
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.5, 11, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  const Lattice& lat = env.lattice();
  const GroupById mid = lat.IdOf(LevelVector{1, 1, 0});
  ASSERT_NE(mid, lat.base_id());
  ASSERT_NE(mid, lat.top_id());
  for (ChunkId c = 0; c < env.grid().NumChunks(mid); ++c) {
    CacheChunkFromBackend(env, mid, c);
  }
  const auto [costs, parents] = vcmc.ComputeCostsFromScratch();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    // Every chunk of the group-by's descendants is computable from it;
    // nothing else is.
    const bool below = lat.IsAncestor(gb, mid);
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      const size_t idx = OracleIndex(env, gb, c);
      EXPECT_EQ(costs[idx], vcmc.CostOf(gb, c))
          << lat.LevelOf(gb).ToString() << "#" << c;
      EXPECT_EQ(parents[idx], vcmc.BestParentOf(gb, c))
          << lat.LevelOf(gb).ToString() << "#" << c;
      if (below) {
        EXPECT_NE(costs[idx], kInf) << lat.LevelOf(gb).ToString() << "#" << c;
      } else {
        EXPECT_EQ(costs[idx], kInf) << lat.LevelOf(gb).ToString() << "#" << c;
        EXPECT_EQ(parents[idx], VcmcStrategy::kNone);
      }
    }
  }
}

// Exact equality with the from-scratch walk: a drain sums each cost over
// the same parent chunks, in the same order, as the walk does.
void ExpectExactlyScratch(const TestEnv& env, const VcmcStrategy& vcmc) {
  const auto [costs, parents] = vcmc.ComputeCostsFromScratch();
  const Lattice& lat = env.lattice();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(vcmc.CostOf(gb, c), costs[OracleIndex(env, gb, c)])
          << lat.LevelOf(gb).ToString() << "#" << c;
      ASSERT_EQ(vcmc.BestParentOf(gb, c), parents[OracleIndex(env, gb, c)])
          << lat.LevelOf(gb).ToString() << "#" << c;
    }
  }
}

// One drain holds insert-then-evict, evict-then-insert and
// insert-evict-insert of one key each, mixed with keys at several ranks. It
// ends where the from-scratch walk does, and where a second strategy that
// drained after every event ends.
TEST(VcmcBatch, OneDrainEqualsScratchAndOneEventAtATime) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.6, 12, kBigCache);
  VcmcStrategy batched(env.cube.grid.get(), env.cache.get(),
                       env.size_model.get());
  VcmcStrategy stepwise(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(batched.listener());
  env.cache->AddListener(stepwise.listener());
  const Lattice& lat = env.lattice();
  const GroupById base = lat.base_id();
  const GroupById mid = lat.IdOf(LevelVector{1, 1, 0});
  const GroupById coarse = lat.IdOf(LevelVector{1, 0, 0});
  const GroupById top = lat.top_id();
  ASSERT_GE(env.grid().NumChunks(base), 4);
  ASSERT_GE(env.grid().NumChunks(mid), 2);

  const CacheKey insert_evict{mid, 1};
  const CacheKey evict_insert{mid, 0};
  const CacheKey insert_evict_insert{base, 1};
  CacheChunkFromBackend(env, evict_insert.gb, evict_insert.chunk);
  CacheChunkFromBackend(env, base, 0);
  batched.Flush();
  stepwise.Flush();
  ASSERT_EQ(batched.PendingEvents(), 0u);

  const auto insert = [&](const CacheKey& key) {
    return [&env, key] { CacheChunkFromBackend(env, key.gb, key.chunk); };
  };
  const auto evict = [&](const CacheKey& key) {
    return [&env, key] { env.cache->Remove(key); };
  };
  const std::vector<std::function<void()>> events = {
      insert(insert_evict_insert), insert(insert_evict),
      evict(evict_insert),         insert({coarse, 0}),
      evict(insert_evict_insert),  insert({base, 2}),
      evict(insert_evict),         insert(evict_insert),
      insert({top, 0}),            insert(insert_evict_insert),
      evict({base, 0}),            insert({base, 3}),
      evict({top, 0}),
  };
  for (const auto& event : events) {
    event();
    stepwise.Flush();
    ASSERT_EQ(stepwise.PendingEvents(), 0u);
  }
  EXPECT_EQ(batched.PendingEvents(), events.size());

  ExpectExactlyScratch(env, batched);
  EXPECT_EQ(batched.PendingEvents(), 0u);
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(batched.CostOf(gb, c), stepwise.CostOf(gb, c))
          << lat.LevelOf(gb).ToString() << "#" << c;
      ASSERT_EQ(batched.BestParentOf(gb, c), stepwise.BestParentOf(gb, c))
          << lat.LevelOf(gb).ToString() << "#" << c;
    }
  }
  EXPECT_EQ(batched.BestParentOf(mid, 0), VcmcStrategy::kSelf);
  EXPECT_NE(batched.BestParentOf(mid, 1), VcmcStrategy::kSelf);
  EXPECT_EQ(batched.BestParentOf(base, 1), VcmcStrategy::kSelf);
}

// With no read at all, the listener drains the log whenever it reaches the
// bound, so the log never holds more; one read then applies the rest.
TEST(VcmcBatch, ListenerDrainsTheLogAtItsBound) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.6, 13, kBigCache);
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcmc.listener());
  const Lattice& lat = env.lattice();
  Rng rng(77);
  std::vector<CacheKey> cached;
  std::vector<CacheKey> uncached;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      uncached.push_back({gb, c});
    }
  }
  // Moves a random key from one list to the other.
  const auto move_one = [&rng](std::vector<CacheKey>& from,
                               std::vector<CacheKey>& to) {
    const size_t pick = rng.Uniform(from.size());
    to.push_back(from[pick]);
    from[pick] = from.back();
    from.pop_back();
    return to.back();
  };
  size_t most_pending = 0;
  // Ten bounds' worth of events and a few more, left for the read.
  for (size_t i = 0; i < 10 * VcmcStrategy::kMaxPendingEvents + 7; ++i) {
    if (uncached.empty() || (!cached.empty() && rng.Bernoulli(0.5))) {
      env.cache->Remove(move_one(cached, uncached));
    } else {
      const CacheKey key = move_one(uncached, cached);
      CacheChunkFromBackend(env, key.gb, key.chunk);
    }
    most_pending = std::max(most_pending, vcmc.PendingEvents());
  }
  EXPECT_LE(most_pending, VcmcStrategy::kMaxPendingEvents);
  EXPECT_GT(most_pending, VcmcStrategy::kMaxPendingEvents / 2);
  EXPECT_GT(vcmc.PendingEvents(), 0u);

  (void)vcmc.IsComputable(lat.top_id(), 0);
  EXPECT_EQ(vcmc.PendingEvents(), 0u);
  ExpectExactlyScratch(env, vcmc);
}

}  // namespace
}  // namespace aac
