#include <gtest/gtest.h>

#include <memory>

#include "core/esm.h"
#include "core/executor.h"
#include "core/memo_esmc.h"
#include "core/query_engine.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

// Seeded end-to-end property: after a random insert/evict history, every
// strategy agrees with the independent computability oracle, and all plans
// execute to the correct data.
class StrategyAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyAgreementTest, AllStrategiesMatchOracle) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.6, GetParam(), kBigCache);
  VcmStrategy vcm(env.cube.grid.get(), env.cache.get());
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcm.listener());
  env.cache->AddListener(vcmc.listener());
  EsmStrategy esm(env.cube.grid.get(), env.cache.get());
  MemoizedEsmcStrategy memo(env.cube.grid.get(), env.cache.get(),
                            env.size_model.get());

  // Random mutation history.
  Rng rng(GetParam() * 7919 + 1);
  const Lattice& lat = env.lattice();
  std::vector<CacheKey> cached;
  for (int i = 0; i < 150; ++i) {
    if (!cached.empty() && rng.Bernoulli(0.35)) {
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

  const std::vector<bool> oracle = ComputabilityOracle(env);
  Aggregator aggregator(env.cube.grid.get());
  PlanExecutor executor(env.cube.grid.get(), env.cache.get(), &aggregator);
  BackendServer ground_truth(env.table.get(), BackendCostModel(), nullptr);

  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      const bool want = oracle[OracleIndex(env, gb, c)];
      EXPECT_EQ(esm.IsComputable(gb, c), want);
      EXPECT_EQ(vcm.IsComputable(gb, c), want);
      EXPECT_EQ(vcmc.IsComputable(gb, c), want);
      EXPECT_EQ(memo.IsComputable(gb, c), want);
      if (!want) continue;
      // Execute every strategy's plan and compare to the true chunk.
      ChunkData truth = ground_truth.ExecuteChunkQuery(gb, {c}).chunks[0];
      for (LookupStrategy* strategy :
           {static_cast<LookupStrategy*>(&esm),
            static_cast<LookupStrategy*>(&vcm),
            static_cast<LookupStrategy*>(&vcmc),
            static_cast<LookupStrategy*>(&memo)}) {
        auto plan = strategy->FindPlan(gb, c);
        ASSERT_NE(plan, nullptr) << strategy->name();
        ExecutionResult result = executor.Execute(*plan);
        EXPECT_TRUE(ChunkDataEquals(env.schema().num_dims(), &result.data,
                                    &truth))
            << strategy->name() << " " << lat.LevelOf(gb).ToString() << "#"
            << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAgreementTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// Under heavy eviction pressure (tiny cache), engines built on each strategy
// must produce identical, correct answers for a shared random query stream.
class EnginePressureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePressureTest, AllStrategiesAnswerCorrectlyUnderEviction) {
  for (const bool two_level : {false, true}) {
    TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, GetParam(),
                              /*capacity=*/200, two_level);
    VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                      env.size_model.get());
    env.cache->AddListener(vcmc.listener());
    QueryEngine::Config config;
    config.boost_groups = two_level;
    QueryEngine engine(env.cube.grid.get(), env.cache.get(), &vcmc,
                       env.backend.get(), env.benefit.get(), env.clock.get(),
                       config);
    BackendServer ground_truth(env.table.get(), BackendCostModel(), nullptr);

    Rng rng(GetParam() + (two_level ? 1000 : 0));
    const Lattice& lat = env.lattice();
    for (int i = 0; i < 60; ++i) {
      const GroupById gb =
          static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
      Query q = Query::WholeLevel(env.schema(), lat.LevelOf(gb));
      std::vector<ChunkData> got = engine.ExecuteQuery(q, nullptr).chunks;
      std::vector<ChunkData> want =
          ground_truth.ExecuteChunkQuery(gb, ChunksForQuery(env.grid(), q)).chunks;
      ASSERT_EQ(got.size(), want.size());
      auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
        return a.chunk < b.chunk;
      };
      std::sort(got.begin(), got.end(), by_chunk);
      std::sort(want.begin(), want.end(), by_chunk);
      for (size_t k = 0; k < got.size(); ++k) {
        ASSERT_TRUE(
            ChunkDataEquals(env.schema().num_dims(), &got[k], &want[k]))
            << "two_level=" << two_level << " query " << i;
      }
      // Summary state stays consistent with a from-scratch recomputation
      // even under eviction churn.
      if (i % 20 == 19) {
        const auto [costs, parents] = vcmc.ComputeCostsFromScratch();
        for (GroupById g = 0; g < lat.num_groupbys(); ++g) {
          for (ChunkId c = 0; c < env.grid().NumChunks(g); ++c) {
            ASSERT_EQ(vcmc.CostOf(g, c), costs[OracleIndex(env, g, c)]);
            ASSERT_EQ(vcmc.BestParentOf(g, c),
                      parents[OracleIndex(env, g, c)]);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePressureTest,
                         ::testing::Values(5u, 6u, 7u));

}  // namespace
}  // namespace aac
