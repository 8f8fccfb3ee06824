#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/query_engine.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

class BypassTest : public ::testing::Test {
 protected:
  void Setup(QueryEngine::Config config) {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 91, kBigCache,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    BuildEngine(config);
    // Warm with the base level directly, not through the engine.
    const GroupById base = env_.lattice().base_id();
    for (ChunkId c = 0; c < env_.grid().NumChunks(base); ++c) {
      CacheChunkFromBackend(env_, base, c);
    }
  }

  // (Re)builds the engine over the fixture's cache and strategy.
  void BuildEngine(const QueryEngine::Config& config) {
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(), config);
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(BypassTest, DisabledNeverBypasses) {
  QueryEngine::Config config;
  config.cost_based_bypass = false;
  Setup(config);
  Query q = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_EQ(stats.chunks_bypassed, 0);
  EXPECT_TRUE(stats.complete_hit);
}

TEST_F(BypassTest, AbsurdlySlowCacheBypassesEverything) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  config.cache_aggregation_ns_per_tuple = 1e12;  // aggregation "never" wins
  Setup(config);
  Query q = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  QueryStats stats;
  std::vector<ChunkData> result = engine_->ExecuteQuery(q, &stats).chunks;
  EXPECT_GT(stats.chunks_bypassed, 0);
  EXPECT_EQ(stats.chunks_aggregated, 0);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_bypassed);
  // Answers stay correct.
  BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
  std::vector<ChunkData> want = oracle.ExecuteChunkQuery(
      env_.lattice().IdOf(q.level), ChunksForQuery(env_.grid(), q)).chunks;
  ASSERT_EQ(result.size(), want.size());
  EXPECT_TRUE(
      ChunkDataEquals(env_.schema().num_dims(), &result[0], &want[0]));
}

TEST_F(BypassTest, FreeCacheNeverBypasses) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  config.cache_aggregation_ns_per_tuple = 0.0;  // aggregation always wins
  Setup(config);
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 0});
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_EQ(stats.chunks_bypassed, 0);
  EXPECT_GT(stats.chunks_aggregated, 0);
  EXPECT_TRUE(stats.complete_hit);
}

TEST_F(BypassTest, DirectHitsAreNeverBypassed) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  config.cache_aggregation_ns_per_tuple = 1e12;
  Setup(config);
  // The base level is cached as-is: direct hits skip the bypass logic.
  Query q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_EQ(stats.chunks_bypassed, 0);
  EXPECT_EQ(stats.chunks_direct, stats.chunks_requested);
}

// The one computable chunk of the top group-by costs its backend marginal
// cost plus half the fixed per-query overhead to aggregate. With nothing
// else missing, a bypass would pay the whole overhead, so the chunk is
// aggregated, and EXPLAIN must say so too.
TEST_F(BypassTest, ExplainChargesTheFixedOverheadLikeExecution) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  Setup(config);
  const GroupById top = env_.lattice().top_id();
  ASSERT_EQ(env_.grid().NumChunks(top), 1);
  const std::unique_ptr<PlanNode> plan = strategy_->FindPlan(top, 0);
  ASSERT_NE(plan, nullptr);
  ASSERT_FALSE(plan->cached);
  ASSERT_GT(plan->estimated_cost, 0.0);
  const double marginal =
      static_cast<double>(env_.backend->EstimateMarginalChunkCostNanos(top, 0));
  const double overhead = static_cast<double>(
      env_.backend->cost_model().fixed_query_overhead_ns);
  config.cache_aggregation_ns_per_tuple =
      (marginal + overhead / 2) / plan->estimated_cost;
  BuildEngine(config);

  const Query q = Query::WholeLevel(env_.schema(), env_.lattice().LevelOf(top));
  const std::string explain = engine_->ExplainQuery(q);
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_EQ(stats.chunks_bypassed, 0);
  EXPECT_EQ(stats.chunks_aggregated, 1);
  EXPECT_EQ(explain.find("BYPASSED"), std::string::npos) << explain;
  EXPECT_NE(explain.find("aggregate "), std::string::npos)
      << explain;
}

TEST_F(BypassTest, RandomStreamStaysCorrectWithBypass) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  // A middling throughput so both branches get exercised.
  config.cache_aggregation_ns_per_tuple = 5000.0;
  Setup(config);
  BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
  Rng rng(7);
  int64_t bypassed = 0, aggregated = 0;
  for (int i = 0; i < 30; ++i) {
    const GroupById gb = static_cast<GroupById>(
        rng.Uniform(env_.lattice().num_groupbys()));
    Query q = Query::WholeLevel(env_.schema(), env_.lattice().LevelOf(gb));
    QueryStats stats;
    std::vector<ChunkData> got = engine_->ExecuteQuery(q, &stats).chunks;
    bypassed += stats.chunks_bypassed;
    aggregated += stats.chunks_aggregated;
    std::vector<ChunkData> want =
        oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_TRUE(ChunkDataEquals(env_.schema().num_dims(), &got[k], &want[k]));
    }
  }
  // Both code paths fired at least once across the stream.
  EXPECT_GT(bypassed + aggregated, 0);
}

}  // namespace
}  // namespace aac
