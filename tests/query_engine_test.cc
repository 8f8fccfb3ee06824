#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/no_aggregation.h"
#include "core/query_engine.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

// What the client sees of an answer: its RefineResult rows, sorted by
// coordinates, so answers built over different routes compare exactly.
std::vector<ResultRow> SortedRows(const Schema& schema, const Query& q,
                                  const std::vector<ChunkData>& chunks) {
  std::vector<ResultRow> rows = RefineResult(schema, q, chunks);
  std::sort(rows.begin(), rows.end(),
            [](const ResultRow& a, const ResultRow& b) {
              return a.values < b.values;
            });
  return rows;
}

void ExpectSameRows(const std::vector<ResultRow>& got,
                    const std::vector<ResultRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(got.empty());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].values, want[i].values);
    EXPECT_EQ(got[i].value, want[i].value);  // exact doubles
  }
}

// The cache's resident keys, in (group-by, chunk) order.
std::vector<std::pair<GroupById, ChunkId>> ResidentKeys(
    const ChunkCache& cache) {
  std::vector<std::pair<GroupById, ChunkId>> keys;
  cache.ForEach([&keys](const CacheEntryInfo& info) {
    keys.emplace_back(info.key.gb, info.key.chunk);
  });
  std::sort(keys.begin(), keys.end());
  return keys;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(MakeSmallCube(), kBigCache); }

  void Reset(TestCube cube, int64_t capacity, QueryEngine::Config config = {}) {
    env_ = MakeTestEnv(std::move(cube), 0.7, 41, capacity,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(), config);
  }

  // Ground truth from a fresh backend (no caching side effects).
  std::vector<ChunkData> Oracle(const Query& q) {
    BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
    const GroupById gb = env_.lattice().IdOf(q.level);
    return oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
  }

  void ExpectMatchesOracle(std::vector<ChunkData> got, const Query& q) {
    std::vector<ChunkData> want = Oracle(q);
    ASSERT_EQ(got.size(), want.size());
    // Order can differ (cache-answered chunks first); match by chunk id.
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].chunk, want[i].chunk);
      EXPECT_TRUE(ChunkDataEquals(env_.schema().num_dims(), &got[i],
                                  &want[i]));
    }
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, ColdQueryGoesToBackend) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  QueryStats stats;
  std::vector<ChunkData> result = engine_->ExecuteQuery(q, &stats).chunks;
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
  EXPECT_GT(stats.backend_ms, 0.0);
  ExpectMatchesOracle(std::move(result), q);
}

TEST_F(QueryEngineTest, RepeatQueryIsDirectHit) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  engine_->ExecuteQuery(q, nullptr);
  QueryStats stats;
  std::vector<ChunkData> result = engine_->ExecuteQuery(q, &stats).chunks;
  EXPECT_TRUE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_direct, stats.chunks_requested);
  EXPECT_EQ(stats.chunks_backend, 0);
  EXPECT_EQ(stats.backend_ms, 0.0);
  ExpectMatchesOracle(std::move(result), q);
}

TEST_F(QueryEngineTest, RollUpAnsweredByAggregation) {
  // Load the base level, then ask an aggregated query: the active cache
  // answers it without the backend.
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  env_.backend->ResetStats();

  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 1});
  QueryStats stats;
  std::vector<ChunkData> result = engine_->ExecuteQuery(roll_up, &stats).chunks;
  EXPECT_TRUE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_aggregated, stats.chunks_requested);
  EXPECT_EQ(env_.backend->stats().queries, 0);
  EXPECT_GT(stats.tuples_aggregated, 0);
  ExpectMatchesOracle(std::move(result), roll_up);
}

TEST_F(QueryEngineTest, ComputedChunksAreCachedForReuse) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  engine_->ExecuteQuery(roll_up, nullptr);
  // Second time: direct hit on the cached computed chunk.
  QueryStats stats;
  engine_->ExecuteQuery(roll_up, &stats);
  EXPECT_EQ(stats.chunks_direct, stats.chunks_requested);
  EXPECT_EQ(stats.chunks_aggregated, 0);
}

TEST_F(QueryEngineTest, PartialHitFetchesOnlyMissing) {
  // Cache half the base level via a range query, then ask for the whole
  // level: only the other half goes to the backend.
  Query half;
  half.level = env_.schema().base_level();
  half.ranges[0] = {0, 6};   // product chunks 0,1 of 4
  half.ranges[1] = {0, 8};   // all time
  engine_->ExecuteQuery(half, nullptr);
  env_.backend->ResetStats();

  Query whole = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  QueryStats stats;
  std::vector<ChunkData> result = engine_->ExecuteQuery(whole, &stats).chunks;
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_direct, 4);
  EXPECT_EQ(stats.chunks_backend, 4);
  EXPECT_EQ(env_.backend->stats().queries, 1);  // one SQL for all missing
  ExpectMatchesOracle(std::move(result), whole);
}

TEST_F(QueryEngineTest, MixedAggregationAndBackend) {
  // Cache base chunks covering product chunk 0 only; an aggregated query
  // over all products aggregates what it can and fetches the rest.
  Query half;
  half.level = env_.schema().base_level();
  half.ranges[0] = {0, 3};  // product chunk 0
  half.ranges[1] = {0, 8};
  engine_->ExecuteQuery(half, nullptr);

  // Roll up time only: (2,0) chunks with product coordinate 0 are covered
  // by the cached base chunks; other product chunks must hit the backend.
  Query agg = Query::WholeLevel(env_.schema(), LevelVector{2, 0});
  QueryStats stats;
  std::vector<ChunkData> result = engine_->ExecuteQuery(agg, &stats).chunks;
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_GT(stats.chunks_aggregated, 0);
  EXPECT_GT(stats.chunks_backend, 0);
  ExpectMatchesOracle(std::move(result), agg);
}

TEST_F(QueryEngineTest, NoAggregationStrategyMissesRollUps) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 41, kBigCache);
  NoAggregationStrategy no_agg(env.cache.get());
  QueryEngine engine(env.cube.grid.get(), env.cache.get(), &no_agg,
                     env.backend.get(), env.benefit.get(), env.clock.get(), {});
  Query base_q = Query::WholeLevel(env.schema(), env.schema().base_level());
  engine.ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env.schema(), LevelVector{0, 1});
  QueryStats stats;
  engine.ExecuteQuery(roll_up, &stats);
  EXPECT_FALSE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
}

TEST_F(QueryEngineTest, StatsPhasesArePopulated) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  QueryStats stats;
  engine_->ExecuteQuery(roll_up, &stats);
  EXPECT_GE(stats.lookup_ms, 0.0);
  EXPECT_GT(stats.aggregation_ms, 0.0);
  EXPECT_GE(stats.update_ms, 0.0);
  EXPECT_EQ(stats.backend_ms, 0.0);
  EXPECT_NEAR(stats.TotalMs(),
              stats.lookup_ms + stats.aggregation_ms + stats.update_ms +
                  stats.backend_ms,
              1e-9);
}

TEST_F(QueryEngineTest, ZeroCapacityCacheDegradesToPureBackend) {
  Reset(MakeSmallCube(), /*capacity=*/0);
  for (int round = 0; round < 2; ++round) {
    Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
    QueryStats stats;
    std::vector<ChunkData> result = engine_->ExecuteQuery(q, &stats).chunks;
    EXPECT_FALSE(stats.complete_hit);
    EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
    ExpectMatchesOracle(std::move(result), q);
  }
  EXPECT_EQ(env_.cache->num_entries(), 0u);
}

TEST_F(QueryEngineTest, ExplainDescribesRoutes) {
  // Cold: everything is a miss.
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  std::string cold = engine_->ExplainQuery(q);
  EXPECT_NE(cold.find("MISS -> backend"), std::string::npos);
  EXPECT_NE(cold.find("VCMC"), std::string::npos);

  // Warm the base, re-explain an aggregate: now it's an aggregation plan.
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  std::string warm = engine_->ExplainQuery(q);
  EXPECT_NE(warm.find("aggregate"), std::string::npos);
  EXPECT_NE(warm.find("[cached]"), std::string::npos);
  EXPECT_EQ(warm.find("MISS"), std::string::npos);

  // Re-asking the warmed base level is a direct hit.
  std::string direct = engine_->ExplainQuery(base_q);
  EXPECT_NE(direct.find("direct cache hit"), std::string::npos);
  // Explain has no side effects on the answer path.
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_TRUE(stats.complete_hit);
}

TEST_F(QueryEngineTest, ExplainShowsBypassDecision) {
  QueryEngine::Config config;
  config.cost_based_bypass = true;
  config.cache_aggregation_ns_per_tuple = 1e12;
  Reset(MakeSmallCube(), kBigCache, config);
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  std::string out =
      engine_->ExplainQuery(Query::WholeLevel(env_.schema(), LevelVector{0, 0}));
  EXPECT_NE(out.find("BYPASSED"), std::string::npos);
}

// Every query leaves the calling thread's fold arena at most
// FoldArena::kTrimBytes, whatever inflated it and however the query
// resolved; scratch under the bound stays for the thread's next fold.
TEST_F(QueryEngineTest, EveryQueryTrimsTheThreadsFoldArenaAboveTheBound) {
  FoldArena& arena = ThreadFoldArena();
  const int64_t big_cells =
      FoldArena::kTrimBytes / static_cast<int64_t>(sizeof(FoldState)) + 1;
  const Query base_q =
      Query::WholeLevel(env_.schema(), env_.schema().base_level());
  const Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 1});

  // Dead on arrival: the query folds nothing and still trims.
  arena.EnsureDense(big_cells);
  ASSERT_GT(arena.retained_bytes(), FoldArena::kTrimBytes);
  ExecContext expired;
  expired.deadline = Deadline::AfterNanos(0);
  QueryStats stats;
  engine_->ExecuteQuery(base_q, &expired, &stats);
  EXPECT_EQ(stats.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(arena.retained_bytes(), 0);

  // A roll-up answered by aggregation: its own small scratch stays.
  engine_->ExecuteQuery(base_q, nullptr);
  engine_->ExecuteQuery(roll_up, &stats);
  ASSERT_GT(stats.tuples_aggregated, 0);
  const int64_t small = arena.retained_bytes();
  EXPECT_GT(small, 0);
  EXPECT_LE(small, FoldArena::kTrimBytes);
}

// A batch-class query reads through the cache without changing it. After
// an interactive warm-up of (1,1), a batch query over the uncached base
// level cancelled mid-fetch salvages nothing; then a batch roll-up to
// (0,1) is computed from the cached chunks and the same base-level query,
// uncancelled, goes to the backend. Each answers exactly what the same
// query answers run interactive on a fresh stack, and none of them
// inserts, evicts or changes a resident key.
TEST_F(QueryEngineTest, BatchQueriesReadThroughWithoutChangingTheCache) {
  const Query warm_up = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  const Query roll_up = Query::WholeLevel(env_.schema(), LevelVector{0, 1});
  const Query base_q =
      Query::WholeLevel(env_.schema(), env_.schema().base_level());

  // The interactive reference on the fixture's stack.
  engine_->ExecuteQuery(warm_up, nullptr);
  const std::vector<ResultRow> want_roll_up = SortedRows(
      env_.schema(), roll_up, engine_->ExecuteQuery(roll_up, nullptr).chunks);
  const std::vector<ResultRow> want_base = SortedRows(
      env_.schema(), base_q, engine_->ExecuteQuery(base_q, nullptr).chunks);

  Reset(MakeSmallCube(), kBigCache);
  engine_->ExecuteQuery(warm_up, nullptr);
  const auto keys = ResidentKeys(*env_.cache);
  const CacheStats before = env_.cache->stats();
  ASSERT_GT(before.inserts, 0);
  ExecContext batch;
  batch.query_class = QueryClass::kBatch;
  QueryStats stats;

  // Cancelled while its fetch is in flight: the fetched chunks answer the
  // killed query, and none of them is kept.
  CancelToken token;
  CancelDuringFetchBackend cancelling(env_.backend.get(), &token,
                                      /*cancel_on_call=*/1);
  QueryEngine engine(env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
                     &cancelling, env_.benefit.get(), env_.clock.get(), {});
  ExecContext cancelled = batch;
  cancelled.cancel = &token;
  QueryResult killed = engine.ExecuteQuery(base_q, &cancelled, &stats);
  EXPECT_EQ(killed.status, ResultStatus::kDeadlineExceeded);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
  EXPECT_EQ(stats.salvaged_chunks, 0);
  EXPECT_EQ(ResidentKeys(*env_.cache), keys);

  QueryResult computed = engine_->ExecuteQuery(roll_up, &batch, &stats);
  ASSERT_EQ(computed.status, ResultStatus::kOk);
  EXPECT_TRUE(stats.complete_hit);
  EXPECT_EQ(stats.chunks_aggregated, stats.chunks_requested);
  ExpectSameRows(SortedRows(env_.schema(), roll_up, computed.chunks),
                 want_roll_up);

  QueryResult fetched = engine_->ExecuteQuery(base_q, &batch, &stats);
  ASSERT_EQ(fetched.status, ResultStatus::kOk);
  EXPECT_EQ(stats.chunks_backend, stats.chunks_requested);
  ExpectSameRows(SortedRows(env_.schema(), base_q, fetched.chunks),
                 want_base);

  EXPECT_EQ(ResidentKeys(*env_.cache), keys);
  EXPECT_EQ(env_.cache->stats().inserts, before.inserts);
  EXPECT_EQ(env_.cache->stats().evictions, before.evictions);
  EXPECT_TRUE(env_.cache->ValidateInvariants());
}

TEST_F(QueryEngineTest, SmallCacheStillAnswersCorrectly) {
  // Capacity for only ~8 tuples: constant churn, answers must stay right.
  Reset(MakeSmallCube(), /*capacity=*/80);
  for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
    Query q = Query::WholeLevel(env_.schema(), env_.lattice().LevelOf(gb));
    ExpectMatchesOracle(engine_->ExecuteQuery(q, nullptr).chunks, q);
  }
}

}  // namespace
}  // namespace aac
