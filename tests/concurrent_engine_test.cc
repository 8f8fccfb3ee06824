#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "cache/warm_tier.h"
#include "core/concurrent_engine.h"
#include "core/invalidation.h"
#include "core/vcmc.h"
#include "test_env.h"
#include "workload/experiment.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 61, kBigCache,
                       /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                       /*num_shards=*/16);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    concurrent_ = std::make_unique<ConcurrentQueryEngine>([this] {
      factory_calls_.fetch_add(1);
      return std::make_unique<QueryEngine>(
          env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
          env_.backend.get(), env_.benefit.get(), env_.clock.get(),
          QueryEngine::Config());
    });
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::atomic<int> factory_calls_{0};
  std::unique_ptr<ConcurrentQueryEngine> concurrent_;
};

TEST_F(ConcurrentEngineTest, SingleThreadBehavesLikePlainEngine) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  QueryStats stats;
  std::vector<ChunkData> result = concurrent_->ExecuteQuery(q, &stats).chunks;
  EXPECT_EQ(result.size(), static_cast<size_t>(stats.chunks_requested));
  EXPECT_EQ(concurrent_->queries_executed(), 1);
}

TEST_F(ConcurrentEngineTest, ManyThreadsManyQueriesAllCorrect) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 977 + 5);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb = static_cast<GroupById>(
            rng.Uniform(env_.lattice().num_groupbys()));
        Query q = Query::WholeLevel(env_.schema(),
                                    env_.lattice().LevelOf(gb));
        std::vector<ChunkData> got = concurrent_->ExecuteQuery(q, nullptr).chunks;
        std::vector<ChunkData> want =
            oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
        if (got.size() != want.size()) {
          ++failures;
          continue;
        }
        auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
          return a.chunk < b.chunk;
        };
        std::sort(got.begin(), got.end(), by_chunk);
        std::sort(want.begin(), want.end(), by_chunk);
        for (size_t k = 0; k < got.size(); ++k) {
          if (!ChunkDataEquals(env_.schema().num_dims(), &got[k], &want[k])) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(concurrent_->queries_executed(), kThreads * kQueriesPerThread);

  // Summary state is consistent after the storm.
  const auto [costs, parents] = strategy_->ComputeCostsFromScratch();
  for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(strategy_->CostOf(gb, c), costs[OracleIndex(env_, gb, c)]);
      ASSERT_EQ(strategy_->BestParentOf(gb, c),
                parents[OracleIndex(env_, gb, c)]);
    }
  }
}

// The engine gets the shared result cache: each query from every thread
// probes it, and only it.
TEST_F(ConcurrentEngineTest, SharedResultCacheIsProbedByEveryQuery) {
  ResultCache::Config rc_config;
  rc_config.capacity_bytes = kBigCache;
  rc_config.bytes_per_tuple = 10;
  ResultCache results(rc_config);
  env_.cache->AddListener(&results);
  concurrent_->set_result_cache(&results);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 20;
  std::atomic<int> unprobed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 131 + 7);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb = static_cast<GroupById>(
            rng.Uniform(env_.lattice().num_groupbys()));
        QueryStats stats;
        concurrent_->ExecuteQuery(
            Query::WholeLevel(env_.schema(), env_.lattice().LevelOf(gb)),
            &stats);
        if (!stats.result_cache_probed) ++unprobed;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(unprobed.load(), 0);
  EXPECT_EQ(results.stats().probes, kThreads * kQueriesPerThread);
  EXPECT_GT(results.stats().hits, 0);
}

// A scarce hot tier over a large warm tier: a repeated whole-level
// workload demotes on its first pass and promotes on its second.
ExperimentConfig TieredConfig() {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 17;
  config.cache_fraction = 0.12;
  config.warm_fraction = 40.0;
  return config;
}

// Runs three whole-level queries twice through `run`; returns the totals
// of the second pass.
template <typename Run>
WorkloadTotals RepeatLevels(const Experiment& exp, Run run) {
  const std::vector<GroupById> levels = {
      exp.lattice().base_id(), 0,
      static_cast<GroupById>(exp.lattice().num_groupbys() / 2)};
  WorkloadTotals second;
  for (int pass = 0; pass < 2; ++pass) {
    for (GroupById gb : levels) {
      QueryStats stats;
      const QueryResult result = run(
          Query::WholeLevel(exp.schema(), exp.lattice().LevelOf(gb)), &stats);
      EXPECT_EQ(result.status, ResultStatus::kOk);
      if (pass == 1) AccumulateStats(stats, &second);
    }
  }
  return second;
}

// NewEngine attaches the experiment's warm tier, so a ConcurrentQueryEngine
// built from it promotes from that tier without set_warm_tier.
TEST(ConcurrentEngineLayers, PoolOfExperimentEnginesPromotesFromWarmTier) {
  Experiment exp(TieredConfig());
  ASSERT_NE(exp.warm_tier(), nullptr);
  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  const WorkloadTotals second =
      RepeatLevels(exp, [&pool](const Query& q, QueryStats* stats) {
        return pool.ExecuteQuery(q, stats);
      });
  EXPECT_GT(second.chunks_warm, 0);
}

// Attach sets only the layers it is given: an Experiment engine given a
// result cache keeps the warm tier NewEngine attached.
TEST(ConcurrentEngineLayers, AttachingAResultCacheKeepsTheWarmTier) {
  Experiment exp(TieredConfig());
  ASSERT_NE(exp.warm_tier(), nullptr);
  ResultCache::Config rc_config;
  // Probe, but admit nothing, so every query still runs the chunk path:
  // every non-empty answer is over a one-byte cache's entry cap.
  rc_config.capacity_bytes = 1;
  ResultCache results(rc_config);
  exp.engine().Attach({.result_cache = &results});
  const WorkloadTotals second =
      RepeatLevels(exp, [&exp](const Query& q, QueryStats* stats) {
        return exp.engine().ExecuteQuery(q, stats);
      });
  EXPECT_EQ(second.result_misses, second.queries);
  EXPECT_GT(second.chunks_warm, 0);
}

// Writes at a quiescent barrier, the way bench/e2e applies them: four
// threads claim query slots, and every 10th claim waits until no query is
// in flight, applies a batch through ApplyFactUpdates and lets the queries
// resume. The hot cache is scarce, so patches also grow entries that must
// make room. Every answer equals a backend fold of the table as it stood
// while the query ran.
TEST(ConcurrentEngineWrites, WritesAtABarrierKeepAnswersExact) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.6, 71, /*capacity=*/1600,
                            /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                            /*num_shards=*/4);
  VcmcStrategy strategy(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(strategy.listener());
  WarmTier::Config warm_config;
  warm_config.capacity_bytes = 1 << 20;
  warm_config.num_dims = env.schema().num_dims();
  WarmTier warm(warm_config);
  env.cache->set_demotion_sink(&warm);
  ResultCache::Config rc_config;
  rc_config.capacity_bytes = 2000;
  rc_config.bytes_per_tuple = 10;
  ResultCache results(rc_config);
  env.cache->AddListener(&results);
  ConcurrentQueryEngine pool([&env, &strategy] {
    return std::make_unique<QueryEngine>(
        env.cube.grid.get(), env.cache.get(), &strategy, env.backend.get(),
        env.benefit.get(), env.clock.get(), QueryEngine::Config());
  });
  pool.set_result_cache(&results);
  pool.set_warm_tier(&warm);

  constexpr int kThreads = 4;
  constexpr int kClaims = 240;
  constexpr int kWriteEvery = 10;
  std::mutex mutex;
  std::condition_variable cv;
  int next = 0;
  int in_flight = 0;
  bool writing = false;
  int writes = 0;
  Rng write_rng(5);
  const Schema& schema = env.schema();
  // Writes run with no query in flight: the claim that triggers one waits
  // for the others to drain, and new claims wait for the write.
  auto claim = [&]() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return !writing; });
    if (next >= kClaims) return false;
    const int i = next++;
    if (i > 0 && i % kWriteEvery == 0) {
      writing = true;
      cv.wait(lock, [&] { return in_flight == 0; });
      std::vector<Cell> batch(8);
      for (Cell& c : batch) {
        for (int d = 0; d < schema.num_dims(); ++d) {
          c.values[static_cast<size_t>(d)] =
              static_cast<int32_t>(write_rng.Uniform(static_cast<uint64_t>(
                  schema.dimension(d).cardinality(schema.base_level()[d]))));
        }
        InitCellAggregates(
            c, static_cast<double>(write_rng.Uniform(100)) + 1.0);
      }
      lock.unlock();
      ApplyFactUpdates(env.table.get(), env.cache.get(), std::move(batch),
                       &results);
      lock.lock();
      ++writes;
      writing = false;
      cv.notify_all();
    }
    ++in_flight;
    return true;
  };
  auto done = [&]() {
    std::lock_guard<std::mutex> lock(mutex);
    if (--in_flight == 0) cv.notify_all();
  };

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 31 + 3);
      BackendServer oracle(env.table.get(), BackendCostModel(), nullptr);
      while (claim()) {
        const GroupById gb = static_cast<GroupById>(
            rng.Uniform(env.lattice().num_groupbys()));
        const Query q =
            Query::WholeLevel(schema, env.lattice().LevelOf(gb));
        std::vector<ChunkData> got = pool.ExecuteQuery(q, nullptr).chunks;
        std::vector<ChunkData> want =
            oracle.ExecuteChunkQuery(gb, ChunksForQuery(env.grid(), q)).chunks;
        done();
        auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
          return a.chunk < b.chunk;
        };
        std::sort(got.begin(), got.end(), by_chunk);
        std::sort(want.begin(), want.end(), by_chunk);
        bool same = got.size() == want.size();
        for (size_t k = 0; same && k < got.size(); ++k) {
          same = ChunkDataEquals(schema.num_dims(), &got[k], &want[k],
                                 /*epsilon=*/0.0);
        }
        if (!same) ++wrong;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(writes, kClaims / kWriteEvery - 1);
  EXPECT_GT(env.cache->stats().patched, 0);
  EXPECT_EQ(env.cache->TotalPinCount(), 0);
  EXPECT_TRUE(env.cache->ValidateInvariants());
  EXPECT_TRUE(warm.ValidateInvariants());
  EXPECT_TRUE(results.ValidateInvariants());
  const auto [costs, parents] = strategy.ComputeCostsFromScratch();
  for (GroupById gb = 0; gb < env.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(strategy.CostOf(gb, c), costs[OracleIndex(env, gb, c)]);
      ASSERT_EQ(strategy.BestParentOf(gb, c), parents[OracleIndex(env, gb, c)]);
    }
  }
}

// Eight threads drive a ConcurrentQueryEngine; the factory built the one
// engine they all share, before the first query.
TEST_F(ConcurrentEngineTest, FactoryBuildsOneEngineForEightThreads) {
  EXPECT_EQ(factory_calls_.load(), 1);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 53 + 1);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb = static_cast<GroupById>(
            rng.Uniform(env_.lattice().num_groupbys()));
        concurrent_->ExecuteQuery(
            Query::WholeLevel(env_.schema(), env_.lattice().LevelOf(gb)),
            nullptr);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(factory_calls_.load(), 1);
  EXPECT_EQ(concurrent_->queries_executed(), kThreads * kQueriesPerThread);
}

// One QueryEngine serves eight threads at once, with a result cache and a
// warm tier attached over a scarce hot cache, so queries fold, demote,
// promote and share in-flight fetches side by side. Every answer equals a
// backend fold, and the shared state is consistent afterwards.
TEST(ConcurrentEngineShared, OneEngineServesEightThreadsExactly) {
  TestEnv env = MakeTestEnv(MakeThreeDimCube(), 0.6, 73, /*capacity=*/1600,
                            /*two_level_policy=*/true, /*bytes_per_tuple=*/10,
                            /*num_shards=*/4);
  VcmcStrategy strategy(env.cube.grid.get(), env.cache.get(),
                        env.size_model.get());
  env.cache->AddListener(strategy.listener());
  WarmTier::Config warm_config;
  warm_config.capacity_bytes = 1 << 20;
  warm_config.num_dims = env.schema().num_dims();
  WarmTier warm(warm_config);
  env.cache->set_demotion_sink(&warm);
  ResultCache::Config rc_config;
  rc_config.capacity_bytes = 2000;
  rc_config.bytes_per_tuple = 10;
  ResultCache results(rc_config);
  env.cache->AddListener(&results);
  QueryEngine engine(env.cube.grid.get(), env.cache.get(), &strategy,
                     env.backend.get(), env.benefit.get(), env.clock.get(),
                     QueryEngine::Config());
  engine.Attach({.result_cache = &results, .warm_tier = &warm});

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 71 + 9);
      BackendServer oracle(env.table.get(), BackendCostModel(), nullptr);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const GroupById gb = static_cast<GroupById>(
            rng.Uniform(env.lattice().num_groupbys()));
        const Query q =
            Query::WholeLevel(env.schema(), env.lattice().LevelOf(gb));
        QueryResult result = engine.ExecuteQuery(q, nullptr);
        std::vector<ChunkData> want =
            oracle.ExecuteChunkQuery(gb, ChunksForQuery(env.grid(), q)).chunks;
        std::vector<ChunkData>& got = result.chunks;
        auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
          return a.chunk < b.chunk;
        };
        std::sort(got.begin(), got.end(), by_chunk);
        std::sort(want.begin(), want.end(), by_chunk);
        bool same = result.status == ResultStatus::kOk &&
                    got.size() == want.size();
        for (size_t k = 0; same && k < got.size(); ++k) {
          same = ChunkDataEquals(env.schema().num_dims(), &got[k], &want[k]);
        }
        if (!same) ++wrong;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(results.stats().probes, kThreads * kQueriesPerThread);
  EXPECT_EQ(env.cache->TotalPinCount(), 0);
  EXPECT_TRUE(env.cache->ValidateInvariants());
  EXPECT_TRUE(warm.ValidateInvariants());
  EXPECT_TRUE(results.ValidateInvariants());
}

// Layers are attached to the engine as they are set, so configuring it
// after its first query aborts instead of rewiring an engine that is
// running queries.
using ConcurrentEngineDeathTest = ConcurrentEngineTest;

TEST_F(ConcurrentEngineDeathTest, LayerSettersAbortAfterTheFirstQuery) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  concurrent_->ExecuteQuery(
      Query::WholeLevel(env_.schema(), LevelVector{1, 1}), nullptr);
  ASSERT_EQ(concurrent_->queries_executed(), 1);

  ResultCache results(ResultCache::Config{});
  WarmTier::Config warm_config;
  warm_config.capacity_bytes = 1 << 20;
  warm_config.num_dims = env_.schema().num_dims();
  WarmTier warm(warm_config);
  EXPECT_DEATH(concurrent_->set_result_cache(&results), "AAC_CHECK");
  EXPECT_DEATH(concurrent_->set_warm_tier(&warm), "AAC_CHECK");
  EXPECT_DEATH(concurrent_->ConfigureMorsels(2), "AAC_CHECK");
  EXPECT_DEATH(concurrent_->ConfigureAdmission(AdmissionConfig{}),
               "AAC_CHECK");
}

}  // namespace
}  // namespace aac
