#include "cache/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/invalidation.h"
#include "core/query_canon.h"
#include "core/query_engine.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

ChunkData MakeChunk(GroupById gb, ChunkId chunk, int cells, double base = 1.0) {
  ChunkData data;
  data.gb = gb;
  data.chunk = chunk;
  for (int i = 0; i < cells; ++i) {
    Cell c;
    c.values[0] = i;
    InitCellAggregates(c, base + i);
    data.cells.push_back(c);
  }
  return data;
}

ResultCacheKey MakeKey(uint64_t digest) {
  ResultCacheKey key;
  key.level = LevelVector::Uniform(2, 1);
  // Ranges cover every cell MakeChunk produces (admission trims to the
  // key's ranges); the digest-dependent bound keeps distinct keys unequal.
  key.ranges[0] = {0, 1000 + static_cast<int32_t>(digest)};
  key.ranges[1] = {0, 1000};
  key.digest = digest;
  return key;
}

TEST(ResultCacheTest, ProbeAdmitRoundTrip) {
  ResultCache::Config config;
  config.capacity_bytes = 10'000;
  config.bytes_per_tuple = 10;
  ResultCache rc(config);

  const ResultCacheKey key = MakeKey(1);
  std::vector<ChunkData> out;
  EXPECT_FALSE(rc.Probe(key, &out));

  std::vector<ChunkData> answer;
  answer.push_back(MakeChunk(3, 0, 4));
  answer.push_back(MakeChunk(3, 2, 2));
  EXPECT_TRUE(rc.MaybeAdmit(key, 3, answer, /*cost_tuples=*/100.0));
  EXPECT_EQ(rc.num_entries(), 1u);
  EXPECT_EQ(rc.bytes_used(), 60);  // 6 tuples * 10 bytes

  ASSERT_TRUE(rc.Probe(key, &out));
  ASSERT_EQ(out.size(), 2u);
  // Bit-identical copies of the stored answer.
  EXPECT_EQ(out[0].chunk, 0);
  EXPECT_EQ(out[1].chunk, 2);
  EXPECT_EQ(out[0].cells.size(), 4u);
  EXPECT_EQ(out[0].cells[3].measure, 4.0);

  const ResultCacheStats stats = rc.stats();
  EXPECT_EQ(stats.probes, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_TRUE(rc.ValidateInvariants());
}

TEST(ResultCacheTest, CostBarRejectsCheapAnswers) {
  ResultCache::Config config;
  config.capacity_bytes = 10'000;
  config.min_admit_cost_tuples = 50.0;
  ResultCache rc(config);
  std::vector<ChunkData> answer{MakeChunk(1, 0, 3)};
  EXPECT_FALSE(rc.MaybeAdmit(MakeKey(1), 1, answer, /*cost_tuples=*/10.0));
  EXPECT_EQ(rc.num_entries(), 0u);
  EXPECT_EQ(rc.stats().rejected, 1);
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(2), 1, answer, /*cost_tuples=*/50.0));
  EXPECT_EQ(rc.num_entries(), 1u);
}

TEST(ResultCacheTest, OversizedAnswersAreRejected) {
  ResultCache::Config config;
  config.capacity_bytes = 1'000;
  config.bytes_per_tuple = 10;
  config.max_entry_fraction = 0.5;
  ResultCache rc(config);
  // 60 tuples = 600 bytes > 50% of 1000.
  std::vector<ChunkData> big{MakeChunk(1, 0, 60)};
  EXPECT_FALSE(rc.MaybeAdmit(MakeKey(1), 1, big, 1000.0));
  EXPECT_EQ(rc.stats().rejected, 1);
  EXPECT_TRUE(rc.ValidateInvariants());
}

TEST(ResultCacheTest, ClockEvictionMakesRoomAndKeepsAccounting) {
  ResultCache::Config config;
  config.capacity_bytes = 100;  // room for two 5-tuple answers at 10 B/tuple
  config.bytes_per_tuple = 10;
  config.max_entry_fraction = 1.0;
  ResultCache rc(config);
  std::vector<ChunkData> answer{MakeChunk(1, 0, 5)};
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(1), 1, answer, 10.0));
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(2), 1, answer, 10.0));
  EXPECT_EQ(rc.num_entries(), 2u);
  // A third answer forces CLOCK eviction.
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(3), 1, answer, 10.0));
  EXPECT_EQ(rc.num_entries(), 2u);
  EXPECT_GE(rc.stats().evictions, 1);
  EXPECT_LE(rc.bytes_used(), config.capacity_bytes);
  EXPECT_TRUE(rc.ValidateInvariants());
}

TEST(ResultCacheTest, ReAdmitReplacesInPlace) {
  ResultCache::Config config;
  config.capacity_bytes = 10'000;
  config.bytes_per_tuple = 10;
  ResultCache rc(config);
  const ResultCacheKey key = MakeKey(1);
  std::vector<ChunkData> v1{MakeChunk(1, 0, 3, /*base=*/1.0)};
  std::vector<ChunkData> v2{MakeChunk(1, 0, 5, /*base=*/100.0)};
  EXPECT_TRUE(rc.MaybeAdmit(key, 1, v1, 10.0));
  EXPECT_TRUE(rc.MaybeAdmit(key, 1, v2, 20.0));
  EXPECT_EQ(rc.num_entries(), 1u);
  EXPECT_EQ(rc.bytes_used(), 50);
  std::vector<ChunkData> out;
  ASSERT_TRUE(rc.Probe(key, &out));
  ASSERT_EQ(out[0].cells.size(), 5u);
  EXPECT_EQ(out[0].cells[0].measure, 100.0);
  EXPECT_TRUE(rc.ValidateInvariants());
}

TEST(ResultCacheTest, OnUpdateDropsOnlyDependentEntries) {
  ResultCache::Config config;
  ResultCache rc(config);
  std::vector<ChunkData> a{MakeChunk(1, 0, 3), MakeChunk(1, 2, 3)};
  std::vector<ChunkData> b{MakeChunk(1, 4, 3)};
  std::vector<ChunkData> c{MakeChunk(2, 0, 3)};
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(1), 1, a, 10.0));
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(2), 1, b, 10.0));
  EXPECT_TRUE(rc.MaybeAdmit(MakeKey(3), 2, c, 10.0));
  // Replace-in-place of (1, 2): only entry `a` depends on it. Entry `c`
  // holds chunk 0 of a DIFFERENT group-by and must survive.
  rc.OnUpdate(CacheKey{1, 2}, 7);
  EXPECT_EQ(rc.num_entries(), 2u);
  std::vector<ChunkData> out;
  EXPECT_FALSE(rc.Probe(MakeKey(1), &out));
  EXPECT_TRUE(rc.Probe(MakeKey(2), &out));
  EXPECT_TRUE(rc.Probe(MakeKey(3), &out));
  EXPECT_EQ(rc.stats().invalidated, 1);
  // OnInsert / OnEvict are membership-only signals: no staleness.
  rc.OnInsert(CacheKey{1, 4}, 3);
  rc.OnEvict(CacheKey{1, 4});
  EXPECT_EQ(rc.num_entries(), 2u);
  EXPECT_TRUE(rc.ValidateInvariants());
}

// --- Integration against the real middle tier. ---

class ResultCacheEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 41, kBigCache,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    ResultCache::Config rc_config;
    rc_config.capacity_bytes = kBigCache;
    rc_config.bytes_per_tuple = 10;
    results_ = std::make_unique<ResultCache>(rc_config);
    env_.cache->AddListener(results_.get());
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(),
        QueryEngine::Config{});
    engine_->Attach({.result_cache = results_.get()});
  }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<ResultCache> results_;
  std::unique_ptr<QueryEngine> engine_;
};

// Result-cache hits must return bit-identical cells vs. a cold re-fold of
// the same query (epsilon 0: exact doubles, exact counts).
TEST_F(ResultCacheEngineTest, HitIsBitIdenticalToColdFold) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  q.ranges[0] = {0, 3};
  QueryStats cold_stats;
  QueryResult cold = engine_->ExecuteQuery(q, &cold_stats);
  ASSERT_EQ(cold.status, ResultStatus::kOk);
  EXPECT_TRUE(cold_stats.result_cache_probed);
  EXPECT_FALSE(cold_stats.result_cache_hit);
  EXPECT_TRUE(cold_stats.result_cache_admitted);

  QueryStats hit_stats;
  QueryResult hit = engine_->ExecuteQuery(q, &hit_stats);
  ASSERT_EQ(hit.status, ResultStatus::kOk);
  EXPECT_TRUE(hit_stats.result_cache_hit);
  EXPECT_TRUE(hit_stats.complete_hit);
  EXPECT_EQ(hit_stats.chunks_backend, 0);
  EXPECT_EQ(hit_stats.chunks_direct, 0);  // no chunk work at all

  // Cold re-fold with a result-cache-free engine over identical state.
  TestEnv fresh = MakeTestEnv(MakeSmallCube(), 0.7, 41, kBigCache,
                              /*two_level_policy=*/true);
  VcmcStrategy fresh_strategy(fresh.cube.grid.get(), fresh.cache.get(),
                              fresh.size_model.get());
  fresh.cache->AddListener(fresh_strategy.listener());
  QueryEngine fresh_engine(fresh.cube.grid.get(), fresh.cache.get(),
                           &fresh_strategy, fresh.backend.get(),
                           fresh.benefit.get(), fresh.clock.get(),
                           QueryEngine::Config{});
  QueryResult refold = fresh_engine.ExecuteQuery(q, nullptr);

  // The cached payload is the TRIMMED answer, so compare what the client
  // sees: RefineResult rows, sorted, exact doubles (epsilon 0).
  std::vector<ResultRow> hit_rows = RefineResult(env_.schema(), q, hit.chunks);
  std::vector<ResultRow> refold_rows =
      RefineResult(fresh.schema(), q, refold.chunks);
  auto by_coords = [](const ResultRow& a, const ResultRow& b) {
    return a.values < b.values;
  };
  std::sort(hit_rows.begin(), hit_rows.end(), by_coords);
  std::sort(refold_rows.begin(), refold_rows.end(), by_coords);
  ASSERT_EQ(hit_rows.size(), refold_rows.size());
  ASSERT_FALSE(hit_rows.empty());
  for (size_t i = 0; i < hit_rows.size(); ++i) {
    EXPECT_EQ(hit_rows[i].values, refold_rows[i].values);
    EXPECT_EQ(hit_rows[i].value, refold_rows[i].value);
  }
}

// Queries differing only in aggregate function share one result entry.
TEST_F(ResultCacheEngineTest, FunctionVariantsShareOneEntry) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 0});
  engine_->ExecuteQuery(q, nullptr);
  Query avg = q;
  avg.fn = AggregateFunction::kAvg;
  QueryStats stats;
  engine_->ExecuteQuery(avg, &stats);
  EXPECT_TRUE(stats.result_cache_hit);
  EXPECT_EQ(results_->num_entries(), 1u);
}

// Base writes drop dependent result entries through ApplyFactUpdates, and
// the refreshed answer reflects the new facts.
TEST_F(ResultCacheEngineTest, BaseWriteInvalidatesDependentResults) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  QueryResult before = engine_->ExecuteQuery(q, nullptr);
  ASSERT_EQ(results_->num_entries(), 1u);

  // One new fact tuple at base coordinates (0, 0).
  Cell tuple;
  tuple.values = {0, 0};
  InitCellAggregates(tuple, 500.0);
  const int64_t dropped = ApplyFactUpdates(env_.table.get(), env_.cache.get(),
                                           {tuple}, results_.get());
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(results_->num_entries(), 0u);
  EXPECT_EQ(results_->stats().invalidated, 1);

  QueryStats stats;
  QueryResult after = engine_->ExecuteQuery(q, &stats);
  EXPECT_FALSE(stats.result_cache_hit);
  double sum_before = 0.0;
  double sum_after = 0.0;
  for (const ChunkData& c : before.chunks)
    for (const Cell& cell : c.cells) sum_before += cell.measure;
  for (const ChunkData& c : after.chunks)
    for (const Cell& cell : c.cells) sum_after += cell.measure;
  EXPECT_NEAR(sum_after, sum_before + 500.0, 1e-6);
}

// Capacity eviction in the chunk cache must NOT invalidate results: an
// evicted chunk doesn't change what a stored answer means.
TEST_F(ResultCacheEngineTest, ChunkEvictionKeepsResults) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  engine_->ExecuteQuery(q, nullptr);
  ASSERT_EQ(results_->num_entries(), 1u);
  // Explicit removal fires OnEvict — same signal as a capacity eviction.
  const GroupById gb = env_.lattice().IdOf(q.level);
  env_.cache->Remove({gb, 0});
  EXPECT_EQ(results_->num_entries(), 1u);
  QueryStats stats;
  engine_->ExecuteQuery(q, &stats);
  EXPECT_TRUE(stats.result_cache_hit);
}

// --- Satellite: the replace-in-place path, end to end. ---

struct RecordingListener : CacheListener {
  std::vector<std::pair<CacheKey, int64_t>> inserts;
  std::vector<std::pair<CacheKey, int64_t>> updates;
  std::vector<CacheKey> evicts;
  void OnInsert(const CacheKey& key, int64_t tuples) override {
    inserts.emplace_back(key, tuples);
  }
  void OnUpdate(const CacheKey& key, int64_t tuples) override {
    updates.emplace_back(key, tuples);
  }
  void OnEvict(const CacheKey& key) override { evicts.push_back(key); }
};

// Insert-over-existing-key must fire OnUpdate (not OnInsert) to EVERY
// listener — the recording probe, VCM, VCMC and the result cache all see
// the same event — and the result cache must drop dependent answers.
TEST(ResultCacheReplaceTest, ReplaceInPlaceNotifiesAllListeners) {
  TestEnv env = MakeTestEnv(MakeSmallCube(), 0.7, 41, kBigCache,
                            /*two_level_policy=*/true);
  VcmStrategy vcm(env.cube.grid.get(), env.cache.get());
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  RecordingListener recorder;
  ResultCache results{ResultCache::Config{}};
  env.cache->AddListener(vcm.listener());
  env.cache->AddListener(vcmc.listener());
  env.cache->AddListener(&recorder);
  env.cache->AddListener(&results);

  const GroupById gb = env.lattice().IdOf(LevelVector{1, 1});
  CacheChunkFromBackend(env, gb, 0);
  ASSERT_EQ(recorder.inserts.size(), 1u);
  ASSERT_TRUE(recorder.updates.empty());

  // A stored answer over (gb, 0).
  ChunkData stored;
  ASSERT_TRUE(env.cache->GetCopy({gb, 0}, &stored));
  ASSERT_TRUE(results.MaybeAdmit(MakeKey(9), gb, {stored}, 10.0));

  // Replace in place with different data.
  ChunkData fresh = MakeChunk(gb, 0, 2, /*base=*/999.0);
  const int64_t fresh_tuples = fresh.tuple_count();
  ASSERT_TRUE(env.cache->Insert(std::move(fresh), /*benefit=*/5.0,
                                ChunkSource::kBackend));

  // Same membership; one OnUpdate with the new tuple count; no OnEvict.
  ASSERT_EQ(recorder.inserts.size(), 1u);
  ASSERT_EQ(recorder.updates.size(), 1u);
  EXPECT_EQ(recorder.updates[0].first, (CacheKey{gb, 0}));
  EXPECT_EQ(recorder.updates[0].second, fresh_tuples);
  EXPECT_TRUE(recorder.evicts.empty());

  // The result cache saw the same OnUpdate and dropped the stale answer.
  std::vector<ChunkData> out;
  EXPECT_FALSE(results.Probe(MakeKey(9), &out));
  EXPECT_EQ(results.stats().invalidated, 1);

  // The replacement is live: a read returns the new payload.
  ChunkData now;
  ASSERT_TRUE(env.cache->GetCopy({gb, 0}, &now));
  EXPECT_EQ(now.tuple_count(), fresh_tuples);
  EXPECT_EQ(now.cells[0].measure, 999.0);
  EXPECT_TRUE(env.cache->ValidateInvariants());
}

}  // namespace
}  // namespace aac
