#include "cache/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/invalidation.h"
#include "core/query_canon.h"
#include "core/query_engine.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "test_env.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/query_stream.h"
#include "workload/workload_runner.h"

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

// The entry cap applies to the trimmed answer: cells outside the key never
// count against it, and one cell past it rejects the answer (admission
// stops copying there).
TEST(ResultCacheTest, EntryCapCountsOnlyTheTrimmedAnswer) {
  ResultCache::Config config;
  config.capacity_bytes = 1'000;
  config.bytes_per_tuple = 10;
  config.max_entry_fraction = 0.5;  // cap: 500 bytes = 50 cells
  ResultCache rc(config);
  // 80 cells = 800 bytes untrimmed; MakeChunk's cell i has values[0] = i.
  const std::vector<ChunkData> wide{MakeChunk(1, 0, 80)};
  ResultCacheKey fits = MakeKey(1);
  fits.ranges[0] = {0, 50};
  EXPECT_TRUE(rc.MaybeAdmit(fits, 1, wide, 1000.0));
  EXPECT_EQ(rc.bytes_used(), 500);
  ResultCacheKey over = MakeKey(2);
  over.ranges[0] = {0, 51};
  EXPECT_FALSE(rc.MaybeAdmit(over, 1, wide, 1000.0));
  EXPECT_EQ(rc.num_entries(), 1u);
  const ResultCacheStats stats = rc.stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.rejected, 1);
  std::vector<ChunkData> out;
  ASSERT_TRUE(rc.Probe(fits, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cells.size(), 50u);
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

// A batch-class answer is never admitted, even under the entry cap: a
// later probe misses, and the same query run interactive is admitted.
TEST_F(ResultCacheEngineTest, BatchAnswersAreNotAdmitted) {
  Query q = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  q.ranges[0] = {0, 3};
  ExecContext batch;
  batch.query_class = QueryClass::kBatch;
  QueryStats stats;
  QueryResult answer = engine_->ExecuteQuery(q, &batch, &stats);
  ASSERT_EQ(answer.status, ResultStatus::kOk);
  EXPECT_TRUE(stats.result_cache_probed);
  EXPECT_FALSE(stats.result_cache_admitted);
  EXPECT_EQ(results_->stats().admitted, 0);
  EXPECT_EQ(results_->num_entries(), 0u);

  engine_->ExecuteQuery(q, &stats);
  EXPECT_TRUE(stats.result_cache_probed);
  EXPECT_FALSE(stats.result_cache_hit);
  EXPECT_TRUE(stats.result_cache_admitted);
  EXPECT_EQ(results_->stats().admitted, 1);
  EXPECT_TRUE(results_->ValidateInvariants());
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

// --- The result layer at equal total RAM. ---

// Upper bound on a query's answer cells: the product of its range widths
// at the query's level (the true count is this times the data density).
int64_t MaxAnswerCells(const Schema& schema, const Query& q) {
  int64_t cells = 1;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto& r = q.ranges[static_cast<size_t>(d)];
    cells *= std::max<int64_t>(r.second - r.first, 1);
  }
  return cells;
}

// A dashboard tile answers at most this many cells (the shape a result
// layer targets); a one-off wide scan at least the second.
constexpr int64_t kTileCells = 200;
constexpr int64_t kScanCells = 20'000;

// A dashboard: `total` arrivals over a pool of `pool_size` small tiles,
// 80% of them drawn from the hottest 20% of the pool, with a one-off wide
// scan as every 12th arrival. The scans flood the chunk cache and flush
// the tiles' computed chunks (the two-level policy evicts cache-computed
// entries first), so without a result layer a repeat after a scan
// re-folds or re-fetches its answer.
std::vector<QueryStreamEntry> MakeDashboardStream(const Schema& schema,
                                                  int pool_size, int total,
                                                  uint64_t seed) {
  QueryStreamConfig config;
  config.seed = seed;
  QueryStreamGenerator gen(&schema, config);
  constexpr int scan_every = 12;
  std::vector<QueryStreamEntry> pool;
  std::vector<QueryStreamEntry> scans;
  const int want_scans = total / scan_every + 1;
  for (int rounds = 0;
       (static_cast<int>(pool.size()) < pool_size ||
        static_cast<int>(scans.size()) < want_scans) &&
       rounds < 400;
       ++rounds) {
    for (QueryStreamEntry& e : gen.Generate(pool_size)) {
      const int64_t cells = MaxAnswerCells(schema, e.query);
      if (cells <= kTileCells && static_cast<int>(pool.size()) < pool_size) {
        pool.push_back(std::move(e));
      } else if (cells >= kScanCells &&
                 static_cast<int>(scans.size()) < want_scans) {
        scans.push_back(std::move(e));
      }
    }
  }
  pool_size = static_cast<int>(pool.size());
  const int hot = std::max(1, pool_size / 5);
  Rng rng(seed + 2);
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(total));
  size_t next_scan = 0;
  for (int i = 0; i < total; ++i) {
    if (i % scan_every == scan_every - 1 && next_scan < scans.size()) {
      stream.push_back(scans[next_scan++]);
      continue;
    }
    const size_t pick =
        rng.Bernoulli(0.8)
            ? rng.Uniform(static_cast<uint64_t>(hot))
            : rng.Uniform(static_cast<uint64_t>(pool_size));
    stream.push_back(pool[pick]);
  }
  return stream;
}

// At equal total RAM B, a chunk cache of 85% of B plus a result cache of
// the other 15% beats a chunk cache of all of B on the dashboard: result
// hits skip lookup, folding and the backend. It builds its own experiments
// (20k tuples, one cache shard, queries on one thread), so every counter
// compared here repeats exactly.
TEST_F(ResultCacheEngineTest, AtEqualRamResultLayerCutsChunkWork) {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 42;
  config.data.dense_dim = 2;
  // Scarce: the cache holds ~1/4 of the base data, so the scans displace
  // the hot tiles' chunks between repeats.
  config.cache_fraction = 0.25;
  constexpr double kResultShare = 0.15;

  Experiment chunk_only(config);
  const int64_t budget = chunk_only.cache_bytes();
  const std::vector<QueryStreamEntry> stream =
      MakeDashboardStream(chunk_only.schema(), /*pool_size=*/30,
                          /*total=*/240, config.data.seed + 7);
  const WorkloadTotals base = RunWorkload(chunk_only.engine(), stream);

  ExperimentConfig split_config = config;
  split_config.cache_fraction = config.cache_fraction * (1.0 - kResultShare);
  Experiment split(split_config);
  ResultCache::Config rc_config;
  rc_config.capacity_bytes = budget - split.cache_bytes();
  rc_config.bytes_per_tuple = split_config.bytes_per_tuple;
  // Tiles are small; a one-off scan answer must never displace them.
  rc_config.max_entry_fraction = 0.1;
  ResultCache results(rc_config);
  split.cache().AddListener(&results);
  split.engine().Attach({.result_cache = &results});
  const WorkloadTotals with = RunWorkload(split.engine(), stream);

  EXPECT_TRUE(chunk_only.cache().ValidateInvariants());
  EXPECT_TRUE(split.cache().ValidateInvariants());
  EXPECT_TRUE(results.ValidateInvariants());
  EXPECT_GT(results.stats().hits, 0);
  EXPECT_LE(split.cache_bytes() + results.capacity_bytes(), budget);
  EXPECT_GE(with.CompleteHitPercent(), base.CompleteHitPercent());
  EXPECT_LT(with.chunks_backend, base.chunks_backend);
  EXPECT_LT(with.chunks_direct + with.chunks_aggregated,
            base.chunks_direct + base.chunks_aggregated);
  // Simulated backend time is the deterministic part of the engine-time
  // gain; the real part is too noisy at this size to gate on.
  EXPECT_LT(with.backend_ms, base.backend_ms);
}

// One replay of the dashboard stream on a fresh stack whose chunk cache
// and result cache split the AtEqualRam test's budget, the scans tagged
// `scan_class`: the complete hits among the tile arrivals, and every
// arrival's sorted RefineResult rows.
struct DashboardReplay {
  int64_t tile_hits = 0;
  int64_t scans = 0;
  std::vector<std::vector<ResultRow>> rows;
};

DashboardReplay ReplayDashboard(const ExperimentConfig& config,
                                const std::vector<QueryStreamEntry>& stream,
                                QueryClass scan_class) {
  Experiment exp(config);
  ResultCache::Config rc_config;
  rc_config.capacity_bytes = exp.cache_bytes() * 15 / 85;
  rc_config.bytes_per_tuple = config.bytes_per_tuple;
  rc_config.max_entry_fraction = 0.1;
  ResultCache results(rc_config);
  exp.cache().AddListener(&results);
  exp.engine().Attach({.result_cache = &results});
  DashboardReplay replay;
  for (const QueryStreamEntry& e : stream) {
    const bool scan = MaxAnswerCells(exp.schema(), e.query) > kTileCells;
    ExecContext ctx;
    if (scan) ctx.query_class = scan_class;
    QueryStats stats;
    QueryResult answer = exp.engine().ExecuteQuery(e.query, &ctx, &stats);
    EXPECT_EQ(answer.status, ResultStatus::kOk);
    if (scan) {
      ++replay.scans;
    } else if (stats.complete_hit) {
      ++replay.tile_hits;
    }
    std::vector<ResultRow> rows =
        RefineResult(exp.schema(), e.query, answer.chunks);
    std::sort(rows.begin(), rows.end(),
              [](const ResultRow& a, const ResultRow& b) {
                return a.values < b.values;
              });
    replay.rows.push_back(std::move(rows));
  }
  EXPECT_TRUE(exp.cache().ValidateInvariants());
  EXPECT_TRUE(results.ValidateInvariants());
  return replay;
}

// The batch residency rule on the dashboard: tagged batch, the wide scans
// read through both caches instead of flushing the tiles' chunks and
// answers, so strictly more tile arrivals are complete hits than with the
// same scans tagged interactive, and every answer is bit-identical.
TEST_F(ResultCacheEngineTest, BatchScansLeaveTheTilesCached) {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.data.seed = 42;
  config.data.dense_dim = 2;
  config.cache_fraction = 0.25 * 0.85;
  Experiment schema_only(config);
  const std::vector<QueryStreamEntry> stream =
      MakeDashboardStream(schema_only.schema(), /*pool_size=*/30,
                          /*total=*/240, config.data.seed + 7);

  const DashboardReplay interactive =
      ReplayDashboard(config, stream, QueryClass::kInteractive);
  const DashboardReplay batch =
      ReplayDashboard(config, stream, QueryClass::kBatch);

  EXPECT_GT(batch.scans, 0);
  EXPECT_GT(batch.tile_hits, interactive.tile_hits);
  ASSERT_EQ(batch.rows.size(), interactive.rows.size());
  for (size_t i = 0; i < batch.rows.size(); ++i) {
    ASSERT_EQ(batch.rows[i].size(), interactive.rows[i].size()) << i;
    for (size_t r = 0; r < batch.rows[i].size(); ++r) {
      EXPECT_EQ(batch.rows[i][r].values, interactive.rows[i][r].values);
      EXPECT_EQ(batch.rows[i][r].value, interactive.rows[i][r].value);
    }
  }
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
