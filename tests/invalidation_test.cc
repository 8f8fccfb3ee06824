#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "cache/warm_tier.h"
#include "core/invalidation.h"
#include "core/query_engine.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 1'000'000;

Cell MakeCell(int32_t product, int32_t time, double measure) {
  Cell c;
  c.values[0] = product;
  c.values[1] = time;
  InitCellAggregates(c, measure);
  return c;
}

// Exact equality of two chunks' cells, order included.
bool SameCells(const ChunkData& a, const ChunkData& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const Cell& x = a.cells[i];
    const Cell& y = b.cells[i];
    if (x.values != y.values || x.measure != y.measure ||
        x.count != y.count || x.min != y.min || x.max != y.max) {
      return false;
    }
  }
  return true;
}

class InvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = MakeTestEnv(MakeSmallCube(), 0.7, 101, kBigCache,
                       /*two_level_policy=*/true);
    strategy_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(strategy_->listener());
    engine_ = std::make_unique<QueryEngine>(
        env_.cube.grid.get(), env_.cache.get(), strategy_.get(),
        env_.backend.get(), env_.benefit.get(), env_.clock.get(),
        QueryEngine::Config());
  }

  // Non-const access to the env's fact table for updates.
  FactTable* table() { return env_.table.get(); }

  TestEnv env_;
  std::unique_ptr<VcmcStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(InvalidationTest, ApplyInsertsReportsAffectedChunks) {
  std::vector<Cell> updates{MakeCell(0, 0, 10.0), MakeCell(11, 7, 5.0),
                            MakeCell(1, 1, 2.0)};
  // Cells (0,0) and (1,1) share base chunk (product chunk 0, time chunk 0);
  // (11,7) is in (3,1).
  std::vector<ChunkId> affected = table()->ApplyInserts(updates);
  EXPECT_EQ(affected.size(), 2u);
}

TEST_F(InvalidationTest, UpdatedMeasureVisibleAfterInvalidation) {
  Query top = Query::WholeLevel(env_.schema(), LevelVector{0, 0});
  std::vector<ChunkData> before = engine_->ExecuteQuery(top, nullptr).chunks;
  double before_total = 0;
  for (const auto& chunk : before) {
    for (const Cell& c : chunk.cells) before_total += c.measure;
  }

  // The write touches one chunk per group-by; every one that is cached is
  // patched in place, and with no result cache nothing is dropped.
  const Cell tuple = MakeCell(3, 2, 100.0);
  const GroupById base = env_.lattice().base_id();
  const ChunkId base_chunk = env_.grid().ChunkOfCell(base, tuple.values.data());
  int64_t resident = 0;
  for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
    resident += env_.cache->Contains(
        {gb, env_.grid().ChildChunkNumber(base, base_chunk, gb)});
  }
  ASSERT_GT(resident, 0);
  const int64_t patched_before = env_.cache->stats().patched;
  const int64_t dropped = ApplyFactUpdates(table(), env_.cache.get(), {tuple});
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(env_.cache->stats().patched - patched_before, resident);

  // The next query sees the 100.0 without going to the backend.
  QueryStats stats;
  std::vector<ChunkData> after = engine_->ExecuteQuery(top, &stats).chunks;
  EXPECT_EQ(stats.chunks_backend, 0);
  double after_total = 0;
  for (const auto& chunk : after) {
    for (const Cell& c : chunk.cells) after_total += c.measure;
  }
  EXPECT_EQ(after_total, before_total + 100.0);
}

TEST_F(InvalidationTest, UnaffectedChunksStayCached) {
  // Cache the whole base level; update one cell. Every chunk stays cached:
  // the one covering the cell equals a refetch, its siblings are untouched.
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  const size_t before = env_.cache->num_entries();
  const GroupById base = env_.lattice().base_id();
  const int64_t nchunks = env_.grid().NumChunks(base);
  std::vector<ChunkData> snapshot;
  for (ChunkId c = 0; c < nchunks; ++c) {
    const ChunkData* cached = env_.cache->Peek({base, c});
    ASSERT_NE(cached, nullptr);
    snapshot.push_back(*cached);
  }

  const ChunkId updated = env_.grid().ChunkOfCell(
      base, MakeCell(0, 0, 1.0).values.data());
  ApplyFactUpdates(table(), env_.cache.get(), {MakeCell(0, 0, 1.0)});

  EXPECT_EQ(env_.cache->num_entries(), before);
  BackendServer oracle(table(), BackendCostModel(), nullptr);
  const int nd = env_.schema().num_dims();
  for (ChunkId c = 0; c < nchunks; ++c) {
    const ChunkData* cached = env_.cache->Peek({base, c});
    ASSERT_NE(cached, nullptr) << "chunk " << c;
    ChunkData got = *cached;
    if (c == updated) {
      ChunkData want = oracle.ExecuteChunkQuery(base, {c}).chunks[0];
      EXPECT_TRUE(ChunkDataEquals(nd, &got, &want, /*epsilon=*/0.0));
      EXPECT_FALSE(ChunkDataEquals(nd, &got, &snapshot[static_cast<size_t>(c)],
                                   /*epsilon=*/0.0));
    } else {
      EXPECT_TRUE(SameCells(got, snapshot[static_cast<size_t>(c)]))
          << "chunk " << c;
    }
  }
}

TEST_F(InvalidationTest, CountsStayConsistentAfterInvalidation) {
  Query base_q = Query::WholeLevel(env_.schema(), env_.schema().base_level());
  engine_->ExecuteQuery(base_q, nullptr);
  Query mid = Query::WholeLevel(env_.schema(), LevelVector{1, 1});
  engine_->ExecuteQuery(mid, nullptr);

  ApplyFactUpdates(table(), env_.cache.get(),
                   {MakeCell(5, 3, 9.0), MakeCell(9, 6, 4.0)});

  // Costs and best parents were maintained through the eviction listeners.
  const auto [costs, parents] = strategy_->ComputeCostsFromScratch();
  const Lattice& lat = env_.lattice();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(strategy_->CostOf(gb, c), costs[OracleIndex(env_, gb, c)]);
      ASSERT_EQ(strategy_->BestParentOf(gb, c),
                parents[OracleIndex(env_, gb, c)]);
    }
  }
}

TEST_F(InvalidationTest, StreamStaysCorrectAcrossUpdates) {
  Rng rng(55);
  const Lattice& lat = env_.lattice();
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 4) {
      // Periodic batch of updates.
      std::vector<Cell> updates;
      for (int k = 0; k < 3; ++k) {
        updates.push_back(MakeCell(
            static_cast<int32_t>(rng.Uniform(12)),
            static_cast<int32_t>(rng.Uniform(8)),
            static_cast<double>(rng.Uniform(50)) + 1.0));
      }
      ApplyFactUpdates(table(), env_.cache.get(), std::move(updates));
    }
    const GroupById gb =
        static_cast<GroupById>(rng.Uniform(lat.num_groupbys()));
    Query q = Query::WholeLevel(env_.schema(), lat.LevelOf(gb));
    std::vector<ChunkData> got = engine_->ExecuteQuery(q, nullptr).chunks;
    BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
    std::vector<ChunkData> want =
        oracle.ExecuteChunkQuery(gb, ChunksForQuery(env_.grid(), q)).chunks;
    ASSERT_EQ(got.size(), want.size());
    auto by_chunk = [](const ChunkData& a, const ChunkData& b) {
      return a.chunk < b.chunk;
    };
    std::sort(got.begin(), got.end(), by_chunk);
    std::sort(want.begin(), want.end(), by_chunk);
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_TRUE(
          ChunkDataEquals(env_.schema().num_dims(), &got[k], &want[k]))
          << "query " << i;
    }
  }
}

// --- The write protocol over every layer: patched chunks equal a refetch. ---

// The result-cache key of one chunk's answer: the chunk's value ranges at
// its group-by's level, so every (group-by, chunk) gets its own entry.
ResultCacheKey ChunkAnswerKey(const ChunkGrid& grid, GroupById gb,
                              ChunkId chunk) {
  ResultCacheKey key;
  key.level = grid.lattice().LevelOf(gb);
  const ChunkCoords coords = grid.CoordsOf(gb, chunk);
  for (int d = 0; d < key.level.size(); ++d) {
    key.ranges[static_cast<size_t>(d)] =
        grid.layout(d).ValueRange(key.level[d], coords[static_cast<size_t>(d)]);
  }
  key.digest = static_cast<uint64_t>(gb) * 1'000'003 +
               static_cast<uint64_t>(chunk);
  return key;
}

// Plan cost from the cache's actual tuple counts: what VCM's estimate is
// when its size mirror is current.
double PlanCostFromCache(const ChunkCache& cache, const PlanNode& node) {
  double cost = 0.0;
  for (const auto& input : node.inputs) {
    cost += PlanCostFromCache(cache, *input);
    if (input->cached) {
      cost += static_cast<double>(cache.Peek(input->key)->tuple_count());
    }
  }
  return cost;
}

// Every layer a write reaches: a four-shard hot cache holding chunks at
// every group-by (some backend, some cache-computed), VCM and VCMC
// listeners, a warm tier holding copies of keys the hot tier lacks, and a
// result cache with one answer per chunk.
class WriteProtocolTest : public ::testing::Test {
 protected:
  static constexpr int64_t kTupleBytes = 10;

  void SetUp() override {
    env_ = MakeTestEnv(MakeThreeDimCube(), 0.5, 31, kBigCache,
                       /*two_level_policy=*/true, kTupleBytes,
                       /*num_shards=*/4);
    vcm_ = std::make_unique<VcmStrategy>(env_.cube.grid.get(),
                                         env_.cache.get());
    vcmc_ = std::make_unique<VcmcStrategy>(
        env_.cube.grid.get(), env_.cache.get(), env_.size_model.get());
    env_.cache->AddListener(vcm_->listener());
    env_.cache->AddListener(vcmc_->listener());
    WarmTier::Config wc;
    wc.capacity_bytes = kBigCache;
    wc.num_dims = env_.schema().num_dims();
    warm_ = std::make_unique<WarmTier>(wc);
    env_.cache->set_demotion_sink(warm_.get());
    ResultCache::Config rc;
    rc.capacity_bytes = kBigCache;
    rc.bytes_per_tuple = kTupleBytes;
    results_ = std::make_unique<ResultCache>(rc);
    env_.cache->AddListener(results_.get());
  }

  ChunkData Refetch(GroupById gb, ChunkId chunk) {
    BackendServer oracle(env_.table.get(), BackendCostModel(), nullptr);
    return std::move(oracle.ExecuteChunkQuery(gb, {chunk}).chunks[0]);
  }

  // The keys a write of `tuples` touches: one chunk per group-by for each
  // base chunk the tuples land in.
  std::set<std::pair<GroupById, ChunkId>> TouchedKeys(
      const std::vector<Cell>& tuples) const {
    const GroupById base = env_.lattice().base_id();
    std::set<std::pair<GroupById, ChunkId>> keys;
    for (const Cell& t : tuples) {
      const ChunkId b = env_.grid().ChunkOfCell(base, t.values.data());
      for (GroupById gb = 0; gb < env_.lattice().num_groupbys(); ++gb) {
        keys.insert({gb, env_.grid().ChildChunkNumber(base, b, gb)});
      }
    }
    return keys;
  }

  TestEnv env_;
  std::unique_ptr<VcmStrategy> vcm_;
  std::unique_ptr<VcmcStrategy> vcmc_;
  std::unique_ptr<WarmTier> warm_;
  std::unique_ptr<ResultCache> results_;
};

TEST_F(WriteProtocolTest, PatchedCacheEqualsRefetch) {
  const Lattice& lat = env_.lattice();
  const ChunkGrid& grid = env_.grid();
  const int nd = env_.schema().num_dims();

  // Every fifth key lives only in the warm tier; the rest are hot, every
  // third of them cache-computed. Every key has a result answer.
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      ChunkData data = Refetch(gb, c);
      ASSERT_TRUE(results_->MaybeAdmit(ChunkAnswerKey(grid, gb, c), gb, {data},
                                       /*cost_tuples=*/100.0));
      const int64_t i = gb * 7 + c;
      if (i % 5 == 0) {
        CacheEntryInfo info;
        info.key = {gb, c};
        info.bytes = data.LogicalBytes(kTupleBytes);
        info.benefit = 100.0;
        warm_->OnDemote(info, std::move(data));
      } else {
        ASSERT_TRUE(env_.cache->Insert(
            std::move(data), env_.benefit->BackendChunkBenefit(gb, c),
            i % 3 == 0 ? ChunkSource::kCacheComputed : ChunkSource::kBackend));
      }
    }
  }

  // Existing cells (one taking a new MIN, one a new MAX), a cell twice in
  // the batch, and cells at random coordinates, some of them new.
  std::vector<Cell> batch;
  const std::span<const Cell> facts = env_.table->tuples();
  Cell below = facts[3];
  InitCellAggregates(below, -7.0);  // under every MIN over it
  Cell above = facts[facts.size() / 2];
  InitCellAggregates(above, 5000.0);  // over every MAX over it
  batch.push_back(below);
  batch.push_back(above);
  batch.push_back(above);
  Rng rng(77);
  for (int i = 0; i < 12; ++i) {
    Cell c;
    for (int d = 0; d < nd; ++d) {
      c.values[static_cast<size_t>(d)] = static_cast<int32_t>(rng.Uniform(
          static_cast<uint64_t>(env_.schema().dimension(d).cardinality(
              env_.schema().base_level()[d]))));
    }
    InitCellAggregates(c, static_cast<double>(rng.Uniform(50)) + 1.0);
    batch.push_back(c);
  }

  const auto touched = TouchedKeys(batch);
  std::map<std::pair<GroupById, ChunkId>, ChunkData> hot_before;
  env_.cache->ForEach([&](const CacheEntryInfo& info) {
    hot_before[{info.key.gb, info.key.chunk}] = *env_.cache->Peek(info.key);
  });
  int64_t resident_touched = 0;
  int64_t warm_touched = 0;
  for (const auto& [gb, c] : touched) {
    resident_touched += hot_before.count({gb, c}) > 0;
    warm_touched += warm_->Contains({gb, c});
  }
  ASSERT_GT(warm_touched, 0);
  // Every chunk has one answer.
  const auto answers_touched = static_cast<int64_t>(touched.size());
  const size_t answers_before = results_->num_entries();
  const CacheStats stats_before = env_.cache->stats();

  const int64_t dropped = ApplyFactUpdates(env_.table.get(), env_.cache.get(),
                                           batch, results_.get());

  // Answers over touched chunks are dropped and counted; every cached chunk
  // had room, so no chunk was dropped and each touched one was patched.
  EXPECT_EQ(dropped, answers_touched);
  EXPECT_EQ(results_->num_entries(),
            answers_before - static_cast<size_t>(answers_touched));
  const CacheStats stats_after = env_.cache->stats();
  EXPECT_EQ(stats_after.patched - stats_before.patched, resident_touched);
  EXPECT_EQ(stats_after.hits, stats_before.hits);  // a patch is not a use
  EXPECT_EQ(stats_after.evictions, stats_before.evictions);
  EXPECT_EQ(env_.cache->num_entries(), hot_before.size());

  // Every resident chunk equals a refetch, exactly (integer measures);
  // untouched ones are bit-for-bit what they were.
  int64_t grew = 0;
  int64_t ledger = 0;
  for (const auto& [key, old] : hot_before) {
    const ChunkData* cached = env_.cache->Peek({key.first, key.second});
    ASSERT_NE(cached, nullptr);
    ledger += cached->LogicalBytes(kTupleBytes);
    ChunkData got = *cached;
    if (touched.count(key) > 0) {
      grew += got.tuple_count() > old.tuple_count();
      ChunkData want = Refetch(key.first, key.second);
      EXPECT_TRUE(ChunkDataEquals(nd, &got, &want, /*epsilon=*/0.0))
          << "gb " << key.first << " chunk " << key.second;
    } else {
      EXPECT_TRUE(SameCells(got, old))
          << "gb " << key.first << " chunk " << key.second;
    }
  }
  EXPECT_GT(grew, 0);
  EXPECT_LT(grew, resident_touched);  // some patches only merged
  EXPECT_TRUE(env_.cache->ValidateInvariants());
  EXPECT_EQ(env_.cache->bytes_used(), ledger);

  // Warm copies of touched keys are purged; the others stay. Answers over
  // untouched chunks stay.
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      const bool is_touched = touched.count({gb, c}) > 0;
      if (is_touched) {
        EXPECT_FALSE(warm_->Contains({gb, c}));
      } else if ((gb * 7 + c) % 5 == 0) {
        EXPECT_TRUE(warm_->Contains({gb, c}));
      }
      std::vector<ChunkData> answer;
      EXPECT_EQ(results_->Probe(ChunkAnswerKey(grid, gb, c), &answer),
                !is_touched);
    }
  }
  EXPECT_TRUE(warm_->ValidateInvariants());
  EXPECT_TRUE(results_->ValidateInvariants());

  // Counts, costs and VCM's sizes equal their recomputation.
  const std::vector<uint8_t> counts = vcm_->counts().ComputeFromScratch();
  const auto [costs, parents] = vcmc_->ComputeCostsFromScratch();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      const size_t i = OracleIndex(env_, gb, c);
      ASSERT_EQ(vcm_->counts().CountOf(gb, c), counts[i]);
      ASSERT_EQ(vcmc_->IsComputable(gb, c), counts[i] > 0);
      ASSERT_EQ(vcmc_->CostOf(gb, c), costs[i]);
      ASSERT_EQ(vcmc_->BestParentOf(gb, c), parents[i]);
      std::unique_ptr<PlanNode> plan = vcm_->FindPlan(gb, c);
      if (plan != nullptr) {
        ASSERT_EQ(plan->estimated_cost, PlanCostFromCache(*env_.cache, *plan))
            << "gb " << gb << " chunk " << c;
      }
    }
  }
}

// A touched entry whose growth cannot fit its shard is removed, not
// patched; a touched entry that only merges is patched beside it.
TEST_F(WriteProtocolTest, GrowthThatDoesNotFitIsRemoved) {
  const Lattice& lat = env_.lattice();
  const Schema& schema = env_.schema();
  const GroupById base = lat.base_id();
  // The write: one tuple at a base cell the table lacks.
  std::set<std::array<int32_t, kMaxDims>> present;
  for (const Cell& t : env_.table->tuples()) present.insert(t.values);
  Cell tuple;
  bool found = false;
  for (int64_t i = 0; i < schema.NumCells(schema.base_level()) && !found; ++i) {
    int64_t rest = i;
    for (int d = schema.num_dims() - 1; d >= 0; --d) {
      const int64_t card = schema.dimension(d).cardinality(schema.base_level()[d]);
      tuple.values[static_cast<size_t>(d)] = static_cast<int32_t>(rest % card);
      rest /= card;
    }
    found = present.count(tuple.values) == 0;
  }
  ASSERT_TRUE(found);
  InitCellAggregates(tuple, 9.0);
  const ChunkId base_chunk = env_.grid().ChunkOfCell(base, tuple.values.data());
  const CacheKey grows_key{base, base_chunk};
  const CacheKey merges_key{
      lat.top_id(), env_.grid().ChildChunkNumber(base, base_chunk, lat.top_id())};

  // One shard holding exactly the two chunks. The base chunk is
  // cache-computed, and the two-level policy forbids it from evicting the
  // backend top chunk to grow.
  ChunkData grows = Refetch(grows_key.gb, grows_key.chunk);
  ChunkData merges = Refetch(merges_key.gb, merges_key.chunk);
  const int64_t merges_tuples = merges.tuple_count();
  TwoLevelPolicy policy;
  ChunkCache cache(
      grows.LogicalBytes(kTupleBytes) + merges.LogicalBytes(kTupleBytes),
      kTupleBytes, &policy);
  VcmStrategy vcm(env_.cube.grid.get(), &cache);
  cache.AddListener(vcm.listener());
  cache.set_demotion_sink(warm_.get());
  ASSERT_TRUE(cache.Insert(std::move(merges), 1.0, ChunkSource::kBackend));
  ASSERT_TRUE(
      cache.Insert(std::move(grows), 1.0, ChunkSource::kCacheComputed));

  const int64_t dropped = ApplyFactUpdates(env_.table.get(), &cache, {tuple});
  EXPECT_EQ(dropped, 1);
  EXPECT_FALSE(cache.Contains(grows_key));
  EXPECT_EQ(cache.stats().patched, 1);
  ASSERT_TRUE(cache.Contains(merges_key));
  ChunkData got = *cache.Peek(merges_key);
  EXPECT_EQ(got.tuple_count(), merges_tuples);
  ChunkData want = Refetch(merges_key.gb, merges_key.chunk);
  EXPECT_TRUE(ChunkDataEquals(schema.num_dims(), &got, &want, 0.0));
  EXPECT_TRUE(cache.ValidateInvariants());
  EXPECT_EQ(cache.bytes_used(), got.LogicalBytes(kTupleBytes));
  const std::vector<uint8_t> counts = vcm.counts().ComputeFromScratch();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env_.grid().NumChunks(gb); ++c) {
      ASSERT_EQ(vcm.counts().CountOf(gb, c), counts[OracleIndex(env_, gb, c)]);
    }
  }
}

// Writes are quiescent: a reader's pin on a touched entry is a broken
// contract, and the patch aborts rather than edit data under the reader.
TEST_F(WriteProtocolTest, PinnedTouchedEntryAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const GroupById base = env_.lattice().base_id();
  const GroupById top = env_.lattice().top_id();
  Cell tuple = env_.table->tuples()[0];
  InitCellAggregates(tuple, 1.0);
  const CacheKey key{
      top, env_.grid().ChildChunkNumber(
               base, env_.grid().ChunkOfCell(base, tuple.values.data()), top)};
  ASSERT_TRUE(env_.cache->Insert(Refetch(key.gb, key.chunk), 1.0,
                                 ChunkSource::kBackend));
  env_.cache->Pin(key);
  EXPECT_DEATH(ApplyFactUpdates(env_.table.get(), env_.cache.get(), {tuple},
                                results_.get()),
               "AAC_CHECK");
  env_.cache->Unpin(key);
}

}  // namespace
}  // namespace aac
