#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "core/esm.h"
#include "core/executor.h"
#include "core/memo_esmc.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "test_env.h"

namespace aac {
namespace {

constexpr int64_t kBigCache = 4'000'000;

// Fuzz suite: every structural and algorithmic invariant, re-checked on
// fully randomized schemas / hierarchies / chunk layouts.
class RandomCubeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCubeTest, ChunkMappingInvariants) {
  TestCube cube = MakeRandomCube(GetParam());
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    // Chunk id round trip.
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      EXPECT_EQ(grid.ChunkIdOf(gb, grid.CoordsOf(gb, c)), c);
    }
    // Parent chunk sets partition ancestors' chunk spaces.
    for (GroupById parent : lat.Parents(gb)) {
      std::set<ChunkId> seen;
      for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
        for (ChunkId pc : grid.ParentChunkNumbers(gb, c, parent)) {
          EXPECT_TRUE(seen.insert(pc).second)
              << "chunk covered twice at parent level";
          EXPECT_EQ(grid.ChildChunkNumber(parent, pc, gb), c);
        }
      }
      EXPECT_EQ(static_cast<int64_t>(seen.size()), grid.NumChunks(parent));
    }
  }
}

// The one parent-chunk walk against lists materialized from
// ChildChunkNumber, over every ancestor pair (ChunkMappingInvariants takes
// only immediate parents): each chunk of `to`, in ascending order, goes to
// the list of the chunk of `gb` it aggregates into, and the walk from that
// chunk must visit exactly its list, in order. So the walks over the chunks
// of `gb` partition the chunks of `to`, each walk is strictly ascending, and
// ChildChunkNumber maps every parent chunk back.
TEST_P(RandomCubeTest, ForEachParentChunkMatchesMaterialized) {
  TestCube cube = MakeRandomCube(GetParam() + 1000);
  const Lattice& lat = *cube.lattice;
  const ChunkGrid& grid = *cube.grid;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
      if (!lat.IsAncestor(gb, to)) continue;
      std::vector<std::vector<ChunkId>> materialized(
          static_cast<size_t>(grid.NumChunks(gb)));
      for (ChunkId pc = 0; pc < grid.NumChunks(to); ++pc) {
        materialized[static_cast<size_t>(grid.ChildChunkNumber(to, pc, gb))]
            .push_back(pc);
      }
      for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
        std::vector<ChunkId> walked;
        grid.ForEachParentChunk(gb, c, to, [&](ChunkId id) {
          walked.push_back(id);
          return true;
        });
        EXPECT_EQ(walked, materialized[static_cast<size_t>(c)])
            << "from=" << lat.LevelOf(gb).ToString() << " chunk=" << c
            << " to=" << lat.LevelOf(to).ToString();
      }
    }
  }
}

TEST_P(RandomCubeTest, Lemma1PathCountsMatchDfs) {
  TestCube cube = MakeRandomCube(GetParam() + 2000);
  const Lattice& lat = *cube.lattice;
  std::function<uint64_t(GroupById)> dfs = [&](GroupById id) -> uint64_t {
    if (id == lat.base_id()) return 1;
    uint64_t n = 0;
    for (GroupById p : lat.Parents(id)) n += dfs(p);
    return n;
  };
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    EXPECT_EQ(lat.NumPathsToBase(gb), dfs(gb));
  }
}

TEST_P(RandomCubeTest, StrategiesAgreeWithOracleUnderChurn) {
  TestEnv env =
      MakeTestEnv(MakeRandomCube(GetParam() + 3000), 0.6, GetParam(),
                  kBigCache);
  VcmStrategy vcm(env.cube.grid.get(), env.cache.get());
  VcmcStrategy vcmc(env.cube.grid.get(), env.cache.get(),
                    env.size_model.get());
  env.cache->AddListener(vcm.listener());
  env.cache->AddListener(vcmc.listener());
  EsmStrategy esm(env.cube.grid.get(), env.cache.get());
  MemoizedEsmcStrategy memo(env.cube.grid.get(), env.cache.get(),
                            env.size_model.get());

  Rng rng(GetParam() * 13 + 5);
  const Lattice& lat = env.lattice();
  std::vector<CacheKey> cached;
  for (int i = 0; i < 100; ++i) {
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
  const std::vector<uint8_t> scratch_counts =
      vcm.counts().ComputeFromScratch();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      const bool want = oracle[OracleIndex(env, gb, c)];
      ASSERT_EQ(esm.IsComputable(gb, c), want);
      ASSERT_EQ(vcm.IsComputable(gb, c), want);
      ASSERT_EQ(vcmc.IsComputable(gb, c), want);
      ASSERT_EQ(memo.IsComputable(gb, c), want);
      ASSERT_EQ(vcm.counts().CountOf(gb, c),
                scratch_counts[OracleIndex(env, gb, c)]);
    }
  }
  // VCMC costs agree with the memoized exhaustive search.
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      auto plan = memo.FindPlan(gb, c);
      if (plan == nullptr) continue;
      ASSERT_NEAR(vcmc.CostOf(gb, c), plan->estimated_cost,
                  1e-6 * (1.0 + plan->estimated_cost));
    }
  }
}

TEST_P(RandomCubeTest, AggregationMatchesOracleEverywhere) {
  TestEnv env = MakeTestEnv(MakeRandomCube(GetParam() + 4000), 0.7,
                            GetParam() + 1, kBigCache);
  // Cache the whole base level, then compute every chunk of every group-by
  // through VCM plans and compare with direct backend computation.
  const GroupById base = env.lattice().base_id();
  for (ChunkId c = 0; c < env.grid().NumChunks(base); ++c) {
    CacheChunkFromBackend(env, base, c);
  }
  VcmStrategy vcm(env.cube.grid.get(), env.cache.get());
  Aggregator aggregator(env.cube.grid.get());
  PlanExecutor executor(env.cube.grid.get(), env.cache.get(), &aggregator);
  BackendServer oracle(env.table.get(), BackendCostModel(), nullptr);
  for (GroupById gb = 0; gb < env.lattice().num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < env.grid().NumChunks(gb); ++c) {
      auto plan = vcm.FindPlan(gb, c);
      ASSERT_NE(plan, nullptr);
      ExecutionResult got = executor.Execute(*plan);
      ChunkData want = oracle.ExecuteChunkQuery(gb, {c}).chunks[0];
      ASSERT_TRUE(
          ChunkDataEquals(env.schema().num_dims(), &got.data, &want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCubeTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

}  // namespace
}  // namespace aac
