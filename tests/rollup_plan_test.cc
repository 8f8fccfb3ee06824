#include "storage/rollup_plan.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "storage/aggregator.h"
#include "test_util.h"
#include "util/rng.h"

namespace aac {
namespace {

// Naive reference fold, replicating the pre-plan kernel semantics exactly:
// per cell, walk the hierarchy with Dimension::AncestorValue, merge full
// aggregate state per target coordinate, in accumulator-then-spans order so
// floating-point sums are bit-identical to the kernel's.
ChunkData ReferenceFold(const TestCube& cube, GroupById from,
                        const std::vector<std::vector<Cell>>& spans,
                        GroupById to, ChunkId chunk,
                        const std::vector<Cell>& accumulator = {}) {
  const Schema& schema = *cube.schema;
  const Lattice& lat = *cube.lattice;
  const LevelVector& from_lv = lat.LevelOf(from);
  const LevelVector& to_lv = lat.LevelOf(to);
  const int nd = schema.num_dims();
  // std::map keyed by target values: deterministic canonical order.
  std::map<std::vector<int32_t>, Cell> states;
  auto merge = [&](const std::vector<int32_t>& key, const Cell& c) {
    auto [it, inserted] = states.try_emplace(key);
    Cell& s = it->second;
    if (inserted) {
      for (int d = 0; d < nd; ++d) {
        s.values[static_cast<size_t>(d)] = key[static_cast<size_t>(d)];
      }
    }
    MergeCellAggregates(s, c);
  };
  for (const Cell& c : accumulator) {
    std::vector<int32_t> key(static_cast<size_t>(nd));
    for (int d = 0; d < nd; ++d) key[static_cast<size_t>(d)] = c.values[static_cast<size_t>(d)];
    merge(key, c);
  }
  for (const auto& span : spans) {
    for (const Cell& c : span) {
      std::vector<int32_t> key(static_cast<size_t>(nd));
      for (int d = 0; d < nd; ++d) {
        key[static_cast<size_t>(d)] = schema.dimension(d).AncestorValue(
            from_lv[d], c.values[static_cast<size_t>(d)], to_lv[d]);
      }
      merge(key, c);
    }
  }
  ChunkData out;
  out.gb = to;
  out.chunk = chunk;
  for (const auto& [key, s] : states) out.cells.push_back(s);
  return out;
}

// Random source cells at group-by `from` that land inside `chunk` of `to`:
// uniform draws from the per-dimension source windows of the rollup.
std::vector<Cell> RandomSourceCells(const TestCube& cube, GroupById from,
                                    GroupById to, ChunkId chunk, int n,
                                    Rng* rng) {
  const Schema& schema = *cube.schema;
  const Lattice& lat = *cube.lattice;
  const LevelVector& from_lv = lat.LevelOf(from);
  const LevelVector& to_lv = lat.LevelOf(to);
  const ChunkCoords coords = cube.grid->CoordsOf(to, chunk);
  const int nd = schema.num_dims();
  std::vector<Cell> cells;
  for (int i = 0; i < n; ++i) {
    Cell c;
    for (int d = 0; d < nd; ++d) {
      auto [vb, ve] = cube.grid->layout(d).ValueRange(
          to_lv[d], coords[static_cast<size_t>(d)]);
      auto [sb, se] = schema.dimension(d).DescendantValueRange(to_lv[d], vb,
                                                               from_lv[d]);
      se = schema.dimension(d)
               .DescendantValueRange(to_lv[d], ve - 1, from_lv[d])
               .second;
      c.values[static_cast<size_t>(d)] =
          sb + static_cast<int32_t>(rng->Uniform(static_cast<uint64_t>(se - sb)));
    }
    InitCellAggregates(c, static_cast<double>(rng->Uniform(1000)) + 0.25);
    cells.push_back(c);
  }
  return cells;
}

std::vector<std::span<const Cell>> AsSpans(
    const std::vector<std::vector<Cell>>& spans) {
  std::vector<std::span<const Cell>> out;
  out.reserve(spans.size());
  for (const auto& s : spans) out.emplace_back(s);
  return out;
}

// Exact (bit-identical) comparison of full aggregate state, after
// canonicalization.
void ExpectBitIdentical(int num_dims, ChunkData got, ChunkData want,
                        const char* what) {
  CanonicalizeChunkData(num_dims, &got);
  CanonicalizeChunkData(num_dims, &want);
  ASSERT_EQ(got.cells.size(), want.cells.size()) << what;
  for (size_t i = 0; i < got.cells.size(); ++i) {
    const Cell& g = got.cells[i];
    const Cell& w = want.cells[i];
    for (int d = 0; d < num_dims; ++d) {
      ASSERT_EQ(g.values[static_cast<size_t>(d)],
                w.values[static_cast<size_t>(d)])
          << what << " cell " << i;
    }
    EXPECT_EQ(g.measure, w.measure) << what << " cell " << i;
    EXPECT_EQ(g.count, w.count) << what << " cell " << i;
    EXPECT_EQ(g.min, w.min) << what << " cell " << i;
    EXPECT_EQ(g.max, w.max) << what << " cell " << i;
  }
}

// The tentpole property: for randomized cubes (non-uniform hierarchies and
// chunkings included), every (from, to, chunk) rollup over 0..8 spans —
// empty spans included — matches the naive reference fold cell-for-cell and
// bit-for-bit, both in one call and as repeated accumulator folds.
class RollupKernelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RollupKernelPropertyTest, MatchesReferenceFold) {
  const uint64_t seed = GetParam();
  TestCube cube = seed % 3 == 0   ? MakeThreeDimCube()
                  : seed % 3 == 1 ? MakeSmallCube()
                                  : MakeRandomCube(seed);
  Rng rng(seed * 7919 + 1);
  Aggregator agg(cube.grid.get());
  const Lattice& lat = *cube.lattice;
  const int nd = cube.schema->num_dims();
  for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
    for (GroupById from = 0; from < lat.num_groupbys(); ++from) {
      if (!lat.IsAncestor(to, from)) continue;
      const int64_t num_chunks = cube.grid->NumChunks(to);
      const ChunkId chunk =
          static_cast<ChunkId>(rng.Uniform(static_cast<uint64_t>(num_chunks)));
      const int num_spans = static_cast<int>(rng.Uniform(9));  // 0..8
      std::vector<std::vector<Cell>> spans;
      for (int s = 0; s < num_spans; ++s) {
        const int n = static_cast<int>(rng.Uniform(30));  // 0..29, empties too
        spans.push_back(RandomSourceCells(cube, from, to, chunk, n, &rng));
      }

      // One-call fold over all spans.
      ChunkData got = agg.AggregateSpans(from, AsSpans(spans), to, chunk);
      ChunkData want = ReferenceFold(cube, from, spans, to, chunk);
      ExpectBitIdentical(nd, got, want, "one-call");

      // Repeated accumulator folds: one call per span, feeding the running
      // result back in as an extra source at the target level.
      ChunkData acc;
      acc.gb = to;
      acc.chunk = chunk;
      std::vector<Cell> ref_acc;
      for (const auto& span : spans) {
        ChunkData partial = agg.AggregateCells(from, span, to, chunk);
        std::vector<const ChunkData*> sources{&partial, &acc};
        acc = agg.Aggregate(to, sources, to, chunk);
        // Mirror the kernel's merge order exactly (partial cells before the
        // running accumulator) so floating-point sums stay bit-identical.
        ChunkData ref_partial = ReferenceFold(cube, from, {span}, to, chunk);
        ChunkData ref_next = ReferenceFold(
            cube, to, {ref_partial.cells, ref_acc}, to, chunk);
        ref_acc = ref_next.cells;
      }
      want.cells = ref_acc;
      ExpectBitIdentical(nd, acc, want, "repeated-fold");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollupKernelPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           17u, 99u, 123u, 424242u));

// A two-dimensional cube whose base group-by is one side x side chunk.
// side=64 gives 4096 cells (the dense-path threshold); side=128 gives
// 16384 cells (sparse territory for small inputs).
TestCube MakeFlatCube(int32_t side) {
  TestCube c;
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("x", 8, {side / 8}));  // cards 8 / side
  dims.push_back(Dimension::Uniform("y", 8, {side / 8}));
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());
  for (int d = 0; d < 2; ++d) {
    c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
        DimensionChunkLayout::UniformValuesPerChunk(&c.schema->dimension(d),
                                                    {8, side})));
  }
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

// Regression: a dense-path fold with a handful of occupied cells must emit
// by walking the touched-offset list, not all shape cells (the old kernel
// swept all 4096 offsets to find 3 occupied ones).
TEST(RollupKernel, SparseInDenseEmitsOnlyTouchedCells) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  std::vector<Cell> cells(3);
  cells[0].values = {5, 7};
  cells[1].values = {5, 7};   // duplicate coordinate: same target cell
  cells[2].values = {60, 1};
  for (Cell& c : cells) InitCellAggregates(c, 2.5);

  Aggregator agg(cube.grid.get());
  ChunkData out = agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(out.tuple_count(), 2);

  const Aggregator::FoldInfo& info = agg.last_fold();
  EXPECT_TRUE(info.used_dense);
  EXPECT_EQ(info.shape_cells, 4096);
  // The emit visits only the touched cells, not every shape cell.
  EXPECT_EQ(info.cells_touched, 2);
}

// Regression: the arena is recycled across folds — the second fold must not
// see the first fold's state (stale occupied bits or accumulated sums), and
// the dense buffers must not be reallocated.
TEST(RollupKernel, ArenaReuseIsCleanAcrossFolds) {
  TestCube cube = MakeFlatCube(64);
  const GroupById base = cube.lattice->base_id();
  FoldArena arena;
  Aggregator agg(cube.grid.get(), &arena);

  std::vector<Cell> first(1);
  first[0].values = {10, 10};
  InitCellAggregates(first[0], 100.0);
  agg.AggregateCells(base, first, base, 0);
  const int64_t capacity = arena.dense_capacity();
  EXPECT_GE(capacity, 4096);

  // Second fold touches the same offset and different ones.
  std::vector<Cell> second(2);
  second[0].values = {10, 10};
  InitCellAggregates(second[0], 7.0);
  second[1].values = {0, 0};
  InitCellAggregates(second[1], 3.0);
  ChunkData out = agg.AggregateCells(base, second, base, 0);
  EXPECT_EQ(arena.dense_capacity(), capacity);  // recycled, not regrown

  CanonicalizeChunkData(2, &out);
  ASSERT_EQ(out.cells.size(), 2u);
  EXPECT_EQ(out.cells[0].measure, 3.0);
  EXPECT_EQ(out.cells[1].measure, 7.0);  // not 107: no stale state
  EXPECT_EQ(out.cells[1].count, 1);
}

// The sparse path (large, mostly empty chunks) through the flat
// open-addressing table, including reuse across folds.
TEST(RollupKernel, SparsePathMatchesReferenceAndRecycles) {
  TestCube cube = MakeFlatCube(128);
  const GroupById base = cube.lattice->base_id();
  Aggregator agg(cube.grid.get());
  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Cell>> spans{
        RandomSourceCells(cube, base, base, 0, 5, &rng)};
    ChunkData got = agg.AggregateSpans(base, AsSpans(spans), base, 0);
    EXPECT_FALSE(agg.last_fold().used_dense);  // 16384 cells, 5 tuples
    ChunkData want = ReferenceFold(cube, base, spans, base, 0);
    ExpectBitIdentical(2, std::move(got), std::move(want), "sparse");
  }
}

// Single-cell chunks: a cube whose fully aggregated chunk holds exactly
// one cell (level-0 cardinality 1 on every dimension).
TEST(RollupKernel, SingleCellChunk) {
  TestCube cube;
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("x", 1, {4}));  // cards 1 / 4
  dims.push_back(Dimension::Uniform("y", 1, {3}));  // cards 1 / 3
  cube.schema = std::make_unique<Schema>(std::move(dims));
  cube.lattice = std::make_unique<Lattice>(cube.schema.get());
  cube.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&cube.schema->dimension(0),
                                                  {1, 2})));
  cube.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      DimensionChunkLayout::UniformValuesPerChunk(&cube.schema->dimension(1),
                                                  {1, 3})));
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : cube.layouts) ptrs.push_back(l.get());
  cube.grid = std::make_unique<ChunkGrid>(cube.lattice.get(), std::move(ptrs));

  const GroupById base = cube.lattice->base_id();
  const GroupById top = cube.lattice->top_id();
  ASSERT_EQ(cube.grid->CellsInChunk(top, 0), 1);
  auto plan = BuildRollupPlan(*cube.grid, base, top, 0);
  EXPECT_EQ(plan->cells, 1);

  Aggregator agg(cube.grid.get());
  Rng rng(11);
  std::vector<std::vector<Cell>> spans{
      RandomSourceCells(cube, base, top, 0, 12, &rng)};
  ChunkData got = agg.AggregateSpans(base, AsSpans(spans), top, 0);
  EXPECT_EQ(got.tuple_count(), 1);
  ChunkData want = ReferenceFold(cube, base, spans, top, 0);
  ExpectBitIdentical(2, std::move(got), std::move(want), "single-cell");
}

// Empty inputs: no spans, and spans that are all empty.
TEST(RollupKernel, EmptyInputsProduceEmptyChunks) {
  TestCube cube = MakeSmallCube();
  Aggregator agg(cube.grid.get());
  const GroupById base = cube.lattice->base_id();
  const GroupById top = cube.lattice->top_id();
  ChunkData none = agg.AggregateSpans(base, {}, top, 0);
  EXPECT_EQ(none.tuple_count(), 0);
  std::vector<Cell> empty;
  ChunkData still_none = agg.AggregateCells(base, empty, top, 0);
  EXPECT_EQ(still_none.tuple_count(), 0);
  EXPECT_EQ(agg.tuples_processed(), 0);
}

// Satellite: the plan (including the target chunk shape that used to be
// recomputed per Aggregate call) is built once per (from, to, chunk) and
// reused from the cache afterwards.
TEST(RollupPlanCache, PlanIsReusedAcrossAggregateCalls) {
  TestCube cube = MakeThreeDimCube();
  Aggregator agg(cube.grid.get());
  const GroupById base = cube.lattice->base_id();
  const GroupById top = cube.lattice->top_id();
  Rng rng(3);
  std::vector<Cell> cells = RandomSourceCells(cube, base, top, 0, 20, &rng);

  agg.AggregateCells(base, cells, top, 0);
  RollupPlanCache::Stats stats = agg.plan_cache().stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 1);

  for (int i = 0; i < 4; ++i) agg.AggregateCells(base, cells, top, 0);
  stats = agg.plan_cache().stats();
  EXPECT_EQ(stats.misses, 1);  // no rebuilds for the same rollup target
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.entries, 1);

  // A different target chunk is a different plan.
  agg.AggregateCells(base, RandomSourceCells(cube, base, top, 1, 5, &rng),
                     top, 1);
  stats = agg.plan_cache().stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2);
}

// Plan contents: offset tables agree with AncestorValue on every source
// value of the window, for uniform and non-uniform hierarchies.
TEST(RollupPlan, TablesMatchAncestorWalk) {
  for (uint64_t seed : {0u, 1u, 2u, 3u}) {
    TestCube cube = seed == 0 ? MakeThreeDimCube() : MakeRandomCube(seed);
    const Lattice& lat = *cube.lattice;
    const Schema& schema = *cube.schema;
    const int nd = schema.num_dims();
    for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
      for (GroupById from = 0; from < lat.num_groupbys(); ++from) {
        if (!lat.IsAncestor(to, from)) continue;
        for (ChunkId chunk = 0; chunk < cube.grid->NumChunks(to); ++chunk) {
          auto plan = BuildRollupPlan(*cube.grid, from, to, chunk);
          const LevelVector& from_lv = lat.LevelOf(from);
          const LevelVector& to_lv = lat.LevelOf(to);
          for (int d = 0; d < nd; ++d) {
            for (int32_t i = 0; i < plan->src_width[static_cast<size_t>(d)];
                 ++i) {
              const int32_t v = plan->src_begin[static_cast<size_t>(d)] + i;
              const int32_t anc =
                  schema.dimension(d).AncestorValue(from_lv[d], v, to_lv[d]);
              const int64_t want =
                  (anc - plan->range_begin[static_cast<size_t>(d)]) *
                  plan->stride[static_cast<size_t>(d)];
              EXPECT_EQ(plan->table[static_cast<size_t>(d)][i], want);
            }
          }
        }
      }
    }
  }
}

// Engine pools share one plan cache: concurrent aggregators racing on the
// same and different rollup targets must agree with the reference fold and
// end up with one plan per target. Runs under TSan via the "kernel" label.
TEST(RollupPlanCache, SharedAcrossThreadsIsRaceFree) {
  TestCube cube = MakeThreeDimCube();
  const Lattice& lat = *cube.lattice;
  const GroupById base = lat.base_id();
  RollupPlanCache shared_cache;

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::vector<Cell>> inputs;
  std::vector<GroupById> targets;
  std::vector<ChunkId> chunks;
  Rng rng(29);
  for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
    const ChunkId chunk = static_cast<ChunkId>(
        rng.Uniform(static_cast<uint64_t>(cube.grid->NumChunks(to))));
    targets.push_back(to);
    chunks.push_back(chunk);
    inputs.push_back(RandomSourceCells(cube, base, to, chunk, 40, &rng));
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Aggregator agg(cube.grid.get());
      agg.set_plan_cache(&shared_cache);
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = (static_cast<size_t>(t) + static_cast<size_t>(round)) %
                         targets.size();
        ChunkData got =
            agg.AggregateCells(base, inputs[i], targets[i], chunks[i]);
        ChunkData want =
            ReferenceFold(cube, base, {inputs[i]}, targets[i], chunks[i]);
        if (!ChunkDataEquals(cube.schema->num_dims(), &got, &want, 0.0)) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;

  const RollupPlanCache::Stats stats = shared_cache.stats();
  EXPECT_EQ(stats.entries, static_cast<int64_t>(targets.size()));
  // Racing builders may duplicate a miss, but never an entry.
  EXPECT_GE(stats.misses, stats.entries);
  EXPECT_EQ(stats.hits + stats.misses, int64_t{kThreads} * kRounds);
}

}  // namespace
}  // namespace aac
