#include "storage/fold_kernel.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/aggregator.h"
#include "test_util.h"
#include "util/rng.h"

namespace aac {
namespace {

// Random source cells at group-by `from` that land inside `chunk` of `to`
// (same construction as the rollup_plan_test property suite).
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
          sb +
          static_cast<int32_t>(rng->Uniform(static_cast<uint64_t>(se - sb)));
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

// Exact equality, including emit order — the two kernels must produce the
// same bytes in the same sequence, no canonicalization allowed.
void ExpectExactlyEqual(int num_dims, const ChunkData& got,
                        const ChunkData& want, uint64_t seed) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << "seed " << seed;
  for (size_t i = 0; i < got.cells.size(); ++i) {
    const Cell& g = got.cells[i];
    const Cell& w = want.cells[i];
    for (int d = 0; d < num_dims; ++d) {
      ASSERT_EQ(g.values[static_cast<size_t>(d)],
                w.values[static_cast<size_t>(d)])
          << "seed " << seed << " cell " << i;
    }
    ASSERT_EQ(g.measure, w.measure) << "seed " << seed << " cell " << i;
    ASSERT_EQ(g.count, w.count) << "seed " << seed << " cell " << i;
    ASSERT_EQ(g.min, w.min) << "seed " << seed << " cell " << i;
    ASSERT_EQ(g.max, w.max) << "seed " << seed << " cell " << i;
  }
}

TEST(FoldKernelDispatch, ResolvesModes) {
  EXPECT_EQ(ResolveFoldKernel("scalar"), FoldKernelKind::kScalar);
  const FoldKernelKind expected_vector = VectorFoldKernelSupported()
                                             ? FoldKernelKind::kVector
                                             : FoldKernelKind::kScalar;
  EXPECT_EQ(ResolveFoldKernel("vector"), expected_vector);
  EXPECT_EQ(ResolveFoldKernel("auto"), expected_vector);
  EXPECT_EQ(ResolveFoldKernel(nullptr), expected_vector);
  EXPECT_STREQ(FoldKernelName(FoldKernelKind::kScalar), "scalar");
  EXPECT_STREQ(FoldKernelName(FoldKernelKind::kVector), "vector");
}

TEST(FoldKernelDispatch, AggregatorReportsKernelUsed) {
  TestCube cube = MakeSmallCube();
  const GroupById base = cube.lattice->base_id();
  Rng rng(7);
  std::vector<Cell> cells = RandomSourceCells(cube, base, base, 0, 50, &rng);

  Aggregator agg(cube.grid.get());
  agg.set_fold_kernel(FoldKernelKind::kScalar);
  agg.AggregateCells(base, cells, base, 0);
  ASSERT_TRUE(agg.last_fold().used_dense);
  EXPECT_EQ(agg.last_fold().kernel, FoldKernelKind::kScalar);

  agg.set_fold_kernel(FoldKernelKind::kVector);
  agg.AggregateCells(base, cells, base, 0);
  EXPECT_EQ(agg.last_fold().kernel, FoldKernelKind::kVector);
}

// The tentpole acceptance property: scalar and vector kernels produce
// bit-identical ChunkData — same cells, same order, same bytes of
// aggregate state — across 1,000+ randomized shapes (random cubes,
// non-uniform hierarchies and chunkings, every (from, to) pair, random
// spans, tail lengths straddling the 8-cell vector batch). On machines
// without AVX2 the vector kernel resolves to scalar and the property holds
// trivially; the interesting coverage runs wherever tools/check.sh
// kernel-simd runs.
TEST(FoldKernelProperty, ScalarAndVectorBitIdenticalOn1000Shapes) {
  int64_t shapes = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    TestCube cube = seed % 4 == 0 ? MakeThreeDimCube() : MakeRandomCube(seed);
    Rng rng(seed * 104729 + 13);
    Aggregator scalar_agg(cube.grid.get());
    scalar_agg.set_fold_kernel(FoldKernelKind::kScalar);
    Aggregator vector_agg(cube.grid.get());
    vector_agg.set_fold_kernel(FoldKernelKind::kVector);
    const Lattice& lat = *cube.lattice;
    const int nd = cube.schema->num_dims();
    for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
      for (GroupById from = 0; from < lat.num_groupbys(); ++from) {
        if (!lat.IsAncestor(to, from)) continue;
        const int64_t num_chunks = cube.grid->NumChunks(to);
        const ChunkId chunk = static_cast<ChunkId>(
            rng.Uniform(static_cast<uint64_t>(num_chunks)));
        const int num_spans = 1 + static_cast<int>(rng.Uniform(4));
        std::vector<std::vector<Cell>> spans;
        for (int s = 0; s < num_spans; ++s) {
          // Lengths 0..40: covers empty spans, sub-batch tails (< 8) and
          // multi-batch bodies with every tail remainder.
          const int n = static_cast<int>(rng.Uniform(41));
          spans.push_back(RandomSourceCells(cube, from, to, chunk, n, &rng));
        }
        ChunkData got =
            vector_agg.AggregateSpans(from, AsSpans(spans), to, chunk);
        ChunkData want =
            scalar_agg.AggregateSpans(from, AsSpans(spans), to, chunk);
        ExpectExactlyEqual(nd, got, want, seed);
        ++shapes;

        // Accumulator re-fold (target-level cells through the kernels'
        // TargetOffsetOf path) stays bit-identical too.
        std::vector<const ChunkData*> sources{&got, &want};
        ChunkData got2 = vector_agg.Aggregate(to, sources, to, chunk);
        ChunkData want2 = scalar_agg.Aggregate(to, sources, to, chunk);
        ExpectExactlyEqual(nd, got2, want2, seed);
        ++shapes;
      }
    }
  }
  EXPECT_GE(shapes, 1000) << "property suite shrank below the acceptance bar";
}

// The mixed-radix emit walker must reproduce RollupPlan::ValuesOf exactly
// over arbitrary non-decreasing offset sequences: adjacent steps, in-row
// jumps, row-crossing carries and long jumps that force a re-seed.
TEST(DenseEmitWalker, MatchesValuesOfOnRandomSortedOffsets) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    TestCube cube = MakeRandomCube(seed);
    const Lattice& lat = *cube.lattice;
    Rng rng(seed * 31 + 7);
    for (GroupById to = 0; to < lat.num_groupbys(); ++to) {
      for (GroupById from = 0; from < lat.num_groupbys(); ++from) {
        if (!lat.IsAncestor(to, from)) continue;
        const ChunkId chunk = static_cast<ChunkId>(rng.Uniform(
            static_cast<uint64_t>(cube.grid->NumChunks(to))));
        std::shared_ptr<const RollupPlan> plan =
            BuildRollupPlan(*cube.grid, from, to, chunk);
        // A sorted mix of small and large strides through the offsets.
        std::vector<int64_t> offsets;
        int64_t off = static_cast<int64_t>(
            rng.Uniform(2));  // sometimes starts past zero
        while (off < plan->cells) {
          offsets.push_back(off);
          const uint64_t kind = rng.Uniform(10);
          if (kind < 5) {
            off += 1;  // adjacent (the dominant dense-emit case)
          } else if (kind < 8) {
            off += 1 + static_cast<int64_t>(rng.Uniform(7));
          } else {
            off += 1 + static_cast<int64_t>(
                           rng.Uniform(static_cast<uint64_t>(plan->cells)));
          }
        }
        DenseEmitWalker walker(*plan);
        for (int64_t o : offsets) {
          std::array<int32_t, kMaxDims> got{};
          std::array<int32_t, kMaxDims> want{};
          walker.ValuesAt(o, got.data());
          plan->ValuesOf(o, want.data());
          for (int d = 0; d < plan->num_dims; ++d) {
            ASSERT_EQ(got[static_cast<size_t>(d)],
                      want[static_cast<size_t>(d)])
                << "seed " << seed << " offset " << o << " dim " << d;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace aac
