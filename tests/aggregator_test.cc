#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <tuple>
#include <vector>

#include "storage/aggregator.h"
#include "storage/fact_table.h"
#include "test_util.h"

namespace aac {

// ctest names a parameterized instance by its printed parameter: a
// (seed, fold kernel) pair prints as the seed, with "_scalar" appended when
// the test forces the scalar kernel.
void PrintTo(const std::tuple<uint64_t, FoldKernelKind>& param,
             std::ostream* os) {
  *os << std::get<0>(param)
      << (std::get<1>(param) == FoldKernelKind::kScalar ? "_scalar" : "");
}

namespace {

// Brute-force cube: aggregate all base cells to `gb`, keep only cells in
// `chunk`.
ChunkData OracleChunk(const TestCube& cube, const std::vector<Cell>& base_cells,
                      GroupById gb, ChunkId chunk) {
  const Schema& schema = *cube.schema;
  const Lattice& lat = *cube.lattice;
  const LevelVector& base_lv = schema.base_level();
  const LevelVector& lv = lat.LevelOf(gb);
  const int nd = schema.num_dims();
  std::map<std::vector<int32_t>, double> sums;
  for (const Cell& c : base_cells) {
    std::vector<int32_t> mapped(static_cast<size_t>(nd));
    for (int d = 0; d < nd; ++d) {
      mapped[static_cast<size_t>(d)] = schema.dimension(d).AncestorValue(
          base_lv[d], c.values[static_cast<size_t>(d)], lv[d]);
    }
    if (cube.grid->ChunkOfCell(gb, mapped.data()) != chunk) continue;
    sums[mapped] += c.measure;
  }
  ChunkData out;
  out.gb = gb;
  out.chunk = chunk;
  for (const auto& [vals, m] : sums) {
    Cell cell;
    for (int d = 0; d < nd; ++d) {
      cell.values[static_cast<size_t>(d)] = vals[static_cast<size_t>(d)];
    }
    cell.measure = m;
    out.cells.push_back(cell);
  }
  return out;
}

// Every seed runs with each fold kernel.
class AggregatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, FoldKernelKind>> {};

TEST_P(AggregatorPropertyTest, BaseToAnyLevelMatchesOracle) {
  const auto [seed, kernel] = GetParam();
  TestCube cube = MakeThreeDimCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.5, seed);
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  agg.set_fold_kernel(kernel);
  const Lattice& lat = *cube.lattice;
  const GroupById base = lat.base_id();
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (ChunkId c = 0; c < cube.grid->NumChunks(gb); ++c) {
      // Gather the base chunk slices that cover this chunk.
      std::vector<ChunkId> parents = cube.grid->ParentChunkNumbers(gb, c, base);
      ChunkData got;
      got.gb = gb;
      got.chunk = c;
      for (ChunkId p : parents) {
        ChunkData partial = agg.AggregateCells(base, table.ChunkSlice(p), gb, c);
        // Merge partials through repeated aggregation at the same level.
        std::vector<const ChunkData*> sources{&partial, &got};
        got = agg.Aggregate(gb, sources, gb, c);
      }
      ChunkData want = OracleChunk(cube, base_cells, gb, c);
      EXPECT_TRUE(
          ChunkDataEquals(cube.schema->num_dims(), &got, &want))
          << "gb=" << lat.LevelOf(gb).ToString() << " chunk=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AggregatorPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 17u, 123u),
                       ::testing::Values(FoldKernelKind::kVector,
                                         FoldKernelKind::kScalar)));

TEST(Aggregator, MultiSourceSingleCall) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.8, 5);
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  const Lattice& lat = *cube.lattice;
  const GroupById base = lat.base_id();
  const GroupById top = lat.top_id();

  // Materialize every base chunk, then aggregate them all to the top chunk
  // in a single Aggregate() call.
  std::vector<ChunkData> base_chunks;
  for (ChunkId c = 0; c < cube.grid->NumChunks(base); ++c) {
    base_chunks.push_back(agg.AggregateCells(base, table.ChunkSlice(c), base, c));
  }
  std::vector<const ChunkData*> sources;
  for (const auto& b : base_chunks) sources.push_back(&b);
  ChunkData got = agg.Aggregate(base, sources, top, 0);
  ChunkData want = OracleChunk(cube, base_cells, top, 0);
  EXPECT_TRUE(ChunkDataEquals(cube.schema->num_dims(), &got, &want));
}

TEST(Aggregator, IdentityAggregationPreservesCells) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.6, 11);
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  const GroupById base = cube.lattice->base_id();
  for (ChunkId c = 0; c < cube.grid->NumChunks(base); ++c) {
    ChunkData got = agg.AggregateCells(base, table.ChunkSlice(c), base, c);
    EXPECT_EQ(got.tuple_count(), table.ChunkTupleCount(c));
  }
}

TEST(Aggregator, CountsTuplesProcessed) {
  TestCube cube = MakeSmallCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 1.0, 3);
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  const GroupById base = cube.lattice->base_id();
  agg.AggregateCells(base, table.ChunkSlice(0), base, 0);
  EXPECT_EQ(agg.tuples_processed(), table.ChunkTupleCount(0));
  agg.ResetCounters();
  EXPECT_EQ(agg.tuples_processed(), 0);
}

TEST(Aggregator, MeasureTotalsPreservedAcrossLevels) {
  // The small cube's top group-by has exactly one chunk, so the whole fact
  // table folds into it.
  TestCube cube = MakeSmallCube();
  std::vector<Cell> base_cells = RandomBaseCells(cube, 0.5, 21);
  double total = 0;
  for (const Cell& c : base_cells) total += c.measure;
  FactTable table(cube.grid.get(), base_cells);
  Aggregator agg(cube.grid.get());
  const Lattice& lat = *cube.lattice;
  ChunkData top = agg.AggregateCells(lat.base_id(), table.tuples(),
                                     lat.top_id(), 0);
  // The top group-by of the small cube has 2x2 cells in a single chunk.
  EXPECT_LE(top.tuple_count(), 4);
  double got = 0;
  for (const Cell& c : top.cells) got += c.measure;
  EXPECT_NEAR(got, total, 1e-9);
}

}  // namespace
}  // namespace aac
