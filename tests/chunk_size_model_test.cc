#include <gtest/gtest.h>

#include <array>
#include <set>
#include <tuple>
#include <vector>

#include "chunks/chunk_size_model.h"
#include "storage/fact_table.h"
#include "storage/measured_size_model.h"
#include "test_util.h"
#include "workload/apb_schema.h"
#include "workload/data_generator.h"
#include "workload/web_schema.h"

namespace aac {
namespace {

TEST(ChunkSizeModel, FullDensityOccupancyIsOne) {
  TestCube cube = MakeSmallCube();
  const int64_t base_cells =
      cube.schema->NumCells(cube.schema->base_level());
  ChunkSizeModel model(cube.grid.get(), base_cells);
  for (GroupById gb = 0; gb < cube.lattice->num_groupbys(); ++gb) {
    EXPECT_NEAR(model.Occupancy(gb), 1.0, 1e-9);
  }
}

TEST(ChunkSizeModel, EmptyTableOccupancyIsZero) {
  TestCube cube = MakeSmallCube();
  ChunkSizeModel model(cube.grid.get(), 0);
  EXPECT_NEAR(model.Occupancy(cube.lattice->base_id()), 0.0, 1e-12);
  EXPECT_NEAR(model.Occupancy(cube.lattice->top_id()), 0.0, 1e-12);
}

TEST(ChunkSizeModel, OccupancyIncreasesTowardAggregatedLevels) {
  TestCube cube = MakeSmallCube();
  const int64_t base_cells =
      cube.schema->NumCells(cube.schema->base_level());
  ChunkSizeModel model(cube.grid.get(), base_cells / 3);
  const Lattice& lat = *cube.lattice;
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    for (GroupById child : lat.Children(gb)) {
      EXPECT_GE(model.Occupancy(child) + 1e-12, model.Occupancy(gb));
    }
  }
}

TEST(ChunkSizeModel, BaseGroupByTuplesMatchTableSize) {
  TestCube cube = MakeSmallCube();
  const int64_t n = 37;
  ChunkSizeModel model(cube.grid.get(), n);
  // At the base level, expected tuples == actual tuple count (cells are
  // occupied independently with p = N/C, expectation C*p = N).
  EXPECT_NEAR(model.ExpectedGroupByTuples(cube.lattice->base_id()),
              static_cast<double>(n), 1e-6);
}

TEST(ChunkSizeModel, ChunkTuplesSumToGroupByTuples) {
  TestCube cube = MakeThreeDimCube();
  ChunkSizeModel model(cube.grid.get(), 40);
  for (GroupById gb = 0; gb < cube.lattice->num_groupbys(); ++gb) {
    double sum = 0;
    for (ChunkId c = 0; c < cube.grid->NumChunks(gb); ++c) {
      sum += model.ExpectedChunkTuples(gb, c);
    }
    EXPECT_NEAR(sum, model.ExpectedGroupByTuples(gb), 1e-6);
  }
}

TEST(ChunkSizeModel, BytesUseConfiguredTupleWidth) {
  TestCube cube = MakeSmallCube();
  const int64_t base_cells =
      cube.schema->NumCells(cube.schema->base_level());
  ChunkSizeModel model(cube.grid.get(), base_cells, /*bytes_per_tuple=*/20);
  EXPECT_EQ(model.ExpectedGroupByBytes(cube.lattice->base_id()),
            base_cells * 20);
}

TEST(ChunkSizeModel, OversizedTupleCountClampsDensity) {
  TestCube cube = MakeSmallCube();
  const int64_t base_cells =
      cube.schema->NumCells(cube.schema->base_level());
  ChunkSizeModel model(cube.grid.get(), base_cells * 10);
  EXPECT_NEAR(model.Occupancy(cube.lattice->base_id()), 1.0, 1e-9);
}

// Brute-force reference for MeasuredChunkSizeModel: per group-by, the set
// of distinct cells the fact tuples map to, each counted in the chunk
// ChunkOfCell names. Also checks that chunk counts sum to the group-by
// count, that the base count is the table size, and that no group-by holds
// more cells than any of its lattice parents.
void ExpectMeasuredMatchesOracle(const ChunkGrid& grid,
                                 const FactTable& table) {
  const MeasuredChunkSizeModel model(&grid, &table);
  const Lattice& lattice = grid.lattice();
  const Schema& schema = grid.schema();
  const LevelVector& base = schema.base_level();
  const int nd = schema.num_dims();
  EXPECT_EQ(model.ExpectedGroupByTuples(lattice.base_id()),
            static_cast<double>(table.num_tuples()));
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const LevelVector& lv = lattice.LevelOf(gb);
    std::set<std::array<int32_t, kMaxDims>> cells;
    for (const Cell& t : table.tuples()) {
      std::array<int32_t, kMaxDims> mapped{};
      for (int d = 0; d < nd; ++d) {
        mapped[static_cast<size_t>(d)] = schema.dimension(d).AncestorValue(
            base[d], t.values[static_cast<size_t>(d)], lv[d]);
      }
      cells.insert(mapped);
    }
    std::vector<int64_t> expected(static_cast<size_t>(grid.NumChunks(gb)), 0);
    for (const auto& cell : cells) {
      ++expected[static_cast<size_t>(grid.ChunkOfCell(gb, cell.data()))];
    }
    ASSERT_EQ(model.ExpectedGroupByTuples(gb),
              static_cast<double>(cells.size()))
        << "group-by " << gb;
    double sum = 0;
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      ASSERT_EQ(model.ExpectedChunkTuples(gb, c),
                static_cast<double>(expected[static_cast<size_t>(c)]))
          << "group-by " << gb << " chunk " << c;
      sum += model.ExpectedChunkTuples(gb, c);
    }
    EXPECT_EQ(sum, model.ExpectedGroupByTuples(gb)) << "group-by " << gb;
    for (GroupById parent : lattice.Parents(gb)) {
      EXPECT_LE(model.ExpectedGroupByTuples(gb),
                model.ExpectedGroupByTuples(parent))
          << "group-by " << gb << " parent " << parent;
    }
  }
}

// APB-1 at 5k tuples: (dense_dim, seed).
class MeasuredChunkSizeModelApb
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(MeasuredChunkSizeModelApb, MatchesOracle) {
  const ApbCube cube;
  // The model counts group-bys of at most 2^24 cells in a bitmap and sorts
  // the rest; APB-1's lattice has group-bys on both sides, so both run.
  constexpr int64_t kBitmapLimit = int64_t{1} << 24;
  int dense = 0;
  int sparse = 0;
  for (GroupById gb = 0; gb < cube.lattice().num_groupbys(); ++gb) {
    if (cube.schema().NumCells(cube.lattice().LevelOf(gb)) <= kBitmapLimit) {
      ++dense;
    } else {
      ++sparse;
    }
  }
  EXPECT_GT(dense, 0);
  EXPECT_GT(sparse, 0);

  DataGenConfig data;
  data.num_tuples = 5000;
  data.dense_dim = std::get<0>(GetParam());
  data.seed = std::get<1>(GetParam());
  const FactTable table(&cube.grid(), GenerateFactData(cube.schema(), data));
  ExpectMeasuredMatchesOracle(cube.grid(), table);
}

INSTANTIATE_TEST_SUITE_P(DenseDimAndSeed, MeasuredChunkSizeModelApb,
                         ::testing::Combine(::testing::Values(2, -1),
                                            ::testing::Values(uint64_t{1},
                                                              uint64_t{7})));

TEST(MeasuredChunkSizeModel, WebCubeMatchesOracle) {
  const WebCube cube;
  DataGenConfig data;
  data.num_tuples = 5000;
  const FactTable table(&cube.grid(), GenerateFactData(cube.schema(), data));
  ExpectMeasuredMatchesOracle(cube.grid(), table);
}

TEST(MeasuredChunkSizeModel, NonUniformHierarchiesMatchOracle) {
  // Explicit non-uniform parent maps and chunk boundaries.
  const TestCube three = MakeThreeDimCube();
  const FactTable table(three.grid.get(), RandomBaseCells(three, 0.4, 5));
  ExpectMeasuredMatchesOracle(*three.grid, table);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const TestCube cube = MakeRandomCube(seed);
    const FactTable random(cube.grid.get(), RandomBaseCells(cube, 0.5, seed));
    ExpectMeasuredMatchesOracle(*cube.grid, random);
  }
}

TEST(MeasuredChunkSizeModel, EmptyAndOneTupleTables) {
  const TestCube cube = MakeThreeDimCube();
  const FactTable empty(cube.grid.get(), {});
  ExpectMeasuredMatchesOracle(*cube.grid, empty);
  const MeasuredChunkSizeModel empty_model(cube.grid.get(), &empty);
  for (GroupById gb = 0; gb < cube.lattice->num_groupbys(); ++gb) {
    EXPECT_EQ(empty_model.ExpectedGroupByTuples(gb), 0.0);
  }

  Cell one;
  one.values = {3, 9, 4};
  InitCellAggregates(one, 1.0);
  const FactTable single(cube.grid.get(), {one});
  ExpectMeasuredMatchesOracle(*cube.grid, single);
  const MeasuredChunkSizeModel single_model(cube.grid.get(), &single);
  for (GroupById gb = 0; gb < cube.lattice->num_groupbys(); ++gb) {
    EXPECT_EQ(single_model.ExpectedGroupByTuples(gb), 1.0);
  }
}

}  // namespace
}  // namespace aac
