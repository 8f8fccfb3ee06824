#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "chunks/chunk_size_model.h"
#include "storage/fact_table.h"
#include "storage/measured_size_model.h"
#include "test_util.h"
#include "util/fnv1a.h"
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
// ChunkOfCell names.
struct OracleCounts {
  std::vector<int64_t> groupby;             // per group-by
  std::vector<std::vector<int64_t>> chunk;  // per group-by, per chunk
};

OracleCounts CountByBruteForce(const ChunkGrid& grid, const FactTable& table) {
  const Lattice& lattice = grid.lattice();
  const Schema& schema = grid.schema();
  const LevelVector& base = schema.base_level();
  const int nd = schema.num_dims();
  OracleCounts oracle;
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
    std::vector<int64_t> chunks(static_cast<size_t>(grid.NumChunks(gb)), 0);
    for (const auto& cell : cells) {
      ++chunks[static_cast<size_t>(grid.ChunkOfCell(gb, cell.data()))];
    }
    oracle.groupby.push_back(static_cast<int64_t>(cells.size()));
    oracle.chunk.push_back(std::move(chunks));
  }
  return oracle;
}

// Checks every count of `model` against `oracle`, and also that chunk
// counts sum to the group-by count, that the base count is the table size,
// and that no group-by holds more cells than any of its lattice parents.
void ExpectModelMatchesOracle(const MeasuredChunkSizeModel& model,
                              const ChunkGrid& grid, const FactTable& table,
                              const OracleCounts& oracle) {
  const Lattice& lattice = grid.lattice();
  EXPECT_EQ(model.ExpectedGroupByTuples(lattice.base_id()),
            static_cast<double>(table.num_tuples()));
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    ASSERT_EQ(model.ExpectedGroupByTuples(gb),
              static_cast<double>(oracle.groupby[static_cast<size_t>(gb)]))
        << "group-by " << gb;
    const std::vector<int64_t>& expected =
        oracle.chunk[static_cast<size_t>(gb)];
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

void ExpectMeasuredMatchesOracle(const ChunkGrid& grid,
                                 const FactTable& table) {
  const MeasuredChunkSizeModel model(&grid, &table);
  ExpectModelMatchesOracle(model, grid, table,
                           CountByBruteForce(grid, table));
}

// Whether some level has chunks of unequal width. Then a cell's offset must
// come from its own chunk's value range, at strides from the widest chunks.
bool HasUnequalChunkWidths(const ChunkGrid& grid) {
  for (int d = 0; d < grid.schema().num_dims(); ++d) {
    const DimensionChunkLayout& layout = grid.layout(d);
    for (int l = 0; l < grid.schema().dimension(d).num_levels(); ++l) {
      for (int32_t k = 1; k < layout.num_chunks(l); ++k) {
        if (layout.ChunkWidth(l, k) != layout.ChunkWidth(l, 0)) return true;
      }
    }
  }
  return false;
}

// APB-1 at 5k tuples: (dense_dim, seed).
class MeasuredChunkSizeModelApb
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(MeasuredChunkSizeModelApb, MatchesOracle) {
  const ApbCube cube;
  const ChunkGrid& grid = cube.grid();
  // The model counts each chunk from the base chunks that aggregate into
  // it, so some chunk must read more than one of them.
  EXPECT_GT(grid.ParentChunkNumbers(cube.lattice().top_id(), 0,
                                    cube.lattice().base_id())
                .size(),
            1u);
  // APB-1 chunks each level evenly; NonUniformHierarchiesMatchOracle and
  // ChunksOver2To24CellsMatchOracle cover levels of unequal chunk widths.

  DataGenConfig data;
  data.num_tuples = 5000;
  data.dense_dim = std::get<0>(GetParam());
  data.seed = std::get<1>(GetParam());
  const FactTable table(&cube.grid(), GenerateFactData(cube.schema(), data));
  ExpectMeasuredMatchesOracle(grid, table);
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
  EXPECT_TRUE(HasUnequalChunkWidths(*three.grid));
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

TEST(MeasuredChunkSizeModel, ChunksOver2To24CellsMatchOracle) {
  // Three dimensions of 1 / 300 / 600 values, one chunk per level except
  // a's leaf level, which splits into chunks of 100 and 500 values. The
  // chunk at the 300-value levels holds 27M cells, more than the 2^24 a
  // bitmap covers, so it sorts its keys; group-by (600, 300, 300) has a
  // chunk on each side of that bound.
  TestCube cube;
  std::vector<Dimension> dims;
  for (const char* name : {"a", "b", "c"}) {
    dims.push_back(Dimension::Uniform(name, 1, {300, 2}));
  }
  cube.schema = std::make_unique<Schema>(std::move(dims));
  cube.lattice = std::make_unique<Lattice>(cube.schema.get());
  cube.layouts.push_back(std::make_unique<DimensionChunkLayout>(
      &cube.schema->dimension(0),
      std::vector<std::vector<int32_t>>{{0}, {0}, {0, 100}}));
  for (int d = 1; d < 3; ++d) {
    cube.layouts.push_back(std::make_unique<DimensionChunkLayout>(
        DimensionChunkLayout::UniformValuesPerChunk(
            &cube.schema->dimension(d), {1, 300, 600})));
  }
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : cube.layouts) ptrs.push_back(l.get());
  cube.grid = std::make_unique<ChunkGrid>(cube.lattice.get(), std::move(ptrs));
  const ChunkGrid& grid = *cube.grid;
  EXPECT_TRUE(HasUnequalChunkWidths(grid));
  constexpr int64_t kBitmapCells = int64_t{1} << 24;
  const GroupById mixed = cube.lattice->IdOf(LevelVector{2, 1, 1});
  ASSERT_EQ(grid.NumChunks(mixed), 2);
  EXPECT_LE(grid.CellsInChunk(mixed, 0), kBitmapCells);
  EXPECT_GT(grid.CellsInChunk(mixed, 1), kBitmapCells);

  // Sibling pairs: a's leaf values 2k and 2k+1 share one 300-level value,
  // so the sorted keys of the large chunks hold duplicates.
  Rng rng(3);
  std::vector<Cell> cells;
  for (int i = 0; i < 1500; ++i) {
    Cell cell;
    for (int d = 0; d < 3; ++d) {
      cell.values[static_cast<size_t>(d)] =
          static_cast<int32_t>(rng.Uniform(600));
    }
    InitCellAggregates(cell, 1.0);
    cells.push_back(cell);
    cell.values[0] ^= 1;
    cells.push_back(cell);
  }
  const FactTable table(&grid, std::move(cells));
  ExpectMeasuredMatchesOracle(grid, table);
}

// A digest of every count of `model`: each group-by's count, then its
// chunks' counts, as int64_t, group-by by group-by.
uint64_t CountsDigest(const MeasuredChunkSizeModel& model,
                      const ChunkGrid& grid) {
  uint64_t digest = kFnv1aOffsetBasis;
  for (GroupById gb = 0; gb < grid.lattice().num_groupbys(); ++gb) {
    const auto total = static_cast<int64_t>(model.ExpectedGroupByTuples(gb));
    digest = Fnv1a(&total, sizeof(total), digest);
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      const auto n = static_cast<int64_t>(model.ExpectedChunkTuples(gb, c));
      digest = Fnv1a(&n, sizeof(n), digest);
    }
  }
  return digest;
}

FactTable BenchScaleTable(const ApbCube& cube, int dense_dim, uint64_t seed) {
  DataGenConfig data;
  data.num_tuples = 120'000;
  data.dense_dim = dense_dim;
  data.seed = seed;
  return FactTable(&cube.grid(), GenerateFactData(cube.schema(), data));
}

// APB-1 at bench scale, where the brute-force oracle is too slow: every
// count is pinned by a digest computed by counting each group-by from the
// fact table. Counting keeps group-bys on all three data sets, and on the
// time-dense ones most of the counting reads kept cells.
TEST(MeasuredChunkSizeModel, BenchScaleCountsPinned) {
  struct Pin {
    int dense_dim;
    uint64_t seed;
    uint64_t digest;
  };
  const ApbCube cube;
  for (const Pin& pin : {Pin{2, 1, 0xb21ad34dcf1608a6ULL},
                         Pin{2, 7, 0x2753d6ffde5d5995ULL},
                         Pin{-1, 1, 0x6158a63d3f9bb359ULL}}) {
    SCOPED_TRACE(testing::Message() << "dense_dim " << pin.dense_dim
                                    << " seed " << pin.seed);
    const FactTable table = BenchScaleTable(cube, pin.dense_dim, pin.seed);
    const MeasuredChunkSizeModel model(&cube.grid(), &table);
    EXPECT_EQ(CountsDigest(model, cube.grid()), pin.digest);
  }
}

TEST(MeasuredChunkSizeModel, TimeDenseCountKeepsGroupBysWithinBudget) {
  // bench/e2e's data: the group-bys that roll time up collapse, so some are
  // kept, the kept cells fill most of the budget of one table, and counting
  // reads less than half of what counting every group-by from the table
  // reads.
  const ApbCube cube;
  const FactTable table = BenchScaleTable(cube, 2, 1);
  const MeasuredChunkSizeModel model(&cube.grid(), &table);
  const MeasuredChunkSizeModel::CountStats& stats = model.count_stats();
  EXPECT_GT(stats.kept_groupbys, 0);
  EXPECT_LE(stats.kept_cells, table.num_tuples());
  EXPECT_GT(stats.kept_cells, table.num_tuples() / 2);
  const int64_t from_table =
      (cube.lattice().num_groupbys() - 1) * table.num_tuples();
  EXPECT_LT(stats.visits, from_table / 2);
}

TEST(MeasuredChunkSizeModel, ConcurrentConstructionsAgree) {
  // Four constructions at once over one table, each with its own workers.
  const ApbCube cube;
  DataGenConfig data;
  data.num_tuples = 5000;
  data.dense_dim = 2;
  const FactTable table(&cube.grid(), GenerateFactData(cube.schema(), data));
  const OracleCounts oracle = CountByBruteForce(cube.grid(), table);
  std::array<std::unique_ptr<MeasuredChunkSizeModel>, 4> models;
  std::vector<std::thread> threads;
  for (auto& model : models) {
    threads.emplace_back([&cube, &table, &model] {
      model = std::make_unique<MeasuredChunkSizeModel>(&cube.grid(), &table);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& model : models) {
    ExpectModelMatchesOracle(*model, cube.grid(), table, oracle);
  }
}

}  // namespace
}  // namespace aac
